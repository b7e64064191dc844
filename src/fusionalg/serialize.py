"""File formats, the scenario operations, and replayable certificates.

Input documents are JSON with a ``kind`` field naming what they carry;
:data:`KINDS` lists every kind with its decoder and its axiom battery.
Every JSON object, nested ones included, is read through one field
reader, which refuses any field the reader does not name, with its path
(``params.profil: unknown field``).  Every rational entry is an exact
integer or a ``"p/q"`` string; floats are rejected because they are
approximate.  A value of the form ``{"path": "other.json"}`` anywhere in
a document is replaced by the content of that file, resolved relative
to the referring file; one document may read at most
:data:`MAX_DOCUMENT_BYTES` and nest at most :data:`MAX_JSON_DEPTH` levels
deep, its references included.

:data:`OPERATIONS` holds every operation a scenario can name: which
command runs it, the input documents it reads, how its parameters are
parsed, how it builds its result, and how the witnesses a result records
are read back.  Running and replaying share the parse and the result
builder, so an input is decoded and checked against its axioms once, and
a result is written in one place.

A certificate records one run — the fully inlined scenario, the
result data (dimensions, verdicts, and the witness matrices in sparse
form), the tool version, and the elapsed time.  Certificates serialize
to canonical JSON (sorted keys, no whitespace), so two runs of the
same scenario produce byte-identical files apart from the recorded
``timing_seconds``.  :func:`verify_certificate` replays one; it never
runs the solver.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from . import __version__
from .algebra import FDAlgebra, Failure, check_algebra
from .classical import (
    DiagonalJoinFreeness,
    diagonal_join,
    diagonal_join_freeness,
    discrete_join,
    fun_comodule,
    fun_of_join_vs_fusion,
    gauged_join_iso,
    is_free,
)
from .comodule import (
    ComoduleAlgebra,
    PrincipalityVerdict,
    StrongConnection,
    canonical_map,
    check_comodule,
    check_strong_connection,
    coinvariants,
    connection_system,
    is_principal,
    solve_strong_connection,
)
from .fusion import (
    BaseWithEnds,
    PreconditionError,
    SqrtPair,
    base_with_ends,
    build_equivariant_fusion,
    build_fusion,
    chain_interval,
    default_profile,
    make_sqrt_pair,
    pullback_identification,
    verify_theorem_main,
)
from .groups import FiniteGroup, FiniteGSet
from .hopf import HopfAlgebra, check_hopf, make_hopf
from .linalg import Infeasibility, LinearMap, Q0, Space

TOOL_NAME = "fusionalg"


class InputFormatError(ValueError):
    """An input file does not match the documented formats."""


def _fail(where: str, msg: str) -> None:
    raise InputFormatError(f"{where}: {msg}")


def _fields(
    obj, where: str, kind: str | None = None, required=(), optional: dict = {}
) -> tuple:
    """Read the JSON object at ``where``: the values of its ``required``
    fields, then those of its ``optional`` ones, with their defaults
    when absent.  A ``kind`` field must name ``kind``, and when absent it
    means that kind; any field not named here is refused with its path."""
    if not isinstance(obj, dict):
        _fail(where, "expected a JSON object")
    if kind is not None and obj.get("kind", kind) != kind:
        _fail(where, f"expected kind {kind!r}, got {obj['kind']!r}")
    for key in obj:
        if key not in required and key not in optional and (kind is None or key != "kind"):
            _fail(f"{where}.{key}", "unknown field")
    for key in required:
        if key not in obj:
            _fail(where, f"missing required field {key!r}")
    return (
        *(obj[key] for key in required),
        *(obj.get(key, default) for key, default in optional.items()),
    )


# ---------------------------------------------------------------- rationals

# The exponent of a spelling like "1e5000": Fraction(str) writes out 10 to
# its power, so it is held to the digit limit int() keeps on the others.
_EXPONENT = re.compile(r"[eE]([-+]?[\d_]+)\s*\Z")
# "p" and "p/q" with q ≠ 0 and each part in at most 18 digits, the spellings
# documents use, which int() reads under any digit limit (at least 640) as
# Fraction(str) would; every other spelling goes to Fraction
_SHORT_RATIONAL = re.compile(r"(-?[0-9]{1,18})(?:/(?!0+\Z)([0-9]{1,18}))?")


def rational_from_obj(v, where: str = "value") -> Fraction:
    """An exact rational from an int or a "p/q" string.  A spelling with
    an exponent beyond ``sys.get_int_max_str_digits()`` is refused."""
    if isinstance(v, bool):
        _fail(where, "expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        _fail(where, "floats are approximate; write the rational as \"p/q\"")
    if isinstance(v, str):
        try:
            if pq := _short_rational(v):
                return Fraction(*pq)
            exponent, limit = _EXPONENT.search(v), sys.get_int_max_str_digits()
            if not (exponent and limit and abs(int(exponent[1])) > limit):
                return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            _fail(where, f"not a rational: {v!r} ({exc})")
        _fail(where, f"not a rational: {v!r} (its exponent exceeds {limit} digits)")
    _fail(where, f"expected a rational, got {type(v).__name__}")


def rational_to_obj(v, den: int = 1) -> str:
    """``str(Fraction(v, den))`` for den > 0: over 1 ``str(v)``, else
    spelled from the integers v and den."""
    if den == 1:
        return str(v)
    g = gcd(v, den)
    return str(v // g) if g == den else f"{v // g}/{den // g}"


def _short_rational(v) -> tuple[int, int] | None:
    """p and q > 0 of an ``int`` or of a short "p" or "p/q" spelling, read
    with no ``Fraction`` built; None for any other value."""
    if type(v) is int:
        return v, 1
    if type(v) is str and (m := _SHORT_RATIONAL.fullmatch(v)):
        return int(m[1]), int(m[2] or 1)
    return None


def _int_from_obj(v, where: str, minimum: int | None = None) -> int:
    if isinstance(v, bool) or not isinstance(v, int):
        _fail(where, f"expected an integer, got {type(v).__name__}")
    if minimum is not None and v < minimum:
        _fail(where, f"expected an integer >= {minimum}, got {v}")
    return v


def _str_from_obj(v, where: str) -> str:
    if not isinstance(v, str):
        _fail(where, f"expected a string, got {type(v).__name__}")
    return v


def _bool_from_obj(v, where: str) -> bool:
    if not isinstance(v, bool):
        _fail(where, f"expected true or false, got {type(v).__name__}")
    return v


def _list_from_obj(v, where: str, length: int | None = None) -> list:
    if not isinstance(v, list):
        _fail(where, f"expected a list, got {type(v).__name__}")
    if length is not None and len(v) != length:
        _fail(where, f"expected {length} entries, got {len(v)}")
    return v


# ---------------------------------------------------------------- matrices

def vector_from_obj(obj, length: int, where: str) -> tuple[Fraction, ...]:
    entries = _list_from_obj(obj, where, length)
    return tuple(Fraction(_dense_entry(v, where, i)) for i, v in enumerate(entries))


def vector_to_obj(vec: dict, length: int) -> list[str]:
    """A sparse vector written out with ``length`` coordinates."""
    return [rational_to_obj(vec.get(i, Q0)) for i in range(length)]


def _dense_entry(v, row: str, j: int):
    """Entry j of a dense matrix row: an integer (most entries are 0 or
    1) as an ``int`` and any other short spelling as a ``Fraction``
    (:func:`_short_rational`); any other value as
    :func:`rational_from_obj` reads it at ``row[j]``, with its message."""
    pq = _short_rational(v)
    if pq is None:
        return rational_from_obj(v, f"{row}[{j}]")
    return pq[0] if pq[1] == 1 else Fraction(*pq)


def dense_map_from_obj(
    obj, source: Space, target: Space, where: str
) -> LinearMap:
    """A linear map from a dense row-major matrix (target dim rows),
    read into sparse columns: a ``"0"`` is skipped as it is, and every
    other entry is read by :func:`_dense_entry`."""
    rows = _list_from_obj(obj, where, target.dim)
    cols: list[dict] = [{} for _ in range(source.dim)]
    for i, row in enumerate(rows):
        at = f"{where}[{i}]"
        for j, v in enumerate(_list_from_obj(row, at, source.dim)):
            if v != "0" and (v := _dense_entry(v, at, j)):
                cols[j][i] = v
    return LinearMap.from_sparse_columns(source, target, cols)


def dense_map_to_obj(m: LinearMap) -> list[list[str]]:
    return [[rational_to_obj(v) for v in row] for row in m.rows]


def sparse_map_to_obj(m: LinearMap) -> dict:
    """{"rows", "cols", "entries": [[i, j, "p/q"], ...]} sorted row-major."""
    entries = sorted(
        [i, j, rational_to_obj(v, m.den)] for j, col in enumerate(m.cols) for i, v in col.items()
    )
    return {"rows": m.target.dim, "cols": m.source.dim, "entries": entries}


def sparse_map_from_obj(
    obj, source: Space, target: Space, where: str
) -> LinearMap:
    rows, cols, entries = _fields(obj, where, None, ("rows", "cols", "entries"))
    rows = _int_from_obj(rows, f"{where}.rows", 0)
    cols = _int_from_obj(cols, f"{where}.cols", 0)
    if rows != target.dim or cols != source.dim:
        _fail(
            where,
            f"shape {rows}x{cols} does not match the expected "
            f"{target.dim}x{source.dim}",
        )
    # a well-formed entry is read straight into int columns; any other is checked
    columns: list[dict[int, int]] = [{} for _ in range(cols)]
    fractional = []  # (column, row, q) of each entry with q > 1
    for k, entry in enumerate(_list_from_obj(entries, where)):
        i, j, v = entry if type(entry) is list and len(entry) == 3 else (-1, -1, None)
        if not (type(i) is type(j) is int and 0 <= i < rows and 0 <= j < cols
                and i not in columns[j] and (pq := _short_rational(v))):
            ew = f"{where}.entries[{k}]"
            triple = _list_from_obj(entry, ew, 3)
            i, j = (_int_from_obj(x, f"{ew}[{pos}]", 0) for pos, x in enumerate(triple[:2]))
            if i >= rows or j >= cols:
                _fail(ew, f"index ({i},{j}) outside a {rows}x{cols} matrix")
            if i in columns[j]:
                _fail(ew, f"duplicate entry at ({i},{j})")
            v = rational_from_obj(triple[2], f"{ew}[2]")
            pq = v.numerator, v.denominator
        columns[j][i], q = pq
        if q != 1:
            fractional.append((columns[j], i, q))
    den = lcm(*(q for _, _, q in fractional))
    if den != 1:
        for col in columns:
            for i in col:
                col[i] *= den
        for col, i, q in fractional:
            col[i] //= q
    return LinearMap.from_sparse_columns(source, target, columns, den)


# ---------------------------------------------------------------- documents

def _labels_from_obj(obj, where: str) -> tuple[str, ...]:
    labels = _list_from_obj(obj, where)
    if not labels:
        _fail(where, "needs at least one label")
    out = tuple(_str_from_obj(v, f"{where}[{i}]") for i, v in enumerate(labels))
    if len(set(out)) != len(out):
        _fail(where, "labels must be unique")
    return out


def algebra_to_obj(a: FDAlgebra) -> dict:
    mult = [
        [i, j, k, rational_to_obj(v, a.den)]
        for i, row in enumerate(a.table)
        for j, prod in enumerate(row)
        for k, v in sorted(prod.items())
    ]
    return {
        "kind": "algebra",
        "labels": list(a.labels),
        "unit": [rational_to_obj(a.unit.get(i, 0), a.den) for i in range(a.dim)],
        "mult": mult,
    }


def algebra_from_obj(obj, where: str = "algebra") -> FDAlgebra:
    labels, unit, mult = _fields(obj, where, "algebra", ("labels", "unit", "mult"))
    labels = _labels_from_obj(labels, f"{where}.labels")
    n = len(labels)
    unit = _list_from_obj(unit, f"{where}.unit", n)
    unit = {i: x for i, v in enumerate(unit) if (x := _dense_entry(v, f"{where}.unit", i))}
    table = [[{} for _ in range(n)] for _ in range(n)]
    for t, entry in enumerate(_list_from_obj(mult, f"{where}.mult")):
        i, j, k, v = entry if type(entry) is list and len(entry) == 4 else (-1, -1, -1, None)
        if not (type(i) is type(j) is type(k) is int and 0 <= min(i, j, k) and max(i, j, k) < n
                and k not in table[i][j] and (pq := _short_rational(v))):
            ew = f"{where}.mult[{t}]"
            quad = _list_from_obj(entry, ew, 4)
            i, j, k = (_int_from_obj(x, f"{ew}[{pos}]", 0) for pos, x in enumerate(quad[:3]))
            if i >= n or j >= n or k >= n:
                _fail(ew, f"index triple ({i},{j},{k}) outside dimension {n}")
            if k in table[i][j]:
                _fail(ew, f"duplicate structure constant at ({i},{j},{k})")
            pq = rational_from_obj(quad[3], f"{ew}[3]"), 1
        table[i][j][k] = pq[0] if pq[1] == 1 else Fraction(*pq)
    return FDAlgebra(Space(labels), table, unit)


def hopf_to_obj(h: HopfAlgebra) -> dict:
    obj = {
        "kind": "hopf",
        "algebra": algebra_to_obj(h.algebra),
        "coproduct": dense_map_to_obj(h.coproduct),
        "counit": dense_map_to_obj(h.counit),
        "antipode": dense_map_to_obj(h.antipode),
    }
    if h.antipode_inv is not None:
        obj["antipode_inv"] = dense_map_to_obj(h.antipode_inv)
    return obj


def hopf_from_obj(obj, where: str = "hopf") -> HopfAlgebra:
    algebra, coproduct, counit, antipode, antipode_inv = _fields(
        obj, where, "hopf", ("algebra", "coproduct", "counit", "antipode"),
        {"antipode_inv": None},
    )
    algebra = algebra_from_obj(algebra, f"{where}.algebra")
    sp = algebra.space
    return make_hopf(
        algebra,
        dense_map_from_obj(coproduct, sp, sp.tensor(sp), f"{where}.coproduct"),
        dense_map_from_obj(counit, sp, Space.scalar(), f"{where}.counit"),
        dense_map_from_obj(antipode, sp, sp, f"{where}.antipode"),
        None
        if antipode_inv is None
        else dense_map_from_obj(antipode_inv, sp, sp, f"{where}.antipode_inv"),
    )


def comodule_to_obj(c: ComoduleAlgebra) -> dict:
    return {
        "kind": "comodule",
        "algebra": algebra_to_obj(c.algebra),
        "hopf": hopf_to_obj(c.hopf),
        "coaction": dense_map_to_obj(c.coaction),
    }


def comodule_from_obj(obj, where: str = "comodule") -> ComoduleAlgebra:
    algebra, hopf, coaction = _fields(
        obj, where, "comodule", ("algebra", "hopf", "coaction")
    )
    algebra = algebra_from_obj(algebra, f"{where}.algebra")
    hopf = hopf_from_obj(hopf, f"{where}.hopf")
    coaction = dense_map_from_obj(
        coaction,
        algebra.space,
        algebra.space.tensor(hopf.space),
        f"{where}.coaction",
    )
    return ComoduleAlgebra(algebra, hopf, coaction)


def group_to_obj(g: FiniteGroup) -> dict:
    return {
        "kind": "group",
        "names": list(g.names),
        "table": [list(row) for row in g.table],
    }


class _TableAxiomsFailed(InputFormatError):
    """A well-formed group or action table that fails its axioms."""

    def __init__(self, where: str, axiom: str, detail: str):
        super().__init__(f"{where}: {detail}")
        self.where, self.failure = where, Failure(axiom, detail)


def _table_from_obj(obj, where: str, rows: int, width: int) -> tuple:
    """A ``rows`` x ``width`` table of indices."""
    return tuple(
        tuple(
            _int_from_obj(v, f"{where}[{i}][{j}]", 0)
            for j, v in enumerate(_list_from_obj(row, f"{where}[{i}]", width))
        )
        for i, row in enumerate(_list_from_obj(obj, where, rows))
    )


def _from_table(where: str, axiom: str, build: Callable, *args):
    try:
        return build(*args)
    except ValueError as exc:
        raise _TableAxiomsFailed(where, axiom, str(exc)) from None


def group_from_obj(obj, where: str = "group") -> FiniteGroup:
    names, table = _fields(obj, where, "group", ("names", "table"))
    names = _labels_from_obj(names, f"{where}.names")
    table = _table_from_obj(table, f"{where}.table", len(names), len(names))
    return _from_table(where, "group_axioms", FiniteGroup.from_table, names, table)


def gset_to_obj(s: FiniteGSet) -> dict:
    return {
        "kind": "gset",
        "group": group_to_obj(s.group),
        "points": list(s.points),
        "act": [list(row) for row in s.act],
    }


def gset_from_obj(obj, where: str = "gset") -> FiniteGSet:
    group, points, act = _fields(obj, where, "gset", ("group", "points", "act"))
    group = group_from_obj(group, f"{where}.group")
    points = _labels_from_obj(points, f"{where}.points")
    act = _table_from_obj(act, f"{where}.act", len(points), group.order)
    return _from_table(where, "action_axioms", FiniteGSet.from_table, group, points, act)


# ---------------------------------------------------------------- scenarios

@dataclass(frozen=True)
class Scenario:
    """One named run: an operation with raw inputs and parameters.

    ``inputs`` maps names to raw document objects (path references
    already inlined); ``params`` holds plain JSON parameters.
    """

    id: str
    operation: str
    inputs: dict
    params: dict


def _operation_name(op, where: str) -> str:
    op = _str_from_obj(op, f"{where}.operation")
    if op not in OPERATIONS:
        _fail(
            where,
            f"unknown operation {op!r}; expected one of "
            + ", ".join(sorted(OPERATIONS)),
        )
    return op


def scenario_from_obj(obj, where: str = "scenario") -> Scenario:
    sid, op, inputs, params = _fields(
        obj, where, "scenario", ("id", "operation"), {"inputs": {}, "params": {}}
    )
    sid = _str_from_obj(sid, f"{where}.id")
    op = _operation_name(op, where)
    if not isinstance(inputs, dict):
        _fail(f"{where}.inputs", "expected a JSON object")
    if not isinstance(params, dict):
        _fail(f"{where}.params", "expected a JSON object")
    return Scenario(sid, op, inputs, params)


def param_int(params: dict, name: str, where: str, minimum: int = 1) -> int:
    if name not in params:
        _fail(where, f"missing required field {name!r}")
    return _int_from_obj(params[name], f"{where}.{name}", minimum)


def base_from_obj(obj, where: str) -> BaseWithEnds:
    """A raw base: an algebra with two evaluation rows."""
    algebra, *ends = _fields(obj, where, None, ("algebra", "end_zero", "end_one"))
    algebra = algebra_from_obj(algebra, f"{where}.algebra")
    end_zero, end_one = (
        dense_map_from_obj([row], algebra.space, Space.scalar(), f"{where}.{name}")
        for row, name in zip(ends, ("end_zero", "end_one"))
    )
    try:
        return base_with_ends(algebra, end_zero, end_one)
    except ValueError as exc:
        _fail(where, str(exc))


# The largest fusion ambient C (x) P (x) H a scenario may ask for: the
# base points times the fiber, (m+1)·dim P·dim H over the chain 0..m.
# The ambient stores only its (m+1)·nnz(P)·nnz(H) nonzero structure
# constants, and the carrier and every map only their nonzero entries,
# as sparse echelon rows and sparse columns; what grows with the ambient
# dimension n is the number of carrier rows, the n columns of the maps
# on the ambient (the end evaluations, the coaction id (x) Δ and the
# carrier's inclusion) and the templates of the fusion's connection
# system, whose rows are computed when they are read.
# At 128, O(Z4) theorem-main at m = 7 takes 0.35–0.50 s and 33 MB peak
# RSS, the fusion build under 0.05 s of it (fastest of 3 calls, in 3
# processes; Python 3.11, shared 2-vCPU virtual machine).  The largest scenario in
# data/ and in the benchmark references (O(S3) and kS3 at m = 1) has 72.
# The joins of finite sets are bounded by the same number: the points of
# a join are at most the ambient of the fusion of its function algebras.
MAX_AMBIENT_DIM = 128
# The most bytes one document may read: its own file and every file its
# path references bring in, a file counted as often as it is referenced.
# The largest certificate written today, an O(S3) benchmark reference,
# has 13.6 KB, so 16 MiB leaves three orders of magnitude for
# hand-written documents.  Without a total, references that double at
# each level inline about 1 GB within the 20 levels the depth limit
# allows; with it, such a chain is refused after 16 MiB of reading.
MAX_DOCUMENT_BYTES = 16 * 2**20
# The deepest nesting of arrays and objects one document may have, its
# path references included.  The deepest document written today, a
# certificate, nests 8 levels.  The bound is checked on each file's text
# before it is parsed, so that neither the parser nor the walk that
# inlines path references, one frame per level, meets the interpreter's
# recursion limit (1000 by default).
MAX_JSON_DEPTH = 512
_FUSION_AMBIENT = "the fusion ambient dimension"


def _within_budget(where: str, dim: int, measure: str = _FUSION_AMBIENT) -> None:
    """Refuse a scenario whose size ``dim``, named by ``measure``,
    exceeds the budget, before anything is built."""
    if dim > MAX_AMBIENT_DIM:
        _fail(where, f"{measure} {dim} exceeds the budget of {MAX_AMBIENT_DIM}")


def _fiber_dim(inputs) -> int:
    """Dimension of the fiber P (x) H of a comodule, or P (x) Q of two
    algebras, that a fusion places over each base point."""
    dim = 1
    for value in inputs:
        if isinstance(value, ComoduleAlgebra):
            dim *= value.algebra.dim * value.hopf.dim
        else:
            dim *= value.dim
    return dim


def _param_base(scn: Scenario, inputs) -> tuple[BaseWithEnds]:
    """The base a fusion scenario runs over: an inline raw base under
    ``params.base``, or the chain 0..m for ``params.m``."""
    raw = scn.params.get("base")
    if raw is not None:
        if "m" in scn.params:
            _fail("params", "give either a base or m, not both")
        base = base_from_obj(raw, "params.base")
        _within_budget("params.base", base.dim * _fiber_dim(inputs))
        return (base,)
    m = param_int(scn.params, "m", "params")
    _within_budget("params.m", (m + 1) * _fiber_dim(inputs))
    return (chain_interval(m),)


# ---------------------------------------------------------------- kinds

@dataclass(frozen=True)
class DocumentKind:
    """How a document of one kind is read: ``decode(obj, where)`` builds
    its value, and ``battery(value)`` lists the value's axiom failures.
    A kind without a battery cannot be checked; a certificate has no
    decoder and stays raw for :func:`verify_certificate`."""

    decode: Callable | None = None
    battery: Callable | None = None


def _checked_when_decoded(value) -> tuple:
    """Group and action tables meet their axioms as they are decoded."""
    return ()


KINDS: dict[str, DocumentKind] = {
    "algebra": DocumentKind(algebra_from_obj, lambda a: check_algebra(a).failures),
    "hopf": DocumentKind(hopf_from_obj, lambda h: check_hopf(h).failures),
    "comodule": DocumentKind(
        comodule_from_obj,
        lambda c: (*check_algebra(c.algebra).failures, *check_hopf(c.hopf).failures,
                   *check_comodule(c).failures),
    ),
    "group": DocumentKind(group_from_obj, _checked_when_decoded),
    "gset": DocumentKind(gset_from_obj, _checked_when_decoded),
    "scenario": DocumentKind(scenario_from_obj),
    "certificate": DocumentKind(),
}


def _kind(obj, where: str) -> str:
    """The kind a document names, one of :data:`KINDS`."""
    if not isinstance(obj, dict):
        _fail(where, "expected a JSON object")
    if "kind" not in obj:
        _fail(where, "missing required field 'kind'")
    kind = obj["kind"]
    if not isinstance(kind, str) or kind not in KINDS:
        _fail(where, f"unknown kind {kind!r}; expected one of " + ", ".join(sorted(KINDS)))
    return kind


# ---------------------------------------------------------------- loading

_MAX_PATH_DEPTH = 20


_JSON_STRING = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"')
_JSON_BRACKET = re.compile(r"[][{}]")


def _nesting(text: str) -> int:
    """How deep arrays and objects nest in a JSON text, counted from its
    brackets outside strings, without parsing it."""
    depth = deepest = 0
    for bracket in _JSON_BRACKET.findall(_JSON_STRING.sub("", text)):
        depth += 1 if bracket in "[{" else -1
        deepest = max(deepest, depth)
    return deepest


def load_json(path, spent: list[int] | None = None, level: int = 0) -> dict | list:
    """Parse one JSON file.  ``spent[0]`` counts the bytes read for one
    document; a file that takes it past :data:`MAX_DOCUMENT_BYTES` is
    refused before it is read.  The file's content lands ``level``
    arrays and objects deep in the document, which may nest at most
    :data:`MAX_JSON_DEPTH` deep."""
    path = Path(path)
    spent = [0] if spent is None else spent
    try:
        spent[0] += path.stat().st_size
        if spent[0] > MAX_DOCUMENT_BYTES:
            raise InputFormatError(
                f"{path}: the document reads more than {MAX_DOCUMENT_BYTES} "
                "bytes, its path references included"
            )
        text = path.read_text()
    except OSError as exc:
        raise InputFormatError(f"{path}: cannot read: {exc}") from exc
    if level + _nesting(text) > MAX_JSON_DEPTH:
        raise InputFormatError(
            f"{path}: the document is nested too deeply: more than "
            f"{MAX_JSON_DEPTH} levels of arrays and objects, its path references included"
        )
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc


def inline_paths(
    obj, base_dir, depth: int = 0, spent: list[int] | None = None, level: int = 0
):
    """Replace every ``{"path": ...}`` reference by the referenced file's
    content, resolved relative to the referring file; ``spent`` counts
    the bytes read, and ``level`` the arrays and objects around ``obj``,
    as :func:`load_json` takes them."""
    if depth > _MAX_PATH_DEPTH:
        raise InputFormatError("path references nest too deeply")
    spent = [0] if spent is None else spent
    if isinstance(obj, dict):
        if set(obj) == {"path"}:
            rel = _str_from_obj(obj["path"], "path reference")
            if base_dir is None:
                raise InputFormatError(
                    f"path reference {rel!r} has no base directory"
                )
            target = Path(base_dir) / rel
            return inline_paths(
                load_json(target, spent, level), target.parent, depth + 1, spent, level
            )
        # loops, not comprehensions, so that each level takes one frame
        inlined = {}
        for k, v in obj.items():
            inlined[k] = inline_paths(v, base_dir, depth, spent, level + 1)
        return inlined
    if isinstance(obj, list):
        inlined = []
        for v in obj:
            inlined.append(inline_paths(v, base_dir, depth, spent, level + 1))
        return inlined
    return obj


def load_raw(path) -> tuple[str, dict]:
    """Load a JSON document without decoding it: ``(kind, raw object)``,
    with path references inlined, so the object is self-contained."""
    spent = [0]
    raw = inline_paths(load_json(path, spent), Path(path).parent, spent=spent)
    return _kind(raw, str(path)), raw


def load_document(path) -> tuple[str, dict, object]:
    """Load a JSON document: ``(kind, raw object, parsed value)``.

    Certificates are returned unparsed.
    """
    kind, raw = load_raw(path)
    decode = KINDS[kind].decode
    return kind, raw, raw if decode is None else decode(raw, kind)


# ---------------------------------------------------------------- certificates

def canonical_json(obj) -> str:
    return json.dumps(
        obj, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def make_certificate(
    scenario_obj: dict, result: dict, timing_seconds: float
) -> dict:
    return {
        "kind": "certificate",
        "tool": {"name": TOOL_NAME, "version": __version__},
        "scenario": scenario_obj,
        "result": result,
        "timing_seconds": round(timing_seconds, 6),
    }


def certificate_identity(cert: dict) -> str:
    """Canonical JSON of everything except the recorded timing."""
    return canonical_json(
        {k: v for k, v in cert.items() if k != "timing_seconds"}
    )


def write_certificate(cert: dict, path) -> None:
    Path(path).write_text(canonical_json(cert) + "\n")


def infeasibility_to_obj(inf: Infeasibility) -> dict:
    return {
        "row_index": inf.row_index,
        "farkas": {
            str(i): rational_to_obj(v) for i, v in sorted(inf.farkas.items())
        },
        "residual": rational_to_obj(inf.residual),
    }


def infeasibility_from_obj(obj, where: str) -> Infeasibility:
    row_index, farkas_obj, residual = _fields(
        obj, where, None, ("row_index", "farkas", "residual")
    )
    row_index = _int_from_obj(row_index, f"{where}.row_index", 0)
    if not isinstance(farkas_obj, dict):
        _fail(f"{where}.farkas", "expected a JSON object")
    farkas = {}
    for key, v in farkas_obj.items():
        try:
            idx = int(key)
        except ValueError:
            _fail(f"{where}.farkas", f"key {key!r} is not a row index")
        farkas[idx] = rational_from_obj(v, f"{where}.farkas[{key}]")
    residual = rational_from_obj(residual, f"{where}.residual")
    return Infeasibility(row_index, farkas, residual)


def _witness_result(outcome: StrongConnection | Infeasibility) -> dict:
    """A found connection, or the refutation of every connection."""
    found = isinstance(outcome, StrongConnection)
    return {
        "connection": sparse_map_to_obj(outcome.map) if found else None,
        "connection_unital": outcome.unital if found else None,
        "infeasibility": None if found else infeasibility_to_obj(outcome),
    }


def principality_result(verdict) -> dict:
    """The serializable core of a principality verdict."""
    return {
        "principal": verdict.principal,
        "num_unknowns": verdict.num_unknowns,
        "num_rows": verdict.num_rows,
        **_witness_result(verdict.connection or verdict.infeasibility),
    }


# ---------------------------------------------------------------- axiom checks

def parse_checked(obj, where: str, kind: str | None = None):
    """Decode a document and run the axiom battery of its kind:
    ``(kind, value, failures)``.

    ``kind`` is read from the document unless given.  Algebras, Hopf
    algebras, and comodule algebras get their named axiom checks (a
    comodule also checks its algebra and its Hopf algebra); group and
    action tables get their table axioms, and come back with no value
    when they fail them.  Shape and type problems, a group table inside
    an action included, raise :class:`InputFormatError`.
    """
    kind = kind or _kind(obj, where)
    doc = KINDS[kind]
    if doc.battery is None:
        _fail(where, f"cannot check kind {kind!r}")
    try:
        value = doc.decode(obj, where)
    except _TableAxiomsFailed as exc:
        if exc.where != where:
            raise
        return kind, None, [exc.failure]
    return kind, value, list(doc.battery(value))


# ---------------------------------------------------------------- operations

EXIT_OK = 0
EXIT_AXIOM_FAILURE = 1
EXIT_BAD_INPUT = 2
EXIT_INFEASIBLE = 3
EXIT_REFUSED = 4


@dataclass(frozen=True)
class Operation:
    """One scenario operation, as the command line runs it and as
    :func:`verify_certificate` replays it.

    ``inputs`` names the input documents and their kinds; each is
    decoded once and its axioms checked, apart from one of kind
    ``None``, which is passed on raw.  ``params`` names the parameters
    the operation reads; a scenario with any other input or parameter is
    refused.  ``parse(scn, inputs)`` validates the parameters against
    the decoded inputs, refusing a fusion beyond
    :data:`MAX_AMBIENT_DIM`; the inputs in order, then the parameters,
    are the arguments of ``run(args)``, which returns ``(result, lines,
    exit code)``.

    An operation whose result carries a witness has a witness reader,
    ``read(args, result)``: it decodes the recorded witnesses and
    re-checks them without solving or lifting, and returns ``(found,
    problems)``.  Its ``run(args, found)`` builds the result from
    ``found`` in place of what the solver and the lift return.
    """

    command: str
    inputs: tuple[tuple[str, str | None], ...]
    run: Callable
    read: Callable | None = None
    params: tuple[str, ...] = ()
    parse: Callable = lambda scn, inputs: ()


def _ints(
    *names: str, ambient: Callable | None = None, measure: str = _FUSION_AMBIENT
) -> dict:
    """The ``params`` and ``parse`` of an operation whose parameters are
    the named positive integers.  For an operation that builds a fusion,
    ``ambient(*args)`` is the dimension of its largest ambient, computed
    from the arguments of ``run``; a join builds no fusion and is bounded
    by the ambient of the one it models, which has at least as many
    points, named by ``measure``."""

    def parse(scn: Scenario, inputs) -> tuple[int, ...]:
        values = tuple(param_int(scn.params, name, "params") for name in names)
        if ambient is not None:
            _within_budget("params", ambient(*inputs, *values), measure)
        return values

    return {"params": names, "parse": parse}


def _run_check(args):
    (target,) = args
    kind, _, failures = parse_checked(target, "inputs.target")
    result = {
        "target_kind": kind,
        "ok": not failures,
        "failures": [
            {"axiom": f.axiom, "detail": f.detail} for f in failures
        ],
    }
    lines = [f"checked: {kind}"]
    for f in failures:
        lines.append(f"FAIL {f.axiom}: {f.detail}")
    lines.append(
        "check passed" if not failures else f"check failed: {len(failures)} axiom(s)"
    )
    return result, lines, EXIT_OK if not failures else EXIT_AXIOM_FAILURE


def _run_solve_connection(args, found=None):
    com, unital = args
    outcome = solve_strong_connection(com, require_unital=unital) if found is None else found
    result = {
        "dims": {"algebra": com.algebra.dim, "hopf": com.hopf.dim},
        "unital_required": unital,
        "feasible": isinstance(outcome, StrongConnection),
        **_witness_result(outcome),
    }
    if isinstance(outcome, StrongConnection):
        lines = [
            f"strong connection found "
            f"(unital: {'yes' if outcome.unital else 'no'})"
        ]
        return result, lines, EXIT_OK
    lines = [
        "certified infeasible: contradiction exposed at row "
        f"{outcome.row_index} by {len(outcome.farkas)} multipliers "
        f"(residual {outcome.residual})"
    ]
    return result, lines, EXIT_INFEASIBLE


def _read_solve_connection(args, result):
    com, unital = args
    outcome, _, problems = _read_outcome(com, result, unital)
    return outcome, problems


def _run_fusion(args):
    left, right, base = args
    fusion = build_fusion(base, left, right)
    result = {
        "dims": {
            "left": left.dim,
            "right": right.dim,
            "base": base.dim,
            "ambient": fusion.carrier.ambient.dim,
            "fusion": fusion.algebra.dim,
        },
        "carrier_pivots": list(fusion.carrier.pivots),
    }
    lines = [
        f"fusion of dimensions {left.dim} and {right.dim} over a base of "
        f"dimension {base.dim}",
        f"fusion dimension: {fusion.algebra.dim}",
    ]
    return result, lines, EXIT_OK


def _run_equivariant_fusion(args):
    com, base = args
    fusion = build_equivariant_fusion(base, com)
    coinv = coinvariants(fusion.comodule)
    result = {
        "dims": {
            "inner": com.algebra.dim,
            "hopf": com.hopf.dim,
            "base": base.dim,
            "ambient": fusion.carrier.ambient.dim,
            "fusion": fusion.comodule.algebra.dim,
        },
        "carrier_pivots": list(fusion.carrier.pivots),
        "coinvariants_dim": coinv.subspace.dim,
    }
    lines = [
        f"equivariant fusion dimension: {fusion.comodule.algebra.dim}",
        f"coinvariant subalgebra dimension: {coinv.subspace.dim}",
    ]
    return result, lines, EXIT_OK


def _parse_theorem_main(scn: Scenario, inputs):
    """m and the square-root pair on the chain 0..m: from
    ``params.profile``, from ``params.sqrt`` (the vectors s and s'), or
    from the default profile."""
    m = param_int(scn.params, "m", "params")
    _within_budget("params.m", (m + 1) * _fiber_dim(inputs))
    profile, sqrt = scn.params.get("profile"), scn.params.get("sqrt")
    if sqrt is None:
        where, make = "params.profile", make_sqrt_pair
        if profile is None:
            vectors = (default_profile(m),)
        else:
            vectors = (vector_from_obj(profile, m + 1, where),)
    elif profile is not None:
        _fail("params", "give either a profile or a sqrt pair, not both")
    else:
        where, make = "params.sqrt", SqrtPair
        s, s_prime = _fields(sqrt, where, None, ("s", "s_prime"))
        dense = (
            vector_from_obj(s, m + 1, f"{where}.s"),
            vector_from_obj(s_prime, m + 1, f"{where}.s_prime"),
        )
        vectors = tuple({i: v for i, v in enumerate(vec) if v} for vec in dense)
    try:
        pair = make(chain_interval(m), *vectors)
    except ValueError as exc:
        _fail(where, str(exc))
    return m, pair


def _run_theorem_main(args, found=None):
    """``found``: the input connection, the fusion, the lifted map and
    the fusion's verdict."""
    com, m, sqrt = args
    if found is None:
        cert = verify_theorem_main(com, m, sqrt=sqrt)
        found = cert.input_verdict.connection, cert.fusion, cert.lifted.map, cert.fusion_verdict
    ell, fusion, lifted, verdict = found
    ef_dim = fusion.comodule.algebra.dim
    result = {
        "m": m,
        "profile": vector_to_obj(sqrt.vanish_at_zero, m + 1),
        "dims": {"inner": com.algebra.dim, "hopf": com.hopf.dim, "fusion": ef_dim},
        "input_connection": sparse_map_to_obj(ell.map),
        "input_connection_unital": ell.unital,
        "lifted_connection": sparse_map_to_obj(lifted),
        # lift_connection returns only a lift inside all four boundary
        # conditions, and refuses any other
        "corestricts": [True] * 4,
        "fusion_connection": sparse_map_to_obj(verdict.connection.map),
        "fusion_num_unknowns": verdict.num_unknowns,
        "fusion_num_rows": verdict.num_rows,
    }
    lines = [
        f"input comodule is principal (dimension {com.algebra.dim})",
        f"equivariant fusion dimension: {ef_dim}",
        "lifted connection passes every axiom; the solver agrees the "
        "fusion is principal",
    ]
    return result, lines, EXIT_OK


def _read_theorem_main(args, result):
    com, _, sqrt = args
    fusion = build_equivariant_fusion(sqrt.base, com)
    ef, problems = fusion.comodule, []
    ell, lifted, conn = (
        _read_connection(c, result.get(key), f"result.{key}", problems)
        for c, key in (
            (com, "input_connection"), (ef, "lifted_connection"), (ef, "fusion_connection")
        )
    )
    verdict = PrincipalityVerdict(ef, conn, None, _recorded_rows(result, "fusion_num_rows"))
    return (ell, fusion, lifted.map, verdict), problems


def _run_pullback(args):
    com, m_lower, m_upper = args
    ident = pullback_identification(com, m_lower, m_upper)
    result = {
        "m_lower": m_lower,
        "m_upper": m_upper,
        "dims": {
            "lower": ident.lower.comodule.algebra.dim,
            "upper": ident.upper.comodule.algebra.dim,
            "fiber": ident.fiber.comodule.algebra.dim,
            "fusion": ident.fusion.comodule.algebra.dim,
        },
        "glue": sparse_map_to_obj(ident.glue),
    }
    lines = [
        f"lower half dimension: {ident.lower.comodule.algebra.dim}",
        f"upper half dimension: {ident.upper.comodule.algebra.dim}",
        f"fiber product dimension: {ident.fiber.comodule.algebra.dim}",
        "fiber product identified with the fusion over the joined chain",
    ]
    return result, lines, EXIT_OK


def _run_freeness(args, found=None):
    (gset,) = args
    verdict = is_principal(fun_comodule(gset)) if found is None else found
    free, bijective = is_free(gset), canonical_map(verdict.comodule).bijective
    if not (free == bijective == verdict.principal):
        raise AssertionError(
            "freeness, bijectivity, and principality disagree"
        )
    result = {
        "size": gset.size,
        "order": gset.group.order,
        "free": free,
        "canonical_bijective": bijective,
        **principality_result(verdict),
    }
    lines = [
        f"action of a group of order {gset.group.order} on {gset.size} points",
        f"free: {'yes' if free else 'no'} (canonical map bijective: "
        f"{'yes' if bijective else 'no'}; connection "
        f"{'found' if verdict.principal else 'refuted'})",
    ]
    return result, lines, EXIT_OK if free else EXIT_INFEASIBLE


def _read_freeness(args, result):
    (gset,) = args
    return _read_verdict(fun_comodule(gset), result)


def _run_discrete_join(args):
    nx, ny, m = args
    join = discrete_join(nx, ny, m)
    result = {
        "nx": nx,
        "ny": ny,
        "m": m,
        "size": join.size,
        "points": list(join.points),
    }
    lines = [f"join of {nx} and {ny} points over the chain 0..{m}: "
             f"{join.size} points"]
    return result, lines, EXIT_OK


def _run_gauged_join_iso(args):
    gset, m = args
    iso = gauged_join_iso(gset, m)
    result = {
        "m": m,
        "size": iso.diagonal.size,
        "point_map": list(iso.point_map),
    }
    lines = [
        f"diagonal and gauged joins on {iso.diagonal.size} points are "
        "equivariantly isomorphic"
    ]
    return result, lines, EXIT_OK


def _run_join_vs_fusion(args):
    nx, ny, m = args
    iso = fun_of_join_vs_fusion(nx, ny, m)
    result = {
        "nx": nx,
        "ny": ny,
        "m": m,
        "dims": {"join": iso.join.size, "fusion": iso.fusion.algebra.dim},
        "iso": sparse_map_to_obj(iso.map),
    }
    lines = [
        f"functions on the {iso.join.size}-point join are isomorphic to "
        "the fusion of the two function algebras"
    ]
    return result, lines, EXIT_OK


def _run_diagonal_join_freeness(args, found=None):
    gset, m = args
    freeness = diagonal_join_freeness(gset, m) if found is None else found
    result = {
        "m": m,
        "join_size": freeness.join.size,
        "join_free": freeness.join_free,
        "both_hold": freeness.both_hold,
        **principality_result(freeness.fusion_verdict),
    }
    lines = [
        f"diagonal join on {freeness.join.size} points",
        f"combinatorially free: {'yes' if freeness.join_free else 'no'}; "
        f"fusion principal: "
        f"{'yes' if freeness.fusion_verdict.principal else 'no'}",
    ]
    return result, lines, EXIT_OK if freeness.both_hold else EXIT_INFEASIBLE


def _read_diagonal_join_freeness(args, result):
    """The parts :func:`diagonal_join_freeness` assembles, with the
    recorded verdict of the fusion in place of solving."""
    gset, m = args
    if not is_free(gset):
        return None, ["inputs.gset: the action is not free"]
    join = diagonal_join(gset, m)
    fusion = build_equivariant_fusion(chain_interval(m), fun_comodule(gset))
    verdict, problems = _read_verdict(fusion.comodule, result)
    return DiagonalJoinFreeness(gset, m, join, is_free(join), verdict), problems


_COMODULE = (("comodule", "comodule"),)
_GSET = (("gset", "gset"),)
_BASE = {"params": ("base", "m"), "parse": _param_base}

# The operations, in the order the command line lists them.
OPERATIONS: dict[str, Operation] = {
    "check": Operation("check", (("target", None),), _run_check),
    "solve-connection": Operation(
        "solve-connection", _COMODULE, _run_solve_connection, _read_solve_connection,
        ("unital",),
        lambda scn, inputs: (_bool_from_obj(scn.params.get("unital", False), "params.unital"),),
    ),
    "fusion": Operation(
        "fusion", (("left", "algebra"), ("right", "algebra")), _run_fusion, **_BASE
    ),
    "equivariant-fusion": Operation("fusion", _COMODULE, _run_equivariant_fusion, **_BASE),
    "theorem-main": Operation(
        "fusion", _COMODULE, _run_theorem_main, _read_theorem_main,
        ("m", "profile", "sqrt"), _parse_theorem_main,
    ),
    "pullback": Operation(
        "fusion", _COMODULE, _run_pullback,
        **_ints(
            "m_lower", "m_upper",
            ambient=lambda com, lo, hi: (lo + hi + 1) * _fiber_dim((com,)),
        ),
    ),
    "freeness": Operation("classical", _GSET, _run_freeness, _read_freeness),
    "discrete-join": Operation(
        "classical", (), _run_discrete_join,
        **_ints(
            "nx", "ny", "m",
            ambient=lambda nx, ny, m: (m + 1) * nx * ny,
            measure="the join point bound (m+1)·nx·ny =",
        ),
    ),
    "gauged-join-iso": Operation(
        "classical", _GSET, _run_gauged_join_iso,
        **_ints(
            "m",
            ambient=lambda gset, m: (m + 1) * gset.size * gset.group.order,
            measure="the join point bound (m+1)·|X|·|G| =",
        ),
    ),
    "join-vs-fusion": Operation(
        "classical", (), _run_join_vs_fusion,
        **_ints("nx", "ny", "m", ambient=lambda nx, ny, m: (m + 1) * nx * ny),
    ),
    "diagonal-join-freeness": Operation(
        "classical", _GSET, _run_diagonal_join_freeness, _read_diagonal_join_freeness,
        **_ints("m", ambient=lambda gset, m: (m + 1) * gset.size * gset.group.order),
    ),
}


def prepare(scn: Scenario) -> tuple[Operation, tuple, list]:
    """Decode and validate a scenario once, for running or replaying it.

    Refuses an input or a parameter the operation does not read.
    Returns the operation, the arguments of its ``run``, and
    ``(name, kind, failures)`` for every input document that fails its
    axioms; an operation must not run on such inputs, and its parameters
    are not read, since their bounds may be computed from the inputs.
    """
    op = OPERATIONS[scn.operation]
    raws = _fields(scn.inputs, "inputs", None, tuple(name for name, _ in op.inputs))
    _fields(scn.params, "params", None, (), dict.fromkeys(op.params))
    inputs, failed = [], []
    for (name, kind), raw in zip(op.inputs, raws):
        if kind is None:
            inputs.append(raw)
            continue
        _, value, failures = parse_checked(raw, f"inputs.{name}", kind)
        inputs.append(value)
        if failures:
            failed.append((name, kind, failures))
    if failed:
        return op, tuple(inputs), failed
    return op, (*inputs, *op.parse(scn, tuple(inputs))), failed


# ---------------------------------------------------------------- replay

def _compare(recorded, found, where: str):
    """Yield a problem for every field of ``found`` that ``recorded``
    does not hold with the same value and JSON type, and for every field
    of ``recorded`` that ``found`` lacks.  Objects, and lists of equal
    length, are compared entry by entry, so a problem names the
    innermost differing field.

    A subtree that is ``==`` on both sides and has the same
    :func:`canonical_json` yields nothing and is not walked: ``==``
    already tells a tuple from a list and an int key from a str key, and
    the JSON text tells ``true`` from ``1`` and ``1`` from ``1.0``.  A
    subtree the JSON text cannot hold (a ``Fraction``, say) is walked."""
    if recorded == found:
        try:
            if canonical_json(recorded) == canonical_json(found):
                return
        except (TypeError, ValueError):
            pass
    if isinstance(found, dict) and isinstance(recorded, dict):
        for key in recorded:
            if key not in found:
                yield f"{where}.{key}: not a field of this result"
        for key, value in found.items():
            yield from _compare(recorded.get(key), value, f"{where}.{key}")
    elif (
        isinstance(found, list)
        and isinstance(recorded, list)
        and len(found) == len(recorded)
    ):
        for i, (rec, value) in enumerate(zip(recorded, found)):
            yield from _compare(rec, value, f"{where}[{i}]")
    elif type(recorded) is not type(found) or recorded != found:
        yield f"{where}: recorded {recorded!r}, replay found {found!r}"


def _recorded_rows(result: dict, key: str) -> int:
    """A recorded row count, read as a non-negative integer."""
    return _int_from_obj(result.get(key), f"result.{key}", 0)


def _read_connection(
    com: ComoduleAlgebra, obj, where: str, problems: list, require_unital=False
) -> StrongConnection:
    """A recorded connection of ``com``; the axioms it fails are added
    to ``problems``."""
    sp = com.algebra.space
    ell = sparse_map_from_obj(obj, com.hopf.space, sp.tensor(sp), where)
    report = check_strong_connection(com, ell, require_unital)
    if not report.ok:
        problems.append(f"{where} fails " + ", ".join(report.axioms_failed()))
    return StrongConnection(com, ell)


def _read_outcome(com: ComoduleAlgebra, result: dict, require_unital: bool):
    """The recorded connection of a result, re-checked against the
    axioms, or its Farkas refutation, recombined against the rebuilt
    connection system: ``(outcome, system, problems)``, with the system
    only for a refutation."""
    problems: list[str] = []
    if result.get("connection") is not None:
        ell = _read_connection(
            com, result["connection"], "result.connection", problems, require_unital
        )
        return ell, None, problems
    if result.get("infeasibility") is None:
        return None, None, ["result: records neither a connection nor a refutation"]
    inf = infeasibility_from_obj(result["infeasibility"], "result.infeasibility")
    system = connection_system(com, require_unital)
    if any(not 0 <= i < len(system) for i in (inf.row_index, *inf.farkas)):
        return None, system, ["result: a row index of the refutation is out of range"]
    coeffs, rhs = system.combine(inf.farkas)
    if coeffs:
        problems.append("result: multiplier combination does not cancel the unknowns")
    if rhs == 0:
        problems.append("result: multiplier combination has zero right-hand side")
    if problems:
        return None, system, problems
    # Elimination meets rows in order, so the row that exposed the
    # contradiction is the last one the multipliers combine.
    return Infeasibility(max(inf.farkas), inf.farkas, rhs), system, []


def _read_verdict(com: ComoduleAlgebra, result: dict):
    """The principality verdict a result records, its witness re-checked:
    ``(verdict, problems)``.  Its row count is that of the connection
    system, rebuilt for a found connection."""
    outcome, system, problems = _read_outcome(com, result, False)
    if problems:
        return None, problems
    if system is None:
        _recorded_rows(result, "num_rows")  # refused by type before it is compared
        return PrincipalityVerdict(com, outcome, None, len(connection_system(com, False))), []
    return PrincipalityVerdict(com, None, outcome, len(system)), []


def verify_certificate(cert: dict) -> tuple[bool, list[str]]:
    """Replay a certificate against its recorded scenario.

    The scenario's inputs are decoded and their axioms checked, as a run
    does.  An operation whose result carries a witness reads it back
    first: connections are re-checked against the axioms, and Farkas
    multipliers recombined against the rebuilt constraint rows; a
    witness that fails stops the replay.  Then the operation's own
    ``run`` rebuilds the result, from the re-checked witnesses in place
    of solving and lifting, and every recorded field must match, with no
    field missing and none extra.  Only ``fusion_num_rows`` is taken as
    recorded, as a non-negative integer: counting it would build the
    fusion's connection system, about 3 ms of a 16 ms O(Z4) m=2 replay.

    Returns ``(ok, problems)``.  A certificate whose envelope is wrong
    (kind, tool, an unknown field, or an unknown operation) raises
    :class:`InputFormatError`; a malformed scenario or result inside it
    is a problem.
    """
    tool, scn_obj, result, _ = _fields(
        cert, "certificate", "certificate", ("tool", "scenario", "result"),
        {"timing_seconds": None},
    )
    name, _ = _fields(tool, "certificate.tool", None, ("name",), {"version": None})
    if name != TOOL_NAME:
        _fail("certificate.tool", f"unknown tool {name!r}")
    if not isinstance(scn_obj, dict):
        _fail("certificate.scenario", "expected a JSON object")
    _operation_name(scn_obj.get("operation"), "certificate.scenario")
    if not isinstance(result, dict):
        _fail("certificate.result", "expected a JSON object")
    problems: list[str] = []
    try:
        op, args, failed = prepare(scenario_from_obj(scn_obj, "certificate.scenario"))
        if failed:
            problems += [
                f"inputs.{name}: the {kind} fails "
                + ", ".join(f.axiom for f in failures)
                for name, kind, failures in failed
            ]
        elif op.read is None:
            problems = list(_compare(result, op.run(args)[0], "result"))
        else:
            found, problems = op.read(args, result)
            if not problems:
                problems = list(_compare(result, op.run(args, found)[0], "result"))
    except (InputFormatError, PreconditionError) as exc:
        problems.append(str(exc))
    return not problems, problems
