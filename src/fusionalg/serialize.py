"""File formats and replayable result certificates.

Input documents are JSON with a ``kind`` field naming what they carry:
``algebra``, ``hopf``, ``comodule``, ``group``, ``gset``, or
``scenario``.  Every rational entry is an exact integer or a ``"p/q"``
string; floats are rejected because they are approximate.  A value of
the form ``{"path": "other.json"}`` anywhere in a document is replaced
by the content of that file, resolved relative to the referring file.

A certificate records one run — the fully inlined scenario, the
result data (dimensions, verdicts, and the witness matrices in sparse
form), the tool version, and the elapsed time.  Certificates serialize
to canonical JSON (sorted keys, no whitespace), so two runs of the
same scenario produce byte-identical files apart from the recorded
``timing_seconds``.  :func:`verify_certificate` replays one by checking
the recorded witnesses against the axioms they claim to satisfy; it
never re-runs the solver.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .algebra import (
    AlgebraHom,
    FDAlgebra,
    Failure,
    check_algebra,
    check_hom,
    function_algebra,
)
from .classical import (
    diagonal_join,
    discrete_join,
    fun_comodule,
    gauged_join,
    is_free,
)
from .comodule import (
    ComoduleAlgebra,
    canonical_map,
    check_comodule,
    check_strong_connection,
    connection_system,
)
from .fusion import (
    BaseWithEnds,
    _exact_sqrt,
    base_with_ends,
    build_equivariant_fusion,
    build_fusion,
    chain_interval,
    coinvariants_of_fusion,
    pullback_identification,
)
from .groups import FiniteGroup, FiniteGSet
from .hopf import HopfAlgebra, check_hopf, make_hopf
from .linalg import Infeasibility, LinearMap, Space

TOOL_NAME = "fusionalg"

_MISSING = object()


class InputFormatError(ValueError):
    """An input file does not match the documented formats."""


def _fail(where: str, msg: str) -> None:
    raise InputFormatError(f"{where}: {msg}")


def _get(obj, key: str, where: str, default=_MISSING):
    if not isinstance(obj, dict):
        _fail(where, "expected a JSON object")
    if key in obj:
        return obj[key]
    if default is _MISSING:
        _fail(where, f"missing required field {key!r}")
    return default


# ---------------------------------------------------------------- rationals

def rational_from_obj(v, where: str = "value") -> Fraction:
    """An exact rational from an int or a "p/q" string."""
    if isinstance(v, bool):
        _fail(where, "expected a rational, got a boolean")
    if isinstance(v, int):
        return Fraction(v)
    if isinstance(v, float):
        _fail(where, "floats are approximate; write the rational as \"p/q\"")
    if isinstance(v, str):
        try:
            return Fraction(v)
        except (ValueError, ZeroDivisionError) as exc:
            _fail(where, f"not a rational: {v!r} ({exc})")
    _fail(where, f"expected a rational, got {type(v).__name__}")


def rational_to_obj(v: Fraction) -> str:
    return str(v)


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
    return tuple(
        rational_from_obj(v, f"{where}[{i}]") for i, v in enumerate(entries)
    )


def vector_to_obj(vec) -> list[str]:
    return [rational_to_obj(v) for v in vec]


def dense_map_from_obj(
    obj, source: Space, target: Space, where: str
) -> LinearMap:
    """A linear map from a dense row-major matrix (target dim rows)."""
    rows = _list_from_obj(obj, where, target.dim)
    parsed = tuple(
        vector_from_obj(row, source.dim, f"{where}[{i}]")
        for i, row in enumerate(rows)
    )
    return LinearMap(source, target, parsed)


def dense_map_to_obj(m: LinearMap) -> list[list[str]]:
    return [vector_to_obj(row) for row in m.rows]


def sparse_map_to_obj(m: LinearMap) -> dict:
    """{"rows", "cols", "entries": [[i, j, "p/q"], ...]} sorted row-major."""
    entries = [
        [i, j, rational_to_obj(v)]
        for i, row in enumerate(m.rows)
        for j, v in enumerate(row)
        if v != 0
    ]
    return {"rows": m.target.dim, "cols": m.source.dim, "entries": entries}


def sparse_map_from_obj(
    obj, source: Space, target: Space, where: str
) -> LinearMap:
    rows = _int_from_obj(_get(obj, "rows", where), f"{where}.rows", 0)
    cols = _int_from_obj(_get(obj, "cols", where), f"{where}.cols", 0)
    if rows != target.dim or cols != source.dim:
        _fail(
            where,
            f"shape {rows}x{cols} does not match the expected "
            f"{target.dim}x{source.dim}",
        )
    dense = [[Fraction(0)] * cols for _ in range(rows)]
    seen = set()
    for k, entry in enumerate(_list_from_obj(_get(obj, "entries", where), where)):
        ew = f"{where}.entries[{k}]"
        triple = _list_from_obj(entry, ew, 3)
        i = _int_from_obj(triple[0], f"{ew}[0]", 0)
        j = _int_from_obj(triple[1], f"{ew}[1]", 0)
        if i >= rows or j >= cols:
            _fail(ew, f"index ({i},{j}) outside a {rows}x{cols} matrix")
        if (i, j) in seen:
            _fail(ew, f"duplicate entry at ({i},{j})")
        seen.add((i, j))
        dense[i][j] = rational_from_obj(triple[2], f"{ew}[2]")
    return LinearMap(source, target, tuple(tuple(r) for r in dense))


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
    table = a.product_table()
    mult = [
        [i, j, k, rational_to_obj(v)]
        for i in range(a.dim)
        for j in range(a.dim)
        for k, v in sorted(table[i][j].items())
    ]
    return {
        "kind": "algebra",
        "labels": list(a.labels),
        "unit": vector_to_obj(a.unit),
        "mult": mult,
    }


def algebra_from_obj(obj, where: str = "algebra") -> FDAlgebra:
    kind = _get(obj, "kind", where, "algebra")
    if kind != "algebra":
        _fail(where, f"expected kind \"algebra\", got {kind!r}")
    labels = _labels_from_obj(_get(obj, "labels", where), f"{where}.labels")
    n = len(labels)
    unit = vector_from_obj(_get(obj, "unit", where), n, f"{where}.unit")
    table = [[{} for _ in range(n)] for _ in range(n)]
    for t, entry in enumerate(_list_from_obj(_get(obj, "mult", where), f"{where}.mult")):
        ew = f"{where}.mult[{t}]"
        quad = _list_from_obj(entry, ew, 4)
        i = _int_from_obj(quad[0], f"{ew}[0]", 0)
        j = _int_from_obj(quad[1], f"{ew}[1]", 0)
        k = _int_from_obj(quad[2], f"{ew}[2]", 0)
        if i >= n or j >= n or k >= n:
            _fail(ew, f"index triple ({i},{j},{k}) outside dimension {n}")
        if k in table[i][j]:
            _fail(ew, f"duplicate structure constant at ({i},{j},{k})")
        table[i][j][k] = rational_from_obj(quad[3], f"{ew}[3]")
    return FDAlgebra.from_structure(Space(labels), table, unit)


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
    kind = _get(obj, "kind", where, "hopf")
    if kind != "hopf":
        _fail(where, f"expected kind \"hopf\", got {kind!r}")
    algebra = algebra_from_obj(_get(obj, "algebra", where), f"{where}.algebra")
    sp = algebra.space
    sq = sp.tensor(sp)
    coproduct = dense_map_from_obj(
        _get(obj, "coproduct", where), sp, sq, f"{where}.coproduct"
    )
    counit = dense_map_from_obj(
        _get(obj, "counit", where), sp, Space.scalar(), f"{where}.counit"
    )
    antipode = dense_map_from_obj(
        _get(obj, "antipode", where), sp, sp, f"{where}.antipode"
    )
    inv_obj = _get(obj, "antipode_inv", where, None)
    antipode_inv = (
        None
        if inv_obj is None
        else dense_map_from_obj(inv_obj, sp, sp, f"{where}.antipode_inv")
    )
    return make_hopf(algebra, coproduct, counit, antipode, antipode_inv)


def comodule_to_obj(c: ComoduleAlgebra) -> dict:
    return {
        "kind": "comodule",
        "algebra": algebra_to_obj(c.algebra),
        "hopf": hopf_to_obj(c.hopf),
        "coaction": dense_map_to_obj(c.coaction),
    }


def comodule_from_obj(obj, where: str = "comodule") -> ComoduleAlgebra:
    kind = _get(obj, "kind", where, "comodule")
    if kind != "comodule":
        _fail(where, f"expected kind \"comodule\", got {kind!r}")
    algebra = algebra_from_obj(_get(obj, "algebra", where), f"{where}.algebra")
    hopf = hopf_from_obj(_get(obj, "hopf", where), f"{where}.hopf")
    coaction = dense_map_from_obj(
        _get(obj, "coaction", where),
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


def _group_shape_from_obj(obj, where: str):
    kind = _get(obj, "kind", where, "group")
    if kind != "group":
        _fail(where, f"expected kind \"group\", got {kind!r}")
    names = _labels_from_obj(_get(obj, "names", where), f"{where}.names")
    n = len(names)
    rows = _list_from_obj(_get(obj, "table", where), f"{where}.table", n)
    table = []
    for i, row in enumerate(rows):
        rw = f"{where}.table[{i}]"
        entries = _list_from_obj(row, rw, n)
        table.append(
            tuple(
                _int_from_obj(v, f"{rw}[{j}]", 0) for j, v in enumerate(entries)
            )
        )
    return names, tuple(table)


def group_check_from_obj(
    obj, where: str = "group"
) -> tuple[FiniteGroup | None, list[Failure]]:
    """Parse a group table and report axiom failures instead of raising.

    Shape and type problems still raise :class:`InputFormatError`; a
    well-formed table that fails the group axioms comes back as
    ``(None, [failure])``.
    """
    names, table = _group_shape_from_obj(obj, where)
    try:
        return FiniteGroup.from_table(names, table), []
    except ValueError as exc:
        return None, [Failure("group_axioms", str(exc))]


def group_from_obj(obj, where: str = "group") -> FiniteGroup:
    group, failures = group_check_from_obj(obj, where)
    if group is None:
        _fail(where, failures[0].detail)
    return group


def gset_to_obj(s: FiniteGSet) -> dict:
    return {
        "kind": "gset",
        "group": group_to_obj(s.group),
        "points": list(s.points),
        "act": [list(row) for row in s.act],
    }


def gset_check_from_obj(
    obj, where: str = "gset"
) -> tuple[FiniteGSet | None, list[Failure]]:
    """Like :func:`group_check_from_obj`, for group actions."""
    kind = _get(obj, "kind", where, "gset")
    if kind != "gset":
        _fail(where, f"expected kind \"gset\", got {kind!r}")
    group = group_from_obj(_get(obj, "group", where), f"{where}.group")
    points = _labels_from_obj(_get(obj, "points", where), f"{where}.points")
    nx = len(points)
    rows = _list_from_obj(_get(obj, "act", where), f"{where}.act", nx)
    act = []
    for i, row in enumerate(rows):
        rw = f"{where}.act[{i}]"
        entries = _list_from_obj(row, rw, group.order)
        act.append(
            tuple(
                _int_from_obj(v, f"{rw}[{j}]", 0) for j, v in enumerate(entries)
            )
        )
    try:
        return FiniteGSet.from_table(group, points, act), []
    except ValueError as exc:
        return None, [Failure("action_axioms", str(exc))]


def gset_from_obj(obj, where: str = "gset") -> FiniteGSet:
    gset, failures = gset_check_from_obj(obj, where)
    if gset is None:
        _fail(where, failures[0].detail)
    return gset


# ---------------------------------------------------------------- scenarios

OPERATIONS = frozenset(
    {
        "check",
        "solve-connection",
        "fusion",
        "equivariant-fusion",
        "theorem-main",
        "pullback",
        "freeness",
        "discrete-join",
        "gauged-join-iso",
        "join-vs-fusion",
        "diagonal-join-freeness",
    }
)


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


def scenario_from_obj(obj, where: str = "scenario") -> Scenario:
    kind = _get(obj, "kind", where, "scenario")
    if kind != "scenario":
        _fail(where, f"expected kind \"scenario\", got {kind!r}")
    sid = _str_from_obj(_get(obj, "id", where), f"{where}.id")
    op = _str_from_obj(_get(obj, "operation", where), f"{where}.operation")
    if op not in OPERATIONS:
        _fail(
            where,
            f"unknown operation {op!r}; expected one of "
            + ", ".join(sorted(OPERATIONS)),
        )
    inputs = _get(obj, "inputs", where, {})
    params = _get(obj, "params", where, {})
    if not isinstance(inputs, dict):
        _fail(f"{where}.inputs", "expected a JSON object")
    if not isinstance(params, dict):
        _fail(f"{where}.params", "expected a JSON object")
    return Scenario(sid, op, inputs, params)


def scenario_to_obj(s: Scenario) -> dict:
    return {
        "kind": "scenario",
        "id": s.id,
        "operation": s.operation,
        "inputs": s.inputs,
        "params": s.params,
    }


def param_int(params: dict, name: str, where: str, minimum: int = 1) -> int:
    return _int_from_obj(
        _get(params, name, where), f"{where}.{name}", minimum
    )


def param_profile(params: dict, where: str) -> tuple[Fraction, ...] | None:
    obj = _get(params, "profile", where, None)
    if obj is None:
        return None
    entries = _list_from_obj(obj, f"{where}.profile")
    return tuple(
        rational_from_obj(v, f"{where}.profile[{i}]")
        for i, v in enumerate(entries)
    )


def base_from_obj(obj, where: str) -> BaseWithEnds:
    """A raw base: an algebra with two evaluation rows."""
    algebra = algebra_from_obj(_get(obj, "algebra", where), f"{where}.algebra")
    end_zero = dense_map_from_obj(
        [_get(obj, "end_zero", where)],
        algebra.space,
        Space.scalar(),
        f"{where}.end_zero",
    )
    end_one = dense_map_from_obj(
        [_get(obj, "end_one", where)],
        algebra.space,
        Space.scalar(),
        f"{where}.end_one",
    )
    try:
        return base_with_ends(algebra, end_zero, end_one)
    except ValueError as exc:
        _fail(where, str(exc))


# ---------------------------------------------------------------- loading

_MAX_PATH_DEPTH = 20


def load_json(path) -> dict | list:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise InputFormatError(f"{path}: cannot read: {exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc


def inline_paths(obj, base_dir, depth: int = 0):
    """Replace every ``{"path": ...}`` reference by the referenced file's
    content, resolved relative to the referring file."""
    if depth > _MAX_PATH_DEPTH:
        raise InputFormatError("path references nest too deeply")
    if isinstance(obj, dict):
        if set(obj) == {"path"}:
            rel = _str_from_obj(obj["path"], "path reference")
            if base_dir is None:
                raise InputFormatError(
                    f"path reference {rel!r} has no base directory"
                )
            target = Path(base_dir) / rel
            return inline_paths(load_json(target), target.parent, depth + 1)
        return {k: inline_paths(v, base_dir, depth) for k, v in obj.items()}
    if isinstance(obj, list):
        return [inline_paths(v, base_dir, depth) for v in obj]
    return obj


_PARSERS = {
    "algebra": algebra_from_obj,
    "hopf": hopf_from_obj,
    "comodule": comodule_from_obj,
    "group": group_from_obj,
    "gset": gset_from_obj,
    "scenario": scenario_from_obj,
    "certificate": None,  # kept raw; use verify_certificate
}


def load_document(path) -> tuple[str, dict, object]:
    """Load a JSON document: ``(kind, raw object, parsed value)``.

    Path references are inlined before parsing, so the raw object is
    always self-contained.  Certificates are returned unparsed.
    """
    raw = load_json(path)
    if not isinstance(raw, dict):
        raise InputFormatError(f"{path}: expected a JSON object at top level")
    raw = inline_paths(raw, Path(path).parent)
    kind = _str_from_obj(_get(raw, "kind", str(path)), f"{path}: kind")
    if kind not in _PARSERS:
        raise InputFormatError(
            f"{path}: unknown kind {kind!r}; expected one of "
            + ", ".join(sorted(_PARSERS))
        )
    parser = _PARSERS[kind]
    parsed = raw if parser is None else parser(raw, kind)
    return kind, raw, parsed


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
    row_index = _int_from_obj(_get(obj, "row_index", where), f"{where}.row_index", 0)
    farkas_obj = _get(obj, "farkas", where)
    if not isinstance(farkas_obj, dict):
        _fail(f"{where}.farkas", "expected a JSON object")
    farkas = {}
    for key, v in farkas_obj.items():
        try:
            idx = int(key)
        except ValueError:
            _fail(f"{where}.farkas", f"key {key!r} is not a row index")
        farkas[idx] = rational_from_obj(v, f"{where}.farkas[{key}]")
    residual = rational_from_obj(_get(obj, "residual", where), f"{where}.residual")
    return Infeasibility(row_index, farkas, residual)


def principality_result(verdict) -> dict:
    """The serializable core of a principality verdict."""
    out = {
        "principal": verdict.principal,
        "num_unknowns": verdict.num_unknowns,
        "num_rows": verdict.num_rows,
        "connection": None,
        "connection_unital": None,
        "infeasibility": None,
    }
    if verdict.connection is not None:
        out["connection"] = sparse_map_to_obj(verdict.connection.map)
        out["connection_unital"] = verdict.connection.unital
    if verdict.infeasibility is not None:
        out["infeasibility"] = infeasibility_to_obj(verdict.infeasibility)
    return out


# ---------------------------------------------------------------- replay

def _replay_connection(
    com: ComoduleAlgebra,
    result: dict,
    where: str,
    problems: list[str],
    require_unital: bool = False,
) -> None:
    """Check a recorded connection or Farkas certificate against the
    comodule, appending any discrepancies to ``problems``."""
    sp = com.algebra.space
    conn_obj = result.get("connection")
    inf_obj = result.get("infeasibility")
    if conn_obj is not None:
        ell = sparse_map_from_obj(
            conn_obj, com.hopf.space, sp.tensor(sp), f"{where}.connection"
        )
        report = check_strong_connection(com, ell, require_unital)
        if not report.ok:
            problems.append(
                f"{where}: recorded connection fails "
                + ", ".join(report.axioms_failed())
            )
    elif inf_obj is not None:
        inf = infeasibility_from_obj(inf_obj, f"{where}.infeasibility")
        system = connection_system(com, require_unital)
        if not (0 <= inf.row_index < len(system)):
            problems.append(f"{where}: infeasibility row index out of range")
            return
        if any(not 0 <= i < len(system) for i in inf.farkas):
            problems.append(f"{where}: multiplier row index out of range")
            return
        coeffs, rhs = system.combine(inf.farkas)
        if coeffs:
            problems.append(
                f"{where}: multiplier combination does not cancel the unknowns"
            )
        if rhs == 0:
            problems.append(
                f"{where}: multiplier combination has zero right-hand side"
            )
        elif rhs != inf.residual:
            problems.append(
                f"{where}: recombined residual {rhs} differs from the "
                f"recorded {inf.residual}"
            )
    else:
        problems.append(f"{where}: records neither a connection nor a refutation")


def _expect_equal(problems: list[str], where: str, recorded, actual) -> None:
    if recorded != actual:
        problems.append(f"{where}: recorded {recorded!r}, replay found {actual!r}")


def check_document_obj(obj, where: str = "input") -> tuple[str, list[Failure]]:
    """Run the axiom battery matching a document's kind.

    Algebras, Hopf algebras, and comodule algebras get their named
    axiom checks (a comodule also checks its Hopf algebra); group and
    action tables get their table axioms.  Shape and type problems
    raise :class:`InputFormatError`; axiom violations are returned.
    """
    kind = _str_from_obj(_get(obj, "kind", where), f"{where}.kind")
    if kind == "algebra":
        failures = list(check_algebra(algebra_from_obj(obj, where)).failures)
    elif kind == "hopf":
        failures = list(check_hopf(hopf_from_obj(obj, where)).failures)
    elif kind == "comodule":
        com = comodule_from_obj(obj, where)
        failures = list(check_hopf(com.hopf).failures) + list(
            check_comodule(com).failures
        )
    elif kind == "group":
        failures = group_check_from_obj(obj, where)[1]
    elif kind == "gset":
        failures = gset_check_from_obj(obj, where)[1]
    else:
        raise InputFormatError(f"{where}: cannot check kind {kind!r}")
    return kind, failures


def _verify_check(scn: Scenario, result: dict) -> list[str]:
    problems: list[str] = []
    target = _get(scn.inputs, "target", "inputs")
    _, failures = check_document_obj(target, "inputs.target")
    _expect_equal(problems, "result.ok", result.get("ok"), not failures)
    recorded = result.get("failures", [])
    recorded_axioms = sorted(
        _str_from_obj(_get(f, "axiom", "result.failures"), "result.failures")
        for f in recorded
    )
    _expect_equal(
        problems,
        "result.failures",
        recorded_axioms,
        sorted(f.axiom for f in failures),
    )
    return problems


def _verify_solve_connection(scn: Scenario, result: dict) -> list[str]:
    problems: list[str] = []
    com = comodule_from_obj(_get(scn.inputs, "comodule", "inputs"), "inputs.comodule")
    unital = _bool_from_obj(
        scn.params.get("unital", False), "params.unital"
    )
    _expect_equal(
        problems, "result.unital_required", result.get("unital_required"), unital
    )
    dims = result.get("dims", {})
    _expect_equal(problems, "result.dims.algebra", dims.get("algebra"), com.algebra.dim)
    _expect_equal(problems, "result.dims.hopf", dims.get("hopf"), com.hopf.dim)
    feasible = result.get("feasible")
    if feasible is not (result.get("connection") is not None):
        problems.append("result.feasible disagrees with the recorded witness")
    _replay_connection(com, result, "result", problems, unital)
    return problems


def _theorem_fusion(scn: Scenario):
    com = comodule_from_obj(_get(scn.inputs, "comodule", "inputs"), "inputs.comodule")
    m = param_int(scn.params, "m", "params")
    return com, m, build_equivariant_fusion(chain_interval(m), com)


def _verify_theorem_main(scn: Scenario, result: dict) -> list[str]:
    problems: list[str] = []
    com, m, fusion = _theorem_fusion(scn)
    sp = com.algebra.space
    ef = fusion.comodule.algebra.space
    dims = result.get("dims", {})
    _expect_equal(problems, "result.dims.inner", dims.get("inner"), com.algebra.dim)
    _expect_equal(problems, "result.dims.hopf", dims.get("hopf"), com.hopf.dim)
    _expect_equal(problems, "result.dims.fusion", dims.get("fusion"), ef.dim)
    profile = [
        rational_from_obj(v, f"result.profile[{i}]")
        for i, v in enumerate(_list_from_obj(result.get("profile"), "result.profile"))
    ]
    if len(profile) != m + 1 or profile[0] != 0 or profile[-1] != 1:
        problems.append("result.profile is not a profile on the chain 0..m")
    for i, v in enumerate(profile):
        if _exact_sqrt(1 - v * v) is None:
            problems.append(
                f"result.profile[{i}]: 1 - s^2 = {1 - v * v} is not a rational square"
            )
    ell = sparse_map_from_obj(
        _get(result, "input_connection", "result"),
        com.hopf.space,
        sp.tensor(sp),
        "result.input_connection",
    )
    report = check_strong_connection(com, ell)
    if not report.ok:
        problems.append(
            "result.input_connection fails " + ", ".join(report.axioms_failed())
        )
    lifted = sparse_map_from_obj(
        _get(result, "lifted_connection", "result"),
        com.hopf.space,
        ef.tensor(ef),
        "result.lifted_connection",
    )
    lifted_report = check_strong_connection(fusion.comodule, lifted)
    if not lifted_report.ok:
        problems.append(
            "result.lifted_connection fails "
            + ", ".join(lifted_report.axioms_failed())
        )
    _replay_connection(
        fusion.comodule,
        {"connection": _get(result, "fusion_connection", "result")},
        "result.fusion_connection",
        problems,
    )
    return problems


def scenario_base(scn: Scenario) -> BaseWithEnds:
    """The base a fusion scenario runs over: an inline raw base under
    ``params.base``, or the chain 0..m for ``params.m``."""
    raw = scn.params.get("base")
    if raw is not None:
        return base_from_obj(raw, "params.base")
    return chain_interval(param_int(scn.params, "m", "params"))


def _verify_fusion(scn: Scenario, result: dict) -> list[str]:
    problems: list[str] = []
    base = scenario_base(scn)
    left = algebra_from_obj(_get(scn.inputs, "left", "inputs"), "inputs.left")
    right = algebra_from_obj(_get(scn.inputs, "right", "inputs"), "inputs.right")
    fusion = build_fusion(base, left, right)
    dims = result.get("dims", {})
    _expect_equal(problems, "result.dims.left", dims.get("left"), left.dim)
    _expect_equal(problems, "result.dims.right", dims.get("right"), right.dim)
    _expect_equal(problems, "result.dims.base", dims.get("base"), base.dim)
    _expect_equal(
        problems, "result.dims.fusion", dims.get("fusion"), fusion.algebra.dim
    )
    _expect_equal(
        problems,
        "result.carrier_pivots",
        result.get("carrier_pivots"),
        list(fusion.carrier.pivots),
    )
    return problems


def _verify_equivariant_fusion(scn: Scenario, result: dict) -> list[str]:
    problems: list[str] = []
    base = scenario_base(scn)
    com = comodule_from_obj(_get(scn.inputs, "comodule", "inputs"), "inputs.comodule")
    fusion = build_equivariant_fusion(base, com)
    dims = result.get("dims", {})
    _expect_equal(problems, "result.dims.inner", dims.get("inner"), com.algebra.dim)
    _expect_equal(problems, "result.dims.hopf", dims.get("hopf"), com.hopf.dim)
    _expect_equal(problems, "result.dims.base", dims.get("base"), base.dim)
    _expect_equal(
        problems,
        "result.dims.fusion",
        dims.get("fusion"),
        fusion.comodule.algebra.dim,
    )
    _expect_equal(
        problems,
        "result.carrier_pivots",
        result.get("carrier_pivots"),
        list(fusion.carrier.pivots),
    )
    _expect_equal(
        problems,
        "result.coinvariants_dim",
        result.get("coinvariants_dim"),
        coinvariants_of_fusion(fusion).subspace.dim,
    )
    return problems


def _verify_pullback(scn: Scenario, result: dict) -> list[str]:
    problems: list[str] = []
    com = comodule_from_obj(_get(scn.inputs, "comodule", "inputs"), "inputs.comodule")
    m_lower = param_int(scn.params, "m_lower", "params")
    m_upper = param_int(scn.params, "m_upper", "params")
    ident = pullback_identification(com, m_lower, m_upper)
    dims = result.get("dims", {})
    _expect_equal(
        problems, "result.dims.lower", dims.get("lower"), ident.lower.comodule.algebra.dim
    )
    _expect_equal(
        problems, "result.dims.upper", dims.get("upper"), ident.upper.comodule.algebra.dim
    )
    _expect_equal(
        problems, "result.dims.fiber", dims.get("fiber"), ident.fiber.comodule.algebra.dim
    )
    _expect_equal(
        problems,
        "result.dims.fusion",
        dims.get("fusion"),
        ident.fusion.comodule.algebra.dim,
    )
    _expect_equal(
        problems,
        "result.glue",
        result.get("glue"),
        sparse_map_to_obj(ident.glue),
    )
    return problems


def _verify_freeness(scn: Scenario, result: dict) -> list[str]:
    problems: list[str] = []
    gset = gset_from_obj(_get(scn.inputs, "gset", "inputs"), "inputs.gset")
    free = is_free(gset)
    com = fun_comodule(gset)
    _expect_equal(problems, "result.free", result.get("free"), free)
    _expect_equal(
        problems,
        "result.canonical_bijective",
        result.get("canonical_bijective"),
        canonical_map(com).bijective,
    )
    _expect_equal(problems, "result.principal", result.get("principal"), free)
    if result.get("principal") is not (result.get("connection") is not None):
        problems.append("result.principal disagrees with the recorded witness")
    _replay_connection(com, result, "result", problems)
    return problems


def _verify_discrete_join(scn: Scenario, result: dict) -> list[str]:
    problems: list[str] = []
    nx = param_int(scn.params, "nx", "params")
    ny = param_int(scn.params, "ny", "params")
    m = param_int(scn.params, "m", "params")
    join = discrete_join(nx, ny, m)
    _expect_equal(problems, "result.size", result.get("size"), join.size)
    _expect_equal(
        problems, "result.points", result.get("points"), list(join.points)
    )
    return problems


def _verify_gauged_join_iso(scn: Scenario, result: dict) -> list[str]:
    problems: list[str] = []
    gset = gset_from_obj(_get(scn.inputs, "gset", "inputs"), "inputs.gset")
    m = param_int(scn.params, "m", "params")
    diag = diagonal_join(gset, m)
    gau = gauged_join(gset, m)
    pm = _list_from_obj(result.get("point_map"), "result.point_map", diag.size)
    pm = [
        _int_from_obj(v, f"result.point_map[{i}]", 0) for i, v in enumerate(pm)
    ]
    if sorted(pm) != list(range(diag.size)):
        problems.append("result.point_map is not a bijection")
        return problems
    ok = all(
        pm[diag.act[p][g]] == gau.act[pm[p]][g]
        for p in range(diag.size)
        for g in range(gset.group.order)
    )
    if not ok:
        problems.append("result.point_map is not equivariant")
    return problems


def _verify_join_vs_fusion(scn: Scenario, result: dict) -> list[str]:
    problems: list[str] = []
    nx = param_int(scn.params, "nx", "params")
    ny = param_int(scn.params, "ny", "params")
    m = param_int(scn.params, "m", "params")
    join = discrete_join(nx, ny, m)
    functions = function_algebra(join.size, tuple(f"δ{p}" for p in join.points))
    fusion = build_fusion(chain_interval(m), function_algebra(nx), function_algebra(ny))
    dims = result.get("dims", {})
    _expect_equal(problems, "result.dims.join", dims.get("join"), join.size)
    _expect_equal(
        problems, "result.dims.fusion", dims.get("fusion"), fusion.algebra.dim
    )
    iso = sparse_map_from_obj(
        _get(result, "iso", "result"),
        functions.space,
        fusion.algebra.space,
        "result.iso",
    )
    report = check_hom(AlgebraHom(functions, fusion.algebra, iso))
    if not (report.ok and report.bijective):
        problems.append("result.iso is not an algebra isomorphism")
    return problems


def _verify_diagonal_join_freeness(scn: Scenario, result: dict) -> list[str]:
    problems: list[str] = []
    gset = gset_from_obj(_get(scn.inputs, "gset", "inputs"), "inputs.gset")
    m = param_int(scn.params, "m", "params")
    if not is_free(gset):
        problems.append("inputs.gset: the action is not free")
        return problems
    join = diagonal_join(gset, m)
    _expect_equal(
        problems, "result.join_free", result.get("join_free"), is_free(join)
    )
    fusion = build_equivariant_fusion(chain_interval(m), fun_comodule(gset))
    if result.get("principal") is not (result.get("connection") is not None):
        problems.append("result.principal disagrees with the recorded witness")
    _replay_connection(fusion.comodule, result, "result", problems)
    _expect_equal(
        problems,
        "result.both_hold",
        result.get("both_hold"),
        bool(result.get("join_free")) and bool(result.get("principal")),
    )
    return problems


_VERIFIERS = {
    "check": _verify_check,
    "solve-connection": _verify_solve_connection,
    "theorem-main": _verify_theorem_main,
    "fusion": _verify_fusion,
    "equivariant-fusion": _verify_equivariant_fusion,
    "pullback": _verify_pullback,
    "freeness": _verify_freeness,
    "discrete-join": _verify_discrete_join,
    "gauged-join-iso": _verify_gauged_join_iso,
    "join-vs-fusion": _verify_join_vs_fusion,
    "diagonal-join-freeness": _verify_diagonal_join_freeness,
}


def verify_certificate(cert: dict) -> tuple[bool, list[str]]:
    """Replay a certificate against its recorded scenario.

    Recorded witnesses (connections, isomorphisms, Farkas multipliers)
    are re-checked against the axioms they claim to satisfy; recorded
    dimensions and verdicts are recomputed where that requires no
    solving.  Returns ``(ok, problems)``.
    """
    if _get(cert, "kind", "certificate") != "certificate":
        _fail("certificate", "expected kind \"certificate\"")
    tool = _get(cert, "tool", "certificate")
    if _get(tool, "name", "certificate.tool") != TOOL_NAME:
        _fail("certificate.tool", f"unknown tool {tool.get('name')!r}")
    scn = scenario_from_obj(
        _get(cert, "scenario", "certificate"), "certificate.scenario"
    )
    result = _get(cert, "result", "certificate")
    if not isinstance(result, dict):
        _fail("certificate.result", "expected a JSON object")
    problems = _VERIFIERS[scn.operation](scn, result)
    return not problems, problems
