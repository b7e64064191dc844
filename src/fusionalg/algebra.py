"""Finite-dimensional unital algebras presented by structure constants.

An algebra is a labeled space, a unit vector, and its multiplication
stored only as a sparse structure-constant table: ``table[i][j]`` maps
each k to the nonzero coefficient of e_k in e_i·e_j.  The table and the
unit hold integers over one shared denominator, as the maps of
:mod:`fusionalg.linalg` do.  All
checks report named axioms and a concrete witness (the basis triple or
pair that fails), never just a boolean, so callers can surface
actionable diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, product

from .linalg import (
    LinearMap,
    Space,
    Subspace,
    common_den,
    components,
    integer_scaled,
    linear_combination,
    on_left,
    rat,
    tensor_vec,
)


@dataclass(frozen=True)
class Failure:
    """One failed axiom with a human-readable detail and witness data."""

    axiom: str
    detail: str
    witness: tuple = ()


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    failures: tuple[Failure, ...] = ()

    def axioms_failed(self) -> tuple[str, ...]:
        return tuple(f.axiom for f in self.failures)


@dataclass(frozen=True)
class FDAlgebra:
    """Unital associative algebra on a labeled rational vector space.

    ``table[i][j] = {k: c}`` lists the nonzero structure constants of
    e_i·e_j and ``unit`` is the sparse unit vector, both as integers over
    ``den``, the least positive integer that makes them all integers.
    Rational input is scaled, and zeros dropped, when the algebra is
    built.
    """

    space: Space
    table: list[list[dict[int, int]]]
    unit: dict[int, int]
    den: int = 1

    def __post_init__(self):
        n = self.space.dim
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("structure-constant table must be dim x dim")
        if any(not 0 <= k < n for k in self.unit):
            raise ValueError(f"unit vector index outside 0..{n - 1}")
        den, (unit, *flat) = integer_scaled([self.unit, *chain.from_iterable(self.table)], self.den)
        object.__setattr__(self, "table", [flat[i * n : (i + 1) * n] for i in range(n)])
        object.__setattr__(self, "unit", unit)
        object.__setattr__(self, "den", den)

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    @staticmethod
    def from_structure(space: Space, table, unit) -> "FDAlgebra":
        """Build from structure constants table[i][j] = {k: coeff} and a
        dense unit vector, dropping zero coefficients."""
        n = space.dim
        if len(unit) != n:
            raise ValueError("unit vector has wrong length")
        if any(not 0 <= k < n for row in table for prod in row for k in prod):
            raise ValueError(f"structure constant index outside 0..{n - 1}")
        exact = [[{k: rat(v) for k, v in prod.items()} for prod in row] for row in table]
        return FDAlgebra(space, exact, {i: rat(x) for i, x in enumerate(unit)})

    def over(self, den: int) -> tuple[list[dict[int, int]], dict[int, int]]:
        """The table flattened (e_i·e_j at i·n + j) and the unit, over ``den``."""
        f = den // self.den
        flat = [self.unit, *chain.from_iterable(self.table)]
        if f != 1:
            flat = [{k: v * f for k, v in p.items()} for p in flat]
        return flat[1:], flat[0]

    def unit_map(self) -> LinearMap:
        return LinearMap.from_sparse_columns(Space.scalar(), self.space, [self.unit], self.den)


def first_failure(axiom: str, detail: str, holds, indices=((),)) -> list[Failure]:
    """The failure of ``axiom`` at the first index tuple of ``indices``, in
    their order, where ``holds(*index)`` is false, with ``detail``
    formatted by that index; [] when it holds at every one.  By default
    ``holds()`` is called once."""
    for w in indices:
        if not holds(*w):
            return [Failure(axiom, detail.format(*w), w)]
    return []


def check_algebra(alg: FDAlgebra) -> CheckReport:
    """Associativity plus two-sided unit, with the first failing witness.

    The table and the unit are read over their denominator D: both sides
    of associativity, products of two scaled constants, go into one vector
    with e_i·(e_j·e_k) subtracted through the negated e_j·e_k; 1·e_i and
    e_i·1, also products of two, compare with D²·e_i.
    """
    n = alg.dim
    rows, unit = alg.table, alg.unit  # rows[i][m] = e_i·e_m
    cols = list(zip(*rows))  # cols[k][m] = e_m·e_k
    neg = [[{m: -v for m, v in prod.items()} for prod in row] for row in rows]
    d2 = alg.den * alg.den

    def associative(i, j, k):
        acc = on_left(rows[i][j], cols[k], 1, {})
        return not any(on_left(neg[j][k], rows[i], 1, acc).values())

    def unit_times(i, left):
        return linear_combination(cols[i] if left else rows[i], unit) == {i: d2}

    each = [(i,) for i in range(n)]
    failures = (
        first_failure(
            "associativity",
            "(e{0}·e{1})·e{2} differs from e{0}·(e{1}·e{2})",
            associative,
            product(range(n), repeat=3),
        )
        + first_failure("unit_left", "1·e{0} is not e{0}", lambda i: unit_times(i, True), each)
        + first_failure("unit_right", "e{0}·1 is not e{0}", lambda i: unit_times(i, False), each)
    )
    return CheckReport(not failures, tuple(failures))


# ---------------------------------------------------------------- builders

def function_algebra(n: int, labels: tuple[str, ...] | None = None) -> FDAlgebra:
    """Functions on an n-point set with the pointwise product."""
    space = Space(labels if labels is not None else tuple(f"δ{i}" for i in range(n)))
    table = [[({i: 1} if i == j else {}) for j in range(n)] for i in range(n)]
    return FDAlgebra(space, table, {i: 1 for i in range(n)})


def scalar_algebra() -> FDAlgebra:
    return function_algebra(1, ("1",))


def tensor_algebra(a: FDAlgebra, b: FDAlgebra) -> FDAlgebra:
    """Componentwise product on A (x) B: (e_i (x) f_j)·(e_k (x) f_l) is
    e_i·e_k (x) f_j·f_l (:func:`~fusionalg.linalg.tensor_vec`), so the
    table has nnz(A)·nnz(B) constants, over the product of the two
    denominators.  The empty entries are one shared, never-mutated
    ``{}``."""
    db = b.dim
    n = a.dim * db
    empty: dict = {}
    table: list[list[dict[int, int]]] = [[empty] * n for _ in range(n)]
    for i, row_a in enumerate(a.table):
        for k, pa in enumerate(row_a):
            if not pa:
                continue
            for j, row_b in enumerate(b.table):
                out = table[i * db + j]
                for l, pb in enumerate(row_b):
                    if pb:
                        out[k * db + l] = tensor_vec(pa, pb, db)
    return FDAlgebra(a.space.tensor(b.space), table, tensor_vec(a.unit, b.unit, db), a.den * b.den)


def direct_sum_algebra(a: FDAlgebra, b: FDAlgebra) -> FDAlgebra:
    """Product algebra A (+) B with componentwise operations."""
    da, db = a.dim, b.dim
    space = Space(
        tuple(f"L·{l}" for l in a.labels) + tuple(f"R·{l}" for l in b.labels)
    )
    den, ((table_a, unit_a), (table_b, unit_b)) = common_den(a, b)
    shifted = [{da + k: v for k, v in prod.items()} for prod in table_b]
    table = [table_a[i * da : (i + 1) * da] + [{}] * db for i in range(da)]
    table += [[{}] * da + shifted[j * db : (j + 1) * db] for j in range(db)]
    return FDAlgebra(space, table, {**unit_a, **{da + k: v for k, v in unit_b.items()}}, den)


# ---------------------------------------------------------------- homomorphisms

@dataclass(frozen=True)
class AlgebraHom:
    source: FDAlgebra
    target: FDAlgebra
    map: LinearMap

    def __post_init__(self):
        if self.map.source.dim != self.source.dim or self.map.target.dim != self.target.dim:
            raise ValueError("hom matrix does not match the algebras")


@dataclass(frozen=True)
class HomReport:
    ok: bool
    multiplicative: bool
    unital: bool
    injective: bool
    surjective: bool
    failures: tuple[Failure, ...] = ()

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


def check_hom(hom: AlgebraHom) -> HomReport:
    """Check f(xy) = f(x)f(y) on basis pairs and f(1) = 1, plus rank data.

    Both tables, both units and f are read over their common denominator
    D: f(e_i·e_j) multiplies two scaled entries and f(e_i)·f(e_j) three,
    so the first is taken D times, and f(1) (two) compares with D·1.

    As in :func:`~fusionalg.comodule.check_comodule`, only pairs inside
    one part (:func:`~fusionalg.linalg.components`) are checked, in
    lexicographic order: parts join each nonempty e_i·e_j of either
    algebra and each i with the support of f(e_i), target index t taken
    as a.dim + t, so across two parts both sides are zero.
    """
    a, b, f = hom.source, hom.target, hom.map
    den, ((table_a, unit_a), (table_b, unit_b), cols) = common_den(a, b, f)
    na, nb = a.dim, b.dim
    part = components(na + nb, chain(
        ([i, *(j for j in range(na) if table_a[i * na + j]), *(na + t for t in cols[i])]
         for i in range(na)),
        ([na + t, *(na + u for u in range(nb) if table_b[t * nb + u])] for t in range(nb))))
    members: dict[int, list[int]] = {}
    for i in range(na):
        members.setdefault(part[i], []).append(i)

    def multiplies(i, j):
        lhs = linear_combination(cols, table_a[i * a.dim + j])
        rhs = linear_combination(table_b, tensor_vec(cols[i], cols[j], b.dim))
        return {k: v * den for k, v in lhs.items()} == rhs

    failures = first_failure(
        "multiplicative",
        "f(e{0}·e{1}) differs from f(e{0})·f(e{1})",
        multiplies,
        ((i, j) for i in range(na) for j in members[part[i]]),
    ) + first_failure(
        "unital",
        "f(1) is not the target unit",
        lambda: linear_combination(cols, unit_a) == {k: v * den for k, v in unit_b.items()},
    )
    failed = {failure.axiom for failure in failures}
    rank = f.rank()
    return HomReport(
        ok=not failures,
        multiplicative="multiplicative" not in failed,
        unital="unital" not in failed,
        injective=rank == a.dim,
        surjective=rank == b.dim,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------- subalgebras

class ClosureError(ValueError):
    """A subspace is not closed under the ambient product.

    Carries the offending pair of basis vectors of the subspace and the
    product that escapes it, a sparse rational vector of the ambient
    algebra, given as ``product/den``.
    """

    def __init__(self, left_index: int, right_index: int, product: dict, den: int = 1):
        self.left_index = left_index
        self.right_index = right_index
        self.product = {k: Fraction(v, den) for k, v in sorted(product.items())}
        super().__init__(
            f"subspace is not multiplicatively closed: the product of basis "
            f"vectors {left_index} and {right_index} lies outside"
        )


@dataclass(frozen=True)
class SubalgebraWitness:
    """A subspace recognized as a subalgebra, with the induced structure.

    ``algebra`` lives on the coordinate space of the subspace basis;
    ``inclusion`` embeds it back into the ambient algebra.  When the
    ambient unit does not lie in the subspace, ``unital`` is False and
    the stored unit vector is empty (the induced algebra is non-unital).
    """

    ambient: FDAlgebra
    subspace: Subspace
    algebra: FDAlgebra
    inclusion: LinearMap
    unital: bool


def subalgebra_from_subspace(
    ambient: FDAlgebra, sub: Subspace, label_prefix: str = "s"
) -> SubalgebraWitness:
    """Restrict the product of ``ambient`` to ``sub``.

    The table is read over its denominator D_T and the echelon basis
    over its own, D_B (:attr:`~fusionalg.linalg.Subspace.den`), so each
    product of two basis rows, D_T·D_B² times its value, is reduced in
    integers, and the induced table is built over D_T·D_B².

    Ambient indices fall into parts (:func:`~fusionalg.linalg.components`)
    that keep together a and b of every nonempty e_a·e_b and the support
    of each basis vector.  Two basis vectors in different parts multiply
    to zero, so only products within a part are formed; the others keep
    one shared empty entry.

    Raises ClosureError when some product of subspace basis vectors falls
    outside the subspace.
    """
    if sub.ambient.dim != ambient.dim:
        raise ValueError("subspace does not live in the algebra")
    n, d = ambient.dim, sub.dim
    flat = [prod for row in ambient.table for prod in row]
    den_b, basis = sub.den, sub.basis
    nonempty = ([a, *(b for b, p in enumerate(row) if p)] for a, row in enumerate(ambient.table))
    part = components(n, [*nonempty, *basis])
    owner = [part[next(iter(vec))] for vec in basis]
    members: dict[int, list[int]] = {}
    for i, p in enumerate(owner):
        members.setdefault(p, []).append(i)
    scale = ambient.den * den_b * den_b
    space = Space(tuple(f"{label_prefix}{i}" for i in range(d)))
    empty: dict = {}
    table: list[list[dict[int, int]]] = [[empty] * d for _ in range(d)]
    for i, left in enumerate(basis):
        for j in members[owner[i]]:
            prod = linear_combination(flat, tensor_vec(left, basis[j], n))
            if not prod:
                continue
            coords = sub.coordinates(prod)
            if coords is None:
                raise ClosureError(i, j, prod, scale)
            table[i][j] = coords
    # the coordinates of the unit, over D_T, taken over D_T·D_B²
    unit = sub.coordinates(ambient.unit)
    unital = unit is not None
    unit = {k: v * den_b * den_b for k, v in unit.items()} if unital else {}
    algebra = FDAlgebra(space, table, unit, scale)
    inclusion = LinearMap.from_sparse_columns(space, ambient.space, basis, den_b)
    return SubalgebraWitness(ambient, sub, algebra, inclusion, unital)
