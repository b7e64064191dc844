"""Finite-dimensional unital algebras presented by structure constants.

An algebra is a labeled space, a unit vector, and its multiplication
stored only as a sparse structure-constant table: ``table[i][j]`` maps
each k to the nonzero coefficient of e_k in e_i·e_j.  The unit and every
product are sparse vectors in the sense of :mod:`fusionalg.linalg`.  All
checks report named axioms and a concrete witness (the basis triple or
pair that fails), never just a boolean, so callers can surface
actionable diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .linalg import (
    LinearMap,
    Q1,
    Space,
    Subspace,
    accumulate,
    components,
    integer_scaled,
    linear_combination,
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
    e_i·e_j and ``unit`` is the sparse unit vector; build it through
    :meth:`from_structure` unless both are already clean.
    """

    space: Space
    table: list[list[dict[int, Fraction]]]
    unit: dict[int, Fraction]

    def __post_init__(self):
        n = self.space.dim
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError("structure-constant table must be dim x dim")
        if any(not 0 <= k < n for k in self.unit):
            raise ValueError(f"unit vector index outside 0..{n - 1}")

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
        clean = []
        for row in table:
            out = []
            for prod in row:
                if any(not 0 <= k < n for k in prod):
                    raise ValueError(f"structure constant index outside 0..{n - 1}")
                out.append({k: c for k, v in prod.items() if (c := rat(v))})
            clean.append(out)
        return FDAlgebra(space, clean, {i: c for i, x in enumerate(unit) if (c := rat(x))})

    def unit_map(self) -> LinearMap:
        return LinearMap.from_sparse_columns(Space.scalar(), self.space, [self.unit])


def mul_sparse(table, x: dict[int, Fraction], y: dict[int, Fraction]) -> dict[int, Fraction]:
    """Product of sparse vectors through a structure-constant table."""
    acc: dict[int, Fraction] = {}
    for i, a in x.items():
        row = table[i]
        for j, b in y.items():
            ab = a * b
            for k, c in row[j].items():
                accumulate(acc, k, ab * c)
    return acc


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

    The table and the unit are scaled once to integers over their common
    denominator D (:func:`~fusionalg.linalg.integer_scaled`).  Both sides
    of associativity are products of two scaled constants and compare as
    they are; 1·e_i and e_i·1, also products of two, compare with
    D²·e_i.
    """
    n = alg.dim
    den, (flat, (unit,)) = integer_scaled((p for row in alg.table for p in row), (alg.unit,))
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]  # rows[i][m] = e_i·e_m
    cols = list(zip(*rows))  # cols[k][m] = e_m·e_k
    d2 = den * den

    def associative(i, j, k):
        # (e_i·e_j)·e_k against e_i·(e_j·e_k)
        return linear_combination(cols[k], rows[i][j]) == linear_combination(
            rows[i], rows[j][k]
        )

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
    table = [
        [({i: Q1} if i == j else {}) for j in range(n)] for i in range(n)
    ]
    return FDAlgebra(space, table, {i: Q1 for i in range(n)})


def scalar_algebra() -> FDAlgebra:
    return function_algebra(1, ("1",))


def tensor_algebra(a: FDAlgebra, b: FDAlgebra) -> FDAlgebra:
    """Componentwise product on A (x) B: (e_i (x) f_j)·(e_k (x) f_l) is
    e_i·e_k (x) f_j·f_l (:func:`~fusionalg.linalg.tensor_vec`), so the
    table has nnz(A)·nnz(B) constants.  The empty entries are one shared,
    never-mutated ``{}``."""
    db = b.dim
    n = a.dim * db
    empty: dict = {}
    table: list[list[dict[int, Fraction]]] = [[empty] * n for _ in range(n)]
    for i, row_a in enumerate(a.table):
        for k, pa in enumerate(row_a):
            if not pa:
                continue
            for j, row_b in enumerate(b.table):
                out = table[i * db + j]
                for l, pb in enumerate(row_b):
                    if pb:
                        out[k * db + l] = tensor_vec(pa, pb, db)
    return FDAlgebra(a.space.tensor(b.space), table, tensor_vec(a.unit, b.unit, db))


def direct_sum_algebra(a: FDAlgebra, b: FDAlgebra) -> FDAlgebra:
    """Product algebra A (+) B with componentwise operations."""
    da, db = a.dim, b.dim
    space = Space(
        tuple(f"L·{l}" for l in a.labels) + tuple(f"R·{l}" for l in b.labels)
    )
    table = [list(row) + [{} for _ in range(db)] for row in a.table] + [
        [{} for _ in range(da)] + [{da + k: v for k, v in prod.items()} for prod in row]
        for row in b.table
    ]
    return FDAlgebra(space, table, {**a.unit, **{da + k: v for k, v in b.unit.items()}})


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
    """Check f(xy) = f(x)f(y) on basis pairs and f(1) = 1, plus rank data."""
    a, b, f = hom.source, hom.target, hom.map
    failures = first_failure(
        "multiplicative",
        "f(e{0}·e{1}) differs from f(e{0})·f(e{1})",
        lambda i, j: f.apply(a.table[i][j]) == mul_sparse(b.table, f.cols[i], f.cols[j]),
        product(range(a.dim), repeat=2),
    ) + first_failure("unital", "f(1) is not the target unit", lambda: f.apply(a.unit) == b.unit)
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
    product that escapes it, a sparse vector of the ambient algebra.
    """

    def __init__(self, left_index: int, right_index: int, product: dict[int, Fraction]):
        self.left_index = left_index
        self.right_index = right_index
        self.product = product
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

    The nonempty table entries and the echelon basis are scaled to
    integers over their own denominators D_T and D_B, so each product of
    two scaled basis vectors, D_T·D_B² times its value, is reduced in
    integers.

    Ambient indices fall into parts (:func:`~fusionalg.linalg.components`)
    that keep together a and b of every nonempty e_a·e_b and the support
    of each basis vector.  Two basis vectors in different parts multiply
    to zero, so only products within a part are formed; the others keep
    one shared empty entry, as do the empty entries of the scaled table.

    Raises ClosureError when some product of subspace basis vectors falls
    outside the subspace.
    """
    if sub.ambient.dim != ambient.dim:
        raise ValueError("subspace does not live in the algebra")
    n, d = ambient.dim, sub.dim
    nonempty = [[b for b, p in enumerate(row) if p] for row in ambient.table]
    keys = [a * n + b for a, bs in enumerate(nonempty) for b in bs]
    den_t, (scaled,) = integer_scaled(ambient.table[k // n][k % n] for k in keys)
    empty: dict = {}
    flat = [empty] * (n * n)
    for k, p in zip(keys, scaled):
        flat[k] = p
    den_b, basis = sub.scaled_basis
    part = components(n, [*([a, *bs] for a, bs in enumerate(nonempty)), *basis])
    owner = [part[next(iter(vec))] for vec in basis]
    members: dict[int, list[int]] = {}
    for i, p in enumerate(owner):
        members.setdefault(p, []).append(i)
    scale = den_t * den_b * den_b
    space = Space(tuple(f"{label_prefix}{i}" for i in range(d)))
    table: list[list[dict[int, Fraction]]] = [[empty] * d for _ in range(d)]
    for i, left in enumerate(basis):
        for j in members[owner[i]]:
            right = basis[j]
            pairs = {a * n + b: x * y for a, x in left.items() for b, y in right.items()}
            prod = linear_combination(flat, pairs)
            if not prod:
                continue
            coords = sub.int_coordinates(prod)
            if coords is None:
                raise ClosureError(i, j, {k: Fraction(v, scale) for k, v in sorted(prod.items())})
            table[i][j] = {k: Fraction(v, scale) for k, v in coords.items()}
    unit = sub.coordinates(ambient.unit)
    unital = unit is not None
    algebra = FDAlgebra(space, table, unit if unital else {})
    inclusion = LinearMap.from_sparse_columns(space, ambient.space, sub.basis)
    return SubalgebraWitness(ambient, sub, algebra, inclusion, unital)
