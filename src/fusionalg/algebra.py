"""Finite-dimensional unital algebras presented by structure constants.

An algebra is a labeled space together with a multiplication map
A (x) A -> A and a unit vector.  All checks report named axioms and a
concrete witness (the basis triple or pair that fails), never just a
boolean, so callers can surface actionable diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .linalg import (
    LinearMap,
    Q0,
    Q1,
    Space,
    Subspace,
    basis_vec,
    rat,
    tensor_vec,
    zero_vec,
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
    """Unital associative algebra on a labeled rational vector space."""

    space: Space
    mult: LinearMap  # space (x) space -> space
    unit: tuple[Fraction, ...]

    def __post_init__(self):
        if self.mult.source.dim != self.space.dim ** 2:
            raise ValueError("multiplication source must be the tensor square")
        if self.mult.target.dim != self.space.dim:
            raise ValueError("multiplication target must be the algebra space")
        if len(self.unit) != self.space.dim:
            raise ValueError("unit vector has wrong length")

    @property
    def dim(self) -> int:
        return self.space.dim

    @property
    def labels(self) -> tuple[str, ...]:
        return self.space.labels

    @staticmethod
    def from_structure(space: Space, table, unit) -> "FDAlgebra":
        """Build from structure constants table[i][j] = {k: coeff}."""
        n = space.dim
        sq = space.tensor(space)
        rows = [[Q0] * (n * n) for _ in range(n)]
        for i in range(n):
            for j in range(n):
                for k, v in table[i][j].items():
                    rows[k][i * n + j] = rat(v)
        mult = LinearMap(sq, space, tuple(tuple(r) for r in rows))
        return FDAlgebra(space, mult, tuple(rat(x) for x in unit))

    def mult_vec(self, x, y) -> tuple[Fraction, ...]:
        return self.mult.apply(tensor_vec(x, y))

    def unit_map(self) -> LinearMap:
        return LinearMap.from_columns(Space.scalar(), self.space, [self.unit])

    def product_table(self) -> list[list[dict[int, Fraction]]]:
        """Structure constants: table[i][j] = sparse product of basis i, j."""
        n = self.dim
        table: list[list[dict[int, Fraction]]] = [
            [{} for _ in range(n)] for _ in range(n)
        ]
        for k, row in enumerate(self.mult.rows):
            for col, v in enumerate(row):
                if v != 0:
                    table[col // n][col % n][k] = v
        return table


def sparse_of_vec(vec) -> dict[int, Fraction]:
    return {i: v for i, v in enumerate(vec) if v != 0}


def mul_sparse(table, x: dict[int, Fraction], y: dict[int, Fraction]) -> dict[int, Fraction]:
    """Product of sparse vectors through a structure-constant table."""
    acc: dict[int, Fraction] = {}
    for i, a in x.items():
        row = table[i]
        for j, b in y.items():
            ab = a * b
            for k, c in row[j].items():
                nv = acc.get(k, Q0) + ab * c
                if nv == 0:
                    acc.pop(k, None)
                else:
                    acc[k] = nv
    return acc


def check_algebra(alg: FDAlgebra) -> CheckReport:
    """Associativity plus two-sided unit, with the first failing witness."""
    n = alg.dim
    table = alg.product_table()
    failures: list[Failure] = []
    unit = sparse_of_vec(alg.unit)

    assoc_failure = None
    for i in range(n):
        if assoc_failure:
            break
        for j in range(n):
            if assoc_failure:
                break
            left_ij = table[i][j]
            for k in range(n):
                lhs = mul_sparse(table, left_ij, {k: Q1})
                rhs = mul_sparse(table, {i: Q1}, table[j][k])
                if lhs != rhs:
                    assoc_failure = Failure(
                        "associativity",
                        f"(e{i}·e{j})·e{k} differs from e{i}·(e{j}·e{k})",
                        (i, j, k),
                    )
                    break
    if assoc_failure:
        failures.append(assoc_failure)

    for i in range(n):
        if mul_sparse(table, unit, {i: Q1}) != {i: Q1}:
            failures.append(
                Failure("unit_left", f"1·e{i} is not e{i}", (i,))
            )
            break
    for i in range(n):
        if mul_sparse(table, {i: Q1}, unit) != {i: Q1}:
            failures.append(
                Failure("unit_right", f"e{i}·1 is not e{i}", (i,))
            )
            break

    return CheckReport(not failures, tuple(failures))


# ---------------------------------------------------------------- builders

def function_algebra(n: int, labels: tuple[str, ...] | None = None) -> FDAlgebra:
    """Functions on an n-point set with the pointwise product."""
    space = Space(labels if labels is not None else tuple(f"δ{i}" for i in range(n)))
    table = [
        [({i: Q1} if i == j else {}) for j in range(n)] for i in range(n)
    ]
    return FDAlgebra.from_structure(space, table, (Q1,) * n)


def scalar_algebra() -> FDAlgebra:
    return function_algebra(1, ("1",))


def tensor_algebra(a: FDAlgebra, b: FDAlgebra) -> FDAlgebra:
    """Componentwise product on A (x) B."""
    da, db = a.dim, b.dim
    ta, tb = a.product_table(), b.product_table()
    space = a.space.tensor(b.space)
    n = da * db
    rows = [[Q0] * (n * n) for _ in range(n)]
    for i in range(da):
        for k in range(da):
            pa = ta[i][k]
            if not pa:
                continue
            for j in range(db):
                for l in range(db):
                    pb = tb[j][l]
                    if not pb:
                        continue
                    col = (i * db + j) * n + (k * db + l)
                    for p, va in pa.items():
                        for q, vb in pb.items():
                            rows[p * db + q][col] = va * vb
    mult = LinearMap(space.tensor(space), space, tuple(tuple(r) for r in rows))
    return FDAlgebra(space, mult, tensor_vec(a.unit, b.unit))


def direct_sum_algebra(a: FDAlgebra, b: FDAlgebra) -> FDAlgebra:
    """Product algebra A (+) B with componentwise operations."""
    da, db = a.dim, b.dim
    space = Space(
        tuple(f"L·{l}" for l in a.labels) + tuple(f"R·{l}" for l in b.labels)
    )
    ta, tb = a.product_table(), b.product_table()
    table: list[list[dict[int, Fraction]]] = [
        [{} for _ in range(da + db)] for _ in range(da + db)
    ]
    for i in range(da):
        for j in range(da):
            table[i][j] = dict(ta[i][j])
    for i in range(db):
        for j in range(db):
            table[da + i][da + j] = {da + k: v for k, v in tb[i][j].items()}
    unit = tuple(a.unit) + tuple(b.unit)
    return FDAlgebra.from_structure(space, table, unit)


# ---------------------------------------------------------------- homomorphisms

@dataclass(frozen=True)
class AlgebraHom:
    source: FDAlgebra
    target: FDAlgebra
    map: LinearMap

    def __post_init__(self):
        if self.map.source.dim != self.source.dim or self.map.target.dim != self.target.dim:
            raise ValueError("hom matrix does not match the algebras")

    def apply(self, vec):
        return self.map.apply(vec)


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
    ta = a.product_table()
    tb = b.product_table()
    f_cols = [sparse_of_vec(f.column(j)) for j in range(a.dim)]
    failures: list[Failure] = []

    mult_ok = True
    for i in range(a.dim):
        if not mult_ok:
            break
        for j in range(a.dim):
            lhs: dict[int, Fraction] = {}
            for k, c in ta[i][j].items():
                for p, v in f_cols[k].items():
                    nv = lhs.get(p, Q0) + c * v
                    if nv == 0:
                        lhs.pop(p, None)
                    else:
                        lhs[p] = nv
            rhs = mul_sparse(tb, f_cols[i], f_cols[j])
            if lhs != rhs:
                failures.append(
                    Failure(
                        "multiplicative",
                        f"f(e{i}·e{j}) differs from f(e{i})·f(e{j})",
                        (i, j),
                    )
                )
                mult_ok = False
                break

    unital_ok = f.apply(a.unit) == tuple(b.unit)
    if not unital_ok:
        failures.append(Failure("unital", "f(1) is not the target unit"))

    rank = f.rank()
    injective = rank == a.dim
    surjective = rank == b.dim
    return HomReport(
        ok=mult_ok and unital_ok,
        multiplicative=mult_ok,
        unital=unital_ok,
        injective=injective,
        surjective=surjective,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------- subalgebras

class ClosureError(ValueError):
    """A subspace is not closed under the ambient product.

    Carries the offending pair of basis vectors of the subspace and the
    product that escapes it.
    """

    def __init__(self, left_index: int, right_index: int, product):
        self.left_index = left_index
        self.right_index = right_index
        self.product = tuple(product)
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
    the stored unit vector is zero (the induced algebra is non-unital).
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

    Raises ClosureError when some product of subspace basis vectors falls
    outside the subspace.
    """
    if sub.ambient.dim != ambient.dim:
        raise ValueError("subspace does not live in the algebra")
    d = sub.dim
    space = Space(tuple(f"{label_prefix}{i}" for i in range(d)))
    table: list[list[dict[int, Fraction]]] = [[{} for _ in range(d)] for _ in range(d)]
    ambient_table = ambient.product_table()
    sparse_basis = [sparse_of_vec(b) for b in sub.basis]
    n = ambient.dim
    for i in range(d):
        for j in range(d):
            sparse_prod = mul_sparse(ambient_table, sparse_basis[i], sparse_basis[j])
            prod = tuple(sparse_prod.get(k, Q0) for k in range(n))
            coords = sub.coordinates(prod)
            if coords is None:
                raise ClosureError(i, j, prod)
            table[i][j] = {k: v for k, v in enumerate(coords) if v != 0}
    unit_coords = sub.coordinates(ambient.unit)
    unital = unit_coords is not None
    unit = unit_coords if unital else zero_vec(d)
    algebra = FDAlgebra.from_structure(space, table, unit)
    inclusion = LinearMap.from_columns(space, ambient.space, list(sub.basis))
    return SubalgebraWitness(ambient, sub, algebra, inclusion, unital)
