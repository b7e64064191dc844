"""Hopf algebras on labeled rational spaces, with named axiom checks.

A Hopf algebra packages an algebra with a coproduct H -> H (x) H, a
counit H -> k, and an antipode.  The inverse antipode is computed at
construction time when it exists; a singular antipode is stored with
``antipode_inv = None`` and reported by the bijectivity check.

All axiom checks run on sparse structure constants so that repeated
checking of many small Hopf algebras (and many mutated copies) stays
fast.  Identifications k (x) H = H = H (x) k are literal on coordinates
because the scalar factor has dimension one.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import (
    CheckReport,
    FDAlgebra,
    Failure,
    check_algebra,
    function_algebra,
    mul_sparse,
)
from .groups import FiniteGroup
from .linalg import LinearMap, Q0, Q1, Space, accumulate, sparse_of_vec


@dataclass(frozen=True)
class HopfAlgebra:
    algebra: FDAlgebra
    coproduct: LinearMap  # H -> H (x) H
    counit: LinearMap  # H -> k
    antipode: LinearMap  # H -> H
    antipode_inv: LinearMap | None

    @property
    def space(self) -> Space:
        return self.algebra.space

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def labels(self) -> tuple[str, ...]:
        return self.algebra.labels

    @property
    def counit_values(self) -> list[Fraction]:
        """ε(e_i) for each basis vector e_i."""
        return [col.get(0, Q0) for col in self.counit.cols]


def make_hopf(
    algebra: FDAlgebra,
    coproduct: LinearMap,
    counit: LinearMap,
    antipode: LinearMap,
    antipode_inv: LinearMap | None = None,
) -> HopfAlgebra:
    n = algebra.dim
    if coproduct.source.dim != n or coproduct.target.dim != n * n:
        raise ValueError("coproduct has wrong shape")
    if counit.source.dim != n or counit.target.dim != 1:
        raise ValueError("counit has wrong shape")
    if antipode.source.dim != n or antipode.target.dim != n:
        raise ValueError("antipode has wrong shape")
    if antipode_inv is None:
        antipode_inv = antipode.inverse()
    elif antipode_inv.source.dim != n or antipode_inv.target.dim != n:
        raise ValueError("inverse antipode has wrong shape")
    return HopfAlgebra(algebra, coproduct, counit, antipode, antipode_inv)


# ---------------------------------------------------------------- checks

def check_hopf(h: HopfAlgebra) -> CheckReport:
    """Full axiom battery; each failed axiom appears once, by name.

    Axiom names: the three algebra axioms, then coassociativity,
    counit_left, counit_right, coproduct_multiplicative,
    coproduct_unital, counit_multiplicative, counit_unital,
    antipode_left, antipode_right, antipode_bijective.
    """
    failures: list[Failure] = list(check_algebra(h.algebra).failures)
    n = h.dim
    table = h.algebra.table
    delta = h.coproduct.cols
    eps = h.counit_values
    s_cols = h.antipode.cols
    unit = sparse_of_vec(h.algebra.unit)

    # coassociativity: both iterated coproducts agree on every basis vector
    for i in range(n):
        lhs: dict[int, Fraction] = {}
        rhs: dict[int, Fraction] = {}
        for pq, c in delta[i].items():
            p, q = divmod(pq, n)
            for ab, d in delta[p].items():
                accumulate(lhs, ab * n + q, c * d)
            for ab, d in delta[q].items():
                accumulate(rhs, p * n * n + ab, c * d)
        if lhs != rhs:
            failures.append(
                Failure(
                    "coassociativity",
                    f"iterated coproducts disagree on basis vector {i}",
                    (i,),
                )
            )
            break

    # counit laws: collapsing either tensor leg recovers the identity
    for i in range(n):
        left: dict[int, Fraction] = {}
        right: dict[int, Fraction] = {}
        for pq, c in delta[i].items():
            p, q = divmod(pq, n)
            if eps[p] != 0:
                accumulate(left, q, c * eps[p])
            if eps[q] != 0:
                accumulate(right, p, c * eps[q])
        target = {i: Q1}
        if left != target:
            failures.append(
                Failure("counit_left", f"(ε⊗id)∘Δ is not the identity at {i}", (i,))
            )
            break
        if right != target:
            failures.append(
                Failure("counit_right", f"(id⊗ε)∘Δ is not the identity at {i}", (i,))
            )
            break

    # the coproduct is an algebra map
    def tensor_square_product(x: dict[int, Fraction], y: dict[int, Fraction]):
        acc: dict[int, Fraction] = {}
        for pq, a in x.items():
            p, q = divmod(pq, n)
            for rs, b in y.items():
                r, s = divmod(rs, n)
                ab = a * b
                for u, cu in table[p][r].items():
                    for v, cv in table[q][s].items():
                        accumulate(acc, u * n + v, ab * cu * cv)
        return acc

    mult_ok = True
    for i in range(n):
        if not mult_ok:
            break
        for j in range(n):
            lhs = h.coproduct.apply(table[i][j])
            rhs = tensor_square_product(delta[i], delta[j])
            if lhs != rhs:
                failures.append(
                    Failure(
                        "coproduct_multiplicative",
                        f"Δ(e{i}·e{j}) differs from Δ(e{i})·Δ(e{j})",
                        (i, j),
                    )
                )
                mult_ok = False
                break

    unit_sq = {
        p * n + q: a * b for p, a in unit.items() for q, b in unit.items()
    }
    if h.coproduct.apply(unit) != unit_sq:
        failures.append(Failure("coproduct_unital", "Δ(1) is not 1⊗1"))

    eps_mult_ok = True
    for i in range(n):
        if not eps_mult_ok:
            break
        for j in range(n):
            lhs_s = sum((c * eps[k] for k, c in table[i][j].items()), Q0)
            if lhs_s != eps[i] * eps[j]:
                failures.append(
                    Failure(
                        "counit_multiplicative",
                        f"ε(e{i}·e{j}) differs from ε(e{i})ε(e{j})",
                        (i, j),
                    )
                )
                eps_mult_ok = False
                break

    if sum((c * eps[i] for i, c in unit.items()), Q0) != Q1:
        failures.append(Failure("counit_unital", "ε(1) is not 1"))

    # antipode laws: m∘(S⊗id)∘Δ = unit∘ε = m∘(id⊗S)∘Δ
    for i in range(n):
        left_acc: dict[int, Fraction] = {}
        right_acc: dict[int, Fraction] = {}
        for pq, c in delta[i].items():
            p, q = divmod(pq, n)
            for k, v in mul_sparse(table, s_cols[p], {q: Q1}).items():
                accumulate(left_acc, k, c * v)
            for k, v in mul_sparse(table, {p: Q1}, s_cols[q]).items():
                accumulate(right_acc, k, c * v)
        target = {k: eps[i] * v for k, v in unit.items()} if eps[i] != 0 else {}
        if left_acc != target:
            failures.append(
                Failure("antipode_left", f"m∘(S⊗id)∘Δ misses unit∘ε at {i}", (i,))
            )
            break
        if right_acc != target:
            failures.append(
                Failure("antipode_right", f"m∘(id⊗S)∘Δ misses unit∘ε at {i}", (i,))
            )
            break

    if h.antipode_inv is None:
        failures.append(Failure("antipode_bijective", "the antipode is singular"))
    elif not (
        h.antipode.compose(h.antipode_inv).is_identity()
        and h.antipode_inv.compose(h.antipode).is_identity()
    ):
        failures.append(
            Failure("antipode_bijective", "stored inverse does not invert the antipode")
        )

    return CheckReport(not failures, tuple(failures))


# ---------------------------------------------------------------- builders

def function_hopf(group: FiniteGroup) -> HopfAlgebra:
    """Functions on a finite group: pointwise product, Δδ_g = Σ_{hk=g} δ_h⊗δ_k."""
    n = group.order
    labels = tuple(f"δ{name}" for name in group.names)
    algebra = function_algebra(n, labels)
    space = algebra.space
    cop_cols: list[dict[int, Fraction]] = [{} for _ in range(n)]
    for a in range(n):
        for b in range(n):
            cop_cols[group.table[a][b]][a * n + b] = Q1
    coproduct = LinearMap.from_sparse_columns(space, space.tensor(space), cop_cols)
    counit = LinearMap.from_sparse_columns(
        space, Space.scalar(), ({0: Q1} if g == group.identity else {} for g in range(n))
    )
    return make_hopf(algebra, coproduct, counit, _inversion(group, space))


def group_hopf(group: FiniteGroup) -> HopfAlgebra:
    """The group algebra: basis the group, grouplike coproduct Δg = g⊗g."""
    n = group.order
    space = Space(tuple(group.names))
    table = [
        [{group.table[a][b]: Q1} for b in range(n)] for a in range(n)
    ]
    unit = tuple(Q1 if g == group.identity else Q0 for g in range(n))
    algebra = FDAlgebra.from_structure(space, table, unit)
    coproduct = LinearMap.from_sparse_columns(
        space, space.tensor(space), ({g * n + g: Q1} for g in range(n))
    )
    counit = LinearMap.from_sparse_columns(space, Space.scalar(), ({0: Q1} for _ in range(n)))
    return make_hopf(algebra, coproduct, counit, _inversion(group, space))


def _inversion(group: FiniteGroup, space: Space) -> LinearMap:
    """The antipode of both group constructions: e_g -> e_{g^-1}."""
    cols = ({group.inverse[g]: Q1} for g in range(group.order))
    return LinearMap.from_sparse_columns(space, space, cols)


def trivial_hopf() -> HopfAlgebra:
    return function_hopf(FiniteGroup.cyclic(1))


def sweedler_legs(h: HopfAlgebra, n: int) -> LinearMap:
    """The iterated coproduct H -> H^(x n), nested on the left:
    one leg is the identity, and each further leg applies Δ to the
    leftmost factor block."""
    if n < 1:
        raise ValueError("need at least one tensor leg")
    ident = LinearMap.identity(h.space)
    out = ident
    for _ in range(n - 1):
        out = out.kron(ident).compose(h.coproduct)
    return out
