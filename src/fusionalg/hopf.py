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

from .algebra import (
    CheckReport,
    FDAlgebra,
    Failure,
    check_algebra,
    first_failure,
    function_algebra,
)
from .groups import FiniteGroup
from .linalg import (
    LinearMap,
    Space,
    common_den,
    linear_combination,
    on_left,
    on_right,
    tensor_mul,
    tensor_vec,
)


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
    """Full axiom battery; each failed axiom appears once, by name, with
    its first witness.

    Axiom names: the three algebra axioms, then coassociativity,
    counit_left, counit_right, coproduct_multiplicative,
    coproduct_unital, counit_multiplicative, counit_unital,
    antipode_left, antipode_right, antipode_bijective.

    The table, Δ, ε, S and the unit are read over their common
    denominator D (:func:`~fusionalg.linalg.common_den`), so a side that
    multiplies k scaled constants is D^k times its value.
    Both sides of coassociativity, coproduct_unital and
    counit_multiplicative have k = 2; the counit laws compare with
    D²·e_i and counit_unital with D²; Δ(e_i·e_j) (k = 2) is multiplied
    by D² to meet Δ(e_i)·Δ(e_j) (k = 4); the antipode laws (k = 3) compare
    with D·ε(e_i)·1.  Bijectivity of S composes the stored maps.

    Coassociativity, the counit laws, multiplicativity and the antipode
    laws are each decided by one sparse vector that the law owns, as in
    :func:`~fusionalg.comodule.check_comodule`: its left side is added
    into it, its right side is subtracted through the negated Δ(e_i) or
    a negated target, and the law holds when every entry is zero.  Δ on
    e_i·e_j and m on a vector of H (x) H are
    :func:`~fusionalg.linalg.on_left` with width 1, over the columns of Δ
    and over the flattened table.
    """
    n = h.dim
    den, ((flat, unit), delta, s_cols, eps_cols) = common_den(  # flat[i·n + j] = e_i·e_j
        h.algebra, h.coproduct, h.antipode, h.counit
    )
    eps = [col.get(0, 0) for col in eps_cols]
    d2 = den * den
    neg_delta = [{k: -v for k, v in col.items()} for col in delta]

    # both iterated coproducts agree on every basis vector
    def coassociative(i):
        acc = on_left(delta[i], delta, n, {})
        return not any(on_right(neg_delta[i], delta, n, n * n, acc).values())

    # collapsing either tensor leg recovers the identity
    def counital(i, left):
        acc = {i: -d2}
        legs = on_left(delta[i], eps_cols, n, acc) if left else on_right(delta[i], eps_cols, n, 1, acc)
        return not any(legs.values())

    # the coproduct is an algebra map
    def multiplicative(i, j):
        acc = on_left({k: c * d2 for k, c in flat[i * n + j].items()}, delta, 1, {})
        return not any(tensor_mul(neg_delta[i], delta[j], flat, n, flat, n, acc).values())

    def counit_of(vec: dict[int, int]) -> int:
        return sum(c * eps[k] for k, c in vec.items())

    # m∘(S⊗id)∘Δ = unit∘ε = m∘(id⊗S)∘Δ
    def antipode(i, left):
        legs = on_left(delta[i], s_cols, n, {}) if left else on_right(delta[i], s_cols, n, n, {})
        e = -eps[i] * den
        return not any(on_left(legs, flat, 1, {k: e * u for k, u in unit.items()}).values())

    unit_sq = tensor_vec(unit, unit, n)
    each, pairs = [(i,) for i in range(n)], [(i, j) for i in range(n) for j in range(n)]
    failures = (
        list(check_algebra(h.algebra).failures)
        + first_failure(
            "coassociativity",
            "iterated coproducts disagree on basis vector {}",
            coassociative,
            each,
        )
        + first_failure(
            "counit_left", "(ε⊗id)∘Δ is not the identity at {}", lambda i: counital(i, True), each
        )
        + first_failure(
            "counit_right", "(id⊗ε)∘Δ is not the identity at {}", lambda i: counital(i, False), each
        )
        + first_failure(
            "coproduct_multiplicative",
            "Δ(e{0}·e{1}) differs from Δ(e{0})·Δ(e{1})",
            multiplicative,
            pairs,
        )
        + first_failure(
            "coproduct_unital",
            "Δ(1) is not 1⊗1",
            lambda: linear_combination(delta, unit) == unit_sq,
        )
        + first_failure(
            "counit_multiplicative",
            "ε(e{0}·e{1}) differs from ε(e{0})ε(e{1})",
            lambda i, j: counit_of(flat[i * n + j]) == eps[i] * eps[j],
            pairs,
        )
        + first_failure("counit_unital", "ε(1) is not 1", lambda: counit_of(unit) == d2)
        + first_failure(
            "antipode_left", "m∘(S⊗id)∘Δ misses unit∘ε at {}", lambda i: antipode(i, True), each
        )
        + first_failure(
            "antipode_right", "m∘(id⊗S)∘Δ misses unit∘ε at {}", lambda i: antipode(i, False), each
        )
    )
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
    cop_cols: list[dict[int, int]] = [{} for _ in range(n)]
    for a in range(n):
        for b in range(n):
            cop_cols[group.table[a][b]][a * n + b] = 1
    coproduct = LinearMap.from_sparse_columns(space, space.tensor(space), cop_cols)
    counit = LinearMap.from_sparse_columns(
        space, Space.scalar(), ({0: 1} if g == group.identity else {} for g in range(n))
    )
    return make_hopf(algebra, coproduct, counit, _inversion(group, space))


def group_hopf(group: FiniteGroup) -> HopfAlgebra:
    """The group algebra: basis the group, grouplike coproduct Δg = g⊗g."""
    n = group.order
    space = Space(tuple(group.names))
    table = [[{group.table[a][b]: 1} for b in range(n)] for a in range(n)]
    algebra = FDAlgebra(space, table, {group.identity: 1})
    coproduct = LinearMap.from_sparse_columns(
        space, space.tensor(space), ({g * n + g: 1} for g in range(n))
    )
    counit = LinearMap.from_sparse_columns(space, Space.scalar(), ({0: 1} for _ in range(n)))
    return make_hopf(algebra, coproduct, counit, _inversion(group, space))


def _inversion(group: FiniteGroup, space: Space) -> LinearMap:
    """The antipode of both group constructions: e_g -> e_{g^-1}."""
    cols = ({group.inverse[g]: 1} for g in range(group.order))
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
