"""Finite group actions as comodule algebras, and joins of finite sets.

This is the combinatorial shadow of the fusion machinery: functions on a
right G-set form a comodule algebra over the functions on G, joins of
finite sets realize fusions of their function algebras, and freeness of
an action matches principality on the nose.  The constructions here are
exhaustive-checkable, which is what the correspondence tests exploit.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import AlgebraHom, FDAlgebra, check_hom, function_algebra
from .comodule import (
    ComoduleAlgebra,
    PrincipalityVerdict,
    check_comodule,
    is_principal,
)
from .fusion import (
    FusionAlgebra,
    PreconditionError,
    build_equivariant_fusion,
    build_fusion,
    chain_interval,
)
from .groups import FiniteGroup, FiniteGSet, cyclic_actions, is_free
from .hopf import function_hopf
from .linalg import LinearMap

__all__ = [
    "FiniteGroup",
    "FiniteGSet",
    "is_free",
    "cyclic_actions",
    "fun_comodule",
    "DiscreteJoin",
    "discrete_join",
    "diagonal_join",
    "gauged_join",
    "GaugedJoinIso",
    "gauged_join_iso",
    "JoinFusionIso",
    "fun_of_join_vs_fusion",
    "DiagonalJoinFreeness",
    "diagonal_join_freeness",
]


def fun_comodule(gset: FiniteGSet) -> ComoduleAlgebra:
    """Functions on a right G-set, coacting along the action:
    the indicator of y spreads over the pairs (x, g) with x·g = y."""
    group = gset.group
    p = function_algebra(gset.size, tuple(f"δ{name}" for name in gset.points))
    h = function_hopf(group)
    dh = group.order
    cols: list[dict] = [{} for _ in range(gset.size)]
    for x in range(gset.size):
        for g in range(dh):
            cols[gset.act[x][g]][x * dh + g] = 1
    coaction = LinearMap.from_sparse_columns(p.space, p.space.tensor(h.space), cols)
    com = ComoduleAlgebra(p, h, coaction)
    report = check_comodule(com)
    if not report.ok:
        raise AssertionError(f"action does not give a comodule: {report.failures}")
    return com


# ---------------------------------------------------------------- joins

@dataclass(frozen=True)
class DiscreteJoin:
    """The join of two finite sets over the chain 0..m.

    Points are triples (level, x, y) with the x-coordinate collapsed at
    level 0 and the y-coordinate collapsed at level m.
    """

    nx: int
    ny: int
    m: int
    points: tuple[str, ...]

    @property
    def size(self) -> int:
        return len(self.points)

    def point_index(self, k: int, x: int, y: int) -> int:
        if not (0 <= k <= self.m):
            raise ValueError("level out of range")
        if k == 0:
            return y
        if k == self.m:
            return self.ny + (self.m - 1) * self.nx * self.ny + x
        return self.ny + (k - 1) * self.nx * self.ny + x * self.ny + y


def _labeled_join(xs: tuple[str, ...], ys: tuple[str, ...], m: int) -> DiscreteJoin:
    """The join of the sets labeled ``xs`` and ``ys`` over the chain 0..m."""
    if m < 1:
        raise ValueError("join needs a positive chain length")
    points = [f"(0,*,{y})" for y in ys]
    for k in range(1, m):
        points += [f"({k},{x},{y})" for x in xs for y in ys]
    points += [f"({m},{x},*)" for x in xs]
    return DiscreteJoin(len(xs), len(ys), m, tuple(points))


def discrete_join(nx: int, ny: int, m: int) -> DiscreteJoin:
    if nx < 1 or ny < 1 or m < 1:
        raise ValueError("join needs nonempty sets and a positive chain length")
    return _labeled_join(
        tuple(f"x{i}" for i in range(nx)), tuple(f"y{j}" for j in range(ny)), m
    )


def _join_action(gset: FiniteGSet, m: int, move_x: bool) -> FiniteGSet:
    """The join of X and G in which h sends (k, x, g) to (k, x', g·h),
    with x' = x·h when ``move_x`` and x' = x otherwise; a level-m class,
    labeled by a point v of X, moves to the class of v·h either way."""
    group = gset.group
    join = _labeled_join(gset.points, group.names, m)
    at = join.point_index
    act = [[0] * group.order for _ in range(join.size)]
    for h in range(group.order):
        for g in range(group.order):
            act[at(0, 0, g)][h] = at(0, 0, group.table[g][h])
        for k in range(1, m):
            for x in range(gset.size):
                xh = gset.act[x][h] if move_x else x
                for g in range(group.order):
                    act[at(k, x, g)][h] = at(k, xh, group.table[g][h])
        for v in range(gset.size):
            act[at(m, v, 0)][h] = at(m, gset.act[v][h], 0)
    return FiniteGSet.from_table(group, join.points, act)


def diagonal_join(gset: FiniteGSet, m: int) -> FiniteGSet:
    """The join of X and G carrying the diagonal action
    (k, x, g)·h = (k, x·h, g·h) on classes."""
    return _join_action(gset, m, move_x=True)


def gauged_join(gset: FiniteGSet, m: int) -> FiniteGSet:
    """The join of X and G where only the group coordinate moves:
    (k, x, g)·h = (k, x, g·h), with level-m classes labeled by the
    value x·g."""
    return _join_action(gset, m, move_x=False)


@dataclass(frozen=True)
class GaugedJoinIso:
    """The equivariant identification of the two joins.

    ``point_map`` sends a class of the diagonal join to the class of
    (k, x·g^{-1}, g) in the gauged join.  Construction verifies that the
    map is well defined on classes, bijective, and equivariant — for
    every action, free or not.
    """

    diagonal: FiniteGSet
    gauged: FiniteGSet
    point_map: tuple[int, ...]


def gauged_join_iso(gset: FiniteGSet, m: int) -> GaugedJoinIso:
    group = gset.group
    nx, ng = gset.size, group.order
    diag = diagonal_join(gset, m)
    gau = gauged_join(gset, m)
    at = _labeled_join(gset.points, group.names, m).point_index

    def diag_class(k: int, x: int, g: int) -> int:
        return at(k, x if k > 0 else 0, g if k < m else 0)

    def gau_class(k: int, x: int, g: int) -> int:
        if k == m:
            return at(m, gset.act[x][g], 0)
        return at(k, x if k > 0 else 0, g)

    point_map: list[int | None] = [None] * diag.size
    for k in range(m + 1):
        for x in range(nx):
            for g in range(ng):
                src = diag_class(k, x, g)
                dst = gau_class(k, gset.act[x][group.inverse[g]], g)
                if point_map[src] is None:
                    point_map[src] = dst
                elif point_map[src] != dst:
                    raise AssertionError(
                        "identification is not well defined on classes"
                    )
    mapped = tuple(point_map)  # type: ignore[arg-type]
    if None in point_map or len(set(mapped)) != diag.size or gau.size != diag.size:
        raise AssertionError("identification is not a bijection")
    for p in range(diag.size):
        for h in range(group.order):
            if mapped[diag.act[p][h]] != gau.act[mapped[p]][h]:
                raise AssertionError("identification is not equivariant")
    return GaugedJoinIso(diag, gau, mapped)


# ---------------------------------------------------------------- join vs fusion

@dataclass(frozen=True)
class JoinFusionIso:
    """Functions on a discrete join, identified with the fusion of the
    two function algebras by pulling indicators back along the collapse."""

    join: DiscreteJoin
    functions: FDAlgebra
    fusion: FusionAlgebra
    map: LinearMap  # functions on the join -> fusion coordinates


def fun_of_join_vs_fusion(nx: int, ny: int, m: int) -> JoinFusionIso:
    join = discrete_join(nx, ny, m)
    functions = function_algebra(
        join.size, tuple(f"δ{p}" for p in join.points)
    )
    fusion = build_fusion(
        chain_interval(m), function_algebra(nx), function_algebra(ny)
    )
    if fusion.algebra.dim != join.size:
        raise AssertionError("join size and fusion dimension disagree")
    # the indicator of z pulls back to the indicator of its triples
    indicators: list[dict] = [{} for _ in range(join.size)]
    for k in range(m + 1):
        for x in range(nx):
            for y in range(ny):
                indicators[join.point_index(k, x, y)][(k * nx + x) * ny + y] = 1
    cols = []
    for vec in indicators:
        coords = fusion.carrier.coordinates(vec)
        if coords is None:
            raise AssertionError("pulled-back indicator leaves the carrier")
        cols.append(coords)
    iso = LinearMap.from_sparse_columns(
        functions.space, fusion.algebra.space, cols
    )
    report = check_hom(AlgebraHom(functions, fusion.algebra, iso))
    if not (report.ok and report.bijective):
        raise AssertionError("indicator pullback is not an algebra isomorphism")
    return JoinFusionIso(join, functions, fusion, iso)


# ---------------------------------------------------------------- freeness

@dataclass(frozen=True)
class DiagonalJoinFreeness:
    """Two independent freeness computations for the join of a free
    G-set with its group: combinatorial freeness of the diagonal join
    action, and principality of the equivariant fusion."""

    gset: FiniteGSet
    m: int
    join: FiniteGSet
    join_free: bool
    fusion_verdict: PrincipalityVerdict

    @property
    def both_hold(self) -> bool:
        return self.join_free and self.fusion_verdict.principal


def diagonal_join_freeness(gset: FiniteGSet, m: int) -> DiagonalJoinFreeness:
    """Requires a free action; refuses anything else."""
    if not is_free(gset):
        raise PreconditionError("the action is not free; the join inherits nothing")
    join = diagonal_join(gset, m)
    com = fun_comodule(gset)
    fusion = build_equivariant_fusion(chain_interval(m), com)
    verdict = is_principal(fusion.comodule)
    return DiagonalJoinFreeness(gset, m, join, is_free(join), verdict)
