"""Discrete joins of group actions and their function-algebra counterparts."""

import re
from fractions import Fraction

import pytest

from fusionalg.algebra import AlgebraHom, check_hom
from fusionalg.classical import (
    diagonal_join,
    diagonal_join_freeness,
    discrete_join,
    fun_comodule,
    fun_of_join_vs_fusion,
    gauged_join,
    gauged_join_iso,
)
from fusionalg.comodule import check_comodule
from fusionalg.fusion import PreconditionError
from fusionalg.groups import FiniteGroup, FiniteGSet, is_free

Q = Fraction


def test_fun_comodule_closed_form():
    """δ(δ_x) has one term δ_y⊗δ_g for every solution of y·g = x."""
    g = FiniteGroup.cyclic(3)
    gset = FiniteGSet.regular(g)
    c = fun_comodule(gset)
    assert check_comodule(c).ok
    n = gset.size
    dh = g.order
    for x in range(n):
        col = c.coaction.cols[x]
        for y in range(n):
            for a in range(dh):
                expect = Q(1) if gset.apply(y, a) == x else Q(0)
                assert col.get(y * dh + a, Q(0)) == expect


def test_fun_comodule_of_non_regular_actions():
    z2 = FiniteGroup.cyclic(2)
    for gset in (
        FiniteGSet.trivial(z2, 2),
        FiniteGSet.disjoint_union(FiniteGSet.regular(z2), FiniteGSet.trivial(z2, 1)),
    ):
        assert check_comodule(fun_comodule(gset)).ok


def test_discrete_join_sizes():
    for nx in (1, 2, 3):
        for ny in (1, 2, 3):
            for m in (1, 2, 3):
                join = discrete_join(nx, ny, m)
                assert join.size == ny + (m - 1) * nx * ny + nx
                assert len(set(join.points)) == join.size


def test_discrete_join_point_index():
    join = discrete_join(2, 3, 2)
    seen = set()
    for k in range(3):
        xs = range(2) if k > 0 else [0]
        ys = range(3) if k < 2 else [0]
        for x in xs:
            for y in ys:
                idx = join.point_index(k, x, y)
                assert 0 <= idx < join.size
                seen.add(idx)
    assert seen == set(range(join.size))
    # collapsed coordinates are irrelevant at the ends
    assert join.point_index(0, 0, 1) == join.point_index(0, 1, 1)
    assert join.point_index(2, 1, 0) == join.point_index(2, 1, 2)
    with pytest.raises(ValueError):
        join.point_index(3, 0, 0)


def test_discrete_join_validation():
    with pytest.raises(ValueError):
        discrete_join(0, 1, 1)
    with pytest.raises(ValueError):
        discrete_join(1, 1, 0)


def test_joins_are_valid_actions_and_freeness_transfers():
    z2 = FiniteGroup.cyclic(2)
    free = FiniteGSet.regular(z2)
    fixed = FiniteGSet.trivial(z2, 1)
    for m in (1, 2):
        dj_free = diagonal_join(free, m)
        gj_free = gauged_join(free, m)
        assert dj_free.size == gj_free.size == z2.order + (m - 1) * 2 * 2 + 2
        assert is_free(dj_free)
        assert is_free(gj_free)
        dj_fixed = diagonal_join(fixed, m)
        gj_fixed = gauged_join(fixed, m)
        assert not is_free(dj_fixed)
        assert not is_free(gj_fixed)


@pytest.mark.parametrize("join", [diagonal_join, gauged_join])
def test_group_set_joins_lay_out_points_as_the_discrete_join(join):
    """The join of X and G has the points of the discrete join of |X| and
    |G| points, in the same order, with the points of X and the elements
    of G in place of x_i and y_j."""
    gset = FiniteGSet.regular(FiniteGroup.symmetric(3))
    labels = {"x": gset.points, "y": gset.group.names}
    for m in (1, 2, 3):
        plain = discrete_join(gset.size, gset.group.order, m)
        assert join(gset, m).points == tuple(
            re.sub(r"([xy])(\d+)", lambda mo: labels[mo[1]][int(mo[2])], point)
            for point in plain.points
        )


def test_gauged_join_iso_on_free_actions():
    for g in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3)):
        gset = FiniteGSet.regular(g)
        for m in (1, 2):
            iso = gauged_join_iso(gset, m)
            diag, gauge = iso.diagonal, iso.gauged
            # a bijection of points...
            assert sorted(iso.point_map) == list(range(diag.size))
            # ...that intertwines the two actions
            for x in range(diag.size):
                for a in range(g.order):
                    assert (
                        iso.point_map[diag.apply(x, a)]
                        == gauge.apply(iso.point_map[x], a)
                    )


def test_gauged_join_iso_without_freeness():
    """The identification of the two join actions needs no hypothesis on
    the starting action."""
    z2 = FiniteGroup.cyclic(2)
    gset = FiniteGSet.trivial(z2, 2)
    iso = gauged_join_iso(gset, 2)
    assert sorted(iso.point_map) == list(range(iso.diagonal.size))
    for x in range(iso.diagonal.size):
        for a in range(2):
            assert (
                iso.point_map[iso.diagonal.apply(x, a)]
                == iso.gauged.apply(iso.point_map[x], a)
            )


def test_join_vs_fusion_iso():
    for nx, ny, m in ((1, 1, 1), (1, 1, 3), (2, 2, 2), (3, 2, 1)):
        out = fun_of_join_vs_fusion(nx, ny, m)
        assert out.functions.dim == out.join.size
        assert out.fusion.algebra.dim == out.join.size
        rep = check_hom(AlgebraHom(out.functions, out.fusion.algebra, out.map))
        assert rep.ok and rep.bijective, (nx, ny, m, rep.failures)


def test_join_vs_fusion_function_labels_follow_points():
    out = fun_of_join_vs_fusion(2, 2, 2)
    assert out.functions.labels == tuple(f"δ{p}" for p in out.join.points)


def test_join_of_two_points_is_a_chain():
    out = fun_of_join_vs_fusion(1, 1, 3)
    alg = out.fusion.algebra
    assert alg.dim == 4
    for i in range(4):
        for j in range(4):
            assert alg.table[i][j] == ({i: Q(1)} if i == j else {})


def test_diagonal_join_freeness_double_verdict():
    z3 = FiniteGroup.cyclic(3)
    out = diagonal_join_freeness(FiniteGSet.regular(z3), 2)
    assert out.join_free
    assert out.fusion_verdict.principal
    assert out.both_hold
    assert out.join.size == 3 + 9 + 3


def test_diagonal_join_freeness_refuses_non_free_actions():
    z2 = FiniteGroup.cyclic(2)
    with pytest.raises(PreconditionError):
        diagonal_join_freeness(FiniteGSet.trivial(z2, 2), 1)
