"""The integer-scaled axiom batteries: each failure path on a rescaled
input, and every report equal to the ``Fraction`` reference in
``dense_reference``.

The rescaled inputs have structure constants with denominators other
than 1, so a target compared with the wrong power of the common
denominator would fail on them, which inputs with constants 0 and ±1
cannot show.
"""

import json
from fractions import Fraction
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from fusionalg.algebra import FDAlgebra, check_algebra, subalgebra_from_subspace
from fusionalg.classical import fun_comodule
from fusionalg.comodule import (
    ComoduleAlgebra,
    check_comodule,
    check_strong_connection,
    connection_unital,
    solve_strong_connection,
)
from fusionalg.fusion import build_equivariant_fusion, chain_interval
from fusionalg.groups import FiniteGroup, FiniteGSet, cyclic_actions
from fusionalg.hopf import check_hopf, group_hopf, make_hopf
from fusionalg.linalg import Infeasibility, LinearMap, components
from fusionalg.serialize import comodule_from_obj
from test_comodule import RESCALED, _rescaled_map, _squares, rescaled_comodule
from test_fusion import regular_comodule, self_coaction, sweedler_h4, upper_triangular_base

Q = Fraction
GOLDEN = Path(__file__).parent / "golden" / "comodule_rescaled_nonfree_z2.json"


def golden() -> ComoduleAlgebra:
    """O(Z2) on one free orbit and one fixed point, in a rescaled basis."""
    return comodule_from_obj(json.loads(GOLDEN.read_text()))


def bumped(f: LinearMap, col: int, row: int, delta) -> LinearMap:
    """f with ``delta`` added to the entry at (row, col)."""
    cols = [dict(c) for c in f.cols]
    cols[col][row] = cols[col].get(row, 0) + delta
    return LinearMap.from_sparse_columns(f.source, f.target, cols)


def leg_scaled(c: ComoduleAlgebra, ell: LinearMap, first: bool, index: int, factor):
    """ℓ with its entries at e_index on the first (or second) tensor leg
    multiplied by ``factor``: a linear map on one leg keeps the law that
    only reads the other leg's coaction."""
    dp = c.algebra.dim
    cols = []
    for col in ell.cols:
        cols.append(
            {
                r: v * factor if divmod(r, dp)[0 if first else 1] == index else v
                for r, v in col.items()
            }
        )
    return LinearMap.from_sparse_columns(ell.source, ell.target, cols)


def orbit_connection(c: ComoduleAlgebra, gset: FiniteGSet, orbit, p_scales, h_scales):
    """ℓ(δ_g) = Σ_z δ_z ⊗ δ_{z·g} over the points z of one free orbit,
    written in the basis rescaled by ``p_scales`` and ``h_scales``."""
    n, size = gset.group.order, gset.size
    cols = [{z * size + gset.apply(z, a): Q(1) for z in orbit} for a in range(n)]
    sq = c.algebra.space.tensor(c.algebra.space)
    ell = LinearMap.from_sparse_columns(c.hopf.space, sq, cols)
    return _rescaled_map(ell, h_scales, _squares(p_scales, p_scales))


def nonfree_orbit_connection():
    """The golden input and the orbit connection of its free orbit."""
    _, p_scales, h_scales = RESCALED["nonfree-z2"]
    z2 = FiniteGroup.cyclic(2)
    gset = FiniteGSet.disjoint_union(FiniteGSet.regular(z2), FiniteGSet.trivial(z2, 1))
    c = golden()
    return c, orbit_connection(c, gset, (0, 1), p_scales, h_scales)


def free_orbit_connection():
    """The free orbit of the golden input alone, in the same rescaled
    basis, with its connection."""
    _, p_scales, h_scales = RESCALED["nonfree-z2"]
    gset = FiniteGSet.regular(FiniteGroup.cyclic(2))
    c = rescaled_comodule(fun_comodule(gset), p_scales[:2], h_scales)
    return c, orbit_connection(c, gset, (0, 1), p_scales[:2], h_scales)


def failures(report) -> dict:
    """Each failed axiom with its witness; no axiom may fail twice."""
    found = {f.axiom: f.witness for f in report.failures}
    assert len(found) == len(report.failures)
    return found


# ---------------------------------------------------------------- failure paths

def test_rescaled_inputs_pass_every_battery():
    """The golden input passes its batteries, its orbit connection is
    colinear both ways but cannot split at the fixed point, and the free
    orbit alone is principal."""
    c, ell = nonfree_orbit_connection()
    assert check_algebra(c.algebra).ok
    assert check_hopf(c.hopf).ok
    assert check_comodule(c).ok
    assert failures(check_strong_connection(c, ell)) == {
        "splitting": (0,),
        "counit_product": (0,),
    }
    free, ell = free_orbit_connection()
    assert check_comodule(free).ok
    assert check_strong_connection(free, ell, require_unital=True).ok


# (axiom, map, column, row, first witness)
HOPF_MUTATIONS = [
    ("coassociativity", "coproduct", 0, 1, (0,)),
    ("coproduct_multiplicative", "coproduct", 1, 1, (1, 1)),
    ("coproduct_unital", "coproduct", 0, 3, ()),
    ("antipode_left", "antipode", 0, 1, (1,)),
    ("antipode_right", "antipode", 1, 1, (0,)),
]


@pytest.mark.parametrize(
    "axiom, name, col, row, witness", HOPF_MUTATIONS, ids=[m[0] for m in HOPF_MUTATIONS]
)
def test_hopf_mutation_reports_axiom_and_witness(axiom, name, col, row, witness):
    """One entry of Δ or S of the golden input's Hopf algebra moved by
    2/3: the axiom fails at its first witness."""
    h = golden().hopf
    maps = {"coproduct": h.coproduct, "counit": h.counit, "antipode": h.antipode}
    maps[name] = bumped(maps[name], col, row, Q(2, 3))
    report = check_hopf(make_hopf(h.algebra, antipode_inv=h.antipode_inv, **maps))
    assert failures(report)[axiom] == witness


@pytest.mark.parametrize(
    "first, axiom, other",
    [
        (False, "right_colinearity", "left_colinearity"),
        (True, "left_colinearity", "right_colinearity"),
    ],
    ids=["right_colinearity", "left_colinearity"],
)
def test_colinearity_mutation_reports_axiom_and_witness(first, axiom, other):
    """Scaling the e0 entries on one leg of the golden input's orbit
    connection by 5/7 breaks the colinearity law that reads that leg's
    coaction, first at e0, and keeps the other."""
    c, ell = nonfree_orbit_connection()
    found = failures(check_strong_connection(c, leg_scaled(c, ell, first, 0, Q(5, 7))))
    assert found[axiom] == (0,)
    assert other not in found


def test_splitting_mutation_reports_axiom_and_witness():
    """On the free orbit, 5/7·ℓ stays colinear and stops splitting, first
    at e0.  (On the golden input no map splits, since the lifted canonical
    map misses 1⊗e0 at the fixed point.)"""
    c, ell = free_orbit_connection()
    scaled = LinearMap.from_sparse_columns(
        ell.source, ell.target, [{r: Q(5, 7) * v for r, v in col.items()} for col in ell.cols]
    )
    assert failures(check_strong_connection(c, scaled)) == {
        "splitting": (0,),
        "counit_product": (0,),
    }


# ---------------------------------------------------------------- Fraction reference


@cache
def chain_fusions() -> tuple[ComoduleAlgebra, ...]:
    """The O(Z2) m=2 and H4-on-itself m=1 fusions: on the chain each
    splits into several parts."""
    return tuple(
        build_equivariant_fusion(chain_interval(m), inner).comodule
        for inner, m in ((regular_comodule(2), 2), (self_coaction(sweedler_h4()), 1))
    )


@cache
def pool() -> tuple:
    """(comodule, connection) pairs: every Z2 and Z3 action on up to four
    points, H4 and kS3 coacting on themselves, the two chain fusions, and
    the golden input with the orbit connection.  Without a connection the
    map is zero."""
    comodules = [
        fun_comodule(gset)
        for n in (2, 3)
        for size in range(1, 5)
        for gset in cyclic_actions(n, size)
    ]
    comodules += [self_coaction(h) for h in (sweedler_h4(), group_hopf(FiniteGroup.symmetric(3)))]
    comodules += chain_fusions()
    out = []
    for c in comodules:
        found = solve_strong_connection(c)
        if isinstance(found, Infeasibility):
            sq = c.algebra.space.tensor(c.algebra.space)
            ell = LinearMap.from_sparse_columns(c.hopf.space, sq, [{}] * c.hopf.dim)
        else:
            ell = found.map
        out.append((c, ell))
    out.append(nonfree_orbit_connection())
    return tuple(out)


def _table_bumped(a: FDAlgebra, i: int, j: int, k: int, delta) -> FDAlgebra:
    table = [[dict(prod) for prod in row] for row in a.table]
    table[i][j][k] = table[i][j].get(k, 0) + delta
    return FDAlgebra.from_structure(a.space, table, ref.dense(a.unit, a.dim))


def _unit_bumped(a: FDAlgebra, i: int, delta) -> FDAlgebra:
    unit = list(ref.dense(a.unit, a.dim))
    unit[i] += delta
    return FDAlgebra.from_structure(a.space, a.table, unit)


PLACES = (
    "p_table",
    "p_unit",
    "h_table",
    "h_unit",
    "coproduct",
    "counit",
    "antipode",
    "coaction",
    "connection",
)


@st.composite
def perturbed(draw):
    """A pool entry with one entry of one structure map moved by a
    rational amount: a table constant or unit entry of P or H, an entry
    of Δ, ε or S, of the coaction, or of the connection."""
    c, ell = draw(st.sampled_from(pool()))
    delta = draw(st.sampled_from((Q(2, 3), Q(-2, 3), Q(5, 7), Q(-3), Q(1, 2))))
    p, h = c.algebra, c.hopf
    dp, dh = p.dim, h.dim
    where = draw(st.sampled_from(PLACES))

    def index(n):
        return draw(st.integers(0, n - 1))

    hopf_maps = {"coproduct": h.coproduct, "counit": h.counit, "antipode": h.antipode}
    h_alg, coaction = h.algebra, c.coaction
    if where == "p_table":
        p = _table_bumped(p, index(dp), index(dp), index(dp), delta)
    elif where == "p_unit":
        p = _unit_bumped(p, index(dp), delta)
    elif where == "h_table":
        h_alg = _table_bumped(h_alg, index(dh), index(dh), index(dh), delta)
    elif where == "h_unit":
        h_alg = _unit_bumped(h_alg, index(dh), delta)
    elif where == "coaction":
        coaction = bumped(coaction, index(dp), index(dp * dh), delta)
    elif where == "connection":
        ell = bumped(ell, index(dh), index(dp * dp), delta)
    else:
        f = hopf_maps[where]
        hopf_maps[where] = bumped(f, index(f.source.dim), index(f.target.dim), delta)
    hopf = make_hopf(h_alg, antipode_inv=h.antipode_inv, **hopf_maps)
    return ComoduleAlgebra(p, hopf, coaction), ell


@settings(max_examples=150)
@given(perturbed())
def test_integer_batteries_match_the_fraction_reference(case):
    """ok, failure names, messages and witnesses, in order."""
    c, ell = case
    assert check_algebra(c.algebra) == ref.check_algebra(c.algebra)
    assert check_hopf(c.hopf) == ref.check_hopf(c.hopf)
    assert check_comodule(c) == ref.check_comodule(c)
    assert connection_unital(c, ell) == ref.connection_unital(c, ell)
    for unital in (False, True):
        assert check_strong_connection(c, ell, unital) == ref.check_strong_connection(
            c, ell, unital
        )


# ---------------------------------------------------------------- parts


def parts(c: ComoduleAlgebra) -> list[int]:
    """The parts that ``check_comodule`` splits P into: i and j of each
    nonempty e_i·e_j, and each e_i with the P-legs of δ(e_i)."""
    dh = c.hopf.dim
    return components(
        c.algebra.dim,
        (
            [i, *(j for j, prod in enumerate(row) if prod), *(k // dh for k in col)]
            for i, (row, col) in enumerate(zip(c.algebra.table, c.coaction.cols))
        ),
    )


def coaction_bumps(c: ComoduleAlgebra):
    """c with δ(e_i) moved by 2/3 on the leg e_p ⊗ h_0, for each i and the
    first p in a part other than that of i."""
    part = parts(c)
    for i in range(c.algebra.dim):
        p = next((p for p, q in enumerate(part) if q != part[i]), None)
        if p is not None:
            moved = bumped(c.coaction, i, p * c.hopf.dim, Q(2, 3))
            yield ComoduleAlgebra(c.algebra, c.hopf, moved)


@pytest.mark.parametrize("index", [0, 1], ids=["z2-m2", "h4-m1"])
def test_a_coaction_leg_in_another_part_is_reported_as_the_reference_reports_it(index):
    """On the chain fusions, a leg of δ(e_i) moved into another part joins
    the two parts; the report, first witness included, is the
    reference's."""
    c = chain_fusions()[index]
    assert len(set(parts(c))) > 1
    reports = [check_comodule(moved) for moved in coaction_bumps(c)]
    assert len(reports) == c.algebra.dim
    assert not any(report.ok for report in reports)
    assert reports == [ref.check_comodule(moved) for moved in coaction_bumps(c)]


def test_a_fusion_over_the_upper_triangular_base_matches_the_fraction_reference():
    """O(Z2) fused over T2: the parts are coarser than over the chain 0..2,
    which has as many points as T2 has dimensions, and the restricted
    algebra, the comodule battery and that battery on every coaction
    entry moved by 2/3 are those of the reference."""
    ef = build_equivariant_fusion(upper_triangular_base(), regular_comodule(2))
    c = ef.comodule
    assert len(set(parts(c))) < len(set(parts(chain_fusions()[0])))
    expected = ref.subalgebra_from_subspace(ef.ambient, ef.carrier, "ef")
    assert subalgebra_from_subspace(ef.ambient, ef.carrier, "ef") == expected
    assert c.algebra == expected.algebra
    report = check_comodule(c)
    assert report.ok and report == ref.check_comodule(c)
    dp, dh = c.algebra.dim, c.hopf.dim
    for i in range(dp):
        for row in range(dp * dh):
            moved = ComoduleAlgebra(c.algebra, c.hopf, bumped(c.coaction, i, row, Q(2, 3)))
            assert check_comodule(moved) == ref.check_comodule(moved)
