"""The integer-scaled axiom batteries: each failure path on a rescaled
input, and every report equal to the ``Fraction`` reference in
``dense_reference``.

The rescaled inputs have structure constants with denominators other
than 1, so a target compared with the wrong power of the common
denominator would fail on them, which inputs with constants 0 and ±1
cannot show.
"""

import json
import sys
from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from fusionalg import comodule as comodule_module
from fusionalg.algebra import (
    AlgebraHom,
    FDAlgebra,
    check_algebra,
    check_hom,
    function_algebra,
    scalar_algebra,
    subalgebra_from_subspace,
)
from fusionalg.classical import fun_comodule
from fusionalg.comodule import (
    ComoduleAlgebra,
    check_comodule,
    check_strong_connection,
    coinvariants,
    connection_unital,
    solve_strong_connection,
)
from fusionalg.fusion import (
    build_equivariant_fusion,
    build_fusion,
    chain_interval,
    pullback_identification,
)
from fusionalg.groups import FiniteGroup, FiniteGSet, cyclic_actions
from fusionalg.hopf import check_hopf, group_hopf, make_hopf
from fusionalg.linalg import Infeasibility, LinearMap, components
from fusionalg.serialize import comodule_from_obj, sparse_map_from_obj, verify_certificate
from test_comodule import (
    RESCALED,
    _rescaled_algebra,
    _rescaled_map,
    _squares,
    rescaled_comodule,
)
from test_fusion import regular_comodule, self_coaction, sweedler_h4, upper_triangular_base

Q = Fraction
GOLDEN = Path(__file__).parent / "golden" / "comodule_rescaled_nonfree_z2.json"
REFS = sorted((Path(__file__).parents[1] / "perfbench" / "refs").glob("*.json"))


def golden() -> ComoduleAlgebra:
    """O(Z2) on one free orbit and one fixed point, in a rescaled basis."""
    return comodule_from_obj(json.loads(GOLDEN.read_text()))


def bumped(f: LinearMap, col: int, row: int, delta) -> LinearMap:
    """f with ``delta`` added to the entry at (row, col)."""
    cols = ref.fcols(f)
    cols[col][row] = cols[col].get(row, 0) + delta
    return LinearMap.from_sparse_columns(f.source, f.target, cols)


def leg_scaled(c: ComoduleAlgebra, ell: LinearMap, first: bool, index: int, factor):
    """ℓ with its entries at e_index on the first (or second) tensor leg
    multiplied by ``factor``: a linear map on one leg keeps the law that
    only reads the other leg's coaction."""
    dp = c.algebra.dim
    cols = []
    for col in ref.fcols(ell):
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
        ell.source, ell.target, [{r: Q(5, 7) * v for r, v in col.items()} for col in ref.fcols(ell)]
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
    table = ref.ftable(a)
    table[i][j][k] = table[i][j].get(k, 0) + delta
    return FDAlgebra.from_structure(a.space, table, ref.dense(ref.funit(a), a.dim))


def _unit_bumped(a: FDAlgebra, i: int, delta) -> FDAlgebra:
    unit = list(ref.dense(ref.funit(a), a.dim))
    unit[i] += delta
    return FDAlgebra.from_structure(a.space, ref.ftable(a), unit)


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


# ---------------------------------------------------------------- algebra maps


@cache
def hom_cases() -> dict[str, AlgebraHom]:
    """Algebra maps of every kind the library checks: subalgebra
    inclusions (coinvariants, fusion carriers), the end characters of a
    chain, the pullback glue, and a map between function algebras in
    rescaled bases, whose map and target table have denominators."""
    cases = {}
    for name, c in (("regular-z3", regular_comodule(3)), ("h4", self_coaction(sweedler_h4()))):
        w = coinvariants(c)
        cases[f"coinvariants-{name}"] = AlgebraHom(w.algebra, c.algebra, w.inclusion)
    fusion = build_fusion(chain_interval(2), function_algebra(2), function_algebra(3))
    cases["fusion-carrier"] = AlgebraHom(fusion.algebra, fusion.ambient, fusion.inclusion)
    ef = build_equivariant_fusion(chain_interval(1), self_coaction(sweedler_h4()))
    cases["equivariant-carrier"] = AlgebraHom(ef.comodule.algebra, ef.ambient, ef.inclusion)
    base = chain_interval(3)
    for end in ("end_zero", "end_one"):
        cases[end] = AlgebraHom(base.algebra, scalar_algebra(), getattr(base, end))
    glue = pullback_identification(regular_comodule(2), 1, 1)
    cases["pullback-glue"] = AlgebraHom(glue.fiber.comodule.algebra, glue.fusion.comodule.algebra, glue.glue)
    scales = (Q(5, 2), Q(1, 3), Q(-4))
    a = function_algebra(3)
    rescaled = _rescaled_algebra(a, scales)
    # e_i = e'_i / s_i
    back = LinearMap.from_sparse_columns(a.space, a.space, [{i: 1 / s} for i, s in enumerate(scales)])
    assert rescaled.den != 1 and back.den != 1
    cases["rescaled"] = AlgebraHom(a, rescaled, back)
    return cases


HOM_CASES = [
    "coinvariants-h4",
    "coinvariants-regular-z3",
    "end_one",
    "end_zero",
    "equivariant-carrier",
    "fusion-carrier",
    "pullback-glue",
    "rescaled",
]


@pytest.mark.parametrize("name", HOM_CASES)
def test_check_hom_matches_the_fraction_reference(name):
    """The whole report, witnesses included, is the reference's on each
    map and on the map with one entry, first of column 0 or of the last
    column, moved by 2/3; each moved map fails."""
    assert sorted(hom_cases()) == HOM_CASES
    hom = hom_cases()[name]
    report = check_hom(hom)
    assert report.ok and report == ref.check_hom(hom)
    f = hom.map
    for col in (0, f.source.dim - 1):
        row = next(iter(f.cols[col]), 0)
        moved = AlgebraHom(hom.source, hom.target, bumped(f, col, row, Q(2, 3)))
        report = check_hom(moved)
        assert not report.ok and report == ref.check_hom(moved)


@pytest.mark.parametrize(
    "name, m_lower, m_upper",
    [("regular-z3", 1, 1), ("regular-z3", 1, 2), ("rescaled-z2", 1, 1)],
)
def test_pullback_glue_matches_the_fraction_reference(name, m_lower, m_upper):
    """The glue composed from the halves' integer inclusions is the map
    the ``Fraction`` loop builds; the rescaled O(Z2) has halves whose
    carriers are over a ``den`` other than 1."""
    if name == "rescaled-z2":
        gset = FiniteGSet.regular(FiniteGroup.cyclic(2))
        inner = rescaled_comodule(fun_comodule(gset), (Q(2, 3), Q(5, 7)), (Q(3, 2), Q(1, 5)))
    else:
        inner = regular_comodule(3)
    pb = pullback_identification(inner, m_lower, m_upper)
    if name == "rescaled-z2":
        assert (pb.lower.carrier.den, pb.upper.carrier.den) == (15, 225)
    assert pb.glue == ref.pullback_glue(pb)


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


@cache
def t2_fusion() -> ComoduleAlgebra:
    """O(Z2) fused over T2, which is one part."""
    return build_equivariant_fusion(upper_triangular_base(), regular_comodule(2)).comodule


def reindexed(c: ComoduleAlgebra, perm: list[int]) -> ComoduleAlgebra:
    """c with basis vector e_i of P renamed e_perm[i]."""
    p, dh = c.algebra, c.hopf.dim
    n = p.dim
    table = [[{}] * n for _ in range(n)]
    for i, row in enumerate(ref.ftable(p)):
        for j, prod in enumerate(row):
            table[perm[i]][perm[j]] = {perm[k]: v for k, v in prod.items()}
    cols = [{}] * n
    for i, col in enumerate(ref.fcols(c.coaction)):
        cols[perm[i]] = {perm[k // dh] * dh + k % dh: v for k, v in col.items()}
    unit = [Q(0)] * n
    for i, v in ref.funit(p).items():
        unit[perm[i]] = v
    coaction = LinearMap.from_sparse_columns(c.coaction.source, c.coaction.target, cols)
    return ComoduleAlgebra(FDAlgebra.from_structure(p.space, table, unit), c.hopf, coaction)


def table_bumped(c: ComoduleAlgebra, *pairs) -> ComoduleAlgebra:
    """c with the first constant of each nonempty product e_i·e_j of
    ``pairs`` moved by 2/3."""
    p = c.algebra
    for i, j in pairs:
        p = _table_bumped(p, i, j, next(iter(p.table[i][j])), Q(2, 3))
    return ComoduleAlgebra(p, c.hopf, c.coaction)


def breaking_pairs(c: ComoduleAlgebra) -> list[tuple[int, int]]:
    """In each part, the first two and the last two nonempty products
    e_i·e_j whose moved constant breaks multiplicativity in the
    reference."""
    part = parts(c)
    by_part: dict[int, list] = {}
    for i, row in enumerate(c.algebra.table):
        for j, prod in enumerate(row):
            if prod and "coaction_multiplicative" in ref.check_comodule(
                table_bumped(c, (i, j))
            ).axioms_failed():
                by_part.setdefault(part[i], []).append((i, j))
    return sorted({pair for pairs in by_part.values() for pair in (*pairs[:2], *pairs[-2:])})


FUSIONS = {
    "z2-m2": lambda: chain_fusions()[0],
    "h4-m1": lambda: chain_fusions()[1],
    # the parts {0, 1}, {2, 3}, … of the O(Z2) m=2 fusion become {0, 4}, {1, 5}, …
    "z2-m2-interleaved": lambda: reindexed(chain_fusions()[0], [0, 4, 1, 5, 2, 6, 3, 7]),
    "t2": t2_fusion,
}


@pytest.mark.parametrize("which", list(FUSIONS))
def test_the_first_multiplicativity_failure_is_that_of_a_scan_of_every_pair(which):
    """Two table constants moved, each of which alone breaks
    multiplicativity, in two parts of a chain fusion or at two pairs of
    the one part over T2: the parts stay, and ``check_comodule``, which
    scans only the pairs inside a part, gives the report, first failure
    included, of the reference's scan of every pair in lexicographic
    order.  (Two moves can also cancel, as when both idempotents of one
    orbit are scaled alike.)"""
    c = FUSIONS[which]()
    part = parts(c)
    failing = []
    for x, y in combinations(breaking_pairs(c), 2):
        moved = table_bumped(c, x, y)
        assert parts(moved) == part
        report = check_comodule(moved)
        assert report == ref.check_comodule(moved)
        if "coaction_multiplicative" in report.axioms_failed():
            failing.append(part[x[0]] != part[y[0]])
    if which == "t2":
        assert len(set(part)) == 1 and len(failing) > 1
    else:
        assert sum(failing) > 1


def test_the_first_multiplicativity_failure_follows_the_index_order_across_parts():
    """In the H4-on-itself m=1 fusion with its basis reordered so that the
    parts {0, 1, 4, 5} and {2, 3, 6, 7} interleave, e_0·e_1 moved by
    2/3·e_0 first breaks multiplicativity at (5, 1), and e_2·e_2 moved by
    2/3·e_2 at (2, 6).  Moved together, the first failure is (2, 6), as
    in a scan of every pair, not (5, 1), the first in the part of e_0."""
    c = reindexed(chain_fusions()[1], [0, 4, 1, 5, 2, 6, 3, 7])
    assert parts(c) == [0, 0, 2, 2, 0, 0, 2, 2]
    first = _table_bumped(c.algebra, 0, 1, 0, Q(2, 3))
    second = _table_bumped(c.algebra, 2, 2, 2, Q(2, 3))
    both = _table_bumped(first, 2, 2, 2, Q(2, 3))
    witnesses = []
    for algebra in (first, second, both):
        moved = ComoduleAlgebra(algebra, c.hopf, c.coaction)
        assert parts(moved) == parts(c)
        report = check_comodule(moved)
        assert report == ref.check_comodule(moved)
        witnesses.append(report.failures[0].witness)
    assert witnesses == [(5, 1), (2, 6), (2, 6)]


def test_multiplicativity_is_checked_only_inside_a_part():
    """On the O(Z4) m=7 fusion ``check_comodule`` calls ``multiplicative``
    for the 416 pairs inside a part, not for all 10,816 pairs."""
    c = build_equivariant_fusion(chain_interval(7), regular_comodule(4)).comodule
    assert c.algebra.dim**2 == 10_816
    calls = []

    def count(frame, event, arg):
        code = frame.f_code
        if event == "call" and code.co_name == "multiplicative":
            calls.append(code.co_filename)

    sys.setprofile(count)
    try:
        report = check_comodule(c)
    finally:
        sys.setprofile(None)
    assert report.ok
    assert calls == [comodule_module.__file__] * 416


def lifted_canonical(c: ComoduleAlgebra) -> LinearMap:
    """(m⊗id)∘(id⊗δ): P⊗P -> P⊗H, whose kernel splitting cannot see."""
    p, h = c.algebra, c.hopf
    sq = p.space.tensor(p.space)
    mult = LinearMap.from_sparse_columns(sq, p.space, [prod for row in p.table for prod in row], p.den)
    ident_p, ident_h = LinearMap.identity(p.space), LinearMap.identity(h.space)
    return mult.kron(ident_h).compose(ident_p.kron(c.coaction))


def connection_mutation(c: ComoduleAlgebra, ell: LinearMap, kind: str) -> LinearMap:
    """ℓ broken in one of three ways: 5/7·ℓ, colinear both ways, breaks
    only splitting (and counit_product); adding 2/3 of a vector in the
    kernel of the lifted canonical map to the last column keeps splitting
    and breaks right colinearity; adding 5/7·1⊗1 as well breaks both."""
    dp, last = c.algebra.dim, c.hopf.dim - 1
    cols = ref.fcols(ell)
    if kind == "splitting":
        cols = [{r: Q(5, 7) * v for r, v in col.items()} for col in cols]
    else:
        added = {r: Q(2, 3) * v for r, v in ref.fbasis(lifted_canonical(c).kernel())[0].items()}
        if kind == "both":
            unit = ref.funit(c.algebra)
            for i, x in unit.items():
                for j, y in unit.items():
                    added[i * dp + j] = added.get(i * dp + j, 0) + Q(5, 7) * x * y
        for r, v in added.items():
            cols[last][r] = cols[last].get(r, 0) + v
    return LinearMap.from_sparse_columns(ell.source, ell.target, cols)


# failures named at the parent of the change that forms (id⊗δ)∘ℓ once per column
CONNECTION_MUTATIONS = [
    ("z2-m2", "splitting", {"splitting": (0,), "counit_product": (0,)}),
    ("z2-m2", "right", {"right_colinearity": (0,), "left_colinearity": (0,)}),
    (
        "z2-m2",
        "both",
        {
            "right_colinearity": (0,),
            "left_colinearity": (0,),
            "splitting": (1,),
            "counit_product": (1,),
        },
    ),
    ("h4-m1", "splitting", {"splitting": (0,), "counit_product": (0,)}),
    ("h4-m1", "right", {"right_colinearity": (3,)}),
    ("h4-m1", "both", {"right_colinearity": (3,), "splitting": (3,), "counit_product": (3,)}),
]


@pytest.mark.parametrize(
    "which, kind, expected", CONNECTION_MUTATIONS, ids=[f"{w}-{k}" for w, k, _ in CONNECTION_MUTATIONS]
)
def test_connection_mutations_name_each_failing_axiom_and_column(which, kind, expected):
    """A solved connection of a chain fusion broken so that only splitting,
    only right colinearity or both fail: every failing axiom is named with
    its first column, as in the reference."""
    c = chain_fusions()[["z2-m2", "h4-m1"].index(which)]
    ell = solve_strong_connection(c).map
    assert check_strong_connection(c, ell).ok
    moved = connection_mutation(c, ell, kind)
    report = check_strong_connection(c, moved)
    assert failures(report) == expected
    assert report == ref.check_strong_connection(c, moved)


def test_no_battery_writes_into_a_shared_empty_vector(monkeypatch):
    """The tables that ``tensor_algebra`` and ``subalgebra_from_subspace``
    build hold their empty entries as one shared ``{}``, which scaling
    the table keeps.  Every battery, the fusion builds and the replay of
    each of the nine benchmark references leave each such ``{}`` empty."""
    original = FDAlgebra.__post_init__
    shared = {}

    def recording(self):
        original(self)
        empties = Counter(id(prod) for row in self.table for prod in row if not prod)
        for row in self.table:
            shared.update((id(prod), prod) for prod in row if not prod and empties[id(prod)] > 1)

    monkeypatch.setattr(FDAlgebra, "__post_init__", recording)
    for path in REFS:
        cert = json.loads(path.read_text())
        scn, result = cert["scenario"], cert["result"]
        com = comodule_from_obj(scn["inputs"]["comodule"])
        assert check_algebra(com.algebra).ok and check_hopf(com.hopf).ok
        assert check_comodule(com).ok
        sq = com.algebra.space.tensor(com.algebra.space)
        for key in ("connection", "input_connection"):
            if result.get(key) is not None:
                ell = sparse_map_from_obj(result[key], com.hopf.space, sq, key)
                assert check_strong_connection(com, ell).ok
                connection_unital(com, ell)
        assert verify_certificate(cert) == (True, [])
    assert shared and all(vec == {} for vec in shared.values())
