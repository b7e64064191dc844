"""Comodule algebras: coinvariants, the canonical map, and strong connections."""

import json
import random
import tracemalloc
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest

import dense_reference as ref
from fusionalg import comodule
from fusionalg.algebra import FDAlgebra, function_algebra, subalgebra_from_subspace
from fusionalg.classical import fun_comodule
from fusionalg.comodule import (
    ComoduleAlgebra,
    _times_first_leg,
    balanced_tensor,
    canonical_map,
    check_comodule,
    check_strong_connection,
    coinvariants,
    connection_system,
    connection_unital,
    delta_L,
    is_principal,
    solve_strong_connection,
    translation_inverse,
    trivial_coaction,
)
from fusionalg.fusion import build_equivariant_fusion, chain_interval
from fusionalg.groups import FiniteGroup, FiniteGSet, cyclic_actions
from fusionalg.hopf import function_hopf, group_hopf, make_hopf, trivial_hopf
from fusionalg.linalg import (
    Infeasibility,
    LinearMap,
    LinearSystem,
    Space,
    Subspace,
    common_den,
    linear_combination,
    tensor_vec,
)
from fusionalg.serialize import comodule_from_obj, comodule_to_obj, gset_from_obj
from test_fusion import self_coaction, sweedler_h4
from test_linalg import assert_matches_parent_elimination

Q = Fraction


def regular_comodule(n: int) -> ComoduleAlgebra:
    return fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(n)))


def two_orbit_comodule(n: int) -> ComoduleAlgebra:
    g = FiniteGroup.cyclic(n)
    gset = FiniteGSet.disjoint_union(FiniteGSet.regular(g), FiniteGSet.regular(g))
    return fun_comodule(gset)


def regular_closed_form_connection(n: int) -> LinearMap:
    """For functions on the regular action: ℓ(δ_g) = Σ_h δ_h ⊗ δ_{hg}."""
    g = FiniteGroup.cyclic(n)
    cols = []
    for a in range(n):
        col = [Q(0)] * (n * n)
        for h in range(n):
            col[h * n + g.mul(h, a)] = Q(1)
        cols.append(tuple(col))
    space = Space.of_dim(n, "h")
    com = regular_comodule(n)
    return LinearMap.from_columns(
        com.hopf.space, com.algebra.space.tensor(com.algebra.space), cols
    )


def free_closed_form_connection(com: ComoduleAlgebra, gset: FiniteGSet) -> LinearMap:
    """For functions on any free action: ℓ(δ_g) = Σ_z δ_z ⊗ δ_{z·g}."""
    n, size = gset.group.order, gset.size
    cols = []
    for a in range(n):
        col = [Q(0)] * (size * size)
        for z in range(size):
            col[z * size + gset.apply(z, a)] = Q(1)
        cols.append(tuple(col))
    return LinearMap.from_columns(
        com.hopf.space, com.algebra.space.tensor(com.algebra.space), cols
    )


def test_trivial_coaction_passes_axioms():
    h = function_hopf(FiniteGroup.cyclic(2))
    c = trivial_coaction(function_algebra(3), h)
    report = check_comodule(c)
    assert report.ok, report.failures


def test_check_comodule_flags_broken_coaction():
    c = regular_comodule(2)
    rows = [list(r) for r in c.coaction.rows]
    rows[0][0] += Q(1)
    broken = ComoduleAlgebra(
        c.algebra,
        c.hopf,
        LinearMap(c.coaction.source, c.coaction.target, tuple(map(tuple, rows))),
    )
    report = check_comodule(broken)
    assert not report.ok
    known = {
        "coaction_multiplicative",
        "coaction_unital",
        "coaction_coassociative",
        "coaction_counital",
    }
    assert set(report.axioms_failed()) <= known
    assert report.axioms_failed()


def test_coinvariants_of_trivial_coaction_is_everything():
    h = function_hopf(FiniteGroup.cyclic(2))
    p = function_algebra(3)
    c = trivial_coaction(p, h)
    wit = coinvariants(c)
    assert wit.subspace == Subspace.full(p.space)
    assert wit.unital


def test_coinvariants_of_regular_action_are_constants():
    c = regular_comodule(3)
    wit = coinvariants(c)
    assert wit.algebra.dim == 1
    assert wit.subspace.coordinates(c.algebra.unit) is not None


def test_coinvariants_count_orbits():
    # functions constant on orbits: one free orbit of 2 and two fixed points
    z2 = FiniteGroup.cyclic(2)
    gset = FiniteGSet.disjoint_union(FiniteGSet.regular(z2), FiniteGSet.trivial(z2, 2))
    c = fun_comodule(gset)
    assert coinvariants(c).algebra.dim == 3
    assert coinvariants(two_orbit_comodule(2)).algebra.dim == 2


def test_balanced_tensor_dimensions():
    # over scalar coinvariants the balanced product is the full tensor square
    c = regular_comodule(2)
    bal = balanced_tensor(c)
    assert bal.space.dim == c.algebra.dim ** 2
    # over coinvariants equal to the whole algebra it collapses to the algebra
    h = function_hopf(FiniteGroup.cyclic(2))
    t = trivial_coaction(function_algebra(3), h)
    assert balanced_tensor(t).space.dim == 3


def test_lifted_canonical_closed_form():
    c = regular_comodule(2)
    p = c.algebra
    n = p.dim
    # the columns canonical_map descends: x⊗y sits at x·n + y
    lifted = ref.fcols(_times_first_leg(p, c.coaction))
    coaction, table = ref.fcols(c.coaction), ref.ftable(p)
    for i in range(n):
        for j in range(n):
            # x⊗y goes to x·y_(0) ⊗ y_(1)
            expect = [Q(0)] * (n * c.hopf.dim)
            for idx, v in coaction[j].items():
                y0, y1 = divmod(idx, c.hopf.dim)
                for u, w in table[i][y0].items():
                    expect[u * c.hopf.dim + y1] += w * v
            assert lifted[i * n + j] == ref.sparse(expect)


def test_canonical_map_bijective_iff_free():
    free = canonical_map(regular_comodule(3))
    assert free.bijective
    h = function_hopf(FiniteGroup.cyclic(2))
    fixed = canonical_map(trivial_coaction(function_algebra(1), h))
    assert not fixed.surjective


def test_delta_L_of_trivial_coaction():
    h = function_hopf(FiniteGroup.cyclic(2))
    p = function_algebra(2)
    c = trivial_coaction(p, h)
    dl = delta_L(c)
    for j in range(p.dim):
        expect = ref.tensor_vec(ref.dense(h.algebra.unit, h.dim), ref.basis_vec(p.dim, j))
        assert dl.cols[j] == ref.sparse(expect)


def test_delta_L_regular_closed_form():
    # δ_L(δ_x) = Σ_h δ_h ⊗ δ_{x·h}
    n = 3
    c = regular_comodule(n)
    g = FiniteGroup.cyclic(n)
    dl = delta_L(c)
    for x in range(n):
        col = dl.cols[x]
        for h in range(n):
            for y in range(n):
                expect = Q(1) if g.mul(x, h) == y else Q(0)
                assert col.get(h * n + y, Q(0)) == expect


def test_delta_L_counit_recovers_identity():
    for c in (regular_comodule(2), regular_comodule(3), two_orbit_comodule(2)):
        dl = delta_L(c)
        eps = c.hopf.counit
        ident = LinearMap.identity(c.algebra.space)
        collapsed = eps.kron(ident).compose(dl)
        assert collapsed.rows == ident.rows


def test_delta_L_requires_invertible_antipode():
    c = regular_comodule(2)
    from fusionalg.hopf import HopfAlgebra

    h = c.hopf
    crippled = HopfAlgebra(h.algebra, h.coproduct, h.counit, h.antipode, None)
    with pytest.raises(ValueError):
        delta_L(ComoduleAlgebra(c.algebra, crippled, c.coaction))


def test_regular_closed_form_connection_is_strong_and_unital():
    for n in (2, 3, 4):
        c = regular_comodule(n)
        ell = regular_closed_form_connection(n)
        report = check_strong_connection(c, ell, require_unital=True)
        assert report.ok, (n, report.failures)


def test_free_two_orbit_closed_form_is_strong_but_not_unital():
    g = FiniteGroup.cyclic(2)
    gset = FiniteGSet.disjoint_union(FiniteGSet.regular(g), FiniteGSet.regular(g))
    c = fun_comodule(gset)
    ell = free_closed_form_connection(c, gset)
    assert check_strong_connection(c, ell, require_unital=False).ok
    report = check_strong_connection(c, ell, require_unital=True)
    assert not report.ok
    assert report.axioms_failed() == ("unital",)
    # a unital connection nevertheless exists: the solver finds one
    conn = solve_strong_connection(c, require_unital=True)
    assert not isinstance(conn, Infeasibility)
    assert conn.unital


def test_solver_connection_verifies():
    c = regular_comodule(3)
    conn = solve_strong_connection(c)
    assert not isinstance(conn, Infeasibility)
    assert check_strong_connection(c, conn.map).ok
    # the relaxed witness also satisfies a unital re-check exactly when
    # its unit value happens to be 1⊗1
    assert conn.unital == (
        conn.map.apply(c.hopf.algebra.unit)
        == tensor_vec(c.algebra.unit, c.algebra.unit, c.algebra.dim)
    )


def test_solver_is_deterministic():
    c = two_orbit_comodule(2)
    first = solve_strong_connection(c)
    second = solve_strong_connection(c)
    assert first.map.rows == second.map.rows


def test_unital_witness_passes_relaxed_check():
    c = regular_comodule(2)
    conn = solve_strong_connection(c, require_unital=True)
    assert not isinstance(conn, Infeasibility)
    assert check_strong_connection(c, conn.map, require_unital=False).ok


def test_check_strong_connection_zero_map():
    c = regular_comodule(2)
    zero = LinearMap.from_sparse_columns(
        c.hopf.space, c.algebra.space.tensor(c.algebra.space), [{}] * c.hopf.dim
    )
    report = check_strong_connection(c, zero)
    assert not report.ok
    # the zero map is colinear but cannot split the counit
    assert "counit_product" in report.axioms_failed()


def test_check_strong_connection_shape_guard():
    c = regular_comodule(2)
    with pytest.raises(ValueError):
        check_strong_connection(c, LinearMap.identity(c.algebra.space))


def test_trivial_comodule_infeasible_with_farkas():
    h = function_hopf(FiniteGroup.cyclic(2))
    c = trivial_coaction(function_algebra(1), h)
    verdict = is_principal(c)
    assert not verdict.principal
    inf = verdict.infeasibility
    assert isinstance(inf, Infeasibility)
    system = connection_system(c, require_unital=False)
    coeffs, rhs = system.combine(inf.farkas)
    assert coeffs == {}
    assert rhs != 0
    assert rhs == inf.residual
    assert verdict.num_rows == len(system)
    assert verdict.num_unknowns == c.algebra.dim ** 2 * c.hopf.dim


def test_unital_requirement_adds_rows():
    c = regular_comodule(2)
    relaxed = connection_system(c, require_unital=False)
    strict = connection_system(c, require_unital=True)
    assert len(strict) > len(relaxed)


def test_translation_inverse_two_sided():
    for c in (regular_comodule(2), regular_comodule(3), two_orbit_comodule(2)):
        verdict = is_principal(c)
        assert verdict.principal
        can = canonical_map(c)
        t = translation_inverse(c, verdict.connection.map, can)
        assert t.compose(can.map).is_identity()
        assert can.map.compose(t).is_identity()


def test_translation_inverse_rejects_non_connection():
    c = regular_comodule(2)
    zero = LinearMap.from_sparse_columns(
        c.hopf.space, c.algebra.space.tensor(c.algebra.space), [{}] * c.hopf.dim
    )
    with pytest.raises(AssertionError):
        translation_inverse(c, zero)


def test_principal_iff_canonical_bijective_small_cases():
    h = function_hopf(FiniteGroup.cyclic(2))
    cases = [
        regular_comodule(2),
        two_orbit_comodule(2),
        trivial_coaction(function_algebra(1), h),
        trivial_coaction(function_algebra(2), h),
    ]
    for c in cases:
        assert is_principal(c).principal == canonical_map(c).bijective


def test_trivial_hopf_comodule_is_principal():
    c = trivial_coaction(function_algebra(3), trivial_hopf())
    assert check_comodule(c).ok
    assert coinvariants(c).algebra.dim == 3
    verdict = is_principal(c)
    assert verdict.principal
    assert canonical_map(c).bijective


def test_verdict_invariant_under_basis_permutation():
    c = regular_comodule(3)
    n = c.algebra.dim
    perm = [1, 2, 0]
    pm = LinearMap.from_sparse_columns(
        c.algebra.space, c.algebra.space, [{perm[j]: Q(1)} for j in range(n)]
    )
    pm_inv = pm.inverse()
    ident_h = LinearMap.identity(c.hopf.space)
    # e_perm[i]·e_perm[j] is the image of e_i·e_j
    table = [[{} for _ in range(n)] for _ in range(n)]
    for i, row in enumerate(c.algebra.table):
        for j, prod in enumerate(row):
            table[perm[i]][perm[j]] = {perm[k]: v for k, v in prod.items()}
    new_unit = pm.apply(c.algebra.unit)
    new_alg = FDAlgebra(c.algebra.space, table, dict(sorted(new_unit.items())))
    new_coaction = pm.kron(ident_h).compose(c.coaction).compose(pm_inv)
    permuted = ComoduleAlgebra(
        new_alg,
        c.hopf,
        LinearMap(c.coaction.source, c.coaction.target, new_coaction.rows),
    )
    assert check_comodule(permuted).ok
    v1, v2 = is_principal(c), is_principal(permuted)
    assert v1.principal == v2.principal
    assert v1.num_unknowns == v2.num_unknowns
    assert v1.num_rows == v2.num_rows


# ---------------------------------------------------------------- rescaled bases

def _rescaled_map(f: LinearMap, src, tgt) -> LinearMap:
    """The matrix of f in the bases e'_j = src[j]·e_j and e'_i = tgt[i]·e_i."""
    return LinearMap(f.source, f.target, tuple(
        tuple(v * src[j] / tgt[i] for j, v in enumerate(row))
        for i, row in enumerate(f.rows)
    ))


def _squares(a, b):
    return [x * y for x in a for y in b]


def _rescaled_algebra(a: FDAlgebra, s) -> FDAlgebra:
    """e'_i·e'_j = s_i·s_j·e_i·e_j, so the constant of e'_k gains s_i·s_j/s_k."""
    table = [
        [{k: v * s[i] * s[j] / s[k] for k, v in prod.items()} for j, prod in enumerate(row)]
        for i, row in enumerate(a.table)
    ]
    return FDAlgebra(a.space, table, {i: u / s[i] for i, u in a.unit.items()})


def rescaled_comodule(c: ComoduleAlgebra, p_scales, h_scales) -> ComoduleAlgebra:
    """The same comodule in the bases e'_i = p_scales[i]·e_i of P and
    h'_a = h_scales[a]·h_a of H, so its structure constants get the
    denominators of the scales."""
    h = c.hopf
    hopf = make_hopf(
        _rescaled_algebra(h.algebra, h_scales),
        _rescaled_map(h.coproduct, h_scales, _squares(h_scales, h_scales)),
        _rescaled_map(h.counit, h_scales, (Q(1),)),
        _rescaled_map(h.antipode, h_scales, h_scales),
    )
    return ComoduleAlgebra(
        _rescaled_algebra(c.algebra, p_scales),
        hopf,
        _rescaled_map(c.coaction, p_scales, _squares(p_scales, h_scales)),
    )


def nonfree_z2_comodule() -> ComoduleAlgebra:
    g = FiniteGroup.cyclic(2)
    return fun_comodule(
        FiniteGSet.disjoint_union(FiniteGSet.regular(g), FiniteGSet.trivial(g, 1))
    )


# Each comodule moved to a rescaled basis: how to build it, and the
# scales of the bases of P and of H.
RESCALED = {
    "nonfree-z2": (nonfree_z2_comodule, (Q(1, 3), Q(5, 2), Q(2, 7)), (Q(1), Q(3, 2))),
    "regular-z3": (
        lambda: regular_comodule(3), (Q(5, 2), Q(1, 3), Q(-4)), (Q(1), Q(2, 3), Q(7))
    ),
}


def rescaled(name: str) -> ComoduleAlgebra:
    make, p_scales, h_scales = RESCALED[name]
    return rescaled_comodule(make(), p_scales, h_scales)


def test_golden_rescaled_input_is_the_rescaled_nonfree_z2_set():
    """``tests/golden/comodule_rescaled_nonfree_z2.json`` is O(Z2) acting
    on one free orbit and one fixed point, in a rescaled basis."""
    path = Path(__file__).parent / "golden" / "comodule_rescaled_nonfree_z2.json"
    assert json.loads(path.read_text()) == comodule_to_obj(rescaled("nonfree-z2"))


@pytest.mark.parametrize("name", sorted(RESCALED))
def test_verdicts_survive_a_rescaled_basis(name):
    c, original = rescaled(name), RESCALED[name][0]()
    assert check_comodule(c).ok
    for unital in (False, True):
        system = connection_system(c, unital)
        assert any(scale != 1 for _, _, scale in ref.stored_rows(system))
        assert len(system) == len(connection_system(original, unital))
        outcome = solve_strong_connection(c, require_unital=unital)
        expected = solve_strong_connection(original, require_unital=unital)
        assert isinstance(outcome, Infeasibility) == isinstance(expected, Infeasibility)
        if isinstance(outcome, Infeasibility):
            coeffs, rhs = system.combine(outcome.farkas)
            assert coeffs == {} and rhs == outcome.residual != 0


def _structure_den(c: ComoduleAlgebra) -> int:
    """The common denominator of the structure maps a re-check reads."""
    h = c.hopf
    return common_den(c.coaction, c.left_coaction, h.coproduct, c.algebra, h.counit)[0]


def _scaled_columns(ell: LinearMap, factor) -> LinearMap:
    return LinearMap.from_sparse_columns(
        ell.source,
        ell.target,
        [{k: v * factor for k, v in col.items()} for col in ell.cols],
        ell.den,
    )


def _rescaled_connection(factor, moved: bool):
    """The solver's connection on the rescaled regular-z3 comodule times
    ``factor``, and with one entry moved by 2/3 when ``moved``."""
    c = rescaled("regular-z3")
    ell = _scaled_columns(solve_strong_connection(c).map, factor)
    if moved:
        cols = [dict(col) for col in ref.fcols(ell)]
        cols[1][min(cols[1])] += Q(2, 3)
        ell = LinearMap.from_sparse_columns(ell.source, ell.target, cols)
    return c, ell, factor == 1 and not moved


def _seeded_over_seven(make, seed: int):
    """A map with seeded entries in -3..3 over 7 on a comodule that has
    no connection."""
    c, rng = make(), random.Random(seed)
    dp, dh = c.algebra.dim, c.hopf.dim
    cols = [
        {r: rng.randint(-3, 3) for r in range(dp * dp) if rng.random() < 0.5} for _ in range(dh)
    ]
    sq = c.algebra.space.tensor(c.algebra.space)
    return c, LinearMap.from_sparse_columns(c.hopf.space, sq, cols, 7), False


# Maps H -> P (x) P over a denominator other than that of the structure
# maps, which is above 1: the solver's connection on the rescaled
# regular-z3 comodule times 1, 1/7 and 5/3, each also with one entry
# moved, and seeded maps over 7 on the rescaled comodules that have no
# connection.
OWN_SCALE_CASES = {
    **{
        f"regular-z3-times-{factor}{'-moved' * moved}": partial(_rescaled_connection, factor, moved)
        for factor in (Q(1), Q(1, 7), Q(5, 3))
        for moved in (False, True)
    },
    **{
        f"{name}-seeded-{seed}": partial(_seeded_over_seven, make, seed)
        for name, make in (
            (
                "golden-nonfree-z2",
                lambda: comodule_from_obj(_golden("comodule_rescaled_nonfree_z2")),
            ),
            ("rescaled-nonfree-z2", partial(rescaled, "nonfree-z2")),
        )
        for seed in range(3)
    },
}


@pytest.mark.parametrize("name", sorted(OWN_SCALE_CASES))
def test_a_re_check_at_the_map_s_own_scale_matches_the_reference(name):
    """ℓ is read over its own denominator and the structure maps over
    theirs: ok, failure names, messages and witnesses, in order, are
    those of the ``Fraction`` reference, with and without unitality."""
    c, ell, ok = OWN_SCALE_CASES[name]()
    assert _structure_den(c) > 1 and ell.den not in (1, _structure_den(c))
    for unital in (False, True):
        report = check_strong_connection(c, ell, unital)
        assert report == ref.check_strong_connection(c, ell, unital)
        assert connection_unital(c, ell) == ref.connection_unital(c, ell)
    assert check_strong_connection(c, ell).ok == ok


@pytest.mark.parametrize(
    "make",
    [nonfree_z2_comodule, partial(two_orbit_comodule, 2), *(partial(rescaled, n) for n in RESCALED)],
    ids=["nonfree-z2", "two-orbit-z2", *(f"rescaled-{n}" for n in RESCALED)],
)
def test_connection_rows_are_stored_as_their_fraction_form(make):
    """Every row of the integer-built connection system is the row that
    adding its rational form stores."""
    c = make()
    for unital in (False, True):
        system = connection_system(c, unital)
        for i in range(len(system)):
            again = LinearSystem(system.num_unknowns)
            again.add_row(*system.row_as_fractions(i))
            assert ref.stored_rows(again) == [system.row(i)]


@pytest.mark.parametrize(
    "make, principal",
    [(partial(regular_comodule, 3), True), (nonfree_z2_comodule, False)],
    ids=["principal", "refuted"],
)
def test_is_principal_builds_the_left_coaction_once(monkeypatch, make, principal):
    """The connection system and the re-check of its solution share one
    build of δ_L."""
    c = make()
    calls = []

    def counted(c):
        calls.append(c)
        return delta_L(c)

    monkeypatch.setattr(comodule, "delta_L", counted)
    assert is_principal(c).principal == principal
    assert len(calls) == 1


@pytest.mark.parametrize(
    "make",
    [partial(regular_comodule, 2), nonfree_z2_comodule, *(partial(rescaled, n) for n in RESCALED)],
    ids=["regular-z2", "nonfree-z2", *(f"rescaled-{n}" for n in RESCALED)],
)
def test_connection_unital_compares_with_one_tensor_one(make):
    """``connection_unital`` agrees with 1⊗1 written out densely, on the
    solver's connection and on one that misses the unit."""
    c = make()
    p_unit, h_unit = ref.dense(ref.funit(c.algebra), c.algebra.dim), ref.funit(c.hopf.algebra)
    expected = ref.sparse(ref.tensor_vec(p_unit, p_unit))
    outcome = solve_strong_connection(c, require_unital=True)
    ells = [] if isinstance(outcome, Infeasibility) else [outcome.map]
    target = c.algebra.space.tensor(c.algebra.space)
    ells.append(LinearMap.from_sparse_columns(c.hopf.space, target, [{0: Q(1)}] * c.hopf.dim))
    for ell in ells:
        assert connection_unital(c, ell) == (ref.apply(ell, h_unit) == expected)
    assert connection_unital(c, ells[0]) == (len(ells) == 2)


GOLDEN = Path(__file__).parent / "golden"


def _golden(name: str):
    return json.loads((GOLDEN / f"{name}.json").read_text())


def _counting_reads(monkeypatch, system) -> tuple[list[list[int]], list[int]]:
    """Make ``system`` record the index of every row it computes through
    ``LinearSystem.row``: returns a list that fills with the row indices
    of each decision pass, and one that fills with every index."""
    decide, row = LinearSystem._decide, LinearSystem.row
    passes, reads = [], []

    def counted_row(self, k):
        if self is system:
            reads.append(k)
        return row(self, k)

    def counted_decide(self):
        start = len(reads)
        try:
            return decide(self)
        finally:
            passes.append(reads[start:])

    monkeypatch.setattr(LinearSystem, "row", counted_row)
    monkeypatch.setattr(LinearSystem, "_decide", counted_decide)
    return passes, reads


def test_combine_computes_each_row_once(monkeypatch):
    """Re-checking the three Farkas multipliers of the golden
    ``comodule_rescaled_nonfree_z2`` refutation computes each of their
    rows once, for its scale and its entries both."""
    system = connection_system(comodule_from_obj(_golden("comodule_rescaled_nonfree_z2")), False)
    outcome = system.solve()
    assert isinstance(outcome, Infeasibility) and len(outcome.farkas) == 3
    _, reads = _counting_reads(monkeypatch, system)
    coeffs, rhs = system.combine(outcome.farkas)
    assert coeffs == {} and rhs
    assert reads == list(outcome.farkas)


@pytest.mark.parametrize(
    "make, row_index, component",
    [
        (lambda: comodule_from_obj(_golden("comodule_rescaled_nonfree_z2")), 45, 6),
        (lambda: fun_comodule(gset_from_obj(_golden("gset_nonfree_z4"))), 930, 50),
    ],
    ids=["comodule_rescaled_nonfree_z2", "gset_nonfree_z4"],
)
def test_refutation_reads_only_the_contradiction_component(
    monkeypatch, make, row_index, component
):
    """On the golden refutations, reading the Farkas multipliers after
    the decision pass computes only rows of the contradiction row's
    component, each at most once: 6 of the 46 rows up to the
    contradiction, and 50 of 931."""
    system = connection_system(make(), False)
    reached = system._reach([row_index], row_index)
    passes, reads = _counting_reads(monkeypatch, system)
    outcome = system.solve()
    assert isinstance(outcome, Infeasibility)
    assert outcome.row_index == row_index
    assert len(reached) == component
    [decided] = passes
    after = reads[len(decided):]
    assert set(after) <= set(reached) and len(after) == len(set(after))
    assert set(outcome.farkas) <= set(after)


def test_untracked_pass_reads_only_the_rows_reached_from_a_right_hand_side(monkeypatch):
    """On the O(Z3) m=2 fusion, the decision pass reads each row that
    shares unknowns, directly or through other rows, with a row whose
    right-hand side is not zero, once and in order, and no row of a
    homogeneous component; finding them computes no row, so the whole
    feasible solve computes only the rows it eliminates."""
    fusion = build_equivariant_fusion(chain_interval(2), regular_comodule(3))
    system = connection_system(fusion.comodule, False)
    seeds = [k for k, (_, rhs, _) in enumerate(ref.stored_rows(system)) if rhs]
    reached = system._reach(seeds, len(system) - 1)
    assert seeds and len(reached) < len(system)
    passes, reads = _counting_reads(monkeypatch, system)
    assert not isinstance(system.solve(), Infeasibility)
    assert passes == [reached]
    assert reads == reached


def _on_itself(h) -> ComoduleAlgebra:
    return ComoduleAlgebra(h.algebra, h, h.coproduct)


# Connection systems compared with their references: every Z2 and Z3
# action on up to four points, H4 and kS3 coacting on themselves, the
# rescaled goldens and the O(Z3) m=2 fusion.
REAL_SYSTEMS = {
    "corpus-gsets": lambda: [
        fun_comodule(gset)
        for n in (2, 3)
        for size in range(1, 5)
        for gset in cyclic_actions(n, size)
    ],
    "sweedler-h4": lambda: [_on_itself(sweedler_h4())],
    "kS3": lambda: [_on_itself(group_hopf(FiniteGroup.symmetric(3)))],
    "rescaled-goldens": lambda: [
        comodule_from_obj(_golden("comodule_rescaled_nonfree_z2")),
        *(rescaled(n) for n in RESCALED),
    ],
    "fusion-z3-m2": lambda: [
        build_equivariant_fusion(chain_interval(2), regular_comodule(3)).comodule
    ],
}


@pytest.mark.parametrize("name", sorted(REAL_SYSTEMS))
def test_connection_rows_match_the_row_by_row_build(name):
    """The stored rows, keys and key order included, are those of
    building each row on its own, with and without unitality."""
    for c in REAL_SYSTEMS[name]():
        for unital in (False, True):
            rows = ref.stored_rows(connection_system(c, unital))
            expected = ref.connection_rows(c, unital)
            assert rows == expected
            assert [list(coeffs) for coeffs, _, _ in rows] == [
                list(coeffs) for coeffs, _, _ in expected
            ]


@pytest.mark.parametrize("name", ["corpus-gsets", "sweedler-h4", "fusion-z3-m2"])
def test_connection_systems_solve_as_the_parent_elimination(name):
    """Solving a connection system gives the solution or refutation of
    the elimination that runs every row, with and without unitality;
    the unital rows join unknowns of otherwise homogeneous components to
    a right-hand side."""
    for c in REAL_SYSTEMS[name]():
        for unital in (False, True):
            assert_matches_parent_elimination(connection_system(c, unital))


def test_the_connection_system_holds_its_templates_not_its_rows():
    """The O(Z4) m=7 fusion's connection system has 261,248 rows; stored
    as blocks of shifted templates, with the index that finds the rows
    of an unknown built by a solve, it holds under 8 MB (as a list of
    row dicts it held about 90 MB)."""
    fusion = build_equivariant_fusion(chain_interval(7), regular_comodule(4)).comodule
    fusion.left_coaction  # cached on the comodule, not held by the system
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        system = connection_system(fusion, False)
        built = tracemalloc.get_traced_memory()[0] - before
        assert not isinstance(system.solve(), Infeasibility)
        solved = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(system) == 261_248
    assert built < solved < 8 * 2**20


# ---------------------------------------------------------------- the canonical map

# Free and non-free O(G)-sets with several orbits, Hopf algebras coacting
# on themselves (B = k, so no balanced relation survives), and a
# comodule over a rescaled basis.
CANONICAL_CASES = {
    "free-two-orbit-z3": lambda: two_orbit_comodule(3),
    "nonfree-z2": nonfree_z2_comodule,
    "nonfree-z4": lambda: fun_comodule(gset_from_obj(_golden("gset_nonfree_z4"))),
    "sweedler-h4": lambda: self_coaction(sweedler_h4()),
    "kS3": lambda: self_coaction(group_hopf(FiniteGroup.symmetric(3))),
    "golden-rescaled-nonfree-z2": lambda: comodule_from_obj(_golden("comodule_rescaled_nonfree_z2")),
}


@pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
def test_the_descended_map_factors_the_lifted_map(name):
    """descended∘project is ``killed.den`` times the lifted map on every
    basis vector of P⊗P, and project(e_p) at a pivot p is minus the
    killed row with pivot p, reindexed: the facts that make
    well-definedness enough for the canonical map to factor."""
    c = CANONICAL_CASES[name]()
    can = canonical_map(c)
    bal, descended = can.balanced, can.map
    killed, reps = bal.killed, bal.reps
    lifted = _times_first_leg(c.algebra, c.coaction)
    for j, col in enumerate(lifted.cols):
        image = linear_combination(descended.cols, bal.project({j: 1}))
        assert {k: v * lifted.den for k, v in image.items()} == {
            k: v * descended.den * killed.den for k, v in col.items()
        }
    for row, p in zip(killed.basis, killed.pivots):
        assert bal.project({p: 1}) == {reps.index(k): -v for k, v in row.items() if k != p}
    for r in reps:
        assert bal.project({r: 1}) == {reps.index(r): killed.den}


@pytest.mark.parametrize("name", sorted(CANONICAL_CASES))
def test_coinvariants_are_the_kernel_of_the_coaction_minus_the_unit_embedding(name):
    c = CANONICAL_CASES[name]()
    ker = c.coaction.sub(comodule._unit_embedding(c.algebra, c.hopf)).kernel()
    assert coinvariants(c) == subalgebra_from_subspace(c.algebra, ker, label_prefix="b")


def test_canonical_map_refuses_a_coaction_it_cannot_descend():
    """A coaction on k³ over O(Z2) that is no comodule but has unital
    coinvariants: the balanced relations do not die under the lifted
    map, and the canonical map says so."""
    p, h = function_algebra(3), function_hopf(FiniteGroup.cyclic(2))
    cols = [{0: 1, 1: 1}, {0: -1, 2: -1, 5: 1}, {0: 1, 2: 2, 3: 1, 4: 1}]
    c = ComoduleAlgebra(p, h, LinearMap.from_sparse_columns(p.space, p.space.tensor(h.space), cols))
    assert check_comodule(c).axioms_failed() == (
        "coaction_multiplicative", "coaction_coassociative", "coaction_counital"
    )
    coinv = coinvariants(c)
    assert coinv.unital and coinv.algebra.dim == 2
    with pytest.raises(AssertionError, match="^canonical map is not well defined on the balanced"):
        canonical_map(c)
