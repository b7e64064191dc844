"""Hopf algebras on function spaces and group rings, plus axiom checking."""

import sys
from fractions import Fraction

import pytest

from fusionalg import hopf as hopf_module
from fusionalg import linalg as linalg_module
from fusionalg.algebra import check_algebra
from fusionalg.groups import FiniteGroup
from fusionalg.hopf import (
    check_hopf,
    function_hopf,
    group_hopf,
    make_hopf,
    sweedler_legs,
    trivial_hopf,
)
from fusionalg.linalg import LinearMap, tensor_vec
from test_fusion import sweedler_h4

Q = Fraction


def corpus():
    """All groups of order at most 8 used as a standing test bed: cyclic
    1..8, the three non-cyclic abelian ones, and the smallest non-abelian."""
    groups = [FiniteGroup.cyclic(n) for n in range(1, 9)]
    z2 = FiniteGroup.cyclic(2)
    groups.append(FiniteGroup.direct_product(z2, z2))
    groups.append(FiniteGroup.direct_product(z2, FiniteGroup.cyclic(4)))
    groups.append(
        FiniteGroup.direct_product(z2, FiniteGroup.direct_product(z2, z2))
    )
    groups.append(FiniteGroup.symmetric(3))
    return groups


def mult_is_commutative(h) -> bool:
    t = h.algebra.table
    return all(t[i][j] == t[j][i] for i in range(h.dim) for j in range(h.dim))


def coproduct_is_cocommutative(h) -> bool:
    n, rows = h.dim, h.coproduct.rows
    return all(rows[a * n + b] == rows[b * n + a] for a in range(n) for b in range(n))


def test_corpus_passes_both_constructions():
    for g in corpus():
        for build in (function_hopf, group_hopf):
            h = build(g)
            report = check_hopf(h)
            assert report.ok, (g.names, build.__name__, report.failures)
            assert check_algebra(h.algebra).ok


def test_function_hopf_closed_form():
    g = FiniteGroup.symmetric(3)
    h = function_hopf(g)
    n = g.order
    # Δδ_c = Σ_{ab=c} δ_a⊗δ_b
    for c in range(n):
        col = h.coproduct.cols[c]
        for a in range(n):
            for b in range(n):
                expect = Q(1) if g.mul(a, b) == c else Q(0)
                assert col.get(a * n + b, Q(0)) == expect
    # ε(δ_c) = [c = e]  and  S(δ_c) = δ_{c⁻¹}
    for c in range(n):
        assert h.counit.cols[c] == ({0: Q(1)} if c == g.identity else {})
        assert h.antipode.cols[c] == {g.inv(c): Q(1)}


def test_group_hopf_closed_form():
    g = FiniteGroup.cyclic(4)
    h = group_hopf(g)
    n = g.order
    for c in range(n):
        assert h.coproduct.cols[c] == tensor_vec({c: Q(1)}, {c: Q(1)}, n)
        assert h.counit.cols[c] == {0: Q(1)}
        assert h.antipode.cols[c] == {g.inv(c): Q(1)}
    # the product is the group law on basis vectors
    for a in range(n):
        for b in range(n):
            assert h.algebra.table[a][b] == {g.mul(a, b): Q(1)}


def test_commutativity_and_cocommutativity():
    s3 = FiniteGroup.symmetric(3)
    fun = function_hopf(s3)
    grp = group_hopf(s3)
    assert mult_is_commutative(fun)
    assert not coproduct_is_cocommutative(fun)
    assert coproduct_is_cocommutative(grp)
    assert not mult_is_commutative(grp)
    # on an abelian group both constructions are commutative and cocommutative
    z6 = FiniteGroup.cyclic(6)
    for h in (function_hopf(z6), group_hopf(z6)):
        assert mult_is_commutative(h) and coproduct_is_cocommutative(h)


def test_antipode_squared_is_identity_on_corpus():
    """(Co)commutative Hopf algebras have involutive antipode; every corpus
    instance is one or the other."""
    for g in corpus():
        for build in (function_hopf, group_hopf):
            h = build(g)
            assert h.antipode.compose(h.antipode).is_identity()
            assert h.antipode_inv is not None
            assert h.antipode_inv.compose(h.antipode).is_identity()
            assert h.antipode.compose(h.antipode_inv).is_identity()


def test_trivial_hopf():
    h = trivial_hopf()
    assert h.dim == 1
    assert check_hopf(h).ok


def test_make_hopf_computes_missing_inverse():
    g = FiniteGroup.cyclic(3)
    src = function_hopf(g)
    rebuilt = make_hopf(src.algebra, src.coproduct, src.counit, src.antipode)
    assert rebuilt.antipode_inv is not None
    assert rebuilt.antipode_inv.rows == src.antipode_inv.rows


def test_make_hopf_singular_antipode_reported():
    g = FiniteGroup.cyclic(2)
    src = function_hopf(g)
    zero = LinearMap.from_sparse_columns(src.space, src.space, [{}] * src.dim)
    h = make_hopf(src.algebra, src.coproduct, src.counit, zero)
    assert h.antipode_inv is None
    report = check_hopf(h)
    assert not report.ok
    assert "antipode_bijective" in report.axioms_failed()


def test_make_hopf_shape_validation():
    g = FiniteGroup.cyclic(2)
    src = function_hopf(g)
    bad = LinearMap.from_sparse_columns(src.space, src.space, [{}] * src.dim)
    with pytest.raises(ValueError):
        make_hopf(src.algebra, bad, src.counit, src.antipode)


def test_check_hopf_flags_broken_coproduct():
    g = FiniteGroup.cyclic(3)
    src = function_hopf(g)
    rows = [list(r) for r in src.coproduct.rows]
    rows[0][0] += Q(1)
    broken = make_hopf(
        src.algebra,
        LinearMap(src.coproduct.source, src.coproduct.target, tuple(map(tuple, rows))),
        src.counit,
        src.antipode,
        antipode_inv=src.antipode_inv,
    )
    report = check_hopf(broken)
    assert not report.ok
    assert report.axioms_failed()


def test_check_hopf_flags_broken_counit():
    g = FiniteGroup.cyclic(3)
    src = function_hopf(g)
    rows = [list(src.counit.rows[0])]
    rows[0][1] += Q(1)
    broken = make_hopf(
        src.algebra,
        src.coproduct,
        LinearMap(src.counit.source, src.counit.target, tuple(map(tuple, rows))),
        src.antipode,
        antipode_inv=src.antipode_inv,
    )
    report = check_hopf(broken)
    assert not report.ok
    failed = set(report.axioms_failed())
    assert failed & {"counit_left", "counit_right", "counit_multiplicative", "counit_unital"}


def test_check_hopf_reports_both_laws_of_a_pair():
    """A failing left law does not hide the right one: kZ3 with S = id
    breaks both antipode laws, and O(Z3) with ε doubled both counit
    laws, each with its own first witness."""
    g = FiniteGroup.cyclic(3)
    kg = group_hopf(g)
    no_antipode = make_hopf(kg.algebra, kg.coproduct, kg.counit, LinearMap.identity(kg.space))
    failed = [(f.axiom, f.witness) for f in check_hopf(no_antipode).failures]
    assert failed == [("antipode_left", (1,)), ("antipode_right", (1,))]

    fun = function_hopf(g)
    doubled = LinearMap.from_sparse_columns(
        fun.space, fun.counit.target, [{k: 2 * v for k, v in c.items()} for c in fun.counit.cols]
    )
    report = check_hopf(make_hopf(fun.algebra, fun.coproduct, doubled, fun.antipode))
    failed = [(f.axiom, f.witness) for f in report.failures]
    assert failed[:2] == [("counit_left", (0,)), ("counit_right", (0,))]


@pytest.mark.parametrize(
    "build",
    [
        lambda: group_hopf(FiniteGroup.symmetric(3)),
        lambda: function_hopf(FiniteGroup.symmetric(3)),
        sweedler_h4,
    ],
    ids=["kS3", "O(S3)", "H4"],
)
def test_check_hopf_decides_each_law_in_one_accumulation(monkeypatch, build):
    """Coassociativity, the counit laws and multiplicativity each add
    both sides into one vector per basis vector or pair, and each
    antipode law applies m to its legs into one more, so these laws make
    no ``nonzero`` copy.  Every ``on_left``, ``on_right`` and
    ``tensor_mul`` call adds into a vector of its law, never into a
    structure vector of H."""
    h = build()
    n = h.dim
    laws = {"coassociative", "counital", "multiplicative", "antipode"}
    copied, nonzero = [], linalg_module.nonzero

    def recording(vec):
        frame, callers = sys._getframe(1), set()
        while frame.f_code.co_name != "check_hopf":
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        copied.append(callers & laws)
        return nonzero(vec)

    monkeypatch.setattr(linalg_module, "nonzero", recording)
    sums: dict[str, list] = {}
    for name in ("on_left", "on_right", "tensor_mul"):
        def counted(*args, original=getattr(hopf_module, name)):
            acc = original(*args)
            sums.setdefault(sys._getframe(1).f_code.co_name, []).append(acc)
            return acc

        monkeypatch.setattr(hopf_module, name, counted)
    assert check_hopf(h).ok
    assert copied and not any(copied)
    assert {law: len(accs) for law, accs in sums.items()} == {
        "coassociative": 2 * n,
        "counital": 2 * n,
        "multiplicative": 2 * n * n,
        "antipode": 4 * n,
    }
    assert {law: len({id(acc) for acc in accs}) for law, accs in sums.items()} == {
        "coassociative": n,
        "counital": 2 * n,
        "multiplicative": n * n,
        "antipode": 4 * n,
    }
    structure = [
        h.algebra.unit,
        *(prod for row in h.algebra.table for prod in row),
        *(col for f in (h.coproduct, h.counit, h.antipode) for col in f.cols),
    ]
    assert not {id(acc) for accs in sums.values() for acc in accs} & set(map(id, structure))


def test_sweedler_legs_recurrence():
    g = FiniteGroup.cyclic(4)
    for h in (function_hopf(g), group_hopf(g)):
        assert sweedler_legs(h, 1).is_identity()
        assert sweedler_legs(h, 2).rows == h.coproduct.rows
        ident = LinearMap.identity(h.space)
        for n in (2, 3):
            lhs = sweedler_legs(h, n + 1)
            rhs = sweedler_legs(h, n).kron(ident).compose(h.coproduct)
            assert lhs.rows == rhs.rows
    with pytest.raises(ValueError):
        sweedler_legs(function_hopf(g), 0)


def test_counit_kills_all_but_one_leg():
    """Applying the counit to the last leg of the iterated coproduct
    recovers the one-fewer-legs map."""
    h = function_hopf(FiniteGroup.symmetric(3))
    ident = LinearMap.identity(h.space)
    three = sweedler_legs(h, 3)
    collapse = ident.kron(ident).kron(h.counit)
    reduced = LinearMap(
        h.space,
        sweedler_legs(h, 2).target,
        collapse.compose(three).rows,
    )
    assert reduced.rows == sweedler_legs(h, 2).rows
