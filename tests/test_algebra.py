"""Finite-dimensional algebras: axiom checks, constructions, homs, subalgebras."""

import random
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import dense_reference as ref
from fusionalg import algebra as algebra_module
from fusionalg import linalg as linalg_module
from fusionalg.algebra import (
    AlgebraHom,
    ClosureError,
    FDAlgebra,
    Failure,
    check_algebra,
    check_hom,
    direct_sum_algebra,
    function_algebra,
    scalar_algebra,
    subalgebra_from_subspace,
    tensor_algebra,
)
from fusionalg.fusion import pullback_identification
from fusionalg.groups import FiniteGroup
from fusionalg.hopf import group_hopf
from fusionalg.linalg import LinearMap, Space, Subspace
from test_fusion import regular_comodule, sweedler_h4

Q = Fraction


def matrix_algebra_2x2() -> FDAlgebra:
    """2x2 matrices with basis e11, e12, e21, e22: associative, unital,
    and not commutative — a useful non-function example."""
    space = Space(("e11", "e12", "e21", "e22"))

    def unit_pair(idx):
        return divmod(idx, 2)

    table = [[{} for _ in range(4)] for _ in range(4)]
    for a in range(4):
        i, j = unit_pair(a)
        for b in range(4):
            k, l = unit_pair(b)
            if j == k:
                table[a][b] = {i * 2 + l: Q(1)}
    unit = (Q(1), Q(0), Q(0), Q(1))  # e11 + e22
    return FDAlgebra.from_structure(space, table, unit)


def is_commutative(alg: FDAlgebra) -> bool:
    n = alg.dim
    for i in range(n):
        for j in range(i + 1, n):
            if alg.table[i][j] != alg.table[j][i]:
                return False
    return True


def test_function_algebra_axioms_and_structure():
    alg = function_algebra(3)
    report = check_algebra(alg)
    assert report.ok, report.failures
    assert alg.dim == 3
    assert alg.unit == {0: Q(1), 1: Q(1), 2: Q(1)}
    assert is_commutative(alg)
    # idempotent basis: e_i * e_j = [i == j] e_i
    for i in range(3):
        for j in range(3):
            assert alg.table[i][j] == ({i: Q(1)} if i == j else {})


def test_scalar_algebra():
    alg = scalar_algebra()
    assert alg.dim == 1
    assert check_algebra(alg).ok
    assert alg.unit == {0: Q(1)}


def test_matrix_algebra_axioms():
    alg = matrix_algebra_2x2()
    report = check_algebra(alg)
    assert report.ok, report.failures
    assert not is_commutative(alg)


def test_check_algebra_flags_broken_associativity():
    alg = matrix_algebra_2x2()
    table = [[dict(prod) for prod in row] for row in alg.table]
    table[0][0][0] += Q(1)  # perturb e11·e11
    broken = FDAlgebra(alg.space, table, alg.unit)
    report = check_algebra(broken)
    assert not report.ok
    assert "associativity" in report.axioms_failed() or set(
        report.axioms_failed()
    ) & {"unit_left", "unit_right"}


def test_check_algebra_flags_broken_unit():
    alg = function_algebra(2)
    broken = FDAlgebra(alg.space, alg.table, {0: Q(1)})
    report = check_algebra(broken)
    assert not report.ok
    failed = set(report.axioms_failed())
    assert failed <= {"unit_left", "unit_right"} and failed


def test_tensor_algebra_of_functions_is_functions():
    """Fun(2) (x) Fun(3) has the structure of Fun(6) on product labels."""
    t = tensor_algebra(function_algebra(2), function_algebra(3))
    assert t.dim == 6
    assert check_algebra(t).ok
    assert t.unit == {i: Q(1) for i in range(6)}
    for i in range(6):
        for j in range(6):
            assert t.table[i][j] == ({i: Q(1)} if i == j else {})


def test_tensor_algebra_literally_associative():
    a = function_algebra(2, labels=("a0", "a1"))
    b = matrix_algebra_2x2()
    c = function_algebra(3, labels=("c0", "c1", "c2"))
    left = tensor_algebra(tensor_algebra(a, b), c)
    right = tensor_algebra(a, tensor_algebra(b, c))
    assert left.space == right.space
    assert left.unit == right.unit
    assert left.table == right.table


def test_tensor_algebra_corner_embeddings():
    a = function_algebra(2, labels=("a0", "a1"))
    b = function_algebra(3, labels=("b0", "b1", "b2"))
    t = tensor_algebra(a, b)
    left = LinearMap.identity(a.space).kron(b.unit_map())
    right = a.unit_map().kron(LinearMap.identity(b.space))
    for corner, src in ((left, a), (right, b)):
        embed = LinearMap(src.space, t.space, corner.rows)
        rep = check_hom(AlgebraHom(src, t, embed))
        assert rep.ok and rep.injective and not rep.surjective
    # the two corners commute elementwise and generate the product
    for i in range(a.dim):
        for j in range(b.dim):
            x, y = ref.fcols(left)[i], ref.fcols(right)[j]
            table = ref.ftable(t)
            assert ref.mul_sparse(table, x, y) == ref.mul_sparse(table, y, x)


def two_thirds_algebra() -> FDAlgebra:
    """Fun(2) in the basis 1, (2/3)·δ₁, whose square is 2/3 times itself."""
    table = [[{0: 1}, {1: 1}], [{1: 1}, {1: Q(2, 3)}]]
    return FDAlgebra.from_structure(Space(("1", "y")), table, (1, 0))


def fraction_tensor_table(a: FDAlgebra, b: FDAlgebra) -> list:
    """The table of A (x) B with every pair of constants multiplied."""
    db = b.dim
    table_a, table_b = ref.ftable(a), ref.ftable(b)
    return [
        [
            {
                p * db + q: va * vb
                for p, va in table_a[i][k].items()
                for q, vb in table_b[j][l].items()
            }
            for k in range(a.dim)
            for l in range(db)
        ]
        for i in range(a.dim)
        for j in range(db)
    ]


@pytest.mark.parametrize(
    "left, right",
    [("h4", "ks3"), ("ks3", "h4"), ("h4", "h4"), ("thirds", "h4"), ("ks3", "thirds"),
     ("thirds", "thirds")],
)
def test_tensor_algebra_matches_the_fraction_formula(left, right):
    """Skipping products with a constant 1 leaves every constant as the
    product gives it, on H4 (constants -1), kS3 and an algebra with the
    constant 2/3; the table holds ints over its denominator."""
    algebras = {
        "h4": lambda: sweedler_h4().algebra,
        "ks3": lambda: group_hopf(FiniteGroup.symmetric(3)).algebra,
        "thirds": two_thirds_algebra,
    }
    a, b = algebras[left](), algebras[right]()
    t = tensor_algebra(a, b)
    assert t.space == a.space.tensor(b.space)
    assert ref.ftable(t) == fraction_tensor_table(a, b)
    assert all(type(v) is int for row in t.table for prod in row for v in prod.values())
    unit_a, unit_b = ref.funit(a), ref.funit(b)
    expected_unit = {p * b.dim + q: x * y for p, x in unit_a.items() for q, y in unit_b.items()}
    assert ref.funit(t) == expected_unit
    assert check_algebra(t).ok


def test_tensor_algebra_preserves_commutativity():
    t = tensor_algebra(function_algebra(2), function_algebra(2))
    assert is_commutative(t)
    tm = tensor_algebra(function_algebra(2), matrix_algebra_2x2())
    assert not is_commutative(tm)


def test_direct_sum_algebra():
    s = direct_sum_algebra(function_algebra(2), function_algebra(3))
    assert s.dim == 5
    assert check_algebra(s).ok
    assert s.unit == {i: Q(1) for i in range(5)}
    # blocks multiply independently and cross terms vanish
    for i in range(2):
        for j in range(3):
            assert s.table[i][2 + j] == {} == s.table[2 + j][i]


def test_check_hom_identity_and_composition():
    rng = random.Random(42)
    a = function_algebra(3)
    ident = check_hom(AlgebraHom(a, a, LinearMap.identity(a.space)))
    assert ident.ok and ident.bijective

    # permuting the idempotent basis is an automorphism; composing two
    # permutation homs yields the composed permutation hom
    for _ in range(10):
        perm1 = list(range(3))
        perm2 = list(range(3))
        rng.shuffle(perm1)
        rng.shuffle(perm2)
        m1 = LinearMap.from_sparse_columns(a.space, a.space, [{perm1[j]: Q(1)} for j in range(3)])
        m2 = LinearMap.from_sparse_columns(a.space, a.space, [{perm2[j]: Q(1)} for j in range(3)])
        assert check_hom(AlgebraHom(a, a, m1)).ok
        assert check_hom(AlgebraHom(a, a, m2)).ok
        composed = m2.compose(m1)
        rep = check_hom(AlgebraHom(a, a, composed))
        assert rep.ok and rep.bijective


def test_check_hom_evaluation_character():
    a = function_algebra(3)
    k = scalar_algebra()
    ev = LinearMap.from_rows(a.space, k.space, [[Q(0), Q(1), Q(0)]])
    rep = check_hom(AlgebraHom(a, k, ev))
    assert rep.ok and rep.surjective and not rep.injective


def test_check_hom_flags_failures():
    a = function_algebra(2)
    zero = LinearMap.from_sparse_columns(a.space, a.space, [{}] * a.dim)
    rep = check_hom(AlgebraHom(a, a, zero))
    assert not rep.ok
    assert not rep.unital
    # doubling is unital off: 2·(fg) != (2f)(2g) in general
    double = LinearMap.from_rows(a.space, a.space, [[Q(2), Q(0)], [Q(0), Q(2)]])
    rep2 = check_hom(AlgebraHom(a, a, double))
    assert not rep2.ok
    assert not rep2.multiplicative


def test_check_hom_names_the_first_failing_pair():
    """The first failing pair in row-major order, with its detail and
    witness, then the unit; the flags follow the failures."""
    a, b = function_algebra(3), function_algebra(2)
    # unital, and e_0·e_0 is kept, but f(e_0·e_1) = 0 while f(e_0)·f(e_1) = -δ1
    images = [{0: Q(1), 1: Q(1)}, {1: Q(-1)}, {1: Q(1)}]
    f = LinearMap.from_sparse_columns(a.space, b.space, images)
    rep = check_hom(AlgebraHom(a, b, f))
    assert (rep.ok, rep.multiplicative, rep.unital) == (False, False, True)
    assert rep.failures == (
        Failure("multiplicative", "f(e0·e1) differs from f(e0)·f(e1)", (0, 1)),
    )
    # f(δ1) = 2δ1 first breaks the product at (1, 1), and f(1) = δ0 + 2δ1
    g = LinearMap.from_sparse_columns(b.space, b.space, [{0: Q(1)}, {1: Q(2)}])
    rep = check_hom(AlgebraHom(b, b, g))
    assert (rep.ok, rep.multiplicative, rep.unital) == (False, False, False)
    assert rep.failures == (
        Failure("multiplicative", "f(e1·e1) differs from f(e1)·f(e1)", (1, 1)),
        Failure("unital", "f(1) is not the target unit", ()),
    )


def test_check_hom_checks_only_pairs_inside_one_part(monkeypatch):
    """On the O(Z3) pullback glue at m_lower = m_upper = 2, a map between
    33-dimensional algebras, multiplicativity is decided on the 33 pairs
    inside a part, not on all 33², and the report is the reference's."""
    pb = pullback_identification(regular_comodule(3), 2, 2)
    hom = AlgebraHom(pb.fiber.comodule.algebra, pb.fusion.comodule.algebra, pb.glue)
    calls, first_failure = [], algebra_module.first_failure

    def counting(axiom, detail, holds, indices=((),)):
        if axiom == "multiplicative":
            def holds(*w, decide=holds):
                calls.append(w)
                return decide(*w)
        return first_failure(axiom, detail, holds, indices)

    monkeypatch.setattr(algebra_module, "first_failure", counting)
    report = check_hom(hom)
    assert hom.source.dim == hom.target.dim == 33
    assert report.ok and report == ref.check_hom(hom)
    assert len(calls) == 33
    assert calls == sorted(calls)


def test_check_hom_names_a_failure_in_a_later_part():
    """f(e_0) = δ0 + δ1, f(e_1) = δ2, f(e_2) = 3δ3 and f(e_3) = 2δ4 put
    the source into four parts; the product first breaks at (2, 2), in
    the third, which is the pair a scan of every pair names."""
    a, b = function_algebra(4), function_algebra(5)
    f = LinearMap.from_sparse_columns(a.space, b.space, [{0: 1, 1: 1}, {2: 1}, {3: 3}, {4: 2}])
    hom = AlgebraHom(a, b, f)
    report = check_hom(hom)
    assert report == ref.check_hom(hom)
    assert [(x.axiom, x.witness) for x in report.failures] == [
        ("multiplicative", (2, 2)),
        ("unital", ()),
    ]


def test_check_hom_by_parts_matches_the_reference_on_random_maps():
    """Derandomized: sparse maps with entries -1, 1 and 2 between
    function algebras, kZ3 and Sweedler's H4, which fail at pairs spread
    over their parts or pass, give the reference's whole report."""
    rng = random.Random(17)
    algebras = [
        function_algebra(3),
        function_algebra(4),
        group_hopf(FiniteGroup.cyclic(3)).algebra,
        sweedler_h4().algebra,
    ]
    for _ in range(120):
        a, b = rng.choice(algebras), rng.choice(algebras)
        cols = [
            {t: rng.choice((-1, 1, 2)) for t in range(b.dim) if rng.random() < 0.15}
            for _ in range(a.dim)
        ]
        hom = AlgebraHom(a, b, LinearMap.from_sparse_columns(a.space, b.space, cols))
        assert check_hom(hom) == ref.check_hom(hom)


def test_check_algebra_decides_associativity_in_one_accumulation(monkeypatch):
    """Associativity adds (e_i·e_j)·e_k into one vector and subtracts
    e_i·(e_j·e_k) from it, so on kS3 the law makes no ``nonzero`` copy;
    the unit laws still make theirs."""
    alg = group_hopf(FiniteGroup.symmetric(3)).algebra
    copied, nonzero = [], linalg_module.nonzero

    def recording(vec):
        frame, callers = sys._getframe(1), set()
        while frame.f_code.co_name != "check_algebra":
            callers.add(frame.f_code.co_name)
            frame = frame.f_back
        copied.append(callers)
        return nonzero(vec)

    monkeypatch.setattr(linalg_module, "nonzero", recording)
    assert check_algebra(alg).ok
    assert copied and all("unit_times" in callers for callers in copied)
    assert not any("associative" in callers for callers in copied)


@pytest.mark.parametrize(
    "name, expected",
    [("O(S3)", 6), ("H4", 64), ("kS3", 216), ("O(S3) + kS3", 6 + 216)],
)
def test_check_algebra_checks_associativity_inside_each_part(monkeypatch, name, expected):
    """Associativity is checked on the triples inside one part only: one
    in each of the six parts of O(S3), all of H4 and kS3, which are one
    part each, and those of each block of a direct sum."""
    ks3 = group_hopf(FiniteGroup.symmetric(3)).algebra
    alg = {
        "O(S3)": lambda: function_algebra(6),
        "H4": lambda: sweedler_h4().algebra,
        "kS3": lambda: ks3,
        "O(S3) + kS3": lambda: direct_sum_algebra(function_algebra(6), ks3),
    }[name]()
    triples, first_failure = [], algebra_module.first_failure

    def counting(axiom, detail, holds, indices=((),)):
        if axiom == "associativity":
            indices = list(indices)
            triples.extend(indices)
        return first_failure(axiom, detail, holds, indices)

    monkeypatch.setattr(algebra_module, "first_failure", counting)
    assert check_algebra(alg).ok
    assert len(triples) == expected
    assert triples == sorted(triples)


@settings(max_examples=60)
@given(data=st.data())
def test_check_algebra_names_the_first_failure_of_a_full_scan(data):
    """On random tables, mostly not associative, alone or as the second
    block of a direct sum after an associative or a random block, the
    checks inside each part name the same first failures as the
    ``Fraction`` reference, which scans every triple."""
    alg, _ = _hidden_subalgebra(data)
    first = data.draw(st.sampled_from(["none", "associative", "random"]))
    if first != "none":
        left = function_algebra(2) if first == "associative" else _hidden_subalgebra(data)[0]
        alg = direct_sum_algebra(left, alg)
    assert check_algebra(alg) == ref.check_algebra(alg)


def test_check_algebra_parts_hold_the_products():
    """e0·e0 = e1 and e1·e1 = e1, so (e0·e0)·e1 = e1 but e0·(e0·e1) = 0:
    a part that held only the factors of each product would split 0 from
    1 and miss the failure at (0, 0, 1)."""
    alg = FDAlgebra(Space.of_dim(2), [[{1: 1}, {}], [{}, {1: 1}]], {})
    report = check_algebra(alg)
    assert report.failures[0].witness == (0, 0, 1)
    assert report == ref.check_algebra(alg)


def test_subalgebra_span_of_unit():
    alg = function_algebra(3)
    line = Subspace.from_vectors(alg.space, [alg.unit])
    wit = subalgebra_from_subspace(alg, line)
    assert wit.unital
    assert wit.algebra.dim == 1
    assert check_algebra(wit.algebra).ok
    rep = check_hom(AlgebraHom(wit.algebra, alg, wit.inclusion))
    assert rep.ok and rep.injective


def test_subalgebra_full_space():
    alg = function_algebra(3)
    wit = subalgebra_from_subspace(alg, Subspace.full(alg.space))
    assert wit.algebra.dim == 3
    assert wit.unital
    assert check_hom(AlgebraHom(wit.algebra, alg, wit.inclusion)).bijective


def test_subalgebra_diagonal_of_matrices():
    alg = matrix_algebra_2x2()
    diag = Subspace.from_vectors(
        alg.space,
        [{0: Q(1)}, {3: Q(1)}],
    )
    wit = subalgebra_from_subspace(alg, diag)
    assert wit.unital and wit.algebra.dim == 2
    assert check_algebra(wit.algebra).ok


def test_subalgebra_rejects_non_closed_span():
    alg = matrix_algebra_2x2()
    # span{e12 + e21} is not closed: its square is e11 + e22
    line = Subspace.from_vectors(alg.space, [{1: Q(1), 2: Q(1)}])
    with pytest.raises(ClosureError) as exc:
        subalgebra_from_subspace(alg, line)
    err = exc.value
    assert err.left_index == 0 and err.right_index == 0
    assert err.product == {0: Q(1), 3: Q(1)}


RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def _restriction(alg: FDAlgebra, sub: Subspace, restrict):
    """What ``restrict`` makes of the subspace: the induced table, unit
    and unitality, or the pair and product of a ClosureError."""
    try:
        wit = restrict(alg, sub)
    except ClosureError as err:
        return ("not closed", err.left_index, err.right_index, err.product)
    return (wit.algebra.table, wit.algebra.unit, wit.unital, wit.inclusion)


def _hidden_subalgebra(data) -> tuple[FDAlgebra, list[dict]]:
    """A random rational table in a random basis f = T·e, in which
    span(e_0..e_{d-1}) is closed, and the image of that span under T⁻¹."""
    n = data.draw(st.integers(1, 4))
    d = data.draw(st.integers(0, n))
    space = Space.of_dim(n)
    rationals = st.lists(RATIONALS, min_size=n, max_size=n)
    hidden = [
        [
            ref.sparse(data.draw(rationals)[: d if i < d and j < d else n])
            for j in range(n)
        ]
        for i in range(n)
    ]
    t = LinearMap.from_columns(space, space, [data.draw(rationals) for _ in range(n)])
    t_inv = t.inverse()
    assume(t_inv is not None)
    product = LinearMap.from_sparse_columns(
        space.tensor(space), space, [p for row in hidden for p in row]
    )
    moved = t_inv.compose(product).compose(t.kron(t))
    table = [[moved.cols[i * n + j] for j in range(n)] for i in range(n)]
    unit = ref.sparse(data.draw(rationals))
    return FDAlgebra(space, table, unit), list(t_inv.cols[:d])


@settings(max_examples=60)
@given(data=st.data())
def test_subalgebra_matches_the_fraction_reference(data):
    """A closed span of a random algebra (:func:`_hidden_subalgebra`), or
    of the direct sum of two, where the span meets both blocks and so
    two or more parts, with or without one more random vector, restricts
    the same way in integers as in ``Fraction`` arithmetic: the same
    table, or the same first ClosureError pair and product."""
    alg, vectors = _hidden_subalgebra(data)
    if data.draw(st.booleans()):
        right, more = _hidden_subalgebra(data)
        vectors += [{alg.dim + k: v for k, v in vec.items()} for vec in more]
        alg = direct_sum_algebra(alg, right)
    if data.draw(st.booleans()):
        extra = st.lists(RATIONALS, min_size=alg.dim, max_size=alg.dim)
        vectors.append(ref.sparse(data.draw(extra)))
    sub = Subspace.from_vectors(alg.space, vectors)
    expected = _restriction(alg, sub, ref.subalgebra_from_subspace)
    assert _restriction(alg, sub, subalgebra_from_subspace) == expected


@pytest.mark.parametrize("k", [-1, 2])
def test_from_structure_rejects_an_index_outside_the_basis(k):
    with pytest.raises(ValueError):
        FDAlgebra.from_structure(Space(("a", "b")), [[{k: 1}, {}], [{}, {}]], (1, 1))


def test_algebra_rejects_a_table_of_the_wrong_shape():
    space = Space(("a", "b"))
    for table in ([[{}, {}]], [[{}, {}], [{}]], [[{}, {}, {}], [{}, {}, {}]]):
        with pytest.raises(ValueError):
            FDAlgebra(space, table, {0: Q(1), 1: Q(1)})


@pytest.mark.parametrize("k", [-1, 2])
def test_algebra_rejects_a_unit_key_outside_the_basis(k):
    with pytest.raises(ValueError, match="unit vector index outside 0..1"):
        FDAlgebra(Space(("a", "b")), [[{}, {}], [{}, {}]], {k: Q(1)})


@pytest.mark.parametrize("unit", [(1,), (1, 1, 1)])
def test_from_structure_rejects_a_dense_unit_of_the_wrong_length(unit):
    with pytest.raises(ValueError, match="unit vector has wrong length"):
        FDAlgebra.from_structure(Space(("a", "b")), [[{}, {}], [{}, {}]], unit)
