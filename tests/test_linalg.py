"""Exact linear algebra: maps, sparse echelon subspaces, quotients, and
the sparse solver."""

import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dense_reference as ref
from fusionalg import linalg
from fusionalg.algebra import FDAlgebra, function_algebra, tensor_algebra
from fusionalg.comodule import BalancedTensor
from fusionalg.fusion import BaseWithEnds
from fusionalg.linalg import (
    Infeasibility,
    LinearMap,
    LinearSystem,
    Space,
    Subspace,
    components,
    integer_scaled,
    linear_combination,
    on_left,
    on_right,
    rat,
    rref,
    tensor_mul,
    tensor_vec,
)
from test_fusion import skewed_chain

Q = Fraction


def random_map(rng, source, target, density=0.6):
    rows = tuple(
        tuple(
            Q(rng.randint(-3, 3), rng.randint(1, 3))
            if rng.random() < density
            else Q(0)
            for _ in range(source.dim)
        )
        for _ in range(target.dim)
    )
    return LinearMap(source, target, rows)


def test_rat_parsing_and_printing():
    assert rat("3/5") == Q(3, 5)
    assert rat(7) == Q(7)
    assert rat(Q(-1, 2)) == Q(-1, 2)
    assert str(rat("6/10")) == "3/5"
    assert str(rat(4)) == "4"
    assert str(rat("-2/7")) == "-2/7"


def test_space_equality_is_structural():
    a = Space(("x", "y"))
    b = Space(("x", "y"))
    assert a == b
    assert a.tensor(b) == b.tensor(a)
    assert a.tensor(b).labels == ("x⊗x", "x⊗y", "y⊗x", "y⊗y")
    with pytest.raises(ValueError):
        Space(("x", "x"))


def test_space_tensor_is_literally_associative():
    a, b, c = Space(("a0", "a1")), Space(("b0",)), Space(("c0", "c1", "c2"))
    assert a.tensor(b).tensor(c) == a.tensor(b.tensor(c))


def test_tensor_vec_convention_left_factor_major():
    # (i, j) lands at slot i*dimW + j, in increasing order
    u = {0: Q(2), 1: Q(3)}
    v = {0: Q(5), 1: Q(7), 2: Q(11)}
    t = tensor_vec(u, v, 3)
    assert list(t) == list(range(6))
    for i in range(2):
        for j in range(3):
            assert t[i * 3 + j] == u[i] * v[j]
    assert tensor_vec({1: Q(2)}, {0: Q(5), 2: Q(-1)}, 3) == {3: Q(10), 5: Q(-2)}
    assert tensor_vec({}, v, 3) == {}


def test_rref_shape_and_pivots():
    rows = [
        (Q(0), Q(2), Q(4)),
        (Q(1), Q(1), Q(1)),
        (Q(1), Q(3), Q(5)),
    ]
    basis, pivots, den = rref(map(ref.sparse, rows))
    assert pivots == (0, 1)
    assert den == 1
    assert basis[0] == {0: 1, 2: -1}
    assert basis[1] == {1: 1, 2: 2}
    # pivot columns of a reduced basis are unit columns
    for r, p in enumerate(pivots):
        for s in range(len(basis)):
            assert basis[s].get(p, 0) == (den if s == r else 0)
    # no zeros are stored, so equal spans give equal rows
    assert all(v != 0 for row in basis for v in row.values())


def test_compose_apply_agree():
    rng = random.Random(101)
    a, b, c = Space.of_dim(3, "a"), Space.of_dim(4, "b"), Space.of_dim(2, "c")
    for _ in range(20):
        f = random_map(rng, a, b)
        g = random_map(rng, b, c)
        h = g.compose(f)
        for j in range(a.dim):
            v = {j: Q(1), (j + 1) % a.dim: Q(-2, 3)}
            assert h.apply(v) == g.apply(f.apply(v))


def test_rank_nullity():
    rng = random.Random(202)
    for _ in range(30):
        src = Space.of_dim(rng.randint(1, 5), "s")
        tgt = Space.of_dim(rng.randint(1, 5), "t")
        f = random_map(rng, src, tgt)
        assert f.rank() + f.kernel().dim == src.dim
        assert f.image().dim == f.rank()


def test_kron_on_basis_tensors():
    rng = random.Random(303)
    a, b = Space.of_dim(2, "a"), Space.of_dim(3, "b")
    c, d = Space.of_dim(3, "c"), Space.of_dim(2, "d")
    for _ in range(15):
        f = random_map(rng, a, c)
        g = random_map(rng, b, d)
        fg = f.kron(g)
        for i in range(a.dim):
            for j in range(b.dim):
                expect = tensor_vec(ref.fcols(f)[i], ref.fcols(g)[j], d.dim)
                assert fg.apply({i * b.dim + j: Q(1)}) == expect


def test_kron_bilinear_composition():
    rng = random.Random(404)
    a, b, c = Space.of_dim(2, "a"), Space.of_dim(2, "b"), Space.of_dim(2, "c")
    for _ in range(10):
        f1 = random_map(rng, a, b)
        f2 = random_map(rng, b, c)
        g1 = random_map(rng, a, b)
        g2 = random_map(rng, b, c)
        lhs = f2.compose(f1).kron(g2.compose(g1))
        rhs = f2.kron(g2).compose(f1.kron(g1))
        assert lhs.rows == rhs.rows


def test_inverse_round_trip_and_singular():
    rng = random.Random(505)
    s = Space.of_dim(4, "s")
    for _ in range(10):
        # product of unitriangular maps is always invertible
        lower = [[Q(1) if i == j else Q(0) for j in range(4)] for i in range(4)]
        upper = [[Q(1) if i == j else Q(0) for j in range(4)] for i in range(4)]
        for i in range(4):
            for j in range(4):
                if i > j:
                    lower[i][j] = Q(rng.randint(-2, 2))
                if i < j:
                    upper[i][j] = Q(rng.randint(-2, 2))
        f = LinearMap.from_rows(s, s, lower).compose(LinearMap.from_rows(s, s, upper))
        inv = f.inverse()
        assert inv is not None
        assert inv.compose(f).is_identity()
        assert f.compose(inv).is_identity()
    singular = LinearMap.from_rows(
        s, s, [[Q(1)] * 4, [Q(1)] * 4, [Q(0)] * 4, [Q(0)] * 4]
    )
    assert singular.inverse() is None


def test_preimage_of_image_is_everything():
    """With W = F at both ends, the image of each evaluation e (x) id,
    the sections are all of C (x) F."""
    rng = random.Random(707)
    for _ in range(20):
        base = skewed_chain(rng.randint(1, 3))
        fiber = Space.of_dim(rng.randint(1, 4), "f")
        full = Subspace.full(fiber)
        assert base.sections(full, full) == Subspace.full(base.algebra.space.tensor(fiber))


def test_preimage_membership():
    """The value at the constrained end of each basis vector lies in W,
    and K (x) F ⊕ c (x) F ⊕ c' (x) W has dimension (dim C - 1)·dim F + dim W."""
    base = skewed_chain(2)
    fiber = Space.of_dim(2, "t")
    line = Subspace.from_vectors(fiber, [{0: Q(1), 1: Q(2)}])
    full = Subspace.full(fiber)
    ident = LinearMap.identity(fiber)
    for end, pre in ((base.end_zero, base.sections(line, full)), (base.end_one, base.sections(full, line))):
        for v in pre.basis:
            # membership does not depend on the scale of the image
            assert line.coordinates(linear_combination(end.kron(ident).cols, v)) is not None
        assert pre.dim == 2 * 2 + 1
    with pytest.raises(ValueError, match="different fibers"):
        base.sections(line, Subspace.full(Space.of_dim(3, "t")))


def test_subspace_equality_and_membership():
    s = Space.of_dim(3, "s")
    u = Subspace.from_vectors(s, [{0: Q(1), 1: Q(1)}, {2: Q(1)}])
    v = Subspace.from_vectors(s, [{0: Q(2), 1: Q(2), 2: Q(2)}, {2: Q(5)}])
    assert u == v  # reduced bases make equal spans literally equal
    inside = {0: 3, 1: 3, 2: -1}
    coords = u.coordinates(inside)
    assert coords == {0: 3, 1: -1}
    assert u.coordinates({0: 1}) is None
    incl = LinearMap.from_sparse_columns(Space.of_dim(u.dim, "c"), s, u.basis, u.den)
    assert incl.apply(coords) == inside


@pytest.mark.parametrize("key", [-1, 3])
def test_from_vectors_rejects_a_key_outside_the_ambient(key):
    with pytest.raises(ValueError, match="ambient mismatch"):
        Subspace.from_vectors(Space.of_dim(3, "s"), [{0: Q(1)}, {key: Q(1)}])


def test_sections_are_symmetric_in_the_ends():
    """Swapping the two characters and the two conditions gives the same
    subspace; it lies in both one-end subspaces, and its dimension is
    (dim C - 2)·dim F + dim W₀ + dim W₁, the intersection's by the
    dimension formula."""
    rng = random.Random(808)
    s = Space.of_dim(4, "s")
    full = Subspace.full(s)
    for _ in range(20):
        base = skewed_chain(rng.randint(1, 3))
        u, v = (
            Subspace.from_vectors(
                s, [ref.sparse(Q(rng.randint(-2, 2)) for _ in range(4)) for _ in range(2)]
            )
            for _ in range(2)
        )
        uv = base.sections(u, v)
        assert uv == BaseWithEnds(base.algebra, base.end_one, base.end_zero).sections(v, u)
        lower, upper = base.sections(u, full), base.sections(full, v)
        for w in uv.basis:
            assert lower.coordinates(w) is not None and upper.coordinates(w) is not None
        assert uv.dim == (base.dim - 2) * 4 + u.dim + v.dim
        joined = Subspace(uv.ambient, *rref(lower.basis + upper.basis))
        assert lower.dim + upper.dim == joined.dim + uv.dim


def quotient_by(killed: Subspace) -> BalancedTensor:
    """The balanced-tensor projection, which needs only the killed
    subspace, applied to an arbitrary one."""
    return BalancedTensor(None, None, killed)


def test_quotient_projection_section():
    s = Space.of_dim(4, "s")
    killed = Subspace.from_vectors(s, [{0: Q(1), 1: Q(-1)}, {2: Q(1)}])
    q = quotient_by(killed)
    assert killed.den == 1
    assert q.space.dim == 2
    assert q.space.labels == ("[s1]", "[s3]")
    # the section sends the i-th class to its representative coordinate
    for i, c in enumerate(q.reps):
        assert q.project({c: 1}) == {i: 1}
    for k in killed.basis:
        assert q.project(k) == {}
    # a class and its representative project equally
    vec = {0: 5, 1: 2, 2: 7, 3: 1}
    shifted = {i: vec[i] + killed.basis[0].get(i, 0) for i in vec}
    assert q.project(vec) == q.project(shifted) == {0: 7, 1: 1}


# Rational entries, mostly zero, for matrices compared against the dense
# reference routines.
ENTRIES = st.one_of(
    st.just(Q(0)), st.just(Q(0)), st.fractions(min_value=-4, max_value=4, max_denominator=4)
)


@st.composite
def rational_matrices(draw, n_rows=None, n_cols=None):
    """A matrix whose rows include zero rows, repeated rows and rescaled
    copies of other rows, in a drawn order."""
    n = n_cols if n_cols is not None else draw(st.integers(1, 5))
    row = st.lists(ENTRIES, min_size=n, max_size=n).map(tuple)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    scale = st.fractions(min_value=-3, max_value=3, max_denominator=3).filter(bool)
    for kind, k, c in draw(
        st.lists(st.tuples(st.sampled_from("zrs"), st.integers(0, 9), scale), max_size=3)
    ):
        src = rows[k % len(rows)]
        rows.append((Q(0),) * n if kind == "z" else src if kind == "r" else tuple(c * x for x in src))
    order = draw(st.permutations(range(len(rows))))
    rows = [rows[i] for i in order]
    if n_rows is not None:
        rows = (rows * n_rows)[:n_rows]
    return rows


@settings(max_examples=150)
@given(rows=rational_matrices(), data=st.data())
def test_sparse_echelon_matches_the_dense_reference(rows, data):
    """Basis, pivots, rank and kernel agree with dense Gauss–Jordan, the
    basis read over its ``den``.  The integer rows hold ``den`` at every
    pivot, ``den`` is least, and neither the order nor the scale of the
    spanning rows changes a field."""
    n = len(rows[0])
    basis, pivots, den = rref(map(ref.sparse, rows))
    dense_basis, dense_pivots = ref.rref(rows)
    assert pivots == dense_pivots
    assert [read_over(b, den) for b in basis] == [ref.sparse(b) for b in dense_basis]
    assert all(type(v) is int and v != 0 for row in basis for v in row.values())
    assert all(row[p] == den for row, p in zip(basis, pivots))
    assert gcd(den, *(v for row in basis for v in row.values())) == 1
    # integer rows give the same form, and rref neither changes nor keeps them
    _, ints = integer_scaled([ref.sparse(row) for row in rows])
    copies = [dict(row) for row in ints]
    assert rref(ints) == (basis, pivots, den)
    assert ints == copies
    assert not any(b is r for b in rref(ints)[0] for r in ints)
    source, target = Space.of_dim(n, "s"), Space.of_dim(len(rows), "t")
    f = LinearMap(source, target, tuple(rows))
    assert f.rank() == len(dense_pivots)
    assert f.kernel() == ref.subspace(source, *ref.kernel(rows, n))
    spanned = Subspace.from_vectors(source, map(ref.sparse, rows))
    assert spanned == ref.subspace(source, dense_basis, dense_pivots)
    order = data.draw(st.permutations(range(len(rows))))
    scales = data.draw(
        st.lists(
            st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(bool),
            min_size=len(rows),
            max_size=len(rows),
        )
    )
    moved = [{k: c * v for k, v in ref.sparse(rows[i]).items()} for i, c in zip(order, scales)]
    other = Subspace.from_vectors(source, moved)
    fields = ("ambient", "basis", "pivots", "den")
    assert [getattr(other, f) for f in fields] == [getattr(spanned, f) for f in fields]


@settings(max_examples=100)
@given(rows=rational_matrices())
def test_dense_rows_round_trip_through_sparse_columns(rows):
    """The constructor keeps only the nonzero entries, column by column,
    as integers over the least denominator, and the dense view gives the
    rows back."""
    f = LinearMap(Space.of_dim(len(rows[0]), "s"), Space.of_dim(len(rows), "t"), tuple(rows))
    assert f.rows == tuple(rows)
    assert ref.fcols(f) == [ref.sparse(col) for col in zip(*rows)]
    assert all(type(v) is int and v != 0 for col in f.cols for v in col.values())
    assert gcd(f.den, *(v for col in f.cols for v in col.values())) == 1


def test_map_shapes_are_checked():
    s, t = Space.of_dim(2, "s"), Space.of_dim(3, "t")
    with pytest.raises(ValueError):
        LinearMap(s, t, [[Q(1), Q(0)]] * 2)  # two rows for a 3-dimensional target
    with pytest.raises(ValueError):
        LinearMap(s, t, [[Q(1)]] * 3)  # rows of length 1 for a 2-dimensional source
    with pytest.raises(ValueError):
        LinearMap.from_sparse_columns(s, t, [{0: Q(1)}])  # one column for two
    with pytest.raises(ValueError):
        LinearMap.from_sparse_columns(s, t, [{0: Q(1)}, {3: Q(1)}])  # entry past the target
    with pytest.raises(ValueError):
        LinearMap.from_columns(s, t, [(Q(1), Q(0)), (Q(0), Q(1), Q(0))])  # a short column


@settings(max_examples=100)
@given(data=st.data())
def test_sparse_map_operations_match_the_dense_reference(data):
    """compose, kron, sub, rank, image and kernel on sparse columns agree
    with the dense routines on the same rows."""
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    a_rows = data.draw(rational_matrices(n_rows=n, n_cols=k))
    b_rows = data.draw(rational_matrices(n_rows=k, n_cols=m))
    c_rows = data.draw(rational_matrices(n_rows=n, n_cols=k))
    sn, sk, sm = Space.of_dim(n, "n"), Space.of_dim(k, "k"), Space.of_dim(m, "m")
    a = LinearMap(sk, sn, tuple(a_rows))
    b = LinearMap(sm, sk, tuple(b_rows))
    c = LinearMap(sk, sn, tuple(c_rows))
    assert a.compose(b).rows == ref.compose(a_rows, b_rows, m)
    assert a.kron(b).rows == ref.kron(a_rows, b_rows, k, m)
    assert a.sub(c).rows == tuple(
        tuple(x - y for x, y in zip(r, s)) for r, s in zip(a_rows, c_rows)
    )
    assert a.rank() == len(ref.rref(a_rows)[1])
    assert a.image() == ref.subspace(sn, *ref.rref(list(zip(*a_rows))))
    assert a.kernel() == ref.subspace(sk, *ref.kernel(a_rows, k))


@settings(max_examples=100)
@given(data=st.data())
def test_sparse_inverse_matches_the_dense_reference(data):
    n = data.draw(st.integers(1, 4))
    rows = data.draw(rational_matrices(n_rows=n, n_cols=n))
    s = Space.of_dim(n, "s")
    f = LinearMap(s, s, tuple(rows))
    inv = f.inverse()
    expected = ref.inverse(rows)
    assert (inv.rows if inv is not None else None) == expected
    assert f.is_identity() == (tuple(rows) == ref.identity(n))
    if inv is not None:
        assert inv.compose(f).is_identity() and f.compose(inv).is_identity()
        assert inv.is_identity() == f.is_identity()
        # one changed entry is no longer the identity
        nudged = [list(r) for r in ref.identity(n)]
        nudged[data.draw(st.integers(0, n - 1))][data.draw(st.integers(0, n - 1))] += Q(1, 2)
        assert not LinearMap(s, s, tuple(map(tuple, nudged))).is_identity()


@settings(max_examples=100)
@given(data=st.data())
def test_sparse_intersection_and_preimage_match_the_dense_reference(data):
    """The closed form equals the intersection of the two dense
    preimages, at both ends, one end and neither, over the chain in a
    basis where neither character is a coordinate functional."""
    n = data.draw(st.integers(1, 4))
    u_rows = data.draw(rational_matrices(n_cols=n))
    v_rows = data.draw(rational_matrices(n_cols=n))
    s = Space.of_dim(n, "s")
    u, v = (Subspace.from_vectors(s, map(ref.sparse, rows)) for rows in (u_rows, v_rows))
    full = Subspace.full(s)
    base = skewed_chain(data.draw(st.integers(1, 3)))
    space = base.algebra.space.tensor(s)
    for w_zero, w_one in ((u, v), (u, full), (full, v), (full, full)):
        expected = ref.subspace(space, *ref.sections(base, w_zero, w_one))
        assert base.sections(w_zero, w_one) == expected


@settings(max_examples=100)
@given(rows=rational_matrices(), vectors=st.data())
def test_balanced_projection_matches_the_dense_quotient(rows, vectors):
    """The projection by reduction equals the dense quotient projection,
    on basis vectors and on drawn vectors, and the quotient keeps the
    non-pivot coordinates."""
    n = len(rows[0])
    killed = Subspace.from_vectors(Space.of_dim(n, "s"), map(ref.sparse, rows))
    projection, section = ref.quotient(*ref.rref(rows), n)
    q = quotient_by(killed)
    assert len(q.reps) == len(section) == n - killed.dim
    # project returns killed.den times the class, in the scale of its input
    for j in range(n):
        assert read_over(q.project({j: 1}), killed.den) == {
            i: row[j] for i, row in enumerate(projection) if row[j]
        }
    vec = vectors.draw(st.lists(ENTRIES, min_size=n, max_size=n))
    expected = [sum((a * x for a, x in zip(row, vec)), Q(0)) for row in projection]
    den, ints = scaled(ref.sparse(vec))
    assert read_over(q.project(ints), den * killed.den) == ref.sparse(expected)


def test_linear_system_deterministic_solution():
    def build():
        sys = LinearSystem(3)
        sys.add_row({0: Q(1), 1: Q(1)}, Q(2))
        sys.add_row({1: Q(1, 2), 2: Q(1)}, Q(1))
        return sys

    out1 = build().solve()
    out2 = build().solve()
    assert not isinstance(out1, Infeasibility)
    assert out1 == out2  # repeated runs reproduce the same tuple exactly
    vals = out1
    assert vals[0] + vals[1] == Q(2)
    assert Q(1, 2) * vals[1] + vals[2] == Q(1)


def test_linear_system_free_variables_are_zero():
    sys = LinearSystem(3)
    sys.add_row({0: Q(1)}, Q(5))
    vals = sys.solve()
    assert vals == (Q(5), Q(0), Q(0))


def test_linear_system_farkas_certificate():
    sys = LinearSystem(2)
    sys.add_row({0: Q(1), 1: Q(1)}, Q(1))
    sys.add_row({0: Q(2), 1: Q(2)}, Q(3))
    out = sys.solve()
    assert isinstance(out, Infeasibility)
    coeffs, rhs = sys.combine(out.farkas)
    assert coeffs == {}
    assert rhs != 0
    assert rhs == out.residual
    assert 0 <= out.row_index < len(sys)


def test_linear_system_row_as_fractions():
    sys = LinearSystem(2)
    idx = sys.add_row({0: Q(1, 3), 1: Q(-2)}, Q(5, 6))
    coeffs, rhs = sys.row_as_fractions(idx)
    assert coeffs == {0: Q(1, 3), 1: Q(-2)}
    assert rhs == Q(5, 6)


def test_linear_system_random_consistency():
    """Seeded random systems: solutions satisfy every row; refutations combine
    to an impossible equation 0 = nonzero."""
    rng = random.Random(909)
    feasible_seen = 0
    infeasible_seen = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        sys = LinearSystem(n)
        rows = rng.randint(1, 7)
        for _ in range(rows):
            coeffs = {
                j: Q(rng.randint(-3, 3), rng.randint(1, 2))
                for j in range(n)
                if rng.random() < 0.7
            }
            coeffs = {j: c for j, c in coeffs.items() if c != 0}
            sys.add_row(coeffs, Q(rng.randint(-2, 2)))
        out = sys.solve()
        if isinstance(out, Infeasibility):
            infeasible_seen += 1
            coeffs, rhs = sys.combine(out.farkas)
            assert coeffs == {} and rhs != 0 and rhs == out.residual
        else:
            feasible_seen += 1
            for i in range(len(sys)):
                coeffs, rhs = sys.row_as_fractions(i)
                assert sum(c * out[j] for j, c in coeffs.items()) == rhs
    assert feasible_seen > 0 and infeasible_seen > 0


def _reference_triple(coeffs, rhs):
    """A rational row stored as integers: times the least common multiple
    of its denominators, zero coefficients dropped."""
    clean = {c: v for c, v in coeffs.items() if v != 0}
    scale = lcm(rhs.denominator, *(v.denominator for v in clean.values()))
    return {c: int(v * scale) for c, v in clean.items()}, int(rhs * scale), scale


rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@settings(max_examples=100)
@given(
    coeffs=st.dictionaries(st.integers(0, 7), rationals, max_size=6),
    rhs=rationals,
    extra=st.integers(1, 30),
)
def test_integer_rows_are_stored_like_rational_rows(coeffs, rhs, extra):
    """A row given as integers over any denominator, and the same row
    given as Fractions, are stored as the same (coeffs, rhs, scale)."""
    expected = _reference_triple(coeffs, rhs)
    den = extra * lcm(rhs.denominator, *(v.denominator for v in coeffs.values()))
    as_ints = LinearSystem(8)
    as_ints.add_int_row({c: int(v * den) for c, v in coeffs.items()}, int(rhs * den), den)
    as_fractions = LinearSystem(8)
    as_fractions.add_row(coeffs, rhs)
    assert ref.stored_rows(as_ints) == ref.stored_rows(as_fractions) == [expected]


def _reference_farkas(system, upto):
    """Provenance of the contradiction at row ``upto``, tracked as
    Fraction multipliers of the rational rows through the same
    elimination the solver runs."""
    pivots = {}
    for idx in range(upto + 1):
        coeffs, rhs, scale = system.row(idx)
        prov = {idx: Fraction(scale)}
        while coeffs and min(coeffs) in pivots:
            j = min(coeffs)
            pc, pr, pp = pivots[j]
            g = gcd(coeffs[j], pc[j])
            mr, mp = pc[j] // g, coeffs[j] // g
            new = {c: mr * v for c, v in coeffs.items()}
            for c, v in pc.items():
                new[c] = new.get(c, 0) - mp * v
            coeffs = {c: v for c, v in new.items() if v}
            rhs = mr * rhs - mp * pr
            new_prov = {k: mr * v for k, v in prov.items()}
            for k, v in pp.items():
                nv = new_prov.get(k, 0) - mp * v
                if nv:
                    new_prov[k] = nv
                else:
                    new_prov.pop(k, None)
            prov = new_prov
            if coeffs:
                g = gcd(rhs, *coeffs.values())
                coeffs = {c: v // g for c, v in coeffs.items()}
                rhs //= g
                prov = {k: v / g for k, v in prov.items()}
        if coeffs:
            sign = -1 if coeffs[min(coeffs)] < 0 else 1
            pivots[min(coeffs)] = (
                {c: sign * v for c, v in coeffs.items()},
                sign * rhs,
                {k: sign * v for k, v in prov.items()},
            )
    return prov


@settings(max_examples=100)
@given(
    rows=st.lists(
        st.tuples(st.dictionaries(st.integers(0, 4), rationals, max_size=4), rationals),
        min_size=1,
        max_size=9,
    )
)
def test_farkas_multipliers_match_fraction_provenance(rows):
    """The multipliers are those that tracking Fraction multipliers
    through a row echelon elimination gives, over the multiplier of the
    contradiction row, which is 1; and they refute the system."""
    system = LinearSystem(5)
    for coeffs, rhs in rows:
        system.add_row(coeffs, rhs)
    out = system.solve()
    if not isinstance(out, Infeasibility):
        return
    reference = _reference_farkas(system, out.row_index)
    scale = reference[out.row_index]
    assert out.farkas == {k: v / scale for k, v in reference.items()}
    assert list(out.farkas) == sorted(out.farkas) and out.farkas[out.row_index] == 1
    coeffs, rhs = system.combine(out.farkas)
    assert coeffs == {} and rhs == out.residual != 0


def _refutable_system():
    system = LinearSystem(2)
    system.add_row({0: Q(1), 1: Q(1)}, Q(1))
    system.add_row({0: Q(2), 1: Q(2)}, Q(3))
    return system


def test_solve_checks_its_farkas_multipliers(monkeypatch):
    """A refutation whose multipliers do not cancel the unknowns is an
    internal error, not a certificate."""
    system = _refutable_system()
    # the kernel vector of the kept row 0 and the contradiction row 1,
    # with the multiplier of row 0 dropped
    monkeypatch.setattr(linalg, "kernel_vectors", lambda rows, n_cols: [{1: 1}])
    with pytest.raises(AssertionError, match="do not refute the system: 2 unknowns left"):
        system.solve()


def test_rows_with_unknowns_out_of_range_are_refused():
    """Rows are indexed by unknown, so an index outside 0..n-1 is refused
    where it enters, not met later in back-substitution."""
    system = LinearSystem(2)
    with pytest.raises(ValueError, match="unknown 5 is outside 0..1"):
        system.add_row({5: Q(1)}, Q(1))
    with pytest.raises(ValueError, match="unknown -1 is outside 0..1"):
        system.add_int_row({0: 1, -1: 2}, 1)
    with pytest.raises(ValueError, match="unknown 2 is outside 0..1"):
        system.add_shifted_rows([({0: 1}, 0, 1), ({1: 1}, 1, 1)], range(2))
    assert len(system) == 0


@pytest.mark.parametrize("den", [0, -3])
def test_rows_over_a_non_positive_denominator_are_refused(den):
    system = LinearSystem(1)
    with pytest.raises(ValueError, match=f"denominator must be positive, got {den}"):
        system.add_int_row({0: 1}, 1, den)
    assert len(system) == 0


@pytest.mark.parametrize(
    "coeffs, rhs, den, stored",
    [
        ({1: 2, 3: -1}, 1, 1, ({1: 2, 3: -1}, 1, 1)),  # over den 1, no zero: copied
        ({1: 2, 2: 0, 3: -1}, 1, 1, ({1: 2, 3: -1}, 1, 1)),  # a zero dropped
        ({1: 4, 3: -2}, 6, 2, ({1: 2, 3: -1}, 3, 1)),  # a common factor divided out
        ({1: 2, 3: -1}, 1, 3, ({1: 2, 3: -1}, 1, 3)),  # over den 3, coprime
    ],
)
def test_a_system_keeps_no_dict_of_its_caller(coeffs, rhs, den, stored):
    """Changing a row's dict after adding it, singly or shifted, leaves
    every stored row as it was added."""
    system = LinearSystem(6)
    single, shifted = dict(coeffs), dict(coeffs)
    system.add_int_row(single, rhs, den)
    system.add_shifted_rows([(shifted, rhs, den)], range(0, 3, 2))
    for added in (single, shifted):
        added[1] = 7
        added[0] = 5
        added.pop(3)
    moved = ({c + 2: v for c, v in stored[0].items()}, *stored[1:])
    assert [system.row(k) for k in range(3)] == [stored, stored, moved]


BLOCK_ENTRIES =st.sampled_from(sorted({Q(n, d) for n in range(-3, 4) for d in (1, 2, 3)}))


@st.composite
def block_systems(draw):
    """Rows over at least three blocks of unknowns that no row mixes,
    the blocks' unknowns interleaved and their rows merged in a random
    order.  Each block opens with two rows led by 2 and by 3, so that
    elimination meets row multipliers other than 1, and repeats a
    multiple of one of its rows, which cancels to ``0 = 0``; rows with
    no unknowns, ``0 = 0``, are spread among them.  Every right-hand side agrees with one drawn solution except
    on a few drawn rows, which are then off by one.  Some blocks are
    homogeneous: the solution is zero on them and none of their rows is
    off.  When there are such blocks, a copy of another row, off by one,
    may follow all the rows, so that a contradiction comes after
    homogeneous rows."""
    n_blocks = draw(st.integers(3, 5))
    width = draw(st.integers(2, 4))
    homogeneous = draw(st.sets(st.integers(0, n_blocks - 1), max_size=n_blocks - 1))
    blocks = []
    for b in range(n_blocks):
        cols = [u * n_blocks + b for u in range(width)]
        rows = [{cols[0]: Q(2), cols[1]: Q(1)}, {cols[0]: Q(3), cols[-1]: draw(BLOCK_ENTRIES)}]
        rows += draw(st.lists(st.dictionaries(st.sampled_from(cols), BLOCK_ENTRIES), max_size=4))
        factor = draw(st.sampled_from([Q(1), Q(-2), Q(1, 3)]))
        multiple = {c: factor * v for c, v in rows[draw(st.integers(0, len(rows) - 1))].items()}
        rows.insert(draw(st.integers(2, len(rows))), multiple)
        blocks.append(rows)
    owners = draw(st.permutations([b for b, rows in enumerate(blocks) for _ in rows]))
    merged = [blocks[b].pop(0) for b in owners]
    for _ in range(draw(st.integers(0, 2))):
        k = draw(st.integers(0, len(merged)))
        merged.insert(k, {})
        owners.insert(k, None)
    n = n_blocks * width
    solution = [
        Q(0) if c % n_blocks in homogeneous else v
        for c, v in enumerate(draw(st.lists(BLOCK_ENTRIES, min_size=n, max_size=n)))
    ]
    live = [k for k, b in enumerate(owners) if b not in homogeneous]
    off = draw(st.sets(st.sampled_from(live), max_size=2))
    if homogeneous and draw(st.booleans()):
        merged.append(dict(merged[draw(st.sampled_from(live))]))
        off.add(len(merged) - 1)
    return n, [
        (coeffs, sum((v * solution[c] for c, v in coeffs.items()), Q(1) if k in off else Q(0)))
        for k, coeffs in enumerate(merged)
    ]


@settings(max_examples=200)
@given(block_systems())
def test_elimination_matches_the_parent_elimination(system_rows):
    """Solutions, and a refutation's row, and its Farkas multipliers and
    residual up to the scale that makes the contradiction row's
    multiplier 1, are those of the elimination that copies every working
    row, eliminates homogeneous components too and tracks provenance
    over all rows up to the contradiction."""
    n, rows = system_rows
    system = LinearSystem(n)
    for coeffs, rhs in rows:
        system.add_row(coeffs, rhs)
    assert_matches_parent_elimination(system)


def assert_matches_parent_elimination(system: LinearSystem) -> None:
    parent = ref.ParentElimination(system.num_unknowns)
    for coeffs, rhs, scale in ref.stored_rows(system):
        parent.add_int_row(coeffs, rhs, scale)
    out, expected = system.solve(), parent.solve()
    assert isinstance(out, Infeasibility) == isinstance(expected, Infeasibility)
    if isinstance(out, Infeasibility):
        assert out.row_index == expected.row_index
        scale = expected.farkas[expected.row_index]
        assert out.farkas == {k: v / scale for k, v in expected.farkas.items()}
        assert out.residual == expected.residual / scale
    else:
        assert out == expected


MULTI_BIT = st.builds(Q, st.integers(-(2**20), 2**20), st.integers(1, 2**10))


@st.composite
def dense_systems(draw):
    """Dense rows over up to six unknowns with multi-bit ``p/q`` entries,
    some of them a combination of two earlier rows, so that they reduce
    to ``0 = 0``.  Every right-hand side agrees with one drawn solution
    except on at most one drawn row, which is then off by a nonzero
    amount.  A new lead of such rows is rarely 1 after its row is made
    primitive, so clearing it scales the rows kept before by more than
    1."""
    n = draw(st.integers(1, 6))
    rows: list[dict] = []
    for _ in range(draw(st.integers(1, 8))):
        if rows and draw(st.booleans()):
            u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            a, b = draw(MULTI_BIT), draw(MULTI_BIT)
            rows.append({c: a * u.get(c, 0) + b * v.get(c, 0) for c in range(n)})
        else:
            rows.append(draw(st.fixed_dictionaries({c: MULTI_BIT for c in range(n)})))
    solution = draw(st.lists(MULTI_BIT, min_size=n, max_size=n))
    off = draw(st.sets(st.integers(0, len(rows) - 1), max_size=1))
    shift = draw(MULTI_BIT.filter(bool))
    return n, [
        (row, sum((v * solution[c] for c, v in row.items()), shift if k in off else Q(0)))
        for k, row in enumerate(rows)
    ]


@settings(max_examples=200)
@given(dense_systems())
@example((2, [({0: Q(1), 1: Q(1)}, Q(1)), ({0: Q(1), 1: Q(3)}, Q(2))]))
def test_dense_multi_bit_systems_match_the_parent_elimination(system_rows):
    """Solutions, and a refutation's row, and its Farkas multipliers and
    residual up to scale, are those of the parent elimination on dense
    rows with multi-bit entries.  In the explicit example the second row
    leaves 2·x1 = 1, and clearing x1 from the first row scales it by 2."""
    n, rows = system_rows
    system = LinearSystem(n)
    for coeffs, rhs in rows:
        system.add_row(coeffs, rhs)
    assert_matches_parent_elimination(system)


ROW_FACTORS = st.builds(Q, st.integers(-(2**10), 2**10).filter(bool), st.integers(1, 2**10))


@settings(max_examples=200)
@given(st.one_of(block_systems(), dense_systems()), st.lists(ROW_FACTORS, min_size=1))
@example((2, [({0: Q(1), 1: Q(1)}, Q(1)), ({0: Q(2), 1: Q(2)}, Q(3))]), [Q(3), Q(-1, 2)])
def test_a_refutation_is_fixed_by_the_rows(system_rows, factors):
    """Multiplying each row k by a nonzero c_k, the factors taken in turn,
    keeps the solution, or the contradiction row idx with multipliers
    farkas[k]·c_idx/c_k, 1 at idx, and residual c_idx·residual: the
    refutation depends on the rows, not on how elimination scaled them."""
    n, rows = system_rows
    system, scaled = LinearSystem(n), LinearSystem(n)
    c = [factors[k % len(factors)] for k in range(len(rows))]
    for (coeffs, rhs), ck in zip(rows, c):
        system.add_row(coeffs, rhs)
        scaled.add_row({u: ck * v for u, v in coeffs.items()}, ck * rhs)
    out, out_scaled = system.solve(), scaled.solve()
    if not isinstance(out, Infeasibility):
        assert out_scaled == out
        return
    idx = out.row_index
    assert out_scaled.row_index == idx
    assert out.farkas[idx] == out_scaled.farkas[idx] == 1
    assert out_scaled.farkas == {k: v * c[idx] / c[k] for k, v in out.farkas.items()}
    assert out_scaled.residual == c[idx] * out.residual


@st.composite
def shifted_blocks(draw):
    """Calls that add rows over ``n`` unknowns: ``("shifted", templates,
    shifts)`` for :meth:`LinearSystem.add_shifted_rows`, with shifts as a
    range of length 1 or more with a positive step, and
    ``("single", row)`` for :meth:`LinearSystem.add_int_row`.  A template
    is an integer row ``(coeffs, rhs, den)`` over the unknowns
    0..width-1, and every shift keeps it inside 0..n-1."""
    n = draw(st.integers(1, 12))
    calls = []
    for _ in range(draw(st.integers(1, 6))):
        width = draw(st.integers(1, n))
        template = st.tuples(
            st.dictionaries(st.integers(0, width - 1), st.integers(-3, 3), max_size=3),
            st.integers(-2, 2),
            st.integers(1, 4),
        )
        room = n - width
        kind = draw(st.sampled_from(["range", "single"]))
        if kind == "single":
            coeffs, rhs, den = draw(template)
            shift = draw(st.integers(0, room))
            calls.append(("single", ({c + shift: v for c, v in coeffs.items()}, rhs, den)))
            continue
        start = draw(st.integers(0, room))
        shifts = range(start, draw(st.integers(start + 1, room + 1)), draw(st.integers(1, 3)))
        calls.append(("shifted", draw(st.lists(template, max_size=3)), shifts))
    return n, calls


def _reference_reach(rows, seeds, last):
    """The rows 0..last joined to a seed through shared unknowns, found
    over the list of all rows."""
    seen_rows, stack, seen_cols = set(seeds), list(seeds), set()
    while stack:
        for c in rows[stack.pop()][0]:
            if c not in seen_cols:
                seen_cols.add(c)
                for k, (coeffs, _, _) in enumerate(rows[: last + 1]):
                    if c in coeffs and k not in seen_rows:
                        seen_rows.add(k)
                        stack.append(k)
    return sorted(seen_rows)


@settings(max_examples=200)
@given(shifted_blocks(), st.data())
def test_blocks_read_as_the_rows_added_one_at_a_time(blocks, data):
    """A system built from blocks of shifted templates has the length,
    rows, reach, combinations and solution or refutation of the same
    rows added one at a time, and refuses a row index outside it with
    the same message."""
    n, calls = blocks
    system, single = LinearSystem(n), LinearSystem(n)
    for call in calls:
        if call[0] == "single":
            system.add_int_row(*call[1])
            single.add_int_row(*call[1])
        else:
            _, templates, shifts = call
            system.add_shifted_rows(templates, shifts)
            for s in shifts:
                for coeffs, rhs, den in templates:
                    single.add_int_row({c + s: v for c, v in coeffs.items()}, rhs, den)
    assert len(system) == len(single)
    rows = ref.stored_rows(single)
    assert ref.stored_rows(system) == rows
    for k in range(len(system)):
        assert system.row_as_fractions(k) == single.row_as_fractions(k)
    for k in (-1, len(system)):
        message = f"row {k} is outside 0..{len(system) - 1}"
        for s in (system, single):
            with pytest.raises(IndexError, match=f"^{message}$"):
                s.row_as_fractions(k)
    for k in range(len(rows)):
        reached = _reference_reach(rows, [k], len(rows) - 1)
        assert system._reach([k], len(rows) - 1) == single._reach([k], len(rows) - 1) == reached
    if rows:
        last = data.draw(st.integers(0, len(rows) - 1))
        seeds = data.draw(st.sets(st.integers(0, last), min_size=1, max_size=3))
        reached = _reference_reach(rows, seeds, last)
        assert system._reach(seeds, last) == single._reach(seeds, last) == reached
        farkas = data.draw(st.dictionaries(st.integers(0, len(rows) - 1), rationals, max_size=4))
        assert system.combine(farkas) == single.combine(farkas)
    assert system.solve() == single.solve()


# ---------------------------------------------------------------- components


def _bfs_parts(n: int, groups) -> set[frozenset[int]]:
    """The parts of range(n) joined by the groups, by breadth-first search
    over the graph linking consecutive members of each group."""
    neighbours = [set() for _ in range(n)]
    for group in groups:
        for a, b in zip(group, group[1:]):
            neighbours[a].add(b)
            neighbours[b].add(a)
    seen: set[int] = set()
    parts = set()
    for start in range(n):
        if start in seen:
            continue
        part, queue = {start}, [start]
        for k in queue:
            for nb in neighbours[k] - part:
                part.add(nb)
                queue.append(nb)
        seen |= part
        parts.add(frozenset(part))
    return parts


@st.composite
def index_groups(draw):
    n = draw(st.integers(0, 12))
    size = 4 if n else 0
    member = st.integers(0, max(n - 1, 0))
    groups = draw(st.lists(st.lists(member, max_size=size), max_size=8))
    return n, groups


@settings(max_examples=200)
@given(index_groups())
def test_components_match_a_breadth_first_search(case):
    """As partitions, whatever the groups; each part is labelled by its
    least index.  Covers n = 0, empty groups and singleton groups."""
    n, groups = case
    labels = components(n, groups)
    parts: dict[int, set[int]] = {}
    for i, label in enumerate(labels):
        parts.setdefault(label, set()).add(i)
    assert set(map(frozenset, parts.values())) == _bfs_parts(n, groups)
    assert all(label == min(part) for label, part in parts.items())


def test_components_of_edge_cases():
    assert components(0, []) == []
    assert components(0, [[]]) == []
    assert components(3, [[], [1], [2, 2]]) == [0, 1, 2]
    assert components(4, [[3, 1], [2], [1, 0]]) == [0, 0, 2, 0]


# ---------------------------------------------------------------- tensor legs

def random_entry(rng, kind):
    """A nonzero int, or a nonzero Fraction with a denominator up to 3."""
    num = rng.choice((-3, -2, -1, 1, 2, 3))
    return num if kind == "int" else Q(num, rng.randint(1, 3))


def random_columns(rng, n_cols, n_rows, kind, density=0.5):
    """Sparse columns with no zeros stored; column 1 repeats column 0, so
    a vector that holds e_0 and e_1 with opposite entries cancels."""
    cols = [
        {i: random_entry(rng, kind) for i in range(n_rows) if rng.random() < density}
        for _ in range(n_cols)
    ]
    if n_cols > 1:
        cols[1] = dict(cols[0])
    return cols


def cancelling_vector(rng, dim_v, dim_w, kind):
    """A sparse vector of V (x) W with opposite entries at e_0 (x) e_j and
    e_1 (x) e_j, and some random others."""
    vec = {
        k: random_entry(rng, kind) for k in range(dim_v * dim_w) if rng.random() < 0.4
    }
    j = rng.randrange(dim_w)
    c = random_entry(rng, kind)
    vec[j], vec[dim_w + j] = c, -c
    return vec


def as_column(vec, space: Space) -> LinearMap:
    """The map k -> space sending 1 to ``vec``."""
    return LinearMap.from_sparse_columns(Space.scalar(), space, [vec])


def assert_adds_into(kernel, image: dict, scale: int, dim: int, rng):
    """Call ``kernel(acc)`` on an ``acc`` preloaded on some output keys of
    a space of dimension ``dim``, one of them cancelling an entry of the
    rational ``image`` taken over ``scale``.  The kernel returns that
    same dict, holding ``int`` entries that are the preload plus the
    image, and the cancelled entry stays, as a zero."""
    image = {k: Fraction(v * scale) for k, v in image.items()}
    assert all(v.denominator == 1 for v in image.values())
    preload = {rng.randrange(dim): random_entry(rng, "int") for _ in range(2)}
    cancel = min(image, default=None)
    if cancel is not None:
        preload[cancel] = -int(image[cancel])
    acc = dict(preload)
    got = kernel(acc)
    assert got is acc
    expect = dict(preload)
    for k, v in image.items():
        expect[k] = expect.get(k, 0) + v
    assert linalg.nonzero(got) == linalg.nonzero(expect)
    assert all(type(v) is int for v in got.values())
    if cancel is not None:
        assert cancel in got and got[cancel] == 0


def scaled(vec: dict) -> tuple[int, dict[int, int]]:
    """A sparse rational vector as integers over its least denominator."""
    den, (ints,) = integer_scaled([vec])
    return den, ints


def read_over(vec: dict[int, int], den: int) -> dict[int, Fraction]:
    return {k: Fraction(v, den) for k, v in vec.items()}


@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("seed", range(12))
def test_leg_maps_match_kron_with_the_identity(seed, kind):
    """on_left is (f (x) id) and on_right is (id (x) f), on vectors whose
    terms cancel, added into a preloaded ``acc`` (:func:`assert_adds_into`)
    with the inputs left as they were.  Rational entries ("fraction") are
    scaled to integers first: the image is the product of the two
    denominators times the map's."""
    rng = random.Random(seed)
    dv, dw, dx = rng.randint(2, 4), rng.randint(1, 3), rng.randint(1, 4)
    v, w, x = Space.of_dim(dv, "v"), Space.of_dim(dw, "w"), Space.of_dim(dx, "x")
    f_cols = random_columns(rng, dv, dx, kind)
    f = LinearMap.from_sparse_columns(v, x, f_cols)
    ident = LinearMap.identity(w)
    left = cancelling_vector(rng, dv, dw, kind)
    # the same kind of vector in W (x) V, whose f-leg is the right one
    right = {
        k % dw * dv + k // dw: val for k, val in cancelling_vector(rng, dv, dw, kind).items()
    }
    (den_l, left_ints), (den_r, right_ints) = scaled(left), scaled(right)
    saved = [dict(c) for c in f.cols], dict(left_ints), dict(right_ints)
    expect_left = ref.fcols(f.kron(ident).compose(as_column(left, v.tensor(w))))[0]
    expect_right = ref.fcols(ident.kron(f).compose(as_column(right, w.tensor(v))))[0]
    assert_adds_into(
        lambda acc: on_left(left_ints, f.cols, dw, acc), expect_left, f.den * den_l, dx * dw, rng
    )
    assert_adds_into(
        lambda acc: on_right(right_ints, f.cols, dv, dx, acc),
        expect_right,
        f.den * den_r,
        dw * dx,
        rng,
    )
    assert ([dict(c) for c in f.cols], left_ints, right_ints) == saved


def random_algebra(rng, n, kind) -> FDAlgebra:
    """Structure constants at random, not associative in general; for
    n > 1, e_1·e_k equals e_0·e_k, so products with opposite legs e_0 and
    e_1 cancel."""
    flat = random_columns(rng, n * n, n, kind, density=0.4)
    rows = [flat[i * n : (i + 1) * n] for i in range(n)]
    if n > 1:
        rows[1] = [dict(p) for p in rows[0]]
    return FDAlgebra(Space.of_dim(n, "a"), rows, {})


@pytest.mark.parametrize("kind", ["int", "fraction"])
@pytest.mark.parametrize("seed", range(12))
def test_tensor_mul_matches_the_tensor_algebra(seed, kind):
    """tensor_mul on the two flattened tables adds the product of
    tensor_algebra into a preloaded ``acc`` (:func:`assert_adds_into`),
    on factors whose terms cancel, scaled by the denominators of both
    tables and both factors."""
    rng = random.Random(100 + seed)
    da, db = rng.randint(2, 3), rng.randint(1, 3)
    a, b = random_algebra(rng, da, kind), random_algebra(rng, db, kind)
    flat_a = [p for row in a.table for p in row]
    flat_b = [p for row in b.table for p in row]
    t = tensor_algebra(a, b)
    for _ in range(4):
        (den_x, x), (den_y, y) = (scaled(cancelling_vector(rng, da, db, kind)) for _ in "xy")
        expect = ref.mul_sparse(ref.ftable(t), read_over(x, den_x), read_over(y, den_y))
        assert_adds_into(
            lambda acc: tensor_mul(x, y, flat_a, da, flat_b, db, acc),
            expect,
            a.den * b.den * den_x * den_y,
            da * db,
            rng,
        )


class _LastRead(list):
    """A flattened table that keeps the product it was last read for."""

    last = None

    def __getitem__(self, k):
        self.last = prod = super().__getitem__(k)
        return prod


class _ReadAfter(list):
    """A flattened table that may be read only right after a nonempty
    product of ``other``; it counts its reads."""

    def __init__(self, items, other: _LastRead):
        super().__init__(items)
        self.other, self.reads = other, 0

    def __getitem__(self, k):
        assert self.other.last, "table_a read for a pair whose B product is empty"
        self.reads += 1
        return super().__getitem__(k)


@pytest.mark.parametrize("seed", range(8))
def test_tensor_mul_reads_no_a_product_for_an_empty_b_product(seed):
    """A pair of terms whose B factors multiply to zero reads nothing of
    ``table_a``: on random tables with a product emptied and on O(Z4),
    where 4 of the 16 products are not empty, ``table_a`` is read once
    for each pair with a nonempty B product, and the result is that of
    the plain tables."""
    rng = random.Random(200 + seed)
    if seed % 2:
        a = b = function_algebra(4)
    else:
        a = random_algebra(rng, rng.randint(2, 3), "int")
        b = random_algebra(rng, rng.randint(2, 3), "int")
    da, db = a.dim, b.dim
    flat_a = [p for row in a.table for p in row]
    flat_b = [p for row in b.table for p in row]
    if seed % 2 == 0:
        flat_b[rng.randrange(db * db)] = {}
    x, y = (cancelling_vector(rng, da, db, "int") for _ in "xy")
    table_b = _LastRead(flat_b)
    table_a = _ReadAfter(flat_a, table_b)
    assert tensor_mul(x, y, table_a, da, table_b, db, {}) == tensor_mul(
        x, y, flat_a, da, flat_b, db, {}
    )
    assert table_a.reads == sum(
        1 for ij in x for kl in y if flat_b[ij % db * db + kl % db]
    )
