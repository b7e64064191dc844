"""Fusion of algebras over a two-pointed base, equivariant fusion, lifting,
piecewise halves, and the pullback picture."""

import json
import random
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from fusionalg import algebra as algebra_module
from fusionalg import comodule as comodule_module
from fusionalg import fusion as fusion_module
from fusionalg import linalg as linalg_module
from fusionalg.algebra import (
    FDAlgebra,
    check_algebra,
    function_algebra,
    scalar_algebra,
)
from fusionalg.classical import diagonal_join, fun_comodule
from fusionalg.comodule import (
    ComoduleAlgebra,
    _times_first_leg,
    canonical_map,
    check_comodule,
    check_strong_connection,
    coinvariants,
    delta_L,
    is_principal,
    translation_inverse,
    trivial_coaction,
)
from fusionalg.fusion import (
    BaseWithEnds,
    PreconditionError,
    SqrtPair,
    _end_conditions,
    _restrict_coaction,
    _tensor_coordinates,
    base_with_ends,
    build_equivariant_fusion,
    build_fusion,
    chain_interval,
    default_profile,
    lift_connection,
    make_sqrt_pair,
    piecewise_parts,
    pullback_identification,
    verify_theorem_main,
)
from fusionalg.groups import FiniteGroup, FiniteGSet
from fusionalg.hopf import check_hopf, group_hopf, make_hopf, trivial_hopf
from fusionalg.linalg import (
    LinearMap,
    Space,
    Subspace,
    integer_scaled,
    rref,
    tensor_vec,
)
from fusionalg.serialize import algebra_to_obj, base_from_obj, comodule_from_obj

Q = Fraction


def regular_comodule(n: int):
    return fun_comodule(FiniteGSet.regular(FiniteGroup.cyclic(n)))


def vandermonde(m: int) -> LinearMap:
    """b_j -> Σ_i (i+1)^j·δ_i on the chain 0..m: the values at the points
    of the basis vectors of :func:`skewed_chain`."""
    n = m + 1
    space = Space.of_dim(n, "b")
    return LinearMap.from_rows(space, space, [[Q((i + 1) ** j) for j in range(n)] for i in range(n)])


def skewed_chain(m: int) -> BaseWithEnds:
    """The chain 0..m in the Vandermonde basis b_j = Σ_i (i+1)^j·δ_i, so
    that neither end is a coordinate functional: e₀(b_j) = 1 and
    e₁(b_j) = (m+1)^j."""
    n = m + 1
    change = vandermonde(m)
    space, back = change.source, change.inverse()
    cols = change.cols
    table = [
        [back.apply({i: x * cols[k][i] for i, x in cols[j].items()}) for k in range(n)]
        for j in range(n)
    ]
    unit = back.apply({i: Q(1) for i in range(n)})
    ends = (LinearMap.from_rows(space, Space.scalar(), [change.rows[i]]) for i in (0, m))
    return base_with_ends(FDAlgebra.from_structure(space, table, ref.dense(unit, n)), *ends)


def upper_triangular_base():
    """T2, the upper-triangular 2×2 matrices e11, e12, e22, with the
    diagonal entries as its ends, read as ``params.base`` is read.  Its
    only central idempotents are 0 and 1."""
    table = [[{} for _ in range(3)] for _ in range(3)]
    for i, j, k in ((0, 0, 0), (0, 1, 1), (1, 2, 1), (2, 2, 2)):
        table[i][j] = {k: 1}
    algebra = FDAlgebra.from_structure(Space(("e11", "e12", "e22")), table, (1, 0, 1))
    obj = {"algebra": algebra_to_obj(algebra), "end_zero": ["1", "0", "0"],
           "end_one": ["0", "0", "1"]}
    return base_from_obj(obj, "params.base")


def orbit_count(gset: FiniteGSet) -> int:
    seen: set[int] = set()
    count = 0
    for x in range(gset.size):
        if x in seen:
            continue
        count += 1
        for g in range(gset.group.order):
            seen.add(gset.apply(x, g))
    return count


# ---------------------------------------------------------------- base and roots

def test_chain_interval_ends():
    base = chain_interval(3)
    assert base.dim == 4
    assert base.algebra.labels == ("t=0/3", "t=1/3", "t=2/3", "t=3/3")
    for k in range(4):
        assert base.end_zero.cols[k] == ({0: Q(1)} if k == 0 else {})
        assert base.end_one.cols[k] == ({0: Q(1)} if k == 3 else {})
    with pytest.raises(ValueError):
        chain_interval(0)


def test_base_with_ends_rejects_non_characters():
    alg = function_algebra(3)
    good = LinearMap.from_rows(alg.space, scalar_algebra().space, [[Q(1), Q(0), Q(0)]])
    bad = LinearMap.from_rows(alg.space, scalar_algebra().space, [[Q(1), Q(1), Q(0)]])
    other = LinearMap.from_rows(alg.space, scalar_algebra().space, [[Q(0), Q(0), Q(1)]])
    assert base_with_ends(alg, good, other)
    with pytest.raises(ValueError):
        base_with_ends(alg, bad, other)
    with pytest.raises(ValueError):
        base_with_ends(alg, good, good)  # ends must be independent


def test_make_sqrt_pair_pythagorean_profile():
    base = chain_interval(2)
    pair = make_sqrt_pair(base, (0, Q(3, 5), 1))
    assert pair.vanish_at_zero == {1: Q(3, 5), 2: Q(1)}
    assert pair.vanish_at_one == {0: Q(1), 1: Q(4, 5)}
    # pointwise s² + s'² = 1
    for k in range(3):
        s, sp = pair.vanish_at_zero.get(k, 0), pair.vanish_at_one.get(k, 0)
        assert s * s + sp * sp == 1


def test_make_sqrt_pair_rejections():
    base = chain_interval(2)
    with pytest.raises(ValueError) as exc:
        make_sqrt_pair(base, (0, Q(1, 2), 1))
    assert "1 - s^2 = 3/4 is not a perfect square at point 1" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        make_sqrt_pair(base, (Q(1, 2), Q(3, 5), 1))
    assert "endpoint constraint violated" in str(exc.value)
    with pytest.raises(ValueError):
        make_sqrt_pair(base, (0, 1))  # wrong length
    pair = make_sqrt_pair(chain_interval(1), (0, 1))
    assert pair.vanish_at_one == {0: Q(1)}


def test_default_profile():
    assert default_profile(1) == (Q(0), Q(1))
    assert default_profile(3) == (Q(0), Q(3, 5), Q(3, 5), Q(1))
    base = chain_interval(4)
    make_sqrt_pair(base, default_profile(4))  # always admissible


def test_sqrt_pair_validation():
    """Every ``SqrtPair`` is checked when it is built."""
    base = chain_interval(1)
    with pytest.raises(ValueError) as exc:
        SqrtPair(base, {0: Q(1), 1: Q(1)}, {})
    assert "does not vanish at the zero end" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        SqrtPair(base, {}, {0: Q(1), 1: Q(1)})
    assert "does not vanish at the one end" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        SqrtPair(base, {1: Q(2)}, {0: Q(1)})
    assert "squares do not sum to the unit" in str(exc.value)
    with pytest.raises(ValueError) as exc:
        SqrtPair(base, {1: Q(1), 2: Q(1)}, {0: Q(1)})
    assert "does not live on the base" in str(exc.value)


def test_sqrt_pair_refuses_a_pair_that_does_not_commute():
    """Over 2×2 matrices, s = (3/5)·diag(1, -1) and s' = (4/5)·(e12 + e21)
    have s² + s'² = 1 but anticommute.  The pair is checked before the
    ends, so any two functionals serve as ends here."""
    table = [[{} for _ in range(4)] for _ in range(4)]
    for a in range(4):
        for b in range(4):
            (i, j), (k, l) = divmod(a, 2), divmod(b, 2)
            if j == k:
                table[a][b] = {2 * i + l: 1}
    algebra = FDAlgebra.from_structure(Space(("e11", "e12", "e21", "e22")), table, (1, 0, 0, 1))
    end = LinearMap.from_sparse_columns(algebra.space, Space.scalar(), [{0: 1}, {}, {}, {}])
    base = BaseWithEnds(algebra, end, end)
    with pytest.raises(ValueError) as exc:
        SqrtPair(base, {0: Q(3, 5), 3: Q(-3, 5)}, {1: Q(4, 5), 2: Q(4, 5)})
    assert str(exc.value) == "the pair does not commute"


# ---------------------------------------------------------------- plain fusion

def test_fusion_dimension_formula():
    for nx in (1, 2, 3):
        for ny in (1, 2, 3):
            for m in (1, 2, 3):
                fusion = build_fusion(
                    chain_interval(m), function_algebra(nx), function_algebra(ny)
                )
                assert fusion.algebra.dim == ny + (m - 1) * nx * ny + nx
                assert check_algebra(fusion.algebra).ok


def test_fusion_of_scalars_is_the_base():
    for m in (1, 2, 3):
        fusion = build_fusion(chain_interval(m), scalar_algebra(), scalar_algebra())
        alg = fusion.algebra
        assert alg.dim == m + 1
        for i in range(alg.dim):
            for j in range(alg.dim):
                assert alg.table[i][j] == ({i: Q(1)} if i == j else {})


def test_fusion_with_one_point_chain_drops_middle():
    fusion = build_fusion(chain_interval(1), function_algebra(2), function_algebra(3))
    assert fusion.algebra.dim == 5


def test_fusion_carrier_is_a_subalgebra_of_the_ambient():
    fusion = build_fusion(chain_interval(2), function_algebra(2), function_algebra(2))
    assert fusion.carrier.dim == fusion.algebra.dim
    for i, b in enumerate(fusion.carrier.basis):
        assert fusion.carrier.coordinates(b) == {i: fusion.carrier.den}
    assert fusion.inclusion.source.dim == fusion.algebra.dim
    assert fusion.inclusion.target.dim == fusion.ambient.dim


# ---------------------------------------------------------------- equivariant fusion

def test_equivariant_fusion_dimension_formula():
    for n, m in ((2, 1), (2, 2), (2, 3), (3, 2)):
        inner = regular_comodule(n)
        ef = build_equivariant_fusion(chain_interval(m), inner)
        dp = dh = n
        assert ef.comodule.algebra.dim == (m - 1) * dp * dh + dp + dh
        assert check_comodule(ef.comodule).ok


def test_equivariant_fusion_with_trivial_hopf():
    p = function_algebra(3)
    inner = trivial_coaction(p, trivial_hopf())
    ef = build_equivariant_fusion(chain_interval(2), inner)
    assert ef.comodule.algebra.dim == 2 * 3 + 1
    assert coinvariants(ef.comodule).algebra.dim == ef.comodule.algebra.dim


def test_fusion_coinvariants_count_join_orbits():
    """The gauge-fused base of the equivariant fusion of functions on a free
    orbit has one dimension per orbit of the diagonal join action."""
    for n, m in ((2, 1), (2, 2), (3, 2)):
        gset = FiniteGSet.regular(FiniteGroup.cyclic(n))
        ef = build_equivariant_fusion(chain_interval(m), fun_comodule(gset))
        expect = orbit_count(diagonal_join(gset, m))
        assert coinvariants(ef.comodule).algebra.dim == expect
    # the two reference values used elsewhere
    z2 = FiniteGSet.regular(FiniteGroup.cyclic(2))
    ef1 = build_equivariant_fusion(chain_interval(1), fun_comodule(z2))
    ef2 = build_equivariant_fusion(chain_interval(2), fun_comodule(z2))
    assert coinvariants(ef1.comodule).algebra.dim == 2
    assert coinvariants(ef2.comodule).algebra.dim == 4


def test_the_re_checks_form_only_products_within_a_part(monkeypatch):
    """The O(Z4) m=7 build forms 104 carrier products, each one sum
    through ``linear_combination``, and checks 416 pairs for
    multiplicativity of the coaction, each one call of the law, where
    every pair of the 104 carrier basis vectors makes 10,816: basis
    vectors in different parts multiply to zero, and so do the legs of
    their coactions."""
    inner = regular_comodule(4)
    calls: dict[str, int] = {}

    def counted(vectors, coeffs, original=algebra_module.linear_combination):
        caller = sys._getframe(1).f_code.co_name
        calls[caller] = calls.get(caller, 0) + 1
        return original(vectors, coeffs)

    pairs, first_failure = [], comodule_module.first_failure

    def counting(axiom, detail, holds, indices=((),)):
        if axiom == "coaction_multiplicative":
            def holds(*w, decide=holds):
                pairs.append(w)
                return decide(*w)
        return first_failure(axiom, detail, holds, indices)

    monkeypatch.setattr(algebra_module, "linear_combination", counted)
    monkeypatch.setattr(comodule_module, "first_failure", counting)
    ef = build_equivariant_fusion(chain_interval(7), inner)
    assert ef.comodule.algebra.dim == 104
    assert calls["subalgebra_from_subspace"] == 104
    assert len(pairs) == 416


def test_building_a_fusion_takes_no_kernel(monkeypatch):
    """The carrier and both end conditions of the O(Z4) m=7 fusion come
    from the closed form, with no kernel of an ambient-sized map."""
    calls = []
    original = LinearMap.kernel
    monkeypatch.setattr(LinearMap, "kernel", lambda f: calls.append(f) or original(f))
    ef = build_equivariant_fusion(chain_interval(7), regular_comodule(4))
    assert ef.comodule.algebra.dim == 104
    assert calls == []


def fiber_conditions(inner: ComoduleAlgebra) -> tuple[Subspace, Subspace]:
    """1 (x) H and δ(P), the subspaces of P (x) H the ends are valued in."""
    p, h = inner.algebra, inner.hopf
    fiber = p.space.tensor(h.space)
    scalar = Subspace.from_vectors(fiber, [tensor_vec(p.unit, {a: Q(1)}, h.dim) for a in range(h.dim)])
    return scalar, Subspace(fiber, *rref(inner.coaction.cols))


def dense_sections(base, w_zero: Subspace, w_one: Subspace) -> Subspace:
    """:meth:`BaseWithEnds.sections` as the intersection of the two dense
    preimages."""
    basis, pivots = ref.sections(base, w_zero, w_one)
    space = base.algebra.space.tensor(w_zero.ambient)
    return ref.subspace(space, basis, pivots)


@pytest.mark.parametrize(
    "base, inner",
    [(lambda: chain_interval(m), lambda: regular_comodule(2)) for m in (1, 2, 3, 4)]
    + [
        (upper_triangular_base, lambda: regular_comodule(2)),
        (lambda: skewed_chain(2), lambda: regular_comodule(2)),
        (lambda: skewed_chain(1), lambda: self_coaction(sweedler_h4())),
    ],
    ids=["chain-m1", "chain-m2", "chain-m3", "chain-m4", "T2", "skewed-m2", "skewed-m1-H4"],
)
def test_closed_form_conditions_match_the_dense_preimages(base, inner):
    """cond_zero, cond_one and the carrier, each K (x) F ⊕ c₀ (x) W₀ ⊕
    c₁ (x) W₁ with W = F at a free end, equal the dense preimages of the
    end conditions and their intersection; the lower and upper halves
    of ``piecewise_parts`` are the one-end conditions, and its bases the
    preimages in C (x) P."""
    base, inner = base(), inner()
    ef = build_equivariant_fusion(base, inner)
    w_zero, w_one = fiber_conditions(inner)
    full = Subspace.full(w_zero.ambient)
    assert ef.cond_zero == dense_sections(base, w_zero, full)
    assert ef.cond_one == dense_sections(base, full, w_one)
    assert ef.carrier == dense_sections(base, w_zero, w_one)
    parts = piecewise_parts(base, inner)
    assert parts.lower_half.carrier == ef.cond_zero
    assert parts.upper_half.carrier == ef.cond_one
    p = inner.algebra
    full_p = Subspace.full(p.space)
    scalar_line = Subspace.from_vectors(p.space, [p.unit])
    assert parts.lower_base.subspace == dense_sections(base, scalar_line, full_p)
    assert parts.upper_base.subspace == dense_sections(base, full_p, coinvariants(inner).subspace)


@pytest.mark.parametrize("base", [lambda: chain_interval(2), lambda: skewed_chain(2)], ids=["chain", "skewed"])
def test_closed_form_plain_fusion_matches_the_dense_preimages(base):
    """The carrier of Fun(2) fused with Fun(3): values 1 (x) Q at the
    zero end and P (x) 1 at the one end."""
    base = base()
    left, right = function_algebra(2), function_algebra(3)
    fusion = build_fusion(base, left, right)
    fiber = left.space.tensor(right.space)
    w_zero = Subspace.from_vectors(fiber, [tensor_vec(left.unit, {j: Q(1)}, 3) for j in range(3)])
    w_one = Subspace.from_vectors(fiber, [tensor_vec({i: Q(1)}, right.unit, 3) for i in range(2)])
    assert fusion.carrier == dense_sections(base, w_zero, w_one)
    assert fusion.algebra.dim == (base.dim - 2) * 6 + 3 + 2


@pytest.mark.parametrize("ends", ["zero-one", "zero-zero", "equal", "proportional"])
def test_dependent_ends_are_refused_by_the_closed_form(ends):
    """A base built directly with a zero end, or with ends that are
    proportional, is refused by the closed form and by the fusion build
    with the message ``base_with_ends`` gives for equal ends, never with
    a division by zero."""
    chain = chain_interval(2)
    e0, e1 = chain.end_zero, chain.end_one
    zero = LinearMap.from_sparse_columns(e0.source, e0.target, [{}] * 3)
    twice = LinearMap.from_sparse_columns(e0.source, e0.target, [{0: Q(2)}, {}, {}])
    pair = {"zero-one": (zero, e1), "zero-zero": (zero, zero), "equal": (e0, e0),
            "proportional": (e0, twice)}[ends]
    message = "^the two end characters are not independent$"
    base = BaseWithEnds(chain.algebra, *pair)
    full = Subspace.full(Space.of_dim(2))
    with pytest.raises(ValueError, match=message):
        base.sections(full, full)
    with pytest.raises(ValueError, match=message):
        build_equivariant_fusion(base, regular_comodule(2))
    if ends == "equal":
        with pytest.raises(ValueError, match=message):
            base_with_ends(chain.algebra, *pair)


# ---------------------------------------------------------------- tensor coordinates

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def subspaces(draw, n: int) -> Subspace:
    """The span of 0..n random rational vectors in a space of dimension n."""
    count = draw(st.integers(0, n))
    vectors = draw(
        st.lists(
            st.lists(RATIONALS, min_size=n, max_size=n),
            min_size=count,
            max_size=count,
        )
    )
    return Subspace.from_vectors(Space.of_dim(n), map(ref.sparse, vectors))


def first_non_pivot(sub: Subspace) -> int:
    return min(set(range(sub.ambient.dim)) - set(sub.pivots))


def subspace_kron(u: Subspace, v: Subspace) -> Subspace:
    """U (x) V with the Kronecker product of the echelon bases, k major:
    the basis whose coordinates ``_tensor_coordinates`` returns.  It is
    again in echelon form, over the product of the two ``den``s, so it is
    a ``Subspace`` as it stands."""
    n2 = v.ambient.dim
    basis = tuple(tensor_vec(a, b, n2) for a in u.basis for b in v.basis)
    pivots = tuple(p * n2 + q for p in u.pivots for q in v.pivots)
    return Subspace(u.ambient.tensor(v.ambient), basis, pivots, u.den * v.den)


def test_subspace_kron_pivots():
    s1 = Space.of_dim(3, "a")
    s2 = Space.of_dim(3, "b")
    u = Subspace.from_vectors(s1, [{0: Q(1), 2: Q(2)}, {1: Q(1), 2: Q(3)}])
    v = Subspace.from_vectors(s2, [{0: Q(1), 1: Q(1)}])
    w = subspace_kron(u, v)
    assert w.ambient == s1.tensor(s2)
    assert w.dim == u.dim * v.dim
    assert w.pivots == tuple(
        p * 3 + q for p in u.pivots for q in v.pivots
    )
    # the product basis spans exactly the tensor products
    for a in u.basis:
        for b in v.basis:
            assert w.coordinates(tensor_vec(a, b, 3)) is not None
    direct = Subspace(
        w.ambient, *rref(tensor_vec(a, b, 3) for a in u.basis for b in v.basis)
    )
    assert w == direct


def tensor_coordinates(u: Subspace, v: Subspace, vec: dict):
    """``_tensor_coordinates`` of a sparse rational vector, scaled to
    integers over its denominator and read back over it."""
    den, (scaled,) = integer_scaled([vec])
    coords = _tensor_coordinates(u, v, scaled)
    return None if coords is None else {k: Q(c, den) for k, c in coords.items()}


@settings(max_examples=80)
@given(data=st.data())
def test_tensor_coordinates_match_the_kron_reducer(data):
    na = data.draw(st.integers(1, 4))
    nb = data.draw(st.integers(1, 4))
    u = data.draw(subspaces(na))
    v = data.draw(subspaces(nb))
    reference = subspace_kron(u, v)

    coeffs = data.draw(
        st.lists(RATIONALS, min_size=u.dim * v.dim, max_size=u.dim * v.dim)
    )
    inside = [Q(0)] * (na * nb)
    for k, uk in enumerate(ref.fbasis(u)):
        for l, vl in enumerate(ref.fbasis(v)):
            for idx, x in tensor_vec(uk, vl, nb).items():
                inside[idx] += coeffs[k * v.dim + l] * x
    inside = ref.sparse(inside)
    assert tensor_coordinates(u, v, inside) == ref.sparse(coeffs)
    assert ref.coordinates(reference, inside) == ref.sparse(coeffs)

    anywhere = ref.sparse(
        data.draw(st.lists(RATIONALS, min_size=na * nb, max_size=na * nb))
    )
    assert tensor_coordinates(u, v, anywhere) == ref.coordinates(reference, anywhere)
    assert tensor_coordinates(u, v, anywhere) == ref.tensor_coordinates(u, v, anywhere)

    if u.dim and v.dim < nb:
        # in U (x) B but not in U (x) V
        x = tensor_vec(u.basis[0], {first_non_pivot(v): Q(1)}, nb)
        assert tensor_coordinates(u, v, x) is None
        assert ref.coordinates(reference, x) is None
        assert tensor_coordinates(u, Subspace.full(v.ambient), x) is not None
    if v.dim and u.dim < na:
        # in A (x) V but not in U (x) V
        x = tensor_vec({first_non_pivot(u): Q(1)}, v.basis[0], nb)
        assert tensor_coordinates(u, v, x) is None
        assert ref.coordinates(reference, x) is None
        assert tensor_coordinates(Subspace.full(u.ambient), v, x) is not None


# ---------------------------------------------------------------- lifting

def test_lift_connection_base_mismatch():
    inner = regular_comodule(2)
    ef = build_equivariant_fusion(chain_interval(2), inner)
    wrong = make_sqrt_pair(chain_interval(3), default_profile(3))
    ell = is_principal(inner).connection.map
    with pytest.raises(ValueError):
        lift_connection(ef, wrong, ell)


def test_lift_connection_refuses_a_pair_on_the_swapped_ends():
    """A pair on the chain with its two ends swapped has the chain's
    labels but not its base, and is refused as a pair on another base."""
    chain = chain_interval(2)
    swapped = base_with_ends(chain.algebra, chain.end_one, chain.end_zero)
    pair = SqrtPair(swapped, {0: Q(1), 1: Q(3, 5)}, {1: Q(4, 5), 2: Q(1)})
    inner = regular_comodule(2)
    ef = build_equivariant_fusion(chain, inner)
    with pytest.raises(ValueError) as err:
        lift_connection(ef, pair, is_principal(inner).connection.map)
    assert str(err.value) == "square-root pair lives on a different base"
    with pytest.raises(ValueError) as err:
        verify_theorem_main(inner, 2, sqrt=pair)
    assert str(err.value) == "square-root pair does not live on the chain 0..m"


def test_lift_connection_shape_guard():
    inner = regular_comodule(2)
    ef = build_equivariant_fusion(chain_interval(2), inner)
    pair = make_sqrt_pair(chain_interval(2), default_profile(2))
    with pytest.raises(ValueError):
        lift_connection(ef, pair, LinearMap.identity(inner.algebra.space))


def test_lifted_connection_satisfies_all_boundary_displays():
    inner = regular_comodule(2)
    ef = build_equivariant_fusion(chain_interval(2), inner)
    pair = make_sqrt_pair(chain_interval(2), default_profile(2))
    ell = is_principal(inner).connection.map
    lifted = lift_connection(ef, pair, ell)
    assert lifted.corestricts == (True, True, True, True)
    assert lifted.report.ok, lifted.report.failures


def _chain_lift(inner, profile):
    """The fusion of ``inner`` over the chain, the pair of ``profile``,
    and the solver's connection on ``inner``."""
    base = chain_interval(len(profile) - 1)
    ef = build_equivariant_fusion(base, inner)
    return ef, make_sqrt_pair(base, profile), is_principal(inner).connection.map


def _regular_z2_lift():
    return _chain_lift(regular_comodule(2), default_profile(2))


def _non_connection(ef) -> LinearMap:
    """ℓ(e0) = e0⊗e1, ℓ = 0 elsewhere: no connection on ``ef.inner``."""
    p, h = ef.inner.algebra, ef.inner.hopf
    cols = [{} for _ in range(h.dim)]
    cols[0] = {0 * p.dim + 1: 1}
    return LinearMap.from_sparse_columns(h.space, p.space.tensor(p.space), cols)


def test_lift_connection_rejects_a_non_connection():
    ef, pair, _ = _regular_z2_lift()
    with pytest.raises(AssertionError) as err:
        lift_connection(ef, pair, _non_connection(ef))
    assert str(err.value) == (
        "lifted image leaves the carrier: one-end condition on the left "
        "factor, one-end condition on the right factor"
    )


def _negative_chain_lift(inner):
    """The chain 0..2 with s = (0, -3/5, -1) and s' = (-1, 4/5, 0), so
    that e₁(s) = e₀(s') = -1."""
    base = chain_interval(2)
    pair = SqrtPair(base, {1: Q(-3, 5), 2: Q(-1)}, {0: Q(-1), 1: Q(4, 5)})
    return build_equivariant_fusion(base, inner), pair, is_principal(inner).connection.map


def _skewed_chain_lift(inner):
    """The skewed chain 0..2, whose ends are no coordinate functionals,
    with the chain pair (0, 3/5, 1), (1, 4/5, 0) moved into its basis."""
    base = skewed_chain(2)
    back = vandermonde(2).inverse()
    pair = SqrtPair(base, back.apply({1: Q(3, 5), 2: Q(1)}), back.apply({0: Q(1), 1: Q(4, 5)}))
    return build_equivariant_fusion(base, inner), pair, is_principal(inner).connection.map


def test_successful_lift_computes_no_boundary_display(monkeypatch):
    """A successful lift reduces its two fiber tensors in the fiber, by
    W₁ ⊗ W₁ and W₀ ⊗ W₀, never by a subspace of the ambient, records all
    four flags, and names no refusal."""
    ef, pair, ell = _regular_z2_lift()
    calls = []

    def counted(left, right, vec):
        calls.append((left, right))
        return _tensor_coordinates(left, right, vec)

    def refused(*args):
        raise AssertionError("a successful lift computed a refusal")

    monkeypatch.setattr(fusion_module, "_tensor_coordinates", counted)
    monkeypatch.setattr(fusion_module, "_refusal", refused)
    lifted = lift_connection(ef, pair, ell)
    assert lifted.corestricts == (True, True, True, True)
    assert lifted.report.ok, lifted.report.failures
    assert calls == [(ef.w_one, ef.w_one), (ef.w_zero, ef.w_zero)] * ef.inner.hopf.dim
    assert all(left.ambient != ef.ambient.space for left, _ in calls)


def test_the_lifted_re_check_decides_each_law_in_one_accumulation(monkeypatch):
    """On the O(Z4) m=7 lifted map, ``check_strong_connection`` makes no
    ``nonzero`` copy: each colinearity law adds both of its sides into one
    vector per column, splitting and the counit product into one more
    each, and every ``on_left`` or ``on_right`` call adds into it."""
    ef, pair, ell = _chain_lift(regular_comodule(4), default_profile(7))
    lifted = lift_connection(ef, pair, ell)
    copies, nonzero = [], linalg_module.nonzero
    monkeypatch.setattr(linalg_module, "nonzero", lambda vec: copies.append(vec) or nonzero(vec))
    sums: dict[str, list] = {}
    for name in ("on_left", "on_right"):
        def counted(*args, original=getattr(comodule_module, name)):
            acc = original(*args)
            sums.setdefault(sys._getframe(1).f_code.co_name, []).append(acc)
            return acc

        monkeypatch.setattr(comodule_module, name, counted)
    assert check_strong_connection(ef.comodule, lifted.map).ok
    assert copies == []
    dh = ef.inner.hopf.dim
    assert {law: len(accs) for law, accs in sums.items()} == {
        "right_colinear_and_splits": 3 * dh,
        "left_colinear": 2 * dh,
        "counit_product": dh,
    }
    assert {law: len({id(acc) for acc in accs}) for law, accs in sums.items()} == {
        "right_colinear_and_splits": 2 * dh,
        "left_colinear": dh,
        "counit_product": dh,
    }


def test_refused_lift_names_its_displays_on_the_fiber(monkeypatch):
    """A refused lift names the displays it fails from the fiber tensors:
    every ``_tensor_coordinates`` call takes two subspaces of F = P (x) H,
    and neither end condition of the ambient is computed."""
    ef, pair, _ = _regular_z2_lift()
    calls = []

    def counted(left, right, vec):
        calls.append((left.ambient, right.ambient))
        return _tensor_coordinates(left, right, vec)

    monkeypatch.setattr(fusion_module, "_tensor_coordinates", counted)
    with pytest.raises(AssertionError) as err:
        lift_connection(ef, pair, _non_connection(ef))
    assert str(err.value).startswith("lifted image leaves the carrier: ")
    fiber = ef.w_one.ambient
    assert calls and set(calls) == {(fiber, fiber)}
    assert "cond_one" not in vars(ef) and "cond_zero" not in vars(ef)


def _outside_one_end(ef) -> dict:
    """An ambient basis vector outside the one-end condition."""
    return next(
        {k: Q(1)}
        for k in range(ef.ambient.dim)
        if ef.cond_one.coordinates({k: Q(1)}) is None
    )


MISSES_THE_SPLITTING = (
    "lifted image passes the boundary displays, but the carrier misses "
    "s (x) W₁ or s' (x) W₀"
)


@pytest.mark.parametrize("outside", [False, True], ids=["smaller", "outside-a-condition"])
def test_lift_into_a_hand_built_carrier_names_the_carrier_square(outside):
    """With a carrier that drops one basis vector of cond_one ∩ cond_zero,
    or that also takes in a vector outside the one-end condition, the
    genuine lift passes all four boundary displays, but the carrier
    misses some s⊗w or s'⊗u."""
    ef, pair, ell = _regular_z2_lift()
    vectors = list(ef.carrier.basis[:-1])
    if outside:
        vectors.append(_outside_one_end(ef))
    carrier = Subspace(ef.ambient.space, *rref(vectors))
    with pytest.raises(AssertionError) as err:
        lift_connection(replace(ef, carrier=carrier), pair, ell)
    assert str(err.value) == MISSES_THE_SPLITTING


def test_lift_into_a_smaller_carrier_is_refused_for_every_dropped_vector():
    """Every carrier basis vector k of H4 on itself over the chain 0..1
    takes part in some s⊗w or s'⊗u, so dropping any one of them refuses
    the genuine lift, which passes all four displays."""
    inner = self_coaction(sweedler_h4())
    ef, pair, ell = _chain_lift(inner, default_profile(1))
    for k in range(ef.carrier.dim):
        kept = ef.carrier.basis[:k] + ef.carrier.basis[k + 1 :]
        carrier = Subspace(ef.ambient.space, *rref(kept))
        with pytest.raises(AssertionError) as err:
            lift_connection(replace(ef, carrier=carrier), pair, ell)
        assert str(err.value) == MISSES_THE_SPLITTING


def test_restriction_names_the_carrier_vector_the_coaction_moves():
    """t₀⊗1⊗1 and t₁⊗1⊗1 are coaction-stable idempotents, t₁⊗δ₀⊗δ₀ is
    an idempotent that the coaction moves; their span is a subalgebra
    whose echelon basis vector 1, pivoting at t₁⊗δ₀⊗δ₀, is the first that
    leaves the carrier under the coaction."""
    inner = regular_comodule(2)
    ambient, coaction, _, _ = _end_conditions(chain_interval(1), inner)
    unit_ph = tensor_vec(inner.algebra.unit, inner.hopf.algebra.unit, 2)
    carrier = Subspace.from_vectors(
        ambient.space,
        [tensor_vec({0: Q(1)}, unit_ph, 4), tensor_vec({1: Q(1)}, unit_ph, 4), {4: Q(1)}],
    )
    assert carrier.pivots == (0, 4, 5)
    with pytest.raises(AssertionError) as err:
        _restrict_coaction(ambient, coaction, inner.hopf, carrier, "c")
    assert str(err.value) == (
        "carrier is not stable under the coaction: carrier basis vector 1"
    )


LIFTS = {
    "O(Z3)-m3": lambda: _chain_lift(regular_comodule(3), (0, Q(5, 13), Q(8, 17), 1)),
    "H4-m2": lambda: _chain_lift(self_coaction(sweedler_h4()), (0, Q(8, 17), 1)),
    "O(Z3)-skewed-m2": lambda: _skewed_chain_lift(regular_comodule(3)),
    "H4-negative-m2": lambda: _negative_chain_lift(self_coaction(sweedler_h4())),
}


@pytest.mark.parametrize("make", LIFTS.values(), ids=LIFTS)
def test_lift_matches_the_fraction_reference(make):
    """Square-root pairs over 13 and 17 (5/13, 12/13 and 8/17, 15/17), a
    pair with the end values -1, and a base whose ends are no coordinate
    functionals: the integer lift gives the map, boundary flags and
    report of the ``Fraction`` reference, which computes every display."""
    ef, pair, ell = make()
    lifted = lift_connection(ef, pair, ell)
    expected = ref.lift_connection(ef, pair, ell)
    assert lifted.map == expected.map
    assert lifted.corestricts == expected.corestricts == (True,) * 4
    assert lifted.report == expected.report
    assert lifted.report.ok


def _upper_triangular_lift(inner):
    """The fusion of ``inner`` over T2, the pair s = e22, s' = e11, and
    the solver's connection on ``inner``."""
    base = upper_triangular_base()
    ef = build_equivariant_fusion(base, inner)
    pair = SqrtPair(base, {2: Q(1)}, {0: Q(1)})
    return ef, pair, is_principal(inner).connection.map


UPPER_TRIANGULAR_INNERS = {
    "O(Z2)": lambda: regular_comodule(2),
    "O(Z3)": lambda: regular_comodule(3),
    "H4": lambda: self_coaction(sweedler_h4()),
}


@pytest.mark.parametrize("inner", UPPER_TRIANGULAR_INNERS.values(), ids=UPPER_TRIANGULAR_INNERS)
def test_lift_over_the_upper_triangular_base_matches_the_fraction_reference(inner):
    """Over the noncommutative base T2, whose carrier is one part and
    whose kernel K is not spanned by points, the lift through the fiber
    gives the map, flags and report of the ``Fraction`` reference, which
    reduces every ambient² column, and passes its battery."""
    ef, pair, ell = _upper_triangular_lift(inner())
    lifted = lift_connection(ef, pair, ell)
    expected = ref.lift_connection(ef, pair, ell)
    assert lifted.map == expected.map
    assert lifted.corestricts == expected.corestricts == (True,) * 4
    assert lifted.report == expected.report
    assert lifted.report.ok, lifted.report.failures


@pytest.mark.parametrize(
    "make",
    [
        lambda: _regular_z2_lift(),
        lambda: _upper_triangular_lift(regular_comodule(3)),
        lambda: _upper_triangular_lift(self_coaction(sweedler_h4())),
        lambda: _skewed_chain_lift(regular_comodule(2)),
        lambda: _negative_chain_lift(regular_comodule(2)),
    ],
    ids=["O(Z2)-chain-m2", "O(Z3)-T2", "H4-T2", "O(Z2)-skewed-m2", "O(Z2)-negative-m2"],
)
def test_lift_of_a_changed_connection_agrees_with_the_fraction_reference(make):
    """ℓ with one entry changed, at a seeded position to a seeded value
    (zero among them): the lift and the ``Fraction`` reference both
    refuse it, naming the same failing displays, or both return the same
    map, flags and report."""
    rng = random.Random(23)
    ef, pair, ell = make()
    outcomes = set()
    for _ in range(16):
        cols = ref.fcols(ell)
        c, r = rng.randrange(ell.source.dim), rng.randrange(ell.target.dim)
        cols[c][r] = rng.choice([Q(0), Q(1), Q(-1), Q(1, 2), Q(-3, 5)])
        changed = LinearMap.from_sparse_columns(ell.source, ell.target, cols)
        try:
            expected = ref.lift_connection(ef, pair, changed)
        except AssertionError as refused:
            with pytest.raises(AssertionError) as err:
                lift_connection(ef, pair, changed)
            assert str(err.value) == str(refused)
            outcomes.add("refused")
            continue
        lifted = lift_connection(ef, pair, changed)
        assert lifted.map == expected.map
        assert lifted.corestricts == expected.corestricts
        assert lifted.report == expected.report
        outcomes.add("lifted")
    assert outcomes == {"refused", "lifted"}


def test_lift_into_a_carrier_outside_the_conditions_checks_the_displays():
    """A carrier that is not inside both conditions proves nothing about
    them, even when the image lies in its square: with the whole ambient
    as the carrier, a map that is no connection is still refused by the
    displays it fails."""
    ef, pair, _ = _regular_z2_lift()
    whole = replace(ef, carrier=Subspace.full(ef.ambient.space))
    with pytest.raises(AssertionError) as err:
        lift_connection(whole, pair, _non_connection(ef))
    assert str(err.value) == (
        "lifted image leaves the carrier: one-end condition on the left "
        "factor, one-end condition on the right factor"
    )


# ---------------------------------------------------------------- the main statement

def test_verify_theorem_main_smallest_case():
    cert = verify_theorem_main(regular_comodule(2), 1)
    assert cert.lifted.sqrt.vanish_at_zero == {1: Q(1)}
    assert cert.fusion.comodule.algebra.dim == 4
    assert cert.input_verdict.principal
    assert cert.fusion_verdict.principal
    assert cert.lifted.report.ok


def test_verify_theorem_main_records_profile():
    cert = verify_theorem_main(regular_comodule(2), 2)
    assert cert.lifted.sqrt.vanish_at_zero == {1: Q(3, 5), 2: Q(1)}
    assert cert.fusion.comodule.algebra.dim == 8


def test_verify_theorem_main_refuses_non_principal_input():
    from fusionalg.hopf import function_hopf

    bad = trivial_coaction(function_algebra(1), function_hopf(FiniteGroup.cyclic(2)))
    with pytest.raises(PreconditionError):
        verify_theorem_main(bad, 2)


def test_verify_theorem_main_sqrt_route():
    inner = regular_comodule(2)
    pair = make_sqrt_pair(chain_interval(2), default_profile(2))
    by_default = verify_theorem_main(inner, 2)
    by_pair = verify_theorem_main(inner, 2, sqrt=pair)
    assert by_pair.lifted.sqrt is pair
    assert by_default.lifted.sqrt == pair
    assert by_pair.lifted.map.rows == by_default.lifted.map.rows
    with pytest.raises(TypeError):
        verify_theorem_main(inner, 2, profile=(0, Q(3, 5), 1))
    with pytest.raises(ValueError):
        verify_theorem_main(inner, 3, sqrt=pair)  # pair lives on the m=2 chain


def test_alternate_profile_changes_lift_not_verdicts():
    inner = regular_comodule(2)
    base = chain_interval(2)
    a = verify_theorem_main(inner, 2, make_sqrt_pair(base, (0, Q(3, 5), 1)))
    b = verify_theorem_main(inner, 2, make_sqrt_pair(base, (0, Q(4, 5), 1)))
    assert a.lifted.map.rows != b.lifted.map.rows
    assert a.input_verdict.principal == b.input_verdict.principal
    assert a.fusion_verdict.principal == b.fusion_verdict.principal


def sweedler_h4():
    """Sweedler's 4-dimensional Hopf algebra on 1, g, x, gx: g² = 1,
    x² = 0, xg = -gx, Δg = g⊗g, Δx = x⊗1 + g⊗x, S(x) = -gx."""
    one, g, x, gx = range(4)
    table = [[{} for _ in range(4)] for _ in range(4)]
    for b in range(4):
        table[one][b] = {b: Q(1)}
        table[b][one] = {b: Q(1)}
    table[g][g] = {one: Q(1)}
    table[g][x] = {gx: Q(1)}
    table[g][gx] = {x: Q(1)}
    table[x][g] = {gx: Q(-1)}
    table[gx][g] = {x: Q(-1)}
    space = Space(("1", "g", "x", "gx"))
    algebra = FDAlgebra.from_structure(space, table, (1, 0, 0, 0))
    cop = {
        one: {(one, one): 1},
        g: {(g, g): 1},
        x: {(x, one): 1, (g, x): 1},
        gx: {(gx, g): 1, (one, gx): 1},
    }
    cop_cols = [[0] * 16 for _ in range(4)]
    for b, terms in cop.items():
        for (l, r), v in terms.items():
            cop_cols[b][l * 4 + r] = v
    coproduct = LinearMap.from_columns(space, space.tensor(space), cop_cols)
    counit = LinearMap.from_rows(space, Space.scalar(), [(1, 1, 0, 0)])
    antipode = LinearMap.from_columns(
        space, space, [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)]
    )
    return make_hopf(algebra, coproduct, counit, antipode)


@pytest.mark.parametrize(
    "hopf, m",
    [(sweedler_h4, 2), (lambda: group_hopf(FiniteGroup.symmetric(3)), 1)],
    ids=["sweedler-h4-m2", "kS3-m1"],
)
def test_verify_theorem_main_hopf_coacting_on_itself(hopf, m):
    """Noncommutative or non-cocommutative inputs, where a slip in the
    δ_L, S⁻¹ or tensor-ordering conventions would show."""
    h = hopf()
    assert check_hopf(h).ok
    inner = ComoduleAlgebra(h.algebra, h, h.coproduct)
    cert = verify_theorem_main(inner, m)
    assert cert.lifted.report.ok, cert.lifted.report.failures
    assert cert.lifted.corestricts == (True, True, True, True)
    assert cert.fusion_verdict.principal


# ---------------------------------------------------------------- halves and pullback

def test_piecewise_halves_dimensions():
    parts = piecewise_parts(chain_interval(1), regular_comodule(2))
    assert parts.lower_half.comodule.algebra.dim == 6
    assert parts.upper_half.comodule.algebra.dim == 6
    assert check_comodule(parts.lower_half.comodule).ok
    assert check_comodule(parts.upper_half.comodule).ok


def test_piecewise_coinvariants_match_bases():
    inner = regular_comodule(2)
    for m in (1, 2):
        parts = piecewise_parts(chain_interval(m), inner)
        dh = inner.hopf.dim
        unit_h = inner.hopf.algebra.unit
        for half, base_wit in (
            (parts.lower_half, parts.lower_base),
            (parts.upper_half, parts.upper_base),
        ):
            ambient = half.inclusion.target
            got = Subspace.from_vectors(
                ambient,
                [half.inclusion.apply(b) for b in coinvariants(half.comodule).subspace.basis],
            )
            # C⊗P into C⊗P⊗H along x -> x⊗1
            expect = Subspace.from_vectors(
                ambient, [tensor_vec(b, unit_h, dh) for b in base_wit.subspace.basis]
            )
            assert got == expect


def test_pullback_identification_dimensions():
    inner = regular_comodule(2)
    out = pullback_identification(inner, 1, 1)
    assert out.fusion.comodule.algebra.dim == 8
    assert out.glue.source.dim == 8
    assert out.fiber.comodule.algebra.dim == 8
    out12 = pullback_identification(inner, 1, 2)
    assert out12.fusion.comodule.algebra.dim == 12
    assert out12.glue.inverse() is not None


# ---------------------------------------------------------------- dense references

def dense_mult(alg: FDAlgebra):
    """The rows of the multiplication A (x) A -> A."""
    n = alg.dim
    rows = [[Q(0)] * (n * n) for _ in range(n)]
    for i, row in enumerate(ref.ftable(alg)):
        for j, prod in enumerate(row):
            for k, v in prod.items():
                rows[k][i * n + j] = v
    return tuple(map(tuple, rows))


def flip_rows(na: int, nb: int):
    """The rows of the braiding A (x) B -> B (x) A, (i, j) -> (j, i)."""
    cols = [ref.basis_vec(na * nb, j * na + i) for i in range(na) for j in range(nb)]
    return tuple(zip(*cols))


def self_coaction(h) -> ComoduleAlgebra:
    return ComoduleAlgebra(h.algebra, h, h.coproduct)


def rescaled_nonfree_z2() -> ComoduleAlgebra:
    """O(Z2) on one free orbit and one fixed point, in a rescaled basis."""
    path = Path(__file__).parent / "golden" / "comodule_rescaled_nonfree_z2.json"
    return comodule_from_obj(json.loads(path.read_text()))


REFERENCE_COMODULES = {
    "regular-z3": lambda: regular_comodule(3),
    "rescaled-nonfree-z2": rescaled_nonfree_z2,
    "sweedler-h4": lambda: self_coaction(sweedler_h4()),
    "kS3": lambda: self_coaction(group_hopf(FiniteGroup.symmetric(3))),
    "fusion-z2-m1": lambda: build_equivariant_fusion(
        chain_interval(1), regular_comodule(2)
    ).comodule,
}


@pytest.mark.parametrize("name", sorted(REFERENCE_COMODULES))
def test_table_built_maps_match_the_dense_formulas(name):
    """The lifted canonical map, δ_L, the balanced projection, the
    canonical map and the translation inverse, built through the product
    table and by reduction, equal their dense Kronecker and quotient
    formulas."""
    c = REFERENCE_COMODULES[name]()
    p, h = c.algebra, c.hopf
    dp, dh = p.dim, h.dim
    n = dp * dp
    id_p, id_h = ref.identity(dp), ref.identity(dh)
    mult = dense_mult(p)
    lifted = ref.compose(
        ref.kron(mult, id_h, n, dh), ref.kron(id_p, c.coaction.rows, dp, dp), n
    )
    lifted_cols = ref.fcols(_times_first_leg(p, c.coaction))
    assert [ref.dense(col, dp * dh) for col in lifted_cols] == list(zip(*lifted))
    twist = ref.compose(ref.kron(h.antipode_inv.rows, id_p, dh, dp), flip_rows(dp, dh), dp * dh)
    assert delta_L(c).rows == ref.compose(twist, c.coaction.rows, dp)
    verdict = is_principal(c)
    assert verdict.principal == (name != "rescaled-nonfree-z2")
    can = canonical_map(c)
    bal = can.balanced
    rows, section = ref.quotient(
        [ref.dense(b, n) for b in ref.fbasis(bal.killed)], bal.killed.pivots, n
    )
    for j in range(n):
        assert bal.project({j: 1}) == ref.sparse(row[j] * bal.killed.den for row in rows)
    # the canonical map is the lifted one on the section, and factors it
    descended = ref.compose(lifted, tuple(zip(*section)), bal.space.dim)
    assert can.map.rows == descended
    assert ref.compose(descended, rows, n) == lifted
    if verdict.principal:
        ell = verdict.connection.map
        t = ref.compose(
            ref.compose(rows, ref.kron(mult, id_p, n, dp), n * dp),
            ref.kron(id_p, ell.rows, dp, dh),
            dp * dh,
        )
        assert translation_inverse(c, ell, can).rows == t
