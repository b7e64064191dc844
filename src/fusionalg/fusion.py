"""Fusions of algebras over a two-ended base, and lifted connections.

The base of a fusion is a commutative algebra C with two surjective
characters, thought of as evaluation at the ends of an interval.  The
model base is the chain interval: functions on the points 0..m.

Fusing squeezes an algebra between two boundary conditions inside
C (x) (fiber): the fiber is free over the interior and degenerates to a
prescribed subalgebra at each end.  The equivariant version fuses a
comodule algebra P against its own coaction picture inside
C (x) P (x) H, and the central theorem here is constructive: a strong
connection on P lifts, through an exact square-root pair on the base, to
a strong connection on the fusion.  Both directions are machine-checked
— the lifted map is verified axiom by axiom, and principality of the
fusion is re-derived independently by the solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import isqrt

from .algebra import (
    AlgebraHom,
    FDAlgebra,
    SubalgebraWitness,
    check_hom,
    direct_sum_algebra,
    function_algebra,
    scalar_algebra,
    subalgebra_from_subspace,
    tensor_algebra,
)
from .comodule import (
    CheckReport,
    ComoduleAlgebra,
    PrincipalityVerdict,
    check_comodule,
    check_strong_connection,
    coinvariants,
    is_principal,
)
from .hopf import HopfAlgebra, sweedler_legs
from .linalg import (
    LinearMap,
    Space,
    Subspace,
    common_den,
    kernel_vectors,
    linear_combination,
    nonzero,
    on_left,
    on_right,
    rref,
    tensor_vec,
)


class PreconditionError(RuntimeError):
    """A construction was refused because its hypothesis fails.

    Distinct from an axiom failure: the input is well formed, but the
    mathematical precondition (principality, freeness) does not hold.
    """


# ---------------------------------------------------------------- bases

@dataclass(frozen=True)
class BaseWithEnds:
    """A commutative algebra with two evaluation characters.

    ``end_zero`` is the scalar-fiber end; ``end_one`` is the end where
    the fused fiber degenerates onto the distinguished subalgebra.
    """

    algebra: FDAlgebra
    end_zero: LinearMap  # C -> k
    end_one: LinearMap  # C -> k

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @cached_property
    def splitting(self) -> tuple[list[dict[int, int]], dict[int, int], dict[int, int]]:
        """A basis of K = ker e₀ ∩ ker e₁ and c₀, c₁ with e₁(c₀) = 0 =
        e₀(c₁) and e₀(c₀), e₁(c₁) ≠ 0, so C = K ⊕ k·c₀ ⊕ k·c₁.  For the
        pivots p, q of the characters' echelon form, where the stored
        columns of e₀ hold a, b and those of e₁ hold c, d, so that
        ad - bc ≠ 0, c₀ = d·e_p - c·e_q and c₁ = a·e_q - b·e_p."""
        ends = (self.end_zero, self.end_one)
        values = [{j: col[0] for j, col in enumerate(e.cols) if col} for e in ends]
        rows, pivots, _ = rref(values)
        if len(pivots) != 2:
            raise ValueError("the two end characters are not independent")
        p, q = pivots
        (a, b), (c, d) = ((v.get(p, 0), v.get(q, 0)) for v in values)
        c_zero, c_one = nonzero({p: d, q: -c}), nonzero({p: -b, q: a})
        return kernel_vectors(rows, self.dim), c_zero, c_one

    def sections(self, w_zero: Subspace, w_one: Subspace) -> Subspace:
        """{x ∈ C (x) F : (e₀ (x) id)x ∈ W₀ and (e₁ (x) id)x ∈ W₁} for
        subspaces W₀, W₁ of one fiber F (W = F leaves an end free).  Over
        the :attr:`splitting`, x = Σ k (x) f + c₀ (x) y₀ + c₁ (x) y₁ has
        the values D·y₀ and D·y₁ at the ends, so this is the span of
        K (x) F ⊕ c₀ (x) W₀ ⊕ c₁ (x) W₁, reduced by one rref."""
        fiber = w_zero.ambient
        if w_one.ambient != fiber:
            raise ValueError("the two end conditions live in different fibers")
        kernel, c_zero, c_one = self.splitting
        n = fiber.dim
        vectors = [tensor_vec(k, {f: 1}, n) for k in kernel for f in range(n)]
        vectors += [tensor_vec(c_zero, w, n) for w in w_zero.basis]
        vectors += [tensor_vec(c_one, w, n) for w in w_one.basis]
        return Subspace(self.algebra.space.tensor(fiber), *rref(vectors))


def base_with_ends(
    algebra: FDAlgebra, end_zero: LinearMap, end_one: LinearMap
) -> BaseWithEnds:
    """Validate that both ends are characters and are jointly surjective
    (the two ends are genuinely distinct points)."""
    scalars = scalar_algebra()
    for name, end in (("zero", end_zero), ("one", end_one)):
        report = check_hom(AlgebraHom(algebra, scalars, end))
        if not report.ok:
            raise ValueError(f"the {name} end is not an algebra character")
    base = BaseWithEnds(algebra, end_zero, end_one)
    base.splitting  # raises unless the ends are independent
    return base


def chain_interval(m: int) -> BaseWithEnds:
    """Functions on the chain 0..m, with evaluation at the two ends."""
    if m < 1:
        raise ValueError("a chain interval needs at least two points")
    labels = tuple(f"t={k}/{m}" for k in range(m + 1))
    algebra = function_algebra(m + 1, labels)
    end_zero, end_one = (
        LinearMap.from_sparse_columns(
            algebra.space, Space.scalar(), ({0: 1} if k == end else {} for k in range(m + 1))
        )
        for end in (0, m)
    )
    return base_with_ends(algebra, end_zero, end_one)


# ---------------------------------------------------------------- square roots

@dataclass(frozen=True)
class SqrtPair:
    """Elements s, s' of the base with s² + s'² = 1, s vanishing at the
    zero end and s' at the one end, as sparse vectors, checked when built:
    read over their denominator D, s and s' multiply through the table of
    the base to D² times the products, in the scale of its unit."""

    base: BaseWithEnds
    vanish_at_zero: dict[int, Fraction]  # s
    vanish_at_one: dict[int, Fraction]  # s'

    def __post_init__(self):
        alg = self.base.algebra
        if any(not 0 <= k < alg.dim for k in (*self.vanish_at_zero, *self.vanish_at_one)):
            raise ValueError("the pair does not live on the base")
        columns = self.columns
        n, (x, y), den = alg.dim, columns.cols, columns.den
        flat = [prod for row in alg.table for prod in row]

        def times(u, v):
            return linear_combination(flat, tensor_vec(u, v, n))

        squares = linear_combination((times(x, x), times(y, y)), {0: 1, 1: 1})
        if squares != {k: v * den * den for k, v in alg.unit.items()}:
            raise ValueError("the squares do not sum to the unit")
        if times(x, y) != times(y, x):
            raise ValueError("the pair does not commute")
        if linear_combination(self.base.end_zero.cols, x):
            raise ValueError("s does not vanish at the zero end")
        if linear_combination(self.base.end_one.cols, y):
            raise ValueError("s' does not vanish at the one end")

    @property
    def columns(self) -> LinearMap:
        """s and s' as the two columns of a map to the base, in integers."""
        pair = (self.vanish_at_zero, self.vanish_at_one)
        return LinearMap.from_sparse_columns(Space.of_dim(2), self.base.algebra.space, pair)


def _exact_sqrt(q: Fraction) -> Fraction | None:
    if q < 0:
        return None
    rn, rd = isqrt(q.numerator), isqrt(q.denominator)
    if rn * rn == q.numerator and rd * rd == q.denominator:
        return Fraction(rn, rd)
    return None


def make_sqrt_pair(base: BaseWithEnds, profile) -> SqrtPair:
    """Turn a pointwise profile of s-values into an exact square-root
    pair (s, √(1-s²)) on a pointwise base.

    The profile gives s at each point; it must start at 0 and end at 1,
    and 1 - s² must be a perfect rational square everywhere (a
    Pythagorean profile, such as (0, 3/5, 1)).
    """
    values = tuple(Fraction(t) for t in profile)
    if len(values) != base.dim:
        raise ValueError("profile length does not match the base")
    if values[0] != 0 or values[-1] != 1:
        raise ValueError(
            "endpoint constraint violated: profile must start at 0 and end at 1"
        )
    s = {}
    sp = {}
    for k, v in enumerate(values):
        rp = _exact_sqrt(1 - v * v)
        if rp is None:
            raise ValueError(f"1 - s^2 = {1 - v * v} is not a perfect square at point {k}")
        if v:
            s[k] = v
        if rp:
            sp[k] = rp
    return SqrtPair(base, s, sp)


def default_profile(m: int) -> tuple[Fraction, ...]:
    """A valid profile on the chain 0..m: interior points sit at 3/5,
    completing to the exact Pythagorean pair (3/5, 4/5)."""
    if m < 1:
        raise ValueError("a chain interval needs at least two points")
    interior = Fraction(3, 5)
    return (Fraction(0),) + (interior,) * (m - 1) + (Fraction(1),)


# ---------------------------------------------------------------- tensor coordinates

def _tensor_coordinates(
    left: Subspace, right: Subspace, vec: dict[int, int]
) -> dict[int, int] | None:
    """Sparse coordinates of vec in U (x) V, one tensor factor at a time,
    where ``vec`` is a sparse integer vector of A (x) B, U = ``left`` ⊂ A
    and V = ``right`` ⊂ B; None when it falls outside.  They are integers
    in the scale of ``vec``.

    Each column vec[·, j] is reduced by U to coefficients α_k(j), then each
    row α_k(·) is reduced by V to c_kl, in integers.  These are the
    coordinates in the basis u_k (x) v_l of U (x) V, keyed k·dim V + l,
    where u and v are the echelon bases: coordinates in a basis are
    unique, so this equals reducing by that basis without building its
    ambient² vectors.  Passing a full subspace on one side tests
    membership in U (x) B or A (x) V.
    """
    nb = right.ambient.dim
    columns: dict[int, dict[int, int]] = {}
    for key, val in vec.items():
        i, j = divmod(key, nb)
        columns.setdefault(j, {})[i] = val
    rows: dict[int, dict[int, int]] = {}
    for j, col in columns.items():
        alpha = left.coordinates(col)
        if alpha is None:
            return None
        for k, a in alpha.items():
            rows.setdefault(k, {})[j] = a
    dv = right.dim
    coords: dict[int, int] = {}
    for k in sorted(rows):
        c = right.coordinates(rows[k])
        if c is None:
            return None
        for l, v in c.items():
            coords[k * dv + l] = v
    return coords


# ---------------------------------------------------------------- plain fusion

@dataclass(frozen=True)
class FusionAlgebra:
    """The fusion of two algebras over a two-ended base.

    Inside C (x) P (x) Q the carrier is cut out by two boundary
    conditions: values at the zero end lie in 1 (x) Q, values at the one
    end lie in P (x) 1.
    """

    base: BaseWithEnds
    left: FDAlgebra  # P
    right: FDAlgebra  # Q
    ambient: FDAlgebra  # C (x) P (x) Q
    carrier: Subspace
    algebra: FDAlgebra
    inclusion: LinearMap


def build_fusion(base: BaseWithEnds, left: FDAlgebra, right: FDAlgebra) -> FusionAlgebra:
    fiber = tensor_algebra(left, right)
    ambient = tensor_algebra(base.algebra, fiber)
    dr = right.dim
    w_zero = Subspace.from_vectors(
        fiber.space, [tensor_vec(left.unit, {j: 1}, dr) for j in range(dr)]
    )
    w_one = Subspace.from_vectors(
        fiber.space, [tensor_vec({i: 1}, right.unit, dr) for i in range(left.dim)]
    )
    carrier = base.sections(w_zero, w_one)
    witness = subalgebra_from_subspace(ambient, carrier, label_prefix="f")
    if not witness.unital:
        raise AssertionError("fusion carrier lost the unit")
    return FusionAlgebra(
        base, left, right, ambient, carrier, witness.algebra, witness.inclusion
    )


# ---------------------------------------------------------------- equivariant fusion

@dataclass(frozen=True)
class EquivariantFusion:
    """The fusion of a comodule algebra against its coaction picture.

    Inside C (x) P (x) H, with H coacting on the last leg by its
    coproduct, the carrier degenerates to the coaction image δ(P) at the
    one end and to the scalar fiber 1 (x) H at the zero end.  Each end
    condition alone is computed only when read: the lift decides both on
    the fiber, through ``w_one`` and ``w_zero``, and reads neither.
    """

    base: BaseWithEnds
    inner: ComoduleAlgebra
    ambient: FDAlgebra  # C (x) P (x) H
    carrier: Subspace
    w_zero: Subspace  # 1 (x) H in the fiber P (x) H
    w_one: Subspace  # δ(P) in the fiber
    comodule: ComoduleAlgebra
    inclusion: LinearMap

    @cached_property
    def cond_one(self) -> Subspace:
        """The one-end condition alone."""
        return self.base.sections(Subspace.full(self.w_one.ambient), self.w_one)

    @cached_property
    def cond_zero(self) -> Subspace:
        """The zero-end condition alone."""
        return self.base.sections(self.w_zero, Subspace.full(self.w_zero.ambient))


def _restrict_coaction(
    ambient: FDAlgebra,
    coaction: LinearMap,
    hopf: HopfAlgebra,
    carrier: Subspace,
    prefix: str,
) -> tuple[SubalgebraWitness, ComoduleAlgebra]:
    """Subalgebra structure on ``carrier`` plus the restriction of
    ``coaction``, a coaction of ``hopf`` on the ambient algebra."""
    witness = subalgebra_from_subspace(ambient, carrier, label_prefix=prefix)
    full_h = Subspace.full(hopf.space)
    cols = []
    for i, vec in enumerate(carrier.basis):
        image = linear_combination(coaction.cols, vec)  # D_c·D_b·δ(echelon row i)
        coords = _tensor_coordinates(carrier, full_h, image)
        if coords is None:
            raise AssertionError(
                f"carrier is not stable under the coaction: carrier basis vector {i}"
            )
        cols.append(coords)
    space = witness.algebra.space
    den = coaction.den * carrier.den
    restricted = LinearMap.from_sparse_columns(space, space.tensor(hopf.space), cols, den)
    com = ComoduleAlgebra(witness.algebra, hopf, restricted)
    report = check_comodule(com)
    if not report.ok:
        raise AssertionError(
            f"restricted coaction violates comodule axioms: {report.failures}"
        )
    return witness, com


def _end_conditions(
    base: BaseWithEnds, inner: ComoduleAlgebra
) -> tuple[FDAlgebra, LinearMap, Subspace, Subspace]:
    """Ambient algebra, its coaction id (x) Δ, and the subspaces 1 (x) H
    and δ(P) of the fiber P (x) H where the values at the zero and the
    one end lie (see :meth:`BaseWithEnds.sections`).  Column x·dH + a of
    id (x) Δ is Δ(e_a) moved to offset x·dH², for x in C (x) P."""
    p, h = inner.algebra, inner.hopf
    fiber = tensor_algebra(p, h.algebra)
    ambient = tensor_algebra(base.algebra, fiber)
    n, cops = base.dim * p.dim, h.coproduct.cols
    cols = ({x * h.dim**2 + k: v for k, v in cop.items()} for x in range(n) for cop in cops)
    target = ambient.space.tensor(h.space)
    coaction = LinearMap.from_sparse_columns(ambient.space, target, cols, h.coproduct.den)
    w_zero = Subspace.from_vectors(
        fiber.space, [tensor_vec(p.unit, {a: 1}, h.dim) for a in range(h.dim)]
    )
    return ambient, coaction, w_zero, inner.coaction.image()


def build_equivariant_fusion(
    base: BaseWithEnds, inner: ComoduleAlgebra
) -> EquivariantFusion:
    ambient, coaction, w_zero, w_one = _end_conditions(base, inner)
    carrier = base.sections(w_zero, w_one)
    witness, com = _restrict_coaction(ambient, coaction, inner.hopf, carrier, "ef")
    return EquivariantFusion(
        base, inner, ambient, carrier, w_zero, w_one, com, witness.inclusion
    )


# ---------------------------------------------------------------- lifting

@dataclass(frozen=True)
class LiftedConnection:
    """A connection on the fusion assembled from one on the inner
    comodule and an exact square-root pair.

    ``corestricts`` records the four boundary memberships of the image
    (one-end and zero-end condition, on each tensor factor), and
    ``report`` is the full axiom battery on the fusion.  A returned lift
    always records four trues: its fiber tensors lie in W₁ ⊗ W₁ and
    W₀ ⊗ W₀, and for a square-root pair, with e₀(s) = e₁(s') = 0 and
    e₁(s)² = e₀(s')² = 1, those two memberships are the four displays.
    A lift that fails one is refused, with the failing displays named.
    """

    fusion: EquivariantFusion
    sqrt: SqrtPair
    base_map: LinearMap  # the connection on the inner comodule
    map: LinearMap  # H -> EF (x) EF in fusion coordinates
    corestricts: tuple[bool, bool, bool, bool]
    report: CheckReport


def _fiber_tensors(inner: ComoduleAlgebra, sqrt: SqrtPair, ell: LinearMap) -> tuple:
    """The two tensors in F (x) F, F = P (x) H, that the lift puts at
    the base points: for each H basis vector e_c,

        T₁(e_c) = ℓ(h₂)'⊗S(h₁) ⊗ ℓ(h₂)''⊗h₃,   T₂(e_c) = 1⊗S(h₁) ⊗ 1⊗h₂.

    s, s', 1, S, ℓ and the legs of Δ² and Δ are read over one
    denominator D; a term of T₁ multiplies three scaled entries and one
    of T₂ four, so T₁ is taken D times and each tensor is D⁴ times its
    value.  Returns D, s, s' and the lists of T₁ and T₂."""
    h = inner.hopf
    dp, dh = inner.algebra.dim, h.dim
    df = dp * dh
    den, ((s, sp), (_, unit_p), s_cols, ell_cols, legs3_cols, cop_cols) = common_den(
        sqrt.columns, inner.algebra, h.antipode, ell, sweedler_legs(h, 3), h.coproduct
    )
    t_one, t_two = [], []
    for c in range(dh):
        t1: dict[int, int] = {}
        for abd, v3 in legs3_cols[c].items():
            ab, d = divmod(abd, dh)
            a, b = divmod(ab, dh)
            for a2, sv in s_cols[a].items():
                for r, lv in ell_cols[b].items():
                    p1, p2 = divmod(r, dp)
                    key = (p1 * dh + a2) * df + p2 * dh + d
                    t1[key] = t1.get(key, 0) + den * v3 * sv * lv
        t2: dict[int, int] = {}
        for ab, v2 in cop_cols[c].items():
            a, b = divmod(ab, dh)
            for a2, sv in s_cols[a].items():
                for u1, y1 in unit_p.items():
                    for u2, y2 in unit_p.items():
                        key = (u1 * dh + a2) * df + u2 * dh + b
                        t2[key] = t2.get(key, 0) + v2 * sv * y1 * y2
        t_one.append(nonzero(t1))
        t_two.append(nonzero(t2))
    return den, s, sp, t_one, t_two


def _square_sum(
    one: dict[int, int], two: dict[int, int], dims: tuple[int, int], f_cols, dim_w: int
) -> dict[int, int]:
    """(f (x) f)(x ⊕ y) for x in U (x) U and y in V (x) V, read in
    (U ⊕ V) (x) (U ⊕ V), where ``dims`` is (dim U, dim V) and f: U ⊕ V
    -> W is given by its sparse columns, those of U first; a new vector
    with its zeros kept."""
    du, dv = dims
    n = du + dv
    vec = {}
    for key, x in one.items():
        i, j = divmod(key, du)
        vec[i * n + j] = x
    for key, y in two.items():
        i, j = divmod(key, dv)
        vec[(du + i) * n + du + j] = y
    return on_left(on_right(vec, f_cols, n, dim_w, {}), f_cols, dim_w, {})


def _refusal(
    fusion: EquivariantFusion, t_one: list[dict[int, int]], t_two: list[dict[int, int]]
) -> str:
    """Why the lift is refused, read on the fiber tensors (see
    :func:`lift_connection`): the displays they fail, else that the
    carrier misses some s⊗w or s'⊗u."""
    w_one, w_zero = fusion.w_one, fusion.w_zero
    full = Subspace.full(w_one.ambient)
    displays = {
        "one-end condition on the left factor": (w_one, full, t_one),
        "zero-end condition on the left factor": (w_zero, full, t_two),
        "one-end condition on the right factor": (full, w_one, t_one),
        "zero-end condition on the right factor": (full, w_zero, t_two),
    }
    failed = [
        name
        for name, (left, right, tensors) in displays.items()
        if any(_tensor_coordinates(left, right, t) is None for t in tensors)
    ]
    if failed:
        return f"lifted image leaves the carrier: {', '.join(failed)}"
    return "lifted image passes the boundary displays, but the carrier misses s (x) W₁ or s' (x) W₀"


def lift_connection(
    fusion: EquivariantFusion, sqrt: SqrtPair, ell: LinearMap
) -> LiftedConnection:
    """Lift a strong connection through the fusion.

    With s = √t and s' = √(1-t), the lift sends h to

        s⊗ℓ(h₂)'⊗S(h₁) ⊗ s⊗ℓ(h₂)''⊗h₃  +  s'⊗1⊗S(h₁) ⊗ s'⊗1⊗h₂

    summed over the tensor legs of the iterated coproduct: that is
    (J (x) J)(T₁(h) ⊕ T₂(h)) for the two fiber tensors in F (x) F,
    F = P (x) H, of :func:`_fiber_tensors`, and J = [s⊗· | s'⊗·] from
    F ⊕ F to C (x) F.  At the one end s' vanishes and s² = 1, and s⊗· is
    injective, so a factor of the image meets the one-end condition
    exactly when T₁ lies in W₁ = δ(P) on that factor; at the zero end s
    vanishes and s'² = 1, so it meets the zero-end condition exactly
    when T₂ lies in W₀ = 1 (x) H there.  The four displays are thus
    T₁ ∈ W₁ (x) W₁ and T₂ ∈ W₀ (x) W₀, decided on the fiber, and a
    returned lift records ``corestricts`` as all true.  J maps W₁ ⊕ W₀
    into the carrier, as s⊗w and s'⊗u meet both end conditions: with a_i
    and b_i the carrier coordinates of s⊗w_i and s'⊗u_i, taken once, the
    fusion coordinates of the image are Σ c_ij a_i⊗a_j + Σ d_ij b_i⊗b_j
    for the coordinates c of T₁ and d of T₂.  Coordinates in a basis are
    unique, so these are those of the image in carrier (x) carrier,
    found with no ambient² vector built.  The image is re-verified as a
    strong connection there.

    When a fiber tensor leaves its square, or a carrier other than the
    sections of W₀ and W₁ misses some s⊗w or s'⊗u, the lift is refused
    with the reason :func:`_refusal` reads on the same fiber tensors.
    """
    inner = fusion.inner
    h = inner.hopf
    dp, dh = inner.algebra.dim, h.dim
    if sqrt.base != fusion.base:
        raise ValueError("square-root pair lives on a different base")
    if ell.source.dim != dh or ell.target.dim != dp * dp:
        raise ValueError("connection has wrong shape")

    den, s, sp, t_one, t_two = _fiber_tensors(inner, sqrt, ell)
    carrier, w_one, w_zero = fusion.carrier, fusion.w_one, fusion.w_zero
    # J on W₁ ⊕ W₀ in carrier coordinates: s⊗w and s'⊗u for the bases w
    # of W₁ and u of W₀ read over one den, D₀·D₁, so that each lifted
    # column is D⁶·(D₀·D₁)² times its value
    df = dp * dh
    split = [
        carrier.coordinates(tensor_vec({k: f * v for k, v in x.items()}, w, df))
        for x, sub, f in ((s, w_one, w_zero.den), (sp, w_zero, w_one.den))
        for w in sub.basis
    ]
    ef_cols = []
    for t1, t2 in zip(t_one, t_two) if None not in split else ():
        c = _tensor_coordinates(w_one, w_one, t1)
        d = None if c is None else _tensor_coordinates(w_zero, w_zero, t2)
        if d is None:
            break
        ef_cols.append(_square_sum(c, d, (w_one.dim, w_zero.dim), split, carrier.dim))
    if len(ef_cols) < dh:
        raise AssertionError(_refusal(fusion, t_one, t_two))

    ef_space = fusion.comodule.algebra.space
    den_ef = den**6 * (w_zero.den * w_one.den) ** 2
    lifted = LinearMap.from_sparse_columns(h.space, ef_space.tensor(ef_space), ef_cols, den_ef)
    report = check_strong_connection(fusion.comodule, lifted)
    return LiftedConnection(fusion, sqrt, ell, lifted, (True,) * 4, report)


# ---------------------------------------------------------------- the theorem

@dataclass(frozen=True)
class TheoremCertificate:
    """Everything needed to audit one run of the main construction."""

    comodule: ComoduleAlgebra
    m: int
    input_verdict: PrincipalityVerdict
    fusion: EquivariantFusion
    lifted: LiftedConnection
    fusion_verdict: PrincipalityVerdict


def verify_theorem_main(
    inner: ComoduleAlgebra, m: int, sqrt: SqrtPair | None = None
) -> TheoremCertificate:
    """Principality of the inner comodule implies principality of its
    equivariant fusion — established twice over.

    The lifted connection is verified axiom by axiom, and the solver
    independently re-decides principality of the fusion; the two
    verdicts must agree.  A non-principal input is refused.

    The square-root pair lives on the chain 0..m; without one the run
    uses the :func:`default_profile`.  For another profile, pass
    ``make_sqrt_pair(chain_interval(m), profile)``.  The pair used is
    ``cert.lifted.sqrt``.
    """
    input_verdict = is_principal(inner)
    if not input_verdict.principal:
        raise PreconditionError(
            "the comodule algebra is not principal; nothing to lift"
        )
    base = chain_interval(m)
    if sqrt is None:
        sqrt = make_sqrt_pair(base, default_profile(m))
    elif sqrt.base != base:
        raise ValueError("square-root pair does not live on the chain 0..m")
    fusion = build_equivariant_fusion(base, inner)
    lifted = lift_connection(fusion, sqrt, input_verdict.connection.map)
    if not lifted.report.ok:
        raise AssertionError(
            f"lifted map fails the connection axioms: {lifted.report.failures}"
        )
    fusion_verdict = is_principal(fusion.comodule)
    if not fusion_verdict.principal:
        raise AssertionError(
            "solver disagrees with the lifted witness about principality"
        )
    return TheoremCertificate(
        inner,
        m,
        input_verdict,
        fusion,
        lifted,
        fusion_verdict,
    )


# ---------------------------------------------------------------- piecewise parts

@dataclass(frozen=True)
class RestrictedComodule:
    """A subalgebra of an ambient comodule with its restricted coaction."""

    ambient: FDAlgebra
    carrier: Subspace
    comodule: ComoduleAlgebra
    inclusion: LinearMap


def _build_half(
    base: BaseWithEnds, inner: ComoduleAlgebra, end: str, prefix: str
) -> RestrictedComodule:
    ambient, coaction, w_zero, w_one = _end_conditions(base, inner)
    full = Subspace.full(w_zero.ambient)
    carrier = base.sections(w_zero, full) if end == "zero" else base.sections(full, w_one)
    witness, com = _restrict_coaction(ambient, coaction, inner.hopf, carrier, prefix)
    return RestrictedComodule(ambient, carrier, com, witness.inclusion)


@dataclass(frozen=True)
class PiecewiseParts:
    """The two one-condition halves of a fusion and their expected bases.

    ``lower_half`` keeps only the zero-end condition, ``upper_half``
    only the one-end condition.  The base subalgebras live in C (x) P:
    functions scalar at the zero end, respectively valued in the
    coinvariants at the one end.  Coinvariants of each half coincide
    with the corresponding base under y -> y (x) 1.
    """

    base: BaseWithEnds
    inner: ComoduleAlgebra
    lower_half: RestrictedComodule
    upper_half: RestrictedComodule
    lower_base: SubalgebraWitness
    upper_base: SubalgebraWitness


def piecewise_parts(base: BaseWithEnds, inner: ComoduleAlgebra) -> PiecewiseParts:
    lower = _build_half(base, inner, "zero", "lo")
    upper = _build_half(base, inner, "one", "hi")
    p = inner.algebra
    cp = tensor_algebra(base.algebra, p)
    full, coinv = Subspace.full(p.space), coinvariants(inner).subspace
    scalar_line = Subspace.from_vectors(p.space, [p.unit])
    lower_base = subalgebra_from_subspace(cp, base.sections(scalar_line, full), label_prefix="lb")
    upper_base = subalgebra_from_subspace(cp, base.sections(full, coinv), label_prefix="ub")
    return PiecewiseParts(base, inner, lower, upper, lower_base, upper_base)


# ---------------------------------------------------------------- pullback

@dataclass(frozen=True)
class PullbackIdentification:
    """The fusion as a fiber product of its two halves.

    The gluing map identifies the fiber product of a lower half over a
    chain of length m_lower and an upper half over a chain of length
    m_upper, joined over one shared fiber, with the equivariant fusion
    over the concatenated chain.  It is verified to be a bijective
    unital algebra map intertwining the coactions.
    """

    inner: ComoduleAlgebra
    lower: RestrictedComodule
    upper: RestrictedComodule
    fiber: RestrictedComodule
    fusion: EquivariantFusion
    glue: LinearMap  # fiber product -> fusion


def pullback_identification(
    inner: ComoduleAlgebra, m_lower: int, m_upper: int
) -> PullbackIdentification:
    h = inner.hopf
    dp, dh = inner.algebra.dim, h.dim
    dph = dp * dh
    base_lower = chain_interval(m_lower)
    base_upper = chain_interval(m_upper)
    lower = _build_half(base_lower, inner, "zero", "lo")
    upper = _build_half(base_upper, inner, "one", "hi")

    ident_ph = LinearMap.identity(
        inner.algebra.space.tensor(h.space)
    )
    top_of_lower = base_lower.end_one.kron(ident_ph).compose(lower.inclusion)
    bottom_of_upper = base_upper.end_zero.kron(ident_ph).compose(upper.inclusion)

    sum_alg = direct_sum_algebra(
        lower.comodule.algebra, upper.comodule.algebra
    )
    d1 = lower.comodule.algebra.dim
    den, (top, bottom) = common_den(top_of_lower, bottom_of_upper)
    cols = [*top, *({i: -v for i, v in col.items()} for col in bottom)]
    boundary = LinearMap.from_sparse_columns(sum_alg.space, ident_ph.target, cols, den)
    fiber_carrier = boundary.kernel()

    # the blockwise coaction on the direct sum, restricted to the fiber product
    den, (low_cols, up_cols) = common_den(lower.comodule.coaction, upper.comodule.coaction)
    blockwise = LinearMap.from_sparse_columns(
        sum_alg.space,
        sum_alg.space.tensor(h.space),
        [*low_cols, *({d1 * dh + pa: w for pa, w in col.items()} for col in up_cols)],
        den,
    )
    fiber_witness, fiber_com = _restrict_coaction(sum_alg, blockwise, h, fiber_carrier, "pb")
    fiber = RestrictedComodule(
        sum_alg, fiber_carrier, fiber_com, fiber_witness.inclusion
    )

    # each half's inclusion sends coordinate j to its j-th carrier vector:
    # levels 0..m_lower keep their place, and level 0 of the upper half is
    # the shared fiber, present from the lower part
    fusion = build_equivariant_fusion(chain_interval(m_lower + m_upper), inner)
    den, (low_cols, up_cols) = common_den(lower.inclusion, upper.inclusion)
    shift = m_lower * dph
    cols = [*low_cols, *({shift + i: v for i, v in col.items() if i >= dph} for col in up_cols)]
    place = LinearMap.from_sparse_columns(sum_alg.space, fusion.ambient.space, cols, den)
    sections = place.compose(fiber_witness.inclusion)
    glue_cols = [fusion.carrier.coordinates(col) for col in sections.cols]
    if None in glue_cols:
        raise AssertionError("glued section leaves the fusion carrier")
    glue = LinearMap.from_sparse_columns(
        fiber_com.algebra.space, fusion.comodule.algebra.space, glue_cols, sections.den
    )

    if glue.inverse() is None:
        raise AssertionError("gluing map is not bijective")
    hom_report = check_hom(
        AlgebraHom(fiber_witness.algebra, fusion.comodule.algebra, glue)
    )
    if not hom_report.ok:
        raise AssertionError(
            f"gluing map is not a unital algebra map: {hom_report.failures}"
        )
    ident_h = LinearMap.identity(h.space)
    lhs = fusion.comodule.coaction.compose(glue)
    rhs = glue.kron(ident_h).compose(fiber_com.coaction)
    if (lhs.cols, lhs.den) != (rhs.cols, rhs.den):
        raise AssertionError("gluing map does not intertwine the coactions")

    return PullbackIdentification(inner, lower, upper, fiber, fusion, glue)
