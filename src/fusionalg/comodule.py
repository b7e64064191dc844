"""Right comodule algebras and machine-checked strong connections.

A comodule algebra is an algebra P with a coaction P -> P (x) H that is
an algebra map and coassociative.  The central objects here are:

* the coinvariant subalgebra B,
* the canonical map P (x)_B P -> P (x) H,
* strong connections ell: H -> P (x) P, found by exact sparse linear
  algebra, together with a checker that re-verifies every defining
  property of a claimed connection from scratch.

Principality (bijectivity of the canonical map) is decided by solving
for a connection: a solution is a constructive witness, and an
infeasible system comes with a certified contradiction.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property

from .algebra import (
    CheckReport,
    FDAlgebra,
    Failure,
    SubalgebraWitness,
    first_failure,
    subalgebra_from_subspace,
)
from .hopf import HopfAlgebra
from .linalg import (
    Infeasibility,
    LinearMap,
    LinearSystem,
    Space,
    Subspace,
    common_den,
    components,
    linear_combination,
    on_left,
    on_right,
    rref,
    tensor_mul,
    tensor_vec,
)


@dataclass(frozen=True)
class ComoduleAlgebra:
    algebra: FDAlgebra  # P
    hopf: HopfAlgebra  # H
    coaction: LinearMap  # P -> P (x) H

    def __post_init__(self):
        dp, dh = self.algebra.dim, self.hopf.dim
        if self.coaction.source.dim != dp or self.coaction.target.dim != dp * dh:
            raise ValueError("coaction has wrong shape")

    @cached_property
    def left_coaction(self) -> LinearMap:
        """:func:`delta_L`, built on first use and kept: the connection
        system and the re-check of a connection both read it."""
        return delta_L(self)


def _unit_embedding(algebra: FDAlgebra, hopf: HopfAlgebra) -> LinearMap:
    """The map P -> P (x) H, x -> x (x) 1."""
    k = LinearMap.identity(algebra.space).kron(hopf.algebra.unit_map())
    return LinearMap.from_sparse_columns(algebra.space, k.target, k.cols, k.den)


def trivial_coaction(algebra: FDAlgebra, hopf: HopfAlgebra) -> ComoduleAlgebra:
    """P with every element coinvariant: x -> x (x) 1."""
    return ComoduleAlgebra(algebra, hopf, _unit_embedding(algebra, hopf))


def check_comodule(c: ComoduleAlgebra) -> CheckReport:
    """Named axioms: coaction_multiplicative, coaction_unital,
    coaction_coassociative, coaction_counital.

    The identification P (x) k = P is literal on coordinates because the
    scalar factor is one-dimensional.

    The coaction, Δ, both tables, ε and both units are read over their
    common denominator D (:func:`~fusionalg.linalg.common_den`), so a side
    that multiplies k scaled constants is D^k times its value.  δ(e_i·e_j)
    (k = 2) is multiplied by D² to meet δ(e_i)·δ(e_j) (k = 4); both sides
    of coaction_unital and coaction_coassociative have k = 2; and
    (id⊗ε)∘δ(e_j) compares with D²·e_j.

    Multiplicativity, coassociativity and counitality are each decided by
    one sparse vector that the law owns: its left side is added into it,
    its right side is subtracted through the negated coaction column
    δ(e_i) or the negated D²·e_j, and the law holds when every entry is
    zero.

    Basis indices of P fall into parts (:func:`~fusionalg.linalg.components`)
    that keep together i and j of every nonempty e_i·e_j, and each e_i with
    the P-legs of δ(e_i).  Across two parts both sides of multiplicativity
    are zero: e_i·e_j is, and so is the product of every P-leg of δ(e_i)
    with every P-leg of δ(e_j).  So multiplicativity is checked only on
    the pairs inside one part, in lexicographic order, which names the
    first failure that a scan of every pair would name.
    """
    p, h = c.algebra, c.hopf
    dp, dh = p.dim, h.dim
    den, (dcols, cop_cols, (ptab, unit_p), (htab, unit_h), eps_cols) = common_den(
        c.coaction, h.coproduct, p, h.algebra, h.counit
    )
    d2 = den * den
    part = components(
        dp,
        (
            [i, *(j for j in range(dp) if ptab[i * dp + j]), *(pa // dh for pa in dcols[i])]
            for i in range(dp)
        ),
    )

    neg_dcols = [{k: -v for k, v in col.items()} for col in dcols]

    def multiplicative(i, j):
        acc = on_left({k: c * d2 for k, c in ptab[i * dp + j].items()}, dcols, 1, {})
        tensor_mul(neg_dcols[i], dcols[j], ptab, dp, htab, dh, acc)
        return not any(acc.values())

    def coassociative(j):
        acc = on_left(dcols[j], dcols, dh, {})
        return not any(on_right(neg_dcols[j], cop_cols, dh, dh * dh, acc).values())

    def counital(j):
        return not any(on_right(dcols[j], eps_cols, dh, 1, {j: -d2}).values())

    unit_pu = tensor_vec(unit_p, unit_h, dh)
    each = [(i,) for i in range(dp)]
    members: dict[int, list[int]] = {}
    for i, q in enumerate(part):
        members.setdefault(q, []).append(i)
    failures = (
        first_failure(
            "coaction_multiplicative",
            "δ(e{0}·e{1}) differs from δ(e{0})·δ(e{1})",
            multiplicative,
            ((i, j) for i in range(dp) for j in members[part[i]]),
        )
        + first_failure(
            "coaction_unital",
            "δ(1) is not 1⊗1",
            lambda: linear_combination(dcols, unit_p) == unit_pu,
        )
        + first_failure(
            "coaction_coassociative",
            "(δ⊗id)∘δ and (id⊗Δ)∘δ disagree on basis vector {}",
            coassociative,
            each,
        )
        + first_failure(
            "coaction_counital", "(id⊗ε)∘δ is not the identity at basis vector {}", counital, each
        )
    )
    return CheckReport(not failures, tuple(failures))


# ---------------------------------------------------------------- coinvariants

def coinvariants(c: ComoduleAlgebra) -> SubalgebraWitness:
    """The subalgebra B = {x : δ(x) = x⊗1}, with its induced structure."""
    ker = c.coaction.sub(_unit_embedding(c.algebra, c.hopf)).kernel()
    witness = subalgebra_from_subspace(c.algebra, ker, label_prefix="b")
    if not witness.unital:
        raise AssertionError("coinvariants failed to contain the unit")
    return witness


# ---------------------------------------------------------------- canonical map

@dataclass(frozen=True)
class BalancedTensor:
    """P (x)_B P as P (x) P modulo the balanced relations.

    The class of a vector is its remainder after reduction by ``killed``;
    that remainder lives on the coordinates that are not pivots of
    ``killed``, and those coordinates, in order, are the basis of
    ``space``.
    """

    comodule: ComoduleAlgebra
    coinvariants: SubalgebraWitness
    killed: Subspace  # spanned by the relations (x·b) (x) y - x (x) (b·y)

    @property
    def reps(self) -> tuple[int, ...]:
        """The coordinates of P (x) P that name the classes."""
        pivots = set(self.killed.pivots)
        return tuple(c for c in range(self.killed.ambient.dim) if c not in pivots)

    @property
    def space(self) -> Space:
        labels = self.killed.ambient.labels
        return Space(tuple(f"[{labels[c]}]" for c in self.reps))

    def project(self, vec: dict[int, int]) -> dict[int, int]:
        """``killed.den`` times the class of a sparse integer vector of
        P (x) P, in the basis of ``space`` and the scale of ``vec``."""
        # the non-pivot coordinate c is preceded by c - (pivots below c) others
        pivots = self.killed.pivots
        return {c - bisect_left(pivots, c): v for c, v in self.killed.remainder(vec).items()}


def balanced_tensor(
    c: ComoduleAlgebra, coinv: SubalgebraWitness | None = None
) -> BalancedTensor:
    """P (x) P modulo the relations (x·b) (x) y - x (x) (b·y), for basis
    vectors x, y of P and b of B."""
    if coinv is None:
        coinv = coinvariants(c)
    p = c.algebra
    dp = p.dim
    relations = []
    # the relations span the same subspace in any scale
    for b in coinv.subspace.basis:
        left = [linear_combination(row, b) for row in p.table]  # e_i·b
        right = [linear_combination(col, b) for col in zip(*p.table)]  # b·e_j
        for i in range(dp):
            for j in range(dp):
                xb = {k * dp + j: v for k, v in left[i].items()}  # (x·b) ⊗ y
                by = {i * dp + k: v for k, v in right[j].items()}  # x ⊗ (b·y)
                relations.append(linear_combination((xb, by), {0: 1, 1: -1}))
    killed = Subspace(p.space.tensor(p.space), *rref(relations))
    return BalancedTensor(c, coinv, killed)


def _times_first_leg(p: FDAlgebra, f: LinearMap) -> LinearMap:
    """The map P (x) V -> P (x) W, x (x) v -> x·f(v)' (x) f(v)'', for a map
    f: V -> P (x) W: left multiplication by x on the first leg, whose
    columns are the row ``p.table[x]``, over the product of the two
    denominators."""
    width = f.target.dim // p.dim
    cols = [on_left(image, p.table[x], width, {}) for x in range(p.dim) for image in f.cols]
    return LinearMap.from_sparse_columns(p.space.tensor(f.source), f.target, cols, p.den * f.den)


@dataclass(frozen=True)
class CanonicalMap:
    comodule: ComoduleAlgebra
    coinvariants: SubalgebraWitness
    balanced: BalancedTensor
    map: LinearMap  # P (x)_B P -> P (x) H
    injective: bool
    surjective: bool

    @property
    def bijective(self) -> bool:
        return self.injective and self.surjective


def canonical_map(c: ComoduleAlgebra) -> CanonicalMap:
    """Descend the lifted map to the balanced tensor product.

    Well-definedness (the balanced relations die under the lifted map)
    is verified, not assumed.
    """
    coinv = coinvariants(c)
    bal = balanced_tensor(c, coinv)
    p_h = c.algebra.space.tensor(c.hopf.space)
    # x (x) y -> x·y_(0) (x) y_(1) on P (x) P
    lifted = _times_first_leg(c.algebra, c.coaction)
    for rel in bal.killed.basis:
        if linear_combination(lifted.cols, rel):
            raise AssertionError(
                "canonical map is not well defined on the balanced quotient"
            )
    reps = bal.reps
    cols = [lifted.cols[r] for r in reps]
    # over lifted.den·killed.den: the descended image of each class, and
    # the lifted image of each basis vector
    for j, col in enumerate(lifted.cols):
        if linear_combination(cols, bal.project({j: 1})) != {
            k: v * bal.killed.den for k, v in col.items()
        }:
            raise AssertionError("canonical map does not factor the lifted map")
    descended = LinearMap.from_sparse_columns(bal.space, p_h, cols, lifted.den)
    rank = descended.rank()
    return CanonicalMap(
        c,
        coinv,
        bal,
        descended,
        injective=rank == len(reps),
        surjective=rank == p_h.dim,
    )


# ---------------------------------------------------------------- connections

def delta_L(c: ComoduleAlgebra) -> LinearMap:
    """The companion left coaction P -> H (x) P built from the inverse
    antipode: x -> S^{-1}(x_(1)) (x) x_(0), the coaction followed by
    e_q (x) e_a -> S^{-1}(e_a) (x) e_q."""
    if c.hopf.antipode_inv is None:
        raise ValueError("left coaction needs an invertible antipode")
    p, h = c.algebra, c.hopf
    dp, s_inv = p.dim, h.antipode_inv.cols
    flip = [{b * dp + q: v for b, v in s_inv[a].items()} for q in range(dp) for a in range(h.dim)]
    cols = [linear_combination(flip, col) for col in c.coaction.cols]
    den = h.antipode_inv.den * c.coaction.den
    return LinearMap.from_sparse_columns(p.space, h.space.tensor(p.space), cols, den)


@dataclass(frozen=True)
class StrongConnection:
    comodule: ComoduleAlgebra
    map: LinearMap  # H -> P (x) P

    @cached_property
    def unital(self) -> bool:
        """:func:`connection_unital`, computed when first read."""
        return connection_unital(self.comodule, self.map)


def _rows_of(cols: list[dict[int, int]], n_rows: int) -> list[list[tuple[int, int]]]:
    """The rows of the matrix with sparse columns ``cols``: row i lists
    (j, entry) in increasing j."""
    rows: list[list[tuple[int, int]]] = [[] for _ in range(n_rows)]
    for j, col in enumerate(cols):
        for i, v in col.items():
            rows[i].append((j, v))
    return rows


def connection_system(
    c: ComoduleAlgebra, require_unital: bool
) -> LinearSystem:
    """Linear constraints on the matrix of ell: H -> P (x) P.

    Unknown (p1, p2, col) lives at flat index (p1·dP + p2)·dH + col.
    The rows encode, in order: right colinearity, left colinearity, the
    splitting property against the lifted canonical map, and (optionally)
    unitality.  Rows that would be identically zero are skipped, which is
    deterministic and keeps replays aligned.  A colinearity row differs
    from another by a shift of every unknown (right colinearity in the
    first leg p1, left colinearity in the second leg p2), so each is
    built, tested for zero and reduced once and then added at each shift,
    in the same order as row by row; the system keeps it as one block
    and computes the shifted rows when they are read.

    The structure maps are read over their common denominator D, so
    every row is built in integer arithmetic: the colinearity rows over
    D, the splitting and unit rows (products of two structure constants)
    over D².
    """
    p, h = c.algebra, c.hopf
    dp, dh = p.dim, h.dim
    system = LinearSystem(dp * dp * dh)

    den, (delta, dl, (mult, unit_p), cop, (_, unit_h)) = common_den(
        c.coaction, c.left_coaction, p, h.coproduct, h.algebra
    )
    delta_rows = _rows_of(delta, dp * dh)  # row x·dH+a -> [(q, val)]
    dl_rows = _rows_of(dl, dh * dp)  # row a·dP+u -> [(p, val)]
    mult_rows = _rows_of(mult, dp)  # row u -> [(p·dP+w, val)]
    cop_rows = _rows_of(cop, dh * dh)  # row leg1·dH+leg2 -> [(col, val)]

    by_second: list[list[list[tuple[int, int]]]] = [
        [[] for _ in range(dh)] for _ in range(dh)
    ]
    by_first: list[list[list[tuple[int, int]]]] = [
        [[] for _ in range(dh)] for _ in range(dh)
    ]
    for idx, row in enumerate(cop_rows):
        leg1, leg2 = divmod(idx, dh)
        for col, val in row:
            by_second[col][leg2].append((leg1, val))
            by_first[col][leg1].append((leg2, val))

    # right colinearity: (id⊗δ)∘ell = (ell⊗id)∘Δ; row (u, x, a, col) is
    # row (0, x, a, col) with every unknown moved by u·dP·dH
    right = []
    for x in range(dp):
        for a in range(dh):
            drow = delta_rows[x * dh + a]
            for col in range(dh):
                coeffs = {q * dh + col: val for q, val in drow}
                for b, val in by_second[col][a]:
                    key = x * dh + b
                    coeffs[key] = coeffs.get(key, 0) - val
                if any(coeffs.values()):
                    right.append((coeffs, 0, den))
    system.add_shifted_rows(right, range(0, dp * dp * dh, dp * dh))

    # left colinearity: (δ_L⊗id)∘ell = (id⊗ell)∘Δ; row (a, u, v, col) is
    # row (a, u, 0, col) with every unknown moved by v·dH
    for a in range(dh):
        for u in range(dp):
            lrow = dl_rows[a * dp + u]
            left = []
            for col in range(dh):
                coeffs = {pi * dp * dh + col: val for pi, val in lrow}
                for d, val in by_first[col][a]:
                    key = u * dp * dh + d
                    coeffs[key] = coeffs.get(key, 0) - val
                if any(coeffs.values()):
                    left.append((coeffs, 0, den))
            system.add_shifted_rows(left, range(0, dp * dh, dh))

    # splitting: (m⊗id)∘(id⊗δ)∘ell = 1 ⊗ (-); these rows and the unit
    # rows go in as one block with the one shift 0
    single = []
    for u in range(dp):
        for a in range(dh):
            lc_row: dict[int, int] = {}
            for pw, mval in mult_rows[u]:
                pi, w = divmod(pw, dp)
                for q, dval in delta_rows[w * dh + a]:
                    key = pi * dp + q
                    lc_row[key] = lc_row.get(key, 0) + mval * dval
            for col in range(dh):
                coeffs = {r * dh + col: val for r, val in lc_row.items()}
                single.append((coeffs, unit_p.get(u, 0) * den if a == col else 0, den * den))

    if require_unital:
        for p1 in range(dp):
            for p2 in range(dp):
                coeffs = {
                    (p1 * dp + p2) * dh + col: val * den for col, val in unit_h.items()
                }
                single.append((coeffs, unit_p.get(p1, 0) * unit_p.get(p2, 0), den * den))
    system.add_shifted_rows(
        [row for row in single if row[1] or any(row[0].values())], range(1)
    )
    return system


def connection_unital(c: ComoduleAlgebra, ell: LinearMap) -> bool:
    """Whether a map H -> P (x) P sends the unit to 1 (x) 1.

    The units and ℓ are read over their common denominator, so both ℓ(1)
    and 1 (x) 1, products of two scaled entries, compare as they are.
    """
    _, ((_, unit_h), (_, unit_p), cols) = common_den(c.hopf.algebra, c.algebra, ell)
    return linear_combination(cols, unit_h) == tensor_vec(unit_p, unit_p, c.algebra.dim)


def _solve_connection(c: ComoduleAlgebra, require_unital: bool):
    """Build the connection system and solve it: the system, and a
    re-checked connection or the refutation."""
    system = connection_system(c, require_unital)
    outcome = system.solve()
    if isinstance(outcome, Infeasibility):
        return system, outcome
    # unknown (r, col) sits at r·dH + col
    dh = c.hopf.dim
    cols: list[dict] = [{} for _ in range(dh)]
    for u, value in enumerate(outcome):
        if value:
            r, col = divmod(u, dh)
            cols[col][r] = value
    ell = LinearMap.from_sparse_columns(
        c.hopf.space, c.algebra.space.tensor(c.algebra.space), cols
    )
    report = check_strong_connection(c, ell, require_unital)
    if not report.ok:
        raise AssertionError(
            f"solver produced an invalid connection: {report.failures}"
        )
    return system, StrongConnection(c, ell)


def solve_strong_connection(
    c: ComoduleAlgebra, require_unital: bool = False
) -> StrongConnection | Infeasibility:
    """Find a connection by exact elimination, or certify there is none.

    The returned solution is canonical for the given comodule: the
    deterministic solver makes repeated runs reproduce it exactly.
    """
    return _solve_connection(c, require_unital)[1]


def check_strong_connection(
    c: ComoduleAlgebra, ell: LinearMap, require_unital: bool = False
) -> CheckReport:
    """Re-verify a claimed connection column by column.

    Named axioms: right_colinearity, left_colinearity, splitting,
    counit_product, and (when requested) unital.

    ℓ, the coaction, δ_L, Δ, the table of P, ε and the unit of P are
    read over their common denominator D
    (:func:`~fusionalg.linalg.common_den`), so a side that multiplies k
    scaled entries is D^k times its value.  Both sides of each
    colinearity law have k = 2; the lifted canonical map of ℓ(e_a)
    (k = 3) compares with D²·1⊗e_a, and m∘ℓ(e_a) (k = 2) with
    ε(e_a)·1 (k = 2).  Unitality is :func:`connection_unital`.

    Each two-sided law is decided by one sparse vector that it owns: its
    left side is added into it, its right side is subtracted through the
    negated column Δ(e_a) or the negated target, never a negated column
    of ℓ, and the law holds when every entry is zero.  (id⊗δ)∘ℓ(e_a) is
    formed once per column and dropped after it.  The lifted canonical
    map is m⊗id applied to it, which is added first into the negated
    D²·1⊗e_a for splitting; then (ℓ⊗id)∘Δ(e_a) is subtracted from it in
    place for right colinearity.  So both laws are decided for every
    column before the first failure of each is named.
    """
    p, h = c.algebra, c.hopf
    dp, dh = p.dim, h.dim
    if ell.source.dim != dh or ell.target.dim != dp * dp:
        raise ValueError("connection has wrong shape")
    den, (ell_cols, delta_cols, dl, cop_cols, (ptab, unit_p), eps_cols) = common_den(
        ell, c.coaction, c.left_coaction, h.coproduct, p, h.counit
    )
    d2 = den * den

    neg_cop = [{k: -v for k, v in col.items()} for col in cop_cols]

    def right_colinear_and_splits(col):
        acc = on_right(ell_cols[col], delta_cols, dp, dp * dh, {})
        split = on_left(acc, ptab, dh, {u * dh + col: -v * d2 for u, v in unit_p.items()})
        on_left(neg_cop[col], ell_cols, dh, acc)
        return not any(acc.values()), not any(split.values())

    def left_colinear(col):
        acc = on_left(ell_cols[col], dl, dp, {})
        return not any(on_right(neg_cop[col], ell_cols, dh, dp * dp, acc).values())

    def counit_product(col):
        # the table is the columns of m: P (x) P -> P, so m∘ℓ(e_a) is
        # m (x) id on (P (x) P) (x) k
        e = eps_cols[col].get(0)
        acc = {u: -e * v for u, v in unit_p.items()} if e else {}
        return not any(on_left(ell_cols[col], ptab, 1, acc).values())

    each = [(col,) for col in range(dh)]
    right, splits = zip(*map(right_colinear_and_splits, range(dh)))
    failures = (
        first_failure(
            "right_colinearity",
            "(id⊗δ)∘ℓ and (ℓ⊗id)∘Δ disagree on basis vector {}",
            lambda col: right[col],
            each,
        )
        + first_failure(
            "left_colinearity",
            "(δ_L⊗id)∘ℓ and (id⊗ℓ)∘Δ disagree on basis vector {}",
            left_colinear,
            each,
        )
        + first_failure(
            "splitting",
            "the lifted canonical map does not send ℓ(e{0}) to 1⊗e{0}",
            lambda col: splits[col],
            each,
        )
        + first_failure(
            "counit_product", "m∘ℓ misses unit∘ε on basis vector {}", counit_product, each
        )
    )
    if require_unital and not connection_unital(c, ell):
        failures.append(Failure("unital", "ℓ(1) is not 1⊗1"))

    return CheckReport(not failures, tuple(failures))


def translation_inverse(
    c: ComoduleAlgebra, ell: LinearMap, can: CanonicalMap | None = None
) -> LinearMap:
    """The explicit two-sided inverse of the canonical map induced by a
    connection: x (x) h -> x·ℓ(h)' (x)_B ℓ(h)''.

    Raises when either composite with the canonical map fails to be the
    identity, so a successful return certifies bijectivity.
    """
    if can is None:
        can = canonical_map(c)
    bal = can.balanced
    times = _times_first_leg(c.algebra, ell)
    projected = [bal.project(col) for col in times.cols]
    den = times.den * bal.killed.den
    t = LinearMap.from_sparse_columns(times.source, bal.space, projected, den)
    if not t.compose(can.map).is_identity():
        raise AssertionError(
            "translation inverse fails on the balanced tensor side"
        )
    if not can.map.compose(t).is_identity():
        raise AssertionError("translation inverse fails on the P⊗H side")
    return t


# ---------------------------------------------------------------- principality

@dataclass(frozen=True)
class PrincipalityVerdict:
    """A connection, or the refutation of every connection, with the row
    count of the connection system."""

    comodule: ComoduleAlgebra
    connection: StrongConnection | None
    infeasibility: Infeasibility | None
    num_rows: int

    @property
    def principal(self) -> bool:
        return self.connection is not None

    @property
    def num_unknowns(self) -> int:
        """The unknowns of the connection system, the entries of ℓ."""
        return self.comodule.algebra.dim ** 2 * self.comodule.hopf.dim


def is_principal(c: ComoduleAlgebra) -> PrincipalityVerdict:
    """Decide principality constructively.

    Feasibility of the (not necessarily unital) connection system is
    equivalent to bijectivity of the canonical map; either way the
    verdict carries a checkable witness.
    """
    system, outcome = _solve_connection(c, require_unital=False)
    principal = isinstance(outcome, StrongConnection)
    return PrincipalityVerdict(
        c, outcome if principal else None, None if principal else outcome, len(system)
    )
