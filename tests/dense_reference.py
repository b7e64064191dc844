"""Dense routines on row-major tuples of Fractions, kept as references for
the sparse ones in ``fusionalg.linalg``: the reduced row echelon form,
kernels, inverses, intersections, preimages (and the fusion end
conditions as an intersection of two of them) and the projection onto a
quotient, computed the way the library computed them when its subspaces
held dense rows, and the product and tensor product of matrices, computed
the way it computed them when its maps held dense rows, with the dense
vectors (basis vectors, tensor products, and conversions to and from
sparse dicts) the tests write expected values in.  It also keeps
the library's earlier exact elimination, :class:`ParentElimination`, as
a reference for the solver's outcomes, the row-by-row build of the
connection system, :func:`connection_rows`, as a reference for its
stored rows, and the axiom batteries of
algebras, Hopf algebras, comodule algebras and strong connections, the
restriction of a product to a subspace, the reduction into a tensor
product of subspaces and the lift of a connection through the fusion as
the library computed them in ``Fraction`` arithmetic, as references for
the integer-scaled ones, the check of an algebra map, :func:`check_hom`,
and the gluing map of a pullback identification, :func:`pullback_glue`.

The references keep their own ``Fraction`` loops (:func:`accumulate`,
:func:`mul_sparse`, :func:`delta_L` and the library's earlier multi-family
:func:`integer_scaled`), and they read the integer columns of a map and
the integer table and unit of an algebra and the integer echelon basis
of a subspace through their ``den``, with :func:`fcols`, :func:`ftable`,
:func:`funit` and :func:`fbasis`."""

from fractions import Fraction
from math import gcd, lcm

from fusionalg.algebra import (
    AlgebraHom,
    CheckReport,
    ClosureError,
    FDAlgebra,
    Failure,
    HomReport,
    SubalgebraWitness,
)
from fusionalg.comodule import ComoduleAlgebra
from fusionalg.fusion import (
    EquivariantFusion,
    LiftedConnection,
    PullbackIdentification,
    SqrtPair,
)
from fusionalg.hopf import HopfAlgebra, sweedler_legs
from fusionalg.linalg import (
    Infeasibility,
    LinearMap,
    LinearSystem,
    Space,
    Subspace,
)

Q0 = Fraction(0)
Q1 = Fraction(1)


def fcols(f: LinearMap) -> list[dict[int, Fraction]]:
    """The columns of a map as ``Fraction`` vectors: its ``cols`` over its
    ``den``."""
    return [{i: Fraction(v, f.den) for i, v in col.items()} for col in f.cols]


def ftable(a: FDAlgebra) -> list[list[dict[int, Fraction]]]:
    """The structure constants of an algebra as ``Fraction`` vectors."""
    return [[{k: Fraction(v, a.den) for k, v in p.items()} for p in row] for row in a.table]


def funit(a: FDAlgebra) -> dict[int, Fraction]:
    """The unit of an algebra as a ``Fraction`` vector."""
    return {k: Fraction(v, a.den) for k, v in a.unit.items()}


def counit_values(h: HopfAlgebra) -> dict[int, Fraction]:
    """ε(e_i) for each basis vector e_i, as a sparse vector."""
    return {i: col[0] for i, col in enumerate(fcols(h.counit)) if col}


def accumulate(acc: dict, key, val) -> None:
    """Add ``val`` at ``key`` of a sparse vector, dropping a zero sum."""
    nv = acc.get(key, Q0) + val
    if nv == 0:
        acc.pop(key, None)
    else:
        acc[key] = nv


def apply(f: LinearMap, vec: dict) -> dict[int, Fraction]:
    """The image of a sparse vector under f, summed in ``Fraction``s."""
    out: dict[int, Fraction] = {}
    cols = fcols(f)
    for j, x in vec.items():
        for i, v in cols[j].items():
            accumulate(out, i, v * x)
    return out


def mul_sparse(table, x: dict[int, Fraction], y: dict[int, Fraction]) -> dict[int, Fraction]:
    """Product of sparse vectors through a structure-constant table."""
    acc: dict[int, Fraction] = {}
    for i, a in x.items():
        row = table[i]
        for j, b in y.items():
            ab = a * b
            for k, c in row[j].items():
                accumulate(acc, k, ab * c)
    return acc


def linear_combination(vectors, coeffs: dict) -> dict:
    """Σ coeffs[k]·vectors[k] for sparse vectors, with no zeros stored."""
    acc: dict = {}
    for k, c in coeffs.items():
        for i, v in vectors[k].items():
            acc[i] = acc.get(i, 0) + c * v
    return {k: v for k, v in acc.items() if v}


def delta_L(c: ComoduleAlgebra) -> list[dict[int, Fraction]]:
    """The columns of the left coaction P -> H (x) P, x -> S^{-1}(x_(1))
    (x) x_(0): the coaction followed by e_q (x) e_a -> S^{-1}(e_a) (x) e_q."""
    p, h = c.algebra, c.hopf
    dp, s_inv = p.dim, fcols(h.antipode_inv)
    flip = [{b * dp + q: v for b, v in s_inv[a].items()} for q in range(dp) for a in range(h.dim)]
    return [linear_combination(flip, col) for col in fcols(c.coaction)]


def integer_scaled(*families) -> tuple[int, list[list[dict[int, int]]]]:
    """Each family of sparse ``Fraction`` vectors times D, the least
    positive integer that makes every entry of every vector an integer."""
    families = [list(family) for family in families]
    den = lcm(*{v.denominator for family in families for vec in family for v in vec.values()})
    return den, [
        [{k: v.numerator * (den // v.denominator) for k, v in vec.items() if v} for vec in family]
        for family in families
    ]


def fbasis(sub: Subspace) -> list[dict[int, Fraction]]:
    """The reduced echelon basis of a subspace as ``Fraction`` vectors:
    its ``basis`` over its ``den``."""
    return [{k: Fraction(v, sub.den) for k, v in row.items()} for row in sub.basis]


def subspace(space: Space, basis, pivots) -> Subspace:
    """The subspace with a dense reduced echelon basis: its rows as sparse
    integers over their least common denominator."""
    den = lcm(*(v.denominator for row in basis for v in row))
    rows = tuple({i: int(v * den) for i, v in enumerate(row) if v} for row in basis)
    return Subspace(space, rows, tuple(pivots), den)


def coordinates(sub: Subspace, vec: dict) -> dict[int, Fraction] | None:
    """Coordinates of a sparse vector in the echelon basis, or None if it
    lies outside: the reduction by the basis, pivot by pivot in
    ``Fraction`` arithmetic, leaves no remainder."""
    remainder = dict(vec)
    coords = {}
    for i, (p, row) in enumerate(zip(sub.pivots, fbasis(sub))):
        c = remainder.get(p)
        if c:
            coords[i] = c
            for k, v in row.items():
                accumulate(remainder, k, -c * v)
    return None if remainder else coords


def dense(vec: dict, n: int) -> tuple[Fraction, ...]:
    """A sparse vector written out with n coordinates."""
    return tuple(vec.get(i, Q0) for i in range(n))


def sparse(vec) -> dict[int, Fraction]:
    """The nonzero entries of a dense vector, keyed by position."""
    return {i: v for i, v in enumerate(vec) if v != 0}


def basis_vec(n: int, i: int) -> tuple[Fraction, ...]:
    return tuple(Q1 if j == i else Q0 for j in range(n))


def tensor_vec(u, v) -> tuple[Fraction, ...]:
    """u (x) v for dense vectors in the flattened left-major ordering."""
    return tuple(a * b for a in u for b in v)


def rref(rows) -> tuple[tuple[tuple[Fraction, ...], ...], tuple[int, ...]]:
    """Reduced row echelon form by Gauss–Jordan elimination, column by
    column.  Returns (nonzero rows, pivot columns)."""
    mat = [list(r) for r in rows]
    if not mat:
        return (), ()
    n_cols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(n_cols):
        piv = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        lead = mat[r][c]
        mat[r] = [x / lead for x in mat[r]]
        for i in range(len(mat)):
            f = mat[i][c]
            if i != r and f != 0:
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return tuple(tuple(row) for row in mat[:r]), tuple(pivots)


def kernel_vectors(rows, n_cols: int) -> list[tuple[Fraction, ...]]:
    """One solution of (rows) x = 0 per free column."""
    rr, pivots = rref(rows)
    out = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [Q0] * n_cols
        v[f] = Q1
        for row, p in zip(rr, pivots):
            if row[f] != 0:
                v[p] = -row[f]
        out.append(tuple(v))
    return out


def kernel(rows, n_cols: int):
    """Echelon basis and pivots of the kernel."""
    return rref(kernel_vectors(rows, n_cols))


def inverse(rows):
    """Rows of the inverse of a square matrix, or None when singular."""
    n = len(rows)
    aug = [list(row) + [Q1 if j == i else Q0 for j in range(n)] for i, row in enumerate(rows)]
    rr, pivots = rref(aug)
    if pivots != tuple(range(n)):
        return None
    return tuple(tuple(row[n:]) for row in rr)


def reduce(basis, pivots, vec) -> tuple[Fraction, ...]:
    """Remainder of vec after killing all pivot coordinates."""
    v = list(vec)
    for row, p in zip(basis, pivots):
        c = v[p]
        if c != 0:
            v = [x - c * y for x, y in zip(v, row)]
    return tuple(v)


def intersection(u_basis, v_basis, n: int):
    """Echelon basis and pivots of span(u) ∩ span(v), from the kernel of
    [U^T | -V^T]."""
    du, dv = len(u_basis), len(v_basis)
    if du == 0 or dv == 0:
        return (), ()
    rows = [
        [u_basis[k][r] for k in range(du)] + [-v_basis[j][r] for j in range(dv)]
        for r in range(n)
    ]
    vectors = []
    for w in kernel_vectors(rows, du + dv):
        acc = [Q0] * n
        for k in range(du):
            acc = [x + w[k] * y for x, y in zip(acc, u_basis[k])]
        vectors.append(tuple(acc))
    return rref(vectors)


def quotient(killed_basis, killed_pivots, n: int):
    """(projection rows, section columns) of ambient/killed, whose basis is
    the classes of the non-pivot coordinates, in order; the projection of
    e_j reads the reduced e_j at those coordinates."""
    reps = [c for c in range(n) if c not in killed_pivots]
    proj_cols = [
        [reduce(killed_basis, killed_pivots, [Q1 if i == j else Q0 for i in range(n)])[c] for c in reps]
        for j in range(n)
    ]
    projection = tuple(tuple(col[i] for col in proj_cols) for i in range(len(reps)))
    section = tuple(tuple(Q1 if i == c else Q0 for i in range(n)) for c in reps)
    return projection, section


def identity(n: int) -> tuple[tuple[Fraction, ...], ...]:
    return tuple(tuple(Q1 if i == j else Q0 for j in range(n)) for i in range(n))


def compose(a, b, n_cols: int):
    """The rows of a·b for b with ``n_cols`` columns, skipping zeros."""
    n_rows = len(a)
    out = [[Q0] * n_cols for _ in range(n_rows)]
    for j, brow in enumerate(b):
        if not any(brow):
            continue
        anz = [(i, a[i][j]) for i in range(n_rows) if a[i][j] != 0]
        for c, w in enumerate(brow):
            if w == 0:
                continue
            for i, v in anz:
                out[i][c] += v * w
    return tuple(tuple(r) for r in out)


def kron(a, b, a_cols: int, b_cols: int):
    """The rows of a (x) b in the left-major ordering, for a with
    ``a_cols`` and b with ``b_cols`` columns."""
    out = [[Q0] * (a_cols * b_cols) for _ in range(len(a) * len(b))]
    for i, row_a in enumerate(a):
        for j, x in enumerate(row_a):
            if x == 0:
                continue
            for k, row_b in enumerate(b):
                dest = out[i * len(b) + k]
                for l, y in enumerate(row_b):
                    if y != 0:
                        dest[j * b_cols + l] = x * y
    return tuple(tuple(r) for r in out)


def preimage(f_rows, n_source: int, w_basis, w_pivots):
    """Echelon basis and pivots of {x : f(x) in W}: the kernel of the
    projection modulo W after f."""
    projection, _ = quotient(w_basis, w_pivots, len(f_rows))
    if not projection:
        return kernel([], n_source)
    return kernel(compose(projection, f_rows, n_source), n_source)


def sections(base, w_zero: Subspace, w_one: Subspace):
    """Echelon basis and pivots of the elements x of C (x) F with
    (e₀ (x) id)x in W₀ and (e₁ (x) id)x in W₁: the intersection of the
    two preimages, each the kernel of the projection modulo W after the
    evaluation e (x) id."""
    n, dim = w_zero.ambient.dim, base.dim * w_zero.ambient.dim
    preimages = []
    for end, w in ((base.end_zero, w_zero), (base.end_one, w_one)):
        f_rows = kron(end.rows, identity(n), base.dim, n)
        w_basis = tuple(dense(b, n) for b in fbasis(w))
        preimages.append(preimage(f_rows, dim, w_basis, w.pivots)[0])
    return intersection(*preimages, dim)


def stored_rows(system: LinearSystem) -> list[tuple[dict[int, int], int, int]]:
    """Every row of a system as ``(coeffs, rhs, scale)``, in order."""
    return [system.row(k) for k in range(len(system))]


class ParentElimination(LinearSystem):
    """A linear system solved by the elimination the library ran before
    unit-multiplier steps were done in place, the provenance pass was
    restricted to the contradiction's component and the first pass to
    the components with a nonzero right-hand side: every step copies the
    working row, the first pass runs every row, and the provenance pass
    re-runs rows 0..idx."""

    @staticmethod
    def _normalize(coeffs: dict[int, int], rhs: int) -> tuple[dict[int, int], int, int]:
        g = gcd(rhs, *coeffs.values())
        if g > 1:
            coeffs = {c: v // g for c, v in coeffs.items()}
            rhs //= g
        else:
            g = 1
        return coeffs, rhs, g

    def _run(self, upto: int | None, track: bool):
        """Forward elimination; returns ('infeasible', ...) or pivot data.

        With ``track``, each working row carries ``(mults, den)``: it
        equals the combination of the stored rows with integer
        multipliers ``mults`` divided by ``den``, kept in lowest terms.
        """
        pivots: dict[int, tuple[dict[int, int], int, tuple[dict[int, int], int] | None]] = {}
        end = len(self) if upto is None else upto + 1
        for idx in range(end):
            coeffs, rhs, _ = self.row(idx)
            mults, den = ({idx: 1}, 1) if track else (None, 1)
            while coeffs:
                j = min(coeffs)
                hit = pivots.get(j)
                if hit is None:
                    break
                pc, pr, pp = hit
                a = coeffs[j]
                b = pc[j]
                g = gcd(a, b)
                mr = b // g
                mp = a // g
                new = {c: mr * v for c, v in coeffs.items()}
                for c, v in pc.items():
                    nv = new.get(c, 0) - mp * v
                    if nv:
                        new[c] = nv
                    else:
                        new.pop(c, None)
                rhs = mr * rhs - mp * pr
                coeffs = new
                g2 = 1
                if coeffs:
                    coeffs, rhs, g2 = self._normalize(coeffs, rhs)
                if track:
                    pm, pden = pp
                    # mr·(mults/den) − mp·(pm/pden), then divided by g2.
                    common = lcm(den, pden)
                    fr = mr * (common // den)
                    fp = mp * (common // pden)
                    newp = {k: fr * v for k, v in mults.items()}
                    for k, v in pm.items():
                        nv = newp.get(k, 0) - fp * v
                        if nv:
                            newp[k] = nv
                        else:
                            newp.pop(k, None)
                    den = common * g2
                    g3 = gcd(den, *newp.values())
                    if g3 > 1:
                        newp = {k: v // g3 for k, v in newp.items()}
                        den //= g3
                    mults = newp
            if coeffs:
                lead = min(coeffs)
                if coeffs[lead] < 0:
                    coeffs = {c: -v for c, v in coeffs.items()}
                    rhs = -rhs
                    if track:
                        mults = {k: -v for k, v in mults.items()}
                pivots[lead] = (coeffs, rhs, (mults, den) if track else None)
            elif rhs != 0:
                return ("infeasible", idx, rhs, (mults, den) if track else None)
        return ("ok", pivots)

    def solve(self):
        """Return a tuple of Fraction values, or an Infeasibility.

        A refutation is checked before it is returned: its multipliers
        must cancel every unknown and leave a nonzero right-hand side.
        """
        outcome = self._run(None, track=False)
        if outcome[0] == "infeasible":
            _, idx, _, _ = outcome
            redo = self._run(idx, track=True)
            if redo[0] != "infeasible":
                raise AssertionError(
                    "infeasibility did not reproduce under provenance: the fast "
                    f"pass met a contradiction at row {idx}, the provenance pass "
                    f"none in rows 0..{idx}"
                )
            _, idx2, _, (mults, den) = redo
            if idx2 != idx:
                raise AssertionError(
                    "provenance pass diverged from the fast pass: contradiction "
                    f"at row {idx2} under provenance, at row {idx} without"
                )
            coeffs, rhs = self._combine_int(mults)
            if coeffs or rhs == 0:
                raise AssertionError(
                    f"Farkas multipliers of the contradiction at row {idx} do not "
                    f"refute the system: {len(coeffs)} unknowns left, "
                    f"right-hand side {rhs}"
                )
            farkas = {k: Fraction(q * self.row(k)[2], den) for k, q in mults.items()}
            return Infeasibility(idx, farkas, Fraction(rhs, den))
        _, pivots = outcome
        values = [Q0] * self.num_unknowns
        for col in sorted(pivots, reverse=True):
            coeffs, rhs, _ = pivots[col]
            acc = Fraction(rhs)
            for c, v in coeffs.items():
                if c != col:
                    acc -= v * values[c]
            values[col] = acc / coeffs[col]
        return tuple(values)


# ---------------------------------------------------------------- connection rows

def connection_rows(c: ComoduleAlgebra, require_unital: bool) -> list:
    """The stored rows of the connection system, built one row at a time
    in the order the library emits them: right colinearity over
    (u, x, a, col), left colinearity over (a, u, v, col), splitting over
    (u, a, col), and unitality over (p1, p2)."""
    p, h = c.algebra, c.hopf
    dp, dh = p.dim, h.dim
    system = LinearSystem(dp * dp * dh)

    den, (delta, dl, mult, cop, (unit_p, unit_h)) = integer_scaled(
        fcols(c.coaction),
        delta_L(c),
        (prod for row in ftable(p) for prod in row),
        fcols(h.coproduct),
        (funit(p), funit(h.algebra)),
    )

    def rows_of(cols, n_rows):
        rows = [[] for _ in range(n_rows)]
        for j, col in enumerate(cols):
            for i, v in col.items():
                rows[i].append((j, v))
        return rows

    delta_rows = rows_of(delta, dp * dh)
    dl_rows = rows_of(dl, dh * dp)
    mult_rows = rows_of(mult, dp)
    by_second = [[[] for _ in range(dh)] for _ in range(dh)]
    by_first = [[[] for _ in range(dh)] for _ in range(dh)]
    for idx, row in enumerate(rows_of(cop, dh * dh)):
        leg1, leg2 = divmod(idx, dh)
        for col, val in row:
            by_second[col][leg2].append((leg1, val))
            by_first[col][leg1].append((leg2, val))

    def add(coeffs, rhs, row_den):
        if rhs or any(coeffs.values()):
            system.add_int_row(coeffs, rhs, row_den)

    for u in range(dp):
        for x in range(dp):
            for a in range(dh):
                drow = delta_rows[x * dh + a]
                for col in range(dh):
                    coeffs = {(u * dp + q) * dh + col: val for q, val in drow}
                    for b, val in by_second[col][a]:
                        key = (u * dp + x) * dh + b
                        coeffs[key] = coeffs.get(key, 0) - val
                    add(coeffs, 0, den)

    for a in range(dh):
        for u in range(dp):
            lrow = dl_rows[a * dp + u]
            for v in range(dp):
                for col in range(dh):
                    coeffs = {(pi * dp + v) * dh + col: val for pi, val in lrow}
                    for d, val in by_first[col][a]:
                        key = (u * dp + v) * dh + d
                        coeffs[key] = coeffs.get(key, 0) - val
                    add(coeffs, 0, den)

    for u in range(dp):
        for a in range(dh):
            lc_row = {}
            for pw, mval in mult_rows[u]:
                pi, w = divmod(pw, dp)
                for q, dval in delta_rows[w * dh + a]:
                    key = pi * dp + q
                    lc_row[key] = lc_row.get(key, 0) + mval * dval
            for col in range(dh):
                coeffs = {r * dh + col: val for r, val in lc_row.items()}
                add(coeffs, unit_p.get(u, 0) * den if a == col else 0, den * den)

    if require_unital:
        for p1 in range(dp):
            for p2 in range(dp):
                coeffs = {
                    (p1 * dp + p2) * dh + col: val * den for col, val in unit_h.items()
                }
                add(coeffs, unit_p.get(p1, 0) * unit_p.get(p2, 0), den * den)

    return stored_rows(system)


# ---------------------------------------------------------------- axiom batteries
#
# The axiom batteries as the library computed them in Fraction arithmetic,
# one entry at a time.  The Hopf battery checks each counit law and each
# antipode law in a loop of its own, so a failing left law does not hide
# the right one.

def check_algebra(alg: FDAlgebra) -> CheckReport:
    """Associativity plus two-sided unit, with the first failing witness."""
    n = alg.dim
    table = ftable(alg)
    failures: list[Failure] = []
    unit = funit(alg)

    assoc_failure = None
    for i in range(n):
        if assoc_failure:
            break
        for j in range(n):
            if assoc_failure:
                break
            left_ij = table[i][j]
            for k in range(n):
                lhs = mul_sparse(table, left_ij, {k: Q1})
                rhs = mul_sparse(table, {i: Q1}, table[j][k])
                if lhs != rhs:
                    assoc_failure = Failure(
                        "associativity",
                        f"(e{i}·e{j})·e{k} differs from e{i}·(e{j}·e{k})",
                        (i, j, k),
                    )
                    break
    if assoc_failure:
        failures.append(assoc_failure)

    for i in range(n):
        if mul_sparse(table, unit, {i: Q1}) != {i: Q1}:
            failures.append(
                Failure("unit_left", f"1·e{i} is not e{i}", (i,))
            )
            break
    for i in range(n):
        if mul_sparse(table, {i: Q1}, unit) != {i: Q1}:
            failures.append(
                Failure("unit_right", f"e{i}·1 is not e{i}", (i,))
            )
            break

    return CheckReport(not failures, tuple(failures))



def check_hopf(h: HopfAlgebra) -> CheckReport:
    """Full axiom battery; each failed axiom appears once, by name, with
    its first witness.

    Axiom names: the three algebra axioms, then coassociativity,
    counit_left, counit_right, coproduct_multiplicative,
    coproduct_unital, counit_multiplicative, counit_unital,
    antipode_left, antipode_right, antipode_bijective.
    """
    failures: list[Failure] = list(check_algebra(h.algebra).failures)
    n = h.dim
    table = ftable(h.algebra)
    delta = fcols(h.coproduct)
    eps = dense(counit_values(h), n)
    s_cols = fcols(h.antipode)
    unit = funit(h.algebra)

    # coassociativity: both iterated coproducts agree on every basis vector
    for i in range(n):
        lhs: dict[int, Fraction] = {}
        rhs: dict[int, Fraction] = {}
        for pq, c in delta[i].items():
            p, q = divmod(pq, n)
            for ab, d in delta[p].items():
                accumulate(lhs, ab * n + q, c * d)
            for ab, d in delta[q].items():
                accumulate(rhs, p * n * n + ab, c * d)
        if lhs != rhs:
            failures.append(
                Failure(
                    "coassociativity",
                    f"iterated coproducts disagree on basis vector {i}",
                    (i,),
                )
            )
            break

    # counit laws: collapsing either tensor leg recovers the identity
    for i in range(n):
        left: dict[int, Fraction] = {}
        for pq, c in delta[i].items():
            p, q = divmod(pq, n)
            if eps[p] != 0:
                accumulate(left, q, c * eps[p])
        if left != {i: Q1}:
            failures.append(
                Failure("counit_left", f"(ε⊗id)∘Δ is not the identity at {i}", (i,))
            )
            break
    for i in range(n):
        right: dict[int, Fraction] = {}
        for pq, c in delta[i].items():
            p, q = divmod(pq, n)
            if eps[q] != 0:
                accumulate(right, p, c * eps[q])
        if right != {i: Q1}:
            failures.append(
                Failure("counit_right", f"(id⊗ε)∘Δ is not the identity at {i}", (i,))
            )
            break

    # the coproduct is an algebra map
    def tensor_square_product(x: dict[int, Fraction], y: dict[int, Fraction]):
        acc: dict[int, Fraction] = {}
        for pq, a in x.items():
            p, q = divmod(pq, n)
            for rs, b in y.items():
                r, s = divmod(rs, n)
                ab = a * b
                for u, cu in table[p][r].items():
                    for v, cv in table[q][s].items():
                        accumulate(acc, u * n + v, ab * cu * cv)
        return acc

    mult_ok = True
    for i in range(n):
        if not mult_ok:
            break
        for j in range(n):
            lhs = apply(h.coproduct, table[i][j])
            rhs = tensor_square_product(delta[i], delta[j])
            if lhs != rhs:
                failures.append(
                    Failure(
                        "coproduct_multiplicative",
                        f"Δ(e{i}·e{j}) differs from Δ(e{i})·Δ(e{j})",
                        (i, j),
                    )
                )
                mult_ok = False
                break

    unit_sq = {
        p * n + q: a * b for p, a in unit.items() for q, b in unit.items()
    }
    if apply(h.coproduct, unit) != unit_sq:
        failures.append(Failure("coproduct_unital", "Δ(1) is not 1⊗1"))

    eps_mult_ok = True
    for i in range(n):
        if not eps_mult_ok:
            break
        for j in range(n):
            lhs_s = sum((c * eps[k] for k, c in table[i][j].items()), Q0)
            if lhs_s != eps[i] * eps[j]:
                failures.append(
                    Failure(
                        "counit_multiplicative",
                        f"ε(e{i}·e{j}) differs from ε(e{i})ε(e{j})",
                        (i, j),
                    )
                )
                eps_mult_ok = False
                break

    if sum((c * eps[i] for i, c in unit.items()), Q0) != Q1:
        failures.append(Failure("counit_unital", "ε(1) is not 1"))

    # antipode laws: m∘(S⊗id)∘Δ = unit∘ε = m∘(id⊗S)∘Δ
    def unit_eps(i):
        return {k: eps[i] * v for k, v in unit.items()} if eps[i] != 0 else {}

    for i in range(n):
        left_acc: dict[int, Fraction] = {}
        for pq, c in delta[i].items():
            p, q = divmod(pq, n)
            for k, v in mul_sparse(table, s_cols[p], {q: Q1}).items():
                accumulate(left_acc, k, c * v)
        if left_acc != unit_eps(i):
            failures.append(
                Failure("antipode_left", f"m∘(S⊗id)∘Δ misses unit∘ε at {i}", (i,))
            )
            break
    for i in range(n):
        right_acc: dict[int, Fraction] = {}
        for pq, c in delta[i].items():
            p, q = divmod(pq, n)
            for k, v in mul_sparse(table, {p: Q1}, s_cols[q]).items():
                accumulate(right_acc, k, c * v)
        if right_acc != unit_eps(i):
            failures.append(
                Failure("antipode_right", f"m∘(id⊗S)∘Δ misses unit∘ε at {i}", (i,))
            )
            break

    if h.antipode_inv is None:
        failures.append(Failure("antipode_bijective", "the antipode is singular"))
    elif not (
        h.antipode.compose(h.antipode_inv).is_identity()
        and h.antipode_inv.compose(h.antipode).is_identity()
    ):
        failures.append(
            Failure("antipode_bijective", "stored inverse does not invert the antipode")
        )

    return CheckReport(not failures, tuple(failures))



def check_comodule(c: ComoduleAlgebra) -> CheckReport:
    """Named axioms: coaction_multiplicative, coaction_unital,
    coaction_coassociative, coaction_counital.

    The identification P (x) k = P is literal on coordinates because the
    scalar factor is one-dimensional.
    """
    p, h = c.algebra, c.hopf
    dp, dh = p.dim, h.dim
    failures: list[Failure] = []
    dcols = fcols(c.coaction)
    cop_cols = fcols(h.coproduct)
    ptab, htab = ftable(p), ftable(h.algebra)
    eps = dense(counit_values(h), dh)

    mult_ok = True
    for i in range(dp):
        if not mult_ok:
            break
        for j in range(dp):
            lhs = apply(c.coaction, ptab[i][j])
            rhs: dict[int, Fraction] = {}
            for pa, va in dcols[i].items():
                pi, ai = divmod(pa, dh)
                for qb, vb in dcols[j].items():
                    qi, bi = divmod(qb, dh)
                    vab = va * vb
                    for u, mv in ptab[pi][qi].items():
                        for w, hv in htab[ai][bi].items():
                            accumulate(rhs, u * dh + w, vab * mv * hv)
            if lhs != rhs:
                failures.append(
                    Failure(
                        "coaction_multiplicative",
                        f"δ(e{i}·e{j}) differs from δ(e{i})·δ(e{j})",
                        (i, j),
                    )
                )
                mult_ok = False
                break

    expected_unit = sparse(tensor_vec(dense(funit(p), dp), dense(funit(h.algebra), dh)))
    if apply(c.coaction, funit(p)) != expected_unit:
        failures.append(Failure("coaction_unital", "δ(1) is not 1⊗1"))

    for j in range(dp):
        lhs = {}
        rhs = {}
        for pa, val in dcols[j].items():
            pi, ai = divmod(pa, dh)
            for qb, w in dcols[pi].items():
                accumulate(lhs, qb * dh + ai, val * w)
            for bc, w in cop_cols[ai].items():
                accumulate(rhs, pi * dh * dh + bc, val * w)
        if lhs != rhs:
            failures.append(
                Failure(
                    "coaction_coassociative",
                    f"(δ⊗id)∘δ and (id⊗Δ)∘δ disagree on basis vector {j}",
                    (j,),
                )
            )
            break

    for j in range(dp):
        out: dict[int, Fraction] = {}
        for pa, val in dcols[j].items():
            pi, ai = divmod(pa, dh)
            if eps[ai] != 0:
                accumulate(out, pi, val * eps[ai])
        if out != {j: Q1}:
            failures.append(
                Failure(
                    "coaction_counital",
                    f"(id⊗ε)∘δ is not the identity at basis vector {j}",
                    (j,),
                )
            )
            break

    return CheckReport(not failures, tuple(failures))


def connection_unital(c: ComoduleAlgebra, ell: LinearMap) -> bool:
    """Whether a map H -> P (x) P sends the unit to 1 (x) 1."""
    dp = c.algebra.dim
    unit_p = funit(c.algebra)
    unit_pp = {i * dp + j: a * b for i, a in unit_p.items() for j, b in unit_p.items()}
    return apply(ell, funit(c.hopf.algebra)) == unit_pp



def check_strong_connection(
    c: ComoduleAlgebra, ell: LinearMap, require_unital: bool = False
) -> CheckReport:
    """Re-verify a claimed connection column by column.

    Named axioms: right_colinearity, left_colinearity, splitting,
    counit_product, and (when requested) unital.
    """
    p, h = c.algebra, c.hopf
    dp, dh = p.dim, h.dim
    if ell.source.dim != dh or ell.target.dim != dp * dp:
        raise ValueError("connection has wrong shape")
    failures: list[Failure] = []

    ell_cols = fcols(ell)
    delta_cols = fcols(c.coaction)
    cop_cols = fcols(h.coproduct)
    ptab = ftable(p)
    eps = dense(counit_values(h), dh)
    unit_p = funit(p)
    dl_cols = delta_L(c)

    for col in range(dh):
        lhs: dict[int, Fraction] = {}
        rhs: dict[int, Fraction] = {}
        for r, val in ell_cols[col].items():
            u, q = divmod(r, dp)
            for xa, w in delta_cols[q].items():
                accumulate(lhs, u * dp * dh + xa, val * w)
        for ba, w in cop_cols[col].items():
            b, a = divmod(ba, dh)
            for r, val in ell_cols[b].items():
                u, x = divmod(r, dp)
                accumulate(rhs, (u * dp + x) * dh + a, val * w)
        if lhs != rhs:
            failures.append(
                Failure(
                    "right_colinearity",
                    f"(id⊗δ)∘ℓ and (ℓ⊗id)∘Δ disagree on basis vector {col}",
                    (col,),
                )
            )
            break

    for col in range(dh):
        lhs = {}
        rhs = {}
        for r, val in ell_cols[col].items():
            pi, v = divmod(r, dp)
            for au, w in dl_cols[pi].items():
                accumulate(lhs, au * dp + v, val * w)
        for ad, w in cop_cols[col].items():
            a, d = divmod(ad, dh)
            for r, val in ell_cols[d].items():
                u, v = divmod(r, dp)
                accumulate(rhs, (a * dp + u) * dp + v, val * w)
        if lhs != rhs:
            failures.append(
                Failure(
                    "left_colinearity",
                    f"(δ_L⊗id)∘ℓ and (id⊗ℓ)∘Δ disagree on basis vector {col}",
                    (col,),
                )
            )
            break

    for col in range(dh):
        acc: dict[int, Fraction] = {}
        for r, val in ell_cols[col].items():
            pi, q = divmod(r, dp)
            for wa, dval in delta_cols[q].items():
                w, a = divmod(wa, dh)
                for u, mv in ptab[pi][w].items():
                    accumulate(acc, u * dh + a, val * dval * mv)
        target = {u * dh + col: v for u, v in unit_p.items()}
        if acc != target:
            failures.append(
                Failure(
                    "splitting",
                    f"the lifted canonical map does not send ℓ(e{col}) to 1⊗e{col}",
                    (col,),
                )
            )
            break

    for col in range(dh):
        acc = {}
        for r, val in ell_cols[col].items():
            pi, q = divmod(r, dp)
            for u, mv in ptab[pi][q].items():
                accumulate(acc, u, val * mv)
        target = {u: eps[col] * v for u, v in unit_p.items()} if eps[col] != 0 else {}
        if acc != target:
            failures.append(
                Failure(
                    "counit_product",
                    f"m∘ℓ misses unit∘ε on basis vector {col}",
                    (col,),
                )
            )
            break

    if require_unital and not connection_unital(c, ell):
        failures.append(Failure("unital", "ℓ(1) is not 1⊗1"))

    return CheckReport(not failures, tuple(failures))


def check_hom(hom: AlgebraHom) -> HomReport:
    """f(xy) = f(x)f(y) on basis pairs and f(1) = 1 in ``Fraction``
    arithmetic, with the first failing pair, plus rank data from the
    dense echelon form."""
    a, b, f = hom.source, hom.target, hom.map
    table_a, table_b, cols = ftable(a), ftable(b), fcols(f)
    failures: list[Failure] = []
    for i in range(a.dim):
        if failures:
            break
        for j in range(a.dim):
            if apply(f, table_a[i][j]) != mul_sparse(table_b, cols[i], cols[j]):
                failures.append(
                    Failure("multiplicative", f"f(e{i}·e{j}) differs from f(e{i})·f(e{j})", (i, j))
                )
                break
    if apply(f, funit(a)) != funit(b):
        failures.append(Failure("unital", "f(1) is not the target unit"))
    failed = {failure.axiom for failure in failures}
    rank = len(rref(f.rows)[1])
    return HomReport(
        ok=not failures,
        multiplicative="multiplicative" not in failed,
        unital="unital" not in failed,
        injective=rank == a.dim,
        surjective=rank == b.dim,
        failures=tuple(failures),
    )


# ---------------------------------------------------------------- carrier restriction and lift


def subalgebra_from_subspace(
    ambient: FDAlgebra, sub: Subspace, label_prefix: str = "s"
) -> SubalgebraWitness:
    """Restrict the product of ``ambient`` to ``sub``, each basis product
    formed and reduced in ``Fraction`` arithmetic."""
    if sub.ambient.dim != ambient.dim:
        raise ValueError("subspace does not live in the algebra")
    d = sub.dim
    space = Space(tuple(f"{label_prefix}{i}" for i in range(d)))
    table: list[list[dict[int, Fraction]]] = [[{} for _ in range(d)] for _ in range(d)]
    ambient_table = ftable(ambient)
    basis = fbasis(sub)
    for i, left in enumerate(basis):
        for j, right in enumerate(basis):
            prod = mul_sparse(ambient_table, left, right)
            coords = coordinates(sub, prod)
            if coords is None:
                raise ClosureError(i, j, dict(sorted(prod.items())))
            table[i][j] = coords
    unit = coordinates(sub, funit(ambient))
    unital = unit is not None
    algebra = FDAlgebra(space, table, unit if unital else {})
    inclusion = LinearMap.from_sparse_columns(space, ambient.space, basis)
    return SubalgebraWitness(sub, algebra, inclusion, unital)


def tensor_coordinates(
    left: Subspace, right: Subspace, vec: dict[int, Fraction]
) -> dict[int, Fraction] | None:
    """Sparse coordinates of a sparse vector of A (x) B in U (x) V, keyed
    k·dim V + l, or None: each column is reduced by U, then each row of
    the coefficients by V, in ``Fraction`` arithmetic."""
    nb = right.ambient.dim
    columns: dict[int, dict[int, Fraction]] = {}
    for key, val in vec.items():
        i, j = divmod(key, nb)
        columns.setdefault(j, {})[i] = val
    rows: dict[int, dict[int, Fraction]] = {}
    for j, col in columns.items():
        alpha = coordinates(left, col)
        if alpha is None:
            return None
        for k, a in alpha.items():
            rows.setdefault(k, {})[j] = a
    dv = right.dim
    coords: dict[int, Fraction] = {}
    for k in sorted(rows):
        c = coordinates(right, rows[k])
        if c is None:
            return None
        for l, v in c.items():
            coords[k * dv + l] = v
    return coords


def lift_connection(fusion: EquivariantFusion, sqrt: SqrtPair, ell: LinearMap) -> LiftedConnection:
    """The lifted connection with its columns assembled in ``Fraction``
    arithmetic and reduced by :func:`tensor_coordinates`, every boundary
    display computed on the ambient.  A refusal names the displays that
    fail, in the library's wording and order."""
    inner = fusion.inner
    h = inner.hopf
    dp, dh = inner.algebra.dim, h.dim
    amb_dim = fusion.ambient.dim
    s, sp = sqrt.vanish_at_zero, sqrt.vanish_at_one
    unit_p = funit(inner.algebra)
    s_cols = fcols(h.antipode)
    ell_cols, cop_cols, legs3_cols = fcols(ell), fcols(h.coproduct), fcols(sweedler_legs(h, 3))
    columns: list[dict[int, Fraction]] = []
    for c in range(dh):
        col: dict[int, Fraction] = {}
        for abd, v3 in legs3_cols[c].items():
            ab, d = divmod(abd, dh)
            a, b = divmod(ab, dh)
            for a2, sv in s_cols[a].items():
                for r, lv in ell_cols[b].items():
                    p1, p2 = divmod(r, dp)
                    for k1, sk1 in s.items():
                        block = ((k1 * dp + p1) * dh + a2) * amb_dim
                        for k2, sk2 in s.items():
                            key = block + (k2 * dp + p2) * dh + d
                            accumulate(col, key, v3 * sv * lv * sk1 * sk2)
        for ab, v2 in cop_cols[c].items():
            a, b = divmod(ab, dh)
            for a2, sv in s_cols[a].items():
                for u1, uv1 in unit_p.items():
                    for k1, sk1 in sp.items():
                        block = ((k1 * dp + u1) * dh + a2) * amb_dim
                        for u2, uv2 in unit_p.items():
                            for k2, sk2 in sp.items():
                                accumulate(
                                    col,
                                    block + (k2 * dp + u2) * dh + b,
                                    v2 * sv * uv1 * uv2 * sk1 * sk2,
                                )
        columns.append(col)
    full = Subspace.full(fusion.ambient.space)
    one, zero = fusion.cond_one, fusion.cond_zero
    displays = {
        "one-end condition on the left factor": (one, full),
        "zero-end condition on the left factor": (zero, full),
        "one-end condition on the right factor": (full, one),
        "zero-end condition on the right factor": (full, zero),
    }
    corestricts = tuple(
        all(tensor_coordinates(left, right, col) is not None for col in columns)
        for left, right in displays.values()
    )
    if not all(corestricts):
        failed = [name for name, ok in zip(displays, corestricts) if not ok]
        raise AssertionError(f"lifted image leaves the carrier: {', '.join(failed)}")
    ef_cols = [tensor_coordinates(fusion.carrier, fusion.carrier, col) for col in columns]
    if None in ef_cols:
        raise AssertionError("lifted image misses the carrier square")
    ef_space = fusion.comodule.algebra.space
    lifted = LinearMap.from_sparse_columns(h.space, ef_space.tensor(ef_space), ef_cols)
    report = check_strong_connection(fusion.comodule, lifted)
    return LiftedConnection(fusion, sqrt, ell, lifted, corestricts, report)


def pullback_glue(pb: PullbackIdentification) -> LinearMap:
    """The gluing map of a pullback identification, each basis vector of
    the fiber product placed through the halves' carrier bases and reduced
    by the fusion carrier in ``Fraction`` arithmetic, as the library
    computed it before it composed the halves' integer inclusions."""
    dph = pb.inner.algebra.dim * pb.inner.hopf.dim
    m_lower = pb.lower.ambient.dim // dph - 1
    d1 = pb.lower.comodule.algebra.dim
    lower, upper = fbasis(pb.lower.carrier), fbasis(pb.upper.carrier)
    glue_cols = []
    for vec in fbasis(pb.fiber.carrier):
        img: dict[int, Fraction] = {}
        for j, val in vec.items():
            if j < d1:
                # levels 0..m_lower keep their place
                for idx, x in lower[j].items():
                    accumulate(img, idx, val * x)
            else:
                for idx, x in upper[j - d1].items():
                    # level 0 is the shared fiber, present from the lower part
                    if idx >= dph:
                        accumulate(img, m_lower * dph + idx, val * x)
        coords = coordinates(pb.fusion.carrier, img)
        if coords is None:
            raise AssertionError("glued section leaves the fusion carrier")
        glue_cols.append(coords)
    return LinearMap.from_sparse_columns(
        pb.fiber.comodule.algebra.space, pb.fusion.comodule.algebra.space, glue_cols
    )
