"""Dense routines on row-major tuples of Fractions, kept as references for
the sparse ones in ``fusionalg.linalg``: the reduced row echelon form,
kernels, inverses, intersections, preimages and the projection onto a
quotient, computed the way the library computed them when its subspaces
held dense rows, and the product and tensor product of matrices, computed
the way it computed them when its maps held dense rows.  It also keeps
the library's earlier exact elimination, :class:`ParentElimination`, as
a reference for the solver's outcomes."""

from fractions import Fraction
from math import gcd, lcm

from fusionalg.linalg import Infeasibility, LinearSystem

Q0 = Fraction(0)
Q1 = Fraction(1)


def dense(vec: dict, n: int) -> tuple[Fraction, ...]:
    """A sparse vector written out with n coordinates."""
    return tuple(vec.get(i, Q0) for i in range(n))


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


class ParentElimination(LinearSystem):
    """A linear system solved by the elimination the library ran before
    unit-multiplier steps were done in place and the provenance pass was
    restricted to the contradiction's component: every step copies the
    working row, and the provenance pass re-runs rows 0..idx."""

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
        end = len(self._rows) if upto is None else upto + 1
        for idx in range(end):
            coeffs, rhs, _ = self._rows[idx]
            coeffs = dict(coeffs)
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
            farkas = {k: Fraction(q * self._rows[k][2], den) for k, q in mults.items()}
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
