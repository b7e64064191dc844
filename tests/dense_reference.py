"""Dense routines on row-major tuples of Fractions, kept as references for
the sparse ones in ``fusionalg.linalg``: the reduced row echelon form,
kernels, inverses, intersections, preimages and the projection onto a
quotient, computed the way the library computed them when its subspaces
held dense rows, and the product and tensor product of matrices, computed
the way it computed them when its maps held dense rows."""

from fractions import Fraction

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
