"""Exact linear algebra over the rationals with labeled bases.

A sparse vector is a dict from basis index to a nonzero entry.  A linear
map f: V -> W is stored as its dim(V) columns, each the sparse image of a
basis vector, in ``int`` entries over one least positive ``den``: rational
input is scaled once, when the map is built or decoded.  The kernels
(:func:`linear_combination`, :func:`on_left`, :func:`on_right`,
:func:`tensor_mul`) sum sparse ``int`` vectors.  The first returns a
new vector with no zeros; the last three add into a sparse vector
``acc`` that the caller owns and return it with its zeros kept, so that
a two-sided law is decided by adding one side and subtracting the other
into one vector and testing every entry for zero.  Zeros are dropped
where a vector is stored (:meth:`LinearMap.from_sparse_columns`,
:func:`integer_scaled`) or by :func:`nonzero`.
``fractions.Fraction`` is left where it is the data: solutions,
refutations, and the dense matrices at the document boundary.

One global convention drives every tensor construction in this package:
the basis of V (x) W is ordered lexicographically with the left factor
major, so the pair (i, j) flattens to ``i * dim(W) + j``.  With this
convention kron is strictly associative on coordinates, i.e.
``a.kron(b).kron(c)`` and ``a.kron(b.kron(c))`` are the same matrix,
and compositions across re-bracketed tensor factors need no shuffling.

Subspaces carry their reduced row echelon basis as sparse ``int`` rows
over one least ``den``, which makes subspace equality a literal
comparison, and coordinates the entries at the pivots.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from fractions import Fraction
from math import gcd, lcm

Q0 = Fraction(0)


def rat(value) -> Fraction:
    """Coerce an int, Fraction, or string like "3/5" to an exact rational."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"not an exact rational: {value!r}")


# ---------------------------------------------------------------- spaces

@dataclass(frozen=True)
class Space:
    """A finite-dimensional rational vector space with a labeled basis."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("basis labels must be unique")

    @property
    def dim(self) -> int:
        return len(self.labels)

    @staticmethod
    def of_dim(n: int, prefix: str = "e") -> "Space":
        return Space(tuple(f"{prefix}{i}" for i in range(n)))

    @staticmethod
    def scalar() -> "Space":
        return Space(("1",))

    def tensor(self, other: "Space") -> "Space":
        return Space(tuple(f"{a}⊗{b}" for a in self.labels for b in other.labels))


# ---------------------------------------------------------------- vectors

def tensor_vec(u: dict, v: dict, dim_v: int) -> dict:
    """u (x) v for sparse vectors in the flattened left-major ordering,
    where v lives in a space of dimension ``dim_v``.  Two constants are
    multiplied only when neither is 1."""
    return {
        i * dim_v + j: b if a == 1 else a if b == 1 else a * b
        for i, a in u.items()
        for j, b in v.items()
    }


def nonzero(vec: dict) -> dict:
    """The entries of a sparse vector that are not zero."""
    return {k: v for k, v in vec.items() if v}


def linear_combination(vectors, coeffs: dict) -> dict:
    """Σ coeffs[k]·vectors[k] for sparse vectors, with no zeros stored."""
    acc: dict = {}
    for k, c in coeffs.items():
        for i, v in vectors[k].items():
            acc[i] = acc.get(i, 0) + c * v
    return nonzero(acc)


# One structure map, given by its sparse columns, on one tensor leg, and the
# product in A (x) B: sparse int vectors in, added into ``acc``, a vector the
# caller owns (a new dict, never a shared structure-table entry), which is
# returned with its zeros kept.

def on_left(vec: dict, f_cols, width: int, acc: dict) -> dict:
    """(f (x) id)(vec) for vec in V (x) W, where dim W = ``width``."""
    for key, x in vec.items():
        i, j = divmod(key, width)
        for k, v in f_cols[i].items():
            out = k * width + j
            acc[out] = acc.get(out, 0) + x * v
    return acc


def on_right(vec: dict, f_cols, dim_v: int, dim_w: int, acc: dict) -> dict:
    """(id (x) f)(vec) for vec in U (x) V and f: V -> W, where dim V =
    ``dim_v`` and dim W = ``dim_w``."""
    for key, x in vec.items():
        i, j = divmod(key, dim_v)
        base = i * dim_w
        for k, v in f_cols[j].items():
            out = base + k
            acc[out] = acc.get(out, 0) + x * v
    return acc


def tensor_mul(x: dict, y: dict, table_a, dim_a: int, table_b, dim_b: int, acc: dict) -> dict:
    """x·y in A (x) B, from the flattened tables: ``table_a[i·dim_a + k]``
    is e_i·e_k in A, and likewise for B.  A pair of terms whose B factors
    multiply to zero costs one lookup: no coefficient is multiplied and
    ``table_a`` is not read for it."""
    for ij, u in x.items():
        i, j = divmod(ij, dim_b)
        for kl, v in y.items():
            k, l = divmod(kl, dim_b)
            right = table_b[j * dim_b + l]
            if not right:
                continue
            uv = u * v
            for p, a in table_a[i * dim_a + k].items():
                uva = uv * a
                for q, b in right.items():
                    out = p * dim_b + q
                    acc[out] = acc.get(out, 0) + uva * b
    return acc


def integer_scaled(vectors, den: int = 1) -> tuple[int, list[dict[int, int]]]:
    """The list of sparse rational vectors v/den as integers over their
    least common denominator D: returns D and the vectors times D/den,
    with ``int`` entries, no zeros stored and the keys in each vector's
    own order.  A vector that needs no change comes back as itself."""
    values = [*chain.from_iterable(map(dict.values, filter(None, vectors)))]
    if 0 in values or any(type(v) is not int for v in values):
        scale = lcm(*(v.denominator for v in values))
        vectors = [
            {k: v.numerator * (scale // v.denominator) for k, v in vec.items() if v} if vec else vec
            for vec in vectors
        ]
        den, values = den * scale, [*chain.from_iterable(map(dict.values, filter(None, vectors)))]
    g = gcd(den, *values)
    if g != 1:
        vectors = [{k: v // g for k, v in vec.items()} if vec else vec for vec in vectors]
    return den // g, vectors


def common_den(*parts) -> tuple[int, list]:
    """D, the lcm of the ``den`` of each part (a map, an algebra or a
    square-root pair), and the integers of each part over D, its
    ``over(D)``.  A sum of products of k of them is D^k times its
    rational value."""
    den = lcm(*(part.den for part in parts))
    return den, [part.over(den) for part in parts]


def components(n: int, groups) -> list[int]:
    """The finest partition of range(n) that keeps each group of indices
    (an iterable of ints) inside one part, as the least index of each
    index's part."""
    parent = list(range(n))

    def find(i):
        while parent[i] != i:
            parent[i] = i = parent[parent[i]]
        return i

    for group in groups:
        roots = sorted({find(k) for k in group})
        for root in roots[1:]:
            parent[root] = roots[0]
    return [find(i) for i in range(n)]


# ---------------------------------------------------------------- echelon

def _combine_owned(
    vec: dict[int, int], fv: int, fo: int, other: dict[int, int]
) -> dict[int, int]:
    """fv·vec − fo·other with the entries that cancel dropped.  ``vec``
    must be owned by the caller: it is updated in place when ``fv`` is 1,
    and copied, scaled, otherwise; either way the keys come out in the
    same order."""
    if fv != 1:
        vec = {c: fv * v for c, v in vec.items()}
    for c, v in other.items():
        nv = vec.get(c, 0) - fo * v
        if nv:
            vec[c] = nv
        else:
            vec.pop(c, None)
    return vec


def _primitive(vec: dict[int, int]) -> dict[int, int]:
    """A nonzero sparse integer vector divided by the gcd of its entries,
    signed so that the entry at its least column is positive."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    return vec if g == 1 else {k: v // g for k, v in vec.items()}


class _Echelon:
    """Sparse integer rows in reduced echelon form, kept as they come:
    ``rows`` maps each lead, a row's least column, to its row, which is
    primitive (its entries coprime), positive at its lead and zero at
    every other lead."""

    def __init__(self):
        self.rows: dict[int, dict[int, int]] = {}
        # every column but a lead -> the leads of the rows that hold it
        self._holders: dict[int, set[int]] = {}

    def remainder(self, vec: dict[int, int]) -> dict[int, int]:
        """An owned sparse integer row after one fraction-free step per
        lead it holds, which leaves it zero at every lead: a kept row is
        zero at every other lead, so no step changes the entry at one."""
        rows = self.rows
        for p in [c for c in vec if c in rows]:
            row = rows[p]
            a, b = vec[p], row[p]
            g = gcd(a, b)
            vec = _combine_owned(vec, b // g, a // g, row)
        return vec

    def keep(self, vec: dict[int, int]) -> None:
        """Keep a nonzero remainder, made primitive, under its least
        column, and clear that column from every row that holds it."""
        rows, holders = self.rows, self._holders
        vec = _primitive(vec)
        lead = min(vec)
        for c in vec:
            if c != lead:
                holders.setdefault(c, set()).add(lead)
        b = vec[lead]
        for p in holders.pop(lead, ()):
            a = rows[p][lead]
            g = gcd(a, b)
            row = _combine_owned(rows[p], b // g, a // g, vec)
            for c in vec:
                if c in row:
                    holders[c].add(p)
                elif c != lead:
                    holders[c].discard(p)
            rows[p] = _primitive(row)
        rows[lead] = vec


def rref(rows) -> tuple[tuple[dict[int, int], ...], tuple[int, ...], int]:
    """Reduced row echelon form of sparse rows with exact rational
    entries: (rows, pivot columns, den).  Each returned row is ``den``
    times a reduced echelon row, so it holds ``den`` at its pivot, its
    least column, and zero at every other pivot; ``den`` is the least
    positive integer that makes every entry an integer.

    Integer Gauss–Jordan (:class:`_Echelon`): the rows are scaled to
    integers once, and each is reduced by the rows kept so far; a
    remainder becomes a new row.  The reduced echelon form of a span is
    unique, and so is its primitive scaling, so neither the order nor the
    scale of the rows changes the result.
    """
    _, rows = integer_scaled(list(rows))
    echelon = _Echelon()
    for row in rows:
        vec = echelon.remainder(dict(row))  # a copy: it may be updated in place
        if vec:
            echelon.keep(vec)
    kept = echelon.rows
    pivots = tuple(sorted(kept))
    den = lcm(*(kept[p][p] for p in pivots))
    basis = []
    for p in pivots:
        row, f = kept[p], den // kept[p][p]
        basis.append(row if f == 1 else {k: v * f for k, v in row.items()})
    return tuple(basis), pivots, den


def kernel_vectors(rows, n_cols: int) -> list[dict[int, int]]:
    """Basis of the solution space of (rows) x = 0, one integer vector per
    free column f: D·e_f − Σ_p r_p[f]·e_p, with r_p the row that
    :func:`rref` returns for pivot p and D its ``den``, which is D times
    the solution with x_f = 1 and every other free unknown 0."""
    rr, pivots, den = rref(rows)
    pivot_set = set(pivots)
    free = {f: {f: den} for f in range(n_cols) if f not in pivot_set}
    for row, p in zip(rr, pivots):
        for f, v in row.items():
            if f != p:
                free[f][p] = -v
    return list(free.values())


# ---------------------------------------------------------------- maps

@dataclass(frozen=True, init=False)
class LinearMap:
    """A linear map given by the sparse columns of its matrix.

    ``cols[j]`` is ``den`` times the image of the j-th source basis
    vector, a sparse ``int`` vector of the target with no zeros stored,
    and ``den`` is the least positive integer that makes every entry an
    integer, so literal equality of the fields is equality of maps.
    Every constructor scales its rational input once; a dense row-major
    matrix enters only through the constructor and leaves only through
    :attr:`rows`.
    """

    source: Space
    target: Space
    cols: tuple[dict[int, int], ...]
    den: int

    def __init__(self, source: Space, target: Space, rows):
        """The map whose dense row-major matrix is ``rows``."""
        if len(rows) != target.dim:
            raise ValueError("dimension mismatch: wrong number of rows")
        if any(len(row) != source.dim for row in rows):
            raise ValueError("dimension mismatch: wrong row length")
        cols = [{i: row[j] for i, row in enumerate(rows) if row[j]} for j in range(source.dim)]
        self._set(source, target, *integer_scaled(cols))

    def _set(self, source: Space, target: Space, den: int, cols: list[dict[int, int]]) -> None:
        """Store integer columns over a least ``den``, owned by the map."""
        if len(cols) != source.dim:
            raise ValueError("dimension mismatch: wrong number of columns")
        n = target.dim
        if any(not 0 <= i < n for col in cols for i in col):
            raise ValueError("dimension mismatch: column entry outside the target")
        object.__setattr__(self, "source", source)
        object.__setattr__(self, "target", target)
        object.__setattr__(self, "cols", tuple(cols))
        object.__setattr__(self, "den", den)

    @staticmethod
    def from_sparse_columns(source: Space, target: Space, cols, den: int = 1) -> "LinearMap":
        """The map whose column j is the sparse rational vector
        ``cols[j]/den``, copied so that the map shares no dict with its
        caller."""
        f = object.__new__(LinearMap)
        f._set(source, target, *integer_scaled([nonzero(col) for col in cols], den))
        return f

    @staticmethod
    def from_rows(source: Space, target: Space, rows) -> "LinearMap":
        return LinearMap(source, target, [tuple(map(rat, row)) for row in rows])

    @staticmethod
    def from_columns(source: Space, target: Space, cols) -> "LinearMap":
        cols = [tuple(map(rat, col)) for col in cols]
        if any(len(col) != target.dim for col in cols):
            raise ValueError("dimension mismatch: wrong column length")
        # the sparse constructor drops the zero entries
        return LinearMap.from_sparse_columns(
            source, target, (dict(enumerate(col)) for col in cols)
        )

    @staticmethod
    def identity(space: Space) -> "LinearMap":
        return LinearMap.from_sparse_columns(space, space, ({i: 1} for i in range(space.dim)))

    def over(self, den: int) -> tuple[dict[int, int], ...]:
        """The columns over ``den``, a multiple of :attr:`den`."""
        f = den // self.den
        return self.cols if f == 1 else tuple({i: v * f for i, v in c.items()} for c in self.cols)

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The dense row-major matrix, in Fractions."""
        cols = [{i: Fraction(v, self.den) for i, v in col.items()} for col in self.cols]
        return tuple(tuple(col.get(i, Q0) for col in cols) for i in range(self.target.dim))

    def apply(self, vec: dict) -> dict:
        """The image of a sparse rational vector, in exact rationals: as
        it is over a ``den`` of 1, else in Fractions."""
        out, den = linear_combination(self.cols, vec), self.den
        return out if den == 1 else {k: Fraction(v, den) for k, v in out.items()}

    def compose(self, other: "LinearMap") -> "LinearMap":
        """self after other (matrix product self . other)."""
        if other.target.dim != self.source.dim:
            raise ValueError("dimension mismatch in composition")
        cols = [linear_combination(self.cols, col) for col in other.cols]
        return LinearMap.from_sparse_columns(other.source, self.target, cols, self.den * other.den)

    def sub(self, other: "LinearMap") -> "LinearMap":
        if self.source.dim != other.source.dim or self.target.dim != other.target.dim:
            raise ValueError("dimension mismatch in difference")
        den = lcm(self.den, other.den)
        coeffs = {0: den // self.den, 1: -(den // other.den)}
        cols = [linear_combination(pair, coeffs) for pair in zip(self.cols, other.cols)]
        return LinearMap.from_sparse_columns(self.source, self.target, cols, den)

    def kron(self, other: "LinearMap") -> "LinearMap":
        """Tensor product of maps in the global left-major ordering, each
        column a :func:`tensor_vec`."""
        n2 = other.target.dim
        cols = [tensor_vec(fa, gb, n2) for fa in self.cols for gb in other.cols]
        source, target = self.source.tensor(other.source), self.target.tensor(other.target)
        return LinearMap.from_sparse_columns(source, target, cols, self.den * other.den)

    def rank(self) -> int:
        return len(rref(self.cols)[1])

    def kernel(self) -> "Subspace":
        rows: dict[int, dict[int, int]] = {}
        for j, col in enumerate(self.cols):
            for i, v in col.items():
                rows.setdefault(i, {})[j] = v
        vectors = kernel_vectors(rows.values(), self.source.dim)
        return Subspace(self.source, *rref(vectors))

    def image(self) -> "Subspace":
        return Subspace(self.target, *rref(self.cols))

    def inverse(self) -> "LinearMap | None":
        # [A^T | I] reduces to [I | (A^-1)^T]: row j carries column j of
        # A^-1, here of (den·A)^-1 = A^-1/den, and over the rows' den D
        n = self.source.dim
        if self.target.dim != n:
            return None
        rr, pivots, den = rref({**col, n + j: 1} for j, col in enumerate(self.cols))
        if pivots != tuple(range(n)):
            return None
        cols = ({k - n: v * self.den for k, v in row.items() if k >= n} for row in rr)
        return LinearMap.from_sparse_columns(self.target, self.source, cols, den)

    def is_identity(self) -> bool:
        identity = tuple({j: 1} for j in range(self.source.dim))
        return self.target.dim == self.source.dim and self.den == 1 and self.cols == identity


# ---------------------------------------------------------------- subspaces

@dataclass(frozen=True)
class Subspace:
    """A subspace with its reduced-row-echelon basis (canonical form).

    ``basis[i]`` is ``den`` times the echelon row whose pivot is
    ``pivots[i]``: a sparse ``int`` row, ``den`` at its pivot and zero at
    every other.  ``den`` is the least positive integer that makes every
    entry an integer, so equality of subspaces is literal equality of the
    dataclass fields.
    """

    ambient: Space
    basis: tuple[dict[int, int], ...]
    pivots: tuple[int, ...]
    den: int

    @staticmethod
    def from_vectors(ambient: Space, vectors) -> "Subspace":
        """The span of sparse rational vectors."""
        vecs = list(vectors)
        if any(not 0 <= k < ambient.dim for v in vecs for k in v):
            raise ValueError("ambient mismatch in subspace construction")
        return Subspace(ambient, *rref(vecs))

    @staticmethod
    def full(space: Space) -> "Subspace":
        n = space.dim
        return Subspace(space, tuple({i: 1} for i in range(n)), tuple(range(n)), 1)

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _row_of_pivot(self) -> dict[int, int]:
        return {p: i for i, p in enumerate(self.pivots)}

    def remainder(self, vec: dict[int, int]) -> dict[int, int]:
        """``den`` times what is left of a sparse integer vector after
        reduction by the echelon basis: D·vec − Σ vec[p]·basis[p] over the
        pivots p.  It is zero at every pivot, and empty exactly when the
        vector lies inside."""
        row_of, basis = self._row_of_pivot, self.basis
        acc = {k: self.den * v for k, v in vec.items()}
        for p, x in vec.items():
            i = row_of.get(p)
            if i is not None:
                for k, v in basis[i].items():
                    acc[k] = acc.get(k, 0) - x * v
        return nonzero(acc)

    def coordinates(self, vec: dict[int, int]) -> dict[int, int] | None:
        """Coordinates of a sparse integer vector, or None if it lies
        outside.  In a reduced echelon basis they are the entries at the
        pivots, keyed by basis index in increasing order: vec =
        Σ coords[i]·basis[i]/den, integers in the scale of ``vec``."""
        row_of = self._row_of_pivot
        coords = {row_of[p]: vec[p] for p in sorted(k for k in vec if k in row_of)}
        if len(self.pivots) == self.ambient.dim or not self.remainder(vec):
            return coords
        return None


# ---------------------------------------------------------------- sparse systems

@dataclass(frozen=True)
class Infeasibility:
    """Certified inconsistency of a linear system.

    ``farkas`` maps original row indices, in increasing order, to
    nonzero rational multipliers whose combination of the rows has zero
    coefficients and nonzero right-hand side ``residual``.
    ``row_index`` is the first row that contradicts the rows before it,
    and its multiplier is 1, which fixes the scale: the multipliers and
    the residual depend on the rows alone.
    """

    row_index: int
    farkas: dict[int, Fraction]
    residual: Fraction


class LinearSystem:
    """Sparse exact linear system solved by deterministic elimination.

    Every row is held as integers ``(coeffs, rhs, scale)``: the row's
    rational coefficients and right-hand side times ``scale``, the least
    common multiple of their denominators.  :meth:`add_int_row` takes a
    row already scaled to integers over some denominator and divides out
    the common factor; :meth:`add_row` is the same entry for rational
    rows, and :meth:`add_shifted_rows` adds rows that differ only by a
    shift of every unknown, reducing their common pattern once.  The
    system stores each such call as one block: its first row, its
    reduced templates and its shifts as a ``range``; a single row is a
    block of one template with the one shift 0.  A template is a copy of
    the caller's row; a row over ``den`` 1 is already reduced, so only
    its zeros, if it has any, are dropped.  Row k is computed from its
    block when it is read, through :meth:`row`, which finds the block by
    a binary search of the blocks' first rows, so rows keep the indices,
    order, keys and scales of adding them one at a time, while memory
    grows with the templates, not with the rows.

    :meth:`solve` decides the system by integer Gauss–Jordan
    (:class:`_Echelon`, :meth:`_decide`), with the right-hand side as one
    more column after the unknowns.  The leads of a span do not depend on
    how its rows are reduced, the solution with every unknown but a lead
    zero is unique, and so is the first row that makes the rows before it
    inconsistent, so solutions and refutations are fixed by the rows
    alone, bit for bit.

    Elimination never mixes rows that share no unknown, even through
    other rows, so the rows fall into components that it handles
    independently.  The decision pass reads only the rows whose
    component holds a nonzero right-hand side, each once and in order,
    found from an index of the template keys without computing any other
    row.  Every other component is homogeneous: it cannot contradict,
    and its unknowns are zero whether it is reduced or not.

    A refutation is read from the rows the decision pass kept, with no
    second elimination.  The kept rows before the contradiction row are
    consistent and lead at distinct unknowns, so their coefficients are
    independent, and the contradiction row's depend on those of the kept
    rows of its component: the combinations of these rows that cancel
    every unknown are the multiples of one kernel vector of their
    transposed coefficients (:func:`kernel_vectors`), scaled so that the
    contradiction row's multiplier is 1.  A row is read as a new dict, so
    templates are never changed.
    """

    def __init__(self, num_unknowns: int):
        self.num_unknowns = num_unknowns
        # (first row, templates (coeffs, rhs, scale), shifts): row
        # first + i·len(templates) + t is template t moved by shifts[i]
        self._blocks: list[tuple[int, list[tuple[dict[int, int], int, int]], range]] = []
        self._starts: list[int] = []  # the first row of each block
        self._len = 0
        self._key_index = None  # built by _index, dropped when rows are added

    def __len__(self) -> int:
        return self._len

    def add_int_row(self, coeffs: dict[int, int], rhs: int = 0, den: int = 1) -> int:
        """Add the row ``coeffs/den · x = rhs/den`` (integers, ``den > 0``,
        unknowns in ``0..num_unknowns-1``) and return its index."""
        self.add_shifted_rows([(coeffs, rhs, den)], range(1))
        return self._len - 1

    def add_shifted_rows(self, rows, shifts: range) -> None:
        """For each shift s in ``shifts``, a ``range`` with a positive
        step, add every row ``(coeffs, rhs, den)``, as :meth:`add_int_row`
        takes it, with each unknown c moved to c + s.

        Each row is reduced to its template once (zero coefficients
        dropped, the common factor divided out; a row over ``den`` 1 has
        none to divide), and the range of the unknowns is checked once,
        at the least and the largest shift.  The call is kept as one
        block of the templates and ``shifts``.
        """
        templates = self._templates(rows, shifts)
        if not templates or not shifts:
            return
        self._key_index = None
        self._blocks.append((self._len, templates, shifts))
        self._starts.append(self._len)
        self._len += len(templates) * len(shifts)

    def _templates(self, rows, shifts) -> list[tuple[dict[int, int], int, int]]:
        """The rows reduced to templates, after checking the denominators
        and the range of the unknowns at the least and largest shift.
        Each template owns a new dict.  Over ``den`` 1 the gcd of a row is
        1, so its template is its copy, with zeros dropped if it holds
        any; a row over a larger ``den`` is divided by its gcd."""
        rows = list(rows)
        for _, _, den in rows:
            if den <= 0:
                raise ValueError(f"row denominator must be positive, got {den}")
        cols = [c for coeffs, _, _ in rows for c in coeffs]
        if cols and shifts:
            for c in (min(cols) + min(shifts), max(cols) + max(shifts)):
                if not 0 <= c < self.num_unknowns:
                    raise ValueError(f"unknown {c} is outside 0..{self.num_unknowns - 1}")
        templates = []
        for coeffs, rhs, den in rows:
            if 0 in coeffs.values():
                coeffs = {c: v for c, v in coeffs.items() if v}
            else:
                coeffs = dict(coeffs)
            g = gcd(den, rhs, *coeffs.values()) if den > 1 else 1
            if g > 1:
                coeffs = {c: v // g for c, v in coeffs.items()}
                rhs //= g
                den //= g
            templates.append((coeffs, rhs, den))
        return templates

    def add_row(self, coeffs: dict[int, Fraction], rhs: Fraction = Q0) -> int:
        den, (coeffs, rhs) = integer_scaled([coeffs, {0: rhs}])
        return self.add_int_row(coeffs, rhs.get(0, 0), den)

    def _template(self, k: int) -> tuple[dict[int, int], int, int, int]:
        """Row k as ``(template coeffs, rhs, scale, shift)``."""
        if not 0 <= k < self._len:
            raise IndexError(f"row {k} is outside 0..{self._len - 1}")
        first, templates, shifts = self._blocks[bisect_right(self._starts, k) - 1]
        i, t = divmod(k - first, len(templates))
        return (*templates[t], shifts[i])

    def row(self, k: int) -> tuple[dict[int, int], int, int]:
        """Row k as integers ``(coeffs, rhs, scale)``; ``coeffs`` is a new
        dict, owned by the caller."""
        coeffs, rhs, scale, shift = self._template(k)
        return {c + shift: v for c, v in coeffs.items()}, rhs, scale

    def row_as_fractions(self, idx: int) -> tuple[dict[int, Fraction], Fraction]:
        coeffs, rhs, scale = self.row(idx)
        return (
            {c: Fraction(v, scale) for c, v in coeffs.items()},
            Fraction(rhs, scale),
        )

    def _combine_int(self, mults: dict[int, int]) -> tuple[dict[int, int], int]:
        """The combination of the stored integer rows with integer
        multipliers."""
        acc: dict[int, int] = {}
        rhs = 0
        for idx, q in mults.items():
            coeffs, row_rhs, _ = self.row(idx)
            for c, v in coeffs.items():
                acc[c] = acc.get(c, 0) + q * v
            rhs += q * row_rhs
        return {c: v for c, v in acc.items() if v}, rhs

    def combine(self, farkas: dict[int, Fraction]) -> tuple[dict[int, Fraction], Fraction]:
        """Evaluate a multiplier combination against the original rows."""
        # The multiplier of stored row k is farkas[k] / scale_k; bring
        # them all over one denominator and combine in integers.
        per_row = {k: Fraction(v) / self._template(k)[2] for k, v in farkas.items()}
        den, (mults,) = integer_scaled([per_row])
        coeffs, rhs = self._combine_int(mults)
        return {c: Fraction(v, den) for c, v in coeffs.items()}, Fraction(rhs, den)

    def _index(self) -> dict[tuple[int, int], dict[tuple[int, int], list]]:
        """The template keys, to find the rows that hold an unknown.

        Template key ``key`` of a block with shifts ``range(start, stop,
        step)`` is unknown c = key + s in the row of shift s, so c − key
        must lie in the range: with ``base = key + start`` and ``span =
        stop − start`` rounded up to a multiple of ``step``, 0 ≤ c − base <
        span and c ≡ base modulo ``step``.  The index groups the keys by
        ``(step, span)`` and then by ``(base // span, base % step)``, so
        the holders of c are in the buckets ``(c // span, c % step)`` and
        ``(c // span − 1, c % step)`` of each group.  An entry is ``(base,
        key, row of the least shift, rows per shift, template coeffs)``.
        """
        if self._key_index is None:
            index: dict[tuple[int, int], dict[tuple[int, int], list]] = {}
            for first, templates, shifts in self._blocks:
                step, span = shifts.step, len(shifts) * shifts.step
                buckets = index.setdefault((step, span), {})
                for t, (coeffs, _, _) in enumerate(templates):
                    for key in coeffs:
                        base = key + shifts.start
                        buckets.setdefault((base // span, base % step), []).append(
                            (base, key, first + t, len(templates), coeffs)
                        )
            self._key_index = index
        return self._key_index

    def _reach(self, seeds, last: int) -> list[int]:
        """The rows 0..last that share unknowns with a seed row, directly
        or through other rows, the seeds included, in increasing order.
        Rows are found from :meth:`_index` and their unknowns read from
        their templates, so no row is computed."""
        groups = self._index().items()
        seen_cols: set[int] = set()
        seen_rows = set(seeds)
        stack = [(coeffs, shift) for coeffs, _, _, shift in map(self._template, seen_rows)]
        while stack:
            coeffs, shift = stack.pop()
            for key in coeffs:
                c = key + shift
                if c in seen_cols:
                    continue
                seen_cols.add(c)
                for (step, span), buckets in groups:
                    q, r = c // span, c % step
                    for bucket in (buckets.get((q, r)), buckets.get((q - 1, r))):
                        for base, tkey, row0, per_shift, tcoeffs in bucket or ():
                            if 0 <= c - base < span:
                                k = row0 + (c - base) // step * per_shift
                                if k <= last and k not in seen_rows:
                                    seen_rows.add(k)
                                    stack.append((tcoeffs, c - tkey))
        return sorted(seen_rows)

    def _seeds(self) -> list[int]:
        """The rows whose right-hand side is not zero."""
        return [
            first + i * len(templates) + t
            for first, templates, shifts in self._blocks
            for t in [t for t, (_, rhs, _) in enumerate(templates) if rhs]
            for i in range(len(shifts))
        ]

    def _decide(self) -> dict[int, dict[int, int]] | tuple[int, list[int]]:
        """The reduced echelon rows, keyed by lead, of the rows reached
        from a nonzero right-hand side, each with its right-hand side as
        the entry at column ``num_unknowns``; or, for the first of those
        rows that contradicts the rows before it, whose remainder leads at
        that column, its index and the indices, in order, of the rows
        whose remainders were kept before it."""
        n = self.num_unknowns
        echelon, kept = _Echelon(), []
        for idx in self._reach(self._seeds(), self._len - 1):
            vec, rhs, _ = self.row(idx)
            if rhs:
                vec[n] = rhs
            vec = echelon.remainder(vec)
            if vec:
                if min(vec) == n:
                    return idx, kept
                echelon.keep(vec)
                kept.append(idx)
        return echelon.rows

    def solve(self):
        """Return a tuple of Fraction values, or an Infeasibility.

        A refutation is checked before it is returned: its multipliers
        must cancel every unknown and leave a nonzero right-hand side.
        """
        n = self.num_unknowns
        outcome = self._decide()
        if isinstance(outcome, dict):
            # every unknown but a lead is free, and zero
            values = [Q0] * n
            for lead, row in outcome.items():
                values[lead] = Fraction(row.get(n, 0), row[lead])
            return tuple(values)
        idx, kept = outcome
        component = set(self._reach([idx], idx))
        order = [k for k in kept if k in component] + [idx]
        rows, scales, transposed = {}, {}, {}
        for j, k in enumerate(order):
            coeffs, rhs, scales[k] = self.row(k)
            for c, v in coeffs.items():
                transposed.setdefault(c, {})[j] = v
            rows[k] = {**coeffs, n: rhs}
        # the contradiction row, last, is the one free column
        (kernel,) = kernel_vectors(transposed.values(), len(order))
        mults = {k: kernel[j] for j, k in enumerate(order) if j in kernel}
        coeffs = linear_combination(rows, mults)
        rhs = coeffs.pop(n, 0)
        if coeffs or rhs == 0:
            raise AssertionError(
                f"Farkas multipliers of the contradiction at row {idx} do not "
                f"refute the system: {len(coeffs)} unknowns left, "
                f"right-hand side {rhs}"
            )
        den = mults[idx] * scales[idx]
        farkas = {k: Fraction(q * scales[k], den) for k, q in mults.items()}
        return Infeasibility(idx, farkas, Fraction(rhs, den))
