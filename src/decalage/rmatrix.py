"""Exact matrices over the coefficient rings and their Smith normal form over R.

Matrices are immutable, stored as tuple-of-row-tuples, and act on column
vectors: an r x c matrix maps R^c -> R^r.  A matrix over R reaches k only
through ``residue`` and ``xi_residue``, and one over k reaches R through
``map_entries(R.lift, R)``.  A Smith normal form is taken over R only
(``kmatrix`` eliminates over k).  It is one ``SNFResult``: its invariant
factors, which are the diagonal of D, and the logs of the elementary
operations that give all four transforms (U, U^-1, V, V^-1 with U*M*V = D),
each built on first read.  That makes exact kernel coordinates, image bases,
coordinates in an image basis and linear solves one-liners: they are views
of one factorization, and no basis read off it is factored again.  A
system whose matrix is square, lower triangular and nonzero on the diagonal
needs none: ``substitute`` solves it row by row by exact division.
"""

from __future__ import annotations

from .rings import BaseRing


class ShapeMismatch(ValueError):
    """Matrix shapes are inconsistent for the requested operation."""


class NotTriangular(ValueError):
    """A substitution asked of a matrix that is not square, nonsingular and lower-triangular."""


class Matrix:
    """An immutable matrix: ``data`` is a tuple of row tuples.

    ``Matrix(ring, data, cols)`` copies ``data`` into tuples and checks that
    every row has ``cols`` entries (by default, as many as the first row).
    ``Matrix._of(ring, rows, cols)`` is the trusted constructor for rows the
    library has just built: ``rows`` must already be a tuple of tuples with
    ``cols`` entries each, which it keeps without copying or checking.
    """

    __slots__ = ("ring", "rows", "cols", "data", "_hash")

    def __init__(self, ring: BaseRing, data, cols: int | None = None):
        rows = tuple(map(tuple, data))
        if cols is None:
            # a zero-row matrix without a column count has no columns
            cols = len(rows[0]) if rows else 0
        for r in rows:
            if len(r) != cols:
                raise ShapeMismatch("ragged rows")
        self.ring = ring
        self.rows = len(rows)
        self.cols = cols
        self.data = rows
        self._hash = None

    @classmethod
    def _of(cls, ring: BaseRing, rows: tuple, cols: int) -> "Matrix":
        """Keeps ``rows`` as they are: the library built them, so their shape holds."""
        self = object.__new__(cls)
        self.ring = ring
        self.rows = len(rows)
        self.cols = cols
        self.data = rows
        self._hash = None
        return self

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, ring, rows, cols):
        return cls._of(ring, ((ring.zero(),) * cols,) * rows, cols)

    @classmethod
    def identity(cls, ring, n):
        return cls.scalar(ring, n, ring.one())

    @classmethod
    def from_columns(cls, ring, columns, rows=None):
        cols = [tuple(col) for col in columns]
        if not cols:
            if rows is None:
                raise ShapeMismatch("empty column list needs an explicit row count")
            return cls.zeros(ring, rows, 0)
        n = len(cols[0]) if rows is None else rows
        if any(len(col) != n for col in cols):
            raise ShapeMismatch("ragged columns")
        return cls._of(ring, tuple(zip(*cols)), len(cols))

    @classmethod
    def scalar(cls, ring, n, value):
        z = ring.zero()
        return cls._of(ring, tuple(
            (z,) * i + (value,) + (z,) * (n - i - 1) for i in range(n)), n)

    # -- basics --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and (other.ring is self.ring or other.ring == self.ring)
            and other.cols == self.cols
            and other.data == self.data
        )

    def __hash__(self):
        # matrices are immutable, and the factor memo hashes every one it sees
        if self._hash is None:
            self._hash = hash((self.rows, self.cols, self.data))
        return self._hash

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.format(x) for x in row) for row in self.data
        )
        return f"<{self.rows}x{self.cols} [{body}]>"

    def is_zero(self) -> bool:
        # every element encoding is falsy exactly at zero
        return not any(map(any, self.data))

    def is_identity(self) -> bool:
        """Square with ones on the diagonal and zeros elsewhere; stops at the first row off it."""
        if self.rows != self.cols:
            return False
        one = self.ring.one()
        for i, row in enumerate(self.data):
            if row[i] != one or any(row[:i]) or any(row[i + 1:]):
                return False
        return True

    def is_nonsingular_lower_triangular(self) -> bool:
        """Square, zero above the diagonal and nonzero on it; stops at the first row off it."""
        return self.rows == self.cols and all(
            row[i] and not any(row[i + 1:]) for i, row in enumerate(self.data))

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def to_json(self) -> list:
        return [[self.ring.format(x) for x in row] for row in self.data]

    def transpose(self) -> "Matrix":
        if not self.data:
            return Matrix._of(self.ring, ((),) * self.cols, 0)
        return Matrix._of(self.ring, tuple(zip(*self.data)), self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        if not (self.rows and self.cols and other.cols):
            # an empty product or an empty inner dimension: the zero matrix
            return Matrix.zeros(self.ring, self.rows, other.cols)
        axpy = self.ring.sparse_axpy
        # row t of the right factor as {j: b_tj} over its nonzero entries; each
        # output row accumulates a_it * (row t) over the nonzero a_it only
        sparse = [{j: x for j, x in enumerate(row) if x} for row in other.data]
        out = []
        for arow in self.data:
            acc = {}
            for a, brow in zip(arow, sparse):
                if a and brow:
                    axpy(acc, a, brow)
            out.append(acc)
        return _dense(self.ring, out, other.cols)

    def __neg__(self):
        return self.scale(self.ring.neg(self.ring.one()))

    def scale(self, c) -> "Matrix":
        scale = self.ring.row_scale
        return Matrix._of(self.ring, tuple(tuple(scale(c, row)) for row in self.data),
                          self.cols)

    def hstack(self, other: "Matrix") -> "Matrix":
        """[self | other]; a side with no columns leaves the other side itself, shared."""
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        if not other.cols:
            return self
        if not self.cols:
            return other
        return Matrix._of(self.ring, tuple(a + b for a, b in zip(self.data, other.data)),
                          self.cols + other.cols)

    def submatrix(self, r0, r1, c0, c1) -> "Matrix":
        return Matrix._of(self.ring, tuple(row[c0:c1] for row in self.data[r0:r1]),
                          len(range(self.cols)[c0:c1]))

    def take_columns(self, idx) -> "Matrix":
        idx = list(idx)
        return Matrix._of(self.ring, tuple(tuple([row[j] for j in idx]) for row in self.data),
                          len(idx))

    def map_entries(self, fn, ring) -> "Matrix":
        """``fn`` applied to every entry, landing in ``ring``: the way between R and k."""
        return Matrix._of(ring, tuple(tuple(map(fn, row)) for row in self.data), self.cols)

    def residue(self) -> "Matrix":
        """Entrywise reduction to the residue field k = R/(xi)."""
        R = self.ring
        return Matrix._of(R.residue_field(),
                          tuple(tuple(R.row_residue(row)) for row in self.data), self.cols)

    def xi_scale(self, e: int) -> "Matrix":
        return self.scale(self.ring.xi_power(e))

    def xi_residue(self, e: int) -> "Matrix":
        """The matrix divided by xi**e and reduced to k = R/(xi), in one pass.

        A zero entry becomes k's zero with no division.  Raises
        ArithmeticError when an entry is not divisible by xi**e.
        """
        R = self.ring
        k = R.residue_field()
        z, divide, residue = k.zero(), R.xi_divide, R.residue
        return self.map_entries(lambda x: residue(divide(x, e)) if x else z, k)


# ---------------------------------------------------------------------------
# Smith normal form


def _dense(R, rows, ncols) -> Matrix:
    """The matrix whose sparse rows ({column: nonzero entry}) are ``rows``."""
    zeros = [R.zero()] * ncols
    out = []
    for row in rows:
        dense = zeros[:]
        for j, x in row.items():
            dense[j] = x
        out.append(tuple(dense))
    return Matrix._of(R, tuple(out), ncols)


# the kinds of operation in a Smith form's log
_SWAP, _ADD, _SCALE = range(3)


def _replay(R, n, ops, inverse: bool) -> list:
    """The n x n identity with a logged operation sequence replayed, as sparse dicts.

    Forward, the dicts are the rows of U (``row_ops``) or the columns of V
    (``col_ops``): a swap exchanges two, ``(_ADD, dst, src, c)`` adds c times
    ``src`` to ``dst`` and ``(_SCALE, i, s)`` scales ``i`` by s.  With
    ``inverse`` they are the columns of U^-1 or the rows of V^-1: the add
    subtracts c times ``dst`` from ``src``, and the scaling is by s^-1.
    """
    one = R.one()
    addmul, mul, neg = R.sparse_axpy, R.mul, R.neg
    X = [{i: one} for i in range(n)]
    for op in ops:
        kind = op[0]
        if kind == _SWAP:
            _, a, b = op
            X[a], X[b] = X[b], X[a]
        elif kind == _ADD:
            _, dst, src, c = op
            if inverse:
                addmul(X[src], neg(c), X[dst])
            else:
                addmul(X[dst], c, X[src])
        else:
            _, i, s = op
            if inverse:
                s = R.inv_unit(s)
            X[i] = {j: mul(s, y) for j, y in X[i].items()}
    return X


class SNFResult:
    """U @ M @ V = D over a PID R, with U, V unimodular and D in Smith form.

    ``factors`` are the normalized nonzero diagonal entries d_1 | d_2 | ...
    of D, which is zero elsewhere; ``rank`` is their count.  Kernel, image,
    image coordinates and solve are views of the one factorization.  U maps
    column j of ``image()`` to d_j / u_j times e_j, u_j the unit its
    normalization divides out, so the coordinates of B in that basis are
    rows j of D^+ U B times u_j: ``image_coords`` and ``solve`` share that
    one division of U B.

    ``snf`` keeps the factors and the log of its elementary operations, not
    D: ``row_ops`` (row swaps, row add-multiples and the final unit scaling
    of a row) and ``col_ops`` (column swaps and column add-multiples).  U
    and V^-1 by rows, U^-1 and V by columns are built by replaying the log
    on the first call of ``u_rows``, ``vinv_rows``, ``uinv_cols`` or
    ``v_cols`` and kept in a slot that is None until then, as is the image
    until its first read; a reader of ``factors`` or ``rank`` pays for the
    elimination alone.  ``d``, ``u``, ``uinv``, ``v`` and ``vinv`` are the
    dense matrices, made on each read, ``d`` from the factors.
    """

    __slots__ = ("matrix", "rank", "factors", "_row_ops", "_col_ops",
                 "_u_rows", "_uinv_cols", "_v_cols", "_vinv_rows", "_image", "_image_scales")

    def __init__(self, matrix, row_ops, col_ops, factors):
        self.matrix = matrix
        self._row_ops = row_ops
        self._col_ops = col_ops
        self.rank = len(factors)
        self.factors = factors
        # the sparse transforms and the image, each None until its first read
        self._u_rows = self._uinv_cols = self._v_cols = self._vinv_rows = None
        self._image = None

    def u_rows(self) -> list:
        if self._u_rows is None:
            self._u_rows = _replay(self.matrix.ring, self.matrix.rows, self._row_ops, False)
        return self._u_rows

    def uinv_cols(self) -> list:
        if self._uinv_cols is None:
            self._uinv_cols = _replay(self.matrix.ring, self.matrix.rows, self._row_ops, True)
        return self._uinv_cols

    def v_cols(self) -> list:
        if self._v_cols is None:
            self._v_cols = _replay(self.matrix.ring, self.matrix.cols, self._col_ops, False)
        return self._v_cols

    def vinv_rows(self) -> list:
        if self._vinv_rows is None:
            self._vinv_rows = _replay(self.matrix.ring, self.matrix.cols, self._col_ops, True)
        return self._vinv_rows

    @property
    def d(self) -> Matrix:
        return _dense(self.matrix.ring, [{i: x} for i, x in enumerate(self.factors)]
                      + [{}] * (self.matrix.rows - self.rank), self.matrix.cols)

    @property
    def u(self) -> Matrix:
        return _dense(self.matrix.ring, self.u_rows(), self.matrix.rows)

    @property
    def uinv(self) -> Matrix:
        return _dense(self.matrix.ring, self.uinv_cols(), self.matrix.rows).transpose()

    @property
    def v(self) -> Matrix:
        return _dense(self.matrix.ring, self.v_cols(), self.matrix.cols).transpose()

    @property
    def vinv(self) -> Matrix:
        return _dense(self.matrix.ring, self.vinv_rows(), self.matrix.cols)

    def kernel(self) -> Matrix:
        """Columns form an R-basis of ker(M) (free over a PID)."""
        M = self.matrix
        return _dense(M.ring, self.v_cols()[self.rank:], M.cols).transpose()

    def image(self) -> Matrix:
        """Columns form an R-basis of the column span of M, built on the first read.

        Each basis column is scaled so its first nonzero entry is in normal
        form (positive / monic), keeping downstream bases reproducible to the
        eye.  Column j is d_j / u_j times column j of U^-1, where u_j is the
        unit that scaling divides out; the d_j / u_j are kept for ``image_coords``.
        """
        if self._image is not None:
            return self._image
        M = self.matrix
        R = M.ring
        z, one = R.zero(), R.one()
        cols, scales = [], []
        for d, src in zip(self.factors, self.uinv_cols()):
            col = R.row_scale(d, [src.get(r, z) for r in range(M.rows)])
            # a column of U^-1 times a nonzero factor is nonzero
            u, _ = R.unit_normalize(next(x for x in col if x))
            if u != one:
                inv = R.inv_unit(u)
                col = R.row_scale(inv, col)
                d = R.mul(inv, d)
            cols.append(col)
            scales.append(d)
        self._image_scales = scales
        self._image = Matrix.from_columns(R, cols, rows=M.rows)
        return self._image

    def _divide(self, B: Matrix, divisors):
        """Rows i < rank of U B, each divided exactly by divisors[i], as sparse dicts.

        A divisor equal to one leaves its row as it is.  None when a row past
        the rank is nonzero or an entry does not divide.
        """
        M = self.matrix
        if M.rows != B.rows:
            raise ShapeMismatch("solve shape mismatch")
        R = M.ring
        axpy, divrem, one = R.sparse_axpy, R.divrem, R.one()
        brows = [{j: b for j, b in enumerate(row) if b} for row in B.data]
        Y = []
        for i, urow in enumerate(self.u_rows()):
            acc = {}
            for k, a in urow.items():
                axpy(acc, a, brows[k])
            if i >= self.rank:
                if acc:
                    return None
                continue
            d = divisors[i]
            if d == one:
                Y.append(acc)
                continue
            yrow = {}
            for j, c in acc.items():
                q, r = divrem(c, d)
                if r:
                    return None
                yrow[j] = q
            Y.append(yrow)
        return Y

    def image_coords(self, B: Matrix):
        """The columns of B in the ``image()`` basis; None when a column leaves the span."""
        self.image()  # which keeps the d_j / u_j
        Y = self._divide(B, self._image_scales)
        return None if Y is None else _dense(self.matrix.ring, Y, B.cols)

    def solve(self, B: Matrix):
        """Solve M @ X = B over the ring; None when no exact solution exists."""
        Y = self._divide(B, self.factors)  # D^+ U B
        if Y is None:
            return None
        M = self.matrix
        axpy = M.ring.sparse_axpy
        # X = V Y, accumulated as the outer products of V's columns with Y's rows
        out = [{} for _ in range(M.cols)]
        for vcol, yrow in zip(self.v_cols(), Y):
            if yrow:
                for r, v in vcol.items():
                    axpy(out[r], v, yrow)
        return _dense(M.ring, out, B.cols)


def snf(M: Matrix) -> SNFResult:
    """Smith normal form over a PID R by Euclidean elimination on sparse rows.

    Pivot choice: smallest Euclidean valuation, ties broken by lowest row
    then column index, which makes the output deterministic.  D is kept as
    rows, each a ``{column: nonzero entry}`` dict, so every row operation is
    a sparse row update over the nonzero entries of its source.  The
    transforms are not accumulated here: each operation is logged, and
    ``SNFResult`` replays the log for the transform a caller reads.

    The loop relies on three invariants.  Rows of D above the pivot t are
    zero off the diagonal, and rows from t on are zero before column t.  Once
    the pivot column's clear ends, column t is clear below t, so clearing the
    pivot row by ``col_j -= q * col_t`` leaves only the remainder at (t, j).
    No operation after step t touches a row above t.  So when the loop ends,
    at t = rank, D is diagonal with its nonzero entries at (i, i) for i < t
    and nothing else: each is its factor up to a unit, which the final row
    scaling logs.  The factors are all that is kept of D.
    """
    R = M.ring
    neg, size, divrem = R.neg, R.size, R.divrem
    addmul = R.sparse_axpy  # addmul(out, c, src): out += c * src
    one = R.one()
    rows, cols = M.rows, M.cols
    D = [{j: x for j, x in enumerate(row) if x} for row in M.data]
    row_ops, col_ops = [], []

    def swap_entries(row, a, b):
        x, y = row.pop(a, None), row.pop(b, None)
        if x is not None:
            row[b] = x
        if y is not None:
            row[a] = y

    def row_swap(a, b):
        D[a], D[b] = D[b], D[a]
        row_ops.append((_SWAP, a, b))

    def row_addmul(dst, src, c):
        # row_dst += c * row_src
        addmul(D[dst], c, D[src])
        row_ops.append((_ADD, dst, src, c))

    def col_swap(a, b):
        for i in range(t, rows):
            swap_entries(D[i], a, b)
        col_ops.append((_SWAP, a, b))

    def pivot():
        # smallest (size, i, j) over the nonzero entries of the trailing
        # block; no nonzero entry is smaller than 1, so a row holding one
        # ends the search
        best = None
        for i in range(t, rows):
            for j, x in D[i].items():
                key = (size(x), i, j)
                if best is None or key < best:
                    best = key
            if best is not None and best[0] <= 1:
                break
        return best

    t = 0
    n = min(rows, cols)
    while t < n:
        pv = pivot()
        if pv is None:
            break
        _, i, j = pv
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        while True:
            p = D[t][t]
            # clear the pivot column
            restart = False
            for i in range(t + 1, rows):
                x = D[i].get(t)
                if x is None:
                    continue
                q, r = divrem(x, p)
                row_addmul(i, t, neg(q))
                if r:
                    row_swap(i, t)
                    restart = True
                    break
            if restart:
                continue
            # clear the pivot row; a column update writes its remainder alone
            row = D[t]
            for j in sorted(k for k in row if k > t):
                q, r = divrem(row[j], p)
                col_ops.append((_ADD, j, t, neg(q)))
                if not r:
                    del row[j]
                    continue
                row[j] = r
                col_swap(j, t)
                restart = True
                break
            if restart:
                continue
            # divisibility sweep: the pivot must divide the rest; a unit
            # divides everything, and anything divides zero
            if R.is_unit(p):
                break
            offender = next((i for i in range(t + 1, rows)
                             if any(not R.divides(p, x) for x in D[i].values())), None)
            if offender is None:
                break
            row_addmul(t, offender, one)
        t += 1

    factors = []
    for i in range(t):
        u, nrm = R.unit_normalize(D[i][i])
        if u != one:
            # row_i *= u^-1 brings the entry at (i, i) to its normal form
            row_ops.append((_SCALE, i, R.inv_unit(u)))
        factors.append(nrm)
    return SNFResult(M, row_ops, col_ops, tuple(factors))


def substitute(A: Matrix, B: Matrix):
    """Solve A @ X = B for a nonsingular lower-triangular A; None when no exact solution exists.

    Row i of X is row i of B less a_ij times row j of X for each j < i, divided
    exactly by a_ii.  The solution is unique: it is the one ``snf(A).solve(B)`` gives.
    Raises ``ShapeMismatch`` when B's rows are not A's, and ``NotTriangular``
    when A is not square, nonzero on the diagonal and zero above it.
    """
    if A.rows != B.rows:
        raise ShapeMismatch("solve shape mismatch")
    if not A.is_nonsingular_lower_triangular():
        raise NotTriangular("substitution needs a nonsingular lower-triangular matrix")
    R = A.ring
    sub, divrem, one = R.row_sub_multiple, R.divrem, R.one()
    X = []
    for arow, row in zip(A.data, B.data):
        for a, xrow in zip(arow, X):
            if a:
                row = sub(row, a, xrow)
        d = arow[len(X)]
        if d != one:
            row = list(row)
            for j, c in enumerate(row):
                if c:
                    row[j], r = divrem(c, d)
                    if r:
                        return None
        X.append(tuple(row))
    return Matrix._of(R, tuple(X), B.cols)


def solve_exact(A: Matrix, B: Matrix):
    """Solve A @ X = B over the ring; None when no exact solution exists.

    The one-shot solve against any A, by its Smith form; the library solves
    against triangular bases only, by ``substitute`` (``complexes.solve``).
    """
    return snf(A).solve(B)
