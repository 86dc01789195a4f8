"""Exact matrices over the coefficient rings, Smith normal form, kernels.

Matrices are immutable, stored as tuple-of-row-tuples, and act on column
vectors: an r x c matrix maps R^c -> R^r.  The Smith normal form carries all
four transforms (U, U^-1, V, V^-1 with U*M*V = D), which is what makes exact
kernel coordinates, image bases and linear solves one-liners downstream.
"""

from __future__ import annotations

from .rings import BaseRing


class ShapeMismatch(ValueError):
    """Matrix shapes are inconsistent for the requested operation."""


class Matrix:
    __slots__ = ("ring", "rows", "cols", "data")

    def __init__(self, ring: BaseRing, data, cols: int | None = None):
        rows = tuple(tuple(r) for r in data)
        self.ring = ring
        self.rows = len(rows)
        if rows:
            self.cols = len(rows[0])
        else:
            # zero-row matrices still need a well-defined column count
            self.cols = 0 if cols is None else cols
        for r in rows:
            if len(r) != self.cols:
                raise ShapeMismatch("ragged rows")
        self.data = rows

    # -- constructors -------------------------------------------------------

    @classmethod
    def zeros(cls, ring, rows, cols):
        z = ring.zero()
        return cls(ring, [[z] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def identity(cls, ring, n):
        return cls(ring, _identity_rows(ring, n), cols=n)

    @classmethod
    def from_columns(cls, ring, columns, rows=None):
        cols = list(columns)
        if not cols:
            if rows is None:
                raise ShapeMismatch("empty column list needs an explicit row count")
            return cls.zeros(ring, rows, 0)
        n = len(cols[0])
        return cls(ring, [[col[i] for col in cols] for i in range(n)], cols=len(cols))

    @classmethod
    def scalar(cls, ring, n, value):
        z = ring.zero()
        return cls(ring, [[value if i == j else z for j in range(n)] for i in range(n)], cols=n)

    # -- basics --------------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matrix)
            and other.ring == self.ring
            and other.cols == self.cols
            and other.data == self.data
        )

    def __hash__(self):
        return hash((self.rows, self.cols, self.data))

    def __repr__(self):
        body = "; ".join(
            " ".join(self.ring.format(x) for x in row) for row in self.data
        )
        return f"<{self.rows}x{self.cols} [{body}]>"

    def is_zero(self) -> bool:
        return all(self.ring.is_zero(x) for row in self.data for x in row)

    def entry(self, i, j):
        return self.data[i][j]

    def column(self, j):
        return tuple(row[j] for row in self.data)

    def columns(self):
        return [self.column(j) for j in range(self.cols)]

    def transpose(self) -> "Matrix":
        return Matrix(self.ring, [self.column(j) for j in range(self.cols)], cols=self.rows)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        if self.cols != other.rows:
            raise ShapeMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
        R = self.ring
        is_zero, add, mul = R.is_zero, R.add, R.mul
        # row t of the right factor as its nonzero (j, b_tj) pairs; each output
        # row accumulates a_it * (row t) over the nonzero a_it only
        sparse = [[(j, x) for j, x in enumerate(row) if not is_zero(x)] for row in other.data]
        out = []
        for arow in self.data:
            acc = [R.zero()] * other.cols
            for a, brow in zip(arow, sparse):
                if brow and not is_zero(a):
                    for j, b in brow:
                        acc[j] = add(acc[j], mul(a, b))
            out.append(acc)
        return Matrix(R, out, cols=other.cols)

    def __add__(self, other):
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatch("addition shape mismatch")
        R = self.ring
        return Matrix(R, [
            [R.add(self.data[i][j], other.data[i][j]) for j in range(self.cols)]
            for i in range(self.rows)
        ], cols=self.cols)

    def __neg__(self):
        R = self.ring
        return Matrix(R, [[R.neg(x) for x in row] for row in self.data], cols=self.cols)

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c) -> "Matrix":
        R = self.ring
        return Matrix(R, [[R.mul(c, x) for x in row] for row in self.data], cols=self.cols)

    def hstack(self, other: "Matrix") -> "Matrix":
        if self.rows != other.rows:
            raise ShapeMismatch("hstack row mismatch")
        return Matrix(
            self.ring,
            [self.data[i] + other.data[i] for i in range(self.rows)],
            cols=self.cols + other.cols,
        )

    def vstack(self, other: "Matrix") -> "Matrix":
        if self.cols != other.cols:
            raise ShapeMismatch("vstack column mismatch")
        return Matrix(self.ring, self.data + other.data, cols=self.cols)

    def submatrix(self, r0, r1, c0, c1) -> "Matrix":
        return Matrix(self.ring, [row[c0:c1] for row in self.data[r0:r1]], cols=c1 - c0)

    def take_columns(self, idx) -> "Matrix":
        idx = list(idx)
        return Matrix(self.ring, [[row[j] for j in idx] for row in self.data], cols=len(idx))

    def map_entries(self, fn, ring=None) -> "Matrix":
        return Matrix(
            ring or self.ring,
            [[fn(x) for x in row] for row in self.data],
            cols=self.cols,
        )

    def residue(self) -> "Matrix":
        """Entrywise reduction to the residue field k = R/(xi)."""
        R = self.ring
        return self.map_entries(R.residue, R.residue_field())

    def xi_scale(self, e: int) -> "Matrix":
        return self.scale(self.ring.xi_power(e))

    def xi_divide(self, e: int) -> "Matrix":
        R = self.ring
        return self.map_entries(lambda x: R.xi_divide(x, e))


# ---------------------------------------------------------------------------
# Smith normal form


class SNFResult:
    """U @ M @ V = D with U, V unimodular and D in Smith form.

    ``uinv`` and ``vinv`` are the exact inverses, accumulated alongside the
    elementary operations.  ``factors`` are the normalized nonzero diagonal
    entries d_1 | d_2 | ...; ``rank`` is their count.  Kernel, image and
    solve are views of the one factorization.
    """

    __slots__ = ("matrix", "d", "u", "uinv", "v", "vinv", "rank", "factors")

    def __init__(self, matrix, d, u, uinv, v, vinv, rank, factors):
        self.matrix = matrix
        self.d = d
        self.u = u
        self.uinv = uinv
        self.v = v
        self.vinv = vinv
        self.rank = rank
        self.factors = factors

    def kernel(self) -> Matrix:
        """Columns form an R-basis of ker(M) (free over a PID)."""
        return self.v.take_columns(range(self.rank, self.matrix.cols))

    def image(self) -> Matrix:
        """Columns form an R-basis of the column span of M.

        Each basis column is scaled so its first nonzero entry is in normal
        form (positive / monic), keeping downstream bases reproducible to the
        eye.
        """
        M = self.matrix
        R = M.ring
        cols = []
        for i in range(self.rank):
            d = self.d.entry(i, i)
            col = [R.mul(d, self.uinv.entry(r, i)) for r in range(M.rows)]
            lead = next((x for x in col if not R.is_zero(x)), None)
            if lead is not None:
                u, _ = R.unit_normalize(lead)
                if not R.is_zero(R.sub(u, R.one())):
                    inv = R.inv_unit(u)
                    col = [R.mul(inv, x) for x in col]
            cols.append(tuple(col))
        return Matrix.from_columns(R, cols, rows=M.rows)

    def solve(self, B: Matrix):
        """Solve M @ X = B over the ring; None when no exact solution exists."""
        M = self.matrix
        if M.rows != B.rows:
            raise ShapeMismatch("solve shape mismatch")
        R = M.ring
        C = self.u @ B
        Y = [[R.zero()] * B.cols for _ in range(M.cols)]
        for i in range(self.rank):
            d = self.d.entry(i, i)
            for j in range(B.cols):
                q, r = R.divrem(C.entry(i, j), d)
                if not R.is_zero(r):
                    return None
                Y[i][j] = q
        for i in range(self.rank, M.rows):
            for j in range(B.cols):
                if not R.is_zero(C.entry(i, j)):
                    return None
        return self.v @ Matrix(R, Y, cols=B.cols)


def _pivot(R, D, t, rows, cols):
    best = None
    for i in range(t, rows):
        for j in range(t, cols):
            x = D[i][j]
            if R.is_zero(x):
                continue
            key = (R.size(x), i, j)
            if best is None or key < best[0]:
                best = (key, i, j)
    return None if best is None else (best[1], best[2])


def _identity_rows(R, n):
    z, o = R.zero(), R.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def snf(M: Matrix) -> SNFResult:
    """Smith normal form by Euclidean elimination.

    Pivot choice: smallest Euclidean valuation, ties broken by lowest row
    then column index, which makes the output deterministic.  Row and column
    updates touch only the nonzero entries of their source, in place.
    """
    R = M.ring
    is_zero, add, mul = R.is_zero, R.add, R.mul
    rows, cols = M.rows, M.cols
    D = [list(r) for r in M.data]
    U = _identity_rows(R, rows)
    Ui = _identity_rows(R, rows)
    V = _identity_rows(R, cols)
    Vi = _identity_rows(R, cols)

    def row_swap(a, b):
        for X in (D, U):
            X[a], X[b] = X[b], X[a]
        for i in range(rows):
            Ui[i][a], Ui[i][b] = Ui[i][b], Ui[i][a]

    def row_addmul(dst, src, c):
        # row_dst += c * row_src; inverse op recorded in Ui columns
        for X in (D, U):
            out = X[dst]
            for j, x in enumerate(X[src]):
                if not is_zero(x):
                    out[j] = add(out[j], mul(c, x))
        nc = R.neg(c)
        for row in Ui:
            x = row[dst]
            if not is_zero(x):
                row[src] = add(row[src], mul(nc, x))

    def col_swap(a, b):
        for X in (D, Vi):
            if X is D:
                for i in range(rows):
                    X[i][a], X[i][b] = X[i][b], X[i][a]
            else:
                X[a], X[b] = X[b], X[a]
        for i in range(cols):
            V[i][a], V[i][b] = V[i][b], V[i][a]

    def col_addmul(dst, src, c):
        # col_dst += c * col_src
        for X in (D, V):
            for row in X:
                x = row[src]
                if not is_zero(x):
                    row[dst] = add(row[dst], mul(c, x))
        nc = R.neg(c)
        out = Vi[src]
        for j, x in enumerate(Vi[dst]):
            if not is_zero(x):
                out[j] = add(out[j], mul(nc, x))

    def row_scale(i, u):
        inv = R.inv_unit(u)
        D[i] = [R.mul(u, x) for x in D[i]]
        U[i] = [R.mul(u, x) for x in U[i]]
        for r in range(rows):
            Ui[r][i] = R.mul(inv, Ui[r][i])

    t = 0
    n = min(rows, cols)
    while t < n:
        pv = _pivot(R, D, t, rows, cols)
        if pv is None:
            break
        i, j = pv
        if i != t:
            row_swap(i, t)
        if j != t:
            col_swap(j, t)
        while True:
            # clear the pivot column
            restart = False
            for i in range(t + 1, rows):
                if R.is_zero(D[i][t]):
                    continue
                q, r = R.divrem(D[i][t], D[t][t])
                row_addmul(i, t, R.neg(q))
                if not R.is_zero(r):
                    row_swap(i, t)
                    restart = True
                    break
            if restart:
                continue
            # clear the pivot row
            for j in range(t + 1, cols):
                if R.is_zero(D[t][j]):
                    continue
                q, r = R.divrem(D[t][j], D[t][t])
                col_addmul(j, t, R.neg(q))
                if not R.is_zero(r):
                    col_swap(j, t)
                    restart = True
                    break
            if restart:
                continue
            if any(not R.is_zero(D[i][t]) for i in range(t + 1, rows)):
                continue
            # divisibility sweep: the pivot must divide the rest
            offender = None
            for i in range(t + 1, rows):
                for j in range(t + 1, cols):
                    if not R.divides(D[t][t], D[i][j]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_addmul(t, offender, R.one())
        t += 1

    factors = []
    for i in range(n):
        x = D[i][i]
        if R.is_zero(x):
            break
        u, nrm = R.unit_normalize(x)
        if nrm != x:
            row_scale(i, R.inv_unit(u))
        factors.append(nrm)
    rank = len(factors)

    return SNFResult(
        M,
        Matrix(R, D, cols=cols),
        Matrix(R, U, cols=rows),
        Matrix(R, Ui, cols=rows),
        Matrix(R, V, cols=cols),
        Matrix(R, Vi, cols=cols),
        rank,
        tuple(factors),
    )


def kernel_basis(M: Matrix) -> Matrix:
    """Columns form an R-basis of ker(M) (free over a PID)."""
    return snf(M).kernel()


def image_basis(M: Matrix) -> Matrix:
    """Columns form an R-basis of the column span of M, as ``SNFResult.image``."""
    return snf(M).image()


def preimage_basis(A: Matrix, S: Matrix) -> Matrix:
    """Columns form an R-basis of { x : A x lies in the column span of S }."""
    ker = kernel_basis(A.hstack(S))
    return image_basis(ker.submatrix(0, A.cols, 0, ker.cols))


def solve_exact(A: Matrix, B: Matrix):
    """Solve A @ X = B over the ring; None when no exact solution exists."""
    return snf(A).solve(B)


def intersect_spans(A: Matrix, B: Matrix) -> Matrix:
    """Basis of span(A) ∩ span(B) inside the common ambient R^rows."""
    if A.rows != B.rows:
        raise ShapeMismatch("ambient mismatch")
    ker = kernel_basis(A.hstack(-B))
    return image_basis(A @ ker.submatrix(0, A.cols, 0, ker.cols))
