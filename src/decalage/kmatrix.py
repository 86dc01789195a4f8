"""Linear algebra over the residue field: RREF, kernel, solve, subspaces, quotients.

Everything here works on :class:`decalage.rmatrix.Matrix` instances whose ring
is a field (PrimeField or RationalField); it is the one place that eliminates
over k, and no echelon list leaves it.  Subspaces are kept in RREF so that
equality of subspaces is equality of data, which is the comparison contract
for flags and cokernel images.  One greedy column reduction picks adapted
bases and persistence pairs (:func:`column_lows`) and quotient representatives.
"""

from __future__ import annotations

from bisect import insort

from .rmatrix import Matrix


def rref(M: Matrix):
    """Row-reduced echelon form; returns (R, pivot_columns)."""
    F = M.ring
    rows = list(M.data)
    nr, nc = M.rows, M.cols
    scale, sub = F.row_scale, F.row_sub_multiple
    pivots = []
    r = 0
    for c in range(nc):
        for pr in range(r, nr):
            if rows[pr][c]:
                break
        else:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        prow = rows[r] = scale(F.inv_unit(rows[r][c]), rows[r])
        for i in range(nr):
            f = rows[i][c]
            if f and i != r:
                rows[i] = sub(rows[i], f, prow)
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix._of(F, tuple(map(tuple, rows)), nc), tuple(pivots)


def field_rank(M: Matrix) -> int:
    return len(rref(M)[1])


def kernel(M: Matrix) -> "Subspace":
    """ker(M) in normal form, from one elimination of M with its columns reversed.

    The kernel vector of a free column f is 1 at f, 0 at every other free
    column and nonzero otherwise only at pivot columns after f, so in
    increasing f they are the kernel's RREF rows, pivoted at the free columns.
    """
    F, n = M.ring, M.cols
    R, reversed_pivots = rref(Matrix._of(F, tuple(row[::-1] for row in M.data), n))
    pivots = [n - 1 - c for c in reversed_pivots]
    free = tuple(sorted(set(range(n)).difference(pivots)))
    z, one, neg = F.zero(), F.one(), F.neg
    basis = []
    for f in free:
        v = [z] * n
        v[f] = one
        for row, pc in zip(R.data, pivots):
            v[pc] = neg(row[n - 1 - f])
        basis.append(tuple(v))
    return Subspace._of(F, n, tuple(basis), free)


def solve_field(A: Matrix, B: Matrix):
    """One solution X of A @ X = B, or None if inconsistent; B itself against an identity."""
    if A.rows == B.rows and A.is_identity():
        return B
    F = A.ring
    n = A.cols
    aug, pivots = rref(A.hstack(B))
    zero_row = (F.zero(),) * B.cols
    X = [zero_row] * n
    for row, c in zip(aug.data, pivots):
        if c >= n:
            return None  # a row reading 0 = nonzero
        X[c] = row[n:]
    return Matrix._of(F, tuple(X), B.cols)


def _reduce(F, echelon, vec) -> list:
    """vec minus its components along ``echelon``, as a list.

    ``echelon`` is a sequence of (pivot, row) pairs in increasing pivot order,
    each row zero before its pivot and one at it.  The result is zero at every
    pivot, so it is zero exactly when vec lies in the span of the rows.
    """
    sub = F.row_sub_multiple
    v = vec
    for c, row in echelon:
        f = v[c]
        if f:
            v = sub(v, f, row)
    return list(v)


def _extend(F, echelon: list, vectors):
    """Add each of ``vectors`` in turn to ``echelon`` unless it lies in its span.

    ``echelon`` is a list of (pivot, row) pairs as :func:`_reduce` takes them,
    kept in increasing pivot order.  Yields each vector's new pivot, or None:
    the first nonzero entry of the vector reduced along the echelon, which is
    the greatest first nonzero entry over it plus the span of the rows so far.
    """
    for vec in vectors:
        rest = _reduce(F, echelon, vec)
        c = next((j for j, x in enumerate(rest) if x), None)
        if c is not None:
            insort(echelon, (c, tuple(F.row_scale(F.inv_unit(rest[c]), rest))))
        yield c


def column_lows(M: Matrix) -> list:
    """Each column's low, or None: the standard persistence column reduction.

    The low of column j is the least last nonzero row over the column plus the
    span of the columns before it; it is None when the column lies in that span.
    """
    lows = _extend(M.ring, [], (col[::-1] for col in M.transpose().data))
    return [None if c is None else M.rows - 1 - c for c in lows]


class Subspace:
    """A subspace of k^n in row-space normal form (RREF rows, no zero rows)."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient: int, vectors=()):
        self.field, self.ambient = field, ambient
        rows = tuple(map(tuple, vectors))
        if any(len(v) != ambient for v in rows):
            raise ValueError("vector length does not match ambient dimension")
        self.basis, self.pivots = (), ()
        if rows:
            R, self.pivots = rref(Matrix._of(field, rows, ambient))
            self.basis = R.data[:len(self.pivots)]

    @classmethod
    def _of(cls, field, ambient: int, basis: tuple, pivots: tuple) -> "Subspace":
        """Trusted constructor: ``basis`` is already RREF rows, as tuples, with ``pivots``."""
        self = object.__new__(cls)
        self.field, self.ambient, self.basis, self.pivots = field, ambient, basis, pivots
        return self

    @classmethod
    def from_columns(cls, M: Matrix) -> "Subspace":
        return cls(M.ring, M.rows, M.transpose().data)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def __eq__(self, other):
        return (
            isinstance(other, Subspace)
            and other.field == self.field
            and other.ambient == self.ambient
            and other.basis == self.basis
        )

    def __hash__(self):
        return hash((self.ambient, self.basis))

    def __repr__(self):
        return f"<subspace dim {self.dim} of k^{self.ambient}>"

    def matrix(self) -> Matrix:
        return Matrix._of(self.field, self.basis, self.ambient)

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        rest = _reduce(self.field, zip(self.pivots, self.basis), vec)
        return not any(rest)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def to_json(self):
        return self.matrix().to_json()


class QuotientSpace:
    """A quotient Z/B of subspaces of k^n with chosen representatives.

    Z is ``zspace`` as given and B the column span of ``boundaries``.  The
    representatives are the Z basis vectors that the column reduction, seeded
    with B's RREF rows, keeps, and ``coords_matrix(M)`` expresses the class of
    each column of M (which must lie in Z) in them.
    """

    __slots__ = ("field", "ambient", "reps", "_nb", "_solver")

    def __init__(self, zspace: Subspace, boundaries: Matrix):
        self.field = field = zspace.field
        self.ambient = zspace.ambient
        bspace = Subspace.from_columns(boundaries)
        lows = _extend(field, list(zip(bspace.pivots, bspace.basis)), zspace.basis)
        self.reps = tuple(v for v, low in zip(zspace.basis, lows) if low is not None)
        # dim(B + Z) = dim B + #reps, which is dim Z exactly when B lies in Z
        if bspace.dim + len(self.reps) != zspace.dim:
            raise ValueError("boundaries do not lie inside cocycles")
        self._nb = bspace.dim
        self._solver = Matrix.from_columns(field, bspace.basis + self.reps, rows=self.ambient)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords_matrix(self, M: Matrix) -> Matrix:
        """Columnwise coords, in one solve: each column of M must be in Z."""
        if M.cols == 0:
            return Matrix.zeros(self.field, self.dim, 0)
        sol = solve_field(self._solver, M)
        if sol is None:
            raise ValueError("vector not in the cocycle space")
        return sol.submatrix(self._nb, self._nb + self.dim, 0, M.cols)

    def rep_matrix(self) -> Matrix:
        return Matrix.from_columns(self.field, self.reps, rows=self.ambient)
