"""Linear algebra over the residue field: RREF, kernel, solve, subspaces, quotients.

Everything here works on :class:`decalage.rmatrix.Matrix` instances whose ring
is a field (PrimeField or RationalField).  It eliminates over k in one loop:
:func:`_extend` keeps its echelon in RREF after every insertion, :func:`rref`
reads that echelon, and the column reduction of :func:`column_lows` (adapted
bases, persistence pairs) and the quotient representatives read its pivots.
No echelon list leaves the module.  Subspaces are kept in RREF, so equality of
subspaces is equality of data, the comparison contract for flags and cokernel
images.
"""

from __future__ import annotations

from bisect import insort

from .rmatrix import Matrix


def rref(M: Matrix):
    """(R, pivot_columns): M's RREF, the echelon :func:`_extend` grows over its rows."""
    if not (M.rows and M.cols):
        return M, ()
    F, nc = M.ring, M.cols
    echelon = []
    for _ in _extend(F, echelon, M.data):
        pass
    rows = [tuple(row) for _, row in echelon]
    pivots = tuple([c for c, _ in echelon])
    rows += [(F.zero(),) * nc] * (M.rows - len(rows))
    return Matrix._of(F, tuple(rows), nc), pivots


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


def _extend(F, echelon: list, vectors):
    """Add each of ``vectors`` in turn to ``echelon`` unless it lies in its span.

    ``echelon`` holds (pivot, row) pairs in increasing pivot order, the rows of
    an RREF, and stays an RREF after every insertion: a vector is reduced to
    the one element of vec + span that is zero at every pivot; if that is
    nonzero, its first nonzero entry (the greatest over vec + span) is the new
    pivot, which is cleared from the rows already there.  Yields each new
    pivot, or None.
    """
    scale, sub, inv = F.row_scale, F.row_sub_multiple, F.inv_unit
    for v in vectors:
        for c, row in echelon:
            f = v[c]
            if f:
                v = sub(v, f, row)
        for c, x in enumerate(v):
            if x:
                break
        else:
            yield None
            continue
        new = scale(inv(x), v)
        for i, (pc, row) in enumerate(echelon):
            f = row[c]
            if f:
                echelon[i] = (pc, sub(row, f, new))
        insort(echelon, (c, new))
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
        return next(_extend(self.field, list(zip(self.pivots, self.basis)), (vec,))) is None

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
