"""Linear algebra over the residue field: RREF, subspaces, quotients.

Everything here works on :class:`decalage.rmatrix.Matrix` instances whose ring
is a field (PrimeField or RationalField).  Subspaces are kept in row-reduced
echelon normal form so that equality of subspaces is equality of data, which
is the comparison contract for flags and cokernel images.
"""

from __future__ import annotations

from bisect import insort

from .rmatrix import Matrix


def rref(M: Matrix):
    """Row-reduced echelon form; returns (R, pivot_columns)."""
    F = M.ring
    rows = [list(r) for r in M.data]
    nr, nc = M.rows, M.cols
    pivots = []
    r = 0
    for c in range(nc):
        pr = None
        for i in range(r, nr):
            if not F.is_zero(rows[i][c]):
                pr = i
                break
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = F.inv_unit(rows[r][c])
        rows[r] = [F.mul(inv, x) for x in rows[r]]
        for i in range(nr):
            if i != r and not F.is_zero(rows[i][c]):
                f = rows[i][c]
                rows[i] = [F.sub(rows[i][j], F.mul(f, rows[r][j])) for j in range(nc)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(F, rows, cols=nc), tuple(pivots)


def field_rank(M: Matrix) -> int:
    return len(rref(M)[1])


def kernel_cols(M: Matrix) -> Matrix:
    """Deterministic kernel basis from the RREF (one column per free column)."""
    F = M.ring
    R, pivots = rref(M)
    pivot_set = set(pivots)
    free = [c for c in range(M.cols) if c not in pivot_set]
    cols = []
    for fc in free:
        v = [F.zero()] * M.cols
        v[fc] = F.one()
        for r, pc in enumerate(pivots):
            v[pc] = F.neg(R.entry(r, fc))
        cols.append(tuple(v))
    return Matrix.from_columns(F, cols, rows=M.cols)


def solve_field(A: Matrix, B: Matrix):
    """One solution X of A @ X = B, or None if inconsistent."""
    F = A.ring
    aug, _ = rref(A.hstack(B))
    X = [[F.zero()] * B.cols for _ in range(A.cols)]
    for i in range(aug.rows):
        lead = None
        for j in range(A.cols):
            if not F.is_zero(aug.entry(i, j)):
                lead = j
                break
        if lead is None:
            for j in range(B.cols):
                if not F.is_zero(aug.entry(i, A.cols + j)):
                    return None
            continue
        for j in range(B.cols):
            X[lead][j] = aug.entry(i, A.cols + j)
    return Matrix(F, X, cols=B.cols)


def reduce_vector(F, echelon, vec) -> list:
    """vec minus its components along ``echelon``, as a list.

    ``echelon`` is a sequence of (pivot, row) pairs in increasing pivot order,
    each row zero before its pivot and one at it.  The result is zero at every
    pivot, so it is zero exactly when vec lies in the span of the rows.
    """
    v = list(vec)
    for c, row in echelon:
        f = v[c]
        if not F.is_zero(f):
            v = [F.sub(x, F.mul(f, y)) for x, y in zip(v, row)]
    return v


class Subspace:
    """A subspace of k^n in row-space normal form (RREF rows, no zero rows)."""

    __slots__ = ("field", "ambient", "basis", "pivots")

    def __init__(self, field, ambient: int, vectors=()):
        self.field = field
        self.ambient = ambient
        rows = [tuple(v) for v in vectors]
        for v in rows:
            if len(v) != ambient:
                raise ValueError("vector length does not match ambient dimension")
        if rows:
            R, pivots = rref(Matrix(field, rows, cols=ambient))
            self.basis = tuple(R.data[i] for i in range(len(pivots)))
            self.pivots = pivots
        else:
            self.basis = ()
            self.pivots = ()

    @classmethod
    def from_columns(cls, M: Matrix) -> "Subspace":
        return cls(M.ring, M.rows, [M.column(j) for j in range(M.cols)])

    @classmethod
    def full(cls, field, n) -> "Subspace":
        return cls(field, n, Matrix.identity(field, n).data)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def is_full(self) -> bool:
        return self.dim == self.ambient

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
        return Matrix(self.field, self.basis, cols=self.ambient)

    def contains(self, vec) -> bool:
        if len(vec) != self.ambient:
            raise ValueError("vector length does not match ambient dimension")
        rest = reduce_vector(self.field, zip(self.pivots, self.basis), vec)
        return all(self.field.is_zero(x) for x in rest)

    def contains_space(self, other: "Subspace") -> bool:
        return all(self.contains(v) for v in other.basis)

    def add(self, other: "Subspace") -> "Subspace":
        return Subspace(self.field, self.ambient, list(self.basis) + list(other.basis))

    def intersect(self, other: "Subspace") -> "Subspace":
        if self.dim == 0 or other.dim == 0:
            return Subspace(self.field, self.ambient)
        A = self.matrix().transpose()
        B = other.matrix().transpose()
        ker = kernel_cols(A.hstack(B))
        xpart = ker.submatrix(0, A.cols, 0, ker.cols)
        vecs = A @ xpart
        return Subspace.from_columns(vecs)

    def to_json(self):
        fmt = self.field.format
        return [[fmt(x) for x in row] for row in self.basis]


class QuotientSpace:
    """A quotient Z/B of subspaces of k^n with chosen representatives.

    ``reps`` are columns extending a basis of B to one of Z; ``coords(v)``
    expresses the class of v (which must lie in Z) in those representatives.
    """

    __slots__ = ("field", "ambient", "zspace", "bspace", "reps", "_solver")

    def __init__(self, field, ambient, z_vectors, b_vectors):
        self.field = field
        self.ambient = ambient
        self.zspace = Subspace(field, ambient, z_vectors)
        self.bspace = Subspace(field, ambient, b_vectors)
        if not self.zspace.contains_space(self.bspace):
            raise ValueError("boundaries do not lie inside cocycles")
        # greedy: keep each Z basis vector outside the span of B and the
        # representatives kept so far, tracked as one growing echelon
        echelon = list(zip(self.bspace.pivots, self.bspace.basis))
        reps = []
        for v in self.zspace.basis:
            rest = reduce_vector(field, echelon, v)
            c = next((j for j, x in enumerate(rest) if not field.is_zero(x)), None)
            if c is None:
                continue
            reps.append(v)
            inv = field.inv_unit(rest[c])
            insort(echelon, (c, tuple(field.mul(inv, x) for x in rest)))
        self.reps = tuple(reps)
        cols = [tuple(b) for b in self.bspace.basis] + [tuple(r) for r in reps]
        self._solver = Matrix.from_columns(field, cols, rows=ambient)

    @property
    def dim(self) -> int:
        return len(self.reps)

    def coords(self, vec):
        """Coordinates of [vec] in the representative basis; vec must be in Z."""
        target = Matrix.from_columns(self.field, [tuple(vec)], rows=self.ambient)
        return self.coords_matrix(target).column(0)

    def coords_matrix(self, M: Matrix) -> Matrix:
        """Columnwise coords, in one solve: each column of M must be in Z."""
        if M.cols == 0:
            return Matrix.zeros(self.field, self.dim, 0)
        sol = solve_field(self._solver, M)
        if sol is None:
            raise ValueError("vector not in the cocycle space")
        nb = self.bspace.dim
        return sol.submatrix(nb, nb + self.dim, 0, M.cols)

    def rep_matrix(self) -> Matrix:
        return Matrix.from_columns(self.field, self.reps, rows=self.ambient)
