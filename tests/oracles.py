"""Independent oracles the tests check the library against.

Each oracle recomputes a library quantity along a different route: invariant
factors from gcds of minors (determinants by cofactor expansion), ranks from
minors, cohomology of posets from a standalone order-complex cochain
construction, the cycle spaces Z_r(p, n) of a filtered complex as an
intersection with a preimage taken through a quotient map, the Bockstein
differential and the Hodge-stage comparison one class at a time, the
lattice / image flags from Gaussian elimination over the truncated ring
R/xi^N instead of exact Smith form machinery, the lattice flag and relative
position from one Smith form and its adapted basis U^-1 instead of one
congruence kernel per level, and again from one lattice intersection per
level, and the stage cohomology of the generators' elementary pieces in
closed form, with Künneth for a constant sheaf on a site of free
cohomology, and each stage lattice the ring-side way, a Smith-form kernel
then image, the reference for the library's one elimination over k.
Every stage, mod-xi subquotient, Hodge comparison and stage sheaf is also
built the all-degree way, one solve or
classification in every degree, the reference for the library's stages m > 0
read off stage 0 and K.  The dense
product, the dense matrix-vector product, the dense RREF row update and the
dense Smith normal form are kept here as the references for the library's
zero-skipping kernels, a Smith form is certified by products alone where no
dense oracle runs, coordinates in an image basis are solved against a second
Smith form, that of the basis, ``kernel_cols`` (an RREF, then one basis vector per
free column) is the reference for the library's one-elimination kernel,
and ``GenericKernels`` is a ring whose row kernels
are ``BaseRing``'s generic defaults, the reference for the native-int ones.
The pullback of a sheaf to the barycentric
subdivision of its site, with the basis-free part of a theorem report, is
the metamorphic oracle for the whole theorem path.  The last section holds
the helpers that only the tests call: complex invariants and shifts, induced
maps, stacked and block-diagonal matrices, the direct sum of two complexes
(the reference for the generators' block-diagonal piece complexes) and of
two sheaves, the random base change as it
was drawn before its inverse was kept, the mapping cone, the graded pieces of
an abutment, the vanishing of a page's differentials, the square of the
Bockstein differential, sums and intersections of subspaces, random
nonsingular matrices, the jumps of a flag, the validity checks of filtered
complexes and sheaf maps, and the terms of the cokernel of a chain map.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import combinations

from decalage.bockstein import k_cohomology_quotient
from decalage.complexes import (
    ChainMap,
    FGModule,
    FreeComplex,
    factor_through,
    subcomplex,
    truncate_leq,
)
from decalage.eta import congruence_kernel
from decalage.kmatrix import QuotientSpace, Subspace, rref
from decalage.rings import BaseRing, IntegerRing, PolynomialRing, PrimeField
from decalage.rmatrix import Matrix, ShapeMismatch, snf
from decalage.sites import InvalidSheaf, PosetSite, SheafComplex, SheafMap, _subsheaf
from decalage.theorem import Flag, SingularBasis


# ---------------------------------------------------------------------------
# generic row kernels: BaseRing's defaults, built from the element methods


class GenericKernels(BaseRing):
    """``ring``'s element arithmetic with only ``BaseRing``'s row kernels.

    The element methods are the wrapped ring's own; ``row_sub_multiple``,
    ``sparse_axpy``, ``row_scale`` and ``row_residue`` are the generic
    defaults, so a matrix over this ring runs the library's matrix code with
    none of the native-int overrides.  A polynomial ring is rebuilt over the
    wrapped base field, so its coefficient loops are generic too, and the
    residue field is wrapped as well.
    """

    ELEMENT_METHODS = ("zero", "one", "add", "neg", "mul", "is_zero", "is_unit",
                       "divrem", "size", "unit_normalize", "exact_div", "divides", "pow",
                       "inv_unit", "xi_valuation", "xi_power", "xi_divide", "residue",
                       "lift", "format", "parse", "describe")

    def __init__(self, ring: BaseRing):
        if isinstance(ring, GenericKernels):
            ring = ring.inner
        if isinstance(ring, PolynomialRing):
            ring = PolynomialRing(GenericKernels(ring.base))
        self.inner = ring
        self.kind, self.is_field = ring.kind, ring.is_field
        for name in self.ELEMENT_METHODS:
            if hasattr(ring, name):
                setattr(self, name, getattr(ring, name))

    @property
    def xi(self):
        return self.inner.xi

    def residue_field(self):
        return GenericKernels(self.inner.residue_field())

    def __eq__(self, other):
        return isinstance(other, GenericKernels) and other.inner == self.inner

    def __hash__(self):
        return hash(("generic", self.inner))

    def __repr__(self):
        return f"<generic kernels over {self.inner!r}>"


def with_generic_kernels(M: Matrix) -> Matrix:
    """M over ``GenericKernels(M.ring)``, entry for entry."""
    return Matrix(GenericKernels(M.ring), M.data, cols=M.cols)


# ---------------------------------------------------------------------------
# dense kernels: every entry of every row, zeros included


def ring_sum(R, items):
    """The sum of ``items`` in the ring R, added one at a time."""
    acc = R.zero()
    for x in items:
        acc = R.add(acc, x)
    return acc


def dense_matmul(A: Matrix, B: Matrix) -> Matrix:
    """A @ B with each entry summed over the full inner index."""
    if A.cols != B.rows:
        raise ShapeMismatch(f"{A.rows}x{A.cols} @ {B.rows}x{B.cols}")
    R = A.ring
    out = []
    for i in range(A.rows):
        row = []
        for j in range(B.cols):
            row.append(ring_sum(R, (R.mul(A.data[i][t], B.data[t][j]) for t in range(A.cols))))
        out.append(row)
    return Matrix(R, out, cols=B.cols)


def matrix_sum(A: Matrix, B: Matrix) -> Matrix:
    """A + B, entry by entry with the ring's add."""
    if (A.rows, A.cols) != (B.rows, B.cols):
        raise ShapeMismatch(f"{A.rows}x{A.cols} + {B.rows}x{B.cols}")
    R = A.ring
    return Matrix(R, [[R.add(a, b) for a, b in zip(ra, rb)] for ra, rb in zip(A.data, B.data)],
                  cols=A.cols)


def apply(M: Matrix, vec):
    """M times a column vector (a sequence of ring elements)."""
    if len(vec) != M.cols:
        raise ShapeMismatch("vector length mismatch")
    R = M.ring
    return tuple(
        ring_sum(R, (R.mul(M.data[i][t], vec[t]) for t in range(M.cols)))
        for i in range(M.rows)
    )


def dense_rref(M: Matrix):
    """Row-reduced echelon form, each row update across all columns."""
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
                rows[i] = [F.add(rows[i][j], F.neg(F.mul(f, rows[r][j]))) for j in range(nc)]
        pivots.append(c)
        r += 1
        if r == nr:
            break
    return Matrix(F, rows, cols=nc), tuple(pivots)


def column_lows_by_rank(M: Matrix) -> list:
    """Each column's low, or None, read off ranks of submatrices by ``dense_rref``.

    Column j has no low when rank M[:, :j+1] = rank M[:, :j]: it lies in the
    span of the columns before it.  Otherwise its low is the least r with
    rank M[r+1:, :j+1] = rank M[r+1:, :j], the least r below which the column
    agrees with a combination of the columns before it.
    """
    def rank(r0, c1):
        return len(dense_rref(M.submatrix(r0, M.rows, 0, c1))[1])

    return [None if rank(0, j + 1) == rank(0, j)
            else next(r for r in range(M.rows) if rank(r + 1, j + 1) == rank(r + 1, j))
            for j in range(M.cols)]


def kernel_cols(M: Matrix) -> Matrix:
    """Deterministic kernel basis from the RREF (one column per free column)."""
    F = M.ring
    R, pivots = rref(M)
    pivot_set = set(pivots)
    free = [c for c in range(M.cols) if c not in pivot_set]
    # row pc of the basis is minus row r of R on the free columns; row fc is
    # the unit vector of its free column
    z, minus_one = F.zero(), F.neg(F.one())
    out = [None] * M.cols
    for k, fc in enumerate(free):
        out[fc] = (z,) * k + (F.one(),) + (z,) * (len(free) - k - 1)
    for row, pc in zip(R.data, pivots):
        out[pc] = tuple(F.row_scale(minus_one, [row[fc] for fc in free]))
    return Matrix._of(F, tuple(out), len(free))


def _dense_pivot(R, D, t, rows, cols):
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


DenseSNF = namedtuple("DenseSNF", "d u uinv v vinv rank factors")


def dense_snf(M: Matrix) -> DenseSNF:
    """Smith normal form by Euclidean elimination, whole rows and columns.

    The same pivot rules as ``snf``: smallest Euclidean valuation, ties
    broken by lowest row then column index.
    """
    R = M.ring
    rows, cols = M.rows, M.cols
    D = [list(r) for r in M.data]
    U = [list(r) for r in Matrix.identity(R, rows).data]
    Ui = [list(r) for r in Matrix.identity(R, rows).data]
    V = [list(r) for r in Matrix.identity(R, cols).data]
    Vi = [list(r) for r in Matrix.identity(R, cols).data]

    def row_swap(a, b):
        for X in (D, U):
            X[a], X[b] = X[b], X[a]
        for i in range(rows):
            Ui[i][a], Ui[i][b] = Ui[i][b], Ui[i][a]

    def row_addmul(dst, src, c):
        # row_dst += c * row_src; inverse op recorded in Ui columns
        for X in (D, U):
            X[dst] = [R.add(X[dst][j], R.mul(c, X[src][j])) for j in range(len(X[dst]))]
        nc = R.neg(c)
        for i in range(rows):
            Ui[i][src] = R.add(Ui[i][src], R.mul(nc, Ui[i][dst]))

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
        for i in range(rows):
            D[i][dst] = R.add(D[i][dst], R.mul(c, D[i][src]))
        for i in range(cols):
            V[i][dst] = R.add(V[i][dst], R.mul(c, V[i][src]))
        nc = R.neg(c)
        Vi[src] = [R.add(Vi[src][j], R.mul(nc, Vi[dst][j])) for j in range(cols)]

    def row_scale(i, u):
        inv = R.inv_unit(u)
        D[i] = [R.mul(u, x) for x in D[i]]
        U[i] = [R.mul(u, x) for x in U[i]]
        for r in range(rows):
            Ui[r][i] = R.mul(inv, Ui[r][i])

    t = 0
    n = min(rows, cols)
    while t < n:
        pv = _dense_pivot(R, D, t, rows, cols)
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

    return DenseSNF(
        Matrix(R, D, cols=cols),
        Matrix(R, U, cols=rows),
        Matrix(R, Ui, cols=rows),
        Matrix(R, V, cols=cols),
        Matrix(R, Vi, cols=cols),
        rank,
        tuple(factors),
    )


def validate_snf(M: Matrix, res) -> None:
    """Raise ValueError unless ``res`` is a Smith form of M, checked by products alone.

    The certificate (McConnell, Mehlhorn, Naeher and Schweitzer, "Certifying
    algorithms", 2011) needs no second elimination, so it runs on matrices no
    dense oracle reaches: U M V = D, U U^-1 = U^-1 U = I, V V^-1 = V^-1 V = I,
    and D is diagonal with the factors on it, each normalized and dividing the
    next.  That U and V are unimodular follows from their inverses.
    """
    R = M.ring
    U, V, D = res.u, res.v, res.d
    rows, cols = Matrix.identity(R, M.rows), Matrix.identity(R, M.cols)
    for name, got, want in [("U M V", U @ M @ V, D),
                            ("U U^-1", U @ res.uinv, rows), ("U^-1 U", res.uinv @ U, rows),
                            ("V V^-1", V @ res.vinv, cols), ("V^-1 V", res.vinv @ V, cols)]:
        if got != want:
            raise ValueError(f"{name} is not {'D' if want is D else 'the identity'}")
    if any(not R.is_zero(x) for i, row in enumerate(D.data) for j, x in enumerate(row) if i != j):
        raise ValueError("D is not diagonal")
    diagonal = [D.data[i][i] for i in range(min(M.rows, M.cols))]
    factors = list(res.factors)
    if res.rank != len(factors) or diagonal != factors + [R.zero()] * (len(diagonal) - res.rank):
        raise ValueError("the diagonal of D is not the factors followed by zeros")
    for f in factors:
        if R.is_zero(f) or R.unit_normalize(f)[1] != f:
            raise ValueError(f"factor {R.format(f)} is not a normalized nonzero element")
    for a, b in zip(factors, factors[1:]):
        if not R.divides(a, b):
            raise ValueError(f"factor {R.format(a)} does not divide {R.format(b)}")


def image_coords_by_solve(res, B: Matrix):
    """The columns of B in the basis ``res.image()``, solved against a second
    Smith form, that of the basis: the reference for ``SNFResult.image_coords``."""
    return snf(res.image()).solve(B)

# ---------------------------------------------------------------------------
# minors


def determinant(M: Matrix):
    """Exact determinant by first-row cofactor expansion (desk-scale sizes)."""
    R = M.ring
    if M.rows != M.cols:
        raise ShapeMismatch("determinant of a non-square matrix")
    n = M.rows
    if n == 0:
        return R.one()
    if n == 1:
        return M.data[0][0]
    total = R.zero()
    for j in range(n):
        a = M.data[0][j]
        if R.is_zero(a):
            continue
        rest = M.submatrix(1, n, 0, j).hstack(M.submatrix(1, n, j + 1, n))
        term = R.mul(a, determinant(rest))
        total = R.add(total, term if j % 2 == 0 else R.neg(term))
    return total


def _minor_dets(M: Matrix, k: int):
    R = M.ring
    for rows in combinations(range(M.rows), k):
        for cols in combinations(range(M.cols), k):
            sub = Matrix(R, [[M.data[i][j] for j in cols] for i in rows], cols=k)
            yield determinant(sub)


def _gcd_all(ring, items):
    acc = ring.zero()
    for x in items:
        if ring.is_zero(x):
            continue
        acc = _gcd2(ring, acc, x)
    _, acc = ring.unit_normalize(acc)
    return acc


def _gcd2(ring, a, b):
    while not ring.is_zero(b):
        _, r = ring.divrem(a, b)
        a, b = b, r
    return a


def minors_rank(M: Matrix) -> int:
    """Largest k with a nonzero k x k minor."""
    top = min(M.rows, M.cols)
    for k in range(top, 0, -1):
        if any(not M.ring.is_zero(d) for d in _minor_dets(M, k)):
            return k
    return 0


def invariant_factors_by_minors(M: Matrix):
    """d_k = gcd(k-minors) / gcd((k-1)-minors), normalized."""
    R = M.ring
    r = minors_rank(M)
    out = []
    prev = R.one()
    for k in range(1, r + 1):
        g = _gcd_all(R, _minor_dets(M, k))
        out.append(R.exact_div(g, prev))
        prev = g
    normalized = []
    for d in out:
        _, n = R.unit_normalize(d)
        normalized.append(n)
    return tuple(normalized)


def fraction_kernel_rank(M: Matrix) -> int:
    """Kernel rank over the fraction field, via Fraction row reduction (Z only)."""
    if not isinstance(M.ring, IntegerRing):
        raise ValueError("fraction oracle is for the integers")
    rows = [[Fraction(x) for x in row] for row in M.data]
    nr, nc = M.rows, M.cols
    rank = 0
    for c in range(nc):
        piv = None
        for i in range(rank, nr):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][c]
        rows[rank] = [inv * x for x in rows[rank]]
        for i in range(nr):
            if i != rank and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [rows[i][j] - f * rows[rank][j] for j in range(nc)]
        rank += 1
    return nc - rank


# ---------------------------------------------------------------------------
# stages of the generators' pieces in closed form, Künneth over a site, and
# the stage lattice over R


def piece_stage_cyclics(ring, pieces, hi: int, m: int, exponent: bool = True) -> dict:
    """H^i of stage m of a sum of pieces, as {i: (free rank, [g])}: R^free + sum R/(g).

    The stage of a sum is the sum of the stages.  With a(i) = m for i < m, a
    shell R -c-> R at (d, d+1) spans xi^a(d) R -> xi^a(d+1) R, where for
    i >= m a(d) is d when xi divides c and d + 1 otherwise, and
    a(d+1) = d + 1.  Its differential in those bases is c * xi^e with
    e = a(d) - a(d+1), so it leaves R/(c * xi^e) in degree d + 1 and nothing
    in degree d.  A free line leaves R in its own degree.  The pieces are
    read by their kind, degree and entry; ``exponent=False`` drops xi^e,
    the negative control.
    """
    free = {i: 0 for i in range(hi + 1)}
    gens = {i: [] for i in range(hi + 1)}
    for p in pieces:
        if p.kind == "free":
            free[p.deg] += 1
            continue
        d = p.deg
        low = m if d < m else d + (ring.xi_valuation(p.c) == 0)
        e = low - max(m, d + 1) if exponent else 0
        gens[d + 1].append(ring.mul(p.c, ring.xi_power(e)) if e >= 0
                           else ring.xi_divide(p.c, -e))
    return {i: (free[i], gens[i]) for i in free}


def kunneth_cyclics(cyclics: dict, betti) -> dict:
    """H^i of the sections of a constant sheaf: the sum of H^(i-p)(K)^(b_p).

    ``cyclics`` gives H(K) as ``piece_stage_cyclics`` does and ``betti``
    the site's Betti numbers b_0, b_1, ...; the site's cohomology is free,
    so no Tor term enters.
    """
    out = {}
    for i in range(len(betti) + max(cyclics)):
        parts = [(b, cyclics[i - p]) for p, b in enumerate(betti) if i - p in cyclics]
        out[i] = (sum(b * free for b, (free, _) in parts),
                  [g for b, (_, gens) in parts for g in gens * b])
    return out


def cyclic_sum_module(ring, free_rank: int, gens) -> FGModule:
    """R^free_rank plus the sum of the R/(g): the invariant factors of diag(g) by minors."""
    gens = [g for g in gens if not ring.is_unit(g)]
    if not gens:
        return FGModule(ring, free_rank)
    zero = ring.zero()
    diag = Matrix(ring, [[g if j == k else zero for k in range(len(gens))]
                         for j, g in enumerate(gens)])
    return FGModule(ring, free_rank,
                    [f for f in invariant_factors_by_minors(diag) if not ring.is_unit(f)])


def congruence_kernel_by_snf(K: FreeComplex, i: int) -> Matrix:
    """{ x in K^i : d(x) in xi*K^{i+1} } over R: the image of the top block of ker [d | xi*I].

    The ring-side route, one Smith form for the kernel and one for the image:
    the reference for ``eta.congruence_kernel``.
    """
    d = K.d(i)
    ker = snf(d.hstack(Matrix.scalar(K.ring, d.rows, K.ring.xi))).kernel()
    return snf(ker.submatrix(0, d.cols, 0, ker.cols)).image()


# ---------------------------------------------------------------------------
# the stages, their subquotients, comparisons and sheaves, every degree solved


def eta_m_all_degrees(K: FreeComplex, m: int) -> ChainMap:
    """Stage m with every basis built and d restricted by one solve in every degree.

    The route the library takes for stage 0 only: the reference for stage
    m > 0 read off stage 0 and K.
    """
    ring = K.ring
    return subcomplex(K, {i: Matrix.scalar(ring, K.rank(i), ring.xi_power(m)) if i < m
                          else congruence_kernel(K.d(i)).xi_scale(i) for i in K.degrees()})


def mod_xi_subquotient_all_degrees(K: FreeComplex, m: int) -> ChainMap:
    """xi * stage(m) factored through stage(m+1) in every degree, stages from the oracle."""
    stage, finer = eta_m_all_degrees(K, m), eta_m_all_degrees(K, m + 1)
    scaled = ChainMap(stage.source, K, {i: stage.map(i).scale(K.ring.xi) for i in K.degrees()})
    return factor_through(scaled, finer)


def graded_piece_all_degrees(K: FreeComplex, m: int) -> ChainMap:
    """The oracle's stage m mod xi factored through a fresh truncation of K/xi at m."""
    stage, kbar = eta_m_all_degrees(K, m), K.reduce_mod_xi()
    reduced = ChainMap(stage.source.reduce_mod_xi(), kbar,
                       {i: stage.map(i).xi_residue(m) for i in range(K.lo, min(m, K.hi) + 1)})
    return factor_through(reduced, truncate_leq(kbar, m))


def hodge_stage_comparison_all_degrees(K: FreeComplex, m: int) -> dict:
    """The Hodge comparison's maps, each degree i >= m classified in a fresh H^i(K/xi)."""
    stage, kbar = eta_m_all_degrees(K, m), K.reduce_mod_xi()
    return {i: k_cohomology_quotient(kbar, i).coords_matrix(stage.map(i).xi_residue(i))
            for i in range(max(m, K.lo), K.hi + 1)}


def stage_sheaf_all_degrees(F: SheafComplex, m: int) -> SheafMap:
    """The stage-m sheaf, each restriction factored through the oracle's stalk stages."""
    return _subsheaf(F, eta_m_all_degrees, m)


# ---------------------------------------------------------------------------
# cycle spaces of a filtered complex, through the quotient map


def quotient_coords(q: QuotientSpace, vec) -> tuple:
    """Coordinates of the class of vec (which must lie in q's Z) in q's representatives."""
    target = Matrix.from_columns(q.field, [tuple(vec)], rows=q.ambient)
    return q.coords_matrix(target).column(0)


def quotient_map_matrix(W: Subspace) -> Matrix:
    """Matrix of the projection k^n -> k^n / W in complement coordinates."""
    field = W.field
    n = W.ambient
    ident = Matrix.identity(field, n)
    q = QuotientSpace(Subspace.from_columns(ident), W.matrix().transpose())
    cols = [quotient_coords(q, ident.column(j)) for j in range(n)]
    return Matrix.from_columns(field, cols, rows=q.dim)


def preimage_subspace(d: Matrix, W: Subspace) -> Subspace:
    """{ x : d(x) in W } as a subspace of the source."""
    qmat = quotient_map_matrix(W)
    ker = kernel_cols(qmat @ d)
    return Subspace.from_columns(ker)


def filtration_piece(ambient, inclusions: dict, p: int, n: int) -> Subspace:
    """F_p C^n spanned by the inclusion's columns: whole below the lowest p, zero above the top."""
    if p < min(inclusions):
        whole = Matrix.identity(ambient.ring, ambient.rank(n))
        return Subspace(ambient.ring, whole.rows, whole.data)
    if p > max(inclusions):
        return Subspace(ambient.ring, ambient.rank(n))
    return Subspace.from_columns(inclusions[p].map(n))


def z_space_oracle(ambient, inclusions: dict, r: int, p: int, n: int) -> Subspace:
    """Z_r(p, n) = F_p ∩ d^{-1}(F_{p+r}), with each F_p read off its inclusion
    and the preimage as the kernel of d followed by the projection onto
    C^{n+1} / F_{p+r}."""
    piece = filtration_piece(ambient, inclusions, p, n)
    if r <= 0:
        return piece
    bound = filtration_piece(ambient, inclusions, p + r, n + 1)
    return subspace_intersect(piece, preimage_subspace(ambient.d(n), bound))


# ---------------------------------------------------------------------------
# the Bockstein complex, one class at a time


def beta_oracle(K, rng=None) -> dict:
    """beta_i of H^*(K/xi), one representative at a time.

    Each representative of H^i(K/xi) is lifted entrywise (plus xi times a
    random lift of a residue when ``rng`` is given), sent through d, divided
    by xi, reduced and classified on its own.
    """
    ring = K.ring
    field = ring.residue_field()
    kbar = K.reduce_mod_xi()
    beta = {}
    for i in range(K.lo, K.hi):
        src = k_cohomology_quotient(kbar, i)
        tgt = k_cohomology_quotient(kbar, i + 1)
        cols = []
        for rep in src.reps:
            lifted = [ring.lift(c) for c in rep]
            if rng is not None:
                lifted = [ring.add(x, ring.mul(ring.xi, ring.lift(rng.randrange(field.p))))
                          for x in lifted]
            dx = apply(K.d(i), lifted)
            cols.append(quotient_coords(tgt, [ring.residue(ring.xi_divide(x, 1)) for x in dx]))
        beta[i] = Matrix.from_columns(field, cols, rows=tgt.dim)
    return beta


def perturbed_beta(K, rng) -> dict:
    """beta_i of H^*(K/xi) through lifts perturbed by random multiples of xi.

    The library's route, all representatives of H^i(K/xi) at once, except
    that xi times a small random ring element is added to every entry of
    their lift.  beta does not depend on the lift, so the matrices must be
    the library's.
    """
    ring = K.ring
    kbar = K.reduce_mod_xi()
    beta = {}
    for i in range(K.lo, K.hi):
        reps = k_cohomology_quotient(kbar, i).rep_matrix()
        noise = Matrix.from_columns(ring, [
            [_random_ring_element(ring, rng) for _ in range(reps.rows)]
            for _ in range(reps.cols)
        ], rows=reps.rows)
        lifted = matrix_sum(reps.map_entries(ring.lift, ring), noise.scale(ring.xi))
        image = (K.d(i) @ lifted).xi_residue(1)
        beta[i] = k_cohomology_quotient(kbar, i + 1).coords_matrix(image)
    return beta


def _random_ring_element(ring, rng):
    """A small integer over Z, a random constant over F_p[t] or Q[t]."""
    if ring.kind == "z":
        return ring.parse(str(rng.randint(-3, 3)))
    if isinstance(ring.base, PrimeField):
        return ring.from_coeffs([rng.randrange(ring.base.p)])
    return ring.from_coeffs([Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))])


def hodge_stage_comparison_oracle(ctx, K, m: int) -> dict:
    """hodge_stage_comparison with the class of each generator taken on its own."""
    ring = K.ring
    bc = ctx.bockstein(K)
    emb = ctx.stage(K, m)
    maps = {}
    for i in K.degrees():
        if i < m:
            maps[i] = Matrix.zeros(bc.ring, 0, emb.source.rank(i))
            continue
        basis = emb.map(i)
        cols = []
        for j in range(basis.cols):
            wbar = [ring.residue(ring.xi_divide(x, i)) for x in basis.column(j)]
            cols.append(quotient_coords(ctx.quotient(ctx.kbar(K), i), wbar))
        maps[i] = Matrix.from_columns(bc.ring, cols, rows=bc.rank(i))
    return maps


# ---------------------------------------------------------------------------
# the order a relation list generates


def poset_order_oracle(elements, relations):
    """(strict pairs, chains by length, heights) of the order ``relations`` generate.

    The strict relation is closed by repeated composition until nothing
    changes, and the chains are the totally ordered subsets of the sorted
    elements, each listed bottom to top and each length sorted; the
    reference for ``PosetSite``'s up-sets and the chains extended by them.
    """
    less = {(a, b) for a, b in relations if a != b}
    while True:
        more = {(a, d) for a, b in less for c, d in less if b == c} - less
        if not more:
            break
        less |= more
    elements = sorted(elements)
    chains = []
    for size in range(1, len(elements) + 1):
        level = []
        for subset in combinations(elements, size):
            chain = sorted(subset, key=lambda e: sum((z, e) in less for z in elements))
            if all(pair in less for pair in zip(chain, chain[1:])):
                level.append(tuple(chain))
        if not level:
            break
        chains.append(sorted(level))
    heights = {x: max(len(c) - 1 for level in chains for c in level if c[-1] == x)
               for x in elements}
    return sorted(less), chains, heights


# ---------------------------------------------------------------------------
# order-complex cohomology with a one-degree local system


def order_complex_cohomology(site, stalk_dims, res_mats, field):
    """Cohomology dims of the order complex with values at simplex tops.

    ``stalk_dims[x]`` is the stalk dimension over the field; ``res_mats`` maps
    comparable pairs (x, y) to matrices.  Chains are enumerated from scratch
    (subsets filtered by total comparability) and the coboundary assembled
    position by position, independent of the package's sections machinery.
    """
    elements = list(site.elements)
    less = set(site.strict_pairs())

    def sort_chain(subset):
        chain = sorted(subset, key=lambda e: sum(1 for z in elements if (z, e) in less))
        for a, b in zip(chain, chain[1:]):
            if (a, b) not in less:
                return None
        return tuple(chain)

    simplices = {}
    for size in range(1, len(elements) + 1):
        level = []
        for subset in combinations(elements, size):
            chain = sort_chain(subset)
            if chain is not None:
                level.append(chain)
        if not level:
            break
        simplices[size - 1] = sorted(level)

    def block_cols(level):
        offs = {}
        total = 0
        for s in level:
            offs[s] = total
            total += stalk_dims[s[-1]]
        return offs, total

    dims = []
    deltas = []
    layout = {n: block_cols(simplices[n]) for n in simplices}
    top_n = max(simplices)
    for n in range(0, top_n + 1):
        offs, total = layout[n]
        dims.append(total)
        if n == top_n:
            break
        offs1, total1 = layout[n + 1]
        rows = [[field.zero()] * total for _ in range(total1)]
        for s1 in simplices[n + 1]:
            for j in range(len(s1)):
                face = s1[:j] + s1[j + 1:]
                if face not in offs:
                    continue
                if j < len(s1) - 1:
                    block = Matrix.identity(field, stalk_dims[s1[-1]])
                else:
                    block = res_mats[(face[-1], s1[-1])]
                sign = 1 if j % 2 == 0 else -1
                for a in range(block.rows):
                    for b in range(block.cols):
                        v = block.data[a][b]
                        if sign < 0:
                            v = field.neg(v)
                        rows[offs1[s1] + a][offs[face] + b] = field.add(
                            rows[offs1[s1] + a][offs[face] + b], v)
        deltas.append(Matrix(field, rows, cols=total))
    out = []
    for n in range(len(dims)):
        d_n = deltas[n] if n < len(deltas) else Matrix.zeros(field, 0, dims[n])
        zdim = kernel_cols(d_n).cols
        if n == 0:
            bdim = 0
        else:
            prev = deltas[n - 1]
            bdim = len(rref(prev.transpose())[1])
        out.append(zdim - bdim)
    return out


# ---------------------------------------------------------------------------
# truncated-ring arithmetic (R / xi^N)


class Trunc:
    """Arithmetic in R/xi^N with unit inversion and valuation bookkeeping."""

    def __init__(self, ring, N: int):
        self.ring = ring
        self.N = N

    def cut(self, a):
        R = self.ring
        if isinstance(R, IntegerRing):
            return a % (R.xi ** self.N)
        if isinstance(R, PolynomialRing):
            return R._trim(list(a[: self.N]))
        raise ValueError("unsupported ring")

    def add(self, a, b):
        return self.cut(self.ring.add(a, b))

    def sub(self, a, b):
        return self.cut(self.ring.add(a, self.ring.neg(b)))

    def mul(self, a, b):
        return self.cut(self.ring.mul(a, b))

    def val(self, a):
        v = self.ring.xi_valuation(self.cut(a))
        return self.N if v > self.N else int(v)

    def unit_inverse(self, u):
        """Inverse of a valuation-zero element, modulo xi^N."""
        R = self.ring
        if isinstance(R, IntegerRing):
            return pow(u % (R.xi ** self.N), -1, R.xi ** self.N)
        base = R.base
        inv0 = base.inv_unit(u[0])
        out = [inv0] + [base.zero()] * (self.N - 1)
        for n in range(1, self.N):
            acc = base.zero()
            for j in range(1, n + 1):
                uj = u[j] if j < len(u) else base.zero()
                acc = base.add(acc, base.mul(uj, out[n - j]))
            out[n] = base.neg(base.mul(inv0, acc))
        return R._trim(out)

    def divide(self, a, b):
        """a / b when val(a) >= val(b); precision shrinks by val(b) for callers."""
        v = self.val(b)
        if v >= self.N:
            raise ZeroDivisionError("division by something indistinguishable from zero")
        if self.val(a) < v:
            raise ArithmeticError("not divisible at this precision")
        R = self.ring
        a1 = R.xi_divide(self.cut(a), v)
        b1 = R.xi_divide(self.cut(b), v)
        return self.mul(a1, self.unit_inverse(b1))


def trunc_column_generators(tr: Trunc, cols):
    """Reduce a generating set of a submodule of (R/xi^N)^n to few columns."""
    n = len(cols[0]) if cols else 0
    work = [list(c) for c in cols]
    out = []
    used_rows = set()
    while work:
        piv, best = None, None
        for ci, c in enumerate(work):
            for ri in range(n):
                if ri in used_rows:
                    continue
                v = tr.val(c[ri])
                if best is None or v < best:
                    piv, best = (ci, ri), v
        if piv is None or best >= tr.N:
            break
        ci, ri = piv
        pivot_col = work.pop(ci)
        out.append(pivot_col)
        used_rows.add(ri)
        for c in work:
            if tr.val(c[ri]) >= tr.N:
                continue
            f = tr.divide(c[ri], pivot_col[ri])
            for r in range(n):
                c[r] = tr.sub(c[r], tr.mul(f, pivot_col[r]))
        work = [c for c in work if any(tr.val(x) < tr.N for x in c)]
    return out


def bb_by_snf(M: Matrix) -> tuple:
    """(relative position, flag) of span(M) in R^n from one Smith form U M V = D.

    The reference for ``theorem.bb_filtration`` and ``relative_position``.
    M must have full row rank (SingularBasis if not).  The relative position
    is the xi-valuations mus of the invariant factors, descending.  Column j
    of U^-1 times xi^mus[j] spans the part of span(M) along it up to a unit
    at xi, so the space at m is spanned by the residues of the columns of
    U^-1 with mus[j] <= m, for m from 0 to one past the largest valuation.
    """
    res = snf(M)
    if res.rank != M.rows:
        raise SingularBasis("lattice matrix is not of full row rank")
    mus = [int(M.ring.xi_valuation(f)) for f in res.factors]
    adapted = res.uinv.residue()
    spaces = {m: Subspace.from_columns(
                  adapted.take_columns([j for j, mu in enumerate(mus) if mu <= m]))
              for m in range(0, max(mus, default=-1) + 2)}
    return sorted(mus, reverse=True), Flag(M.ring.residue_field(), M.rows, spaces)


def bb_flag_oracle(M: Matrix, N: int):
    """The flag of span(M) in k^n recomputed over R/xi^N.

    Starts from the columns of M truncated mod xi^N and peels xi-divisible
    layers by truncated Gaussian elimination; returns {m: Subspace} over
    the residue field.
    """
    ring = M.ring
    n = M.rows
    kfield = ring.residue_field()
    mus, _ = bb_by_snf(M)
    top = max(mus) if mus else 0

    tr = Trunc(ring, N + top + 2)
    gens = [[tr.cut(x) for x in col] for col in M.transpose().data]
    spaces = {}
    for m in range(0, top + 2):
        reduced = []
        for g in gens:
            divided = [ring.xi_divide(tr.cut(x), m) if tr.val(x) >= m else None
                       for x in g]
            if any(d is None for d in divided):
                continue
            reduced.append([ring.residue(d) for d in divided])
        spaces[m] = Subspace(kfield, n, reduced)
        # peel: keep combinations divisible by xi^{m+1}
        survivors = []
        krows = [[ring.residue(ring.xi_divide(tr.cut(x), m)) if tr.val(x) >= m
                  else None for x in g] for g in gens]
        usable = [g for g, kr in zip(gens, krows) if all(v is not None for v in kr)]
        kr_mat = Matrix(kfield, [kr for kr in krows if all(v is not None for v in kr)],
                        cols=n)
        if usable:
            ker = kernel_cols(kr_mat.transpose())
            for j in range(ker.cols):
                combo = [ring.zero()] * n
                for gi, g in enumerate(usable):
                    lift = ring.lift(ker.data[gi][j])
                    for r in range(n):
                        combo[r] = tr.add(combo[r], tr.mul(lift, g[r]))
                survivors.append(combo)
        for g in gens:
            survivors.append([tr.mul(ring.xi, x) for x in g])
        gens = trunc_column_generators(tr, survivors)
    return spaces


def trunc_kernel_generators(tr: Trunc, M: Matrix):
    """Generators of {x : Mx = 0 in R/xi^N}.

    Diagonalizes by Gaussian steps over the truncated ring: row operations
    (which do not change the kernel, so go untracked) clear the pivot column,
    column operations (tracked) clear the pivot row.  Min-valuation pivoting
    keeps every division exact.  Afterwards each pivot column contributes
    xi^{N - v} times its tracked combination, and dead columns contribute
    their combinations outright.
    """
    ring = M.ring
    n = M.cols
    cols = [list(M.column(j)) for j in range(n)]
    track = [[ring.one() if i == j else ring.zero() for i in range(n)]
             for j in range(n)]
    used_rows = set()
    pivots = []
    alive = list(range(n))
    while True:
        piv, best = None, None
        for ci in alive:
            for ri in range(M.rows):
                if ri in used_rows:
                    continue
                v = tr.val(cols[ci][ri])
                if best is None or v < best:
                    piv, best = (ci, ri), v
        if piv is None or best >= tr.N:
            break
        ci, ri = piv
        used_rows.add(ri)
        pivots.append((ci, ri, best))
        # column ops (tracked): clear the pivot row
        for cj in alive:
            if cj == ci or tr.val(cols[cj][ri]) >= tr.N:
                continue
            f = tr.divide(cols[cj][ri], cols[ci][ri])
            cols[cj] = [tr.sub(cols[cj][r], tr.mul(f, cols[ci][r]))
                        for r in range(M.rows)]
            track[cj] = [tr.sub(track[cj][r], tr.mul(f, track[ci][r]))
                         for r in range(n)]
        # row ops (untracked): clear the pivot column
        for rj in range(M.rows):
            if rj == ri or tr.val(cols[ci][rj]) >= tr.N:
                continue
            f = tr.divide(cols[ci][rj], cols[ci][ri])
            for ck in range(n):
                cols[ck][rj] = tr.sub(cols[ck][rj], tr.mul(f, cols[ck][ri]))
        alive = [cj for cj in alive if cj != ci]
    gens = []
    for cj in alive:
        gens.append(track[cj])
    for ci, ri, v in pivots:
        if v > 0:
            scale = tr.ring.xi_power(tr.N - v)
            gens.append([tr.mul(scale, x) for x in track[ci]])
    return gens


def image_flag_oracle(ring, stage_total, incl_matrix, i: int, m: int, hq, N: int):
    """Image of H^i of the stage sections in H^i of the reduced sections.

    Recomputed from a truncated kernel at precision N instead of the exact
    presentation: generators of {x : d(x) = 0 mod xi^N} are pushed along the
    inclusion, divided by xi^m, reduced, and classified.  N must dominate
    m plus the largest elementary divisor valuation of the differential.
    """
    tr = Trunc(ring, N)
    kfield = ring.residue_field()
    gens = trunc_kernel_generators(tr, stage_total.d(i))
    vecs = []
    for g in gens:
        moved = apply(incl_matrix, [tr.cut(x) for x in g])
        divided = []
        for x in moved:
            if tr.val(x) < m:
                raise ArithmeticError("image not divisible by xi^m at this precision")
            divided.append(ring.residue(ring.xi_divide(tr.cut(x), m)))
        vecs.append(quotient_coords(hq, divided))
    return Subspace(kfield, hq.dim, vecs)


# ---------------------------------------------------------------------------
# helpers only the tests call


def is_zero_complex(K: FreeComplex) -> bool:
    return K.total_rank() == 0


def euler_characteristic(K: FreeComplex) -> int:
    return sum((-1) ** i * K.rank(i) for i in K.degrees())


def shift(K: FreeComplex, s: int) -> FreeComplex:
    """Degree shift K[s]: K[s]^i = K^{i+s}, differentials sign-flipped for odd s."""
    diffs = [K.d(i) for i in range(K.lo, K.hi)]
    if s % 2:
        diffs = [-d for d in diffs]
    return FreeComplex(K.ring, K.lo - s, K.ranks(), diffs, K.twist)


def normalized_nonnegative(K: FreeComplex):
    """(K', s) with K' = K[-s] starting at degree 0; s = 0 when lo >= 0."""
    if K.lo >= 0:
        return K, 0
    return shift(K, K.lo), K.lo


def is_degreewise_injective(f) -> bool:
    """Whether every degree of the chain map f has zero kernel."""
    return all(
        snf(f.map(i)).kernel().cols == 0
        for i in f.source.degrees()
        if f.source.rank(i) > 0
    )


def induced_map(ctx, f, i: int) -> Matrix:
    """Matrix of H^i(f) with respect to the context's presentations."""
    src_pres = ctx.presentation(f.source, i)
    return ctx.presentation(f.target, i).coords(f.map(i) @ src_pres.gens_basis)


def vstack(top: Matrix, bottom: Matrix) -> Matrix:
    """``top`` over ``bottom``, two matrices with one column count."""
    if top.cols != bottom.cols:
        raise ShapeMismatch("vstack column mismatch")
    return Matrix(top.ring, top.data + bottom.data, cols=top.cols)


def block_diagonal(A: Matrix, B: Matrix) -> Matrix:
    """[[A, 0], [0, B]]."""
    ring = A.ring
    return vstack(A.hstack(Matrix.zeros(ring, A.rows, B.cols)),
                  Matrix.zeros(ring, B.rows, A.cols).hstack(B))


def direct_sum(A: FreeComplex, B: FreeComplex) -> FreeComplex:
    """A (+) B, block-diagonal: the reference for the generators' piece complexes."""
    if A.ring != B.ring:
        raise ShapeMismatch("direct sum over different rings")
    lo, hi = min(A.lo, B.lo), max(A.hi, B.hi)
    ranks = [A.rank(i) + B.rank(i) for i in range(lo, hi + 1)]
    diffs = [block_diagonal(A.d(i), B.d(i)) for i in range(lo, hi)]
    return FreeComplex(A.ring, lo, ranks, diffs, A.twist)


def sheaf_direct_sum(F: SheafComplex, G: SheafComplex) -> SheafComplex:
    """F (+) G on their one site: stalkwise ``direct_sum``, block-diagonal restrictions."""
    stalks = {x: direct_sum(F.stalk(x), G.stalk(x)) for x in F.site.elements}
    restrictions = {
        (a, b): ChainMap(stalks[a], stalks[b],
                         {i: block_diagonal(F.res(a, b).map(i), G.res(a, b).map(i))
                          for i in stalks[a].degrees()})
        for a, b in F.site.strict_pairs()}
    return SheafComplex(F.site, stalks, restrictions)


def unimodular_draw(ring, n: int, rng) -> Matrix:
    """The random base change as drawn before its inverse was kept: P alone.

    The same elementary row swaps and additions from the same rng calls, so
    P and the rng state after the call are the generators' to match.
    """
    if n == 0:
        return Matrix.identity(ring, 0)
    data = [list(r) for r in Matrix.identity(ring, n).data]
    for _ in range(n + 1):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if op == 0:
            data[i], data[j] = data[j], data[i]
            continue
        if isinstance(ring, IntegerRing):
            c = rng.choice([-1, -1, 1, 1, 2])
        elif isinstance(ring.base, PrimeField):
            c = ring.from_coeffs([rng.randrange(1, ring.base.p)])
        else:
            c = ring.from_coeffs([Fraction(rng.choice([-1, 1, 2]))])
        data[i] = [ring.add(data[i][t], ring.mul(c, data[j][t])) for t in range(n)]
    return Matrix(ring, data)


def cone(f) -> FreeComplex:
    """Mapping cone: cone(f)^i = src^{i+1} (+) tgt^i, d = [[-d_src, 0], [f, d_tgt]]."""
    S, T = f.source, f.target
    ring = S.ring
    lo = min(S.lo - 1, T.lo)
    hi = max(S.hi - 1, T.hi)
    ranks = [S.rank(i + 1) + T.rank(i) for i in range(lo, hi + 1)]
    diffs = []
    for i in range(lo, hi):
        top = (-S.d(i + 1)).hstack(Matrix.zeros(ring, S.rank(i + 2), T.rank(i)))
        bottom = f.map(i + 1).hstack(T.d(i))
        diffs.append(vstack(top, bottom))
    return FreeComplex(ring, lo, ranks, diffs, T.twist)


def abutment_graded_dims(fc, n: int) -> dict:
    """dim gr_p of the filtration that fc induces on H^n of its ambient complex.

    F_p H^n is the image of H^n of the p-th subcomplex, computed as
    (F_p ∩ ker d + boundaries) / boundaries.
    """
    ker = Subspace.from_columns(kernel_cols(fc.ambient.d(n)))
    boundaries = Subspace.from_columns(fc.ambient.d(n - 1))
    fdims = {}
    for p in range(fc.p_min, fc.p_max + 2):
        zn = subspace_intersect(fc.z_space(0, p, n), ker)
        fdims[p] = subspace_add(zn, boundaries).dim - boundaries.dim
    return {p: fdims[p] - fdims[p + 1] for p in range(fc.p_min, fc.p_max + 1)}


def sd_pullback(F: SheafComplex) -> SheafComplex:
    """F pulled back along the last-vertex map sd(P) -> P, c |-> max c.

    sd(P) is the poset of the chains of P ordered by inclusion.  The chain c
    carries the stalk F(max c), and a <= b restricts by F.res(max a, max b).
    The map is homotopy initial (each {c : max c <= x} is sd(P_{<=x}), a cone),
    so by Quillen's Theorem A both sheaves have the same cohomology, and every
    basis-free field of the theorem report agrees on them.
    """
    chains = [c for level in F.site.chains() for c in level]
    pairs = [(a, b) for a in chains for b in chains if a != b and set(a) <= set(b)]
    name = "<".join
    site = PosetSite([name(c) for c in chains], [(name(a), name(b)) for a, b in pairs])
    return SheafComplex(site, {name(c): F.stalk(c[-1]) for c in chains},
                        {(name(a), name(b)): F.res(a[-1], b[-1]) for a, b in pairs})


def basis_free_report(report: dict) -> dict:
    """The fields of a theorem report's JSON that no choice of basis moves.

    Flags keep their window and the dimension of each subspace, checks keep
    their verdicts; failure payloads that print subspaces or name elements
    are dropped.
    """
    def dims(flag):
        return {**flag, "subspaces": {m: len(rows) for m, rows in flag["subspaces"].items()}}

    flags = {i: {key: dims(value) if key in ("bb_flag", "image_flag") else value
                 for key, value in entry.items()}
             for i, entry in report["flags"].items()}
    return {**{key: report[key] for key in ("hypotheses", "asserted", "passed",
                                             "torsion_table", "graded")},
            "flags": flags, "checks": {c["check"]: c["passed"] for c in report["checks"]}}


def all_differentials_vanish(page) -> bool:
    """Whether every differential of one spectral-sequence page is zero."""
    return all(m.is_zero() for m in page.differentials.values())


def beta_squared_is_zero(bc) -> bool:
    return all((bc.d(i + 1) @ bc.d(i)).is_zero() for i in range(bc.lo, bc.hi - 1))


def subspace_add(A: Subspace, B: Subspace) -> Subspace:
    """A + B inside their common ambient space."""
    return Subspace(A.field, A.ambient, list(A.basis) + list(B.basis))


def subspace_intersect(A: Subspace, B: Subspace) -> Subspace:
    """A ∩ B, from the kernel of [A | B] mapped back through A."""
    if A.dim == 0 or B.dim == 0:
        return Subspace(A.field, A.ambient)
    a, b = A.matrix().transpose(), B.matrix().transpose()
    ker = kernel_cols(a.hstack(b))
    return Subspace.from_columns(a @ ker.submatrix(0, a.cols, 0, ker.cols))


# ``bb_filtration``'s ``top`` for the tests' own lattices: above every
# valuation of a desk-scale draw (at most 4 x 4, entries of 3 bits or degree
# 2, so a determinant of valuation at most 12), scaled by at most xi^5
DESK_TOP = 32


def random_nonsingular(ring, n: int, rng) -> Matrix:
    """A random nonsingular n x n matrix: small integers, or polynomials with small coefficients."""
    def entry():
        if isinstance(ring, PolynomialRing):
            return ring.from_coeffs([str(rng.randrange(5)) for _ in range(rng.randint(1, 3))])
        return rng.randint(-4, 4)

    while True:
        M = Matrix(ring, [[entry() for _ in range(n)] for _ in range(n)], cols=n)
        if snf(M).rank == n:
            return M


def flag_jumps(flag: Flag) -> list:
    """Jump positions with multiplicity, descending; n of them when the flag ends full."""
    out = []
    for m in range(flag.m_lo, flag.m_hi + 1):
        out.extend([m] * flag.graded_dim(m))
    return sorted(out, reverse=True)


def lattice_intersect(ctx, A: Matrix, B: Matrix) -> Matrix:
    """Basis of span(A) ∩ span(B) inside the common ambient R^rows."""
    if A.rows != B.rows:
        raise ShapeMismatch("ambient mismatch")
    ker = ctx.factor(A.hstack(-B)).kernel()
    return ctx.factor(A @ ker.submatrix(0, A.cols, 0, ker.cols)).image()


def bb_flag_by_intersection(ctx, M: Matrix) -> Flag:
    """The flag of span(M) in k^n from span(M) ∩ xi^m R^n, one intersection per level m.

    The space at m is the residue of the intersection divided by xi^m; the
    top level must be full.
    """
    kfield = M.ring.residue_field()
    mus, _ = bb_by_snf(M)
    if not mus:
        return Flag(kfield, 0, {0: Subspace(kfield, 0)})
    top = max(mus)
    spaces = {}
    for m in range(0, top + 2):
        ambient = Matrix.scalar(M.ring, M.rows, M.ring.xi_power(m))
        spaces[m] = Subspace.from_columns(lattice_intersect(ctx, M, ambient).xi_residue(m))
    flag = Flag(kfield, M.rows, spaces)
    if flag.subspace(top + 1).dim != M.rows:
        raise ArithmeticError("flag failed to stabilize at full")
    return flag


def validate_filtered(fc) -> None:
    """Raise ValueError unless each F_p of fc is d-stable and F_{p+1} <= F_p."""
    for p in range(fc.p_min, fc.p_max + 1):
        for n in fc.ambient.degrees():
            piece = fc.z_space(0, p, n)  # Z_0(p, n) is F_p C^n
            if not piece.contains_space(fc.z_space(0, p + 1, n)):
                raise ValueError(f"filtration not nested at (p, n) = {(p, n)}")
            image = Subspace.from_columns(fc.ambient.d(n) @ piece.matrix().transpose())
            if not fc.z_space(0, p, n + 1).contains_space(image):
                raise ValueError(f"filtration not d-stable at (p, n) = {(p, n)}")


def validate_sheaf_map(phi) -> None:
    """Raise unless every stalk map of phi is a chain map natural in the restrictions."""
    for x in phi.source.site.elements:
        phi.map(x).validate()
    for a, b in phi.source.site.strict_pairs():
        lo = min(phi.source.stalk(a).lo, phi.target.stalk(a).lo)
        hi = max(phi.source.stalk(a).hi, phi.target.stalk(a).hi)
        left = phi.target.res(a, b).after(phi.map(a))
        right = phi.map(b).after(phi.source.res(a, b))
        for i in range(lo, hi + 1):
            if left.map(i) != right.map(i):
                raise InvalidSheaf(f"sheaf map not natural on {a}<={b} at degree {i}")


def cokernel_term(ctx, phi, i: int) -> FGModule:
    """Invariants of the degree-i term of coker(phi), factored by the context ``ctx``."""
    return FGModule.from_snf(phi.target.ring, phi.target.rank(i), ctx.factor(phi.map(i)))
