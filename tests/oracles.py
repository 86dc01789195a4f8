"""Independent oracles the tests check the library against.

Each oracle recomputes a library quantity along a different route: invariant
factors from gcds of minors (determinants by cofactor expansion), ranks from
minors, cohomology of posets from a standalone order-complex cochain
construction, the cycle spaces Z_r(p, n) of a filtered complex as an
intersection with a preimage taken through a quotient map, the Bockstein
differential and the Hodge-stage comparison one class at a time, and the
lattice / image flags from Gaussian elimination over the truncated ring
R/xi^N instead of exact Smith form machinery.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from decalage.bockstein import k_cohomology_quotient
from decalage.kmatrix import QuotientSpace, Subspace, kernel_cols, rref
from decalage.rings import IntegerRing, PolynomialRing
from decalage.rmatrix import Matrix, ShapeMismatch


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
        return M.entry(0, 0)
    total = R.zero()
    for j in range(n):
        a = M.entry(0, j)
        if R.is_zero(a):
            continue
        rest = M.submatrix(1, n, 0, j).hstack(M.submatrix(1, n, j + 1, n))
        term = R.mul(a, determinant(rest))
        total = R.add(total, term) if j % 2 == 0 else R.sub(total, term)
    return total


def _minor_dets(M: Matrix, k: int):
    R = M.ring
    for rows in combinations(range(M.rows), k):
        for cols in combinations(range(M.cols), k):
            sub = Matrix(R, [[M.entry(i, j) for j in cols] for i in rows], cols=k)
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
# cycle spaces of a filtered complex, through the quotient map


def quotient_map_matrix(W: Subspace) -> Matrix:
    """Matrix of the projection k^n -> k^n / W in complement coordinates."""
    field = W.field
    n = W.ambient
    ident = Matrix.identity(field, n)
    q = QuotientSpace(field, n, [ident.column(j) for j in range(n)], list(W.basis))
    cols = [q.coords(ident.column(j)) for j in range(n)]
    return Matrix.from_columns(field, cols, rows=q.dim)


def preimage_subspace(d: Matrix, W: Subspace) -> Subspace:
    """{ x : d(x) in W } as a subspace of the source."""
    qmat = quotient_map_matrix(W)
    ker = kernel_cols(qmat @ d)
    return Subspace.from_columns(ker)


def z_space_oracle(fc, r: int, p: int, n: int) -> Subspace:
    """Z_r(p, n) = F_p ∩ d^{-1}(F_{p+r}), with the preimage as the kernel of d
    followed by the projection onto C^{n+1} / F_{p+r}."""
    if r <= 0:
        return fc.subspace(p, n)
    return fc.subspace(p, n).intersect(
        preimage_subspace(fc.ambient.d(n), fc.subspace(p + r, n + 1))
    )


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
            dx = K.d(i).apply(lifted)
            cols.append(tgt.coords([ring.residue(ring.xi_divide(x, 1)) for x in dx]))
        beta[i] = Matrix.from_columns(field, cols, rows=tgt.dim)
    return beta


def hodge_stage_comparison_oracle(cx, m: int) -> dict:
    """hodge_stage_comparison with the class of each generator taken on its own."""
    ring = cx.K.ring
    bc = cx.bockstein()
    emb = cx.stage(m)
    maps = {}
    for i in cx.K.degrees():
        if i < m:
            maps[i] = Matrix.zeros(bc.field, 0, emb.complex.rank(i))
            continue
        basis = emb.basis(i)
        cols = []
        for j in range(basis.cols):
            wbar = [ring.residue(ring.xi_divide(x, i)) for x in basis.column(j)]
            cols.append(bc.quotients[i].coords(wbar))
        maps[i] = Matrix.from_columns(bc.field, cols, rows=bc.dim(i))
    return maps


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

    def sort_chain(subset):
        chain = sorted(subset, key=lambda e: sum(1 for z in elements if site.leq(z, e)))
        for a, b in zip(chain, chain[1:]):
            if not site.leq(a, b) or a == b:
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
                        v = block.entry(a, b)
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
        return self.cut(self.ring.sub(a, b))

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


def trunc_solve(tr: Trunc, B, A):
    """Solve B X = A over R/xi^N by min-valuation Gaussian elimination.

    Forward elimination pivots on the minimum valuation over the remaining
    submatrix (rows and columns), so every elimination division is exact;
    back substitution then divides by the pivots, losing val(det B) digits
    of precision in total.  Raises when B is not invertible at the working
    precision or a division is not exact there.
    """
    n = len(B)
    m = len(A[0]) if A else 0
    B = [[tr.cut(x) for x in row] for row in B]
    A = [[tr.cut(x) for x in row] for row in A]
    col_order = []
    free_cols = list(range(n))
    for step in range(n):
        piv, best = None, None
        for i in range(step, n):
            for j in free_cols:
                v = tr.val(B[i][j])
                if best is None or v < best:
                    piv, best = (i, j), v
        if piv is None or best >= tr.N:
            raise ArithmeticError("system not solvable at this precision")
        pi, pj = piv
        B[step], B[pi] = B[pi], B[step]
        A[step], A[pi] = A[pi], A[step]
        col_order.append(pj)
        free_cols.remove(pj)
        for i in range(step + 1, n):
            if tr.val(B[i][pj]) >= tr.N:
                continue
            f = tr.divide(B[i][pj], B[step][pj])
            B[i] = [tr.sub(B[i][j], tr.mul(f, B[step][j])) for j in range(n)]
            A[i] = [tr.sub(A[i][j], tr.mul(f, A[step][j])) for j in range(m)]
    X = [[tr.ring.zero()] * m for _ in range(n)]
    for step in range(n - 1, -1, -1):
        pj = col_order[step]
        for j in range(m):
            acc = A[step][j]
            for later in range(step + 1, n):
                cj = col_order[later]
                acc = tr.sub(acc, tr.mul(B[step][cj], X[cj][j]))
            X[pj][j] = tr.divide(acc, B[step][pj])
    return X


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


def bb_flag_oracle(L, L0, N: int):
    """The two-lattice flag recomputed over R/xi^N.

    Scales the first lattice inside the second, solves for coordinates by
    truncated Gaussian elimination, and peels xi-divisible layers; returns
    {m: Subspace} over the residue field, in the unshifted indexing.
    """
    from decalage.theorem import relative_position

    ring = L.basis.ring
    n = L.n
    kfield = ring.residue_field()
    mus = relative_position(L, L0)
    c = max(0, -min(mus)) if mus else 0
    eff = c + (L.shift - L0.shift)
    ml = L.basis.xi_scale(eff) if eff >= 0 else L.basis.xi_divide(-eff)
    top = (max(mus) if mus else 0) + c

    tr = Trunc(ring, N + top + 2)
    coords = trunc_solve(tr, [list(r) for r in L0.basis.data],
                         [list(r) for r in ml.data])
    gens = [[coords[i][j] for i in range(n)] for j in range(n)]
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
                    lift = ring.lift(ker.entry(gi, j))
                    for r in range(n):
                        combo[r] = tr.add(combo[r], tr.mul(lift, g[r]))
                survivors.append(combo)
        for g in gens:
            survivors.append([tr.mul(ring.xi, x) for x in g])
        gens = trunc_column_generators(tr, survivors)
    return {m - c: s for m, s in spaces.items()}


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
        moved = incl_matrix.apply([tr.cut(x) for x in g])
        divided = []
        for x in moved:
            if tr.val(x) < m:
                raise ArithmeticError("image not divisible by xi^m at this precision")
            divided.append(ring.residue(ring.xi_divide(tr.cut(x), m)))
        vecs.append(hq.coords(divided))
    return Subspace(kfield, hq.dim, vecs)
