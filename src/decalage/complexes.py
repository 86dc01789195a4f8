"""Bounded cochain complexes of finite free modules and the chain maps between them.

A FreeComplex stores ranks and differentials on a window [lo, hi]; matrices
act on column vectors, so d(i) has shape rank(i+1) x rank(i).  Cohomology is
returned as an FGModule (free rank plus invariant-factor chain), read by
``cohomology_module`` off the Smith forms of the two differentials, and every
degree also exposes a presentation: a basis of the cocycle submodule together
with the relation matrix, which is what induced maps, snake maps and image
filtrations are computed through.

A subcomplex (a stage, a truncation, a Hodge part) is its inclusion chain
map, built by ``subcomplex`` from a basis per degree; a map into it is
factored through that inclusion by ``factor_through``.  A quotient complex (a
graded piece, a mod-xi subquotient) is the injective chain map whose cokernel
it is: the target carries the generators and the differentials, the degree-i
map the relations.
"""

from __future__ import annotations

from .kmatrix import kernel, solve_field
from .rings import BaseRing
from .rmatrix import Matrix, ShapeMismatch, substitute


class DifferentialSquareNonzero(ValueError):
    def __init__(self, degree):
        self.degree = degree
        super().__init__(f"d(i+1) @ d(i) != 0 at degree {degree}")


# ---------------------------------------------------------------------------
# finitely generated module invariants


class FGModule:
    """Isomorphism invariants of a f.g. module over R: free rank + invariant factors."""

    __slots__ = ("ring", "free_rank", "factors")

    def __init__(self, ring: BaseRing, free_rank: int, factors=()):
        self.ring = ring
        self.free_rank = free_rank
        self.factors = tuple(factors)
        for f in self.factors:
            if ring.is_unit(f) or ring.is_zero(f):
                raise ValueError("invariant factors must be nonzero non-units")

    @classmethod
    def from_snf(cls, ring, gens: int, res) -> "FGModule":
        """Invariants of coker(rels: R^c -> R^gens), given res = snf(rels)."""
        factors = [f for f in res.factors if not ring.is_unit(f)]
        return cls(ring, gens - res.rank, factors)

    @classmethod
    def of_k_dimension(cls, ring, d: int) -> "FGModule":
        """The FGModule of a d-dimensional k = R/(xi) vector space over R."""
        _, xin = ring.unit_normalize(ring.xi)
        return cls(ring, 0, (xin,) * d)

    def __eq__(self, other):
        return (
            isinstance(other, FGModule)
            and (other.ring is self.ring or other.ring == self.ring)
            and other.free_rank == self.free_rank
            and other.factors == self.factors
        )

    def __hash__(self):
        return hash((self.free_rank, self.factors))

    def is_zero(self) -> bool:
        return self.free_rank == 0 and not self.factors

    @property
    def xi_torsion_free(self) -> bool:
        R = self.ring
        return all(R.xi_valuation(f) == 0 for f in self.factors)

    def mod_xi_torsion(self) -> "FGModule":
        """Invariants of M / M[xi].

        The xi-torsion of R/(f) is killed by one power of xi, so each factor
        with positive valuation loses exactly one xi.
        """
        R = self.ring
        out = []
        for f in self.factors:
            if R.xi_valuation(f) > 0:
                f = R.xi_divide(f, 1)
            _, f = R.unit_normalize(f)
            if not R.is_unit(f):
                out.append(f)
        return FGModule(R, self.free_rank, out)

    def k_dimension(self):
        """dim over k when the module is a k-vector space, else None."""
        R = self.ring
        if self.free_rank:
            return None
        _, xin = R.unit_normalize(R.xi)
        if any(f != xin for f in self.factors):
            return None
        return len(self.factors)

    def describe(self) -> dict:
        return {
            "free_rank": self.free_rank,
            "factors": [self.ring.format(f) for f in self.factors],
        }

    def __repr__(self):
        if self.is_zero():
            return "<FG 0>"
        parts = []
        if self.free_rank:
            parts.append(f"R^{self.free_rank}")
        parts.extend(f"R/({self.ring.format(f)})" for f in self.factors)
        return "<FG " + " + ".join(parts) + ">"


# ---------------------------------------------------------------------------
# free complexes


class FreeComplex:
    __slots__ = ("ring", "lo", "hi", "_ranks", "_diffs", "twist", "_hash", "_zeros")

    def __init__(self, ring, lo: int, ranks, diffs, twist: int = 0):
        ranks = tuple(ranks)
        diffs = tuple(diffs)
        if not ranks:
            ranks = (0,)
        if len(diffs) != len(ranks) - 1:
            raise ShapeMismatch("need exactly one differential per adjacent pair")
        self.ring = ring
        self.lo = lo
        self.hi = lo + len(ranks) - 1
        self._ranks = ranks
        self._diffs = diffs
        self.twist = twist
        self._hash = None
        self._zeros = {}
        for i, d in enumerate(diffs):
            if (d.rows, d.cols) != (ranks[i + 1], ranks[i]):
                raise ShapeMismatch(
                    f"d({lo + i}) must be {ranks[i + 1]}x{ranks[i]}, got {d.rows}x{d.cols}"
                )
            if d.ring != ring:
                raise ShapeMismatch("differential over the wrong ring")

    @classmethod
    def zero(cls, ring, lo=0, hi=0, twist=0):
        n = hi - lo + 1
        diffs = [Matrix.zeros(ring, 0, 0) for _ in range(n - 1)]
        return cls(ring, lo, [0] * n, diffs, twist)

    @classmethod
    def single(cls, ring, degree, rank, twist=0):
        return cls(ring, degree, [rank], [], twist)

    def rank(self, i: int) -> int:
        if self.lo <= i <= self.hi:
            return self._ranks[i - self.lo]
        return 0

    def d(self, i: int) -> Matrix:
        if self.lo <= i < self.hi:
            return self._diffs[i - self.lo]
        zero = self._zeros.get(i)
        if zero is None:
            # one zero map per degree outside the window, so memo keys hash it once
            zero = self._zeros[i] = Matrix.zeros(self.ring, self.rank(i + 1), self.rank(i))
        return zero

    def degrees(self):
        return range(self.lo, self.hi + 1)

    def ranks(self):
        return self._ranks

    def total_rank(self) -> int:
        return sum(self._ranks)

    def validate(self) -> None:
        for i in self.degrees():
            if i + 2 > self.hi:
                continue
            if not (self.d(i + 1) @ self.d(i)).is_zero():
                raise DifferentialSquareNonzero(i)

    def reduce_mod_xi(self) -> "FreeComplex":
        k = self.ring.residue_field()
        return FreeComplex(
            k, self.lo, self._ranks, [d.residue() for d in self._diffs], self.twist
        )

    def __eq__(self, other):
        return (
            isinstance(other, FreeComplex)
            and (other.ring is self.ring or other.ring == self.ring)
            and other.lo == self.lo
            and other._ranks == self._ranks
            and other._diffs == self._diffs
            and other.twist == self.twist
        )

    def __hash__(self):
        # complexes are immutable, and the context memos key builds by them
        if self._hash is None:
            self._hash = hash((self.ring, self.lo, self._ranks, self._diffs, self.twist))
        return self._hash

    def __repr__(self):
        return f"<complex deg [{self.lo},{self.hi}] ranks {list(self._ranks)}>"


class ChainMap:
    """Matrices f(i): source^i -> target^i, zero where none is given; unchecked until ``validate``."""

    __slots__ = ("source", "target", "_maps")

    def __init__(self, source, target, maps: dict):
        self.source = source
        self.target = target
        self._maps = dict(maps)

    @classmethod
    def identity(cls, K) -> "ChainMap":
        return cls(K, K, {i: Matrix.identity(K.ring, K.rank(i)) for i in K.degrees()})

    @classmethod
    def zero(cls, source, target) -> "ChainMap":
        return cls(source, target, {})

    def map(self, i: int) -> Matrix:
        f = self._maps.get(i)
        if f is None:
            # kept, so each missing degree has one zero map
            f = self._maps[i] = Matrix.zeros(self.source.ring, self.target.rank(i),
                                             self.source.rank(i))
        return f

    def validate(self) -> None:
        """ShapeMismatch unless each f(i) is target.rank(i) x source.rank(i) and f commutes with d."""
        for i, f in self._maps.items():
            shape = (self.target.rank(i), self.source.rank(i))
            if (f.rows, f.cols) != shape:
                raise ShapeMismatch(f"f({i}) must be {shape[0]}x{shape[1]}, got {f.rows}x{f.cols}")
        lo = min(self.source.lo, self.target.lo)
        hi = max(self.source.hi, self.target.hi)
        for i in range(lo, hi):
            lhs = self.target.d(i) @ self.map(i)
            rhs = self.map(i + 1) @ self.source.d(i)
            if lhs != rhs:
                raise ShapeMismatch(f"chain map does not commute at degree {i}")

    def after(self, other: "ChainMap") -> "ChainMap":
        """self ∘ other (other feeds into self); zero outside other's source's window."""
        if other.target is not self.source and other.target != self.source:
            raise ShapeMismatch("composition mismatch")
        maps = {i: self.map(i) @ other.map(i) for i in other.source.degrees()}
        return ChainMap(other.source, self.target, maps)


def solve(A: Matrix, B: Matrix):
    """X with A @ X = B, or None when no exact solution exists.

    Over a field, ``kmatrix.solve_field``.  Over R every A solved against is
    a stage basis or an inclusion of stages, nonsingular and lower-triangular,
    and X is ``rmatrix.substitute``'s, which refuses any other A.
    """
    return solve_field(A, B) if A.ring.is_field else substitute(A, B)


def factor_through(f: ChainMap, incl: ChainMap, first: ChainMap | None = None) -> ChainMap:
    """f's source -> incl's source: ``f`` factored through the inclusion ``incl``.

    Both map into one complex; one ``solve`` per degree of f's source,
    outside which f is zero.  With ``first``, the map factored is f ∘ first,
    from first's source, taken degreewise without building the composite.
    Raises ArithmeticError when the image does not lie in incl's.
    """
    source = f.source if first is None else first.source
    maps = {}
    for i in source.degrees():
        image = f.map(i) if first is None else f.map(i) @ first.map(i)
        sol = solve(incl.map(i), image)
        if sol is None:
            raise ArithmeticError(f"images are not nested at degree {i}")
        maps[i] = sol
    return ChainMap(source, incl.source, maps)


def subcomplex(K: FreeComplex, bases: dict) -> ChainMap:
    """The subcomplex of K spanned by ``bases``, as its inclusion into K.

    ``bases`` maps each degree of a run lo..hi to a full-column-rank basis in
    K^i; d is restricted by one ``solve`` per degree.  A subcomplex equal
    to K is K itself, so the memos keyed by it hit by identity.  Raises
    ArithmeticError when d leaves the span.
    """
    lo, hi = min(bases), max(bases)
    diffs = []
    for i in range(lo, hi):
        inner = solve(bases[i + 1], K.d(i) @ bases[i])
        if inner is None:
            raise ArithmeticError(f"d leaves the subcomplex at degree {i}")
        diffs.append(inner)
    S = FreeComplex(K.ring, lo, [bases[i].cols for i in range(lo, hi + 1)], diffs, K.twist)
    return ChainMap(K if S == K else S, K, bases)


# ---------------------------------------------------------------------------
# cohomology through presentations


class CohomologyPresentation:
    """H^i presented as coker(relations) on a basis of cocycle generators.

    ``gens_basis`` columns form an R-basis of the submodule
    N = { x : d(x) lies in the relation span one degree up } of the ambient
    generator module.  ``snf`` is the Smith form of the relations, the
    boundaries and ambient relations in those coordinates: it gives the
    module invariants and coordinates on the free quotient (all torsion
    killed, which loses nothing for xi-torsion-free groups, since primes away
    from xi act as units in the lattice story).  ``basis_snf`` is the Smith
    form of the kernel's top block, whose image is ``gens_basis`` and whose
    ``image_coords`` are coordinates; None when that block is the identity.
    """

    __slots__ = ("gens_basis", "basis_snf", "snf", "module")

    def __init__(self, gens_basis, basis_snf, relations_snf):
        self.gens_basis = gens_basis
        self.basis_snf = basis_snf
        self.snf = relations_snf
        self.module = FGModule.from_snf(gens_basis.ring, gens_basis.cols, relations_snf)

    def coords(self, M: Matrix) -> Matrix:
        """Presentation coordinates of columns of M (each must lie in N)."""
        if self.basis_snf is None:
            return M
        sol = self.basis_snf.image_coords(M)
        if sol is None:
            raise ValueError("column is not a cocycle for this presentation")
        return sol

    def free_coords(self, M: Matrix) -> Matrix:
        """Coordinates of cocycle columns of M on the free quotient, free rank x cols."""
        moved = self.snf.u @ self.coords(M)
        return moved.submatrix(self.snf.rank, moved.rows, 0, moved.cols)

    def basis_cocycles(self) -> Matrix:
        """Cocycle representatives of the basis of the free quotient."""
        uinv = self.snf.uinv
        return self.gens_basis @ uinv.take_columns(range(self.snf.rank, uinv.cols))


def _presentation(ctx, rels_i, rels_next, d_i, d_prev) -> CohomologyPresentation:
    """The cocycle basis { x : d_i x in span(rels_next) }, the image of ker [d_i | rels_next].

    The kernel is a view of the context's Smith form of [d_i | rels_next].
    The basis is the image of the kernel's top block, and the coordinates of
    the relations are read off the one Smith form of that block; a top block
    that is the identity is its own image, and takes none.
    """
    ker = ctx.factor(d_i.hstack(rels_next)).kernel()
    top = ker.submatrix(0, d_i.cols, 0, ker.cols)
    if top.is_identity():
        return CohomologyPresentation(top, None, ctx.factor(d_prev.hstack(rels_i)))
    top_snf = ctx.factor(top)
    coords = top_snf.image_coords(d_prev.hstack(rels_i))
    if coords is None:
        raise ShapeMismatch("boundaries do not lie in the cocycle submodule")
    return CohomologyPresentation(top_snf.image(), top_snf, ctx.factor(coords))


def cohomology_module(ctx, K: FreeComplex, i: int) -> FGModule:
    """The invariants of H^i(K) for a free complex K, from the context's Smith forms.

    ker d(i) is a direct summand of K^i, so H^i has the torsion of
    coker d(i-1), its non-unit invariant factors, and free rank
    rank K^i - rank d(i) - rank d(i-1).  No presentation is built.
    """
    return FGModule.from_snf(K.ring, K.rank(i) - ctx.factor(K.d(i)).rank,
                             ctx.factor(K.d(i - 1)))


def cohomology_presentation(ctx, K, i: int) -> CohomologyPresentation:
    """H^i(K), with every matrix factored by the context ``ctx``.

    K is a free complex, or an injective chain map whose cokernel is the
    quotient complex to present: generators and d from its target, relations
    from its degree-i and degree-(i+1) maps.  The presentation depends on
    those four matrices alone, so ``ctx`` builds it once per their content.
    """
    if isinstance(K, ChainMap):
        T = K.target
        inputs = (K.map(i), K.map(i + 1), T.d(i), T.d(i - 1))
    else:
        empty_i = Matrix.zeros(K.ring, K.rank(i), 0)
        empty_next = Matrix.zeros(K.ring, K.rank(i + 1), 0)
        inputs = (empty_i, empty_next, K.d(i), K.d(i - 1))
    return ctx.once(("presented",) + inputs, _presentation, ctx, *inputs)


# ---------------------------------------------------------------------------
# truncations


def truncate_leq(K: FreeComplex, m: int) -> ChainMap:
    """Canonical truncation [... -> K^{m-1} -> Z^m -> 0] of K over k, as its inclusion into K.

    Truncations are only taken of K/xi, so Z^m is ``kmatrix.kernel`` of d(m).
    """
    if m >= K.hi:
        return ChainMap.identity(K)
    if m < K.lo:
        return ChainMap.zero(FreeComplex.zero(K.ring, K.lo, K.hi, K.twist), K)
    bases = {i: Matrix.identity(K.ring, K.rank(i)) for i in range(K.lo, m)}
    bases[m] = kernel(K.d(m)).matrix().transpose()
    return subcomplex(K, bases)


def hodge_filtration(K: FreeComplex, m: int) -> ChainMap:
    """Brutal truncation: K^i for i >= m, zero below, as its inclusion into K."""
    if m <= K.lo:
        return ChainMap.identity(K)
    if m > K.hi:
        return ChainMap.zero(FreeComplex.zero(K.ring, K.lo, K.hi, K.twist), K)
    return subcomplex(K, {i: Matrix.identity(K.ring, K.rank(i)) for i in range(m, K.hi + 1)})
