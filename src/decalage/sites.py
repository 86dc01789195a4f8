"""Finite poset sites, sheaf complexes, and derived global sections.

A sheaf complex assigns a termwise-free complex to every element and a
restriction chain map to every comparable pair, covariantly (K(x) -> K(y)
for x <= y).  Global sections are computed as the total complex of the
ordered-chain cochain complex: degree-n cochains take one value per strictly
increasing chain x_0 < ... < x_n, living in the stalk at the top element.
The coboundary is assembled face by face on each target chain c: the
component from the face that drops c[j] has sign (-1)^j and is the identity,
except that dropping the top element applies the restriction from the new
top to c[-1].  The internal differential of the top stalk carries the sign
(-1)^n.

With this variance convention H^0 is the inverse limit over the poset, and
for a sheaf concentrated in one internal degree the answer is the simplicial
cohomology of the order complex with the corresponding coefficients; the
4-element pseudo-circle (two minimal, two maximal elements) realizes a
circle and pins the convention in the tests.
"""

from __future__ import annotations

from .complexes import ChainMap, FreeComplex, factor_through
from .rmatrix import Matrix
from .bockstein import Memo, k_induced_matrix


class InvalidSheaf(ValueError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class PosetSite:
    """A finite poset; relations are closed reflexively and transitively.

    The order is kept as up-sets (each element's strictly greater elements,
    sorted), closed once by Warshall's rule.  The sorted strict pairs are read
    from them once, and the chains, which global sections read, and the
    heights on first use.
    """

    __slots__ = ("elements", "_up", "_pairs", "_chains", "_heights")

    def __init__(self, elements, relations):
        elems = tuple(sorted(elements))
        if not elems or len(set(elems)) < len(elems):
            raise ValueError(f"a site needs at least one element, each listed once: {elems}")
        for x in elems:
            # a restriction key "a<=b" only splits back for names without "<="
            if "<=" in x:
                raise ValueError(f"element name {x!r} contains '<='")
        up = {x: set() for x in elems}
        for a, b in relations:
            if a not in up or b not in up:
                raise ValueError(f"relation uses unknown element: {(a, b)}")
            up[a].add(b)
        for k in elems:
            for x in elems:
                if k in up[x]:
                    up[x] |= up[k]
        self._up = {x: tuple(sorted(up[x] - {x})) for x in elems}
        self._pairs = tuple((a, b) for a in elems for b in self._up[a])
        for a, b in self._pairs:
            if a in up[b]:
                raise ValueError(f"not antisymmetric: {a} <= {b} <= {a}")
        self.elements = elems
        self._chains = None
        self._heights = None

    def strict_pairs(self):
        return self._pairs

    def chains(self):
        """All strictly increasing chains, grouped by length, sorted."""
        if self._chains is None:
            # extending sorted chains by sorted up-sets keeps each level sorted
            out = []
            level = [(e,) for e in self.elements]
            while level:
                out.append(level)
                level = [c + (e,) for c in level for e in self._up[c[-1]]]
            self._chains = out
        return self._chains

    def height(self, x) -> int:
        """The length of the longest chain ending at x; all heights come from one pass."""
        if self._heights is None:
            # levels run by length, so each element keeps the last level it tops
            self._heights = {c[-1]: n for n, level in enumerate(self.chains()) for c in level}
        return self._heights[x]

    def __len__(self):
        return len(self.elements)

    def __eq__(self, other):
        return (isinstance(other, PosetSite) and other.elements == self.elements
                and other._pairs == self._pairs)

    def __hash__(self):
        return hash((self.elements, self._pairs))

    def describe(self) -> dict:
        return {"elements": list(self.elements), "leq": [list(p) for p in self.strict_pairs()]}

    # -- builtins ----------------------------------------------------------

    @classmethod
    def point(cls) -> "PosetSite":
        return cls(["pt"], [])

    @classmethod
    def chain(cls, n: int) -> "PosetSite":
        elems = [f"c{i}" for i in range(n)]
        rel = [(elems[i], elems[i + 1]) for i in range(n - 1)]
        return cls(elems, rel)

    @classmethod
    def pseudo_circle(cls) -> "PosetSite":
        return cls(["a", "b", "c", "d"], [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")])

    @classmethod
    def sphere(cls) -> "PosetSite":
        """Six-element model of the 2-sphere (suspension of the pseudo-circle)."""
        rel = [("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"),
               ("c", "e"), ("c", "f"), ("d", "e"), ("d", "f")]
        return cls(["a", "b", "c", "d", "e", "f"], rel)

    @classmethod
    def builtin(cls, name: str) -> "PosetSite":
        table = {
            "point": cls.point,
            "pseudo-circle": cls.pseudo_circle,
            "chain3": lambda: cls.chain(3),
            "sphere": cls.sphere,
        }
        if name not in table:
            raise ValueError(f"unknown builtin poset: {name!r}")
        return table[name]()


class SheafComplex:
    """Stalkwise free sheaf of complexes on a finite poset site.

    Nothing mutates a sheaf after construction, so its content key is
    computed once, on first use.
    """

    __slots__ = ("site", "ring", "stalks", "restrictions", "_key")

    def __init__(self, site: PosetSite, stalks: dict, restrictions: dict):
        self.site = site
        self.stalks = dict(stalks)
        self.restrictions = dict(restrictions)
        rings = {K.ring for K in self.stalks.values()}
        if len(rings) != 1:
            raise InvalidSheaf("stalks over mixed rings")
        self.ring = next(iter(rings))
        self._key = None
        for e in site.elements:
            if e not in self.stalks:
                raise InvalidSheaf(f"missing stalk at {e}")
        for pair in site.strict_pairs():
            if pair not in self.restrictions:
                raise InvalidSheaf(f"missing restriction for {pair}")

    @classmethod
    def constant(cls, site: PosetSite, K: FreeComplex) -> "SheafComplex":
        stalks = {e: K for e in site.elements}
        res = {pair: ChainMap.identity(K) for pair in site.strict_pairs()}
        return cls(site, stalks, res)

    def _content(self):
        """(hash, content): the site, the stalks and the restriction matrices."""
        if self._key is None:
            # a restriction is zero outside the degrees of its source stalk
            maps = tuple(self.restrictions[(a, b)].map(i)
                         for a, b in self.site.strict_pairs() for i in self.stalks[a].degrees())
            content = (self.site, tuple(self.stalks[x] for x in self.site.elements), maps)
            self._key = (hash(content), content)
        return self._key

    def __eq__(self, other):
        return isinstance(other, SheafComplex) and other._content() == self._content()

    def __hash__(self):
        return self._content()[0]

    def stalk(self, x) -> FreeComplex:
        return self.stalks[x]

    def res(self, x, y) -> ChainMap:
        if x == y:
            return ChainMap.identity(self.stalk(x))
        return self.restrictions[(x, y)]

    def lo(self) -> int:
        return min(K.lo for K in self.stalks.values())

    def hi(self) -> int:
        return max(K.hi for K in self.stalks.values())

    def validate(self) -> None:
        """InvalidSheaf unless the stalks and restrictions are valid and compose, each
        3-chain a < b < c compared on the degrees of the stalk at a, where both sides live."""
        for e, K in sorted(self.stalks.items()):
            K.validate()
        for (a, b), f in sorted(self.restrictions.items()):
            if f.source is not self.stalk(a) and f.source != self.stalk(a):
                raise InvalidSheaf(f"restriction {a}<={b} has wrong source", (a, b))
            if f.target is not self.stalk(b) and f.target != self.stalk(b):
                raise InvalidSheaf(f"restriction {a}<={b} has wrong target", (a, b))
            try:
                f.validate()
            except Exception as exc:
                raise InvalidSheaf(f"restriction {a}<={b} is not a chain map: {exc}", (a, b))
        # the 3-chains a < b < c, in lexicographic order, without listing longer chains
        for a, b in self.site.strict_pairs():
            for c in self.site._up[b]:
                left = self.res(b, c).after(self.res(a, b))
                right = self.res(a, c)
                for i in self.stalk(a).degrees():
                    if left.map(i) != right.map(i):
                        raise InvalidSheaf(
                            f"functoriality fails on {a}<={b}<={c} at degree {i}",
                            (a, b, c),
                        )


class SheafMap:
    """Stalkwise chain map between sheaf complexes on the same site."""

    __slots__ = ("source", "target", "maps")

    def __init__(self, source: SheafComplex, target: SheafComplex, maps: dict):
        self.source = source
        self.target = target
        self.maps = dict(maps)

    def map(self, x) -> ChainMap:
        return self.maps[x]


# ---------------------------------------------------------------------------
# derived global sections


def _block_matrix(ring, rows: int, cols: int, blocks) -> Matrix:
    """A rows x cols matrix holding each (row offset, column offset, block).

    The blocks do not overlap; every other entry is zero.
    """
    data = [[ring.zero()] * cols for _ in range(rows)]
    for roff, coff, block in blocks:
        for a, row in enumerate(block.data):
            data[roff + a][coff:coff + block.cols] = row
    return Matrix(ring, data, cols=cols)


def global_sections_complex(F: SheafComplex):
    """Total complex of the ordered-chain cochain complex of F.

    Returns (complex, layout); layout[N] is (rank, blocks), where blocks maps
    (chain, internal_degree) to (offset, size), inserted in the order (chain
    length, then chain) that, with the stalk basis inside each block, makes
    every construction on top of global sections reproducible.  For a
    one-point site the complex is the stalk itself.  F must be valid (its
    caller checks), and then so is the total.
    """
    ring = F.ring
    chains = F.site.chains()
    lo, hi = F.lo(), F.hi()
    layout, ranks, diffs = {}, [], []
    for N in range(lo, hi + len(chains)):
        blocks = {}
        offset = 0
        for n, level in enumerate(chains):
            i = N - n
            if i < lo or i > hi:
                continue
            for c in level:
                size = F.stalk(c[-1]).rank(i)
                if size:
                    blocks[(c, i)] = (offset, size)
                    offset += size
        layout[N] = (offset, blocks)
        ranks.append(offset)
        if N == lo:
            continue
        cols, src_loc = layout[N - 1]
        parts = []
        for (c, i), (roff, size) in blocks.items():
            n = len(c) - 1
            # internal differential of the top stalk, with sign (-1)^n
            src = src_loc.get((c, i - 1))
            if src is not None:
                d = F.stalk(c[-1]).d(i - 1)
                parts.append((roff, src[0], d if n % 2 == 0 else -d))
            # the faces of c: dropping c[j] has sign (-1)^j, and dropping the
            # top element restricts from the new top
            for j in range(n + 1):
                face = c[:j] + c[j + 1:]
                src = src_loc.get((face, i))  # never the empty chain
                if src is None:
                    continue
                block = Matrix.identity(ring, size) if j < n else F.res(face[-1], c[-1]).map(i)
                parts.append((roff, src[0], block if j % 2 == 0 else -block))
        diffs.append(_block_matrix(ring, offset, cols, parts))
    return FreeComplex(ring, lo, ranks, diffs), layout


def global_sections_map(phi: SheafMap, src: tuple, tgt: tuple) -> ChainMap:
    """RGamma of a sheaf map, blockwise on matching chains.

    ``src`` and ``tgt`` are the sections of its source and target, as
    ``global_sections_complex`` returns them.  It is built on the source's
    degrees only, some of which the target may lack; ``ChainMap`` reads
    every other degree as the zero map.
    """
    (src_total, src_layout), (tgt_total, tgt_layout) = src, tgt
    maps = {}
    for N in src_total.degrees():
        cols, src_blocks = src_layout[N]
        rows, tgt_blocks = tgt_layout.get(N, (0, {}))
        blocks = [(tgt_blocks[(c, i)][0], coff, phi.map(c[-1]).map(i))
                  for (c, i), (coff, _) in src_blocks.items() if (c, i) in tgt_blocks]
        maps[N] = _block_matrix(phi.target.ring, rows, cols, blocks)
    return ChainMap(src_total, tgt_total, maps)


# ---------------------------------------------------------------------------
# objectwise operations


def _sheaf(F: SheafComplex, stalks: dict, restriction) -> SheafComplex:
    """The sheaf on F's site with these stalks.

    ``restriction(a, b, i)`` is the degree-i matrix of the restriction along
    a <= b, asked for in every degree of the stalk at a.
    """
    return SheafComplex(F.site, stalks, {
        (a, b): ChainMap(stalks[a], stalks[b],
                         {i: restriction(a, b, i) for i in stalks[a].degrees()})
        for a, b in F.site.strict_pairs()
    })


def _subsheaf(F: SheafComplex, piece, m: int) -> SheafMap:
    """The subsheaf of F with stalks ``piece(F(x), m).source``, as its inclusion into F.

    ``piece`` is the context's builder of a stalk piece as its inclusion
    (``ctx.stage``, ``ctx.truncation`` or ``ctx.hodge``).  Every inclusion
    is injective, so each restriction of F, after the inclusion at its
    source, factors uniquely through them, by ``factor_through``.
    """
    parts = {x: piece(F.stalk(x), m) for x in F.site.elements}
    restrictions = {}
    for a, b in F.site.strict_pairs():
        try:
            restrictions[(a, b)] = factor_through(F.res(a, b), parts[b], parts[a])
        except ArithmeticError:
            raise InvalidSheaf(f"restriction {a}<={b} does not preserve the subsheaf",
                               (a, b)) from None
    sub = SheafComplex(F.site, {x: parts[x].source for x in F.site.elements}, restrictions)
    return SheafMap(sub, F, parts)


def sheaf_reduce(ctx: Memo, F: SheafComplex) -> SheafComplex:
    """Objectwise reduction mod xi, each stalk's reduction from ``ctx``."""
    return _sheaf(F, {x: ctx.kbar(F.stalk(x)) for x in F.site.elements},
                  lambda a, b, i: F.res(a, b).map(i).residue())


def sheaf_stage(ctx: "InstanceContext", m: int) -> SheafMap:
    """The stage-m sheaf of F, with each stalk's stage from ``ctx``, as its inclusion into F.

    Stage 0 is ``_subsheaf`` of the stalks' stages.  Stage m > 0 is read off
    F and stage sheaf 0, with no ``factor_through``: below m each stalk's
    stage is xi^m times it, so a restriction is F's own, and from m on the
    stalks hold stage 0's bases, so it is stage sheaf 0's.
    """
    F = ctx.F
    if not m:
        return _subsheaf(F, ctx.stage, 0)
    plain = ctx.stage_sheaf(0).source
    parts = {x: ctx.stage(F.stalk(x), m) for x in F.site.elements}
    sub = _sheaf(F, {x: parts[x].source for x in F.site.elements},
                 lambda a, b, i: (F if i < m else plain).res(a, b).map(i))
    return SheafMap(sub, F, parts)


def sheaf_bockstein(ctx: "InstanceContext") -> SheafComplex:
    """Objectwise Bockstein complex with induced restrictions, over k."""
    F, Fbar = ctx.F, ctx.reduced()
    return _sheaf(F, {x: ctx.bockstein(F.stalk(x)) for x in F.site.elements},
                  lambda a, b, i: k_induced_matrix(ctx, Fbar.res(a, b), i))


def bockstein_term_sheaf(ctx: "InstanceContext", q: int):
    """The degree-q term of the objectwise Bockstein complex, as a sheaf in degree q.

    Its sections are those of the term in degree 0 shifted by q: H^{p+q} of
    them is H^p(S, degree-q term).
    """
    F = ctx.F
    omega = ctx.bockstein_sheaf()
    stalks = {x: FreeComplex.single(omega.ring, q, omega.stalk(x).rank(q), twist=q)
              for x in F.site.elements}
    return _sheaf(F, stalks, lambda a, b, i: omega.res(a, b).map(q))


# ---------------------------------------------------------------------------
# one instance's shared objects, built once per call


class InstanceContext(Memo):
    """The objects of one sheaf complex F that the theorem path shares.

    The complex-keyed builders of ``Memo`` give every stalk's pieces (its
    stages, reduction, truncations, Bockstein complex and Hodge parts), one
    per stalk content, so equal stalks share them.  This context adds the
    sheaf-keyed ones: the sheaves assembled from those pieces (a subsheaf as
    its inclusion sheaf map), and sections one per sheaf content, so equal
    sheaves built separately share them.  Higher layers keep their own
    objects via ``once``.
    """

    def __init__(self, F: SheafComplex):
        super().__init__()
        self.F = F

    def sections(self, G: SheafComplex) -> FreeComplex:
        """RGamma(G), the complex of ``global_sections_complex``."""
        return self.once(("sections", G), global_sections_complex, G)[0]

    def sections_map(self, phi: SheafMap) -> ChainMap:
        """RGamma(phi) between the sections of its source and target.

        Keyed by the map object, which the memo keeps alive.
        """
        return self.once(("sections-map", phi), lambda: global_sections_map(
            phi, *(self.once(("sections", G), global_sections_complex, G)
                   for G in (phi.source, phi.target))))

    def reduced(self) -> SheafComplex:
        """F/xi, as ``sheaf_reduce``."""
        return self.once("reduced", sheaf_reduce, self, self.F)

    def stage_sheaf(self, m: int) -> SheafMap:
        """The stage-m sheaf as its inclusion into F, as ``sheaf_stage``."""
        return self.once(("stage-sheaf", m), sheaf_stage, self, m)

    def truncation_sheaf(self, q: int) -> SheafMap:
        """tau_{<=q}(F/xi) as its inclusion, as ``_subsheaf`` of the truncations."""
        return self.once(("truncation-sheaf", q),
                         lambda: _subsheaf(self.reduced(), self.truncation, q))

    def bockstein_sheaf(self) -> SheafComplex:
        """The Bockstein sheaf, as ``sheaf_bockstein``."""
        return self.once("bockstein-sheaf", sheaf_bockstein, self)

    def term(self, q: int) -> SheafComplex:
        """The degree-q term of the Bockstein sheaf in degree q, as bockstein_term_sheaf."""
        return self.once(("term", q), bockstein_term_sheaf, self, q)

    def hodge_sheaf(self, p: int) -> SheafMap:
        """The degree >= p part of the Bockstein sheaf as its inclusion, as ``_subsheaf``."""
        return self.once(("hodge-sheaf", p),
                         lambda: _subsheaf(self.bockstein_sheaf(), self.hodge, p))
