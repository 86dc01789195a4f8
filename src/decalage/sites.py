"""Finite poset sites, sheaf complexes, and derived global sections.

A sheaf complex assigns a termwise-free complex to every element and a
restriction chain map to every comparable pair, covariantly (K(x) -> K(y)
for x <= y).  Global sections are computed as the total complex of the
ordered-chain cochain complex: degree-n cochains take one value per strictly
increasing chain x_0 < ... < x_n, living in the stalk at the top element,
with the alternating-face differential (restriction on the last face) and
the internal differential signed by (-1)^n.

With this variance convention H^0 is the inverse limit over the poset, and
for a sheaf concentrated in one internal degree the answer is the simplicial
cohomology of the order complex with the corresponding coefficients; the
4-element pseudo-circle (two minimal, two maximal elements) realizes a
circle and pins the convention in the tests.
"""

from __future__ import annotations

from .complexes import ChainMap, FreeComplex, truncate_leq, hodge_filtration
from .kmatrix import solve_field
from .rmatrix import Matrix, solve_exact
from .bockstein import ComplexContext, Memo, bockstein_complex


class InvalidSheaf(ValueError):
    def __init__(self, message, witness=None):
        self.witness = witness
        super().__init__(message)


class PosetSite:
    """A finite poset; relations are closed reflexively and transitively."""

    __slots__ = ("elements", "_leq", "_chains")

    def __init__(self, elements, relations):
        elems = tuple(sorted(dict.fromkeys(str(e) for e in elements)))
        rel = {(str(a), str(b)) for a, b in relations}
        for a, b in rel:
            if a not in elems or b not in elems:
                raise ValueError(f"relation uses unknown element: {(a, b)}")
        leq = {(e, e) for e in elems} | rel
        changed = True
        while changed:
            changed = False
            for a, b in list(leq):
                for c, d in list(leq):
                    if b == c and (a, d) not in leq:
                        leq.add((a, d))
                        changed = True
        for a, b in leq:
            if a != b and (b, a) in leq:
                raise ValueError(f"not antisymmetric: {a} <= {b} <= {a}")
        self.elements = elems
        self._leq = frozenset(leq)
        self._chains = None

    def leq(self, a, b) -> bool:
        return (a, b) in self._leq

    def strict_pairs(self):
        return sorted((a, b) for a, b in self._leq if a != b)

    def chains(self):
        """All strictly increasing chains, grouped by length, sorted."""
        if self._chains is None:
            out = []
            singles = [(e,) for e in self.elements]
            level = singles
            while level:
                out.append(sorted(level))
                nxt = []
                for c in level:
                    top = c[-1]
                    for e in self.elements:
                        if e != top and self.leq(top, e):
                            nxt.append(c + (e,))
                level = nxt
            self._chains = out
        return self._chains

    def height(self, x) -> int:
        best = 0
        for chain_level in self.chains():
            for c in chain_level:
                if c[-1] == x:
                    best = max(best, len(c) - 1)
        return best

    def __len__(self):
        return len(self.elements)

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
    """Stalkwise free sheaf of complexes on a finite poset site."""

    __slots__ = ("site", "ring", "stalks", "restrictions")

    def __init__(self, site: PosetSite, stalks: dict, restrictions: dict):
        self.site = site
        self.stalks = {str(k): v for k, v in stalks.items()}
        self.restrictions = {(str(a), str(b)): f for (a, b), f in restrictions.items()}
        rings = {K.ring for K in self.stalks.values()}
        if len(rings) != 1:
            raise InvalidSheaf("stalks over mixed rings")
        self.ring = next(iter(rings))
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
        for a in self.site.elements:
            for b in self.site.elements:
                if a == b or not self.site.leq(a, b):
                    continue
                for c in self.site.elements:
                    if b == c or not self.site.leq(b, c):
                        continue
                    left = self.res(b, c).after(self.res(a, b))
                    right = self.res(a, c)
                    for i in range(self.lo(), self.hi() + 1):
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
        self.maps = {str(k): v for k, v in maps.items()}

    def map(self, x) -> ChainMap:
        return self.maps[x]

    def validate(self) -> None:
        for x in self.source.site.elements:
            self.maps[x].validate()
        for a, b in self.source.site.strict_pairs():
            lo = min(self.source.stalk(a).lo, self.target.stalk(a).lo)
            hi = max(self.source.stalk(a).hi, self.target.stalk(a).hi)
            left = self.target.res(a, b).after(self.maps[a])
            right = self.maps[b].after(self.source.res(a, b))
            for i in range(lo, hi + 1):
                if left.map(i) != right.map(i):
                    raise InvalidSheaf(f"sheaf map not natural on {a}<={b} at degree {i}")


# ---------------------------------------------------------------------------
# derived global sections


class SectionsIndex:
    """Block layout of the global sections complex.

    blocks[N] is an ordered list of (chain, internal_degree, offset, size);
    the order (chain length, then chain, then the stalk basis) is what makes
    every construction on top of global sections reproducible.
    """

    __slots__ = ("sheaf", "lo", "hi", "blocks")

    def __init__(self, sheaf: SheafComplex):
        self.sheaf = sheaf
        chains = sheaf.site.chains()
        lo, hi = sheaf.lo(), sheaf.hi()
        self.lo = lo
        self.hi = hi + len(chains) - 1
        self.blocks = {}
        for N in range(self.lo, self.hi + 1):
            blocks = []
            offset = 0
            for n, level in enumerate(chains):
                i = N - n
                if i < lo or i > hi:
                    continue
                for c in level:
                    size = sheaf.stalk(c[-1]).rank(i)
                    if size:
                        blocks.append((c, i, offset, size))
                        offset += size
            self.blocks[N] = blocks

    def rank(self, N: int) -> int:
        blocks = self.blocks.get(N, [])
        return sum(b[3] for b in blocks)

    def locate(self, N: int):
        return {(c, i): (off, size) for c, i, off, size in self.blocks.get(N, [])}


def global_sections_complex(F: SheafComplex, index: SectionsIndex | None = None):
    """Total complex of the ordered-chain cochain complex of F.

    Returns (complex, index); for a one-point site the complex is the stalk
    itself (same ranks and differentials).
    """
    F.validate()
    idx = index or SectionsIndex(F)
    ring = F.ring
    ranks = [idx.rank(N) for N in range(idx.lo, idx.hi + 1)]
    diffs = []
    for N in range(idx.lo, idx.hi):
        src = idx.blocks.get(N, [])
        tgt_loc = idx.locate(N + 1)
        rows, cols = idx.rank(N + 1), idx.rank(N)
        data = [[ring.zero()] * cols for _ in range(rows)]

        def add_block(roff, coff, mat, sign):
            for a in range(mat.rows):
                for b in range(mat.cols):
                    v = mat.entry(a, b)
                    if sign < 0:
                        v = ring.neg(v)
                    data[roff + a][coff + b] = ring.add(data[roff + a][coff + b], v)

        for c, i, coff, size in src:
            n = len(c) - 1
            stalk_top = F.stalk(c[-1])
            # internal differential with sign (-1)^n
            tgt = tgt_loc.get((c, i + 1))
            if tgt is not None:
                add_block(tgt[0], coff, stalk_top.d(i), 1 if n % 2 == 0 else -1)
            # combinatorial faces: this chain is a face of longer chains
            for e in F.site.elements:
                top = c[-1]
                # insert e strictly inside or at the end: chains c' with dropping
                # position j recovering c
                # j < n'+1 cases: c' = c with e inserted, top unchanged
                for j in range(n + 1):
                    prev_ok = j == 0 or F.site.leq(c[j - 1], e)
                    next_ok = F.site.leq(e, c[j]) and e != c[j]
                    if j > 0 and e == c[j - 1]:
                        next_ok = False
                    if prev_ok and next_ok and (j == 0 or e != c[j - 1]):
                        cprime = c[:j] + (e,) + c[j:]
                        tgt = tgt_loc.get((cprime, i))
                        if tgt is not None:
                            ident = Matrix.identity(ring, size)
                            add_block(tgt[0], coff, ident, 1 if j % 2 == 0 else -1)
                # j = n'+1: e appended on top, restriction applied
                if e != top and F.site.leq(top, e):
                    cprime = c + (e,)
                    tgt = tgt_loc.get((cprime, i))
                    if tgt is not None:
                        rmat = F.res(top, e).map(i)
                        add_block(tgt[0], coff, rmat, 1 if (n + 1) % 2 == 0 else -1)
        diffs.append(Matrix(ring, data, cols=cols))
    total = FreeComplex(ring, idx.lo, ranks, diffs)
    total.validate()
    return total, idx


def global_sections_map(phi: SheafMap, src_idx: SectionsIndex, tgt_idx: SectionsIndex,
                        src_total: FreeComplex, tgt_total: FreeComplex) -> ChainMap:
    """RGamma of a sheaf map, blockwise on matching chains."""
    ring = phi.target.ring
    maps = {}
    for N in range(min(src_idx.lo, tgt_idx.lo), max(src_idx.hi, tgt_idx.hi) + 1):
        rows, cols = tgt_idx.rank(N), src_idx.rank(N)
        data = [[ring.zero()] * cols for _ in range(rows)]
        tgt_loc = tgt_idx.locate(N)
        for c, i, coff, size in src_idx.blocks.get(N, []):
            tgt = tgt_loc.get((c, i))
            if tgt is None:
                continue
            block = phi.map(c[-1]).map(i)
            for a in range(block.rows):
                for b in range(block.cols):
                    data[tgt[0] + a][coff + b] = block.entry(a, b)
        maps[N] = Matrix(ring, data, cols=cols)
    return ChainMap(src_total, tgt_total, maps)


# ---------------------------------------------------------------------------
# objectwise operations


def sheaf_eta_m(ctx: "InstanceContext", m: int):
    """Objectwise decalage stage with induced restrictions and inclusion into F."""
    F = ctx.F
    embs = {x: ctx.stalks[x].stage(m) for x in F.site.elements}
    stalks = {x: embs[x].complex for x in F.site.elements}
    restrictions = {}
    for a, b in F.site.strict_pairs():
        maps = {}
        for i in range(F.lo(), F.hi() + 1):
            moved = F.res(a, b).map(i) @ embs[a].basis(i)
            sol = solve_exact(embs[b].basis(i), moved)
            if sol is None:
                raise InvalidSheaf(f"restriction {a}<={b} does not preserve the stage", (a, b))
            maps[i] = sol
        restrictions[(a, b)] = ChainMap(stalks[a], stalks[b], maps)
    sub = SheafComplex(F.site, stalks, restrictions)
    incl = SheafMap(sub, F, {x: embs[x].iota for x in F.site.elements})
    return sub, incl, embs


def stage_reduction_map(ctx: "InstanceContext", m: int) -> ChainMap:
    """Sections of stage m mod xi -> sections of F/xi.

    Stage m maps by dividing its embedding by xi^m and reducing.
    """
    F = ctx.F
    sub, _, embs = ctx.stage(m)
    subbar, Fbar = sheaf_reduce(sub), ctx.reduced()
    maps = {
        x: ChainMap(subbar.stalk(x), Fbar.stalk(x),
                    {j: embs[x].reduction_map(j)
                     for j in range(F.stalk(x).lo, F.stalk(x).hi + 1)})
        for x in F.site.elements
    }
    sub_total, sub_idx = global_sections_complex(subbar)
    bar_total, bar_idx = ctx.reduced_sections()
    return global_sections_map(SheafMap(subbar, Fbar, maps), sub_idx, bar_idx,
                               sub_total, bar_total)


def sheaf_reduce(F: SheafComplex) -> SheafComplex:
    """Objectwise reduction mod xi."""
    stalks = {x: F.stalk(x).reduce_mod_xi() for x in F.site.elements}
    restrictions = {}
    for a, b in F.site.strict_pairs():
        maps = {i: F.res(a, b).map(i).residue()
                for i in range(F.lo(), F.hi() + 1)}
        restrictions[(a, b)] = ChainMap(stalks[a], stalks[b], maps)
    return SheafComplex(F.site, stalks, restrictions)


def sheaf_truncate_leq(F: SheafComplex, m: int):
    """Objectwise canonical truncation, with its inclusion sheaf map.

    F is a sheaf over the residue field (F/xi on every caller's path).
    """
    parts = {x: truncate_leq(F.stalk(x), m) for x in F.site.elements}
    stalks = {x: parts[x][0] for x in F.site.elements}
    restrictions = {}
    for a, b in F.site.strict_pairs():
        maps = {}
        for i in range(F.lo(), F.hi() + 1):
            moved = F.res(a, b).map(i) @ parts[a][1].map(i)
            sol = solve_field(parts[b][1].map(i), moved)
            if sol is None:
                raise InvalidSheaf(f"restriction {a}<={b} does not preserve the truncation", (a, b))
            maps[i] = sol
        restrictions[(a, b)] = ChainMap(stalks[a], stalks[b], maps)
    sub = SheafComplex(F.site, stalks, restrictions)
    incl = SheafMap(sub, F, {x: parts[x][1] for x in F.site.elements})
    return sub, incl


def sheaf_hodge(F: SheafComplex, m: int):
    """Objectwise brutal truncation at m, with its inclusion sheaf map."""
    parts = {x: hodge_filtration(F.stalk(x), m) for x in F.site.elements}
    stalks = {x: parts[x][0] for x in F.site.elements}
    restrictions = {}
    for a, b in F.site.strict_pairs():
        maps = {i: F.res(a, b).map(i)
                for i in range(max(m, F.lo()), F.hi() + 1)}
        restrictions[(a, b)] = ChainMap(stalks[a], stalks[b], maps)
    sub = SheafComplex(F.site, stalks, restrictions)
    incl = SheafMap(sub, F, {x: parts[x][1] for x in F.site.elements})
    return sub, incl


def sheaf_bockstein(F: SheafComplex):
    """Objectwise Bockstein complex with induced restrictions, over k."""
    bcs = {x: bockstein_complex(F.stalk(x)) for x in F.site.elements}
    stalks = {x: bcs[x].as_complex() for x in F.site.elements}
    kfield = next(iter(stalks.values())).ring
    restrictions = {}
    for a, b in F.site.strict_pairs():
        maps = {}
        for i in range(F.lo(), F.hi() + 1):
            qa = bcs[a].quotients.get(i)
            qb = bcs[b].quotients.get(i)
            if qa is None or qb is None:
                maps[i] = Matrix.zeros(kfield, bcs[b].dim(i), bcs[a].dim(i))
                continue
            resbar = F.res(a, b).map(i).residue()
            maps[i] = qb.coords_matrix(resbar @ qa.rep_matrix())
        restrictions[(a, b)] = ChainMap(stalks[a], stalks[b], maps)
    return SheafComplex(F.site, stalks, restrictions), bcs


def bockstein_term_sheaf(ctx: "InstanceContext", q: int, place_at: int = 0):
    """The degree-q term of the objectwise Bockstein complex as a one-degree sheaf.

    Placing it at internal degree ``place_at`` realizes the shift by -q when
    place_at = q.
    """
    F = ctx.F
    omega, _ = ctx.bockstein()
    stalks = {}
    for x in F.site.elements:
        dim = omega.stalk(x).rank(q)
        stalks[x] = FreeComplex.single(omega.ring, place_at, dim, twist=q)
    restrictions = {}
    for a, b in F.site.strict_pairs():
        maps = {place_at: omega.res(a, b).map(q)}
        restrictions[(a, b)] = ChainMap(stalks[a], stalks[b], maps)
    return SheafComplex(F.site, stalks, restrictions)


# ---------------------------------------------------------------------------
# one instance's shared objects, built once per call


class InstanceContext(Memo):
    """The objects of one sheaf complex F that the theorem path shares.

    ``stalks[x]`` is the ComplexContext of the stalk at x.  Sections come as
    (complex, index) pairs; higher layers keep their own objects via ``once``.
    """

    def __init__(self, F: SheafComplex):
        super().__init__()
        self.F = F
        self.stalks = {x: ComplexContext(F.stalk(x)) for x in F.site.elements}

    def _sections_map(self, key, phi, src, tgt):
        (src_total, src_idx), (tgt_total, tgt_idx) = src, tgt
        return self.once(key, global_sections_map, phi, src_idx, tgt_idx, src_total, tgt_total)

    def sections(self):
        return self.once("sections", global_sections_complex, self.F)

    def reduced(self) -> SheafComplex:
        return self.once("reduced", sheaf_reduce, self.F)

    def reduced_sections(self):
        return self.once("reduced-sections", global_sections_complex, self.reduced())

    def stage(self, m: int):
        """(stage sheaf, its inclusion into F, stalk embeddings), as sheaf_eta_m."""
        return self.once(("stage", m), sheaf_eta_m, self, m)

    def stage_sections(self, m: int):
        return self.once(("stage-sections", m), global_sections_complex, self.stage(m)[0])

    def stage_map(self, m: int) -> ChainMap:
        """Sections of stage m -> sections of F."""
        return self._sections_map(("stage-map", m), self.stage(m)[1],
                                  self.stage_sections(m), self.sections())

    def stage_reduction(self, m: int) -> ChainMap:
        """Sections of stage m mod xi -> sections of F/xi, as stage_reduction_map."""
        return self.once(("stage-reduction", m), stage_reduction_map, self, m)

    def truncation(self, q: int):
        """tau_{<=q}(F/xi) with its inclusion."""
        return self.once(("truncation", q), sheaf_truncate_leq, self.reduced(), q)

    def truncation_sections(self, q: int):
        return self.once(("truncation-sections", q), global_sections_complex,
                         self.truncation(q)[0])

    def truncation_map(self, q: int) -> ChainMap:
        return self._sections_map(("truncation-map", q), self.truncation(q)[1],
                                  self.truncation_sections(q), self.reduced_sections())

    def bockstein(self):
        """(Bockstein sheaf, stalkwise Bockstein complexes), as sheaf_bockstein."""
        return self.once("bockstein", sheaf_bockstein, self.F)

    def term(self, q: int, place_at: int) -> SheafComplex:
        return self.once(("term", q, place_at), bockstein_term_sheaf, self, q, place_at)

    def term_sections(self, q: int, place_at: int):
        return self.once(("term-sections", q, place_at), global_sections_complex,
                         self.term(q, place_at))

    def hodge(self, p: int):
        """The degree >= p part of the Bockstein sheaf with its inclusion."""
        return self.once(("hodge", p), sheaf_hodge, self.bockstein()[0], p)

    def hodge_sections(self, p: int):
        return self.once(("hodge-sections", p), global_sections_complex, self.hodge(p)[0])
