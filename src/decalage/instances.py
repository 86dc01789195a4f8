"""Seeded instance generators for the lemma and theorem suites.

Complexes are built as direct sums of elementary pieces, two-term shells
[R -> R] and shifted free lines, conjugated by random unimodular base
changes in every degree; over a PID every bounded free complex decomposes
this way, so the family is fully general up to isomorphism.  Sheaves come
in two functorial families: conjugated-constant (one core complex, stalkwise
base change) and height-graded (a chain of complexes with chain maps pulled
back along the height function), both closed under the site's composition
law by construction.

Profiles: "free" places no constraint; "h1" retries until every H^i of the
global sections is xi-torsion-free (and keeps stalks torsion-free to start
from); "adversarial" hunts for instances whose truncation maps fail
injectivity.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .complexes import ChainMap, FreeComplex, direct_sum
from .rings import BaseRing, IntegerRing, PolynomialRing, PrimeField
from .rmatrix import Matrix, solve_exact
from .sites import InstanceContext, PosetSite, SheafComplex
from .theorem import hypothesis_h1
from .spectral import degeneration_check_HT


class GenerationBudgetExceeded(RuntimeError):
    def __init__(self, profile, budget):
        super().__init__(f"profile {profile!r} exhausted its budget of {budget}")


def _small_element(ring: BaseRing, rng: random.Random, allow_zero=True):
    if isinstance(ring, IntegerRing):
        v = rng.choice([-2, -1, -1, 0, 1, 1, 2] if allow_zero else [-2, -1, 1, 1, 2])
        return v
    if isinstance(ring, PolynomialRing):
        deg = rng.randint(0, 1)
        coeffs = []
        for _ in range(deg + 1):
            if isinstance(ring.base, PrimeField):
                coeffs.append(rng.randrange(ring.base.p))
            else:
                coeffs.append(Fraction(rng.randint(-2, 2)))
        poly = ring.from_coeffs(coeffs)
        if not allow_zero and ring.is_zero(poly):
            poly = ring.one()
        return poly
    raise ValueError(f"no generator for ring {ring!r}")


def _tiny_element(ring: BaseRing, rng: random.Random):
    """Coefficient for elementary row operations: keeps entries desk-scale."""
    if isinstance(ring, IntegerRing):
        return rng.choice([-1, -1, 1, 1, 2])
    if isinstance(ring.base, PrimeField):
        return ring.from_coeffs([rng.randrange(1, ring.base.p)])
    return ring.from_coeffs([Fraction(rng.choice([-1, 1, 2]))])


def _shell_element(ring: BaseRing, rng: random.Random, torsion_free: bool):
    """Differential entry for a two-term shell.

    With torsion_free=True the entry has xi-valuation zero (units and
    xi-coprime non-units both keep cohomology xi-torsion-free).
    """
    if torsion_free:
        e = _small_element(ring, rng, allow_zero=False)
        if ring.xi_valuation(e) > 0:
            e = ring.add(e, ring.one())
        return e
    e = rng.randint(0, 2)
    base = _small_element(ring, rng, allow_zero=False)
    return ring.mul(base, ring.xi_power(e))


def random_unimodular(ring: BaseRing, n: int, rng: random.Random, steps=None) -> Matrix:
    """Product of elementary row additions and swaps, so invertible over the ring."""
    if n == 0:
        return Matrix.identity(ring, 0)
    data = [list(r) for r in Matrix.identity(ring, n).data]
    for _ in range(steps if steps is not None else n + 1):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if op == 0:
            data[i], data[j] = data[j], data[i]
        else:
            c = _tiny_element(ring, rng)
            data[i] = [ring.add(data[i][t], ring.mul(c, data[j][t])) for t in range(n)]
    return Matrix(ring, data)


def conjugate_complex(K: FreeComplex, mats: dict) -> FreeComplex:
    """Base change in every degree: d -> P_{i+1} d P_i^{-1}."""
    inv = {i: solve_exact(mats[i], Matrix.identity(K.ring, K.rank(i)))
           for i in K.degrees()}
    diffs = [mats[i + 1] @ K.d(i) @ inv[i] for i in range(K.lo, K.hi)]
    return FreeComplex(K.ring, K.lo, [K.rank(i) for i in K.degrees()], diffs, K.twist)


class _Piece:
    """An elementary summand: a shell [R -c-> R] at (deg, deg+1) or a free line."""

    __slots__ = ("kind", "deg", "c")

    def __init__(self, kind, deg, c=None):
        self.kind = kind
        self.deg = deg
        self.c = c


def _pieces_complex(ring, pieces, hi) -> FreeComplex:
    K = FreeComplex.zero(ring, 0, hi)
    for p in pieces:
        if p.kind == "free":
            ranks = [0] * (hi + 1)
            ranks[p.deg] = 1
            diffs = [Matrix.zeros(ring, ranks[i + 1], ranks[i]) for i in range(hi)]
            K = direct_sum(K, FreeComplex(ring, 0, ranks, diffs))
        else:
            ranks = [0] * (hi + 1)
            ranks[p.deg] = 1
            ranks[p.deg + 1] = 1
            diffs = [Matrix.zeros(ring, ranks[i + 1], ranks[i]) for i in range(hi)]
            diffs[p.deg] = Matrix(ring, [[p.c]])
            K = direct_sum(K, FreeComplex(ring, 0, ranks, diffs))
    return K


def _random_pieces(ring, rng, hi, max_rank, torsion_free):
    pieces = []
    budget = rng.randint(1, max(1, max_rank))
    for _ in range(budget):
        deg = rng.randint(0, hi)
        if deg < hi and rng.random() < 0.7:
            pieces.append(_Piece("shell", deg, _shell_element(ring, rng, torsion_free)))
        else:
            pieces.append(_Piece("free", deg))
    return pieces


def random_complex(ring: BaseRing, rng: random.Random, max_degree=2, max_rank=3,
                   torsion_free=False) -> FreeComplex:
    """Random valid complex: conjugated sum of shells and free lines."""
    hi = rng.randint(1, max(1, max_degree))
    pieces = _random_pieces(ring, rng, hi, max_rank, torsion_free)
    K = _pieces_complex(ring, pieces, hi)
    mats = {i: random_unimodular(ring, K.rank(i), rng) for i in K.degrees()}
    return conjugate_complex(K, mats)


def _piece_hom(ring, rng, src: _Piece, tgt: _Piece):
    """A random chain map between two elementary pieces, as per-degree 1x1 data."""
    out = {}
    a = _small_element(ring, rng)
    if src.kind == "free" and tgt.kind == "free":
        if src.deg == tgt.deg:
            out[src.deg] = a
    elif src.kind == "free" and tgt.kind == "shell":
        if src.deg == tgt.deg + 1:
            out[src.deg] = a
    elif src.kind == "shell" and tgt.kind == "free":
        if src.deg == tgt.deg:
            out[src.deg] = a
    else:
        if src.deg == tgt.deg:
            # pair (a, b) with b * c_src = a * c_tgt
            cs, ct = src.c, tgt.c
            prod = ring.mul(a, ct)
            if ring.divides(cs, prod):
                out[src.deg] = a
                out[src.deg + 1] = ring.exact_div(prod, cs)
    return out


def random_chain_map(ring, rng, src_pieces, tgt_pieces, hi,
                     src: FreeComplex, tgt: FreeComplex) -> ChainMap:
    """Random chain map between two piece-built complexes (pre-conjugation)."""
    offs_src = _piece_offsets(src_pieces, hi)
    offs_tgt = _piece_offsets(tgt_pieces, hi)
    maps = {i: [[ring.zero()] * src.rank(i) for _ in range(tgt.rank(i))]
            for i in range(0, hi + 1)}
    for si, sp in enumerate(src_pieces):
        for ti, tp in enumerate(tgt_pieces):
            hom = _piece_hom(ring, rng, sp, tp)
            for deg, val in hom.items():
                r = offs_tgt[ti].get(deg)
                c = offs_src[si].get(deg)
                if r is not None and c is not None:
                    maps[deg][r][c] = ring.add(maps[deg][r][c], val)
    return ChainMap(src, tgt, {
        i: Matrix(ring, maps[i], cols=src.rank(i)) for i in range(0, hi + 1)
    })


def _piece_offsets(pieces, hi):
    """Per piece, the row index of its generator in each degree."""
    counters = {d: 0 for d in range(hi + 1)}
    out = []
    for p in pieces:
        mine = {}
        degs = [p.deg] if p.kind == "free" else [p.deg, p.deg + 1]
        for d in degs:
            mine[d] = counters[d]
            counters[d] += 1
        out.append(mine)
    return out


# ---------------------------------------------------------------------------
# sheaf families


def conjugated_constant_sheaf(site: PosetSite, K: FreeComplex,
                              rng: random.Random) -> SheafComplex:
    """Constant sheaf of K, twisted by a random base change at every element."""
    ring = K.ring
    mats = {x: {i: random_unimodular(ring, K.rank(i), rng) for i in K.degrees()}
            for x in site.elements}
    inv = {x: {i: solve_exact(mats[x][i], Matrix.identity(ring, K.rank(i)))
               for i in K.degrees()} for x in site.elements}
    stalks = {x: conjugate_complex(K, mats[x]) for x in site.elements}
    restrictions = {}
    for a, b in site.strict_pairs():
        maps = {i: mats[b][i] @ inv[a][i] for i in K.degrees()}
        restrictions[(a, b)] = ChainMap(stalks[a], stalks[b], maps)
    return SheafComplex(site, stalks, restrictions)


def height_graded_sheaf(site: PosetSite, ring, rng: random.Random,
                        max_degree=2, max_rank=2, torsion_free=False) -> SheafComplex:
    """Stalks depend only on height, restrictions compose a fixed ladder.

    Functoriality is automatic: the restriction along x <= y is the composite
    of the ladder maps between the two heights, conjugated stalkwise.
    """
    hi = rng.randint(1, max(1, max_degree))
    heights = {x: site.height(x) for x in site.elements}
    top = max(heights.values())
    pieces = [_random_pieces(ring, rng, hi, max_rank, torsion_free)
              for _ in range(top + 1)]
    levels = [_pieces_complex(ring, pieces[j], hi) for j in range(top + 1)]
    ladder = [random_chain_map(ring, rng, pieces[j], pieces[j + 1], hi,
                               levels[j], levels[j + 1])
              for j in range(top)]

    def composite(h0, h1):
        cm = ChainMap.identity(levels[h0])
        for j in range(h0, h1):
            cm = ladder[j].after(cm)
        return cm

    mats = {x: {i: random_unimodular(ring, levels[heights[x]].rank(i), rng)
                for i in levels[heights[x]].degrees()} for x in site.elements}
    inv = {x: {i: solve_exact(mats[x][i],
                              Matrix.identity(ring, levels[heights[x]].rank(i)))
               for i in levels[heights[x]].degrees()} for x in site.elements}
    stalks = {x: conjugate_complex(levels[heights[x]], mats[x])
              for x in site.elements}
    restrictions = {}
    for a, b in site.strict_pairs():
        cm = composite(heights[a], heights[b])
        maps = {i: mats[b][i] @ cm.map(i) @ inv[a][i]
                for i in range(0, hi + 1)}
        restrictions[(a, b)] = ChainMap(stalks[a], stalks[b], maps)
    return SheafComplex(site, stalks, restrictions)


def resolution_witness_sheaf(ring: BaseRing, rng: random.Random | None = None) -> SheafComplex:
    """Two-term complex of coinduced sheaves on the 6-element sphere model.

    Degree 0 is the sum of the down-sheaves at the two maximal elements,
    degree 1 the sum at the two middle elements, the differential the
    difference of the canonical comparison maps.  Its kernel sheaf is the
    constant sheaf and the extension class generates the site's H^2, so the
    truncation spectral sequence has a nonzero d_2 even though every H^i of
    the global sections is xi-torsion-free: injectivity of the truncation
    maps genuinely fails on this instance.
    """
    site = PosetSite.sphere()
    one, zero = ring.one(), ring.zero()
    neg = ring.neg(one)

    def cx(r0, r1, rows):
        diffs = [Matrix(ring, rows, cols=r0) if r1 else Matrix.zeros(ring, 0, r0)]
        return FreeComplex(ring, 0, [r0, r1], diffs)

    stalks = {
        "a": cx(2, 2, [[one, neg], [one, neg]]),
        "b": cx(2, 2, [[one, neg], [one, neg]]),
        "c": cx(2, 1, [[one, neg]]),
        "d": cx(2, 1, [[one, neg]]),
        "e": cx(1, 0, None),
        "f": cx(1, 0, None),
    }
    ident = Matrix.identity(ring, 2)
    pe = Matrix(ring, [[one, zero]])
    pf = Matrix(ring, [[zero, one]])
    pc = Matrix(ring, [[one, zero]])
    pd = Matrix(ring, [[zero, one]])
    res = {}
    for lo in ("a", "b"):
        for mid in ("c", "d"):
            res[(lo, mid)] = ChainMap(stalks[lo], stalks[mid],
                                      {0: ident, 1: pc if mid == "c" else pd})
        for top in ("e", "f"):
            res[(lo, top)] = ChainMap(stalks[lo], stalks[top],
                                      {0: pe if top == "e" else pf,
                                       1: Matrix.zeros(ring, 0, 2)})
    for mid in ("c", "d"):
        for top in ("e", "f"):
            res[(mid, top)] = ChainMap(stalks[mid], stalks[top],
                                       {0: pe if top == "e" else pf,
                                        1: Matrix.zeros(ring, 0, 1)})
    F = SheafComplex(site, stalks, res)
    if rng is None:
        return F
    # a stalkwise base change preserves everything the witness is for
    mats = {x: {i: random_unimodular(ring, F.stalk(x).rank(i), rng)
                for i in F.stalk(x).degrees()} for x in site.elements}
    inv = {x: {i: solve_exact(mats[x][i], Matrix.identity(ring, F.stalk(x).rank(i)))
               for i in F.stalk(x).degrees()} for x in site.elements}
    stalks2 = {x: conjugate_complex(F.stalk(x), mats[x]) for x in site.elements}
    res2 = {}
    for a, b in site.strict_pairs():
        maps = {i: mats[b][i] @ F.res(a, b).map(i) @ inv[a][i]
                for i in F.stalk(a).degrees()}
        res2[(a, b)] = ChainMap(stalks2[a], stalks2[b], maps)
    return SheafComplex(site, stalks2, res2)


_SITES = ("point", "pseudo-circle", "chain3", "sphere")


def generate_instance(profile: str, seed: int, ring: BaseRing | None = None,
                      site: PosetSite | None = None, max_degree=2, max_rank=2,
                      budget=64) -> SheafComplex:
    """Deterministic-in-seed instance of the named profile.

    "free": any valid sheaf complex.  "h1": retries until every H^i of the
    global sections is xi-torsion-free.  "adversarial": retries until the
    truncation-injectivity check fails, else GenerationBudgetExceeded; the
    random families cannot break it (they are pullback-shaped), so witness
    draws based on the coinduced-resolution construction are mixed in.
    """
    rng = random.Random(seed)
    ring = ring or IntegerRing(2)
    for attempt in range(budget):
        chosen_site = site or PosetSite.builtin(rng.choice(_SITES))
        torsion_free = profile == "h1"
        if profile == "adversarial" and attempt % 3 == 2 and site is None:
            F = resolution_witness_sheaf(ring, rng)
        elif rng.random() < 0.5 or len(chosen_site) == 1:
            core = random_complex(ring, rng, max_degree, max_rank, torsion_free)
            F = conjugated_constant_sheaf(chosen_site, core, rng)
        else:
            F = height_graded_sheaf(chosen_site, ring, rng, max_degree,
                                    max_rank, torsion_free)
        F.validate()
        if profile == "free":
            return F
        if profile == "h1":
            ok, _ = hypothesis_h1(InstanceContext(F))
            if ok:
                return F
        elif profile == "adversarial":
            ok, witness, _ = degeneration_check_HT(InstanceContext(F))
            if not ok:
                return F
        else:
            raise ValueError(f"unknown profile {profile!r}")
    raise GenerationBudgetExceeded(profile, budget)
