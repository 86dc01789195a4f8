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
injectivity.  Each draw is valid by construction; none is validated here.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from functools import cache

from .complexes import ChainMap, FreeComplex
from .rings import BaseRing, IntegerRing, PolynomialRing, PrimeField
from .rmatrix import Matrix
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


def random_unimodular(ring: BaseRing, n: int, rng: random.Random) -> tuple:
    """(P, P^-1) for P a product of elementary row swaps and additions.

    Each row operation on P is matched by the inverse column operation on
    P^-1, kept as its list of columns: swapping rows i and j swaps columns i
    and j, and row_i += c*row_j makes col_j -= c*col_i.
    """
    if n == 0:
        return Matrix.identity(ring, 0), Matrix.identity(ring, 0)
    identity = Matrix.identity(ring, n).data
    rows, cols = [list(r) for r in identity], [list(r) for r in identity]
    for _ in range(n + 1):
        op = rng.randrange(3)
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        if op == 0:
            rows[i], rows[j] = rows[j], rows[i]
            cols[i], cols[j] = cols[j], cols[i]
        else:
            c = _tiny_element(ring, rng)
            rows[i] = [ring.add(rows[i][t], ring.mul(c, rows[j][t])) for t in range(n)]
            cols[j] = ring.row_sub_multiple(cols[j], c, cols[i])
    return Matrix(ring, rows), Matrix.from_columns(ring, cols)


def conjugate_complex(K: FreeComplex, rng: random.Random):
    """A random base change P_i in every degree: d -> P_{i+1} d P_i^{-1}.

    Returns the conjugated complex with the P_i and their inverses.
    """
    mats, inv = {}, {}
    for i in K.degrees():
        mats[i], inv[i] = random_unimodular(K.ring, K.rank(i), rng)
    diffs = [mats[i + 1] @ K.d(i) @ inv[i] for i in range(K.lo, K.hi)]
    conjugated = FreeComplex(K.ring, K.lo, [K.rank(i) for i in K.degrees()], diffs, K.twist)
    return conjugated, mats, inv


def conjugate_sheaf(F: SheafComplex, rng: random.Random) -> SheafComplex:
    """A random stalkwise base change of F, drawn element by element."""
    site = F.site
    stalks, mats, inv = {}, {}, {}
    for x in site.elements:
        stalks[x], mats[x], inv[x] = conjugate_complex(F.stalk(x), rng)
    restrictions = {}
    for a, b in site.strict_pairs():
        maps = {i: mats[b][i] @ F.res(a, b).map(i) @ inv[a][i]
                for i in F.stalk(a).degrees()}
        restrictions[(a, b)] = ChainMap(stalks[a], stalks[b], maps)
    return SheafComplex(site, stalks, restrictions)


# An elementary summand: a shell [R -c-> R] at (deg, deg+1) or a free line.
_Piece = namedtuple("_Piece", "kind deg c", defaults=(None,))


def _pieces_complex(ring, pieces, hi) -> FreeComplex:
    """The direct sum of the pieces in order, block-diagonal by _piece_offsets."""
    offsets = _piece_offsets(pieces, hi)
    ranks = [sum(d in mine for mine in offsets) for d in range(hi + 1)]
    zero = ring.zero()
    rows = [[[zero] * ranks[i] for _ in range(ranks[i + 1])] for i in range(hi)]
    for p, mine in zip(pieces, offsets):
        if p.kind == "shell":
            rows[p.deg][mine[p.deg + 1]][mine[p.deg]] = p.c
    diffs = [Matrix(ring, rows[i], cols=ranks[i]) for i in range(hi)]
    return FreeComplex(ring, 0, ranks, diffs)


def _random_pieces(ring, rng, hi, max_rank, torsion_free):
    pieces = []
    budget = rng.randint(1, max_rank)
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
    hi = rng.randint(1, max_degree)
    pieces = _random_pieces(ring, rng, hi, max_rank, torsion_free)
    return conjugate_complex(_pieces_complex(ring, pieces, hi), rng)[0]


def _piece_hom(ring, rng, src: _Piece, tgt: _Piece):
    """A random chain map between two elementary pieces, as per-degree 1x1 data.

    With a free line on either side, the source's generator in degree
    src.deg maps to a cycle there: a free line, or the top of a shell one
    degree below.  A shell maps to a shell in its degree by a pair (a, b)
    with b * c_src = a * c_tgt.
    """
    a = _small_element(ring, rng)
    if src.kind == "free" or tgt.kind == "free":
        return {src.deg: a} if src.deg == tgt.deg + (tgt.kind == "shell") else {}
    if src.deg == tgt.deg:
        prod = ring.mul(a, tgt.c)
        if ring.divides(src.c, prod):
            return {src.deg: a, src.deg + 1: ring.exact_div(prod, src.c)}
    return {}


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
    return conjugate_sheaf(SheafComplex.constant(site, K), rng)


def height_graded_sheaf(site: PosetSite, ring, rng: random.Random,
                        max_degree=2, max_rank=2, torsion_free=False) -> SheafComplex:
    """Stalks depend only on height, restrictions compose a fixed ladder.

    Functoriality is automatic: the restriction along x <= y is the composite
    of the ladder maps between the two heights, conjugated stalkwise.
    """
    hi = rng.randint(1, max_degree)
    heights = {x: site.height(x) for x in site.elements}
    top = max(heights.values())
    pieces = [_random_pieces(ring, rng, hi, max_rank, torsion_free)
              for _ in range(top + 1)]
    levels = [_pieces_complex(ring, pieces[j], hi) for j in range(top + 1)]
    ladder = [random_chain_map(ring, rng, pieces[j], pieces[j + 1], hi,
                               levels[j], levels[j + 1])
              for j in range(top)]

    @cache
    def composite(h0, h1):
        # the ladder maps from height h0 up to h1, built once per pair
        if h0 == h1:
            return ChainMap.identity(levels[h0])
        return ladder[h1 - 1].after(composite(h0, h1 - 1))

    stalks = {x: levels[heights[x]] for x in site.elements}
    restrictions = {(a, b): composite(heights[a], heights[b]) for a, b in site.strict_pairs()}
    return conjugate_sheaf(SheafComplex(site, stalks, restrictions), rng)


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
    return conjugate_sheaf(F, rng)


_SITES = ("point", "pseudo-circle", "chain3", "sphere")
BUDGET = 64  # draws a retrying profile takes before GenerationBudgetExceeded


def generate_instance(profile: str, seed: int, ring: BaseRing | None = None,
                      site: PosetSite | None = None, max_degree=2, max_rank=2) -> SheafComplex:
    """Deterministic-in-seed instance of the named profile.

    "free": any valid sheaf complex.  "h1": retries until every H^i of the
    global sections is xi-torsion-free.  "adversarial": retries until the
    truncation-injectivity check fails.  Retries stop after ``BUDGET`` draws
    with GenerationBudgetExceeded.  The random families cannot break H3
    (they are pullback-shaped), so witness draws of the coinduced-resolution
    construction are mixed in when the site is the sphere, where the witness
    lives, or is left to the draw; on any other site the budget runs out.
    Draws are valid by construction and are not validated.
    """
    rng = random.Random(seed)
    ring = ring or IntegerRing(2)
    witnesses = profile == "adversarial" and site in (None, PosetSite.sphere())
    for attempt in range(BUDGET):
        chosen_site = site if site is not None else PosetSite.builtin(rng.choice(_SITES))
        torsion_free = profile == "h1"
        if witnesses and attempt % 3 == 2:
            F = resolution_witness_sheaf(ring, rng)
        elif rng.random() < 0.5 or len(chosen_site) == 1:
            core = random_complex(ring, rng, max_degree, max_rank, torsion_free)
            F = conjugated_constant_sheaf(chosen_site, core, rng)
        else:
            F = height_graded_sheaf(chosen_site, ring, rng, max_degree,
                                    max_rank, torsion_free)
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
    raise GenerationBudgetExceeded(profile, BUDGET)
