"""Stages m > 0 read off stage 0 and K, against the all-degree builders.

The library builds stage 0 < m < hi from stage 0 (degrees >= m) and K
(below the seam degree m - 1), stage m >= hi as xi^m K with K as its
source, the inclusion stage(m+1) -> stage(m) and the mod-xi subquotient as
scalar matrices but at their seam degree m, the Hodge comparison of stage m
from that of stage 0, the stage sheaf m from F and stage sheaf 0, and H^i
over k once per content of (d(i), d(i-1)).  From m = hi on (m = hi + 1 for
the Hodge parts and comparisons) the context keeps one entry per kind.
Each shared object must be the one the all-degree route of
``tests/oracles.py`` builds, entry for entry.
"""

import random

import pytest

from decalage import eta
from decalage.bockstein import Memo
from decalage.complexes import (
    ChainMap,
    FreeComplex,
    factor_through,
    hodge_filtration,
    solve,
    truncate_leq,
)
from decalage.instances import generate_instance, random_complex
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.rmatrix import Matrix, NotTriangular, ShapeMismatch, substitute
from decalage.sites import InstanceContext, PosetSite, SheafComplex
from oracles import (
    eta_m_all_degrees,
    graded_piece_all_degrees,
    hodge_stage_comparison_all_degrees,
    mod_xi_subquotient_all_degrees,
    stage_sheaf_all_degrees,
)

RINGS = {"z2": IntegerRing(2), "z3": IntegerRing(3), "f5t": PolynomialRing(PrimeField(5)),
         "qt": PolynomialRing(RationalField())}
SITES = {"sphere": PosetSite.sphere, "pseudo-circle": PosetSite.pseudo_circle}


def draws(R, count=60):
    return [random_complex(R, random.Random(seed), max_degree=4, max_rank=4)
            for seed in range(count)]


def same_maps(f: ChainMap, g: ChainMap, degrees) -> bool:
    return all(f.map(i) == g.map(i) for i in degrees)


def same_map(f: ChainMap, g: ChainMap) -> bool:
    """Equal source and target, and equal maps in every degree of either."""
    degrees = set(f.source.degrees()) | set(f.target.degrees())
    return f.source == g.source and f.target == g.target and same_maps(f, g, degrees)


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_stages_subquotients_and_comparisons_are_the_all_degree_ones(ring):
    seams = 0
    for K in draws(RINGS[ring]):
        ctx = Memo()
        kbar, bcx = ctx.kbar(K), ctx.bockstein(K)
        # m = hi + 3 is three steps into the stationary tail
        for m in range(K.hi + 4):
            stage, want = ctx.stage(K, m), eta_m_all_degrees(K, m)
            assert stage.source == want.source, (K, m)
            assert same_maps(stage, want, K.degrees()), (K, m)
            seams += K.lo < m < K.hi
            # a stage equal to K is K itself, as on the all-degree route
            assert (stage.source is K) == (want.source is K), (K, m)
            sq, sq_want = ctx.subquotient(K, m), mod_xi_subquotient_all_degrees(K, m)
            assert sq.source is stage.source and sq.target is ctx.stage(K, m + 1).source
            assert same_maps(sq, sq_want, K.degrees()), (K, m)
            inc = ctx.inclusion(K, m)
            assert same_map(inc, factor_through(eta_m_all_degrees(K, m + 1), want)), (K, m)
            assert same_map(ctx.graded(K, m), graded_piece_all_degrees(K, m)), (K, m)
            assert same_map(ctx.truncation(kbar, m), truncate_leq(kbar, m)), (K, m)
            assert same_map(ctx.hodge(bcx, m), hodge_filtration(bcx, m)), (K, m)
            comp, comp_want = ctx.comparison(K, m), hodge_stage_comparison_all_degrees(K, m)
            assert comp.target == hodge_filtration(bcx, m).source
            assert same_maps(comp, ChainMap(comp.source, comp.target, comp_want),
                             K.degrees()), (K, m)
    assert seams


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_the_stationary_tail_is_one_entry_per_kind(ring):
    for K in draws(RINGS[ring], 20):
        ctx = Memo()
        kbar, bcx, top = ctx.kbar(K), ctx.bockstein(K), K.hi
        for m in range(top, top + 4):
            assert ctx.stage(K, m).source is K, (K, m)
            for kind in (ctx.inclusion, ctx.subquotient, ctx.graded):
                assert kind(K, m) is kind(K, top), (K, m, kind)
            assert ctx.truncation(kbar, m) is ctx.truncation(kbar, top)
            assert ctx.comparison(K, m + 1) is ctx.comparison(K, top + 1)
            assert ctx.hodge(bcx, m + 1) is ctx.hodge(bcx, top + 1)
        # stage hi is xi^hi K on the nose, and so is every stage after it
        assert all(eta.is_stationary_stage(ctx, K, m) for m in range(top, top + 4))
        for p in range(K.lo - 2, K.lo):
            assert ctx.hodge(bcx, p) is ctx.hodge(bcx, K.lo)


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_a_stage_equal_to_k_or_to_stage_0_is_that_complex(ring):
    # a stage complex equal to K or to stage 0's is that complex, so its memo hits are by identity
    like_stage_0 = 0
    for K in draws(RINGS[ring]):
        ctx = Memo()
        plain = ctx.stage(K, 0).source
        for m in range(1, K.hi):
            source = ctx.stage(K, m).source
            if source == K:
                assert source is K, (K, m)
            elif source == plain:
                assert source is plain, (K, m)
                like_stage_0 += 1
            else:
                assert source is not K and source is not plain, (K, m)
    # the draws reach the stage-0 case, so the rule is exercised
    assert like_stage_0


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_each_stage_map_is_solved_once_at_its_seam(ring, monkeypatch):
    solved = []

    def recorded(A, B):
        solved.append(A)
        return solve(A, B)

    monkeypatch.setattr(eta, "solve", recorded)
    for K in draws(RINGS[ring], 20):
        ctx = Memo()
        for m in range(K.hi + 4):
            stage, finer = ctx.stage(K, m), ctx.stage(K, m + 1)
            seam = m in K.degrees()
            # the inclusion solves against stage m's basis, the subquotient
            # against stage m+1's, at degree m alone; the tail solves nothing
            for build, basis in ((ctx.inclusion, stage), (ctx.subquotient, finer)):
                solved.clear()
                build(K, m)
                assert len(solved) == seam, (K, m, build)
                assert not seam or solved[0] is basis.map(m), (K, m, build)


def sheared_sheaf(R) -> SheafComplex:
    """R^2 -> R by (1, 0) in degrees 1..2, restricted along c0 < c1 by a shear in degree 1.

    The shear does not commute with the congruence-kernel basis diag(xi, 1)
    in degree 1, so stage sheaf 1 restricts there by stage sheaf 0's map,
    not F's: a builder that took F's at the degree m would be caught.
    """
    one, zero = R.one(), R.zero()
    K = FreeComplex(R, 0, [0, 2, 1], [Matrix.zeros(R, 2, 0), Matrix(R, [[one, zero]])])
    shear = ChainMap(K, K, {1: Matrix(R, [[one, zero], [one, one]]), 2: Matrix.identity(R, 1)})
    F = SheafComplex(PosetSite.chain(2), {"c0": K, "c1": K}, {("c0", "c1"): shear})
    F.validate()
    return F


def assert_stage_sheaves_are_the_all_degree_ones(F):
    ctx = InstanceContext(F)
    for m in range(F.hi() + 2):
        got, want = ctx.stage_sheaf(m), stage_sheaf_all_degrees(F, m)
        assert got.target is F
        for x in F.site.elements:
            assert got.source.stalk(x) == want.source.stalk(x), (m, x)
            assert same_maps(got.map(x), want.map(x), F.stalk(x).degrees()), (m, x)
        for a, b in F.site.strict_pairs():
            assert same_maps(got.source.res(a, b), want.source.res(a, b),
                             F.stalk(a).degrees()), (m, a, b)
        assert got.source == want.source


@pytest.mark.parametrize("ring", sorted(RINGS))
@pytest.mark.parametrize("site", sorted(SITES))
def test_stage_sheaves_are_the_all_degree_ones(ring, site):
    for seed in range(4):
        assert_stage_sheaves_are_the_all_degree_ones(
            generate_instance("h1", seed, ring=RINGS[ring], site=SITES[site]()))


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_a_sheared_stage_sheaf_restricts_by_stage_0_from_m_on(ring):
    F = sheared_sheaf(RINGS[ring])
    assert_stage_sheaves_are_the_all_degree_ones(F)
    stage1 = InstanceContext(F).stage_sheaf(1).source
    assert stage1.res("c0", "c1").map(1) != F.res("c0", "c1").map(1)


def test_complexes_with_equal_differentials_share_one_quotient_space():
    k = PrimeField(3)
    d0 = Matrix(k, [[1, 0], [2, 0]])
    d1 = Matrix(k, [[1, 1]])
    K = FreeComplex(k, 0, [2, 2, 1], [d0, d1])
    # the same d(1) and d(0), another d(2) beyond them
    L = FreeComplex(k, 0, [2, 2, 1, 1], [Matrix(k, [[1, 0], [2, 0]]), Matrix(k, [[1, 1]]),
                                         Matrix(k, [[0]])])
    ctx = Memo()
    assert ctx.quotient(K, 1) is ctx.quotient(L, 1)
    assert ctx.quotient(K, 1).dim == 0
    # d(2) differs, so H^2 is built for each
    assert ctx.quotient(K, 2) is not ctx.quotient(L, 2)


def test_substitute_against_itself_is_the_identity_after_its_refusals():
    R = IntegerRing(2)
    A = Matrix(R, [[2, 0], [1, 4]])
    assert substitute(A, A) == Matrix.identity(R, 2)
    with pytest.raises(NotTriangular):
        upper = Matrix(R, [[2, 1], [0, 4]])
        substitute(upper, upper)
    with pytest.raises(NotTriangular):
        wide = Matrix(R, [[2, 0, 0], [1, 4, 0]])
        substitute(wide, wide)
    with pytest.raises(ShapeMismatch):
        substitute(A, Matrix(R, [[1, 0]]))


def stage_read_at_the_seam(ctx, K: FreeComplex, m: int) -> ChainMap:
    """The mutant: stage m with stage 0's differential at the seam degree m - 1 as well."""
    stage = ctx.stage(K, m)
    plain = ctx.stage(K, 0).source
    diffs = [plain.d(i) if i == m - 1 else stage.source.d(i) for i in range(K.lo, K.hi)]
    return ChainMap(FreeComplex(K.ring, K.lo, K.ranks(), diffs, K.twist), K,
                    {i: stage.map(i) for i in K.degrees()})


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_a_stage_that_reads_stage_0_at_the_seam_is_caught(ring):
    caught = 0
    for K in draws(RINGS[ring]):
        ctx = Memo()
        for m in range(1, K.hi + 1):
            if m - 1 < K.lo:
                continue
            want = eta_m_all_degrees(K, m)
            caught += stage_read_at_the_seam(ctx, K, m).source != want.source
    assert caught
