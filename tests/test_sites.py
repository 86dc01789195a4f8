import os
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from decalage.complexes import ChainMap, FGModule, FreeComplex, cohomology_presentation
from decalage.eta import eta_m
from decalage.bockstein import Memo, k_cohomology_quotient
from decalage.instances import (
    conjugated_constant_sheaf,
    generate_instance,
    height_graded_sheaf,
    random_complex,
)
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.rmatrix import Matrix
from decalage.serialize import load_instance_file, site_from_json, site_to_json
from decalage.sites import (
    InstanceContext,
    InvalidSheaf,
    PosetSite,
    SheafComplex,
    bockstein_term_sheaf,
    global_sections_complex,
    sheaf_bockstein,
    sheaf_reduce,
)
from decalage.spectral import cokernel_maps

from oracles import (
    direct_sum,
    is_degreewise_injective,
    order_complex_cohomology,
    poset_order_oracle,
    validate_sheaf_map,
    vstack,
)


def test_poset_antisymmetry_checked():
    with pytest.raises(ValueError):
        PosetSite(["x", "y"], [("x", "y"), ("y", "x")])
    # a cycle is reported by its least offending strict pair
    with pytest.raises(ValueError) as err:
        PosetSite(["z", "y", "x"], [("y", "z"), ("z", "x"), ("x", "y")])
    assert str(err.value) == "not antisymmetric: x <= y <= x"


def test_element_names_with_leq_refused():
    # restriction keys "a<=b" could not be split back: p <= "<=q" and "p<=" <= q
    # would both be written under "p<=<=q"
    with pytest.raises(ValueError, match=re.escape("element name '<=q' contains '<='")):
        PosetSite(["p", "p<=", "<=q", "q"], [("p", "<=q"), ("p<=", "q")])


# names that sort differently from the drawn order, so sorting is exercised
ORDER_NAMES = ["a", "b", "c10", "c2", "d", "x", "y"]


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_order_chains_and_heights_match_the_composition_oracle(data):
    # the drawn permutation is a linear extension, so the relation has no cycle;
    # sparse draws leave it far from transitive, and pairs repeat or are reflexive
    names = data.draw(st.permutations(ORDER_NAMES))[:data.draw(st.integers(1, 7))]
    n = len(names)
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).map(sorted)
    relations = [(names[i], names[j]) for i, j in data.draw(st.lists(pairs, max_size=2 * n))]
    site = PosetSite(names, relations)
    want_pairs, want_chains, want_heights = poset_order_oracle(names, relations)
    assert list(site.strict_pairs()) == want_pairs
    assert site.chains() == want_chains
    assert {x: site.height(x) for x in site.elements} == want_heights
    again = site_from_json(site_to_json(site))
    assert again == site and hash(again) == hash(site)


def test_point_site_identity(z3):
    K = FreeComplex(z3, 0, [1, 2], [Matrix.zeros(z3, 2, 1)])
    F = SheafComplex.constant(PosetSite.point(), K)
    T, _ = global_sections_complex(F)
    assert [T.rank(i) for i in T.degrees()] == [1, 2]
    assert T.d(0) == K.d(0)


def test_pseudo_circle_constant(z3):
    R1 = FreeComplex(z3, 0, [1], [])
    F = SheafComplex.constant(PosetSite.pseudo_circle(), R1)
    T, _ = global_sections_complex(F)
    assert cohomology_presentation(Memo(), T, 0).module == FGModule(z3, 1)
    assert cohomology_presentation(Memo(), T, 1).module == FGModule(z3, 1)
    assert all(cohomology_presentation(Memo(), T, i).module.is_zero()
               for i in T.degrees() if i >= 2)


def test_chain_constant_contractible(z3):
    R1 = FreeComplex(z3, 0, [1], [])
    F = SheafComplex.constant(PosetSite.chain(3), R1)
    T, _ = global_sections_complex(F)
    assert cohomology_presentation(Memo(), T, 0).module == FGModule(z3, 1)
    assert all(cohomology_presentation(Memo(), T, i).module.is_zero()
               for i in T.degrees() if i >= 1)


def test_sphere_constant(z3):
    R1 = FreeComplex(z3, 0, [1], [])
    F = SheafComplex.constant(PosetSite.sphere(), R1)
    T, _ = global_sections_complex(F)
    dims = [cohomology_presentation(Memo(), T, i).module for i in T.degrees()]
    assert dims[0] == FGModule(z3, 1)
    assert dims[1].is_zero()
    assert dims[2] == FGModule(z3, 1)


def test_equal_sheaves_built_separately_hash_alike(rng, z3, f5t):
    for ring in (z3, f5t):
        K = random_complex(ring, rng, max_degree=2, max_rank=2)
        seed = rng.random()
        F = conjugated_constant_sheaf(PosetSite.sphere(), K, random.Random(seed))
        again = conjugated_constant_sheaf(PosetSite.sphere(), K, random.Random(seed))
        assert again is not F and again == F and hash(again) == hash(F)
        assert len({F, again}) == 1
        assert hash(sheaf_reduce(Memo(), F)) == hash(sheaf_reduce(Memo(), again))


def test_sheaves_differing_in_one_restriction_entry_stalk_or_ring_are_unequal(z3, z5):
    def constant(ring):
        K = FreeComplex(ring, 0, [1, 1], [Matrix(ring, [[3]])])
        return SheafComplex.constant(PosetSite.chain(3), K)

    F = constant(z3)
    res = dict(F.restrictions)
    res[("c0", "c1")] = ChainMap(F.stalk("c0"), F.stalk("c1"),
                                 {0: Matrix(z3, [[2]]), 1: Matrix(z3, [[1]])})
    stalks = dict(F.stalks)
    stalks["c2"] = FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[6]])])
    variants = [
        SheafComplex(F.site, F.stalks, res),
        SheafComplex(F.site, stalks, F.restrictions),
        constant(z5),
    ]
    assert all(V != F and F != V for V in variants)
    assert len({F, *variants}) == 4


def test_functoriality_failure_detected(z3):
    site = PosetSite.chain(3)
    # stalks in degree 0, and far from it: the failure is found in the stalks' degree
    for degree in (0, 5):
        K = FreeComplex(z3, degree, [1], [])
        good = {degree: Matrix.identity(z3, 1)}
        res = {
            ("c0", "c1"): ChainMap(K, K, good),
            ("c1", "c2"): ChainMap(K, K, good),
            ("c0", "c2"): ChainMap(K, K, {degree: Matrix(z3, [[2]])}),
        }
        with pytest.raises(InvalidSheaf) as err:
            SheafComplex(site, {e: K for e in site.elements}, res).validate()
        assert err.value.witness == ("c0", "c1", "c2")
        assert str(err.value) == f"functoriality fails on c0<=c1<=c2 at degree {degree}"
    # c2 <= c3 doubles, so c0 <= c2 <= c3 and c1 <= c2 <= c3 both fail; the
    # lexicographically least is the witness
    site = PosetSite.chain(4)
    K = FreeComplex(z3, 0, [1], [])
    good = {0: Matrix.identity(z3, 1)}
    res = {pair: ChainMap(K, K, good) for pair in site.strict_pairs()}
    res[("c2", "c3")] = ChainMap(K, K, {0: Matrix(z3, [[2]])})
    with pytest.raises(InvalidSheaf) as err:
        SheafComplex(site, {e: K for e in site.elements}, res).validate()
    assert err.value.witness == ("c0", "c2", "c3")


def test_sections_match_order_complex_oracle(rng):
    # single-degree local systems on every builtin site, against the oracle;
    # stalk data depends only on height so the system is functorial for free
    from conftest import desk_rings

    for ring in desk_rings()[:2]:
        kfield = ring.residue_field()
        for name in ("point", "pseudo-circle", "chain3", "sphere"):
            site = PosetSite.builtin(name)
            heights = {x: site.height(x) for x in site.elements}
            top = max(heights.values())
            for _ in range(3):
                hdims = [rng.randint(1, 2) for _ in range(top + 1)]
                ladder = [
                    Matrix(kfield, [[kfield.parse(str(rng.randrange(5)))
                                     for _ in range(hdims[h])]
                                    for _ in range(hdims[h + 1])], cols=hdims[h])
                    for h in range(top)
                ]

                def comp(h0, h1):
                    M = Matrix.identity(kfield, hdims[h0])
                    for h in range(h0, h1):
                        M = ladder[h] @ M
                    return M

                dims = {x: hdims[heights[x]] for x in site.elements}
                stalks = {x: FreeComplex(kfield, 0, [dims[x]], [])
                          for x in site.elements}
                res_mats = {}
                restrictions = {}
                for a, b in site.strict_pairs():
                    M = comp(heights[a], heights[b])
                    res_mats[(a, b)] = M
                    restrictions[(a, b)] = ChainMap(stalks[a], stalks[b], {0: M})
                F = SheafComplex(site, stalks, restrictions)
                F.validate()
                T, _ = global_sections_complex(F)
                got = [k_cohomology_quotient(T, i).dim for i in T.degrees()]
                want = order_complex_cohomology(site, dims, res_mats, kfield)
                want += [0] * (len(got) - len(want))
                assert got == want[: len(got)], (name, got, want)


def test_sections_exact_on_split_sums(rng, z3):
    # rank bookkeeping: sections of a direct sum is the direct sum
    site = PosetSite.pseudo_circle()
    A = random_complex(z3, rng, 2, 2)
    B = random_complex(z3, rng, 2, 2)
    FA = conjugated_constant_sheaf(site, A, rng)
    FB = conjugated_constant_sheaf(site, B, rng)
    stalks = {x: direct_sum(FA.stalk(x), FB.stalk(x)) for x in site.elements}
    res = {}
    for a, b in site.strict_pairs():
        maps = {}
        lo = min(stalks[a].lo, stalks[b].lo)
        hi = max(stalks[a].hi, stalks[b].hi)
        for i in range(lo, hi + 1):
            ra = FA.res(a, b).map(i)
            rb = FB.res(a, b).map(i)
            top = ra.hstack(Matrix.zeros(z3, ra.rows, rb.cols))
            bot = Matrix.zeros(z3, rb.rows, ra.cols).hstack(rb)
            maps[i] = vstack(top, bot)
        res[(a, b)] = ChainMap(stalks[a], stalks[b], maps)
    FS = SheafComplex(site, stalks, res)
    TS, _ = global_sections_complex(FS)
    TA, _ = global_sections_complex(FA)
    TB, _ = global_sections_complex(FB)
    for i in TS.degrees():
        da = cohomology_presentation(Memo(), TA, i).module
        db = cohomology_presentation(Memo(), TB, i).module
        ds = cohomology_presentation(Memo(), TS, i).module
        assert ds.free_rank == da.free_rank + db.free_rank
        assert sorted(map(str, ds.factors)) == sorted(map(str, da.factors + db.factors))


@pytest.mark.parametrize("ring", ["z2", "z3", "f5t", "qt"])
def test_sections_layout_tiles_each_degree_in_chain_order(ring):
    # layout[N] = (rank, blocks): one block per chain whose top stalk is nonzero
    # in the chain's internal degree, in (chain length, chain) order, filling
    # [0, rank) without gaps, and rank is the total complex's rank
    for site in ("point", "pseudo-circle", "chain3", "sphere"):
        for seed in (1, 2, 3):
            F = generate_instance("h1", seed, ring=RINGS[ring], site=PosetSite.builtin(site))
            T, layout = global_sections_complex(F)
            chains = sorted((c for level in F.site.chains() for c in level),
                            key=lambda c: (len(c), c))
            assert list(layout) == list(T.degrees())
            for N, (rank, blocks) in layout.items():
                assert rank == T.rank(N)
                keys = [(c, N - len(c) + 1) for c in chains]
                assert list(blocks) == [(c, i) for c, i in keys if F.stalk(c[-1]).rank(i)]
                offset = 0
                for (c, i), (start, size) in blocks.items():
                    assert (start, size) == (offset, F.stalk(c[-1]).rank(i))
                    offset += size
                assert offset == rank


def test_sheaf_eta_point_reduces_to_complex_level(z5):
    K = FreeComplex(z5, 0, [1, 1], [Matrix(z5, [[5]])])
    F = SheafComplex.constant(PosetSite.point(), K)
    ctx = InstanceContext(F)
    for m in (0, 1, 2):
        incl = ctx.stage_sheaf(m)
        direct = eta_m(Memo(), K, m)
        assert incl.source.stalk("pt") == direct.source
        assert all(incl.map("pt").map(i) == direct.map(i) for i in K.degrees())


# The library validates a sheaf once, where it enters, and trusts every sheaf
# and map it builds from it.  These inputs pin that trust on every source of
# sheaves: the fixtures, generated draws on each builtin site, and each ring.
FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "decalage", "fixtures")
RINGS = {"z2": IntegerRing(2), "z3": IntegerRing(3), "z5": IntegerRing(5),
         "f5t": PolynomialRing(PrimeField(5)), "qt": PolynomialRing(RationalField())}
THEOREM_PATH_INPUTS = (
    [f"fixture:{name}" for name in sorted(os.listdir(FIXTURES))]
    + [f"h1:{site}:{ring}" for site in ("point", "pseudo-circle", "chain3", "sphere")
       for ring in ("z2", "z3", "f5t", "qt")]
    + [f"adversarial:sphere:{ring}" for ring in ("z2", "z3", "f5t", "qt")]
    + ["free:z5", "constant:pseudo-circle:z5"]
)


def theorem_path_input(case):
    kind, *rest = case.split(":")
    if kind == "fixture":
        return load_instance_file(os.path.join(FIXTURES, rest[0]))
    if kind == "constant":
        z5 = RINGS["z5"]
        K = FreeComplex(z5, 0, [1, 1], [Matrix(z5, [[5]])])
        return SheafComplex.constant(PosetSite.builtin(rest[0]), K)
    if kind == "free":
        return generate_instance("free", 13, ring=RINGS[rest[0]])
    site, ring = rest
    return generate_instance(kind, 1, ring=RINGS[ring], site=PosetSite.builtin(site))


def assert_built_valid(ctx, G):
    """G validates, and so does RGamma(G): d^2 = 0 on the total complex."""
    G.validate()
    ctx.sections(G).validate()


def assert_inclusion_valid(ctx, incl):
    """The subsheaf validates, its inclusion is natural, and RGamma of it is a chain map."""
    assert_built_valid(ctx, incl.source)
    validate_sheaf_map(incl)
    ctx.sections_map(incl).validate()


@pytest.mark.parametrize("case", THEOREM_PATH_INPUTS)
def test_sheaf_eta_constant_stalks(case):
    F = theorem_path_input(case)
    F.validate()
    ctx = InstanceContext(F)
    for m in range(0, F.hi() + 2):
        incl = ctx.stage_sheaf(m)
        assert_inclusion_valid(ctx, incl)
        assert is_degreewise_injective(ctx.sections_map(incl))


def test_sheaf_eta_inclusion_chain(z5, rng):
    F = generate_instance("free", 11, ring=z5)
    ctx = InstanceContext(F)
    incl1 = ctx.stage_sheaf(1)
    incl0 = ctx.stage_sheaf(0)
    for x in F.site.elements:
        for i in F.stalk(x).degrees():
            inner = incl1.map(x).map(i)
            outer = incl0.map(x).map(i)
            from decalage.rmatrix import solve_exact

            assert solve_exact(outer, inner) is not None


@pytest.mark.parametrize("case", THEOREM_PATH_INPUTS)
def test_sheaf_reduce_truncate_hodge(case):
    F = theorem_path_input(case)
    F.validate()
    ctx = InstanceContext(F)
    assert ctx.reduced() == sheaf_reduce(ctx, F)
    assert_built_valid(ctx, ctx.reduced())
    assert ctx.bockstein_sheaf() == sheaf_bockstein(ctx)
    assert_built_valid(ctx, ctx.bockstein_sheaf())
    # the degrees the theorem path reads: truncations from lo, and the
    # cokernel comparison's m = 0 .. hi + 1
    for m in range(min(0, F.lo()), F.hi() + 2):
        assert_inclusion_valid(ctx, ctx.truncation_sheaf(m))
        assert_inclusion_valid(ctx, ctx.hodge_sheaf(m))
        assert_built_valid(ctx, ctx.term(m))
    for m in range(0, F.hi() + 2):
        for cm in cokernel_maps(ctx, m):
            cm.validate()


def test_bockstein_term_sheaf_dims(z3):
    K = FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[3]])])
    F = SheafComplex.constant(PosetSite.pseudo_circle(), K)
    ctx = InstanceContext(F)
    for q in (0, 1):
        avatar = bockstein_term_sheaf(ctx, q)
        avatar.validate()
        T, _ = global_sections_complex(avatar)
        # H^q(K/xi) is one-dimensional at every stalk; circle cohomology,
        # shifted to start at the term's degree q
        assert T.lo == q
        assert k_cohomology_quotient(T, q).dim == 1
        assert k_cohomology_quotient(T, q + 1).dim == 1


def test_height_graded_sheaf_is_functorial(rng, z2):
    for name in ("chain3", "pseudo-circle", "sphere"):
        site = PosetSite.builtin(name)
        F = height_graded_sheaf(site, z2, rng, max_degree=2, max_rank=2)
        F.validate()


def test_generated_instances_validate():
    # generate_instance does not validate its draws; every profile, ring and
    # builtin site draws valid sheaves (adversarial draws live on the sphere)
    for ring in ("z2", "z3", "f5t", "qt"):
        for profile, sites in (("free", ("point", "pseudo-circle", "chain3", "sphere")),
                               ("h1", ("point", "pseudo-circle", "chain3", "sphere")),
                               ("adversarial", ("sphere",))):
            for site in sites:
                for seed in (1, 2, 3):
                    generate_instance(profile, seed, ring=RINGS[ring],
                                      site=PosetSite.builtin(site)).validate()
