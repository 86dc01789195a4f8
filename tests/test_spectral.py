import json
import os
import random
from collections import Counter

import pytest

from decalage.bockstein import k_cohomology_quotient
from decalage.complexes import ChainMap, FreeComplex
from decalage.instances import generate_instance
from decalage.kmatrix import field_rank, solve_field
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.rmatrix import Matrix
from decalage.serialize import load_instance_file, sheaf_from_json
from decalage.sites import InstanceContext, PosetSite, SheafComplex
from decalage.spectral import (
    FilteredComplex,
    compare_degeneration,
    degeneration_check_HT,
    degeneration_check_HdR,
    hdr_inclusions,
    hdr_spectral_sequence,
    ht_e2_crosscheck,
    ht_inclusions,
    ht_spectral_sequence,
    persistence_pairs,
    ss_pages,
    term_dims,
)
from oracles import (
    abutment_graded_dims,
    all_differentials_vanish,
    validate_filtered,
    z_space_oracle,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "decalage", "fixtures")


def shell_sheaf(ring, c, site=None):
    K = FreeComplex(ring, 0, [1, 1], [Matrix(ring, [[c]])])
    return SheafComplex.constant(site or PosetSite.point(), K)


def test_single_jump_filtration_degenerates(z3, rng):
    from decalage.instances import random_complex

    K = random_complex(z3, rng, 2, 3).reduce_mod_xi()
    total = K
    full = {i: Matrix.identity(total.ring, total.rank(i)) for i in total.degrees()}
    fc = FilteredComplex(total, {0: ChainMap(total, total, full)})
    validate_filtered(fc)
    pages = ss_pages(fc, 3)
    for page in pages:
        assert all_differentials_vanish(page)
    for n in total.degrees():
        gr = abutment_graded_dims(fc, n)
        assert sum(gr.values()) == k_cohomology_quotient(total, n).dim


def test_page_consistency_and_abutment(rng, z2):
    # E_{r+1} dims equal homology dims of (E_r, d_r); E_infty matches abutment
    from decalage.kmatrix import field_rank, solve_field

    for seed in (3, 4, 5):
        F = generate_instance("free", seed, ring=z2)
        ctx = InstanceContext(F)
        pages = ht_spectral_sequence(ctx, r_max=5)
        fc = FilteredComplex(*ht_inclusions(ctx))
        total = fc.ambient
        for a, b in zip(pages, pages[1:]):
            for key, dim in b.entries.items():
                da_out = a.differentials.get(key)
                rank_out = field_rank(da_out) if da_out is not None else 0
                # incoming differential on page a
                rank_in = 0
                for (p, q), mat in a.differentials.items():
                    if (p + a.r, q - a.r + 1) == key:
                        rank_in = field_rank(mat)
                assert dim == a.dim(*key) - rank_out - rank_in, (a.r, key)
        last = pages[-1]
        for n in total.degrees():
            gr = abutment_graded_dims(fc, n)
            total_dim = k_cohomology_quotient(total, n).dim
            assert sum(gr.values()) == total_dim
            diag = sum(d for (p, q), d in last.entries.items() if p + q == n)
            assert diag == total_dim  # stabilized by page 6


def test_ht_point_site(z3):
    F = shell_sheaf(z3, 3)
    ctx = InstanceContext(F)
    pages = ht_spectral_sequence(ctx)
    assert pages[0].entries == {(0, 0): 1, (0, 1): 1}
    assert not ht_e2_crosscheck(ctx, pages)
    ok, wit, agree = degeneration_check_HT(ctx)
    assert ok and wit is None and agree


def test_ht_pseudo_circle_product_table(z3):
    K = FreeComplex(z3, 0, [1, 1], [Matrix.zeros(z3, 1, 1)])
    F = SheafComplex.constant(PosetSite.pseudo_circle(), K)
    ctx = InstanceContext(F)
    pages = ht_spectral_sequence(ctx)
    assert pages[0].entries == {(0, 0): 1, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert not ht_e2_crosscheck(ctx, pages)


def test_ht_e2_crosscheck_random(rng, z2):
    for seed in range(6):
        F = generate_instance("free", 100 + seed, ring=z2)
        ctx = InstanceContext(F)
        pages = ht_spectral_sequence(ctx)
        assert not ht_e2_crosscheck(ctx, pages), seed


def test_hdr_detects_nonzero_beta(z3):
    F = shell_sheaf(z3, 3)
    ctx = InstanceContext(F)
    ok, wit = degeneration_check_HdR(ctx)
    assert not ok
    pages = hdr_spectral_sequence(ctx)
    nonzero = [k for k, m in pages[0].differentials.items() if not m.is_zero()]
    assert nonzero == [(0, 0)]


def test_hdr_degenerates_for_zero_beta(z3):
    K = FreeComplex(z3, 0, [1, 1], [Matrix.zeros(z3, 1, 1)])
    F = SheafComplex.constant(PosetSite.point(), K)
    ctx = InstanceContext(F)
    ok, wit = degeneration_check_HdR(ctx)
    assert ok and wit is None


def test_golden_d2_witness():
    with open(os.path.join(FIXTURES, "h3_failure_witness.json")) as fh:
        data = json.load(fh)
    F = sheaf_from_json(data["instance"])
    F.validate()
    ctx = InstanceContext(F)
    facts = data["facts"]
    pages = ht_spectral_sequence(ctx)
    nonzero = [[p, q] for (p, q), m in sorted(pages[0].differentials.items())
               if not m.is_zero()]
    assert nonzero == facts["nonzero_d2_at"] == [[0, 1]]
    ok, wit, agree = degeneration_check_HT(ctx)
    assert not ok and list(wit) == facts["ht_witness"] and agree
    hdr_ok, _ = degeneration_check_HdR(ctx)
    assert hdr_ok == facts["hdr_degenerates"]
    from decalage.theorem import hypothesis_h1

    assert hypothesis_h1(ctx)[0] == facts["h1_holds"] is True


def test_compare_degeneration_point_zero_differential(z3):
    K = FreeComplex(z3, 0, [1, 1], [Matrix.zeros(z3, 1, 1)])
    F = SheafComplex.constant(PosetSite.point(), K)
    ctx = InstanceContext(F)
    for i in range(0, 2):
        for m in range(0, 2):
            coker_f, coker_g = compare_degeneration(ctx, i, m)
            assert coker_f == coker_g
            want = 1 if i == m else 0
            assert coker_f.dim == want == coker_g.dim


def test_compare_degeneration_non_torsion_free_fixture(z2):
    F = shell_sheaf(z2, 2)
    ctx = InstanceContext(F)
    coker_f, coker_g = compare_degeneration(ctx, 0, 0)
    assert coker_f != coker_g
    assert coker_f.dim == 1 and coker_g.dim == 0


def test_h1_instances_equal_cokernels(rng, z2):
    for seed in (21, 22, 23):
        F = generate_instance("h1", seed, ring=z2)
        ctx = InstanceContext(F)
        ht_ok, _, _ = degeneration_check_HT(ctx)
        hdr_ok, _ = degeneration_check_HdR(ctx)
        assert ht_ok == hdr_ok
        total = ctx.sections(F)
        for i in total.degrees():
            for m in range(0, F.hi() + 2):
                coker_f, coker_g = compare_degeneration(ctx, i, m)
                assert coker_f == coker_g, (seed, i, m)


# the h1-theorem pool's first eight draws, two per benchmark ring, and the fixtures
BENCHMARK_RINGS = (IntegerRing(2), IntegerRing(3), IntegerRing(5), PolynomialRing(PrimeField(5)))
DEGREE_BOUND_CASES = list(range(7000, 7008)) + sorted(os.listdir(FIXTURES))


@pytest.mark.parametrize("case", DEGREE_BOUND_CASES)
def test_no_cokernel_image_below_its_term_degree(case):
    # both images lie in H^i(S, Omega^m[-m]), whose dimension term_dims reads,
    # so where it reads 0 (below degree m, past the site's longest chain, or
    # wherever that cohomology vanishes) they are the zero subspace of a zero
    # space, and verify_main_theorem compares nowhere else
    if isinstance(case, int):
        F = generate_instance("h1", case, ring=BENCHMARK_RINGS[case % 4], max_degree=2, max_rank=2)
    else:
        F = load_instance_file(os.path.join(FIXTURES, case))
    ctx = InstanceContext(F)
    for i in ctx.sections(F).degrees():
        for m in range(0, F.hi() + 2):
            coker_f, coker_g = compare_degeneration(ctx, i, m)
            assert coker_f.ambient == coker_g.ambient == term_dims(ctx, m).get(i, 0), (i, m)


def z_space_instance(case):
    if case == "h3_failure_witness":
        with open(os.path.join(FIXTURES, "h3_failure_witness.json")) as fh:
            return sheaf_from_json(json.load(fh)["instance"])
    site, ring, seed = case.split(":")
    rings = {"z2": IntegerRing(2), "z5": IntegerRing(5),
             "f5t": PolynomialRing(PrimeField(5))}
    return generate_instance("free", int(seed), ring=rings[ring],
                             site=PosetSite.builtin(site))


def random_invertible(F, n, rng):
    while True:
        M = Matrix(F, [[F.parse(str(rng.randrange(-3, 4))) for _ in range(n)]
                       for _ in range(n)], cols=n)
        if field_rank(M) == n:
            return M


def planted_barcode(field, seed) -> tuple:
    """(ambient, inclusions, planted) for a random barcode over ``field``.

    A direct sum of intervals x -> y, x at level s in degree n and y at level
    t in degree n + 1, plus unpaired generators, filtered by level and seen
    through random coordinates in each degree and each filtration piece.
    """
    rng = random.Random(seed)
    planted = []
    for n in (0, 1):
        for _ in range(rng.randrange(1, 5)):
            s = rng.randrange(6)
            planted.append((s, n, rng.randint(s, 5)))
    gens = {n: [(rng.randrange(6), None) for _ in range(rng.randrange(3))] for n in range(3)}
    for k, (s, n, t) in enumerate(planted):
        gens[n].append((s, ("src", k)))
        gens[n + 1].append((t, ("tgt", k)))
    for n in gens:
        gens[n].sort(key=lambda g: g[0], reverse=True)
    ranks = [len(gens[n]) for n in range(3)]
    one = field.one()

    def d(n):
        tags = [tag for _, tag in gens[n + 1]]
        rows = [[field.zero()] * ranks[n] for _ in range(ranks[n + 1])]
        for j, (_, tag) in enumerate(gens[n]):
            if tag is not None and tag[0] == "src":
                rows[tags.index(("tgt", tag[1]))][j] = one
        return Matrix(field, rows, cols=ranks[n])

    G = {n: random_invertible(field, ranks[n], rng) for n in range(3)}
    ambient = FreeComplex(field, 0, ranks, [
        G[n + 1] @ d(n) @ solve_field(G[n], Matrix.identity(field, ranks[n])) for n in (0, 1)])
    inclusions = {}
    for p in range(6):
        keep = {n: [j for j, (level, _) in enumerate(gens[n]) if level >= p] for n in range(3)}
        R = {n: random_invertible(field, len(keep[n]), rng) for n in range(3)}
        sub = FreeComplex(field, 0, [len(keep[n]) for n in range(3)], [
            solve_field(R[n + 1], Matrix(field, [d(n).data[i] for i in keep[n + 1]],
                                         cols=ranks[n]).take_columns(keep[n]) @ R[n])
            for n in (0, 1)])
        inclusions[p] = ChainMap(sub, ambient,
                                 {n: G[n].take_columns(keep[n]) @ R[n] for n in range(3)})
        inclusions[p].validate()
    return ambient, inclusions, planted


PLANTED_FIELDS = {"f2": PrimeField(2), "f3": PrimeField(3), "q": RationalField()}


def z_space_filtrations(case) -> list:
    """The (ambient, inclusions) pairs of the filtered complexes a case names."""
    if case.startswith("planted:"):
        _, field, seed = case.split(":")
        ambient, inclusions, _ = planted_barcode(PLANTED_FIELDS[field], int(seed))
        return [(ambient, inclusions)]
    ctx = InstanceContext(z_space_instance(case))
    return [ht_inclusions(ctx), hdr_inclusions(ctx)]


@pytest.mark.parametrize("case", [
    f"{site}:{ring}:{seed}"
    for site in ("point", "pseudo-circle", "chain3", "sphere")
    for ring, seed in (("z2", 1), ("z5", 3), ("f5t", 2))
] + ["h3_failure_witness"] + [
    f"planted:{field}:{seed}" for field in PLANTED_FIELDS for seed in (1, 2, 3)])
def test_z_space_matches_intersection_oracle(case):
    # p runs two steps past each end, so empty pieces, whole pieces and both
    # ends of every run of levels in the adapted basis are covered
    for k, (ambient, inclusions) in enumerate(z_space_filtrations(case)):
        fc = FilteredComplex(ambient, inclusions)
        for r in range(0, 6):
            for p in range(fc.p_min - 2, fc.p_max + 3):
                for n in range(ambient.lo - 1, ambient.hi + 2):
                    want = z_space_oracle(ambient, inclusions, r, p, n)
                    assert fc.z_space(r, p, n) == want, (k, r, p, n)


def pairing_case(case):
    if case == "h3_failure_witness":
        return z_space_instance(case)
    site, ring, seed = case.split(":")
    if site == "adversarial":
        return generate_instance("adversarial", int(seed), ring=IntegerRing(2),
                                 site=PosetSite.sphere())
    rings = {"z2": IntegerRing(2), "z3": IntegerRing(3), "f5t": PolynomialRing(PrimeField(5)),
             "qt": PolynomialRing(RationalField())}
    return generate_instance("free", int(seed), ring=rings[ring], site=PosetSite.builtin(site))


def assert_pairs_match_pages(ambient, inclusions) -> list:
    """Check the pairs against pages 1 to 5 of the closed form; returns the pairs.

    The rank of d_r out of (p, n) is the number of pairs with gap r from
    there, and E_r(p, n - p) counts the level-p, degree-n generators that are
    unpaired or paired with gap at least r.
    """
    fc = FilteredComplex(ambient, inclusions)
    pairs = persistence_pairs(ambient, inclusions)
    gaps = Counter((s, n, t - s) for s, n, t in pairs)
    for r, page in enumerate(ss_pages(fc, 5), start=1):
        for p in range(fc.p_min, fc.p_max + 1):
            for n in ambient.degrees():
                mat = page.differentials.get((p, n - p))
                rank = field_rank(mat) if mat is not None else 0
                assert rank == gaps[(p, n, r)], (r, p, n)
                generators = fc.z_space(0, p, n).dim - fc.z_space(0, p + 1, n).dim
                gone = sum(1 for s, m, t in pairs if t - s < r
                           and ((s, m) == (p, n) or (t, m + 1) == (p, n)))
                assert page.dim(p, n - p) == generators - gone, (r, p, n)
    return pairs


@pytest.mark.parametrize("case", [
    f"{site}:{ring}:{seed}"
    for site in ("point", "pseudo-circle", "chain3", "sphere")
    for ring, seed in (("z2", 4), ("z3", 5), ("f5t", 6), ("qt", 7))
] + ["h3_failure_witness"] + [f"adversarial:z2:{seed}" for seed in (1, 2, 3)])
def test_persistence_pairs_match_the_closed_form_pages(case):
    ctx = InstanceContext(pairing_case(case))
    for inclusions in (ht_inclusions, hdr_inclusions):
        assert_pairs_match_pages(*inclusions(ctx))
    if case == "h3_failure_witness":
        q_max = ctx.reduced().hi()
        d2 = sorted([n - (q_max - s), q_max - s]
                    for s, n, t in persistence_pairs(*ht_inclusions(ctx)) if t - s == 1)
        assert d2 == [[0, 1]]


@pytest.mark.parametrize("field", [PrimeField(2), PrimeField(3), RationalField()],
                         ids=["f2", "f3", "q"])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_persistence_pairs_recover_a_planted_barcode(field, seed):
    ambient, inclusions, planted = planted_barcode(field, seed)
    pairs = assert_pairs_match_pages(ambient, inclusions)
    assert Counter(pairs) == Counter(planted)


def test_persistence_pairs_need_the_whole_complex_at_the_lowest_level():
    k = PrimeField(2)
    ambient = FreeComplex(k, 0, [2], [])
    line = FreeComplex(k, 0, [1], [])
    with pytest.raises(ValueError, match="whole complex"):
        persistence_pairs(ambient, {0: ChainMap(line, ambient, {0: Matrix(k, [[1], [0]])})})
