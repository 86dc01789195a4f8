import json
import os

import pytest

from decalage.bockstein import k_cohomology_quotient
from decalage.complexes import ChainMap, FreeComplex
from decalage.instances import generate_instance
from decalage.rings import IntegerRing, PolynomialRing, PrimeField
from decalage.rmatrix import Matrix
from decalage.serialize import sheaf_from_json
from decalage.sites import InstanceContext, PosetSite, SheafComplex
from decalage.spectral import (
    FilteredComplex,
    compare_degeneration,
    degeneration_check_HT,
    degeneration_check_HdR,
    hdr_filtration,
    hdr_spectral_sequence,
    ht_e2_crosscheck,
    ht_filtration,
    ht_spectral_sequence,
    ss_pages,
)
from oracles import abutment_graded_dims, validate_filtered, z_space_oracle

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "decalage", "fixtures")


def shell_sheaf(ring, c, site=None):
    K = FreeComplex(ring, 0, [1, 1], [Matrix(ring, [[c]])])
    return SheafComplex.constant(site or PosetSite.point(), K)


def test_single_jump_filtration_degenerates(z3, rng):
    from decalage.instances import random_complex

    K = random_complex(z3, rng, 2, 3).reduce_mod_xi()
    total = K
    full = {i: Matrix.identity(total.ring, total.rank(i)) for i in total.degrees()}
    fc = FilteredComplex.from_inclusions(
        total, {0: ChainMap(total, total, full)})
    validate_filtered(fc)
    pages = ss_pages(fc, 3)
    for page in pages:
        assert page.all_differentials_vanish()
    for n in total.degrees():
        gr = abutment_graded_dims(fc, n)
        assert sum(gr.values()) == k_cohomology_quotient(total, n).dim


def test_page_consistency_and_abutment(rng, z2):
    # E_{r+1} dims equal homology dims of (E_r, d_r); E_infty matches abutment
    from decalage.kmatrix import field_rank

    for seed in (3, 4, 5):
        F = generate_instance("free", seed, ring=z2)
        ctx = InstanceContext(F)
        pages = ht_spectral_sequence(ctx, r_max=5)
        fc = ht_filtration(ctx)
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
            rec = compare_degeneration(ctx, i, m)
            assert rec.equal
            want = 1 if i == m else 0
            assert rec.coker_f.dim == want == rec.coker_g.dim


def test_compare_degeneration_non_torsion_free_fixture(z2):
    F = shell_sheaf(z2, 2)
    ctx = InstanceContext(F)
    rec = compare_degeneration(ctx, 0, 0)
    assert not rec.equal
    assert rec.coker_f.dim == 1 and rec.coker_g.dim == 0


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
                rec = compare_degeneration(ctx, i, m)
                assert rec.equal, (seed, i, m)


def z_space_instance(case):
    if case == "h3_failure_witness":
        with open(os.path.join(FIXTURES, "h3_failure_witness.json")) as fh:
            return sheaf_from_json(json.load(fh)["instance"])
    site, ring, seed = case.split(":")
    rings = {"z2": IntegerRing(2), "z5": IntegerRing(5),
             "f5t": PolynomialRing(PrimeField(5))}
    return generate_instance("free", int(seed), ring=rings[ring],
                             site=PosetSite.builtin(site))


@pytest.mark.parametrize("case", [
    f"{site}:{ring}:{seed}"
    for site in ("point", "pseudo-circle", "chain3", "sphere")
    for ring, seed in (("z2", 1), ("z5", 3), ("f5t", 2))
] + ["h3_failure_witness"])
def test_z_space_matches_intersection_oracle(case):
    ctx = InstanceContext(z_space_instance(case))
    for filtration in (ht_filtration, hdr_filtration):
        fc = filtration(ctx)
        for r in range(0, 6):
            for p in range(fc.p_min - 1, fc.p_max + 2):
                for n in fc.ambient.degrees():
                    assert fc.z_space(r, p, n) == z_space_oracle(fc, r, p, n), \
                        (filtration.__name__, r, p, n)
