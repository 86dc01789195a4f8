import json
import os

import pytest

from decalage.complexes import FreeComplex
from decalage.instances import generate_instance, random_unimodular
from decalage.rings import IntegerRing, PolynomialRing, PrimeField
from decalage.rmatrix import Matrix, snf
from decalage.serialize import sheaf_from_json, sheaf_to_json
from decalage.sites import InstanceContext, PosetSite, SheafComplex, global_sections_map
from decalage.theorem import (
    Lattice,
    SingularBasis,
    TorsionObstruction,
    bb_filtration,
    check_torsionfree_eta_m,
    hypothesis_h1,
    lattice_pair_from_complex,
    relative_position,
    verify_main_theorem,
)

from oracles import bb_flag_oracle, image_flag_oracle

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "decalage", "fixtures")


def test_relative_position_examples(z5, f5t):
    L0 = Lattice.standard(z5, 3)
    assert relative_position(L0, L0) == [0, 0, 0]
    assert relative_position(
        Lattice(Matrix.identity(z5, 2).scale(5)), Lattice.standard(z5, 2)) == [1, 1]
    t, one, zero = f5t.xi, f5t.one(), f5t.zero()
    L = Lattice(Matrix(f5t, [[t, zero], [zero, one]]), shift=-1)
    assert relative_position(L, Lattice.standard(f5t, 2)) == [0, -1]


def test_relative_position_basis_invariance(rng, z3):
    for _ in range(40):
        n = rng.randint(1, 3)

        def basis():
            while True:
                M = Matrix(z3, [[rng.randint(-3, 3) for _ in range(n)]
                                for _ in range(n)], cols=n)
                if snf(M).rank == n:
                    return M
        L = Lattice(basis(), shift=rng.randint(-2, 2))
        L0 = Lattice(basis())
        mus = relative_position(L, L0)
        U = random_unimodular(z3, n, rng)
        V = random_unimodular(z3, n, rng)
        assert relative_position(Lattice(L.basis @ U, L.shift),
                                 Lattice(L0.basis @ V)) == mus


def test_singular_basis_rejected(z3):
    with pytest.raises(SingularBasis):
        Lattice(Matrix(z3, [[1, 1], [1, 1]]))


def test_bb_filtration_examples(z5, f5t):
    L0 = Lattice.standard(z5, 2)
    fl = bb_filtration(L0, L0)
    assert fl.dim(-1) == 0 and fl.dim(0) == 2
    assert fl.jumps() == [0, 0]

    one = Lattice(Matrix(z5, [[5]]))
    fl1 = bb_filtration(one, Lattice.standard(z5, 1))
    assert fl1.dim(0) == 0 and fl1.dim(1) == 1
    assert fl1.jumps() == [1]

    t, e1, zero = f5t.xi, f5t.one(), f5t.zero()
    L = Lattice(Matrix(f5t, [[t, zero], [zero, e1]]), shift=-1)
    fl2 = bb_filtration(L, Lattice.standard(f5t, 2))
    assert fl2.dim(-2) == 0 and fl2.dim(-1) == 1 and fl2.dim(0) == 2
    assert fl2.subspace(-1).basis == ((f5t.residue_field().zero(),
                                       f5t.residue_field().one()),)
    assert fl2.jumps() == [0, -1]


def test_bb_scaling_shift(rng, z2):
    for _ in range(25):
        n = rng.randint(1, 3)

        def basis():
            while True:
                M = Matrix(z2, [[rng.randint(-3, 3) for _ in range(n)]
                                for _ in range(n)], cols=n)
                if snf(M).rank == n:
                    return M
        L = Lattice(basis(), shift=rng.randint(-2, 2))
        L0 = Lattice(basis())
        c = rng.randint(-3, 3)
        assert bb_filtration(L.scaled(c), L0) == bb_filtration(L, L0).shifted(c)


def test_bb_jump_multiset_and_oracle(rng, z5):
    for _ in range(60):
        n = rng.randint(1, 4)

        def basis():
            while True:
                M = Matrix(z5, [[rng.randint(-3, 3) for _ in range(n)]
                                for _ in range(n)], cols=n)
                if snf(M).rank == n:
                    return M
        L = Lattice(basis(), shift=rng.randint(-2, 2))
        L0 = Lattice(basis())
        mus = relative_position(L, L0)
        fl = bb_filtration(L, L0)
        assert fl.jumps() == mus
        N = 2 * max(abs(v) for v in mus) + 2
        for m, s in bb_flag_oracle(L, L0, N).items():
            assert fl.subspace(m) == s


def test_lattice_pair_examples(z3):
    pt = PosetSite.point()
    K = FreeComplex(z3, 0, [1, 1], [Matrix.zeros(z3, 1, 1)])
    F = SheafComplex.constant(pt, K)
    pair = lattice_pair_from_complex(InstanceContext(F), 1)
    fl = bb_filtration(pair.L, pair.L0)
    assert fl.dim(0) == 0 and fl.dim(1) == 1

    K0 = FreeComplex(z3, 0, [2], [])
    F0 = SheafComplex.constant(pt, K0)
    pair0 = lattice_pair_from_complex(InstanceContext(F0), 0)
    assert relative_position(pair0.L, pair0.L0) == [0, 0]

    Kp = FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[3]])])
    Fp = SheafComplex.constant(pt, Kp)
    with pytest.raises(TorsionObstruction):
        lattice_pair_from_complex(InstanceContext(Fp), 1)


def test_torsionfree_table_example(z3):
    K = FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[3]])])
    F = SheafComplex.constant(PosetSite.point(), K)
    ctx = InstanceContext(F)
    table = check_torsionfree_eta_m(ctx)
    assert table[(1, 1)]["xi_torsion_free"] is False
    assert table[(0, 0)]["xi_torsion_free"] is True
    assert not hypothesis_h1(ctx)[0]


def test_main_theorem_zero_differential(z3):
    K = FreeComplex(z3, 0, [1, 1], [Matrix.zeros(z3, 1, 1)])
    F = SheafComplex.constant(PosetSite.point(), K)
    rep = verify_main_theorem(F)
    assert rep.asserted and rep.passed
    flags = rep.flags["1"]
    assert flags["bb_flag"]["subspaces"]["0"] == []
    assert flags["bb_flag"]["subspaces"]["1"] == [["1"]]
    assert flags["image_flag"]["subspaces"]["0"] == []
    assert rep.graded["1"]["1"] == {"flag": 1, "omega": 1}


def test_main_theorem_acyclic_summand_invariance(z3):
    from decalage.complexes import direct_sum

    K = FreeComplex(z3, 0, [1, 1], [Matrix.zeros(z3, 1, 1)])
    unit = FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[1]])])
    F1 = SheafComplex.constant(PosetSite.point(), K)
    F2 = SheafComplex.constant(PosetSite.point(), direct_sum(K, unit))
    r1 = verify_main_theorem(F1)
    r2 = verify_main_theorem(F2)
    assert r1.asserted and r1.passed and r2.asserted and r2.passed
    assert r1.flags["1"]["bb_flag"] == r2.flags["1"]["bb_flag"]
    assert r1.flags["1"]["image_flag"] == r2.flags["1"]["image_flag"]


def test_main_theorem_poset_h1_instances(rng, z2):
    for seed in (31, 32):
        F = generate_instance("h1", seed, ring=z2)
        rep = verify_main_theorem(F)
        if rep.asserted:
            assert rep.passed, [c.to_json() for c in rep.checks if not c.passed]


def reduced_sections_instance(case):
    if case == "h3_failure_witness":
        with open(os.path.join(FIXTURES, "h3_failure_witness.json")) as fh:
            return sheaf_from_json(json.load(fh)["instance"])
    site, ring = case.split(":")
    rings = {"z2": IntegerRing(2), "z3": IntegerRing(3),
             "f5t": PolynomialRing(PrimeField(5))}
    return generate_instance("h1", 5, ring=rings[ring], site=PosetSite.builtin(site))


@pytest.mark.parametrize("case", [
    f"{site}:{ring}"
    for site in ("point", "pseudo-circle", "chain3", "sphere")
    for ring in ("z2", "z3", "f5t")
] + ["h3_failure_witness"])
def test_reduced_sections_are_the_reduced_total(case):
    # the theorem path reads H^i(sections of F/xi) off the context's reduced
    # sections, standing for the literal reduction of the sections of F
    ctx = InstanceContext(reduced_sections_instance(case))
    total, _ = ctx.sections()
    assert total.reduce_mod_xi() == ctx.reduced_sections()[0]


def test_image_flag_oracle_agrees(z2):
    # recompute the image flag of an instance by the truncated-kernel oracle
    from decalage.bockstein import k_cohomology_quotient
    from decalage.theorem import image_flag

    F = generate_instance("h1", 33, ring=z2, site=PosetSite.pseudo_circle())
    ctx = InstanceContext(F)
    bar_total, bar_idx = ctx.reduced_sections()
    m_max = F.hi() + 1
    for i in bar_total.degrees():
        hq = k_cohomology_quotient(bar_total, i)
        if hq.dim == 0:
            continue
        main = image_flag(ctx, i, m_max)
        for m in range(0, m_max + 1):
            _, incl, _ = ctx.stage(m)
            stage_total, stage_idx = ctx.stage_sections(m)
            cm = global_sections_map(incl, stage_idx, bar_idx, stage_total,
                                     bar_total)
            vmax = 0
            d = stage_total.d(i)
            for row in d.data:
                for x in row:
                    v = z2.xi_valuation(x)
                    if v != float("inf"):
                        vmax = max(vmax, int(v))
            N = m + max(d.rows, d.cols, 1) * vmax + 4
            got = image_flag_oracle(z2, stage_total, cm.map(i), i, m, hq, N)
            again = image_flag_oracle(z2, stage_total, cm.map(i), i, m, hq, N + 2)
            assert got == again  # stability in the precision
            assert got == main.subspace(m), (i, m)


def test_generate_instance_deterministic(z2):
    a = generate_instance("h1", 7, ring=z2)
    b = generate_instance("h1", 7, ring=z2)
    assert sheaf_to_json(a) == sheaf_to_json(b)


def test_adversarial_profile_finds_witness(z2):
    from decalage.spectral import degeneration_check_HT

    F = generate_instance("adversarial", 0, ring=z2, budget=12)
    ok, wit, _ = degeneration_check_HT(InstanceContext(F))
    assert not ok and wit is not None


def test_golden_witness_settles_h1_vs_h3():
    with open(os.path.join(FIXTURES, "h3_failure_witness.json")) as fh:
        data = json.load(fh)
    F = sheaf_from_json(data["instance"])
    rep = verify_main_theorem(F)
    assert rep.hypotheses["H1"]["holds"] is True
    assert rep.hypotheses["H3"]["holds"] is False
    assert not rep.asserted
    # the stage torsion table genuinely fails despite H1
    bad = [k for k, v in rep.torsion_table.items() if not v["xi_torsion_free"]]
    assert bad, "expected xi-torsion in some stage cohomology"
