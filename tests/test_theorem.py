import hashlib
import json
import os

import pytest

from conftest import desk_rings
from decalage.bockstein import Memo
from decalage.complexes import FreeComplex
from decalage.instances import generate_instance, random_unimodular
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.rmatrix import Matrix
from decalage import sites, theorem
from decalage.serialize import dump_json, load_instance, sheaf_from_json, sheaf_to_json
from decalage.sites import InstanceContext, PosetSite, SheafComplex
from decalage.kmatrix import Subspace
from decalage.theorem import (
    Flag,
    SingularBasis,
    TorsionObstruction,
    bb_filtration,
    check_torsionfree_eta_m,
    hypothesis_h1,
    relative_position,
    stage_lattice,
    verify_main_theorem,
)

from oracles import (
    bb_flag_by_intersection,
    bb_flag_oracle,
    direct_sum,
    flag_jumps,
    image_flag_oracle,
    random_nonsingular,
)
from test_contexts import patch_everywhere

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "decalage", "fixtures")


def test_relative_position_examples(z5, f5t):
    ctx = Memo()
    assert relative_position(ctx, Matrix.identity(z5, 3)) == [0, 0, 0]
    assert relative_position(ctx, Matrix.identity(z5, 2).scale(5)) == [1, 1]
    # 3 is a unit at xi = 5, and a spanning set may have more columns than rows
    assert relative_position(ctx, Matrix(z5, [[3]])) == [0]
    assert relative_position(ctx, Matrix(z5, [[25, 50]])) == [2]
    t, one, zero = f5t.xi, f5t.one(), f5t.zero()
    assert relative_position(ctx, Matrix(f5t, [[t, zero], [zero, one]])) == [1, 0]
    assert relative_position(ctx, Matrix.identity(z5, 0)) == []


def test_relative_position_basis_invariance(rng, z3):
    # relative positions of a lattice inside R^n: never negative, and the
    # same for P M Q with P and Q unimodular
    ctx = Memo()
    for _ in range(40):
        n = rng.randint(1, 3)
        M = random_nonsingular(z3, n, rng)
        mus = relative_position(ctx, M)
        assert min(mus) >= 0
        P, _ = random_unimodular(z3, n, rng)
        Q, _ = random_unimodular(z3, n, rng)
        assert relative_position(ctx, P @ M @ Q) == mus


def test_singular_basis_rejected(z3):
    ctx = Memo()
    for M in (Matrix(z3, [[1, 1], [1, 1]]), Matrix(z3, [[1], [2]]), Matrix.zeros(z3, 1, 0)):
        with pytest.raises(SingularBasis):
            relative_position(ctx, M)
        with pytest.raises(SingularBasis):
            bb_filtration(ctx, M)


def test_bb_filtration_examples(z5, f5t):
    ctx = Memo()
    fl = bb_filtration(ctx, Matrix.identity(z5, 2))
    assert (fl.m_lo, fl.m_hi) == (0, 1)
    assert fl.dim(-1) == 0 and fl.dim(0) == 2
    assert flag_jumps(fl) == [0, 0]

    fl1 = bb_filtration(ctx, Matrix(z5, [[5]]))
    assert fl1.dim(0) == 0 and fl1.dim(1) == 1
    assert flag_jumps(fl1) == [1]

    t, e1, zero = f5t.xi, f5t.one(), f5t.zero()
    fl2 = bb_filtration(ctx, Matrix(f5t, [[t, zero], [zero, e1]]))
    assert (fl2.m_lo, fl2.m_hi) == (0, 2)
    assert fl2.dim(-1) == 0 and fl2.dim(0) == 1 and fl2.dim(1) == 2
    assert fl2.subspace(0).basis == ((f5t.residue_field().zero(),
                                      f5t.residue_field().one()),)
    assert flag_jumps(fl2) == [1, 0]

    fl0 = bb_filtration(ctx, Matrix.identity(z5, 0))
    assert fl0.to_json() == {"ambient_dim": 0, "window": [0, 0], "subspaces": {"0": []}}


def test_flag_refuses_a_gap_in_its_window():
    # with m = 1 missing, the space there would read as the full space at m = 2
    k = PrimeField(5)
    zero, full = Subspace(k, 2), Subspace(k, 2, [(k.one(), k.zero()), (k.zero(), k.one())])
    with pytest.raises(ValueError, match="gap at m = 1"):
        Flag(k, 2, {0: zero, 2: full})
    assert Flag(k, 2, {0: zero, 1: zero, 2: full}).dim(1) == 0


def test_flag_refuses_an_empty_window():
    # with no space there is no window to read a subspace, a dim or a grade on
    k = PrimeField(5)
    with pytest.raises(ValueError, match="at least one space"):
        Flag(k, 2, {})


def test_bb_scaling_shift(rng, z2):
    # xi^c M cuts the flag of M shifted up by c
    ctx = Memo()
    for _ in range(25):
        M = random_nonsingular(z2, rng.randint(1, 3), rng)
        c = rng.randint(0, 3)
        assert bb_filtration(ctx, M.xi_scale(c)) == bb_filtration(ctx, M).shifted(c)


def test_bb_jump_multiset_and_oracle(rng, z5):
    ctx = Memo()
    for _ in range(60):
        M = random_nonsingular(z5, rng.randint(1, 4), rng)
        mus = relative_position(ctx, M)
        fl = bb_filtration(ctx, M)
        assert flag_jumps(fl) == mus
        N = 2 * max(mus) + 2
        for m, s in bb_flag_oracle(M, N).items():
            assert fl.subspace(m) == s


def test_bb_filtration_matches_intersection_route(rng):
    # one Smith form and one intersection per level give the same flag and window
    rings = desk_rings()
    for trial in range(80):
        ring = rings[trial % len(rings)]
        M = random_nonsingular(ring, rng.randint(0, 4), rng).xi_scale(rng.randint(0, 2))
        fl = bb_filtration(Memo(), M)
        assert fl.to_json() == bb_flag_by_intersection(Memo(), M).to_json(), trial
        assert flag_jumps(fl) == relative_position(Memo(), M)


QT = PolynomialRing(RationalField())


@pytest.mark.parametrize("ring", desk_rings() + [QT], ids=str)
def test_bb_filtration_moves_with_a_base_change(rng, ring):
    # the flag of P M is the residue of P applied to the flag of M
    for _ in range(20):
        n = rng.randint(1, 4)
        M = random_nonsingular(ring, n, rng)
        P, _ = random_unimodular(ring, n, rng)
        fl, moved = bb_filtration(Memo(), M), bb_filtration(Memo(), P @ M)
        pbar = P.residue()
        assert (moved.m_lo, moved.m_hi) == (fl.m_lo, fl.m_hi)
        for m in range(fl.m_lo, fl.m_hi + 1):
            image = Subspace.from_columns(pbar @ fl.subspace(m).matrix().transpose())
            assert moved.subspace(m) == image


@pytest.mark.parametrize("ring", [IntegerRing(2), IntegerRing(3),
                                  PolynomialRing(PrimeField(5)), QT], ids=str)
def test_flag_and_position_agree_on_the_image_basis(rng, ring):
    # any spanning set of the lattice gives its flag and position: M with
    # redundant columns against the image basis of its Smith form
    for _ in range(20):
        n = rng.randint(1, 4)
        B = random_nonsingular(ring, n, rng)
        M = B.hstack(B @ random_nonsingular(ring, n, rng).xi_scale(rng.randint(0, 2)))
        ctx = Memo()
        basis = ctx.factor(M).image()
        assert basis.cols == n
        assert bb_filtration(ctx, M).to_json() == bb_filtration(ctx, basis).to_json()
        assert relative_position(ctx, M) == relative_position(ctx, basis)


def test_stage_lattice_examples(z3):
    pt = PosetSite.point()
    K = FreeComplex(z3, 0, [1, 1], [Matrix.zeros(z3, 1, 1)])
    F = SheafComplex.constant(pt, K)
    ctx = InstanceContext(F)
    fl = bb_filtration(ctx, stage_lattice(ctx, 1))
    assert fl.dim(0) == 0 and fl.dim(1) == 1

    K0 = FreeComplex(z3, 0, [2], [])
    F0 = SheafComplex.constant(pt, K0)
    ctx0 = InstanceContext(F0)
    assert relative_position(ctx0, stage_lattice(ctx0, 0)) == [0, 0]

    Kp = FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[3]])])
    Fp = SheafComplex.constant(pt, Kp)
    with pytest.raises(TorsionObstruction):
        stage_lattice(InstanceContext(Fp), 1)


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
    total = ctx.sections(ctx.F)
    assert total.reduce_mod_xi() == ctx.sections(ctx.reduced())


def test_image_flag_oracle_agrees(z2):
    # recompute the image flag of an instance by the truncated-kernel oracle
    from decalage.bockstein import k_cohomology_quotient
    from decalage.theorem import image_flag

    F = generate_instance("h1", 33, ring=z2, site=PosetSite.pseudo_circle())
    ctx = InstanceContext(F)
    bar_total = ctx.sections(ctx.reduced())
    m_max = F.hi() + 1
    for i in bar_total.degrees():
        hq = k_cohomology_quotient(bar_total, i)
        if hq.dim == 0:
            continue
        main = image_flag(ctx, i, m_max)
        for m in range(0, m_max + 1):
            cm = ctx.sections_map(ctx.stage_sheaf(m))
            stage_total = cm.source
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

    F = generate_instance("adversarial", 0, ring=z2)
    ok, wit, _ = degeneration_check_HT(InstanceContext(F))
    assert not ok and wit is not None


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_adversarial_profile_finds_witness_on_the_sphere(z2, seed):
    from decalage.spectral import degeneration_check_HT

    F = generate_instance("adversarial", seed, ring=z2, site=PosetSite.sphere())
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


# The two invalid inputs of the boundary: a stalk with d^2 != 0 (a bare
# complex, read as a point-site sheaf) and a chain3 sheaf whose a <= c is
# not the composite of a <= b and b <= c.
INVALID_INPUTS = {
    "d2-nonzero": (
        {"ring": {"kind": "z", "xi": "2"}, "lo": 0, "ranks": [1, 1, 1],
         "differentials": [[["1"]], [["1"]]]},
        "DifferentialSquareNonzero", "d(i+1) @ d(i) != 0 at degree 0"),
    "not-functorial": (
        {"site": {"elements": ["a", "b", "c"], "leq": [["a", "b"], ["b", "c"]]},
         "stalks": {x: {"ring": {"kind": "z", "xi": "2"}, "lo": 0, "ranks": [1]}
                    for x in "abc"},
         "restrictions": {"a<=b": [[["1"]]], "b<=c": [[["1"]]], "a<=c": [[["2"]]]}},
        "InvalidSheaf", "functoriality fails on a<=b<=c at degree 0"),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_main_theorem_refuses_an_invalid_sheaf_before_any_build(monkeypatch, case):
    data, kind, message = INVALID_INPUTS[case]
    F = load_instance(data)
    built = []
    build = sites.global_sections_complex

    def counted(G):
        built.append(G)
        return build(G)

    patch_everywhere(monkeypatch, sites, "global_sections_complex", counted)
    with pytest.raises(Exception) as err:
        verify_main_theorem(F)
    assert (type(err.value).__name__, str(err.value)) == (kind, message)
    assert built == []


def test_main_theorem_validates_its_sheaf_once(monkeypatch, z2):
    F = generate_instance("h1", 33, ring=z2, site=PosetSite.sphere())
    calls = []
    check = SheafComplex.validate

    def counted(G):
        calls.append(G)
        check(G)

    monkeypatch.setattr(SheafComplex, "validate", counted)
    for _ in range(2):
        calls.clear()
        verify_main_theorem(F)
        assert calls == [F]


# SHA-256 of each report of the one-degree complex at lo = L, recorded while
# RGamma of a sheaf map still walked both windows from degree 0
FAR_FROM_ZERO = {
    100: "ade3347179f89973235b08e25023ea4b92ec174dbb402acdda7fb841e1bee9bc",
    200: "8f01b8f691b44b00eaf32833dd2e2d10e18f941c7054881b7173467a77136e38",
    300: "6457511105bfdd16a330e852eac29e8b68ab6f72d6d88172936710122efc5f9a",
}


@pytest.mark.parametrize("lo", sorted(FAR_FROM_ZERO))
def test_a_complex_far_from_degree_zero_builds_blocks_linear_in_lo(monkeypatch, lo):
    # a sheaf map's sections live on its source's degrees and the cokernel
    # comparison runs only where its space is nonzero, so the block matrices
    # grow with lo, not with its square (10,410 / 40,810 / 91,210 of them when
    # every window was walked)
    F = load_instance({"ring": {"kind": "z", "xi": "2"}, "lo": lo, "ranks": [1]})
    calls = []
    build = sites._block_matrix

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(sites, "_block_matrix", counted)
    report = verify_main_theorem(F)
    assert len(calls) <= 4 * lo
    assert hashlib.sha256(dump_json(report.to_json()).encode()).hexdigest() == FAR_FROM_ZERO[lo]


@pytest.mark.parametrize("lo", sorted(FAR_FROM_ZERO))
def test_a_complex_far_from_degree_zero_compares_cokernels_once(monkeypatch, lo):
    # on a point H^i(S, Omega^m[-m]) is nonzero at i = m = lo alone, and the
    # comparison runs only where that space is nonzero (lo + 1 times when it
    # ran for every m <= i)
    F = load_instance({"ring": {"kind": "z", "xi": "2"}, "lo": lo, "ranks": [1]})
    calls = []
    compare = theorem.compare_degeneration

    def counted(ctx, i, m):
        calls.append((i, m))
        return compare(ctx, i, m)

    monkeypatch.setattr(theorem, "compare_degeneration", counted)
    report = verify_main_theorem(F)
    assert calls == [(lo, lo)]
    assert hashlib.sha256(dump_json(report.to_json()).encode()).hexdigest() == FAR_FROM_ZERO[lo]
