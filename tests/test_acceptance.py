"""The acceptance gate: one test per criterion, with a printed verdict line.

Desk scale throughout: rings (Z, p in {2,3,5}) and (F_5[t], t); complexes
with degrees <= 4 and ranks <= 4; posets of at most 6 elements.  Counts and
time budgets are pinned here and nowhere else.
"""

import json
import os
import random
import subprocess
import sys
import time

import pytest

from decalage.bockstein import (
    Memo,
    connecting_factorization,
    k_cohomology_quotient,
    split_mod_xi,
    verify_reduction_identification,
    verify_mod_xi_subquotient,
)
from decalage.eta import verify_eta_m_cohomology, verify_graded_piece
from decalage.instances import generate_instance, random_complex
from decalage.rings import IntegerRing, PolynomialRing, PrimeField
from decalage.rmatrix import Matrix, snf
from decalage.serialize import sheaf_from_json
from decalage.sites import InstanceContext
from decalage.spectral import compare_degeneration
from decalage.theorem import (
    bb_filtration,
    relative_position,
    verify_main_theorem,
)

from oracles import (
    bb_flag_oracle,
    beta_squared_is_zero,
    flag_jumps,
    image_flag_oracle,
    invariant_factors_by_minors,
    perturbed_beta,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "decalage", "fixtures")

DESK_RINGS = [IntegerRing(2), IntegerRing(3), IntegerRing(5),
              PolynomialRing(PrimeField(5))]


def verdict(criterion, ok, detail=""):
    line = f"criterion {criterion}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def complex_corpus():
    rng = random.Random(331)
    corpus = []
    for j in range(300):
        ring = DESK_RINGS[j % len(DESK_RINGS)]
        corpus.append(random_complex(ring, rng, max_degree=4, max_rank=4))
    return corpus


@pytest.fixture(scope="module")
def h1_reports():
    """The h1 corpus, its theorem reports, and the wall seconds to build both."""
    t0 = time.time()
    instances = []
    for seed in range(100):
        ring = DESK_RINGS[seed % len(DESK_RINGS)]
        instances.append(generate_instance("h1", 7000 + seed, ring=ring,
                                           max_degree=2, max_rank=2))
    reports = [verify_main_theorem(F) for F in instances]
    return instances, reports, time.time() - t0


def test_criterion_1_snf_vs_minors_oracle():
    rng = random.Random(101)
    ring = IntegerRing(5)
    t0 = time.time()
    for _ in range(1000):
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        M = Matrix(ring, [[rng.randint(-6, 6) for _ in range(cols)]
                          for _ in range(rows)], cols=cols)
        assert snf(M).factors == invariant_factors_by_minors(M)
    elapsed = time.time() - t0
    verdict(1, elapsed < 30, f"1000 matrices in {elapsed:.1f}s")


def test_criterion_2_cohomology_lemma(complex_corpus):
    t0 = time.time()
    failures = 0
    for K in complex_corpus:
        ctx = Memo()
        for m in range(0, K.hi + 3):
            res = verify_eta_m_cohomology(ctx, K, m)
            if not res.passed:
                failures += 1
    elapsed = time.time() - t0
    verdict(2, failures == 0 and elapsed < 120,
            f"300 complexes x all m in {elapsed:.1f}s, {failures} failures")


def test_criterion_3_graded_subquotient_splitting(complex_corpus):
    t0 = time.time()
    failures = []
    for idx, K in enumerate(complex_corpus):
        ctx = Memo()
        for m in range(0, K.hi + 2):
            if not verify_graded_piece(ctx, K, m).passed:
                failures.append((idx, m, "graded"))
            if not verify_mod_xi_subquotient(ctx, K, m).passed:
                failures.append((idx, m, "subquotient"))
            if not split_mod_xi(ctx, K, m).passed:
                failures.append((idx, m, "splitting"))
    elapsed = time.time() - t0
    verdict(3, not failures, f"{elapsed:.1f}s, failures: {failures[:3]}")


def test_criterion_4_bockstein(complex_corpus):
    t0 = time.time()
    failures = []
    for idx, K in enumerate(complex_corpus):
        ctx = Memo()
        base = ctx.bockstein(K)
        for rep in range(5):
            noisy = perturbed_beta(K, random.Random(9000 + 5 * idx + rep))
            for i in range(K.lo, K.hi):
                if noisy[i] != base.d(i):
                    failures.append((idx, i, "lift-dependence"))
        if not beta_squared_is_zero(base):
            failures.append((idx, "beta-squared"))
        if not verify_reduction_identification(ctx, K).passed:
            failures.append((idx, "reduction-identification"))
        for m in range(0, K.hi + 2):
            if not connecting_factorization(ctx, K, m).passed:
                failures.append((idx, m, "connecting"))
    elapsed = time.time() - t0
    verdict(4, not failures, f"{elapsed:.1f}s, failures: {failures[:3]}")


def test_criterion_5_torsion_free_stages(h1_reports):
    # the bound covers generating and verifying the corpus, done in the fixture
    corpus, reports, elapsed = h1_reports
    failures = []
    for idx, (F, rep) in enumerate(zip(corpus, reports)):
        assert rep.hypotheses["H1"]["holds"], idx
        for (i, m), row in rep.torsion_table.items():
            if not row["xi_torsion_free"]:
                failures.append((idx, i, m))
    verdict(5, not failures and elapsed < 600,
            f"100 instances in {elapsed:.1f}s, failures: {failures[:3]}")


def test_criterion_6_flag_equality_with_oracles(h1_reports):
    corpus, reports, _ = h1_reports
    t0 = time.time()
    failures = []
    oracle_checked = 0
    for idx, (F, rep) in enumerate(zip(corpus, reports)):
        if not rep.hypotheses["H3"]["holds"]:
            failures.append((idx, "h3-not-verified"))
            continue
        assert rep.asserted
        for check in rep.checks:
            if check.name in ("main.flag-equality", "main.graded-dims",
                              "main.reduction-identification"):
                if not check.passed:
                    failures.append((idx, check.name, check.failures[:1]))
        failures.extend(_oracle_flag_check(F, rep, idx))
        oracle_checked += 1
    elapsed = time.time() - t0
    verdict(6, not failures,
            f"{elapsed:.1f}s, {oracle_checked} oracle-checked, failures: {failures[:3]}")


def _oracle_flag_check(F, rep, idx):
    from decalage.theorem import image_flag, stage_lattice

    ring = F.ring
    failures = []
    ctx = InstanceContext(F)
    bar_total = ctx.sections(ctx.reduced())
    m_max = F.hi() + 1
    quotients = {i: k_cohomology_quotient(bar_total, i)
                 for i in bar_total.degrees()}
    live = [i for i, hq in quotients.items() if hq.dim]
    main_flags = {i: image_flag(ctx, i, m_max) for i in live}
    # lattice flag against the truncated-ring oracle
    for i in live:
        M = stage_lattice(ctx, i)
        mus = relative_position(ctx, M)
        if rep.flags[str(i)]["relative_position"] != mus:
            failures.append((idx, i, "relative-position"))
        fl = bb_filtration(ctx, M)
        if mus:
            N = 2 * max(mus) + 2
            for m, s in bb_flag_oracle(M, N).items():
                if fl.subspace(m) != s:
                    failures.append((idx, i, m, "bb-oracle"))
    # image flag against the truncated-kernel oracle, one stage build per m
    for m in range(0, m_max + 1):
        cm = ctx.sections_map(ctx.stage_sheaf(m))
        stage_total = cm.source
        for i in live:
            hq = quotients[i]
            d = stage_total.d(i)
            vmax = 0
            for row in d.data:
                for x in row:
                    v = ring.xi_valuation(x)
                    if v != float("inf"):
                        vmax = max(vmax, int(v))
            N = m + max(d.rows, d.cols, 1) * vmax + 4
            got = image_flag_oracle(ring, stage_total, cm.map(i), i, m, hq, N)
            again = image_flag_oracle(ring, stage_total, cm.map(i), i, m, hq, N + 2)
            if got != again or got != main_flags[i].subspace(m):
                failures.append((idx, i, m, "image-oracle"))
    return failures


def test_criterion_7_degeneration_equivalence(h1_reports):
    _, reports, _ = h1_reports
    t0 = time.time()
    failures = []
    for idx, rep in enumerate(reports):
        ht = rep.hypotheses["H3"]["holds"]
        hdr = rep.hypotheses["HdR-degenerate"]["holds"]
        if ht != hdr:
            failures.append((idx, "ht-vs-hdr", ht, hdr))
        for check in rep.checks:
            if check.name == "degeneration.coker-comparison" and not check.passed:
                failures.append((idx, "cokernels", check.failures[:1]))
    # the stored non-torsion-free fixture must separate the two cokernels
    with open(os.path.join(FIXTURES, "point_torsion_example.json")) as fh:
        P = sheaf_from_json(json.load(fh))
    coker_f, coker_g = compare_degeneration(InstanceContext(P), 0, 0)
    if coker_f == coker_g or coker_f.dim != 1 or coker_g.dim != 0:
        failures.append(("fixture", coker_f.dim, coker_g.dim))
    elapsed = time.time() - t0
    verdict(7, not failures, f"{elapsed:.1f}s, failures: {failures[:3]}")


def test_criterion_8_lattice_layer():
    rng = random.Random(505)
    ctx = Memo()
    t0 = time.time()
    failures = []
    rings = [IntegerRing(2), IntegerRing(3), IntegerRing(5),
             PolynomialRing(PrimeField(5))]
    for trial in range(500):
        ring = rings[trial % len(rings)]
        n = rng.randint(1, 4)

        def entry():
            if isinstance(ring, PolynomialRing):
                return ring.from_coeffs(
                    [rng.randrange(5) for _ in range(rng.randint(1, 3))])
            return rng.randint(-4, 4)

        def basis():
            while True:
                M = Matrix(ring, [[entry() for _ in range(n)]
                                  for _ in range(n)], cols=n)
                if snf(M).rank == n:
                    return M
        M = basis().xi_scale(rng.randint(0, 3))
        mus = relative_position(ctx, M)
        fl = bb_filtration(ctx, M)
        if flag_jumps(fl) != mus:
            failures.append((trial, "jumps"))
            continue
        N = 2 * max(mus) + 2
        for m, s in bb_flag_oracle(M, N).items():
            if fl.subspace(m) != s:
                failures.append((trial, m, "oracle"))
        c = rng.randint(0, 2)
        if bb_filtration(ctx, M.xi_scale(c)) != fl.shifted(c):
            failures.append((trial, "scaling"))
    elapsed = time.time() - t0
    verdict(8, not failures, f"500 lattices in {elapsed:.1f}s, failures: {failures[:3]}")


def test_criterion_9_deterministic_reports():
    def run(*args):
        return subprocess.run([sys.executable, "-m", "decalage", *args],
                              capture_output=True, text=True)

    lem = ("check-lemmas", "--generate", "h1", "--count", "3", "--seed", "77",
           "--format", "json")
    thm = ("check-theorem", "--generate", "h1", "--count", "2", "--seed", "78",
           "--format", "json")
    a, b = run(*lem), run(*lem)
    c, d = run(*thm), run(*thm)
    ok = (a.stdout == b.stdout and a.returncode == b.returncode == 0
          and c.stdout == d.stdout and c.returncode == d.returncode == 0)
    verdict(9, ok, "byte-identical JSON for check-lemmas and check-theorem")
