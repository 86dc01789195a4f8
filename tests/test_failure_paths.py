"""The failure paths of the checks, each driven by a monkeypatched mutant.

Every report a clean run prints passes, so these branches run only when
something is broken: a crashed lemma check, a failed or crashing filtration
step, a failed stationarity, flag or cokernel comparison in the theorem
report, a failing splitting square, truncations that are not nested, and a
snake that escapes or does not factor through beta.  Each
test breaks one route and pins the records (or, for the command line, the
SHA-256 of its output) that the break produces.  A moved pin means that a
failure record changed its bytes: find out why, and do not re-record.
"""

import contextlib
import hashlib
import io
import json

from decalage import bockstein, cli, complexes, suites, theorem
from decalage.bockstein import Memo, connecting_factorization, split_mod_xi
from decalage.complexes import ChainMap, FreeComplex, factor_through
from decalage.instances import generate_instance
from decalage.kmatrix import Subspace
from decalage.rings import IntegerRing
from decalage.rmatrix import Matrix
from decalage.serialize import dump_json
from test_contexts import patch_everywhere

Z2 = IntegerRing(2)
# H^1 and H^2 are R/(2), so every stage differs from the next below the top
K = FreeComplex(Z2, 0, [1, 2, 1], [Matrix(Z2, [[2], [0]]), Matrix(Z2, [[0, 4]])])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def failing_records(results) -> list:
    return [r.to_json() for r in results if not r.passed]


def unscaled_subquotient(ctx, K, m):
    """The mutant: stage(m) itself, not xi * stage(m), factored through stage(m+1)."""
    return factor_through(ctx.stage(K, m), ctx.stage(K, m + 1))


def run_cli(argv) -> tuple:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = cli.main(argv)
    return status, out.getvalue()


def not_nested(degree: int, m: int) -> dict:
    return {"error": f"ArithmeticError: images are not nested at degree {degree}", "m": m}


def test_unscaled_subquotient_crashes_its_checks_and_fails_every_filtration_step(monkeypatch):
    # the guarded checks that read the subquotient become crash records, each
    # at its m, and the filtration step's membership test returns False at every m
    monkeypatch.setattr(bockstein, "mod_xi_subquotient", unscaled_subquotient)
    crashed = [{"check": name, "failures": [not_nested(0, m)], "passed": False}
               for m in range(4)
               for name in ("eta-m.mod-xi-subquotient", "eta-m.mod-xi-splitting")]
    assert failing_records(suites.lemma_battery(K)) == crashed + [
        {"check": "eta-m.filtration-steps",
         "failures": [{"m": 0}, {"m": 1}, {"m": 2}, {"m": 3}], "passed": False}]


def test_a_filtration_step_that_raises_records_its_error(monkeypatch):
    # the subquotient of K/xi in place of K's: a field has no xi, so the
    # membership test raises, and the step records the error at each m
    subquotient = bockstein.mod_xi_subquotient
    monkeypatch.setattr(bockstein, "mod_xi_subquotient",
                        lambda ctx, K, m: subquotient(ctx, ctx.kbar(K), m))
    residue = "AttributeError: 'PrimeField' object has no attribute 'residue_field'"
    xi = "AttributeError: 'PrimeField' object has no attribute 'xi'"
    errors = [{"error": message, "m": m} for m, message in enumerate((residue, xi, xi, xi))]
    crashed = [{"check": name, "failures": [error], "passed": False}
               for error in errors
               for name in ("eta-m.mod-xi-subquotient", "eta-m.mod-xi-splitting")]
    assert failing_records(suites.lemma_battery(K)) == crashed + [
        {"check": "eta-m.filtration-steps", "failures": errors, "passed": False}]


def test_truncations_factored_the_wrong_way_fail_the_splitting_under_its_compat_key(monkeypatch):
    # on a context that has built every piece, only the truncation inclusion
    # tau_{<=m-1} -> tau_{<=m} is still factored: the mutant factors it
    # backwards, so it fails where the two truncations differ
    factor = bockstein.factor_through
    for m in range(0, K.hi + 2):
        ctx = Memo()
        assert split_mod_xi(ctx, K, m).passed
        with monkeypatch.context() as patch:
            patch.setattr(bockstein, "factor_through", lambda f, g: factor(g, f))
            got = split_mod_xi(ctx, K, m).to_json()
        failures = [{"check": "eta-m.mod-xi-splitting-compat",
                     "reason": f"truncations are not nested: images are not nested at degree {m}"}]
        assert got == {"check": "eta-m.mod-xi-splitting", "passed": m not in (1, 2),
                       "failures": failures if m in (1, 2) else []}, m


def compat(degree: int, m: int, generator: int, side: str) -> dict:
    return {"check": "eta-m.mod-xi-splitting-compat", "degree": degree, "m": m,
            "generator": generator, "reason": f"{side}-side compatibility square fails"}


def test_a_zero_truncation_inclusion_fails_the_truncation_side_square(monkeypatch):
    # on a context that has built every piece, the mutant factors the
    # truncation inclusion tau_{<=m-1} -> tau_{<=m} as the zero map
    records = {}
    for m in range(0, K.hi + 2):
        ctx = Memo()
        assert split_mod_xi(ctx, K, m).passed
        with monkeypatch.context() as patch:
            patch.setattr(bockstein, "factor_through",
                          lambda f, g: ChainMap.zero(f.source, g.source))
            records[m] = split_mod_xi(ctx, K, m).to_json()
        assert records[m]["check"] == "eta-m.mod-xi-splitting"
        assert records[m]["passed"] == (not records[m]["failures"])
        # the key a square's failure leads with, as the text report prints it
        assert all(list(f)[0] == "check" for f in records[m]["failures"])
    assert {m: r["failures"] for m, r in records.items()} == {
        0: [],
        1: [compat(0, 1, 0, "truncation")],
        2: [compat(0, 2, 0, "truncation"), compat(1, 2, 0, "truncation"),
            compat(1, 2, 1, "truncation")],
        3: [compat(0, 3, 0, "truncation"), compat(1, 3, 0, "truncation"),
            compat(1, 3, 1, "truncation"), compat(2, 3, 0, "truncation")]}


def test_a_zero_finer_comparison_fails_the_hodge_side_square(monkeypatch):
    # on a context that has built every piece, the mutant context hands out
    # the Hodge comparison at level m + 1 as the zero map; at m = 0 the
    # square holds on generator 0 of degree 1 and fails on generator 1
    records = {}
    for m in range(0, K.hi + 2):
        ctx = Memo()
        assert split_mod_xi(ctx, K, m).passed
        comparison = ctx.comparison

        def zeroed(L, n, m=m):
            comp = comparison(L, n)
            return ChainMap.zero(comp.source, comp.target) if n == m + 1 else comp

        with monkeypatch.context() as patch:
            patch.setattr(ctx, "comparison", zeroed)
            records[m] = split_mod_xi(ctx, K, m).to_json()
        assert records[m]["check"] == "eta-m.mod-xi-splitting"
        assert records[m]["passed"] == (not records[m]["failures"])
        # the key a square's failure leads with, as the text report prints it
        assert all(list(f)[0] == "check" for f in records[m]["failures"])
    assert {m: r["failures"] for m, r in records.items()} == {
        0: [compat(1, 0, 1, "Hodge"), compat(2, 0, 0, "Hodge")],
        1: [compat(2, 1, 0, "Hodge")],
        2: [], 3: []}


def test_a_snake_without_a_lift_escapes_the_finer_stage(monkeypatch):
    # on a context that has built every piece, the mutant's solve finds no lift
    records = {}
    for m in range(0, K.hi + 2):
        ctx = Memo()
        assert connecting_factorization(ctx, K, m).passed
        with monkeypatch.context() as patch:
            assert bockstein in patch_everywhere(patch, complexes, "solve", lambda A, B: None)
            records[m] = connecting_factorization(ctx, K, m).to_json()["failures"]
    escaped = "snake image escaped the finer stage"
    assert records == {
        0: [{"generator": 0, "m": 0, "reason": escaped}],
        1: [{"generator": 0, "m": 1, "reason": escaped}, {"generator": 1, "m": 1, "reason": escaped}],
        2: [], 3: []}


def test_a_zero_snake_lift_does_not_factor_through_beta(monkeypatch):
    # on a context that has built every piece, the mutant's solve lifts to zero
    records = {}
    for m in range(0, K.hi + 2):
        ctx = Memo()
        assert connecting_factorization(ctx, K, m).passed
        with monkeypatch.context() as patch:
            assert bockstein in patch_everywhere(
                patch, complexes, "solve", lambda A, B: Matrix.zeros(A.ring, A.cols, B.cols))
            records[m] = connecting_factorization(ctx, K, m).to_json()["failures"]
    assert records == {
        0: [{"beta": ["1", "0"], "generator": 0, "m": 0,
             "reason": "connecting map does not factor through beta", "snake": ["0", "0"]}],
        1: [], 2: [], 3: []}


def test_stationarity_checked_below_the_top_fails_the_report(monkeypatch):
    # stage hi - 1 is not xi^(hi-1) * K on two stalks of the h1 seed-0 draw
    stationary = theorem.is_stationary_stage
    monkeypatch.setattr(theorem, "is_stationary_stage",
                        lambda ctx, K, m: stationary(ctx, K, m - 2))
    report = theorem.verify_main_theorem(generate_instance("h1", 0, ring=Z2))
    assert report.asserted and not report.passed
    assert failing_records(report.checks) == [
        {"check": "torsion-free.stage-stationarity", "passed": False,
         "failures": [{"element": "e", "m": 3}, {"element": "f", "m": 3}]}]
    assert sha256(dump_json(report.to_json())) == (
        "174403a7fe270e75cf838435c16c9420e2ed7d4a12b7ff1c1b7631eb4bf7e3ce")


def test_a_zero_hodge_cokernel_fails_the_coker_comparison(monkeypatch):
    # the Hodge side's image is replaced by zero: the comparison fails
    # wherever the truncation side's image is nonzero, and names both
    compare = theorem.compare_degeneration

    def zero_hodge_side(ctx, i, m):
        coker_f, _ = compare(ctx, i, m)
        return coker_f, Subspace(coker_f.field, coker_f.ambient)

    monkeypatch.setattr(theorem, "compare_degeneration", zero_hodge_side)
    report = theorem.verify_main_theorem(generate_instance("h1", 0, ring=Z2))
    assert report.asserted and not report.passed
    assert failing_records(report.checks) == [
        {"check": "degeneration.coker-comparison", "passed": False,
         "failures": [{"i": 1, "m": 1, "coker_f": [["1"]], "coker_g": []},
                      {"i": 2, "m": 1, "coker_g": [],
                       "coker_f": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]},
                      {"i": 4, "m": 2, "coker_f": [["1", "0"], ["0", "1"]], "coker_g": []}]}]


def test_check_theorem_prints_a_violated_identity_and_exits_1(monkeypatch):
    # the image flag shifted by one, as the benchmark's self-test breaks it
    image_flag = theorem.image_flag
    monkeypatch.setattr(theorem, "image_flag",
                        lambda ctx, i, m: image_flag(ctx, i, m).shifted(1))
    status, out = run_cli(["check-theorem", "--count", "3"])
    assert status == cli.EXIT_VIOLATION == 1
    verdicts = [line for line in out.splitlines() if line.startswith("instance ")]
    assert verdicts == [f"instance h1-{j}: FAIL (H1=True, H3=True)" for j in range(3)]
    # each verdict follows the record it reads
    records = out.split("\ninstance ")
    for j, text in enumerate(records[:-1]):
        record = json.loads(text if j == 0 else text.split("\n", 1)[1])
        assert record["instance"] == f"h1-{j}"
        assert record["asserted"] and not record["passed"]
    assert sha256(out) == "c539dc761fa7d3f1221cd4cfb77898cecb86385a5f44e0d745edd51ccc04e94d"


def test_check_lemmas_names_each_failing_check_and_exits_1(monkeypatch):
    monkeypatch.setattr(bockstein, "mod_xi_subquotient", unscaled_subquotient)
    status, out = run_cli(["check-lemmas", "--count", "1"])
    assert status == cli.EXIT_VIOLATION == 1
    lines = out.splitlines()
    assert lines[0] == "instance h1-0: FAIL" and lines[-1] == "failures-present"
    assert "  FAIL eta-m.filtration-steps (stalk a): [{'m': 1}]" in lines
    assert all(line.startswith("  FAIL eta-m.") for line in lines[1:-1])
    assert sha256(out) == "dea8f608be661ce880b55f21093e058bab4c98f2672a0a69a15de6c1ec6e4ead"
