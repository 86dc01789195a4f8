"""Checks of the benchmark itself: its correctness gate and its tracer.

    python3 perfbench/selftest.py

Uses the cheapest development-pool items, so it takes a few seconds.  The
perturbations are injected from here, by monkeypatching library functions;
the library and its tests are untouched.
"""

from __future__ import annotations

import importlib
import json
import unittest

from checkout import ROOT, use_checkout_sources

use_checkout_sources()

import workloads  # noqa: E402
from decalage import bockstein, theorem  # noqa: E402
from run import Pass  # noqa: E402
from tracer import Tracer  # noqa: E402

# the package's ``eta`` attribute is the function, not the module
eta = importlib.import_module("decalage.eta")
plain_k_cohomology_quotient = bockstein.k_cohomology_quotient


def cheapest(workload: str, count: int) -> workloads.Corpus:
    reference = workloads.load_reference(workload)
    costs = [cost for _, cost in reference["dev"]["items"]]
    chosen = sorted(range(len(costs)), key=lambda i: (costs[i], i))[:count]
    return workloads.make_corpus(workload, False, chosen, reference)


class Gate(unittest.TestCase):
    def setUp(self):
        self.corpus = cheapest("h1-theorem", 4)

    def run_pass(self) -> Pass:
        result = Pass()
        result.run(workloads, self.corpus)
        return result

    def test_clean_items_pass(self):
        self.assertEqual(self.run_pass().failed, 0)

    def test_shifted_image_flag_fails(self):
        original = theorem.image_flag
        theorem.image_flag = lambda F, i, m_max: original(F, i, m_max).shifted(1)
        try:
            result = self.run_pass()
        finally:
            theorem.image_flag = original
        self.assertGreater(result.failed / len(result.latencies), 0)

    def test_changed_report_with_passing_verdict_fails(self):
        original = theorem.TheoremReport.to_json

        def without_graded(report):
            out = original(report)
            out.pop("graded")
            return out

        theorem.TheoremReport.to_json = without_graded
        try:
            result = self.run_pass()
        finally:
            theorem.TheoremReport.to_json = original
        self.assertEqual(result.failed, len(self.corpus.items))


class Trace(unittest.TestCase):
    def test_aliases_counted_and_digests_kept(self):
        plain_corpus = cheapest("h1-theorem", 3)
        plain = Pass()
        plain.run(workloads, plain_corpus)
        original = eta.eta_m
        with Tracer() as tracer:
            # theorem imports this function from bockstein under the same name
            self.assertIs(theorem.k_cohomology_quotient, bockstein.k_cohomology_quotient)
            self.assertIs(bockstein.k_cohomology_quotient.__wrapped__,
                          plain_k_cohomology_quotient)
            traced = Pass()
            traced.run(workloads, cheapest("h1-theorem", 3))
        self.assertIs(eta.eta_m, original)
        self.assertIs(theorem.k_cohomology_quotient, plain_k_cohomology_quotient)
        stats = tracer.stats()
        self.assertEqual(plain.digests, traced.digests)
        self.assertEqual(traced.failed, 0)
        self.assertGreater(stats["instances.generate_instance.calls"], 0)
        self.assertGreater(stats["bockstein.k_cohomology_quotient.calls"], 0)
        self.assertLessEqual(stats["eta.eta_m.unique_ratio"], 1.0)
        self.assertGreater(stats["rmatrix.snf.max_entry_bits"], 0)
        for name, spent in stats.items():
            if name.endswith("self_s"):
                self.assertGreaterEqual(spent, -1e-6, name)
        with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
            names = [m["name"] for m in json.load(fh)["per_layer"]]
        missing = [n for n in names if n not in stats and n != "trace.overhead_ratio"]
        self.assertEqual(missing, [])


if __name__ == "__main__":
    unittest.main()
