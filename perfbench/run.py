"""Decalage benchmark: one seeded workload as a closed loop in one process.

    python3 perfbench/run.py --workload h1-theorem --seed 1 --seconds 25 --trace 0

One item (an instance or a complex) runs at a time, in one thread; the next
starts when the previous returns.  Every item is checked: it fails if it
raises, if its verdict is not passed (and, for theorem items, asserted), or
if the SHA-256 of its canonical report differs from the recorded one.

``--trace 0`` reports the end-to-end metrics.  The corpus runs in whole
passes, as many as its recorded cost fits in ``--seconds`` (at least one).
``setup_s`` is the median of three set-ups, each in a fresh interpreter.

``--trace 1`` reports the per-layer metrics.  The corpus runs one pass
untraced, then is rebuilt and run one pass under the tracer; the traced
reports must carry the same digests, and ``trace.overhead_ratio`` is the
traced pass's wall time over the untraced one's.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; lines before it say
what was run.  Errors before a result exit with status 1 and print none.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from checkout import ROOT, MissingSources, use_checkout_sources

HERE = Path(__file__).resolve().parent
SETUP_REPEATS = 3
TAIL_BEYOND = 10


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def metric_specs() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


class Pass:
    """Latencies, failures and digests of items run through the gate."""

    def __init__(self):
        self.latencies = []
        self.digests = []
        self.failed = 0

    def run(self, workloads, corpus) -> float:
        """One pass over the corpus; returns its wall time."""
        start = time.perf_counter()
        for position, item in enumerate(corpus.items):
            t0 = time.perf_counter()
            try:
                payload, verdict = workloads.run_item(corpus.workload, item)
            except Exception:  # a crash is a failed item; the loop goes on
                self.latencies.append(time.perf_counter() - t0)
                self.digests.append(None)
                self.failed += 1
                traceback.print_exc()
                continue
            self.latencies.append(time.perf_counter() - t0)
            self.digests.append(workloads.digest(payload))
            if not workloads.check(corpus, position, payload, verdict):
                self.failed += 1
                print(f"item {position} (pool index {corpus.indices[position]}) "
                      f"fails the gate", file=sys.stderr)
        return time.perf_counter() - start


def tail(latencies: list) -> tuple:
    """The highest percentile with at least TAIL_BEYOND samples beyond it.

    Returns (value, percentile, sample count).
    """
    ordered = sorted(latencies)
    rank = len(ordered) - TAIL_BEYOND
    if rank < 1:
        raise ValueError(f"{len(ordered)} samples leave no percentile with "
                         f"{TAIL_BEYOND} beyond it")
    return ordered[rank - 1], 100.0 * rank / len(ordered), len(ordered)


def time_setups(workload: str, seed: int) -> list:
    """Wall time of fresh-interpreter set-ups: import, corpus, warm-up."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - start)
    return samples


def end_to_end(workloads, args) -> tuple:
    setups = time_setups(args.workload, args.seed)
    corpus = workloads.prepare(args.workload, args.seed)
    # The pass count follows from the recorded cost, never from this run's
    # speed, so a faster program is measured on exactly the same items.
    passes = max(1, round(args.seconds / corpus.recorded_cost))
    measured = Pass()
    elapsed = sum(measured.run(workloads, corpus) for _ in range(passes))
    attempted = len(measured.latencies)
    ok = attempted - measured.failed
    tail_s, percentile, samples = tail(measured.latencies)
    pool = "held-out" if corpus.heldout else "development"
    print(f"{args.workload} seed {args.seed}: {len(corpus.items)} items from the {pool} pool, "
          f"{passes} pass(es), {elapsed:.2f} s measured")
    print(f"item_tail_ms is p{percentile:.1f} of {samples} samples ({TAIL_BEYOND} beyond it)")
    print(f"fail_ratio {measured.failed / attempted:.4f} ({measured.failed}/{attempted}); "
          f"setup samples {', '.join(f'{s:.3f}' for s in setups)} s")
    metrics = {
        "items_per_s": ok / elapsed,
        "item_p50_ms": 1000.0 * statistics.median(measured.latencies),
        "item_tail_ms": 1000.0 * tail_s,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_ratio": ok / attempted,
    }
    return attempted, measured.failed, metrics


def per_layer(workloads, args) -> tuple:
    from tracer import Tracer

    corpus = workloads.prepare(args.workload, args.seed)
    plain = Pass()
    plain_s = plain.run(workloads, corpus)
    traced = Pass()
    with Tracer() as tracer:
        traced_corpus = workloads.build_corpus(args.workload, args.seed,
                                               workloads.load_reference(args.workload))
        traced_s = traced.run(workloads, traced_corpus)
    stats = tracer.stats()
    drift = sum(a != b for a, b in zip(plain.digests, traced.digests))
    if drift:
        print(f"{drift} traced reports differ from the untraced ones", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: one untraced pass of {len(corpus.items)} items "
          f"in {plain_s:.2f} s, one traced pass in {traced_s:.2f} s; "
          f"traced digests equal untraced: {drift == 0}")
    print("\n".join(tracer.table(stats)))
    stats["trace.overhead_ratio"] = traced_s / plain_s
    attempted = len(plain.latencies) + len(traced.latencies)
    failed = plain.failed + traced.failed + drift
    return attempted, failed, stats


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        use_checkout_sources()
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise ValueError(f"unknown workload {args.workload!r}; "
                             f"choose from {', '.join(workloads.WORKLOADS)}")
        specs = metric_specs()
    except (MissingSources, ValueError, OSError) as exc:
        print(f"benchmark cannot start: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        attempted, failed, values = per_layer(workloads, args)
        wanted = specs["per_layer"]
    else:
        attempted, failed, values = end_to_end(workloads, args)
        wanted = specs["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
