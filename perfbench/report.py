"""Every metric by name and unit, with the traced per-layer table beside it.

    python3 perfbench/report.py --seed 1 --seconds 25
    python3 perfbench/report.py --workload lemma-battery --seed 1001 --seconds 25

For each workload, runs ``run.py`` once with ``--trace 0`` and once with
``--trace 1``, each in its own process, and prints what they printed followed
by the two metric tables side by side.  Exits 1 if any item failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from itertools import zip_longest
from pathlib import Path

HERE = Path(__file__).resolve().parent


def workload_names() -> list:
    with open(HERE.parent / "BENCHMARK.json", encoding="utf-8") as fh:
        return [w["name"] for w in json.load(fh)["workloads"]]


def run(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=HERE.parent)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


def rows(result: dict) -> list:
    out = []
    for name, metric in result["metrics"].items():
        value = metric["value"]
        shown = f"{value:d}" if isinstance(value, int) else f"{value:.6g}"
        out.append(f"{name:44s} {shown:>12s} {metric['unit']}")
    return out


def main() -> int:
    names = workload_names()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    args = parser.parse_args()
    all_correct = True
    for workload in args.workload or names:
        notes, e2e = run(workload, args.seed, args.seconds, 0)
        trace_notes, layers = run(workload, args.seed, args.seconds, 1)
        all_correct = all_correct and e2e["correct"] and layers["correct"]
        print(f"== {workload}, seed {args.seed}")
        print("\n".join(notes + trace_notes))
        left = [f"end to end: {e2e['failed']}/{e2e['attempted']} failed"] + rows(e2e)
        right = [f"per layer (traced): {layers['failed']}/{layers['attempted']} failed"] + rows(layers)
        width = max(len(line) for line in left)
        for a, b in zip_longest(left, right, fillvalue=""):
            print(f"{a:{width}s}   | {b}")
        print()
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
