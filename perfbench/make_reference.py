"""Rebuild ``reference/<workload>.json``: digest and cost of every pool item.

    python3 perfbench/make_reference.py --workload h1-theorem

Run it only when the reports are meant to change, or the pools do, and run
it alone on the machine.  The recorded costs are used only to stratify corpus
selection; the digests are the byte-for-byte answers every later run is
checked against.  An item whose verdict is not the expected one, or whose
reports differ between its runs, stops the build, so the reference holds only
passing, repeatable reports.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from checkout import use_checkout_sources

# Each item runs this many times: the reports must agree, and the fastest
# time is recorded, which is the least disturbed by other load.
TIMINGS = 2


def build(workload: str) -> dict:
    import workloads

    spec = workloads.WORKLOADS[workload]
    out = {"workload": workload}
    for pool, heldout in (("dev", False), ("heldout", True)):
        base, size = spec.pool(heldout)
        items = []
        for index in range(size):
            item = workloads.make_item(workload, base, index)
            digests, costs = set(), []
            for _ in range(TIMINGS):
                start = time.perf_counter()
                payload, verdict = workloads.run_item(workload, item)
                costs.append(time.perf_counter() - start)
                if not verdict:
                    raise RuntimeError(f"{workload} {pool} item {index} has an unexpected verdict")
                digests.add(workloads.digest(payload))
            if len(digests) != 1:
                raise RuntimeError(f"{workload} {pool} item {index} gives different reports")
            items.append([digests.pop(), round(min(costs), 4)])
            print(f"{workload} {pool} {index + 1}/{size} {min(costs):.3f}s", file=sys.stderr)
        out[pool] = {"base": base, "items": items}
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args()
    use_checkout_sources()
    import workloads

    data = build(args.workload)
    path = workloads.REFERENCE_DIR / f"{args.workload}.json"
    path.parent.mkdir(exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=0)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
