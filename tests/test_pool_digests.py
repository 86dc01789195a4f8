"""Every benchmark pool item still gives its recorded report, byte for byte.

The benchmark (``perfbench/``) records, for each item of the development and
held-out pools of both workloads, the SHA-256 of its canonical report.  This
runs every pool item through the benchmark's own ``make_item``, ``run_item``
and ``digest`` and checks the expected verdict and the recorded digest, so a
change that moves any report, or any basis a report prints, fails here.  The
reference files are only read.
"""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checkout  # noqa: E402

checkout.use_checkout_sources()

import workloads  # noqa: E402


@pytest.mark.parametrize("heldout", [False, True], ids=["dev", "heldout"])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_every_pool_item_matches_its_recorded_digest(workload, heldout):
    base, size = workloads.WORKLOADS[workload].pool(heldout)
    recorded = workloads.load_reference(workload)["heldout" if heldout else "dev"]
    assert recorded["base"] == base and len(recorded["items"]) == size
    failures = []
    for index, (expected, _) in enumerate(recorded["items"]):
        payload, verdict = workloads.run_item(workload, workloads.make_item(workload, base, index))
        if not verdict or workloads.digest(payload) != expected:
            failures.append((base + index, verdict))
    assert failures == []
