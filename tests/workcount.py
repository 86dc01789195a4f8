"""Executed work of a benchmark corpus, counted rather than timed.

The count is the number of bytecode instructions one pass of a workload's
corpus executes, with the ``rmatrix.snf`` calls it makes beside it.  It
compares across hosts and sessions where times do not.  The method:

- a child process with ``PYTHONHASHSEED=0`` and the checkout's own sources;
- the corpus of ``perfbench/workloads.py`` for the workload and run seed;
- one warm pass over that corpus, untraced;
- one pass over a freshly built corpus, each item run by ``workloads.run_item``
  and checked against its recorded digest by ``workloads.check``, under
  ``sys.settrace`` with ``frame.f_trace_opcodes`` set, counting the
  ``opcode`` events; building the corpus is not counted.

A count is only read off a pass whose every report matched its digest.  On
one Python minor version it repeats to within about a hundred opcodes:
distinct matrices can share a hash, and how many of them a memo lookup
compares by ``Matrix.__eq__`` before it finds its own key depends on the
slots that keys hashed by identity (chain maps) took in the same table.

``work_ceilings.json`` holds the ceilings ``tests/test_work_ratchet.py``
enforces.  Run from the checkout root::

    python tests/workcount.py h1-theorem 1001

prints one JSON object (the Python version, the workload, the seed, the
opcode count, the ``snf`` calls and whether every digest matched), then
each count over its ceiling, and exits 1 if there is one.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CEILINGS = Path(__file__).resolve().parent / "work_ceilings.json"


def measure(workload: str, seed: int) -> dict:
    """Count one warm corpus pass of this process; see the module docstring."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import checkout

    checkout.use_checkout_sources()
    import workloads
    from decalage import rmatrix

    reference = workloads.load_reference(workload)
    for item in workloads.build_corpus(workload, seed, reference).items:
        workloads.run_item(workload, item)
    corpus = workloads.build_corpus(workload, seed, reference)
    snf = rmatrix.snf.__code__
    counts = {"opcodes": 0, "snf_calls": 0}

    def local(frame, event, arg):
        if event == "opcode":
            counts["opcodes"] += 1
        return local

    def calls(frame, event, arg):
        frame.f_trace_opcodes = True
        if frame.f_code is snf:
            counts["snf_calls"] += 1
        return local

    checked = []
    sys.settrace(calls)
    try:
        for k, item in enumerate(corpus.items):
            checked.append(workloads.check(corpus, k, *workloads.run_item(workload, item)))
    finally:
        sys.settrace(None)
    return {"python": python_version(), "workload": workload, "seed": seed,
            **counts, "correct": all(checked)}


def python_version() -> str:
    """The minor version the counts belong to, as "3.11"."""
    return "{}.{}".format(*sys.version_info)


def count(workload: str, seed: int, prelude: str = "") -> dict:
    """``measure`` in a fresh child process with PYTHONHASHSEED=0.

    ``prelude`` is Python source the child runs first; a test uses it to
    install a mutant of the library before the count.
    """
    code = "\n".join([prelude, "import json, workcount",
                      f"print(json.dumps(workcount.measure({workload!r}, {seed})))"])
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=os.pathsep.join([str(ROOT / "tests"), str(ROOT / "src")]))
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def load_ceilings() -> dict:
    with open(CEILINGS, encoding="utf-8") as fh:
        return json.load(fh)


def over_ceiling(counted: dict, ceilings: dict) -> dict:
    """Each count of ``counted`` over its ceiling, as count name -> ceiling.

    An opcode count passes up to ``slack`` (a fraction) over its ceiling,
    which covers the repeat noise the module docstring names; a count of
    ``snf`` calls repeats exactly and passes up to its ceiling.
    """
    ceiling = ceilings["ceilings"][counted["workload"]][str(counted["seed"])]
    allowed = {"opcodes": ceiling["opcodes"] * (1 + ceilings["slack"]),
               "snf_calls": ceiling["snf_calls"]}
    return {key: ceiling[key] for key, bound in allowed.items() if counted[key] > bound}


if __name__ == "__main__":
    counted = count(sys.argv[1], int(sys.argv[2]))
    print(json.dumps(counted))
    ceilings = load_ceilings()
    if ceilings["python"] != counted["python"]:
        sys.exit(f"the ceilings are for Python {ceilings['python']}, "
                 f"not {counted['python']}: nothing compared")
    over = [f"{key} {counted[key]:,} over the ceiling {ceiling:,}"
            for key, ceiling in over_ceiling(counted, ceilings).items()]
    if not counted["correct"]:
        over.append("a report moved from its recorded digest")
    print("\n".join(over) or "within every ceiling")
    sys.exit(1 if over else 0)
