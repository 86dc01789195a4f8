"""One set-up of a workload in a fresh interpreter, timed by ``run.py``.

    python3 perfbench/setup_probe.py <workload> <seed>
"""

import sys

from checkout import use_checkout_sources

if __name__ == "__main__":
    use_checkout_sources()
    import workloads

    workloads.prepare(sys.argv[1], int(sys.argv[2]))
