"""The work ratchet: a workload's executed work may not rise past its ceiling.

``workcount.py`` counts the opcodes and Smith forms of one warm pass of a
benchmark corpus; ``work_ceilings.json`` holds a ceiling per workload and
seed, for one Python minor version, since opcodes differ between versions.
A change that cuts work lowers its ceilings to the new counts; a change that
must add work raises them, and says by how much and why.  Seed 1 of each
workload runs here; seed 1001 runs as its own CI step,
``python tests/workcount.py <workload> 1001``.
"""

import pytest

import workcount

CEILINGS = workcount.load_ceilings()

pytestmark = pytest.mark.skipif(
    workcount.python_version() != CEILINGS["python"],
    reason=f"the work ceilings are for Python {CEILINGS['python']}, "
           f"not {workcount.python_version()}")

# solve_field without its first two lines, which answer B itself against an
# identity: the fast-path ledger puts the removal at +6.1% of h1-theorem
WITHOUT_IDENTITY_SOLVE = """
import inspect, pkgutil, importlib
import decalage
from decalage import kmatrix
original = kmatrix.solve_field
source = inspect.getsource(original)
shortcut = "    if A.rows == B.rows and A.is_identity():\\n        return B\\n"
assert shortcut in source
exec(source.replace(shortcut, ""), vars(kmatrix))
for info in pkgutil.iter_modules(decalage.__path__):
    module = None if info.name == "__main__" else importlib.import_module(f"decalage.{info.name}")
    if getattr(module, "solve_field", None) is original:
        module.solve_field = kmatrix.solve_field
"""


@pytest.mark.parametrize("workload", sorted(CEILINGS["ceilings"]))
def test_seed_1_work_stays_under_its_ceiling(workload):
    counted = workcount.count(workload, 1)
    assert counted["correct"]
    assert workcount.over_ceiling(counted, CEILINGS) == {}


def test_the_ratchet_catches_a_removed_fast_path():
    counted = workcount.count("h1-theorem", 1, prelude=WITHOUT_IDENTITY_SOLVE)
    # the mutant is slower, not wrong
    assert counted["correct"]
    assert list(workcount.over_ceiling(counted, CEILINGS)) == ["opcodes"]
