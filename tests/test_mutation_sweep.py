"""Single-leaf mutations of the bundled fixtures, through every command's reader.

Each mutation sets one JSON leaf of a fixture's instance to a string, a
float, a negative number, null, a list, an object or a bool, and runs the
command in-process through ``cli.main``.  Every run must end with an exit code,
not an exception; a mutation that changes the leaf's JSON type must be a
parse error that names the leaf's path.  The leaf paths are sampled with a
fixed seed, so the sweep stays within a few seconds; the commands are not.
"""

import contextlib
import copy
import io
import json
import os
import random

import pytest

from decalage import cli

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "decalage", "fixtures")
NAMES = ["golden_free_z2_seed42.json", "h3_failure_witness.json", "point_torsion_example.json"]
COMMANDS = ["validate", "check-lemmas", "check-theorem", "ss"]
VALUES = ["x", 0.5, -1, None, [], {}, True]
PATHS_PER_RUN = 12


def leaves(value, path):
    """(path, container, key) per scalar leaf of value, paths as the reader prints them."""
    items = value.items() if isinstance(value, dict) else enumerate(value)
    for key, x in items:
        at = f"{path}.{key}" if isinstance(value, dict) else f"{path}[{key}]"
        if isinstance(x, (dict, list)):
            yield from leaves(x, at)
        else:
            yield at, value, key


def json_type(value) -> str:
    return "number" if type(value) is float else type(value).__name__


def run(args):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(args)
    return code, err.getvalue()


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("name", NAMES)
def test_single_leaf_mutations(tmp_path, command, name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as fh:
        original = json.load(fh)
    wrapped = "instance" in original
    root = "$.instance" if wrapped else "$"
    count = len(list(leaves(original["instance"] if wrapped else original, root)))
    rng = random.Random(f"{name}:{command}")
    picks = sorted(rng.sample(range(count), min(PATHS_PER_RUN, count)))
    target = tmp_path / name
    for index in picks:
        for value in VALUES:
            data = copy.deepcopy(original)
            path, parent, key = list(leaves(data["instance"] if wrapped else data, root))[index]
            changes_type = json_type(value) != json_type(parent[key])
            parent[key] = value
            target.write_text(json.dumps(data), encoding="utf-8")
            code, err = run([command, str(target)])
            assert code in (0, 1, 2, 3), (path, value, code)
            if changes_type:
                assert code == 2 and err.startswith(f"parse error: {path}: "), (path, value, err)
