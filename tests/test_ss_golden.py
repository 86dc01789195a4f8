"""The ``ss`` command's JSON pages, pinned byte for byte.

``golden_ss.json`` holds, per case, the stdout of
``decalage ss <instance> --filtration tau|hodge --format json``.  A case
names a bundled fixture (whose ``instance`` key is unwrapped when present)
or carries its instance inline.  The differential matrices depend on the
chosen class representatives, so any change to how pages pick them shows
up here.
"""

import json
import os

import pytest

from decalage.cli import main

HERE = os.path.dirname(__file__)
FIXTURES = os.path.join(HERE, "..", "src", "decalage", "fixtures")

with open(os.path.join(HERE, "golden_ss.json"), encoding="utf-8") as _fh:
    GOLDEN = json.load(_fh)


def case_instance(case):
    if "fixture" not in case:
        return case["instance"]
    with open(os.path.join(FIXTURES, case["fixture"]), encoding="utf-8") as fh:
        data = json.load(fh)
    return data.get("instance", data)


@pytest.mark.parametrize("name", sorted(GOLDEN))
@pytest.mark.parametrize("filtration", ["tau", "hodge"])
def test_ss_json_is_pinned(name, filtration, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(case_instance(GOLDEN[name])), encoding="utf-8")
    assert main(["ss", str(path), "--filtration", filtration, "--format", "json"]) == 0
    assert capsys.readouterr().out == GOLDEN[name][filtration]
