import json
import os
import re
import resource
import subprocess
import sys
import tracemalloc

import pytest

from decalage import cli
from decalage.complexes import FreeComplex
from decalage.instances import generate_instance
from decalage.rings import RingElementError, ring_from_description
from decalage.rmatrix import Matrix
from decalage.serialize import (
    MAX_RANK,
    SerializeError,
    complex_from_json,
    complex_to_json,
    load_instance,
    sheaf_from_json,
    sheaf_to_json,
)


def run_cli(*args, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    return subprocess.run([sys.executable, "-m", "decalage", *args],
                          capture_output=True, text=True, env=full_env)


def test_complex_roundtrip(z5):
    K = FreeComplex(z5, 0, [1, 2, 1],
                    [Matrix.zeros(z5, 2, 1), Matrix.zeros(z5, 1, 2)], twist=3)
    data = json.loads(json.dumps(complex_to_json(K)))
    assert complex_from_json(data) == K


def test_sheaf_roundtrip(z2):
    F = generate_instance("free", 17, ring=z2)
    data = json.loads(json.dumps(sheaf_to_json(F)))
    G = sheaf_from_json(data)
    G.validate()
    assert sheaf_to_json(G) == sheaf_to_json(F)


def test_load_instance_wraps_bare_complex(z3):
    K = FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[3]])])
    F = load_instance(complex_to_json(K))
    assert list(F.site.elements) == ["pt"]
    assert F.stalk("pt") == K


def test_serialize_errors(z3):
    with pytest.raises(SerializeError):
        complex_from_json({"ring": {"kind": "z", "xi": "3"}, "lo": 0,
                           "ranks": [1, 1], "differentials": []})
    with pytest.raises(SerializeError):
        complex_from_json({"ring": {"kind": "nope"}, "lo": 0, "ranks": [1],
                           "differentials": []})


def test_cli_validate_exit_codes(tmp_path, z3):
    good = tmp_path / "good.json"
    good.write_text(json.dumps(complex_to_json(
        FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[3]])]))))
    assert run_cli("validate", str(good)).returncode == 0

    bad = tmp_path / "bad.json"
    bad.write_text("{oops")
    assert run_cli("validate", str(bad)).returncode == 2

    invalid = tmp_path / "invalid.json"
    invalid.write_text(json.dumps(complex_to_json(
        FreeComplex(z3, 0, [1, 1, 1],
                    [Matrix(z3, [[1]]), Matrix(z3, [[1]])]))))
    r = run_cli("validate", str(invalid))
    assert r.returncode == 1
    assert "DifferentialSquareNonzero" in r.stdout


Z2 = {"kind": "z", "xi": "2"}


PAST_THE_BOUND = {"ring": Z2, "lo": 0, "ranks": [10**7]}


@pytest.mark.parametrize("read,message", [
    (lambda: complex_from_json({"ring": Z2, "lo": 0, "ranks": [MAX_RANK, 1],
                                "differentials": [[["1"]]]}),
     f"$.differentials[0][0]: expected a list of {MAX_RANK}, got 1"),
    (lambda: complex_from_json({"ring": Z2, "lo": 0, "ranks": [1, MAX_RANK],
                                "differentials": [[["1"]]]}),
     f"$.differentials[0]: expected a list of {MAX_RANK}, got 1"),
    (lambda: sheaf_from_json({"site": {"elements": ["a", "b"], "leq": [["a", "b"]]},
                              "stalks": {"a": {"ring": Z2, "lo": 0, "ranks": [MAX_RANK]},
                                         "b": {"ring": Z2, "lo": 0, "ranks": [1]}},
                              "restrictions": {"a<=b": [[["1"]]]}}),
     f"$.restrictions.a<=b[0][0]: expected a list of {MAX_RANK}, got 1"),
    (lambda: complex_from_json(PAST_THE_BOUND),
     f"$.ranks[0]: expected a rank of at most {MAX_RANK}, got 10000000"),
    (lambda: complex_from_json({**PAST_THE_BOUND, "ranks": [1, MAX_RANK + 1, 1]}),
     f"$.ranks[1]: expected a rank of at most {MAX_RANK}, got {MAX_RANK + 1}"),
    (lambda: load_instance({"site": {"elements": ["a", "b"], "leq": [["a", "b"]]},
                            "stalks": {"a": {"ring": Z2, "lo": 0, "ranks": [1]},
                                       "b": PAST_THE_BOUND}}),
     f"$.stalks.b.ranks[0]: expected a rank of at most {MAX_RANK}, got 10000000"),
], ids=["columns", "rows", "restriction", "past-the-bound", "bound-plus-one", "stalk-past-the-bound"])
def test_a_huge_declared_rank_is_refused_before_anything_of_its_size_is_built(read, message):
    # a rank past MAX_RANK is refused first (a 64-byte file declaring ten
    # million once passed as valid and ran the checks out of memory), and a
    # one-entry matrix against the largest rank admitted by its lengths:
    # neither refusal costs memory in the rank
    tracemalloc.start()
    try:
        with pytest.raises(SerializeError) as refused:
            read()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(refused.value) == message
    assert peak < 2**20, peak


@pytest.mark.parametrize("args", [
    ("validate",), ("check-lemmas",), ("check-theorem",),
    ("ss", "--filtration", "tau"), ("ss", "--filtration", "hodge"),
    ("check-lemmas", "--generate", "free", "--max-rank", str(MAX_RANK + 1)),
    ("check-theorem", "--max-rank", str(MAX_RANK + 1)),
], ids=["validate", "check-lemmas", "check-theorem", "ss-tau", "ss-hodge",
        "check-lemmas-max-rank", "check-theorem-max-rank"])
def test_cli_refuses_a_rank_past_the_bound(tmp_path, args):
    path = tmp_path / "past-the-bound.json"
    path.write_text(json.dumps(PAST_THE_BOUND))
    generated = "--max-rank" in args
    # a gigabyte of address space and a minute: a run that builds the rank
    # fails here, not by exhausting the host
    r = subprocess.run([sys.executable, "-m", "decalage", *args,
                        *(() if generated else (str(path),))],
                       capture_output=True, text=True, timeout=60,
                       preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)))
    want = (f"--max-rank must be at most {MAX_RANK}, got {MAX_RANK + 1}" if generated
            else f"$.ranks[0]: expected a rank of at most {MAX_RANK}, got 10000000")
    assert (r.returncode, r.stdout, r.stderr) == (2, "", f"parse error: {want}\n")


@pytest.mark.parametrize("args", [
    ("validate",), ("check-lemmas",), ("check-theorem",), ("ss",),
    ("check-lemmas", "--poset"), ("check-theorem", "--poset"),
], ids=["validate", "check-lemmas", "check-theorem", "ss",
        "check-lemmas-poset", "check-theorem-poset"])
def test_cli_json_nested_past_the_recursion_limit_is_a_parse_error(tmp_path, args):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100000 + "]" * 100000)
    r = run_cli(*args, str(path))
    assert r.returncode == 2, r.stdout + r.stderr[-1000:]
    assert r.stderr.startswith(f"parse error: cannot read {path}: ") and r.stdout == ""
    assert "Traceback" not in r.stderr and len(r.stderr.splitlines()) == 1, r.stderr[-1000:]


@pytest.mark.parametrize("command", ["validate", "check-lemmas", "check-theorem", "ss"])
def test_cli_negative_rank_is_a_parse_error(tmp_path, command):
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"ring": {"kind": "z", "xi": "2"}, "lo": 0,
                                "ranks": [-1], "differentials": []}))
    r = run_cli(command, str(path))
    assert r.returncode == 2, r.stdout + r.stderr
    assert "parse error" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["validate", "check-lemmas", "check-theorem", "ss"])
def test_cli_negative_degree_is_a_parse_error(tmp_path, command):
    path = tmp_path / "negative_degree.json"
    path.write_text(json.dumps({"ring": {"kind": "z", "xi": "2"}, "lo": -1,
                                "ranks": [1, 1], "differentials": [[["2"]]]}))
    r = run_cli(command, str(path))
    assert r.returncode == 2, r.stdout + r.stderr
    assert "parse error" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["validate", "check-lemmas", "check-theorem", "ss"])
@pytest.mark.parametrize("ring", [{"kind": "prime-field", "p": 5}, {"kind": "rationals"}],
                         ids=["f5", "q"])
def test_cli_complex_over_a_field_is_a_parse_error(tmp_path, command, ring):
    # a field has no uniformizer xi, so no stage or Bockstein is defined
    path = tmp_path / "field.json"
    path.write_text(json.dumps({"ring": ring, "lo": 0, "ranks": [1, 1],
                                "differentials": [["1"]]}))
    r = run_cli(command, str(path))
    assert r.returncode == 2, r.stdout + r.stderr
    assert "parse error" in r.stderr and "field" in r.stderr
    assert "Traceback" not in r.stderr


EMPTY_SITE = {"elements": [], "leq": []}


@pytest.mark.parametrize("where", ["poset", "sheaf"])
def test_cli_empty_site_is_a_parse_error(tmp_path, where):
    path = tmp_path / "empty.json"
    if where == "poset":
        path.write_text(json.dumps(EMPTY_SITE))
        args = ("--poset", str(path))
    else:
        path.write_text(json.dumps({"site": EMPTY_SITE, "stalks": {}, "restrictions": {}}))
        args = (str(path),)
    r = run_cli("check-theorem", *args)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "parse error" in r.stderr and "at least one element" in r.stderr
    assert r.stdout == "" and "Traceback" not in r.stderr


def two_point_sheaf(xi_b="2", restriction=None) -> dict:
    """Sheaf JSON on a <= b with rank-one stalks in degree 0."""
    def stalk(xi):
        return {"ring": {"kind": "z", "xi": xi}, "lo": 0, "ranks": [1], "differentials": []}

    return {"site": {"elements": ["a", "b"], "leq": [["a", "b"]]},
            "stalks": {"a": stalk("2"), "b": stalk(xi_b)},
            "restrictions": {"a<=b": [[["1"]]] if restriction is None else restriction}}


@pytest.mark.parametrize("command", ["validate", "check-lemmas", "check-theorem", "ss"])
@pytest.mark.parametrize("case", ["mixed-rings", "restriction-not-a-list"])
def test_cli_malformed_sheaf_is_a_parse_error(tmp_path, command, case):
    data = two_point_sheaf(xi_b="3") if case == "mixed-rings" else two_point_sheaf(restriction=7)
    path = tmp_path / "sheaf.json"
    path.write_text(json.dumps(data))
    r = run_cli(command, str(path))
    assert r.returncode == 2, r.stdout + r.stderr
    assert "parse error" in r.stderr
    assert "Traceback" not in r.stderr


def both_rings(ring: dict):
    """An edit of two_point_sheaf() that puts both stalks over ``ring``."""
    def edit(data):
        for stalk in data["stalks"].values():
            stalk["ring"] = ring
    return edit


@pytest.mark.parametrize("sheaf,edit,path", [
    ({}, lambda data: data["site"]["elements"].append("a"), "$.site"),
    ({}, lambda data: data["restrictions"].update({"b<=a": [[["1"]]]}), "$.restrictions.b<=a"),
    ({}, lambda data: data["stalks"].update(c=data["stalks"]["a"]), "$.stalks.c"),
    ({"xi_b": 2}, None, "$.stalks.b.ring.xi"),
    ({"xi_b": " 2 "}, None, "$.stalks.b.ring"),
    ({"restriction": [[[1]]]}, None, "$.restrictions.a<=b[0][0][0]"),
    ({"restriction": [[[0.5]]]}, both_rings({"kind": "q-poly"}), "$.restrictions.a<=b[0][0][0]"),
    ({}, lambda data: data["stalks"]["a"].update(twsit=0), "$.stalks.a.twsit"),
    ({}, both_rings({"kind": "fp-poly", "p": 5, "xi": "5"}), "$.stalks.a.ring"),
    ({}, both_rings({"kind": "fp-poly", "p": 5.0}), "$.stalks.a.ring.p"),
    ({}, both_rings({"kind": "fp-poly", "p": "5"}), "$.stalks.a.ring.p"),
], ids=["duplicate-element", "restriction-against-the-order", "stalk-off-the-site",
        "xi-number", "xi-padded", "entry-number", "q-poly-entry-float", "unknown-key",
        "fp-poly-xi-5", "p-float", "p-string"])
def test_cli_sheaf_records_are_read_strictly(tmp_path, sheaf, edit, path):
    # each of these was once read as a valid sheaf
    data = two_point_sheaf(**sheaf)
    if edit:
        edit(data)
    file = tmp_path / "sheaf.json"
    file.write_text(json.dumps(data))
    r = run_cli("validate", str(file))
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith(f"parse error: {path}: ") and r.stdout == "", r.stderr


@pytest.mark.parametrize("where", ["differential", "restriction"])
@pytest.mark.parametrize("ring,bad", [
    ({"kind": "z", "xi": "2"}, "1.5"),
    ({"kind": "fp-poly", "p": 5}, "t^"),
    ({"kind": "q-poly"}, "1/0"),
], ids=["z", "fp-poly", "q-poly"])
def test_cli_bad_element_names_its_entry(tmp_path, ring, bad, where):
    # the entry is a string, so only the ring's parser can refuse it
    stalk = {"ring": ring, "lo": 0, "ranks": [1, 2], "differentials": [[["0"], ["0"]]]}
    data = {"site": {"elements": ["a", "b"], "leq": [["a", "b"]]},
            "stalks": {"a": stalk, "b": json.loads(json.dumps(stalk))},
            "restrictions": {"a<=b": [[["1"]], [["1", "0"], ["0", "1"]]]}}
    if where == "differential":
        data["stalks"]["a"]["differentials"][0][1][0] = bad
        path = "$.stalks.a.differentials[0][1][0]"
    else:
        data["restrictions"]["a<=b"][1][1][0] = bad
        path = "$.restrictions.a<=b[1][1][0]"
    file = tmp_path / "sheaf.json"
    file.write_text(json.dumps(data))
    r = run_cli("validate", str(file))
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith(f"parse error: {path}: ") and r.stdout == "", r.stderr


BIG_PRIME = "100000000000000000000000000319"  # the least prime above 10**29


@pytest.mark.parametrize("where", ["json-xi", "--xi", "--char"])
def test_cli_large_prime_is_refused_before_trial_division(tmp_path, where):
    # trial division up to the square root of a 30-digit prime would not return
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"ring": {"kind": "z", "xi": BIG_PRIME}, "lo": 0, "ranks": [1]}))
    args = {"json-xi": ["validate", str(path)],
            "--xi": ["check-theorem", "--xi", BIG_PRIME],
            "--char": ["check-theorem", "--ring", "fp-poly", "--char", BIG_PRIME]}[where]
    r = subprocess.run([sys.executable, "-m", "decalage", *args],
                       capture_output=True, text=True, timeout=5)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "parse error" in r.stderr and "2**16" in r.stderr


@pytest.mark.parametrize("command", ["validate", "check-theorem"])
@pytest.mark.parametrize("key,value", [("hi", "x"), ("twist", "x"), ("ring", "z")])
def test_cli_malformed_complex_is_a_parse_error(tmp_path, command, key, value):
    data = {"ring": {"kind": "z", "xi": "2"}, "lo": 0, "ranks": [1], "differentials": []}
    data[key] = value
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    r = run_cli(command, str(path))
    assert r.returncode == 2, r.stdout + r.stderr
    assert "parse error" in r.stderr and r.stdout == ""
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("key,value", [
    ("ranks", "12"), ("twist", 1.7), ("twist", True), ("differentials", 3),
    ("differentials", None), ("lo", False), ("ranks", [1, 2.0]),
])
def test_cli_complex_fields_of_the_wrong_type_are_parse_errors(tmp_path, key, value):
    # with the right types this is a valid complex; a reader that coerces
    # (int("12") digit by digit, int(1.7), int(True)) would accept each case
    data = {"ring": {"kind": "z", "xi": "2"}, "lo": 0, "ranks": [1, 2],
            "differentials": [[["0"], ["2"]]]}
    data[key] = value
    path = tmp_path / "complex.json"
    path.write_text(json.dumps(data))
    r = run_cli("validate", str(path))
    assert r.returncode == 2, r.stdout + r.stderr
    assert "parse error" in r.stderr and r.stdout == ""
    assert "Traceback" not in r.stderr


def test_ring_description_must_be_an_object():
    with pytest.raises(RingElementError):
        ring_from_description("z")


@pytest.mark.parametrize("where", ["poset", "sheaf"])
@pytest.mark.parametrize("site, field", [
    ({"elements": "ab", "leq": []}, "elements"),
    ({"elements": ["a", "b"], "leq": ["ab"]}, "leq[0]"),
    # p <= "<=q" and "p<=" <= q would both be keyed "p<=<=q" in a sheaf file
    ({"elements": ["p", "p<=", "<=q", "q"], "leq": [["p", "<=q"], ["p<=", "q"]]}, "elements[1]"),
], ids=["elements-string", "leq-string", "name-with-leq"])
def test_cli_malformed_site_is_a_parse_error(tmp_path, where, site, field):
    path = tmp_path / "site.json"
    if where == "poset":
        path.write_text(json.dumps(site))
        r = run_cli("check-theorem", "--poset", str(path))
    else:
        data = two_point_sheaf()
        data["site"] = site
        path.write_text(json.dumps(data))
        r = run_cli("validate", str(path))
        field = f"site.{field}"
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stderr.startswith(f"parse error: $.{field}: ") and r.stdout == ""
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["check-theorem", "ss"])
@pytest.mark.parametrize("case", ["square-nonzero", "restriction-not-a-chain-map"])
def test_cli_invalid_instance_prints_the_validate_line(tmp_path, z3, command, case):
    path = tmp_path / "invalid.json"
    if case == "square-nonzero":
        path.write_text(json.dumps(complex_to_json(
            FreeComplex(z3, 0, [1, 1, 1], [Matrix(z3, [[1]]), Matrix(z3, [[1]])]))))
    else:
        # d = 3 on both stalks, and a restriction that is 1 in degree 0 and 0 in degree 1
        data = two_point_sheaf(restriction=[[["1"]], [["0"]]])
        for stalk in data["stalks"].values():
            stalk.update(ranks=[1, 1], differentials=[[["3"]]])
        path.write_text(json.dumps(data))
    line = run_cli("validate", str(path))
    assert line.returncode == 1 and line.stdout.startswith("invalid: ")
    r = run_cli(command, str(path))
    assert r.returncode == 1, r.stdout + r.stderr
    assert r.stdout == "" and r.stderr == line.stdout


@pytest.mark.parametrize("filtration", ["tau", "hodge"])
@pytest.mark.parametrize("pages", ["0", "-1"])
def test_cli_ss_needs_at_least_one_page(tmp_path, z3, filtration, pages):
    path = tmp_path / "shell.json"
    path.write_text(json.dumps(complex_to_json(
        FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[3]])]))))
    r = run_cli("ss", str(path), "--filtration", filtration, f"--pages={pages}")
    assert r.returncode == 2, r.stdout + r.stderr
    assert "--pages" in r.stderr and r.stdout == ""
    assert "Traceback" not in r.stderr


def test_cli_check_lemmas(tmp_path, z3):
    path = tmp_path / "shell.json"
    path.write_text(json.dumps(complex_to_json(
        FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[3]])]))))
    r = run_cli("check-lemmas", str(path))
    assert r.returncode == 0
    assert "all-passed" in r.stdout

    # corrupted differential: d*d != 0 is a violation, exit 1
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(complex_to_json(
        FreeComplex(z3, 0, [1, 1, 1],
                    [Matrix(z3, [[1]]), Matrix(z3, [[1]])]))))
    assert run_cli("check-lemmas", str(broken)).returncode == 1


def test_cli_check_theorem_exit_codes(tmp_path, z3):
    torsion = tmp_path / "torsion.json"
    torsion.write_text(json.dumps(complex_to_json(
        FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[3]])]))))
    r = run_cli("check-theorem", str(torsion))
    assert r.returncode == 3
    assert "hypotheses-not-met" in r.stdout

    r = run_cli("check-theorem", "--generate", "h1", "--count", "2",
                "--seed", "5")
    assert r.returncode == 0, r.stdout + r.stderr


def test_cli_check_theorem_reports_injected_bug(tmp_path, z3):
    # harness regression: a hypothesis-satisfying instance with a corrupted
    # comparison must exit 1 and print the full report
    path = tmp_path / "zero_diff.json"
    path.write_text(json.dumps(complex_to_json(
        FreeComplex(z3, 0, [1, 1], [Matrix.zeros(z3, 1, 1)]))))
    clean = run_cli("check-theorem", str(path))
    assert clean.returncode == 0
    # the fault is injected from here: a shifted image flag, then the CLI
    script = (
        "import sys\n"
        "import decalage.cli, decalage.theorem as theorem\n"
        "original = theorem.image_flag\n"
        "theorem.image_flag = lambda ctx, i, m_max: original(ctx, i, m_max).shifted(1)\n"
        f"sys.exit(decalage.cli.main(['check-theorem', {str(path)!r}]))\n"
    )
    r = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert r.returncode == 1
    assert "FAIL" in r.stdout


@pytest.mark.parametrize("command", ["check-lemmas", "check-theorem"])
@pytest.mark.parametrize("options", [
    ["--xi", "4"],
    ["--xi", "abc"],
    ["--ring", "fp-poly", "--char", "4"],
    ["--ring", "fp-poly", "--xi", "2"],
    ["--poset", "builtin:torus"],
    ["--poset", "{missing}"],
    ["--poset", "{not_json}"],
    ["--count", "0"],
    ["--count", "-2"],
    ["--max-degree", "0"],
    ["--max-rank", "0"],
    ["--ring", "z", "--char", "4", "--count", "1"],
    ["--ring", "q-poly", "--char", "1", "--count", "1"],
], ids=["xi-not-prime", "xi-not-integer", "char-not-prime", "poly-xi-not-t",
        "unknown-builtin", "poset-missing", "poset-not-json", "count-0",
        "count-negative", "max-degree-0", "max-rank-0", "char-with-z", "char-with-q-poly"])
def test_cli_bad_generation_options_are_parse_errors(tmp_path, command, options):
    not_json = tmp_path / "poset.txt"
    not_json.write_text("elements: a, b\n")
    paths = {"missing": tmp_path / "absent.json", "not_json": not_json}
    r = run_cli(command, "--generate", "h1",
                *(option.format_map(paths) for option in options))
    assert r.returncode == 2, r.stdout + r.stderr
    assert "parse error" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["check-lemmas", "check-theorem"])
@pytest.mark.parametrize("options", [
    ["--generate", "adversarial", "--count", "0", "--max-rank", "-5", "--seed", "3"],
    ["--seed", "0"],
    ["--ring", "z"],
    ["--poset", "builtin:point"],
], ids=["several", "seed-at-default", "ring-at-default", "poset"])
def test_cli_generation_options_with_a_path_are_parse_errors(command, options):
    r = run_cli(command, "point_torsion_example.json", *options)
    assert r.returncode == 2, r.stdout + r.stderr
    assert "parse error" in r.stderr and "generation option" in r.stderr
    assert "Traceback" not in r.stderr


@pytest.mark.parametrize("command", ["check-lemmas", "check-theorem"])
def test_cli_exhausted_generation_budget_exits_2(command):
    # on a point the random families cannot break H3 and no witness draw is mixed in
    r = run_cli(command, "--generate", "adversarial", "--poset", "builtin:point")
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr == "generation failed: profile 'adversarial' exhausted its budget of 64\n"


@pytest.mark.parametrize("command", ["check-lemmas", "check-theorem", "ss"])
@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
def test_cli_unwritable_out_is_an_input_error(tmp_path, monkeypatch, capsys, command, where):
    out = tmp_path / "absent" / "x.json" if where == "missing-dir" else tmp_path
    r = run_cli(command, "point_torsion_example.json", "--out", str(out))
    assert r.returncode == 2, r.stdout + r.stderr
    assert r.stdout == ""
    assert r.stderr.count("\n") == 1 and r.stderr.startswith("output error: ")
    assert str(out) in r.stderr
    assert not (tmp_path / "absent").exists()

    # the path is refused before any instance is read, generated or verified
    def never(*args, **kwargs):
        raise AssertionError("the run started before --out was checked")

    for name in ("load_instance_file", "generate_instance", "verify_main_theorem",
                 "sheaf_lemma_report", "ht_spectral_sequence"):
        monkeypatch.setattr(cli, name, never)
    assert cli.main([command, "point_torsion_example.json", "--out", str(out)]) == 2
    assert capsys.readouterr() == (r.stdout, r.stderr)


def test_cli_runs_the_bundled_fixtures_by_bare_name():
    fixtures = os.path.join(os.path.dirname(__file__), "..", "src", "decalage", "fixtures")
    with open(os.path.join(fixtures, "h3_failure_witness.json")) as fh:
        F = sheaf_from_json(json.load(fh)["instance"])
    r = run_cli("check-theorem", "h3_failure_witness.json", "--format", "json")
    assert r.returncode == 3, r.stderr
    (report,) = json.loads(r.stdout)["instances"]
    assert report.pop("instance") == "h3_failure_witness.json"
    from decalage.theorem import verify_main_theorem

    assert report == json.loads(json.dumps(verify_main_theorem(F).to_json()))

    with open(os.path.join(fixtures, "golden_free_z2_seed42.json")) as fh:
        frozen = json.load(fh)["lemma_report"]
    r = run_cli("check-lemmas", "golden_free_z2_seed42.json", "--format", "json")
    assert r.returncode == 0, r.stderr
    (report,) = json.loads(r.stdout)["instances"]
    assert report["checks"] == frozen["checks"] and report["passed"] == frozen["passed"]


def test_cli_closed_stdout_is_quiet():
    # the JSON report is larger than a pipe buffer, so the reader leaves mid-write
    args = ("check-theorem", "--count", "20", "--format", "json")
    want = run_cli(*args).returncode
    proc = subprocess.Popen([sys.executable, "-m", "decalage", *args],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    assert proc.stdout.readline() == "{\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait() == want
    assert "Traceback" not in err and "Exception" not in err, err


def test_cli_ss_renders_pages(tmp_path, z3):
    path = tmp_path / "shell.json"
    path.write_text(json.dumps(complex_to_json(
        FreeComplex(z3, 0, [1, 1], [Matrix(z3, [[3]])]))))
    r = run_cli("ss", str(path), "--filtration", "hodge")
    assert r.returncode == 0
    assert "nonzero" in r.stdout
    r2 = run_cli("ss", str(path), "--filtration", "tau", "--format", "json")
    assert r2.returncode == 0
    payload = json.loads(r2.stdout)
    assert payload["pages"][0]["r"] == 2


@pytest.mark.parametrize("filtration", ["hodge", "tau"])
def test_cli_ss_columns_stay_apart_past_three_digits(tmp_path, capsys, filtration):
    # labels of four digits widen their columns: each row's entries end where
    # the header's labels do, and no two labels run together
    path = tmp_path / "far.json"
    path.write_text(json.dumps({"ring": {"kind": "z", "xi": "2"}, "lo": 998, "ranks": [1, 1, 1, 1],
                                "differentials": [[["2"]], [["0"]], [["2"]]]}))
    assert cli.main(["ss", str(path), "--filtration", filtration, "--pages", "1"]) == 0
    header, *rows = [line for line in capsys.readouterr().out.splitlines()[1:]
                     if not line.startswith("  d_")]
    if filtration == "hodge":
        assert header.split() == ["q\\p", "998", "999", "1000", "1001"]
    else:
        assert [row.split()[0] for row in rows] == ["1001", "1000", "999", "998"]

    def ends(line):
        return [m.end() for m in re.finditer(r"\S+", line)]

    assert all(ends(row) == ends(header) for row in rows)


def test_cli_fixture_dir_env(tmp_path, z3):
    fdir = tmp_path / "fx"
    fdir.mkdir()
    (fdir / "inst.json").write_text(json.dumps(complex_to_json(
        FreeComplex(z3, 0, [1], []))))
    r = run_cli("validate", "inst.json", env={"DECALAGE_FIXTURES": str(fdir)})
    assert r.returncode == 0


def test_cli_reports_byte_identical(tmp_path):
    args = ("check-lemmas", "--generate", "h1", "--count", "2", "--seed", "9",
            "--format", "json")
    a = run_cli(*args)
    b = run_cli(*args)
    assert a.returncode == b.returncode == 0
    assert a.stdout == b.stdout

    args2 = ("check-theorem", "--generate", "h1", "--count", "1", "--seed", "4",
             "--format", "json")
    c = run_cli(*args2)
    d = run_cli(*args2)
    assert c.stdout == d.stdout and c.returncode == d.returncode


def test_golden_instance_regenerates(z2):
    fx = os.path.join(os.path.dirname(__file__), "..", "src", "decalage",
                      "fixtures", "golden_free_z2_seed42.json")
    with open(fx) as fh:
        frozen = json.load(fh)
    F = generate_instance("free", 42, ring=z2)
    assert sheaf_to_json(F) == frozen["instance"]
    from decalage.suites import sheaf_lemma_report
    from decalage.theorem import verify_main_theorem

    assert sheaf_lemma_report(F, "free-42") == frozen["lemma_report"]
    assert verify_main_theorem(F).to_json() == frozen["theorem_report"]


def test_cli_options_belong_to_their_commands():
    # validate takes no generation or output option, ss no generation option
    r = run_cli("validate", "point_torsion_example.json", "--seed", "3")
    assert r.returncode == 2
    assert "unrecognized arguments: --seed 3" in r.stderr
    r = run_cli("ss", "point_torsion_example.json", "--ring", "z")
    assert r.returncode == 2
    assert run_cli("validate", "point_torsion_example.json").returncode == 0
