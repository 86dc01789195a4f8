"""The CLI sweep, pinned: exit code and SHA-256 of stdout and stderr per command.

Each command runs in-process through ``cli.main``: every subcommand on the
three bundled fixtures, the generated ``check-theorem`` and ``check-lemmas``
runs on each ring (the Q[t] rank-8 lemma reports among them, which no other
test sees), and the two commands whose adversarial generation exhausts its
budget.  The generated runs print JSON: a lemma report's JSON lists every
check with its failures, where its text form prints only the verdicts.  A
moved pin means an output changed: find out why, and do not re-record.
"""

import hashlib

import pytest

from decalage import cli

FIXTURES = ["point_torsion_example.json", "h3_failure_witness.json",
            "golden_free_z2_seed42.json"]
FIXTURE_COMMANDS = [["validate"], ["check-theorem"], ["check-lemmas"],
                    ["ss", "--filtration", "tau"], ["ss", "--filtration", "hodge"]]
RINGS = [["--ring", "z"], ["--ring", "z", "--xi", "3"], ["--ring", "fp-poly"],
         ["--ring", "q-poly"]]
GENERATED = [
    ["check-theorem", "--generate", "h1", "--count", "3", "--format", "json"],
    ["check-theorem", "--generate", "free", "--count", "3", "--format", "json"],
    ["check-theorem", "--generate", "adversarial", "--count", "3", "--format", "json"],
    ["check-lemmas", "--generate", "free", "--max-degree", "3", "--max-rank", "8",
     "--count", "3", "--format", "json"],
]

COMMANDS = (
    [cmd[:1] + [path] + cmd[1:] for path in FIXTURES for cmd in FIXTURE_COMMANDS]
    + [cmd + ring for cmd in GENERATED for ring in RINGS]
    + [[cmd, "--generate", "adversarial", "--poset", "builtin:point"]
       for cmd in ("check-lemmas", "check-theorem")]
)

# " ".join(argv): (exit code, SHA-256 of stdout, SHA-256 of stderr)
PINS = {
    'validate point_torsion_example.json':
        (0, '34477f9ac0dcf7d3aab26c248fc2f6c4efb2a67c02069efe89db9742d2e0fbc0',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem point_torsion_example.json':
        (3, 'd366d2e609edb37dee3e0af6e2b5e36add997f4a07727b5da9a383a706072056',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-lemmas point_torsion_example.json':
        (0, 'd3cabb554422c96fb9003208bb0e845e080662fc2d0f414385601d61d83aeb25',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'ss point_torsion_example.json --filtration tau':
        (0, '5a72b61e635594ef5a59a528643475f180d98718f9c8fee756d75afd7c185c67',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'ss point_torsion_example.json --filtration hodge':
        (0, '4a0c613bf8f8e16764792a7530eaa2b7338691d9e0f48fdd047bdb5c6693f12f',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'validate h3_failure_witness.json':
        (0, '54365553a11aa680a99d3c95aa5cf8fc1bc044dc69bd1cf026a812e3b8fce040',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem h3_failure_witness.json':
        (3, 'c6129db366e7dc084a5237af649585f9012b1f724645f13d5232b75c76a1d4fd',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-lemmas h3_failure_witness.json':
        (0, 'f8543155dac317ba40b4a8f84fe4bf19eea09ffe65d52dba020bacb5adc30d0a',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'ss h3_failure_witness.json --filtration tau':
        (0, 'fb40135c6347e9dbaf3011684e610e582705c486e064f67732e4a765232869d3',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'ss h3_failure_witness.json --filtration hodge':
        (0, 'db76031173f846ccfc7606ca7e9ef7cab65290b6c15da7056af2189727295147',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'validate golden_free_z2_seed42.json':
        (0, 'aaba0f6478a001d3174cb62736a224cf946ef4eb79d29f31b4cd2a56a2d71219',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem golden_free_z2_seed42.json':
        (3, '8f230f8c12f4efd80f9bad80493ed99206c0bc3631641fb451af104fb4c835dc',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-lemmas golden_free_z2_seed42.json':
        (0, 'fbecbea5f7975b56a3050a9a12a597a32ba8a0f9d4a701f3337265e6a1a2c625',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'ss golden_free_z2_seed42.json --filtration tau':
        (0, '5a72b61e635594ef5a59a528643475f180d98718f9c8fee756d75afd7c185c67',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'ss golden_free_z2_seed42.json --filtration hodge':
        (0, '4a0c613bf8f8e16764792a7530eaa2b7338691d9e0f48fdd047bdb5c6693f12f',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate h1 --count 3 --format json --ring z':
        (0, '3c5564f1a4afaa10ca21904e478d5db191bfaf38774086b34b02a09ef829cbe5',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate h1 --count 3 --format json --ring z --xi 3':
        (0, 'e30494a6614c47d335c210d626101e1d9bb23f5f5d9eb6a5052b4cac2f68e5ac',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate h1 --count 3 --format json --ring fp-poly':
        (0, 'eb478b708d141f5ca82cea7520e4ebc68c4acadfe7ea8c207d33ffa9c051c48a',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate h1 --count 3 --format json --ring q-poly':
        (0, 'b7f7003cadf2e147778392829f5b9ece0709477d1fecd3bc26d8af5886459cf0',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate free --count 3 --format json --ring z':
        (3, 'c6a9c1964b93ae175e495d509c96588efa6bda2d60bae48bc71c47827bc02a7d',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate free --count 3 --format json --ring z --xi 3':
        (3, 'df9b7e931795d80385eb02ae388c78432e8d931923e5ec89170f0ccc9d404787',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate free --count 3 --format json --ring fp-poly':
        (3, '83d2a67f7acea4e2b9e7762b02b55e72a2a10a6e6c131db64dba64d682113852',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate free --count 3 --format json --ring q-poly':
        (3, 'a0e8e0d7720873b3cfdeea36bd16c32d8028ee88995bd2c7a566418cb8c9ef9c',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate adversarial --count 3 --format json --ring z':
        (3, 'c1dd40e66f49c3e29be0f87bef3e2009bb3af8300f4eb1c6f4f322c33b127b32',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate adversarial --count 3 --format json --ring z --xi 3':
        (3, '2bd8d88fa044d2bd0d3a28cb1f3762e81dadc9ec5d6a0014d259b9626007e733',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate adversarial --count 3 --format json --ring fp-poly':
        (3, 'da00058656d4e07a11d0ba0442cfebda704f0a1b07c920047a0fcd4258f21408',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-theorem --generate adversarial --count 3 --format json --ring q-poly':
        (3, 'af7dc02337532fb9790903e01f8dcdb02aeae64640542a0478247898c8e5120f',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-lemmas --generate free --max-degree 3 --max-rank 8 --count 3 --format json --ring z':
        (0, '97efb118f393ff800af51876f747b44be5948fddd775cd468de76c2ed36d300e',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-lemmas --generate free --max-degree 3 --max-rank 8 --count 3 --format json --ring z --xi 3':
        (0, '97efb118f393ff800af51876f747b44be5948fddd775cd468de76c2ed36d300e',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-lemmas --generate free --max-degree 3 --max-rank 8 --count 3 --format json --ring fp-poly':
        (0, '97efb118f393ff800af51876f747b44be5948fddd775cd468de76c2ed36d300e',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-lemmas --generate free --max-degree 3 --max-rank 8 --count 3 --format json --ring q-poly':
        (0, '97efb118f393ff800af51876f747b44be5948fddd775cd468de76c2ed36d300e',
         'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855'),
    'check-lemmas --generate adversarial --poset builtin:point':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'b1560e526307343881912ebfbb5594671b0cc74b20b1d4a363acf59153cb2731'),
    'check-theorem --generate adversarial --poset builtin:point':
        (2, 'e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855',
         'b1560e526307343881912ebfbb5594671b0cc74b20b1d4a363acf59153cb2731'),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def run(argv, capsys):
    code = cli.main(argv)
    out, err = capsys.readouterr()
    return code, sha256(out), sha256(err)


def test_the_sweep_has_every_command_once():
    assert len(COMMANDS) == 33
    assert sorted(PINS) == sorted(" ".join(argv) for argv in COMMANDS)


@pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
def test_cli_output_is_pinned(argv, capsys):
    assert run(argv, capsys) == PINS[" ".join(argv)]
