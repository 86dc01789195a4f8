"""Reports whose hypotheses fail: their bytes, and the work they skip.

An unasserted report still carries every field it reports, so its bytes are
pinned here, for generated ``free`` draws on four rings, ``adversarial``
draws and the bundled fixtures; the pool digests of the benchmark pin only
asserted reports.  Without H1 the theorem builds neither the reduction
identification nor the cokernel comparison, and the H3 check returns at its
first failing (i, m).
"""

import hashlib
import os

import pytest

from decalage import spectral, theorem
from decalage.instances import generate_instance
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.serialize import dump_json, load_instance_file
from decalage.sites import InstanceContext
from decalage.theorem import verify_main_theorem

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "decalage", "fixtures")

RINGS = {"z2": IntegerRing(2), "z3": IntegerRing(3),
         "f5t": PolynomialRing(PrimeField(5)), "qt": PolynomialRing(RationalField())}

# SHA-256 of the canonical report of free draws 0-19 on each ring,
# adversarial draws 0-2 over Z (xi = 2) and each bundled fixture
DIGESTS = {
    "z2": [
        "576a5ac1fac4bf312a729402d089b483144d1c8d18530e81c209c06694e9eab4",
        "5fcfc1eca82ad22bb8c35746575a207d261d6d0f76b0bf9c63baf2d147a02023",
        "9667af31a25d868756ee5c57bbb70dec0d7f28959b3d016d3dcbf951cbcaba2e",
        "b709dcfc633001bb64a7bca4fc55ad4127160eecb32dbfe4aba2147aeeaeb415",
        "6313ab66ca039a9479671d9bd7ae46d31705a6f81f1fb5353893dafed41584bd",
        "760858805d947b41f941c0b3f18a922ab169988c38ba6d4be6dff17fe262e2a2",
        "e1e70c9a84895c535bff3c4b6af18080054d30e8bd85450bc644b29e16faf18d",
        "5060993f46f35836e8156aa4a675679d01e2736e9f7091b526f4880ec6b7c184",
        "6370156fb14d589804b794ee1c788ab2130534225d56f1982b7a50fbbdf58cb1",
        "f42752da05aa7facc151a3ef3ae1d27fd83d080578b42908a785cf12e611b623",
        "1b283699dd522c2e592ee7d6a720ed810267c609428be02ac4becee268703386",
        "9c5c9f7e17b9c345be5cb0ef3eac0f07170586a413f253237bac3b0239a48dec",
        "fc9280bb46c88ea5048dea6ba7bda13623db3f0cd9e396b3a77a30ae9f639453",
        "ea8ee6ce13be075b2568e1b48bd0531ab224656f8a086762ce02bcec00d35177",
        "53d2e07185bd9a9208c9e535e0667abbe6e92cb8072c746ef2315320bbc2883d",
        "26167369608be9ec0f6da1e97fcc5afc133467d226dde2979ec14c94ac76a84c",
        "425943929ee940f31aad3b93f81451a49c14d75716d481c4e0565137db6391c6",
        "a438fab37ead9af9a97c4311d9c51f7ae71ad8e157ed949e45bc305ee34fae54",
        "8d43ba228de82e821cc99d0e86b2d40d09e46c2f5235c7383a4cdca642232088",
        "1b283699dd522c2e592ee7d6a720ed810267c609428be02ac4becee268703386",
    ],
    "z3": [
        "7bf16e1e7c08c727c6fb7bc39177365441ddfc2a1efaed81f39ad73f2d3cca40",
        "0904d4e90f3552f45a43c77970cfd1402dc8f43d61ff113afb9eec20ccedf9e9",
        "9667af31a25d868756ee5c57bbb70dec0d7f28959b3d016d3dcbf951cbcaba2e",
        "cd81050a34b48abf39bd5176fefb52ee5938a5cad3b04efe162915ecb815b0ca",
        "6313ab66ca039a9479671d9bd7ae46d31705a6f81f1fb5353893dafed41584bd",
        "42b0dbefc1f2cf3ddb21e55148a6d06c7033d01e1f5da61b4e637bfdec85061e",
        "3a29235242b73bfa76ee3fc02aef5f73901f981e9d40cb9ff6bd6792e0995488",
        "5060993f46f35836e8156aa4a675679d01e2736e9f7091b526f4880ec6b7c184",
        "6370156fb14d589804b794ee1c788ab2130534225d56f1982b7a50fbbdf58cb1",
        "aabeaed12b995ff579a9d14bbb0fa7fab8d1c8ab22c0c5d29cf6c60d7d6e667c",
        "1b283699dd522c2e592ee7d6a720ed810267c609428be02ac4becee268703386",
        "9c5c9f7e17b9c345be5cb0ef3eac0f07170586a413f253237bac3b0239a48dec",
        "4c5c5e230e2129916adb04ef300f889471fe5994df9a4c01010c00cfbed944b5",
        "ea8ee6ce13be075b2568e1b48bd0531ab224656f8a086762ce02bcec00d35177",
        "53d2e07185bd9a9208c9e535e0667abbe6e92cb8072c746ef2315320bbc2883d",
        "a3617bddafba3e5cb22851af4319d98fe11b3800012bf091761489a850f847c6",
        "5eb38d41c170cd8258633c32708bea9ba26b486888f0c1339d9fdd2ed16d6b85",
        "45612281f496d235ddfba4a8a2ba0dc854793d80600d598ea881bfc03b4c1a94",
        "df1672fcffa7e2936c6b49ebcf888a99f73e504ed44636fd815c960d3c750209",
        "1b283699dd522c2e592ee7d6a720ed810267c609428be02ac4becee268703386",
    ],
    "f5t": [
        "e3450e84a22f966a2a2e409c3821fb7f5e2771b256687401f76b8da97f863f63",
        "acb01ce203d22d93a68a3f3f5d950bf8436036b76fb5d3673964d7232f2cbd54",
        "9667af31a25d868756ee5c57bbb70dec0d7f28959b3d016d3dcbf951cbcaba2e",
        "b38b3b52ec4458206ca5b92bb9d7c20616105919074b912ab52349922ea3fe4d",
        "9cc34fc09550bfa305bd23e8d45e83ea3b17c525b8b86fe11671174b64fa30de",
        "2df9467bb9306546659ecdb268095c689e55736a420d6317083473bbfd8de3c3",
        "37b952375502b2e6311cff7614422ef1ff4809ed155408442d62189c4d50dfc7",
        "5060993f46f35836e8156aa4a675679d01e2736e9f7091b526f4880ec6b7c184",
        "6370156fb14d589804b794ee1c788ab2130534225d56f1982b7a50fbbdf58cb1",
        "53d1ed895b339215feacf4afc3a003620acf0fe9ae1af244b961f627c682c223",
        "1b283699dd522c2e592ee7d6a720ed810267c609428be02ac4becee268703386",
        "9c5c9f7e17b9c345be5cb0ef3eac0f07170586a413f253237bac3b0239a48dec",
        "7e17a6357d47fd10767381955ba3a72af6330966817c59a719cfee7db109b0d1",
        "ea8ee6ce13be075b2568e1b48bd0531ab224656f8a086762ce02bcec00d35177",
        "53d2e07185bd9a9208c9e535e0667abbe6e92cb8072c746ef2315320bbc2883d",
        "9aa1ad505febb2677ec9cf297a59f3ecebff8c742d6965558a7740a18663a82d",
        "d2234a0e6a91e5926682a3253f93896f7b086158bc7f1584e2a967c1ee59ce67",
        "4812245bbe777172bd71a5069290759240a27abd38cdce6a105d9f05dec03cc8",
        "37b67db6628e9d3cec1d6724191aa56edd8ceee3640c3c819dad96a01f0f74fd",
        "1b283699dd522c2e592ee7d6a720ed810267c609428be02ac4becee268703386",
    ],
    "qt": [
        "d88df9fb62fd80856a90078dcf33b2f0e2236d6a14d34dbc9c6d782de05df775",
        "babadd0ad53c8eeaec854a0e416501e36ef64b260d0ec914c41f8646d4c628ea",
        "9667af31a25d868756ee5c57bbb70dec0d7f28959b3d016d3dcbf951cbcaba2e",
        "ea2b1ef12774770da389c08f509e551fa8dd0db8e8e4a1bbaf3aff463228af38",
        "943d73993bed4853cdfe4bc0577be57a030e2333862b471323eae5e375982efb",
        "2df9467bb9306546659ecdb268095c689e55736a420d6317083473bbfd8de3c3",
        "729ef65276b5f7611719b89b16c8d8f3347b8f14f931468f89101cd31930e58f",
        "5060993f46f35836e8156aa4a675679d01e2736e9f7091b526f4880ec6b7c184",
        "6370156fb14d589804b794ee1c788ab2130534225d56f1982b7a50fbbdf58cb1",
        "53d1ed895b339215feacf4afc3a003620acf0fe9ae1af244b961f627c682c223",
        "1b283699dd522c2e592ee7d6a720ed810267c609428be02ac4becee268703386",
        "9c5c9f7e17b9c345be5cb0ef3eac0f07170586a413f253237bac3b0239a48dec",
        "ff71e10a545c7da3f20c4eda9d644e49291ae085003123292252a161210ddc25",
        "ea8ee6ce13be075b2568e1b48bd0531ab224656f8a086762ce02bcec00d35177",
        "53d2e07185bd9a9208c9e535e0667abbe6e92cb8072c746ef2315320bbc2883d",
        "9aa1ad505febb2677ec9cf297a59f3ecebff8c742d6965558a7740a18663a82d",
        "d2234a0e6a91e5926682a3253f93896f7b086158bc7f1584e2a967c1ee59ce67",
        "53e7634e630dc349b21921033d501dca9b75ad572d71848b227f74d610cb2b62",
        "4ed863c2cfb9601dc1d467c400eaed76733d89ef4ed31032db13ee753d891983",
        "1b283699dd522c2e592ee7d6a720ed810267c609428be02ac4becee268703386",
    ],
}
ADVERSARIAL_Z2 = [
    "1670834983f2a878b503709ac94b8ed85c8a68916b2dce99becba598605cc8d9",
    "1670834983f2a878b503709ac94b8ed85c8a68916b2dce99becba598605cc8d9",
    "1670834983f2a878b503709ac94b8ed85c8a68916b2dce99becba598605cc8d9",
]
FIXTURES = {
    "golden_free_z2_seed42.json":
        "37354ee2870dc7e632472f64638e2b24fbd67d2d343debd379b15e796b9469ac",
    "h3_failure_witness.json":
        "1670834983f2a878b503709ac94b8ed85c8a68916b2dce99becba598605cc8d9",
    "point_torsion_example.json":
        "77e90a1b226c47a222288e07c8aae670954a2949ac00afb98288578cf4a8fc5e",
}


def report_digest(F) -> str:
    return hashlib.sha256(dump_json(verify_main_theorem(F).to_json()).encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_free_draw_reports_keep_their_bytes(name):
    got = [report_digest(generate_instance("free", s, ring=RINGS[name])) for s in range(20)]
    assert got == DIGESTS[name]


def test_adversarial_draw_reports_keep_their_bytes():
    got = [report_digest(generate_instance("adversarial", s, ring=RINGS["z2"]))
           for s in range(3)]
    assert got == ADVERSARIAL_Z2


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_fixture_reports_keep_their_bytes(name):
    assert report_digest(load_instance_file(os.path.join(FIXTURE_DIR, name))) == FIXTURES[name]


def test_without_h1_no_reduction_identification_or_cokernel_comparison(monkeypatch):
    F = generate_instance("free", 0, ring=RINGS["z2"])

    def refuse(*args):
        raise AssertionError("built without H1")

    monkeypatch.setattr(theorem, "compare_degeneration", refuse)
    monkeypatch.setattr(theorem, "reduction_iso_matrices", refuse)
    report = verify_main_theorem(F)
    assert report.hypotheses["H1"]["holds"] is False and not report.asserted
    # the lattice flags are still reported where a degree is torsion-free
    assert sum("bb_flag" in entry for entry in report.flags.values()) == 3
    checks = {c.name: c for c in report.checks}
    for name in ("torsion-free.eta-m-global", "main.reduction-identification",
                 "degeneration.coker-comparison", "degeneration.ht-vs-hdr"):
        assert checks[name].passed and not checks[name].failures


def test_h3_check_stops_at_its_witness(monkeypatch):
    F = load_instance_file(os.path.join(FIXTURE_DIR, "h3_failure_witness.json"))
    ctx = InstanceContext(F)
    calls = []
    induced = spectral.k_induced_matrix

    def record(ctx, cm, i):
        calls.append((cm, i))
        return induced(ctx, cm, i)

    monkeypatch.setattr(spectral, "k_induced_matrix", record)
    holds, witness, agrees = spectral.degeneration_check_HT(ctx)
    assert (holds, witness, agrees) == (False, (2, 0), True)
    Fbar = ctx.reduced()
    level = {id(ctx.sections_map(ctx.truncation_sheaf(m))): m
             for m in range(Fbar.lo(), Fbar.hi() + 1)}
    visited = [(i, level[id(cm)]) for cm, i in calls]
    assert visited[-1] == witness and visited.count(witness) == 1
    assert len(visited) == 2
