"""Site-scale reports, pinned by the SHA-256 of their canonical JSON.

The benchmark's pool digests pin reports on the small builtin sites.  These
pins cover the larger inputs that only big sites produce: ``h1`` draws on
``chain(7)``, on ``chain(8)``, on the sphere and on its barycentric
subdivision (the sphere draw pulled back with ``oracles.sd_pullback``), over
Z (xi = 2), F5[t] and Q[t], plus the spectral pages that ``decalage ss``
prints for the ``h1`` seed-1 instance of each ring.  Over Z/2, seeds 3 and 4
give seed 1's report on both ``chain(7)`` and sd(sphere), so they are left
out.  A moved digest means that a basis has become visible in an output or
that an answer changed: find out which, and do not re-record.
"""

import hashlib

import pytest

from decalage import cli
from decalage.instances import generate_instance
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField, make_ring
from decalage.serialize import dump_json, sheaf_to_json
from decalage.sites import PosetSite
from decalage.theorem import verify_main_theorem
from oracles import sd_pullback

RINGS = {"z2": IntegerRing(2), "f5t": PolynomialRing(PrimeField(5)),
         "qt": PolynomialRing(RationalField())}

# (ring, site, seed): SHA-256 of dump_json(verify_main_theorem(F).to_json())
REPORT_DIGESTS = {
    ("z2", "chain7", 1): "90c468738d3b89e43f33dba71a28aa9ed6548270097935334dd0faa4d13e87d4",
    ("z2", "chain7", 2): "ea6c7f598429cef46d01f865828a98abbe6ca614b0ab9142fb53a2db595e97a3",
    ("z2", "chain7", 5): "6c1686f3b32fccff67e9eacc6203ca4e0e44049867980b711f696e074d802ca4",
    ("z2", "chain7", 6): "6f11015236ef2e215bd1745d8f24e93e8e34edc7471dff8fe73b09ea6a4d4891",
    ("z2", "chain7", 7): "4b52ad2b5c49ded709de3f58478e835f32fce9b41236f0a68263e877864edc60",
    ("z2", "chain7", 8): "20411c52b875d77b6ca5aef24587a969070e61447e25af2213417b3447bd844e",
    ("z2", "sd-sphere", 1): "f6763dd4b77d6931b8526b6a2e9eeac085e8f123373586db5afcaca8be420639",
    ("z2", "sd-sphere", 2): "fb602b6d244f1f27c95da3c713d5e252b6aa35fe2d056ae32d0615ef44aa5e05",
    ("z2", "sd-sphere", 5): "44eb7d0e4f1b0ae786ec0482ef088b17d6961c50a145a2fdb42e32d27a0b20ab",
    ("z2", "sd-sphere", 6): "2c62a3dae86fa657a4ccbdde415779d40dc3af6e6606f5c8b3b6e4785f9361af",
    ("z2", "sd-sphere", 7): "760260c998c7f98e21f702f94aea69e6768de8aad9590837c23e3c449fea2e34",
    ("z2", "sd-sphere", 8): "d052f732453817848f16121a4e0eab088d26c5d6263ca13ff9b57de2ef38adfc",
    ("z2", "chain8", 1): "d52dfdf39dcfaaf91074c421dfb8bda772fde7adf490c7ee386e3dd0e347bec8",
    ("z2", "sphere", 1): "f6763dd4b77d6931b8526b6a2e9eeac085e8f123373586db5afcaca8be420639",
    ("z2", "sphere", 2): "b9f213b5718400ec7de599f67afd45e226e44fb8a3612755f6e1c7bf558e3a79",
    ("f5t", "chain7", 1): "610782311a854c5616f06c2a56e1217977d92e3521028058220298d026811820",
    ("f5t", "chain7", 2): "ea6c7f598429cef46d01f865828a98abbe6ca614b0ab9142fb53a2db595e97a3",
    ("f5t", "chain7", 3): "d8674ed2ff2f9094f99bb34bb9cd2d1222e4bf8df8fb7d6c34bfb889710c14bc",
    ("f5t", "sd-sphere", 1): "b690134712e3da69ac0c7741d8424814a1399a8a14455d1ba500ad4ace6cdff7",
    ("f5t", "sd-sphere", 2): "84973819b055eca22070aaf343e5989c0575776cfc65f9485ab9d65cec098c26",
    ("f5t", "sd-sphere", 3): "486439f97a820a1a76ba3faef9e5d2c79482ae6dab6b47cc603fc3c34f48d72f",
    # a flag that sees the order of the quotient representatives: swapping the
    # first two moves this digest, where it moves none of the others
    ("f5t", "sd-sphere", 37): "b0da13440f38bfebc1ee395554d1d6657628f2eaaec47455c4c947dfe69cd790",
    ("qt", "chain7", 3): "79ce6648c4c5a8087baee7764b61a6324442fc53a10356107e8506bafa8eae54",
}

# (ring, filtration): SHA-256 of the file `decalage ss --format json --out` writes
SS_DIGESTS = {
    ("z", "tau"): "6aee797bb42880b9beaae4b1120f1f558e3e159d289a030e80055574b94a8735",
    ("z", "hodge"): "6001a1c11ab129e5ed8b5beb300c104ea3cb570a278b5a5467663befc7aaa7e3",
    ("fp-poly", "tau"): "dc40755e5a3080c14f150b9ca5f5fe44cfb902121613bd78ebb1c8b7ed7b635c",
    ("fp-poly", "hodge"): "9b709568101c36eb8c93ed829c16e6dc7972a689739296ae0f9f1b85f1d9b8e7",
    ("q-poly", "tau"): "dc40755e5a3080c14f150b9ca5f5fe44cfb902121613bd78ebb1c8b7ed7b635c",
    ("q-poly", "hodge"): "9b709568101c36eb8c93ed829c16e6dc7972a689739296ae0f9f1b85f1d9b8e7",
}


def site_instance(ring: str, site: str, seed: int):
    R = RINGS[ring]
    if site.startswith("chain"):
        return generate_instance("h1", seed, ring=R, site=PosetSite.chain(int(site[5:])))
    F = generate_instance("h1", seed, ring=R, site=PosetSite.sphere())
    return sd_pullback(F) if site == "sd-sphere" else F


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(REPORT_DIGESTS), ids=lambda c: "-".join(map(str, c)))
def test_site_scale_report_is_pinned(case):
    report = verify_main_theorem(site_instance(*case))
    assert report.asserted and report.passed
    assert sha256(dump_json(report.to_json())) == REPORT_DIGESTS[case]


@pytest.mark.parametrize("case", sorted(SS_DIGESTS), ids="-".join)
def test_spectral_pages_are_pinned(case, tmp_path):
    ring, filtration = case
    path, out = tmp_path / "instance.json", tmp_path / "pages.json"
    path.write_text(dump_json(sheaf_to_json(generate_instance("h1", 1, ring=make_ring(ring)))))
    status = cli.main(["ss", str(path), "--filtration", filtration, "--format", "json",
                       "--out", str(out)])
    assert status == cli.EXIT_PASS
    assert sha256(out.read_text()) == SS_DIGESTS[case]
