"""Invariance under barycentric subdivision.

The last-vertex map sd(P) -> P is homotopy initial, so a sheaf and its
pullback to sd(P) have the same cohomology, and every stage, truncation and
Hodge piece is built stalkwise.  Every basis-free field of the theorem report
must therefore agree on the two, along routes through sections complexes of
another shape and size.
"""

import json
import os

import pytest

from decalage.instances import generate_instance
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.serialize import sheaf_from_json
from decalage.sites import PosetSite
from decalage.theorem import verify_main_theorem

from oracles import basis_free_report, sd_pullback

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "decalage", "fixtures")


def subdivision_case(case):
    if case == "h3_failure_witness":
        with open(os.path.join(FIXTURES, "h3_failure_witness.json")) as fh:
            return sheaf_from_json(json.load(fh)["instance"])
    profile, site, ring, seed = case.split(":")
    ring = {"z2": IntegerRing(2), "f5t": PolynomialRing(PrimeField(5)),
            "qt": PolynomialRing(RationalField())}[ring]
    return generate_instance(profile, int(seed), ring=ring, site=PosetSite.builtin(site))


@pytest.mark.parametrize("case", [
    "h1:pseudo-circle:z2:4",
    "h1:pseudo-circle:qt:3",
    "h1:chain3:f5t:2",
    "h1:sphere:z2:1",
    "h3_failure_witness",
    "adversarial:sphere:z2:2",
    "free:pseudo-circle:z2:12",  # H1 fails, and HdR with a witness
    "free:chain3:f5t:1",
])
def test_theorem_report_is_invariant_under_subdivision(case):
    F = subdivision_case(case)
    G = sd_pullback(F)
    G.validate()
    assert len(G.site) > len(F.site)
    want = basis_free_report(verify_main_theorem(F).to_json())
    assert basis_free_report(verify_main_theorem(G).to_json()) == want
