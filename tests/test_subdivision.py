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

from decalage.complexes import ChainMap, FreeComplex
from decalage.instances import generate_instance
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.rmatrix import Matrix
from decalage.serialize import sheaf_from_json
from decalage.sites import InstanceContext, PosetSite, SheafComplex
from decalage.theorem import verify_main_theorem

from oracles import basis_free_report, sd_pullback

FIXTURES = os.path.join(os.path.dirname(__file__), "..", "src", "decalage", "fixtures")


def mixed_window_case(name):
    """A sheaf over Z, xi = 2, whose stalks have different degree windows."""
    z2 = IntegerRing(2)

    def cx(lo, ranks, *diffs):
        return FreeComplex(z2, lo, ranks, [Matrix(z2, d) for d in diffs])

    if name == "pseudo-circle":
        # the two maximal stalks start at degree 1
        low, high = cx(0, [1, 2], [[2], [0]]), cx(1, [1])
        scale = {("a", "c"): 1, ("a", "d"): 1, ("b", "c"): 1, ("b", "d"): 2}
        return SheafComplex(PosetSite.pseudo_circle(), {"a": low, "b": low, "c": high, "d": high},
                            {p: ChainMap(low, high, {1: Matrix(z2, [[0, v]])})
                             for p, v in scale.items()})
    wide, narrow = cx(0, [2, 1], [[2, 1]]), cx(0, [1])
    if name == "drop":  # degrees [0, 1] restrict to degrees [0, 0]
        a, b, f = wide, narrow, [[1, 0]]
    else:  # degrees [0, 0] restrict into the cocycles of degrees [0, 1]
        a, b, f = narrow, wide, [[1], [-2]]
    return SheafComplex(PosetSite.chain(2), {"c0": a, "c1": b},
                        {("c0", "c1"): ChainMap(a, b, {0: Matrix(z2, f)})})


MIXED_WINDOWS = ["mixed-window:drop", "mixed-window:rise", "mixed-window:pseudo-circle"]


def subdivision_case(case):
    if case.startswith("mixed-window:"):
        return mixed_window_case(case.split(":")[1])
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
    *MIXED_WINDOWS,
])
def test_theorem_report_is_invariant_under_subdivision(case):
    F = subdivision_case(case)
    G = sd_pullback(F)
    G.validate()
    assert len(G.site) > len(F.site)
    want = basis_free_report(verify_main_theorem(F).to_json())
    assert basis_free_report(verify_main_theorem(G).to_json()) == want


@pytest.mark.parametrize("case", MIXED_WINDOWS)
def test_bockstein_sheaf_of_mixed_windows_is_valid(case):
    # a restriction into a stalk without the degree is the empty matrix
    F = subdivision_case(case)
    F.validate()
    InstanceContext(F).bockstein_sheaf().validate()
