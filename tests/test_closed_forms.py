"""Stage modules and sheaf tables against closed forms that owe nothing to the engine.

The generators build every complex as a conjugated sum of elementary pieces,
and each piece's stages have a closed form (``oracles.piece_stage_cyclics``).
The draw is replayed from the same seed to read its pieces, the predicted
modules are normalized by gcds of minors, never by the library's Smith
form, and compared with the stage cohomology the library computes.  On a
constant sheaf the stage table of ``check_torsionfree_eta_m`` is predicted
by Künneth from the site's Betti numbers.  Each comparison has a negative
control that must fail, so a vacuous oracle shows.
"""

import random

import pytest

from decalage.bockstein import Memo
from decalage.instances import _random_pieces, conjugated_constant_sheaf, random_complex
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.sites import InstanceContext, PosetSite
from decalage.theorem import check_torsionfree_eta_m
from oracles import cyclic_sum_module, kunneth_cyclics, piece_stage_cyclics

RINGS = {"z2": IntegerRing(2), "z3": IntegerRing(3), "z5": IntegerRing(5),
         "f5t": PolynomialRing(PrimeField(5)), "qt": PolynomialRing(RationalField())}

# Betti numbers of the builtin sites: contractible, the circle, the 2-sphere
BETTI = {"point": [1], "chain3": [1], "pseudo-circle": [1, 1], "sphere": [1, 0, 1]}


def drawn_complex(ring, seed, max_degree, max_rank):
    """(K, pieces, hi): ``random_complex``'s draw and the pieces it summed."""
    rng = random.Random(seed)
    replay = random.Random(seed)
    K = random_complex(ring, rng, max_degree, max_rank)
    hi = replay.randint(1, max_degree)
    return K, _random_pieces(ring, replay, hi, max_rank, False), hi


def stage_mismatches(ring, count, exponent=True):
    """(modules compared, mismatches) over ``count`` draws, stages 0 .. hi + 2."""
    seen = bad = 0
    for seed in range(count):
        K, pieces, hi = drawn_complex(ring, seed, max_degree=4, max_rank=4)
        ctx = Memo()
        for m in range(hi + 3):
            predicted = piece_stage_cyclics(ring, pieces, hi, m, exponent)
            stage = ctx.stage(K, m).source
            for i in K.degrees():
                seen += 1
                bad += ctx.module(stage, i) != cyclic_sum_module(ring, *predicted[i])
    return seen, bad


@pytest.mark.parametrize("name", sorted(RINGS))
def test_stage_modules_of_pieces_match_the_closed_form(name):
    seen, bad = stage_mismatches(RINGS[name], 120)
    assert seen > 1000 and bad == 0


def test_stage_closed_form_without_the_exponent_fails():
    assert stage_mismatches(RINGS["z2"], 40, exponent=False)[1] > 0


def table_mismatches(ring, count, betti=BETTI):
    """(entries compared, mismatches) of the stage tables of constant sheaves."""
    seen = bad = 0
    sites = sorted(BETTI)
    for seed in range(count):
        K, pieces, hi = drawn_complex(ring, seed, max_degree=2, max_rank=2)
        site = sites[seed % len(sites)]
        F = conjugated_constant_sheaf(PosetSite.builtin(site), K, random.Random(seed))
        table = check_torsionfree_eta_m(InstanceContext(F))
        for m in range(hi + 2):
            predicted = kunneth_cyclics(piece_stage_cyclics(ring, pieces, hi, m), betti[site])
            for i, cyclics in predicted.items():
                want = cyclic_sum_module(ring, *cyclics)
                row = table.get((i, m))
                got = row["invariants"] if row else {"free_rank": 0, "factors": []}
                seen += 1
                bad += got != want.describe()
    return seen, bad


@pytest.mark.parametrize("name", sorted(RINGS))
def test_constant_sheaf_stage_tables_match_kunneth(name):
    seen, bad = table_mismatches(RINGS[name], 40)
    assert seen > 400 and bad == 0


def test_kunneth_with_the_sphere_read_as_a_circle_fails():
    circle = dict(BETTI, sphere=[1, 1])
    assert table_mismatches(RINGS["z2"], 40, circle)[1] > 0
