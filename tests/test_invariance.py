"""Quasi-isomorphism invariance of the stages.

L eta_xi takes quasi-isomorphisms between complexes of xi-torsion-free
modules to quasi-isomorphisms (Bhatt-Morrow-Scholze, Integral p-adic Hodge
theory, 2018, section 6).  Over a PID, adding a contractible summand
R --1--> R and changing the basis is the basic move between homotopy
equivalent free complexes, so the cohomology of every stage and every
verdict of the lemma battery must survive it.  A summand R --xi--> R is not
contractible and adds xi-torsion to H^{j+1}: the same comparison must see it.

The same holds on sheaves: a random stalkwise base change of F (+) C, with C
the constant sheaf of R --1--> R, must leave every basis-free field of the
theorem report as it is on F, and a constant R --xi--> R must change it.

The sweeps are seeded, so every run checks the same complexes and sheaves.
"""

import random

import pytest

from decalage.bockstein import Memo
from decalage.complexes import FreeComplex
from decalage.instances import (
    conjugate_complex,
    conjugate_sheaf,
    generate_instance,
    random_complex,
)
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.rmatrix import Matrix
from decalage.sites import PosetSite, SheafComplex
from decalage.suites import lemma_battery
from decalage.theorem import verify_main_theorem

from oracles import basis_free_report, direct_sum, sheaf_direct_sum

RINGS = {"z2": IntegerRing(2), "z3": IntegerRing(3), "z5": IntegerRing(5),
         "f5t": PolynomialRing(PrimeField(5)), "qt": PolynomialRing(RationalField())}
SEEDS = range(20)


def stage_modules(K: FreeComplex) -> dict:
    """The invariants of H^i of every stage m = 0 .. hi + 2, by (m, i)."""
    ctx = Memo()
    return {(m, i): ctx.module(ctx.stage(K, m).source, i)
            for m in range(0, K.hi + 3) for i in K.degrees()}


def verdicts(K: FreeComplex) -> list:
    return [(r.name, r.passed) for r in lemma_battery(K)]


def with_summand(K: FreeComplex, c, rng) -> FreeComplex:
    """A random base change of K (+) (R --c--> R) at degrees (j, j + 1), 0 <= j < hi."""
    j = rng.randrange(K.hi)
    shell = FreeComplex(K.ring, j, [1, 1], [Matrix(K.ring, [[c]])])
    return conjugate_complex(direct_sum(K, shell), rng)[0]


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_stages_survive_a_contractible_summand_and_a_base_change(ring):
    R = RINGS[ring]
    for seed in SEEDS:
        rng = random.Random(seed)
        K = random_complex(R, rng, max_degree=3, max_rank=3)
        moved = with_summand(K, R.one(), rng)
        assert (moved.lo, moved.hi) == (K.lo, K.hi)
        assert stage_modules(moved) == stage_modules(K), seed
        assert verdicts(moved) == verdicts(K), seed


@pytest.mark.parametrize("ring", sorted(RINGS))
def test_a_xi_summand_is_seen(ring):
    # the negative control: R --xi--> R is not contractible
    R = RINGS[ring]
    for seed in SEEDS:
        rng = random.Random(seed)
        K = random_complex(R, rng, max_degree=3, max_rank=3)
        assert stage_modules(with_summand(K, R.xi, rng)) != stage_modules(K), seed


SHEAF_RINGS = ("f5t", "qt", "z2", "z3")
SITES = ("point", "chain3", "pseudo-circle", "sphere")
SHEAF_SEEDS = range(2)


def draws(R) -> list:
    """``h1`` draws on every builtin site and ``adversarial`` draws on the sphere."""
    return [(f"{profile}:{site}:{seed}",
             generate_instance(profile, seed, ring=R, site=PosetSite.builtin(site)))
            for seed in SHEAF_SEEDS
            for profile, site in [("h1", s) for s in SITES] + [("adversarial", "sphere")]]


def report(F: SheafComplex) -> dict:
    return basis_free_report(verify_main_theorem(F).to_json())


def with_constant_summand(F: SheafComplex, c, rng) -> SheafComplex:
    """A random stalkwise base change of F (+) (the constant R --c--> R at (j, j + 1))."""
    j = rng.randrange(F.lo(), F.hi())
    shell = FreeComplex(F.ring, j, [1, 1], [Matrix(F.ring, [[c]])])
    return conjugate_sheaf(sheaf_direct_sum(F, SheafComplex.constant(F.site, shell)), rng)


@pytest.mark.parametrize("ring", SHEAF_RINGS)
def test_theorem_reports_survive_a_contractible_summand_and_a_base_change(ring):
    R = RINGS[ring]
    for name, F in draws(R):
        rng = random.Random(name)
        want = report(F)
        assert report(with_constant_summand(F, R.one(), rng)) == want, name
        # the negative control: a constant R --xi--> R adds xi-torsion
        assert report(with_constant_summand(F, R.xi, rng)) != want, name
