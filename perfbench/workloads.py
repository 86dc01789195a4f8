"""The workloads: item pools, seeded corpus selection and checked item runs.

Every workload draws its items from two fixed pools of generator seeds, a
development pool and a held-out pool.  ``reference/<workload>.json`` records,
for every pool item, the SHA-256 of its canonical report and the seconds it
took when the reference was made.  A run seed selects a corpus from one pool
by stratified sampling: the pool is sorted by recorded cost, cut into as many
equal strata as the corpus has items, and the seed picks one item in each
stratum, except that the two costliest strata are picked to balance the
corpus's total cost.  Every corpus thus has the same cost profile, which
keeps the heavy-tailed theorem traffic steady from seed to seed, and every
item of every seed has a recorded digest to check against.

Import this module only after ``checkout.use_checkout_sources()``.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from decalage import instances, suites, theorem
from decalage.rings import IntegerRing, PolynomialRing, PrimeField

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

RINGS = (IntegerRing(2), IntegerRing(3), IntegerRing(5), PolynomialRing(PrimeField(5)))

# Seeds at or above this value draw from the held-out pool.
HELDOUT_SEEDS_FROM = 1000
BALANCING_STRATA = 2


@dataclass(frozen=True)
class Workload:
    name: str
    dev_base: int
    heldout_base: int
    corpus_size: int
    dev_depth: int  # pool size over corpus size: items per stratum
    heldout_depth: int

    def pool(self, heldout: bool) -> tuple:
        """(first generator seed, item count) of one pool."""
        if heldout:
            return self.heldout_base, self.corpus_size * self.heldout_depth
        return self.dev_base, self.corpus_size * self.dev_depth


WORKLOADS = {
    w.name: w
    for w in (
        # Corpora fill about 25 s.  Seeds 7000.. are the criterion-5 acceptance
        # instances; 36 items put h1's tail percentile (p72) below the steep
        # climb of the sphere instances' costs, where one stratum more or
        # less would move it by a sixth.
        Workload("h1-theorem", dev_base=7000, heldout_base=17000, corpus_size=36,
                 dev_depth=6, heldout_depth=3),
        Workload("lemma-battery", dev_base=331000, heldout_base=931000,
                 corpus_size=240, dev_depth=3, heldout_depth=3),
    )
}


def make_item(workload: str, base: int, index: int):
    """Pool item ``index``: the library input, built from its generator seed."""
    seed = base + index
    ring = RINGS[index % len(RINGS)]
    if workload == "h1-theorem":
        return instances.generate_instance("h1", seed, ring=ring, max_degree=2, max_rank=2)
    if workload == "lemma-battery":
        return instances.random_complex(ring, random.Random(seed), max_degree=4, max_rank=4)
    raise ValueError(f"unknown workload {workload!r}")


def run_item(workload: str, item):
    """The timed work of one item: returns (canonical payload, expected verdict held)."""
    if workload == "lemma-battery":
        results = suites.lemma_battery(item)
        return [r.to_json() for r in results], all(r.passed for r in results)
    report = theorem.verify_main_theorem(item)
    return report.to_json(), report.asserted and report.passed


def digest(payload) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def load_reference(workload: str) -> dict:
    with open(REFERENCE_DIR / f"{workload}.json", encoding="utf-8") as fh:
        return json.load(fh)


@dataclass
class Corpus:
    """The items one run measures, with their recorded digests."""

    workload: str
    heldout: bool
    indices: list
    items: list
    expected: list
    recorded_cost: float  # seconds one pass took when the reference was made
    warmup: int  # position of the cheapest item, run once before timing


def select(workload: str, seed: int, reference: dict) -> tuple:
    """Pool choice and pool indices of the corpus for ``seed``, in run order."""
    spec = WORKLOADS[workload]
    heldout = seed >= HELDOUT_SEEDS_FROM
    base, size = spec.pool(heldout)
    recorded = reference["heldout" if heldout else "dev"]
    if recorded["base"] != base or len(recorded["items"]) != size:
        raise ValueError(f"reference for {workload} does not match its pool "
                         f"(base {base}, {size} items); rebuild it")
    costs = [cost for _, cost in recorded["items"]]
    by_cost = sorted(range(size), key=lambda i: (costs[i], i))
    depth = size // spec.corpus_size
    strata = [by_cost[k * depth:(k + 1) * depth] for k in range(spec.corpus_size)]
    rng = random.Random(f"{workload}:{seed}")
    chosen = [rng.choice(stratum) for stratum in strata[:-BALANCING_STRATA]]
    # The costliest strata are too wide for a random pick to keep runs
    # comparable, so they are picked jointly to bring the corpus's recorded
    # cost nearest the pool's mean.
    target = spec.corpus_size * sum(costs) / size
    drawn = sum(costs[i] for i in chosen)
    chosen.extend(min(itertools.product(*strata[-BALANCING_STRATA:]),
                      key=lambda top: (abs(drawn + sum(costs[i] for i in top) - target), top)))
    rng.shuffle(chosen)
    return heldout, chosen


def make_corpus(workload: str, heldout: bool, chosen: list, reference: dict) -> Corpus:
    """The items at pool indices ``chosen``, with their recorded digests."""
    base, _ = WORKLOADS[workload].pool(heldout)
    recorded = reference["heldout" if heldout else "dev"]["items"]
    items = [make_item(workload, base, i) for i in chosen]
    expected = [recorded[i][0] for i in chosen]
    cost = sum(recorded[i][1] for i in chosen)
    warmup = min(range(len(chosen)), key=lambda k: recorded[chosen[k]][1])
    return Corpus(workload, heldout, chosen, items, expected, cost, warmup)


def build_corpus(workload: str, seed: int, reference: dict) -> Corpus:
    heldout, chosen = select(workload, seed, reference)
    return make_corpus(workload, heldout, chosen, reference)


def check(corpus: Corpus, position: int, payload, verdict: bool) -> bool:
    """The correctness gate: expected verdict and the recorded report digest."""
    return verdict and digest(payload) == corpus.expected[position]


def prepare(workload: str, seed: int) -> Corpus:
    """Set-up: load the reference, build the corpus, run the warm-up item once.

    The warm-up result is not checked here; the same item is checked when the
    measured passes run it.
    """
    corpus = build_corpus(workload, seed, load_reference(workload))
    run_item(workload, corpus.items[corpus.warmup])
    return corpus
