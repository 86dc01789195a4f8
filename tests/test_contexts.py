"""The caching contract: one context per top-level call, each stage built once."""

import random
from collections import Counter

import decalage
from decalage import bockstein, sites, spectral
from decalage.eta import eta_m
from decalage.instances import generate_instance, random_complex
from decalage.sites import InstanceContext, PosetSite
from decalage.spectral import FilteredComplex, ht_spectral_sequence, ss_pages
from decalage.suites import lemma_battery
from decalage.theorem import verify_main_theorem


def count_stage_builds(monkeypatch):
    """Count eta_m calls per (complex, m) under every alias the package holds."""
    calls = Counter()

    def counted(K, m):
        calls[(id(K), m)] += 1
        return eta_m(K, m)

    aliased = [module for module in (decalage.eta, sites, bockstein)
               if getattr(module, "eta_m", None) is eta_m]
    # the package attribute ``eta`` is the submodule, not a function
    assert decalage.eta in aliased
    for module in aliased:
        monkeypatch.setattr(module, "eta_m", counted)
    return calls


def test_lemma_battery_builds_each_stage_once_per_call(monkeypatch, z2):
    K = random_complex(z2, random.Random(8), max_degree=3, max_rank=3)
    calls = count_stage_builds(monkeypatch)
    first = lemma_battery(K)
    assert set(calls) == {(id(K), m) for m in range(0, K.hi + 3)}
    assert max(calls.values()) == 1
    built = sum(calls.values())
    calls.clear()
    second = lemma_battery(K)
    # nothing survives the first call: the second builds the same stages again
    assert sum(calls.values()) == built and max(calls.values()) == 1
    assert [r.to_json() for r in first] == [r.to_json() for r in second]


def test_main_theorem_builds_each_stalk_stage_once_per_call(monkeypatch, z2):
    F = generate_instance("h1", 33, ring=z2, site=PosetSite.pseudo_circle())
    calls = count_stage_builds(monkeypatch)
    first = verify_main_theorem(F).to_json()
    m_max = F.hi() + 1
    assert set(calls) == {(id(F.stalk(x)), m) for x in F.site.elements
                          for m in range(0, m_max + 1)}
    assert max(calls.values()) == 1
    built = sum(calls.values())
    calls.clear()
    assert verify_main_theorem(F).to_json() == first
    assert sum(calls.values()) == built


def test_ss_pages_builds_each_cycle_space_once_per_filtered_complex(monkeypatch, z2):
    F = generate_instance("free", 1, ring=z2, site=PosetSite.sphere())
    _, built, _ = ht_spectral_sequence(InstanceContext(F))
    # every kernel is taken inside z_space; record the (r, p, n) it was taken for
    requests, kernels = [], []
    z_space, kernel_cols = FilteredComplex.z_space, spectral.kernel_cols

    def traced_z_space(fc, r, p, n):
        requests.append((r, p, n))
        try:
            return z_space(fc, r, p, n)
        finally:
            requests.pop()

    def counted_kernel_cols(M):
        kernels.append(requests[-1] if requests else None)
        return kernel_cols(M)

    monkeypatch.setattr(FilteredComplex, "z_space", traced_z_space)
    monkeypatch.setattr(spectral, "kernel_cols", counted_kernel_cols)
    first = ss_pages(FilteredComplex(built.ambient, built.pieces), 4)
    assert kernels and all(key is not None and 1 <= key[0] <= 4 for key in kernels)
    assert max(Counter(kernels).values()) == 1
    taken = len(kernels)
    kernels.clear()
    # a fresh filtered complex on the same input keeps nothing from the first
    second = ss_pages(FilteredComplex(built.ambient, built.pieces), 4)
    assert len(kernels) == taken
    assert [page.to_json() for page in first] == [page.to_json() for page in second]
