"""The caching contract: one context per top-level call, each stage built once,
each cohomology group computed once, each stalk's Bockstein complex, truncation
and Hodge part built once, each sheaf's sections built once, each matrix
factored once and each presentation built once per content of its inputs, and
no cocycle basis factored again after the Smith form it is the image of."""

import importlib
import json
import os
import pkgutil
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import decalage
from decalage import bockstein, complexes, kmatrix, rmatrix, sites, spectral, suites, theorem
from decalage.bockstein import Memo
from decalage.complexes import ChainMap, FreeComplex
from decalage.eta import eta_m
from decalage.instances import generate_instance, random_complex
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.kmatrix import QuotientSpace, kernel
from decalage.rmatrix import Matrix, ShapeMismatch, solve_exact
from decalage.serialize import sheaf_from_json
from decalage.sites import InstanceContext, PosetSite, global_sections_complex
from decalage.spectral import FilteredComplex, adapted_form, ht_inclusions, ss_pages
from decalage.suites import lemma_battery
from decalage.theorem import verify_main_theorem

from oracles import random_nonsingular


MODULES = [decalage] + [importlib.import_module(f"decalage.{info.name}")
                        for info in pkgutil.iter_modules(decalage.__path__)
                        if info.name != "__main__"]


def patch_everywhere(monkeypatch, module, name, replacement):
    """Rebind ``module.name`` under every alias any decalage module holds.

    Returns the modules patched, the defining one included.
    """
    original = getattr(module, name)
    aliased = [m for m in MODULES if getattr(m, name, None) is original]
    for m in aliased:
        monkeypatch.setattr(m, name, replacement)
    return aliased


def count_stage_builds(monkeypatch):
    """Count eta_m calls per (complex content, m)."""
    calls = Counter()

    def counted(ctx, K, m):
        calls[(K, m)] += 1
        return eta_m(ctx, K, m)

    assert bockstein in patch_everywhere(monkeypatch, decalage.eta, "eta_m", counted)
    return calls


def test_lemma_battery_builds_each_stage_once_per_call(monkeypatch, z2):
    K = random_complex(z2, random.Random(8), max_degree=3, max_rank=3)
    calls = count_stage_builds(monkeypatch)
    first = lemma_battery(K)
    assert set(calls) == {(K, m) for m in range(0, K.hi + 3)}
    assert max(calls.values()) == 1
    built = sum(calls.values())
    calls.clear()
    second = lemma_battery(K)
    # nothing survives the first call: the second builds the same stages again
    assert sum(calls.values()) == built and max(calls.values()) == 1
    assert [r.to_json() for r in first] == [r.to_json() for r in second]


def test_main_theorem_builds_each_stalk_stage_once_per_call(monkeypatch, z2):
    F = generate_instance("h1", 33, ring=z2, site=PosetSite.pseudo_circle())
    stalks = {F.stalk(x) for x in F.site.elements}
    assert len(stalks) < len(F.site.elements)  # equal stalks share their stages
    calls = count_stage_builds(monkeypatch)
    first = verify_main_theorem(F).to_json()
    m_max = F.hi() + 1
    assert set(calls) == {(K, m) for K in stalks for m in range(0, m_max + 1)}
    assert max(calls.values()) == 1
    built = sum(calls.values())
    calls.clear()
    assert verify_main_theorem(F).to_json() == first
    assert sum(calls.values()) == built


def test_main_theorem_builds_each_stalk_bockstein_once_per_call(monkeypatch, z2):
    F = generate_instance("h1", 33, ring=z2, site=PosetSite.pseudo_circle())
    stalks = {F.stalk(x) for x in F.site.elements}
    assert len(stalks) < len(F.site.elements)  # equal stalks share one complex
    calls = Counter()
    build = bockstein.bockstein_complex

    def counted(ctx, K):
        calls[K] += 1
        return build(ctx, K)

    assert bockstein in patch_everywhere(monkeypatch, bockstein, "bockstein_complex", counted)
    first = verify_main_theorem(F).to_json()
    assert set(calls) == stalks and max(calls.values()) == 1
    built = sum(calls.values())
    calls.clear()
    # nothing survives the first call: the second builds the same complexes again
    assert verify_main_theorem(F).to_json() == first
    assert sum(calls.values()) == built and max(calls.values()) == 1


def complex_key(K):
    """Free complexes by ring, degrees and entries (not by their own hash or
    twist tag), so equal ones built separately count as one; the chain maps
    presented as quotients by identity."""
    if not isinstance(K, FreeComplex):
        return id(K)
    return (K.ring, K.lo, K.ranks(), tuple(K.d(i).data for i in range(K.lo, K.hi)))


def sheaf_key(F):
    """Sheaves by site, stalks and restriction entries; stalks keep their
    twist tags, as ``FreeComplex`` equality does."""
    pairs = F.site.strict_pairs()
    return (F.site.elements, tuple(pairs),
            tuple((complex_key(F.stalk(x)), F.stalk(x).twist) for x in F.site.elements),
            tuple(F.res(a, b).map(i).data for a, b in pairs for i in F.stalk(a).degrees()))


def count_group_builds(monkeypatch):
    """Count cohomology computations per (function, complex, degree)."""
    calls = Counter()
    for module, name in ((complexes, "cohomology_module"),
                         (complexes, "cohomology_presentation"),
                         (bockstein, "k_cohomology_quotient")):
        def counted(*args, name=name, build=getattr(module, name)):
            *_, K, i = args
            calls[(name, complex_key(K), i)] += 1
            return build(*args)

        assert bockstein in patch_everywhere(monkeypatch, module, name, counted)
    return calls


def assert_each_group_once_per_call(calls, run):
    first = run()
    assert {name for name, _, _ in calls} == {"cohomology_module", "cohomology_presentation",
                                              "k_cohomology_quotient"}
    assert max(calls.values()) == 1
    computed = sum(calls.values())
    calls.clear()
    # nothing survives the first call: the second computes the same groups again
    assert run() == first
    assert sum(calls.values()) == computed and max(calls.values()) == 1


def theorem_instance(case, ring):
    if case == "h1-sphere":
        return generate_instance("h1", 33, ring=ring, site=PosetSite.sphere())
    if case == "h1-pseudo-circle":
        return generate_instance("h1", 33, ring=ring, site=PosetSite.pseudo_circle())
    path = os.path.join(os.path.dirname(decalage.__file__), "fixtures",
                        "h3_failure_witness.json")
    with open(path) as fh:
        return sheaf_from_json(json.load(fh)["instance"])


@pytest.mark.parametrize("case", ["h1-sphere", "h3_failure_witness"])
def test_main_theorem_computes_each_group_once_per_call(monkeypatch, z2, case):
    F = theorem_instance(case, z2)
    calls = count_group_builds(monkeypatch)
    assert_each_group_once_per_call(calls, lambda: verify_main_theorem(F).to_json())


@pytest.mark.parametrize("case", ["h1-pseudo-circle", "h3_failure_witness"])
def test_main_theorem_builds_each_stalk_truncation_and_hodge_part_once_per_call(
        monkeypatch, z2, case):
    F = theorem_instance(case, z2)
    calls = Counter()
    for name in ("truncate_leq", "hodge_filtration"):
        def counted(*args, name=name, build=getattr(complexes, name)):
            *_, K, m = args
            calls[(name, complex_key(K), K.twist, m)] += 1
            return build(*args)

        assert bockstein in patch_everywhere(monkeypatch, complexes, name, counted)
    first = verify_main_theorem(F).to_json()
    assert {name for name, *_ in calls} == {"truncate_leq", "hodge_filtration"}
    assert max(calls.values()) == 1
    built = sum(calls.values())
    calls.clear()
    # nothing survives the first call: the second builds the same pieces again
    assert verify_main_theorem(F).to_json() == first
    assert sum(calls.values()) == built and max(calls.values()) == 1


@pytest.mark.parametrize("case", ["h1-sphere", "h3_failure_witness"])
def test_main_theorem_builds_each_sheafs_sections_once_per_call(monkeypatch, z2, case):
    F = theorem_instance(case, z2)
    calls = Counter()

    def counted(G):
        calls[sheaf_key(G)] += 1
        return global_sections_complex(G)

    patch_everywhere(monkeypatch, sites, "global_sections_complex", counted)
    first = verify_main_theorem(F).to_json()
    assert max(calls.values()) == 1
    built = sum(calls.values())
    calls.clear()
    # nothing survives the first call: the second builds the same sections again
    assert verify_main_theorem(F).to_json() == first
    assert sum(calls.values()) == built and max(calls.values()) == 1


@pytest.mark.parametrize("seed", [8, 9])
def test_lemma_battery_computes_each_group_once_per_call(monkeypatch, z2, f5t, seed):
    ring = z2 if seed % 2 == 0 else f5t
    K = random_complex(ring, random.Random(seed), max_degree=3, max_rank=3)
    calls = count_group_builds(monkeypatch)
    assert_each_group_once_per_call(calls, lambda: [r.to_json() for r in lemma_battery(K)])


def count_factorizations(monkeypatch):
    """Count snf calls per matrix content (ring, shape and entries)."""
    calls = Counter()
    factor = rmatrix.snf

    def counted(M):
        calls[(M.ring, M.rows, M.cols, M.data)] += 1
        return factor(M)

    assert bockstein in patch_everywhere(monkeypatch, rmatrix, "snf", counted)
    return calls


def assert_each_matrix_factored_once_per_call(calls, run):
    first = run()
    assert calls and max(calls.values()) == 1
    # over k, the context's kernels and solves come from the rref
    assert not [ring for ring, *_ in calls if ring.is_field]
    factored = sum(calls.values())
    calls.clear()
    # nothing survives the first call: the second factors the same matrices again
    assert run() == first
    assert sum(calls.values()) == factored and max(calls.values()) == 1


@pytest.mark.parametrize("seed", [8, 9])
def test_lemma_battery_factors_each_matrix_once_per_call(monkeypatch, z2, f5t, seed):
    ring = z2 if seed % 2 == 0 else f5t
    K = random_complex(ring, random.Random(seed), max_degree=3, max_rank=3)
    calls = count_factorizations(monkeypatch)
    assert_each_matrix_factored_once_per_call(
        calls, lambda: [r.to_json() for r in lemma_battery(K)])


@pytest.mark.parametrize("ring", [IntegerRing(2), IntegerRing(3), PolynomialRing(PrimeField(5)),
                                  PolynomialRing(RationalField())], ids=str)
def test_smith_forms_run_over_r_and_eliminations_over_k(monkeypatch, ring):
    # the split the engine relies on: no field reaches snf, and no PID reaches
    # _extend, which would run over Z without raising while its pivots are units
    factored, eliminated = [], []
    factor, extend = rmatrix.snf, kmatrix._extend

    def recorded_snf(M):
        factored.append(M.ring)
        return factor(M)

    def recorded_extend(F, echelon, vectors):
        eliminated.append(F)
        return extend(F, echelon, vectors)

    patch_everywhere(monkeypatch, rmatrix, "snf", recorded_snf)
    monkeypatch.setattr(kmatrix, "_extend", recorded_extend)
    F = generate_instance("h1", 1, ring=ring)
    verify_main_theorem(F)
    for x in F.site.elements:
        lemma_battery(F.stalk(x))
    assert set(factored) == {ring}
    assert set(eliminated) == {ring.residue_field()}


@pytest.mark.parametrize("case", ["h1-sphere", "h3_failure_witness"])
def test_main_theorem_factors_each_matrix_once_per_call(monkeypatch, z2, case):
    F = theorem_instance(case, z2)
    calls = count_factorizations(monkeypatch)
    assert_each_matrix_factored_once_per_call(calls, lambda: verify_main_theorem(F).to_json())


def matrix_key(M):
    """A matrix by ring, shape and entries, as ``Matrix`` equality compares it."""
    return (M.ring, M.rows, M.cols, M.data)


def count_presentation_builds(monkeypatch):
    """Count presentation builds per content of the four matrices each reads."""
    calls = Counter()
    build = complexes._presentation

    def counted(ctx, *inputs):
        calls[tuple(map(matrix_key, inputs))] += 1
        return build(ctx, *inputs)

    monkeypatch.setattr(complexes, "_presentation", counted)
    return calls


def assert_each_presentation_built_once_per_content(calls, run):
    first = run()
    assert calls and max(calls.values()) == 1
    built = sum(calls.values())
    calls.clear()
    # nothing survives the first call: the second builds the same presentations again
    assert run() == first
    assert sum(calls.values()) == built and max(calls.values()) == 1
    return built


@pytest.mark.parametrize("seed", [8, 9])
def test_lemma_battery_builds_each_presentation_once_per_content(monkeypatch, z2, f5t, seed):
    ring = z2 if seed % 2 == 0 else f5t
    K = random_complex(ring, random.Random(seed), max_degree=3, max_rank=3)
    groups = count_group_builds(monkeypatch)
    calls = count_presentation_builds(monkeypatch)
    built = assert_each_presentation_built_once_per_content(
        calls, lambda: [r.to_json() for r in lemma_battery(K)])
    # the stages for m >= hi are xi^m K, whose quotient maps repeat in content
    assert built < sum(n for (name, _, _), n in groups.items()
                       if name == "cohomology_presentation")


@pytest.mark.parametrize("case", ["h1-sphere", "h3_failure_witness"])
def test_main_theorem_builds_each_presentation_once_per_content(monkeypatch, z2, case):
    F = theorem_instance(case, z2)
    calls = count_presentation_builds(monkeypatch)
    assert_each_presentation_built_once_per_content(calls,
                                                    lambda: verify_main_theorem(F).to_json())


def test_a_warm_builder_looks_up_its_own_key_alone(z2):
    # a builder defers its arguments until its own key misses, so a repeat
    # call on a warm context makes one lookup
    F = generate_instance("h1", 33, ring=z2, site=PosetSite.pseudo_circle())
    ctx = InstanceContext(F)
    K = F.stalk(next(iter(F.site.elements)))
    phi = ctx.stage_sheaf(1)
    builders = {"inclusion": lambda: ctx.inclusion(K, 0),
                "sections-map": lambda: ctx.sections_map(phi),
                "truncation-sheaf": lambda: ctx.truncation_sheaf(1),
                "hodge-sheaf": lambda: ctx.hodge_sheaf(1)}
    for name, call in builders.items():
        first = call()
        with mock.patch.object(ctx, "once", wraps=ctx.once) as once:
            assert call() is first
        assert once.call_count == 1, name


class CheckedMemo(Memo):
    """A context that rebuilds, on a fresh context, each presentation it
    serves from an earlier build, and compares the two."""

    CHECKED = ("presentation", "presented")

    def __init__(self):
        super().__init__()
        self.hits = Counter()

    def once(self, key, build, *args):
        hit = key in self._built
        served = super().once(key, build, *args)
        if hit and key[0] in self.CHECKED:
            self.hits[key[0]] += 1
            # every checked builder takes the context first
            fresh = build(Memo(), *args[1:])
            assert served.gens_basis == fresh.gens_basis
            assert served.module == fresh.module
            assert served.snf.factors == fresh.snf.factors
        return served


PROPERTY_RINGS = [IntegerRing(2), IntegerRing(3), PolynomialRing(PrimeField(5)),
                  PolynomialRing(RationalField())]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(PROPERTY_RINGS), st.integers(0, 2 ** 32 - 1))
def test_presentations_and_preimages_served_from_the_memo_equal_fresh_builds(ring, seed):
    K = random_complex(ring, random.Random(seed), max_degree=3, max_rank=3)
    contexts = []

    def checked():
        contexts.append(CheckedMemo())
        return contexts[-1]

    with mock.patch.object(suites, "Memo", checked):
        lemma_battery(K)
    assert len(contexts) == 1 and contexts[0].hits["presented"]


TRANSFORMS = ("_u_rows", "_uinv_cols", "_v_cols", "_vinv_rows")


def built_transforms(res) -> list:
    """The transforms of a Smith form that have been replayed, so read."""
    return [name for name in TRANSFORMS if getattr(res, name) is not None]


@pytest.mark.parametrize("ring", [IntegerRing(2), PolynomialRing(PrimeField(5))],
                         ids=["z2", "f5t"])
def test_hypothesis_h1_builds_no_presentation_and_no_transform(monkeypatch, ring):
    # the verdict needs the invariants of each H^i alone: the ranks and factors
    # of the differentials' Smith forms
    F = theorem_instance("h1-sphere", ring)
    presented, factored = [], []
    present, factor = complexes.cohomology_presentation, rmatrix.snf

    def counted_presentation(*args):
        presented.append(args)
        return present(*args)

    def recorded_snf(M):
        factored.append(factor(M))
        return factored[-1]

    assert bockstein in patch_everywhere(monkeypatch, complexes, "cohomology_presentation",
                                         counted_presentation)
    assert bockstein in patch_everywhere(monkeypatch, rmatrix, "snf", recorded_snf)
    assert theorem.hypothesis_h1(InstanceContext(F)) == (True, None)
    assert presented == []
    assert factored and not any(built_transforms(res) for res in factored)


def test_smith_form_builds_each_transform_on_its_first_read():
    rng = random.Random(5)
    for ring in (IntegerRing(3), PolynomialRing(PrimeField(5))):
        M = random_nonsingular(ring, 4, rng)
        res = rmatrix.snf(M)
        assert res.rank == 4 and len(res.factors) == 4
        assert built_transforms(res) == []
        assert (res.u @ M @ res.v) == res.d
        assert built_transforms(res) == ["_u_rows", "_v_cols"]
        assert res.image().cols == 4 and res.uinv @ res.u == Matrix.identity(ring, 4)
        assert built_transforms(res) == ["_u_rows", "_uinv_cols", "_v_cols"]
        assert res.vinv @ res.v == Matrix.identity(ring, 4)
        assert built_transforms(res) == list(TRANSFORMS)


def test_ss_pages_builds_each_cycle_space_once_per_filtered_complex(monkeypatch, z2):
    F = generate_instance("free", 1, ring=z2, site=PosetSite.sphere())
    built = ht_inclusions(InstanceContext(F))
    # every kernel is taken inside z_space; record the (r, p, n) it was taken for
    requests, kernels = [], []
    z_space, kernel = FilteredComplex.z_space, spectral.kernel

    def traced_z_space(fc, r, p, n):
        requests.append((r, p, n))
        try:
            return z_space(fc, r, p, n)
        finally:
            requests.pop()

    def counted_kernel(M):
        kernels.append(requests[-1] if requests else None)
        return kernel(M)

    monkeypatch.setattr(FilteredComplex, "z_space", traced_z_space)
    monkeypatch.setattr(spectral, "kernel", counted_kernel)
    first = ss_pages(FilteredComplex(*built), 4)
    assert kernels and all(key is not None and 1 <= key[0] <= 4 for key in kernels)
    assert max(Counter(kernels).values()) == 1
    taken = len(kernels)
    kernels.clear()
    # a fresh filtered complex on the same input keeps nothing from the first
    second = ss_pages(FilteredComplex(*built), 4)
    assert len(kernels) == taken
    assert [page.to_json() for page in first] == [page.to_json() for page in second]


@pytest.mark.parametrize("case", ["h1-sphere", "h3_failure_witness"])
def test_main_theorem_builds_no_spectral_page(monkeypatch, z2, case):
    # both degeneration verdicts come from the persistence pairs
    F = theorem_instance(case, z2)
    calls = Counter()

    def counted_ss_pages(*args, **kwargs):
        calls["ss_pages"] += 1
        return ss_pages(*args, **kwargs)

    def counted_entry(fc, r, p, q, entry=FilteredComplex.entry):
        calls["entry"] += 1
        return entry(fc, r, p, q)

    assert spectral in patch_everywhere(monkeypatch, spectral, "ss_pages", counted_ss_pages)
    monkeypatch.setattr(FilteredComplex, "entry", counted_entry)
    report = verify_main_theorem(F)
    assert report.hypotheses["H3"]["page_crosscheck_agrees"]
    assert calls["ss_pages"] == 0 and calls["entry"] == 0


@pytest.mark.parametrize("max_degree", [2, 3])
@pytest.mark.parametrize("site", ["sphere", "pseudo_circle"])
@pytest.mark.parametrize("ring", ["z2", "z3", "f5t"])
def test_main_theorem_takes_no_sections_of_a_piece_fixed_at_the_ends(monkeypatch, request,
                                                                     ring, site, max_degree):
    # the whole pieces of both filtrations are identities, and every stage
    # above hi is xi^m F, so RGamma of none of their sheaf maps is taken
    F = generate_instance("h1", 33, ring=request.getfixturevalue(ring),
                          site=getattr(PosetSite, site)(), max_degree=max_degree)
    taken = []
    sections_map = InstanceContext.sections_map

    def recorded(ctx, phi):
        taken.append((ctx, phi))
        return sections_map(ctx, phi)

    monkeypatch.setattr(InstanceContext, "sections_map", recorded)
    verify_main_theorem(F)
    ctx = taken[0][0]
    assert all(c is ctx for c, _ in taken)
    maps = [phi for _, phi in taken]
    # the recorder sees the maps the run does take: the stage lattice's
    assert any(phi is ctx.stage_sheaf(0) for phi in maps)
    ends = [ctx.truncation_sheaf(ctx.reduced().hi()),
            ctx.hodge_sheaf(ctx.bockstein_sheaf().lo()),
            ctx.stage_sheaf(F.hi() + 1)]
    assert not [end for end in ends if any(phi is end for phi in maps)]


@pytest.mark.parametrize("case", ["h1-sphere", "h3_failure_witness"])
def test_subsheaf_lifts_solve_only_along_non_identity_inclusions(monkeypatch, z2, case):
    F = theorem_instance(case, z2)
    ctx = InstanceContext(F)
    omega = ctx.bockstein_sheaf()
    Fbar = ctx.reduced()
    # the stalk pieces first: a truncation may solve against an identity kernel basis
    for x in F.site.elements:
        for p in range(omega.lo(), omega.hi() + 2):
            ctx.hodge(omega.stalk(x), p)
        for q in range(Fbar.lo() - 1, Fbar.hi() + 1):
            ctx.truncation(Fbar.stalk(x), q)
        for m in range(F.hi() + 2):
            ctx.stage(F.stalk(x), m)
    # every elimination a solve can run: rref of [A | B] over k, a Smith form of A over R
    reduced, factored, requested = [], [], []
    solve, rref, factor = complexes.solve, kmatrix.rref, rmatrix.snf

    def requested_solve(A, B):
        requested.append((A, B))
        return solve(A, B)

    def counted_rref(M):
        reduced.append(M)
        return rref(M)

    def counted_factor(M):
        factored.append(M)
        return factor(M)

    assert complexes in patch_everywhere(monkeypatch, complexes, "solve", requested_solve)
    assert kmatrix in patch_everywhere(monkeypatch, kmatrix, "rref", counted_rref)
    assert rmatrix in patch_everywhere(monkeypatch, rmatrix, "snf", counted_factor)
    subsheaves = ([ctx.hodge_sheaf(p) for p in range(omega.lo(), omega.hi() + 2)]
                  + [ctx.truncation_sheaf(q) for q in range(Fbar.lo() - 1, Fbar.hi() + 1)]
                  + [ctx.stage_sheaf(m) for m in range(F.hi() + 2)])
    monkeypatch.undo()
    identity_systems = {A.hstack(B) for A, B in requested if A.is_identity()}
    assert any(A.ring.is_field for A in identity_systems)
    assert any(not A.ring.is_field for A in identity_systems)
    assert reduced
    assert not identity_systems.intersection(reduced)
    # over R the stage bases are nonsingular lower triangular: substitution, no Smith form
    assert any(not A.ring.is_field and not A.is_identity()
               and A.is_nonsingular_lower_triangular() for A, _ in requested)
    assert not any(M.is_nonsingular_lower_triangular() for M in factored)
    for incl in subsheaves:
        sub, G = incl.source, incl.target
        exact = kmatrix.solve_field if G.ring.is_field else solve_exact
        for a, b in G.site.strict_pairs():
            for i in sub.stalk(a).degrees():
                # the lift the solved route gives, identity inclusions included
                moved = G.res(a, b).map(i) @ incl.map(a).map(i)
                assert sub.res(a, b).map(i) == exact(incl.map(b).map(i), moved)


def triangular_solves(monkeypatch, run):
    """The nonsingular lower-triangular A that ``complexes.solve`` solves against over R
    while ``run`` runs, and the Smith forms it takes of them."""
    solved, factored, solving = [], [], []
    solve, factor = complexes.solve, rmatrix.snf

    def traced_solve(A, B):
        if not A.ring.is_field and A.is_nonsingular_lower_triangular():
            solved.append(A)
        solving.append(A)
        try:
            return solve(A, B)
        finally:
            solving.pop()

    def traced_factor(M):
        if solving and M.is_nonsingular_lower_triangular():
            factored.append(M)
        return factor(M)

    with monkeypatch.context() as patched:
        assert complexes in patch_everywhere(patched, complexes, "solve", traced_solve)
        assert rmatrix in patch_everywhere(patched, rmatrix, "snf", traced_factor)
        run()
    return solved, factored


@pytest.mark.parametrize("ring", [IntegerRing(2), IntegerRing(3), PolynomialRing(PrimeField(5)),
                                  PolynomialRing(RationalField())], ids=str)
def test_lemma_battery_solves_triangular_bases_with_no_smith_form(monkeypatch, ring):
    F = generate_instance("h1", 1, ring=ring)

    def battery():
        for x in F.site.elements:
            lemma_battery(F.stalk(x))

    solved, factored = triangular_solves(monkeypatch, battery)
    assert any(not A.is_identity() for A in solved) and not factored

    # negative control: under the identity rule alone the stage bases are factored
    def identity_rule(A, B):
        if A.ring.is_field:
            return kmatrix.solve_field(A, B)
        if A.rows == B.rows and A.is_identity():
            return B
        return rmatrix.snf(A).solve(B)

    assert complexes in patch_everywhere(monkeypatch, complexes, "solve", identity_rule)
    assert triangular_solves(monkeypatch, battery)[1]


@pytest.mark.parametrize("case", ["h1-pseudo-circle", "h3_failure_witness"])
def test_main_theorem_factors_no_stage_lattice_and_no_identity(monkeypatch, z2, case):
    # the lattice flag is read by congruence kernels over k, and a
    # presentation whose cocycle basis is the identity takes no Smith form of
    # it; a 0 x 0 differential, of a degree of rank 0, has an empty lattice's
    # content and is an identity too, so only nonempty matrices count
    F = theorem_instance(case, z2)
    factored, lattices = [], []
    factor, build = rmatrix.snf, theorem.stage_lattice

    def recorded(M):
        factored.append(M)
        return factor(M)

    def recorded_lattice(ctx, i):
        lattices.append(build(ctx, i))
        return lattices[-1]

    assert bockstein in patch_everywhere(monkeypatch, rmatrix, "snf", recorded)
    monkeypatch.setattr(theorem, "stage_lattice", recorded_lattice)
    verify_main_theorem(F)
    assert factored and lattices
    assert not [M for M in factored if M.rows and (M in lattices or M.is_identity())]


def factored_cocycle_bases(run, build=complexes._presentation) -> tuple:
    """(presentations built, cocycle bases that reached ``snf``) over ``run()``.

    Each presentation is built by ``build``; a basis counts when the very
    object ``gens_basis`` is handed to ``snf``.
    """
    bases, factored = [], []
    factor = rmatrix.snf

    def recorded_factor(M):
        factored.append(M)
        return factor(M)

    def recorded_build(*args):
        pres = build(*args)
        bases.append(pres.gens_basis)
        return pres

    with pytest.MonkeyPatch.context() as patch:
        assert bockstein in patch_everywhere(patch, rmatrix, "snf", recorded_factor)
        assert complexes in patch_everywhere(patch, complexes, "_presentation", recorded_build)
        run()
    seen = {id(M) for M in factored}
    return len(bases), sum(id(B) in seen for B in bases)


@pytest.mark.parametrize("ring", [IntegerRing(2), PolynomialRing(PrimeField(5))],
                         ids=["z2", "f5t"])
def test_no_cocycle_basis_is_factored(ring):
    # the coordinates in a cocycle basis are read off the Smith form that built it
    def lemmas():
        for seed in range(4):
            K = random_complex(ring, random.Random(seed), max_degree=3, max_rank=3)
            assert all(r.passed for r in lemma_battery(K))

    def theorems():
        for case in ("h1-sphere", "h1-pseudo-circle"):
            report = verify_main_theorem(theorem_instance(case, ring))
            assert report.asserted and report.passed

    # negative control: the route that factored each basis again to solve against it
    def basis_factored(ctx, *inputs, build=complexes._presentation):
        pres = build(ctx, *inputs)
        if not pres.gens_basis.is_identity():
            ctx.factor(pres.gens_basis)
        return pres

    for run in (lemmas, theorems):
        built, factored = factored_cocycle_bases(run)
        assert built and factored == 0
        assert factored_cocycle_bases(run, basis_factored)[1]


@pytest.mark.parametrize("ring", [PrimeField(3), IntegerRing(2)], ids=["k", "R"])
def test_identity_rule_keeps_the_shape_check(ring):
    B = Matrix.zeros(ring, 3, 1)
    for A in (Matrix.identity(ring, 2), Matrix(ring, [[1, 1], [0, 1]])):
        with pytest.raises(ShapeMismatch):
            complexes.solve(A, B)


def test_identity_solves_over_k_run_no_rref(monkeypatch):
    F = PrimeField(3)
    whole = QuotientSpace(kernel(Matrix.zeros(F, 0, 2)), Matrix.zeros(F, 2, 0))
    K = FreeComplex(F, 0, [2, 2], [Matrix(F, [[1, 1], [0, 2]])])
    M = Matrix(F, [[1, 2], [0, 1]])
    calls, rref = [], kmatrix.rref

    def counted_rref(A):
        calls.append(A)
        return rref(A)

    assert kmatrix in patch_everywhere(monkeypatch, kmatrix, "rref", counted_rref)
    # the cycle space is all of k^2, so the quotient solves against an identity
    assert whole.coords_matrix(M) == M
    # one filtration level: the adapted basis is the identity in every degree
    form = adapted_form(K, {0: ChainMap.identity(K)})
    assert form[0][1].is_identity() and form[0][2] == K.d(0)
    assert calls == []


def test_ss_pages_builds_each_cell_once_per_filtered_complex(monkeypatch, z2):
    F = generate_instance("free", 1, ring=z2, site=PosetSite.sphere())
    built = ht_inclusions(InstanceContext(F))
    probe = FilteredComplex(*built)
    d = probe.ambient.d
    positions = [(r, p, n) for r in range(1, 5) for p in range(probe.p_min, probe.p_max + 1)
                 for n in probe.ambient.degrees()]
    # E_r(p, q) depends on n = p + q and three cycle spaces, which compare by content
    cells = [(n, probe.z_space(r, p, n), probe.z_space(r - 1, p - r + 1, n - 1),
              probe.z_space(r - 1, p + 1, n)) for r, p, n in positions]
    assert len(set(cells)) < len(cells)  # settled pages repeat earlier cells
    quotients = []
    build = spectral.QuotientSpace

    def counted(*args):
        quotients.append(args)
        return build(*args)

    monkeypatch.setattr(spectral, "QuotientSpace", counted)
    first = ss_pages(FilteredComplex(*built), 4)
    assert len(quotients) == len(set(cells))
    quotients.clear()
    # a fresh filtered complex on the same input keeps nothing from the first
    second = ss_pages(FilteredComplex(*built), 4)
    assert len(quotients) == len(set(cells))
    assert [page.to_json() for page in first] == [page.to_json() for page in second]
    # every reused cell has the dimension of the quotient its own (r, p, q) defines
    for (r, p, n), (_, num, prev, finer) in zip(positions, cells):
        den = finer.matrix().transpose().hstack(d(n - 1) @ prev.matrix().transpose())
        own = build(num, den)
        assert first[r - 1].dim(p, n - p) == own.dim
