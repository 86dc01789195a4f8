"""Shapes are checked where data enters the library, and hold by construction inside it.

``Matrix(...)``, ``Matrix.from_columns``, ``FreeComplex(...)`` and
``ChainMap.validate`` check the shapes of what they are handed; the trusted
constructors ``Matrix._of`` and ``ChainMap(...)``, which the library calls on
its own results, check nothing.  Here checking versions of the two trusted
constructors run under real traffic and must flag nothing, and two mutants
that build a matrix or a chain map out of shape must each be flagged.
"""

import contextlib
import random

import pytest

from decalage import complexes
from decalage.complexes import ChainMap, FreeComplex
from decalage.instances import generate_instance, random_complex
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.rmatrix import Matrix, ShapeMismatch
from decalage.sites import InstanceContext, InvalidSheaf, PosetSite, SheafComplex
from decalage.spectral import hdr_spectral_sequence, ht_spectral_sequence
from decalage.suites import lemma_battery
from decalage.theorem import verify_main_theorem
from test_contexts import patch_everywhere

Z2 = IntegerRing(2)
LEMMA_RINGS = [IntegerRing(2), IntegerRing(3), PolynomialRing(PrimeField(5)),
               PolynomialRing(RationalField())]


@pytest.fixture
def flagged(monkeypatch):
    """The shape faults handed to ``Matrix._of`` or ``ChainMap(...)``, as they are built."""
    faults = []
    of, init = Matrix._of.__func__, ChainMap.__init__

    def checked_of(cls, ring, rows, cols):
        faults.extend(f"a row of {len(r)} entries in a matrix of {cols} columns"
                      for r in rows if len(r) != cols)
        return of(cls, ring, rows, cols)

    def checked_init(self, source, target, maps):
        faults.extend(f"f({i}) is {f.rows}x{f.cols}, not {target.rank(i)}x{source.rank(i)}"
                      for i, f in maps.items()
                      if (f.rows, f.cols) != (target.rank(i), source.rank(i)))
        init(self, source, target, maps)

    monkeypatch.setattr(Matrix, "_of", classmethod(checked_of))
    monkeypatch.setattr(ChainMap, "__init__", checked_init)
    return faults


def run_lemma_traffic():
    for n, ring in enumerate(LEMMA_RINGS):
        for seed in range(4):
            lemma_battery(random_complex(ring, random.Random(10 * n + seed), 3, 3))


def run_theorem_traffic():
    for ring in (Z2, PolynomialRing(PrimeField(5))):
        for site in (PosetSite.sphere(), PosetSite.pseudo_circle()):
            for seed in (1, 2, 3):
                F = generate_instance("h1", seed, ring=ring, site=site)
                verify_main_theorem(F)
                ctx = InstanceContext(F)
                ht_spectral_sequence(ctx)
                hdr_spectral_sequence(ctx)


@pytest.mark.parametrize("traffic", [run_lemma_traffic, run_theorem_traffic],
                         ids=["lemma-battery", "theorem-and-pages"])
def test_the_library_builds_every_matrix_and_chain_map_in_shape(flagged, traffic):
    traffic()
    assert flagged == []


def test_a_ragged_hstack_is_flagged(flagged, monkeypatch):
    hstack = Matrix.hstack

    def ragged(self, other):
        M = hstack(self, other)
        if not (M.rows and M.cols):
            return M
        return Matrix._of(M.ring, (M.data[0][:-1],) + M.data[1:], M.cols)

    monkeypatch.setattr(Matrix, "hstack", ragged)
    # the run may crash after the fault; only what reached the constructors counts
    with contextlib.suppress(Exception):
        run_lemma_traffic()
    assert flagged and flagged[0].startswith("a row of ")


def test_a_transposed_factorization_is_flagged(flagged, monkeypatch):
    factor_through = complexes.factor_through

    def transposed(*args):
        g = factor_through(*args)
        return ChainMap(g.source, g.target, {i: f.transpose() for i, f in g._maps.items()})

    assert complexes in patch_everywhere(monkeypatch, complexes, "factor_through", transposed)
    with contextlib.suppress(Exception):
        run_lemma_traffic()
    assert flagged and flagged[0].startswith("f(")


# -- the chain-map shape check lives in ChainMap.validate ---------------------


def two_element_sheaf(ranks_a, ranks_b, maps):
    """a <= b with stalks of the given ranks in degrees 0, 1, ..., and zero differentials."""
    def stalk(ranks):
        return FreeComplex(Z2, 0, ranks, [Matrix.zeros(Z2, ranks[i + 1], ranks[i])
                                          for i in range(len(ranks) - 1)])

    A, B = stalk(ranks_a), stalk(ranks_b)
    site = PosetSite(["a", "b"], [("a", "b")])
    restriction = ChainMap(A, B, {i: Matrix(Z2, rows) for i, rows in maps.items()})
    return SheafComplex(site, {"a": A, "b": B}, {("a", "b"): restriction})


@pytest.mark.parametrize("ranks_a,ranks_b,maps,message", [
    # one degree: the commutation check has no pair of degrees to compare
    ([1], [2], {0: [[1, 0]]}, "f(0) must be 2x1, got 1x2"),
    # two degrees: shapes are checked before commutation multiplies anything
    ([1, 1], [1, 2], {0: [[1]], 1: [[1, 0]]}, "f(1) must be 2x1, got 1x2"),
], ids=["single-degree", "two-degrees"])
def test_a_restriction_out_of_shape_is_an_invalid_sheaf(ranks_a, ranks_b, maps, message):
    F = two_element_sheaf(ranks_a, ranks_b, maps)
    expected = f"restriction a<=b is not a chain map: {message}"
    for run in (F.validate, lambda: verify_main_theorem(F)):
        with pytest.raises(InvalidSheaf) as exc:
            run()
        assert str(exc.value) == expected and exc.value.witness == ("a", "b")


# -- FreeComplex(...) keeps its shape checks, and lemma_battery checks d^2 = 0


def test_free_complex_refuses_a_differential_out_of_shape():
    with pytest.raises(ShapeMismatch, match=r"^d\(3\) must be 2x1, got 1x2$"):
        FreeComplex(Z2, 3, [1, 2], [Matrix(Z2, [[1, 0]])])


def test_free_complex_refuses_a_differential_over_another_ring():
    with pytest.raises(ShapeMismatch, match="^differential over the wrong ring$"):
        FreeComplex(Z2, 0, [1, 1], [Matrix(IntegerRing(3), [[1]])])


def d2_nonzero_complexes():
    """(K, degree of the first nonzero d(i+1) @ d(i)) over each ring."""
    z3, f5t, qt = IntegerRing(3), PolynomialRing(PrimeField(5)), PolynomialRing(RationalField())
    t5, tq = f5t.from_coeffs([0, 1]), qt.from_coeffs([0, 1])
    return [
        # the invalid instance of the command-line checks: d = (1), (1)
        (FreeComplex(Z2, 0, [1, 1, 1], [Matrix(Z2, [[1]]), Matrix(Z2, [[1]])]), 0),
        (FreeComplex(z3, 1, [2, 1, 1], [Matrix(z3, [[1, 0]]), Matrix(z3, [[3]])]), 1),
        (FreeComplex(f5t, 0, [1, 1, 1, 1], [Matrix(f5t, [[0]]), Matrix(f5t, [[t5]]),
                                            Matrix(f5t, [[t5]])]), 1),
        (FreeComplex(qt, 0, [1, 2, 1], [Matrix(qt, [[tq], [qt.one()]]),
                                        Matrix(qt, [[qt.zero(), tq]])]), 0),
    ]


@pytest.mark.parametrize("K, degree", d2_nonzero_complexes(), ids=["z2", "z3", "f5t", "qt"])
def test_lemma_battery_refuses_a_complex_whose_differential_squares_to_nonzero(K, degree):
    error = f"DifferentialSquareNonzero: d(i+1) @ d(i) != 0 at degree {degree}"
    assert [r.to_json() for r in lemma_battery(K)] == [
        {"check": "complex.valid", "passed": False, "failures": [{"error": error}]}]
