import random

from decalage.bockstein import (
    ComplexContext,
    beta_squared_is_zero,
    bockstein_complex,
    connecting_factorization,
    hodge_stage_comparison,
    split_mod_xi,
    verify_reduction_identification,
    verify_mod_xi_subquotient,
)
from decalage.complexes import FreeComplex, cohomology
from decalage.instances import random_complex
from decalage.rmatrix import Matrix

from conftest import desk_rings
from oracles import beta_oracle, hodge_stage_comparison_oracle


def shell(ring, c):
    return FreeComplex(ring, 0, [1, 1], [Matrix(ring, [[c]])])


def test_beta_identity_example(z3):
    bc = bockstein_complex(shell(z3, 3))
    assert bc.dim(0) == 1 and bc.dim(1) == 1
    assert bc.beta_matrix(0) == Matrix(z3.residue_field(), [[1]])


def test_beta_zero_examples(z3, z2):
    assert bockstein_complex(
        FreeComplex(z3, 0, [2, 1], [Matrix.zeros(z3, 1, 2)])).beta_matrix(0).is_zero()
    assert bockstein_complex(shell(z2, 4)).beta_matrix(0).is_zero()


def test_beta_lift_independence(rng):
    for ring in desk_rings():
        for trial in range(4):
            K = random_complex(ring, rng, max_degree=3, max_rank=3)
            base = bockstein_complex(K)
            for rep in range(5):
                noisy = bockstein_complex(K, random.Random(1000 * trial + rep))
                for i in range(K.lo, K.hi):
                    assert noisy.beta_matrix(i) == base.beta_matrix(i)


def test_beta_matches_one_class_at_a_time_oracle(rng):
    # one solve per degree against one lift and one solve per representative
    for ring in desk_rings():
        for trial in range(6):
            K = random_complex(ring, rng, max_degree=3, max_rank=3)
            want = beta_oracle(K)
            assert beta_oracle(K, random.Random(trial)) == want
            for bc in (bockstein_complex(K),
                       bockstein_complex(K, random.Random(500 + trial))):
                assert {i: bc.beta_matrix(i) for i in range(K.lo, K.hi)} == want, ring


def test_hodge_stage_comparison_matches_columnwise_oracle(rng):
    for ring in desk_rings():
        for _ in range(6):
            K = random_complex(ring, rng, max_degree=3, max_rank=3)
            cx = ComplexContext(K)
            for m in range(0, K.hi + 2):
                assert hodge_stage_comparison(cx, m) == \
                    hodge_stage_comparison_oracle(cx, m), (ring, m)


def test_beta_squared_zero(rng):
    for ring in desk_rings():
        for _ in range(6):
            K = random_complex(ring, rng, max_degree=4, max_rank=3)
            assert beta_squared_is_zero(bockstein_complex(K))


def test_torsion_free_forces_beta_zero(rng, z5):
    # complexes with xi-torsion-free cohomology have vanishing Bockstein
    for _ in range(20):
        K = random_complex(z5, rng, max_degree=3, max_rank=3, torsion_free=True)
        assert all(cohomology(K, i).xi_torsion_free for i in K.degrees())
        bc = bockstein_complex(K)
        for i in range(K.lo, K.hi):
            assert bc.beta_matrix(i).is_zero()


def test_reduction_identification_examples(z3):
    res = verify_reduction_identification(ComplexContext(shell(z3, 3)))
    assert res.passed, res.failures
    K0 = FreeComplex(z3, 0, [2, 1], [Matrix.zeros(z3, 1, 2)])
    assert verify_reduction_identification(ComplexContext(K0)).passed


def test_reduction_identification_random(rng):
    for ring in desk_rings():
        for _ in range(5):
            K = random_complex(ring, rng, max_degree=3, max_rank=3)
            res = verify_reduction_identification(ComplexContext(K))
            assert res.passed, (ring, res.failures)


def test_connecting_factorization_example(z3):
    # beta is an isomorphism, so the four-term sequence is 0 -> 0 -> k -> k -> 0 -> 0
    K = shell(z3, 3)
    res = connecting_factorization(ComplexContext(K), 0)
    assert res.passed, res.failures
    bc = bockstein_complex(K)
    from decalage.kmatrix import kernel_cols

    assert kernel_cols(bc.beta_matrix(0)).cols == 0


def test_connecting_factorization_zero_differential(z3):
    K = FreeComplex(z3, 0, [2, 2], [Matrix.zeros(z3, 2, 2)])
    for m in range(0, 3):
        assert connecting_factorization(ComplexContext(K), m).passed


def test_connecting_factorization_random(rng, z2):
    for _ in range(10):
        K = random_complex(z2, rng, max_degree=3, max_rank=3)
        for m in range(0, K.hi + 2):
            res = connecting_factorization(ComplexContext(K), m)
            assert res.passed, (m, res.failures)


def test_mod_xi_subquotient_vs_hodge(rng):
    for ring in desk_rings():
        for _ in range(4):
            K = random_complex(ring, rng, max_degree=3, max_rank=3)
            for m in range(0, K.hi + 2):
                res = verify_mod_xi_subquotient(ComplexContext(K), m)
                assert res.passed, (ring, m, res.failures)


def test_split_example(z3):
    K = shell(z3, 3)
    s = split_mod_xi(ComplexContext(K), 0)
    assert s.check.passed, s.check.failures
    assert s.dims[0] == {"reduced": 1, "truncation_factor": 1, "hodge_factor": 0}
    assert s.dims[1] == {"reduced": 1, "truncation_factor": 0, "hodge_factor": 1}


def test_split_zero_differential_and_acyclic(z3):
    K0 = FreeComplex(z3, 0, [2, 1], [Matrix.zeros(z3, 1, 2)])
    for m in range(0, 3):
        assert split_mod_xi(ComplexContext(K0), m).check.passed
    unit = shell(z3, 1)
    s = split_mod_xi(ComplexContext(unit), 0)
    assert s.check.passed
    from decalage.bockstein import k_cohomology_quotient

    for i in unit.degrees():
        assert k_cohomology_quotient(s.reduced, i).dim == 0


def test_split_random(rng):
    for ring in desk_rings():
        for _ in range(4):
            K = random_complex(ring, rng, max_degree=3, max_rank=3)
            for m in range(0, K.hi + 2):
                s = split_mod_xi(ComplexContext(K), m)
                assert s.check.passed, (ring, m, s.check.failures)
