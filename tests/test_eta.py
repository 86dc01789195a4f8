import json
import random
import sys

import pytest

from decalage import eta, rmatrix
from decalage.bockstein import Memo, verify_mod_xi_subquotient
from decalage.complexes import (
    ChainMap,
    FGModule,
    FreeComplex,
    cohomology_presentation,
    factor_through,
)
from decalage.eta import (
    DegreeBelowZero,
    NegativeM,
    congruence_kernel,
    eta_m,
    graded_piece,
    is_stationary_stage,
    mod_xi_subquotient,
    verify_eta_m_cohomology,
    verify_graded_piece,
    xi_step_inclusion_holds,
)
from decalage.instances import generate_instance, random_complex
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.rmatrix import Matrix, NotTriangular, solve_exact
from decalage.sites import InstanceContext
from oracles import (
    cokernel_term,
    congruence_kernel_by_snf,
    dense_rref,
    determinant,
    is_degreewise_injective,
    shift,
)


LATTICE_RINGS = {"z2": IntegerRing(2), "z3": IntegerRing(3), "z5": IntegerRing(5),
                 "f5t": PolynomialRing(PrimeField(5)), "qt": PolynomialRing(RationalField())}


def shell(ring, c):
    return FreeComplex(ring, 0, [1, 1], [Matrix(ring, [[c]])])


def test_eta_kills_torsion_example(z3):
    K = shell(z3, 3)
    emb = eta_m(Memo(), K, 0)
    emb.validate()
    assert is_degreewise_injective(emb)
    # E is the acyclic unit shell in disguise
    assert cohomology_presentation(Memo(), emb.source, 0).module.is_zero()
    assert cohomology_presentation(Memo(), emb.source, 1).module.is_zero()
    # degree-1 basis is p*f
    assert emb.map(1) == Matrix(z3, [[3]])


def test_eta_zero_differential(z3):
    K = FreeComplex(z3, 0, [2, 1], [Matrix.zeros(z3, 1, 2)])
    emb = eta_m(Memo(), K, 0)
    assert emb.map(0) == Matrix.identity(z3, 2)
    assert emb.map(1) == Matrix(z3, [[3]])
    assert emb.source.d(0).is_zero()
    for i in (0, 1):
        got = cohomology_presentation(Memo(), emb.source, i).module
        assert got == cohomology_presentation(Memo(), K, i).module


def test_eta_p_squared(z2):
    K = shell(z2, 4)
    emb = eta_m(Memo(), K, 0)
    assert cohomology_presentation(Memo(), emb.source, 1).module == FGModule(z2, 0, (2,))


def test_eta_requires_nonnegative_degrees(z3):
    K = FreeComplex(z3, -1, [1, 1], [Matrix.zeros(z3, 1, 1)])
    with pytest.raises(DegreeBelowZero):
        eta_m(Memo(), K, 0)
    shifted = shift(K, -1)
    assert shifted.lo == 0
    eta_m(Memo(), shifted, 0)


def test_eta_m_examples(z5):
    K = shell(z5, 5)
    emb = eta_m(Memo(), K, 1)
    assert emb.map(0) == Matrix(z5, [[5]])
    assert emb.map(1) == Matrix(z5, [[5]])
    assert cohomology_presentation(Memo(), emb.source, 0).module.is_zero()
    assert cohomology_presentation(Memo(), emb.source, 1).module == FGModule(z5, 0, (5,))
    with pytest.raises(NegativeM):
        eta_m(Memo(), K, -1)


def test_eta_m_zero_is_eta(z5, rng):
    for _ in range(10):
        K = random_complex(z5, rng, max_degree=3, max_rank=3)
        a = eta_m(Memo(), K, 0)
        b = eta_m(Memo(), K, 0)
        assert a.source == b.source
        assert all(a.map(i) == b.map(i) for i in K.degrees())


def test_eta_m_beyond_top_degree(z5, rng):
    for _ in range(10):
        K = random_complex(z5, rng, max_degree=2, max_rank=3)
        m = K.hi + 1
        ctx = Memo()
        emb = ctx.stage(K, m)
        assert is_stationary_stage(ctx, K, m)
        for i in K.degrees():
            got = cohomology_presentation(Memo(), emb.source, i).module
            assert got == cohomology_presentation(Memo(), K, i).module


def test_stationarity_takes_no_solve(monkeypatch, z5, rng):
    def refused(*args):
        raise AssertionError("stationarity is compared on the nose, with no solve")

    monkeypatch.setattr(eta, "factor_through", refused)
    monkeypatch.setattr(eta, "solve", refused)
    for _ in range(10):
        K = random_complex(z5, rng, max_degree=3, max_rank=3)
        assert is_stationary_stage(Memo(), K, K.hi + 1)


def test_stationarity_is_on_the_nose_not_up_to_a_change_of_basis(z5, rng):
    # a stage xi^m * P with P unimodular but not the identity has the span of
    # xi^m K, and still is not what eta_m builds from m = hi on
    for _ in range(10):
        K = random_complex(z5, rng, max_degree=3, max_rank=3)
        assert any(K.ranks())
        m = K.hi + 1
        ctx = Memo()
        turned = ChainMap(K, K, {i: Matrix.scalar(z5, K.rank(i), -z5.xi_power(m))
                                 for i in K.degrees()})
        scaled = ctx.stage(K, m)
        factor_through(turned, scaled)
        factor_through(scaled, turned)
        ctx.stage = lambda K, m: turned
        assert not is_stationary_stage(ctx, K, m)


@pytest.mark.parametrize("ring", sorted(LATTICE_RINGS))
def test_stage_beyond_top_degree_is_the_complex_itself(ring):
    # stage m > hi is xi^m K, whose restricted differentials are d: the
    # subcomplex equals K, so its source is K, and its bases are xi^m I
    R = LATTICE_RINGS[ring]
    for seed in range(20):
        K = random_complex(R, random.Random(seed), max_degree=3, max_rank=3)
        ctx = Memo()
        for m in range(K.hi + 1, K.hi + 3):
            emb = ctx.stage(K, m)
            assert emb.source is K, (seed, m)
            assert all(emb.map(i) == Matrix.scalar(R, K.rank(i), R.xi_power(m))
                       for i in K.degrees()), (seed, m)


def test_filtration_containments(z5, rng):
    K = shell(z5, 5)
    ctx = Memo()
    stages = [ctx.stage(K, m) for m in range(4)]
    incs = [ctx.inclusion(K, m) for m in range(3)]
    for inc in incs:
        inc.validate()
        assert is_degreewise_injective(inc)
    # eta_{5,1} = [5Z -> 5Z] inside eta_{5,0} = [Z -> 5Z]
    assert stages[0].map(0) == Matrix.identity(z5, 1)
    assert stages[1].map(0) == Matrix(z5, [[5]])
    for _ in range(10):
        K = random_complex(z5, rng, max_degree=2, max_rank=3)
        for m in range(0, K.hi + 2):
            assert xi_step_inclusion_holds(Memo(), K, m)


def test_cohomology_lemma_examples(z2):
    K = shell(z2, 4)
    for m in (0, 1, 2, 3):
        res = verify_eta_m_cohomology(Memo(), K, m)
        assert res.passed, (m, res.failures)
    # explicit values: H^1(stage 0) = Z/2, H^1(stage 2) carries Z/4
    ctx = Memo()
    stage0, stage2 = eta_m(ctx, K, 0), eta_m(ctx, K, 2)
    assert cohomology_presentation(ctx, stage0.source, 1).module == FGModule(z2, 0, (2,))
    assert cohomology_presentation(ctx, stage2.source, 1).module == FGModule(z2, 0, (4,))


def test_graded_piece_example(z3):
    K = shell(z3, 3)
    ctx = Memo()
    graded_piece(ctx, K, 0).validate()
    inc = ctx.inclusion(K, 0)
    assert cokernel_term(ctx, inc, 0).k_dimension() == 1
    assert cokernel_term(ctx, inc, 1).k_dimension() == 0
    assert ctx.truncation(ctx.kbar(K), 0).source.rank(0) == 1
    res = verify_graded_piece(ctx, K, 0)
    assert res.passed, res.failures


def test_graded_piece_zero_differential(z3):
    K = FreeComplex(z3, 0, [2, 1], [Matrix.zeros(z3, 1, 2)])
    for m in range(0, 4):
        ctx = Memo()
        graded_piece(ctx, K, m).validate()
        assert verify_graded_piece(ctx, K, m).passed
        for i in K.degrees():
            want = K.rank(i) if i <= m else 0
            assert cokernel_term(ctx, ctx.inclusion(K, m), i).k_dimension() == want


def test_mod_xi_subquotient_example(z3):
    K = shell(z3, 3)
    ctx = Memo()
    sq = mod_xi_subquotient(ctx, K, 0)
    sq.validate()
    assert ctx.presentation(sq, 0).module.is_zero()
    assert cokernel_term(ctx, sq, 0).k_dimension() == 0
    assert cokernel_term(ctx, sq, 1).k_dimension() == 1


def test_mod_xi_subquotient_above_top(z3, rng):
    K = random_complex(z3, rng, max_degree=2, max_rank=2)
    m = K.hi + 1
    ctx = Memo()
    sq = mod_xi_subquotient(ctx, K, m)
    for i in K.degrees():
        assert cokernel_term(ctx, sq, i).k_dimension() == 0 or i >= m + 1


def assert_factors(g, f, incl):
    """incl @ g == f in every degree of f's source, and g runs between the right complexes."""
    assert g.source is f.source and g.target is incl.source
    for i in f.source.degrees():
        assert incl.map(i) @ g.map(i) == f.map(i), i


def test_stage_inclusion_solves_exactly(z5, z2, z3, f5t, qt, rng):
    for _ in range(8):
        K = random_complex(z5, rng, max_degree=2, max_rank=3)
        ctx = Memo()
        fine = eta_m(ctx, K, 2)
        coarse = eta_m(ctx, K, 1)
        inc = factor_through(fine, coarse)
        inc.validate()
        assert_factors(inc, fine, coarse)
        for i in K.degrees():
            # xi * coarse lands in fine
            assert solve_exact(fine.map(i), coarse.map(i).scale(z5.xi)) is not None
        # the graded comparison factors the reduced stage through the truncation
        kbar = ctx.kbar(K)
        for m in range(K.hi + 2):
            stage, tau = ctx.stage(K, m), ctx.truncation(kbar, m)
            reduced = ChainMap(ctx.kbar(stage.source), kbar,
                               {i: stage.map(i).xi_residue(m)
                                for i in K.degrees() if i <= m})
            comparison = ctx.graded(K, m)
            assert comparison.target is tau.source
            for i in K.degrees():
                assert tau.map(i) @ comparison.map(i) == reduced.map(i), (m, i)
    # each restriction of a subsheaf is the restriction of F factored through it,
    # and each stalk of a subsheaf is its inclusion's source there
    for F in [generate_instance("free", 11, ring=z5)] + [
            generate_instance("h1", 0, ring=R) for R in (z2, z3, f5t, qt)]:
        ctx = InstanceContext(F)
        for incl in ([ctx.stage_sheaf(m) for m in range(F.hi() + 2)]
                     + [ctx.truncation_sheaf(q) for q in range(F.hi() + 1)]
                     + [ctx.hodge_sheaf(p) for p in range(F.hi() + 2)]):
            sub, G = incl.source, incl.target
            for a, b in G.site.strict_pairs():
                assert_factors(sub.res(a, b), G.res(a, b).after(incl.map(a)), incl.map(b))


def test_factor_through_refuses_images_that_are_not_nested(z5, rng):
    K = shell(z5, 5)
    ctx = Memo()
    fine, coarse = eta_m(ctx, K, 2), eta_m(ctx, K, 1)
    # stage 2 is xi * stage 1 here, so stage 1 does not lie in stage 2
    with pytest.raises(ArithmeticError):
        factor_through(coarse, fine)
    ident = ChainMap.identity(K)
    with pytest.raises(ArithmeticError):
        factor_through(ident, fine)
    assert_factors(factor_through(fine, ident), fine, ident)
    for _ in range(6):
        K = random_complex(z5, rng, max_degree=2, max_rank=3)
        ctx = Memo()
        top = K.hi + 1
        scaled = ChainMap(K, K, {i: Matrix.scalar(z5, K.rank(i), z5.xi_power(top))
                                 for i in K.degrees()})
        # past the top degree the stage is xi^m * K, and xi^m * K is not K
        stage = eta_m(ctx, K, top)
        assert_factors(factor_through(stage, scaled), stage, scaled)
        if K.total_rank():
            with pytest.raises(ArithmeticError):
                factor_through(ChainMap.identity(K), scaled)


class ShearedStages(Memo):
    """A context whose every stage is one rank-2 term spanned by an upper-triangular basis."""

    def __init__(self, basis):
        super().__init__()
        self.basis = basis

    def stage(self, K, m):
        return ChainMap(K, K, {0: self.basis})


@pytest.mark.parametrize("ring", ["z2", "z3", "f5t", "qt"])
def test_substitution_refuses_a_basis_that_is_not_lower_triangular(ring):
    # substitution against such a basis would give a wrong X, not None: it is
    # refused with an error that is not an ArithmeticError, so no membership
    # test reads it as "not nested"
    R = LATTICE_RINGS[ring]
    one, zero = R.one(), R.zero()
    upper = Matrix(R, [[one, one], [zero, one]])
    singular = Matrix(R, [[one, zero], [one, zero]])
    B = Matrix(R, [[one], [one]])
    assert not issubclass(NotTriangular, ArithmeticError)
    for A in (upper, singular, Matrix(R, [[one, one]]).transpose()):
        with pytest.raises(NotTriangular):
            rmatrix.substitute(A, B)
    assert solve_exact(upper, B) == Matrix(R, [[zero], [one]])
    K = FreeComplex(R, 0, [2], [])
    for incl in (ChainMap(K, K, {0: upper}), ChainMap(K, K, {0: singular})):
        with pytest.raises(NotTriangular):
            factor_through(ChainMap.identity(K), incl)
    with pytest.raises(NotTriangular):
        xi_step_inclusion_holds(ShearedStages(upper), K, 0)


def test_lemma_suite_random(rng):
    from conftest import desk_rings

    for ring in desk_rings():
        for _ in range(6):
            K = random_complex(ring, rng, max_degree=3, max_rank=3)
            for m in range(0, K.hi + 3):
                res = verify_eta_m_cohomology(Memo(), K, m)
                assert res.passed, (ring, m, res.failures)


# The records of the three checks below when every FGModule comparison fails,
# as the checks wrote them when they formatted their witnesses with repr()
# eagerly; the test compares their JSON text.
FAILING_WITNESS_RECORDS = [{'check': 'eta-m.graded-piece',
  'failures': [{'degree': 0,
                'got': '<FG R/(2)>',
                'reason': 'graded cohomology mismatch',
                'want': '<FG R/(2)>'},
               {'degree': 1,
                'got': '<FG R/(2) + R/(2)>',
                'reason': 'graded cohomology mismatch',
                'want': '<FG R/(2) + R/(2)>'},
               {'degree': 2,
                'got': '<FG 0>',
                'reason': 'graded cohomology mismatch',
                'want': '<FG 0>'}],
  'passed': False},
 {'check': 'eta-m.cohomology',
  'failures': [{'degree': 0, 'got': '<FG 0>', 'm': 1, 'want': '<FG 0>'},
               {'degree': 1, 'got': '<FG R/(2)>', 'm': 1, 'want': '<FG R/(2)>'},
               {'degree': 2, 'got': '<FG R/(2)>', 'm': 1, 'want': '<FG R/(2)>'},
               {'degree': 0,
                'got': '<FG 0>',
                'reason': 'decalage vs torsion quotient',
                'want': '<FG 0>'},
               {'degree': 1,
                'got': '<FG 0>',
                'reason': 'decalage vs torsion quotient',
                'want': '<FG 0>'},
               {'degree': 2,
                'got': '<FG R/(2)>',
                'reason': 'decalage vs torsion quotient',
                'want': '<FG R/(2)>'}],
  'passed': False},
 {'check': 'eta-m.mod-xi-subquotient',
  'failures': [{'degree': 0, 'got': '<FG 0>', 'm': 1, 'want': '<FG 0>'},
               {'degree': 1, 'got': '<FG 0>', 'm': 1, 'want': '<FG 0>'},
               {'degree': 2, 'got': '<FG R/(2)>', 'm': 1, 'want': '<FG R/(2)>'}],
  'passed': False}]


def test_failing_module_witnesses_print_as_before(monkeypatch):
    # the checks hand their FGModule witnesses over unformatted; a failing
    # check's JSON must still read repr() of each, byte for byte
    R = IntegerRing(2)
    K = FreeComplex(R, 0, [1, 2, 1], [Matrix(R, [[2], [0]]), Matrix(R, [[0, 4]])])
    monkeypatch.setattr(FGModule, "__eq__", lambda self, other: False)
    got = [check(Memo(), K, 1).to_json()
           for check in (verify_graded_piece, verify_eta_m_cohomology, verify_mod_xi_subquotient)]
    assert json.dumps(got, sort_keys=True) == json.dumps(FAILING_WITNESS_RECORDS, sort_keys=True)


# ---------------------------------------------------------------------------
# the stage lattice from its definition over k, against the ring-side route


def same_span(A: Matrix, B: Matrix) -> bool:
    return solve_exact(A, B) is not None and solve_exact(B, A) is not None


@pytest.mark.parametrize("ring", sorted(LATTICE_RINGS))
def test_congruence_kernel_is_the_ring_side_lattice(ring):
    R = LATTICE_RINGS[ring]
    controls = 0
    for seed in range(200):
        K = random_complex(R, random.Random(seed), max_degree=4, max_rank=4)
        for i in K.degrees():
            n, basis = K.rank(i), congruence_kernel(K.d(i))
            want = congruence_kernel_by_snf(K, i)
            assert same_span(basis, want), (seed, i)
            # column j is a pivot when it is not in the span of the columns after it
            reversed_d = K.d(i).residue().take_columns(range(n - 1, -1, -1))
            pivots = {n - 1 - c for c in dense_rref(reversed_d)[1]}
            # lower triangular: 1 on the diagonal at free columns, xi at pivot columns
            for r in range(n):
                assert all(R.is_zero(x) for x in basis.data[r][r + 1:]), (seed, i)
                assert basis.data[r][r] == (R.xi if r in pivots else R.one()), (seed, i)
            assert determinant(basis) == R.xi_power(len(pivots)), (seed, i)
            if R.kind == "z":
                # the free columns are canonical lifts
                assert all(0 <= basis.data[r][c] < R.xi
                           for c in range(n) if c not in pivots for r in range(n)), (seed, i)
            if pivots:
                # negative control: e_j in place of xi*e_j at the pivot columns
                unscaled = Matrix.from_columns(R, [
                    basis.column(c) if c not in pivots else Matrix.identity(R, n).column(c)
                    for c in range(n)], rows=n)
                assert not same_span(unscaled, want), (seed, i)
                controls += 1
    assert controls


def test_congruence_kernel_takes_no_smith_form(monkeypatch, z3):
    def refused(M):
        raise AssertionError("a Smith form was taken")

    complexes = [random_complex(z3, random.Random(seed), max_degree=4, max_rank=4)
                 for seed in range(20)]
    want = [congruence_kernel(K.d(i)) for K in complexes for i in K.degrees()]
    original = rmatrix.snf
    for module in [m for name, m in sys.modules.items() if name.startswith("decalage")]:
        if getattr(module, "snf", None) is original:
            monkeypatch.setattr(module, "snf", refused)
    assert rmatrix.snf is refused
    assert [congruence_kernel(K.d(i)) for K in complexes for i in K.degrees()] == want
