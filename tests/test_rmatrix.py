from fractions import Fraction

import pytest

from decalage import rmatrix
from decalage.bockstein import Memo
from decalage.complexes import _presentation
from decalage.instances import generate_instance
from decalage.rings import IntegerRing, PolynomialRing, PrimeField
from decalage.rmatrix import Matrix, ShapeMismatch, snf, solve_exact
from decalage.sites import PosetSite
from decalage.theorem import verify_main_theorem

from oracles import (
    determinant,
    fraction_kernel_rank,
    invariant_factors_by_minors,
    lattice_intersect,
    minors_rank,
    sd_pullback,
    validate_snf,
)
from test_contexts import patch_everywhere


def rand_matrix(ring, rng, rows, cols, span=6):
    if isinstance(ring, PolynomialRing):
        def entry():
            return ring.from_coeffs([rng.randrange(5) for _ in range(rng.randint(1, 3))])
    else:
        def entry():
            return rng.randint(-span, span)
    return Matrix(ring, [[entry() for _ in range(cols)] for _ in range(rows)], cols=cols)


def assert_snf_contract(M):
    res = snf(M)
    validate_snf(M, res)
    # the inverses make U and V unimodular; their determinants say so directly
    assert M.ring.is_unit(determinant(res.u))
    assert M.ring.is_unit(determinant(res.v))


def test_snf_examples(z5):
    M = Matrix(z5, [[2, 4], [6, 8]])
    res = snf(M)
    assert res.factors == (2, 4)
    assert res.d == Matrix(z5, [[2, 0], [0, 4]])

    Z = Matrix.zeros(z5, 3, 2)
    assert snf(Z).factors == ()
    assert snf(Z).d.is_zero()

    I3 = Matrix.identity(z5, 3)
    r = snf(I3)
    assert r.d == I3 and r.u == I3 and r.v == I3


def test_snf_deterministic(z3, rng):
    M = rand_matrix(z3, rng, 4, 4)
    first = snf(M)
    again = snf(M)
    assert first.d == again.d and first.u == again.u and first.v == again.v


def test_snf_matches_minors_oracle(rng):
    rings = [IntegerRing(2), IntegerRing(5), PolynomialRing(PrimeField(5))]
    for ring in rings:
        for _ in range(60):
            M = rand_matrix(ring, rng, rng.randint(1, 4), rng.randint(1, 4))
            assert snf(M).factors == invariant_factors_by_minors(M)
            assert_snf_contract(M)


def test_snf_factors_match_sympy(rng, z5):
    # up to 8 x 8, out of reach of the factorial minors oracle; sympy's Smith
    # form over ZZ is an independent route to the invariant factors
    sympy = pytest.importorskip("sympy")
    from sympy.matrices.normalforms import invariant_factors

    for trial in range(60):
        rows, cols = (8, 8) if trial % 2 else (rng.randint(1, 8), rng.randint(1, 8))
        zero_share = rng.random()
        M = Matrix(z5, [[0 if rng.random() < zero_share else rng.randint(-9, 9)
                         for _ in range(cols)] for _ in range(rows)], cols=cols)
        want = invariant_factors(sympy.Matrix(M.data), domain=sympy.ZZ)
        assert snf(M).factors == tuple(int(f) for f in want if f != 0)


def test_snf_contract_thousand(rng):
    # dims up to 5: transforms exact and unimodular, chain normalized
    rings = [IntegerRing(2), IntegerRing(3), IntegerRing(5),
             PolynomialRing(PrimeField(5))]
    for j in range(1000):
        ring = rings[j % len(rings)]
        M = rand_matrix(ring, rng, rng.randint(1, 5), rng.randint(1, 5), span=5)
        assert_snf_contract(M)


@pytest.mark.parametrize("site, seed, ring", [
    ("sd-sphere", 1, IntegerRing(2)),
    ("sd-sphere", 2, IntegerRing(2)),
    ("sd-sphere", 1, PolynomialRing(PrimeField(5))),
    ("chain8", 1, IntegerRing(2)),
], ids=["sd-sphere-1-z2", "sd-sphere-2-z2", "sd-sphere-1-f5t", "chain8-1-z2"])
def test_snf_certificates_on_site_scale_theorem_traffic(monkeypatch, site, seed, ring):
    # every Smith form verify_main_theorem reads on sites where the dense
    # oracle cannot run, certified by products alone
    if site == "sd-sphere":
        F = sd_pullback(generate_instance("h1", seed, ring=ring, site=PosetSite.sphere()))
    else:
        F = generate_instance("h1", seed, ring=ring, site=PosetSite.chain(8))
    factored = []
    factor = rmatrix.snf

    def recorded(M):
        res = factor(M)
        factored.append((M, res))
        return res

    patch_everywhere(monkeypatch, rmatrix, "snf", recorded)
    verify_main_theorem(F)
    monkeypatch.undo()
    assert max(max(M.rows, M.cols) for M, _ in factored) >= 64
    for M, res in factored:
        validate_snf(M, res)


def test_xi_residue_divides_reduces_and_refuses(z2, qt):
    M = Matrix(z2, [[0, 4, 6], [2, -8, 12]])
    assert M.xi_residue(1) == Matrix(z2.residue_field(), [[0, 0, 1], [1, 0, 0]])
    with pytest.raises(ArithmeticError):
        M.xi_residue(2)
    # every entry lands in k, a zero entry as k's own zero
    got = Matrix(qt, [[(), qt.parse("3*t+t^2")]]).xi_residue(1)
    assert got.ring == qt.residue_field()
    assert [type(x) for x in got.data[0]] == [Fraction, Fraction] and got.data == ((0, 3),)
    with pytest.raises(ArithmeticError):
        Matrix(qt, [[qt.parse("1+t")]]).xi_residue(1)


def test_matrix_rejects_ragged_rows(z2):
    with pytest.raises(ShapeMismatch):
        Matrix(z2, [[1, 0], [1]])
    with pytest.raises(ShapeMismatch):
        Matrix(z2, [[1], [1, 0], [0, 1]])
    assert Matrix(z2, [[]] * 3).cols == 0
    assert Matrix(z2, [], cols=4).cols == 4


def test_matrix_constructors_refuse_a_count_their_data_contradicts(z2):
    with pytest.raises(ShapeMismatch):
        Matrix(z2, [[1, 2]], cols=3)
    with pytest.raises(ShapeMismatch):
        Matrix.from_columns(z2, [(1, 2)], rows=3)
    assert Matrix(z2, [[1, 2]], cols=2) == Matrix.from_columns(z2, [(1,), (2,)], rows=1)


def test_matrix_hash_follows_content(z2, rng):
    M = rand_matrix(z2, rng, 3, 4)
    again = Matrix(z2, [list(row) for row in M.data])
    assert hash(M) == hash(M)  # the cached hash is the same on every read
    assert again == M and hash(again) == hash(M)
    assert hash(M @ Matrix.identity(z2, 4)) == hash(M)
    assert {M: 1}[again] == 1


def test_kernel_examples(z3, z2):
    assert snf(Matrix(z3, [[3]])).kernel().cols == 0
    assert snf(Matrix(z3, [[0]])).kernel() == Matrix(z3, [[1]])
    M = Matrix(z2, [[1, 0], [0, 2]])
    assert snf(M).kernel().cols == 0
    assert fraction_kernel_rank(M) == 0


def test_kernel_contract(rng, z5):
    for _ in range(80):
        M = rand_matrix(z5, rng, rng.randint(1, 4), rng.randint(1, 4))
        B = snf(M).kernel()
        assert (M @ B).is_zero()
        assert minors_rank(B) == B.cols  # full column rank
        assert B.cols == M.cols - minors_rank(M)
        assert B.cols == fraction_kernel_rank(M)


def test_image_basis_spans(rng, z3):
    for _ in range(60):
        M = rand_matrix(z3, rng, rng.randint(1, 4), rng.randint(1, 4))
        B = snf(M).image()
        assert B.cols == minors_rank(M)
        # mutual containment of spans
        assert solve_exact(B, M) is not None
        assert solve_exact(M, B) is not None


def preimage(A: Matrix, S: Matrix) -> Matrix:
    """{ x : A x in span(S) }, as the cocycle basis of a presentation with A as
    its differential, S as the next relations and no boundaries."""
    empty = Matrix.zeros(A.ring, A.cols, 0)
    return _presentation(Memo(), empty, S, A, empty).gens_basis


def test_preimage_basis(rng, z5, f5t):
    assert preimage(Matrix(z5, [[2]]), Matrix(z5, [[5]])) == Matrix(z5, [[5]])
    for ring in (z5, f5t):
        for _ in range(40):
            A = rand_matrix(ring, rng, rng.randint(1, 3), rng.randint(1, 3))
            S = rand_matrix(ring, rng, A.rows, rng.randint(0, 2))
            B = preimage(A, S)
            assert minors_rank(B) == B.cols  # full column rank
            # A B lies in span(S), and every x with A x in span(S) lies in span(B)
            assert solve_exact(S, A @ B) is not None
            ker = snf(A.hstack(S)).kernel()
            assert solve_exact(B, ker.submatrix(0, A.cols, 0, ker.cols)) is not None


def test_solve_exact(z5):
    A = Matrix(z5, [[2, 0], [0, 3]])
    X = solve_exact(A, Matrix(z5, [[4], [9]]))
    assert (A @ X) == Matrix(z5, [[4], [9]])
    assert solve_exact(A, Matrix(z5, [[1], [0]])) is None


def test_solve_random(rng, f5t):
    for _ in range(40):
        A = rand_matrix(f5t, rng, rng.randint(1, 3), rng.randint(1, 3))
        X0 = rand_matrix(f5t, rng, A.cols, 2)
        B = A @ X0
        X = solve_exact(A, B)
        assert X is not None
        assert (A @ X) == B


def test_intersect_spans(z5):
    W = lattice_intersect(Memo(), Matrix(z5, [[2, 0], [0, 3]]), Matrix(z5, [[1], [1]]))
    assert W.cols == 1
    col = W.column(0)
    assert col[0] == col[1] and col[0] % 6 == 0 and col[0] != 0


def test_zero_shape_handling(z3):
    empty = Matrix.zeros(z3, 0, 3)
    assert snf(empty).kernel() == Matrix.identity(z3, 3)
    tall = Matrix.zeros(z3, 3, 0)
    assert snf(tall).kernel().cols == 0
    prod = Matrix.zeros(z3, 2, 0) @ Matrix.zeros(z3, 0, 4)
    assert prod.rows == 2 and prod.cols == 4 and prod.is_zero()


def test_hstack_with_an_empty_side_is_the_other_side(z3):
    M = Matrix(z3, [[1, 2], [0, 3]])
    empty = Matrix.zeros(z3, 2, 0)
    # matrices are immutable, so the other side itself is returned, not a copy
    assert M.hstack(empty) is M
    assert empty.hstack(M) is M
    assert empty.hstack(empty) is empty
    assert M.hstack(M) == Matrix(z3, [[1, 2, 1, 2], [0, 3, 0, 3]])
    no_rows = Matrix.zeros(z3, 0, 2)
    assert no_rows.hstack(Matrix.zeros(z3, 0, 0)) is no_rows
    # an empty side of another height is still refused
    for a, b in ((M, Matrix.zeros(z3, 3, 0)), (Matrix.zeros(z3, 3, 0), M),
                 (M, Matrix.zeros(z3, 1, 2))):
        with pytest.raises(ShapeMismatch):
            a.hstack(b)


def test_determinant(rng, z5):
    assert determinant(Matrix.identity(z5, 3)) == 1
    for _ in range(30):
        n = rng.randint(1, 4)
        M = rand_matrix(z5, rng, n, n)
        res = snf(M)
        d = determinant(M)
        prod = 1
        for f in res.factors:
            prod *= f
        if res.rank < n:
            assert d == 0
        else:
            assert abs(d) == abs(prod)
