from decalage.rings import IntegerRing, PolynomialRing, PrimeField
from decalage.rmatrix import (
    Matrix,
    image_basis,
    intersect_spans,
    kernel_basis,
    snf,
    solve_exact,
)

from oracles import determinant, fraction_kernel_rank, invariant_factors_by_minors, minors_rank


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
    R = M.ring
    assert (res.u @ M @ res.v) == res.d
    assert (res.u @ res.uinv) == Matrix.identity(R, M.rows)
    assert (res.uinv @ res.u) == Matrix.identity(R, M.rows)
    assert (res.v @ res.vinv) == Matrix.identity(R, M.cols)
    # unimodular transforms
    assert R.is_unit(determinant(res.u))
    assert R.is_unit(determinant(res.v))
    # diagonal, normalized, divisibility chain
    for i in range(res.d.rows):
        for j in range(res.d.cols):
            if i != j:
                assert R.is_zero(res.d.entry(i, j))
    for a, b in zip(res.factors, res.factors[1:]):
        assert R.divides(a, b)
    for f in res.factors:
        _, n = R.unit_normalize(f)
        assert n == f


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


def test_snf_contract_thousand(rng):
    # dims up to 5: transforms exact and unimodular, chain normalized
    rings = [IntegerRing(2), IntegerRing(3), IntegerRing(5),
             PolynomialRing(PrimeField(5))]
    for j in range(1000):
        ring = rings[j % len(rings)]
        M = rand_matrix(ring, rng, rng.randint(1, 5), rng.randint(1, 5), span=5)
        assert_snf_contract(M)


def test_kernel_examples(z3, z2):
    assert kernel_basis(Matrix(z3, [[3]])).cols == 0
    assert kernel_basis(Matrix(z3, [[0]])) == Matrix(z3, [[1]])
    M = Matrix(z2, [[1, 0], [0, 2]])
    assert kernel_basis(M).cols == 0
    assert fraction_kernel_rank(M) == 0


def test_kernel_contract(rng, z5):
    for _ in range(80):
        M = rand_matrix(z5, rng, rng.randint(1, 4), rng.randint(1, 4))
        B = kernel_basis(M)
        assert (M @ B).is_zero()
        assert minors_rank(B) == B.cols  # full column rank
        assert B.cols == M.cols - minors_rank(M)
        assert B.cols == fraction_kernel_rank(M)


def test_image_basis_spans(rng, z3):
    for _ in range(60):
        M = rand_matrix(z3, rng, rng.randint(1, 4), rng.randint(1, 4))
        B = image_basis(M)
        assert B.cols == minors_rank(M)
        # mutual containment of spans
        assert solve_exact(B, M) is not None
        assert solve_exact(M, B) is not None


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
    W = intersect_spans(Matrix(z5, [[2, 0], [0, 3]]), Matrix(z5, [[1], [1]]))
    assert W.cols == 1
    col = W.column(0)
    assert col[0] == col[1] and col[0] % 6 == 0 and col[0] != 0


def test_zero_shape_handling(z3):
    empty = Matrix.zeros(z3, 0, 3)
    assert kernel_basis(empty) == Matrix.identity(z3, 3)
    tall = Matrix.zeros(z3, 3, 0)
    assert kernel_basis(tall).cols == 0
    prod = Matrix.zeros(z3, 2, 0) @ Matrix.zeros(z3, 0, 4)
    assert prod.rows == 2 and prod.cols == 4 and prod.is_zero()


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
