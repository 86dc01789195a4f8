import pytest

from decalage import kmatrix
from decalage.instances import generate_instance
from decalage.kmatrix import QuotientSpace, Subspace, field_rank, kernel, rref, solve_field
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.rmatrix import Matrix
from decalage.sites import PosetSite
from decalage.theorem import verify_main_theorem

from oracles import dense_rref, quotient_coords, sd_pullback, subspace_add, subspace_intersect
from test_contexts import patch_everywhere


def test_rref_and_rank():
    F = PrimeField(5)
    M = Matrix(F, [[1, 2, 3], [2, 4, 1], [0, 0, 2]])
    R, pivots = rref(M)
    assert pivots == (0, 2)
    assert field_rank(M) == 2
    # the second row's pivot comes before the first's, and the third row is
    # the second plus twice the first: the clearing and the zero padding
    R, pivots = rref(Matrix(PrimeField(3), [[0, 1, 1], [1, 2, 1], [1, 1, 0]]))
    assert R.data == ((1, 0, 2), (0, 1, 1), (0, 0, 0)) and pivots == (0, 1)


def test_rref_of_an_empty_matrix_eliminates_nothing(monkeypatch):
    def refused(F, echelon, vectors):
        raise AssertionError("an empty matrix reached the elimination")
        yield

    monkeypatch.setattr(kmatrix, "_extend", refused)
    for F in (PrimeField(2), PrimeField(5), RationalField()):
        for rows, cols in ((0, 0), (0, 1), (0, 4), (1, 0), (3, 0)):
            M = Matrix.zeros(F, rows, cols)
            got, pivots = rref(M)
            want, want_pivots = dense_rref(M)
            assert pivots == want_pivots == ()
            assert (got.rows, got.cols) == (rows, cols) and got == want
    with pytest.raises(AssertionError):
        rref(Matrix(PrimeField(2), [[1]]))


def test_kernel_deterministic():
    F = PrimeField(3)
    M = Matrix(F, [[1, 2, 0], [0, 0, 1]])
    K = kernel(M)
    assert (M @ K.matrix().transpose()).is_zero()
    assert K.dim == 1
    assert K.basis == ((1, 1, 0),) and K.pivots == (0,)
    assert kernel(M) == K


def test_solve_field_rationals():
    Q = RationalField()
    from fractions import Fraction

    A = Matrix(Q, [[Fraction(1), Fraction(2)], [Fraction(3), Fraction(4)]])
    B = Matrix(Q, [[Fraction(5)], [Fraction(6)]])
    X = solve_field(A, B)
    assert (A @ X) == B
    singular = Matrix(Q, [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]])
    assert solve_field(singular, B) is None


def test_subspace_normal_form_equality():
    F = PrimeField(5)
    a = Subspace(F, 3, [(1, 2, 0), (0, 0, 1)])
    b = Subspace(F, 3, [(2, 4, 1), (0, 0, 3), (1, 2, 1)])
    assert a == b
    assert a.contains((1, 2, 3))
    assert not a.contains((1, 0, 0))


def test_subspace_operations():
    F = PrimeField(5)
    e1 = Subspace(F, 3, [(1, 0, 0)])
    e12 = Subspace(F, 3, [(1, 0, 0), (0, 1, 0)])
    e23 = Subspace(F, 3, [(0, 1, 0), (0, 0, 1)])
    assert subspace_intersect(e12, e23) == Subspace(F, 3, [(0, 1, 0)])
    assert subspace_add(e1, e23).dim == 3
    assert e12.contains_space(e1)
    assert not e1.contains_space(e12)


def test_quotient_space_coords():
    F = PrimeField(5)
    z = [(1, 0, 0), (0, 1, 0), (1, 1, 0)]
    b = [(1, 1, 0)]
    q = QuotientSpace(Subspace(F, 3, z), Matrix.from_columns(F, b, rows=3))
    assert q.dim == 1
    c1 = quotient_coords(q, (1, 0, 0))
    c2 = quotient_coords(q, (0, 4, 0))  # = -(0,1,0) = (1,0,0) mod boundaries
    assert len(c1) == 1
    assert c2 == tuple(F.neg(x) for x in c1) or c2 == c1
    # class of a boundary is zero
    assert quotient_coords(q, (2, 2, 0)) == (0,)


def test_quotient_space_refuses_boundaries_outside_the_cycles():
    F = PrimeField(5)
    z = Subspace(F, 3, [(1, 0, 0), (0, 1, 0)])
    with pytest.raises(ValueError, match="do not lie inside"):
        QuotientSpace(z, Matrix.from_columns(F, [(1, 1, 0), (0, 1, 1)], rows=3))


@pytest.mark.parametrize("site, seed, ring", [
    ("sd-sphere", 1, IntegerRing(2)),
    ("sd-sphere", 2, IntegerRing(2)),
    ("sd-sphere", 1, PolynomialRing(PrimeField(5))),
    ("chain8", 1, IntegerRing(2)),
], ids=["sd-sphere-1-z2", "sd-sphere-2-z2", "sd-sphere-1-f5t", "chain8-1-z2"])
def test_field_certificates_on_site_scale_theorem_traffic(monkeypatch, site, seed, ring):
    # the twin of the Smith-form certificates in test_rmatrix.py: every RREF,
    # kernel and quotient verify_main_theorem builds over k, certified by the
    # dense oracle's RREF and ranks
    if site == "sd-sphere":
        F = sd_pullback(generate_instance("h1", seed, ring=ring, site=PosetSite.sphere()))
    else:
        F = generate_instance("h1", seed, ring=ring, site=PosetSite.chain(8))
    reduced, kernels, quotients = {}, {}, []
    plain_rref, plain_kernel, plain_init = kmatrix.rref, kmatrix.kernel, QuotientSpace.__init__

    def recorded_rref(M):
        out = reduced[M] = plain_rref(M)
        return out

    def recorded_kernel(M):
        out = kernels[M] = plain_kernel(M)
        return out

    def recorded_init(self, zspace, boundaries):
        plain_init(self, zspace, boundaries)
        quotients.append((zspace, boundaries, self.reps))

    patch_everywhere(monkeypatch, kmatrix, "rref", recorded_rref)
    patch_everywhere(monkeypatch, kmatrix, "kernel", recorded_kernel)
    monkeypatch.setattr(QuotientSpace, "__init__", recorded_init)
    verify_main_theorem(F)
    monkeypatch.undo()
    assert max(max(M.rows, M.cols) for M in reduced) >= 32
    assert kernels and quotients
    for M, got in reduced.items():
        assert got == dense_rref(M)
    for M, ker in kernels.items():
        k, n = M.ring, M.cols
        assert (M @ ker.matrix().transpose()).is_zero()
        # a free column lies in the span of the columns after it
        _, reversed_pivots = dense_rref(Matrix(k, [row[::-1] for row in M.data], cols=n))
        free = tuple(sorted(set(range(n)).difference(n - 1 - c for c in reversed_pivots)))
        assert ker.pivots == free
        # 1 at its own free column and 0 at the others: independent, n - rank of them
        for v, f in zip(ker.basis, free):
            assert [v[g] for g in free] == [k.one() if g == f else k.zero() for g in free]
    for zspace, boundaries, reps in quotients:
        # the pivot columns of [B | Z] are the columns outside the span of the
        # columns before them: the representatives are the basis vectors of Z,
        # in order, outside B plus the representatives before them, and B + Z
        # has rank dim Z, so B lies in Z
        nb = boundaries.cols
        _, pivots = dense_rref(boundaries.hstack(zspace.matrix().transpose()))
        assert reps == tuple(v for j, v in enumerate(zspace.basis) if nb + j in pivots)
        assert len(pivots) == zspace.dim
