"""The zero-skipping exact kernels against their dense references.

``Matrix.__matmul__`` skips zero entries of both factors, ``rref`` reads the
echelon that ``kmatrix``'s one elimination keeps in RREF row by row (it
updates only the rows with a nonzero entry in the column it reduces or
clears), and ``snf`` keeps its matrices as sparse rows and updates them only
at the nonzero entries of their source.
Each must return what the dense versions in ``oracles.py`` return, entry for
entry and in the same normal form (same Python type, down to polynomial
coefficients), because report digests see element representations.  Shapes
include empty ones and the share of zero entries ranges over [0, 1].
``SNFResult.image_coords`` reads coordinates in an image basis off the Smith
form that built the basis; it must give what a second Smith form, that of
the basis, gives.

The rings' native row kernels are checked the same way against
``oracles.GenericKernels``, which runs the same matrix code on ``BaseRing``'s
generic kernels, and the falsy-zero contract the matrix code relies on is
checked for every ring.  The invariants of H^i that ``Memo.module`` reads
off the differentials' Smith forms are checked against the module of the
full presentation.
"""

import random
from fractions import Fraction

import pytest

from decalage import complexes, rmatrix
from decalage.bockstein import Memo
from decalage.complexes import FGModule, FreeComplex, cohomology_presentation
from decalage.instances import random_complex
from decalage.kmatrix import Subspace, column_lows, field_rank, kernel, rref, solve_field
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.rmatrix import Matrix, NotTriangular, ShapeMismatch, snf
from decalage.theorem import verify_main_theorem
from oracles import (
    GenericKernels,
    column_lows_by_rank,
    dense_matmul,
    dense_rref,
    dense_snf,
    image_coords_by_solve,
    kernel_cols,
    matrix_sum,
    with_generic_kernels,
)
from test_contexts import built_transforms, patch_everywhere, theorem_instance

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
PROPERTY_SETTINGS = hypothesis.settings(max_examples=150, deadline=None)

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5), RationalField()]
RINGS = [IntegerRing(2), IntegerRing(3), PolynomialRing(PrimeField(5)),
         PolynomialRing(RationalField())] + FIELDS
# Smith forms run over the PIDs alone; Z's units cover the unit-pivot branches
SNF_RINGS = [IntegerRing(2), IntegerRing(3), PolynomialRing(PrimeField(5)),
             PolynomialRing(RationalField())]

rationals = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))


def elements(ring):
    """Elements of ``ring`` in its normal form, zero included."""
    if isinstance(ring, IntegerRing):
        return st.integers(-9, 9)
    if isinstance(ring, PrimeField):
        return st.integers(0, ring.p - 1)
    if isinstance(ring, RationalField):
        return rationals
    return st.lists(elements(ring.base), max_size=3).map(ring.from_coeffs)


@st.composite
def matrices(draw, ring, rows, cols):
    """A rows x cols matrix whose entries are zero with a drawn probability."""
    zero_share = draw(st.floats(0, 1))
    elem = elements(ring)
    return Matrix(ring, [[ring.zero() if draw(st.floats(0, 1)) < zero_share else draw(elem)
                          for _ in range(cols)] for _ in range(rows)], cols=cols)


def typed(x):
    """x with the type of every part, so equal values in another form differ."""
    if isinstance(x, tuple):
        return tuple, tuple(typed(c) for c in x)
    return type(x), x


def assert_same_entries(got: Matrix, want: Matrix):
    assert got == want
    assert [[typed(x) for x in row] for row in got.data] == \
        [[typed(x) for x in row] for row in want.data]


dims = st.integers(0, 5)


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(RINGS), dims, dims, dims, st.data())
def test_product_matches_dense_product(ring, rows, inner, cols, data):
    A = data.draw(matrices(ring, rows, inner))
    B = data.draw(matrices(ring, inner, cols))
    got = A @ B
    assert (got.rows, got.cols) == (rows, cols)
    assert_same_entries(got, dense_matmul(A, B))


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(FIELDS), dims, st.integers(0, 7), st.data())
def test_rref_matches_dense_rref(field, rows, cols, data):
    M = data.draw(matrices(field, rows, cols))
    got, pivots = rref(M)
    want, want_pivots = dense_rref(M)
    assert pivots == want_pivots
    assert_same_entries(got, want)


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(FIELDS), dims, st.integers(0, 7), st.data())
def test_kernel_is_the_normal_form_of_the_two_step_kernel(field, rows, cols, data):
    M = data.draw(matrices(field, rows, cols))
    got = kernel(M)
    want = Subspace.from_columns(kernel_cols(M))
    assert (got.field, got.ambient) == (field, cols)
    assert [typed(v) for v in got.basis] == [typed(v) for v in want.basis]
    # the pivots are M's free columns read right to left: each column in the
    # span of the columns after it
    free = tuple(c for c in range(cols)
                 if field_rank(M.submatrix(0, rows, c, cols)) == field_rank(M.submatrix(0, rows, c + 1, cols)))
    assert got.pivots == free == want.pivots
    assert (M @ got.matrix().transpose()).is_zero()


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(FIELDS), dims, st.integers(0, 7), st.data())
def test_column_lows_match_the_rank_oracle(field, rows, cols, data):
    M = data.draw(matrices(field, rows, cols))
    assert column_lows(M) == column_lows_by_rank(M)


def assert_snf_matches_dense_snf(M: Matrix):
    got, want = snf(M), dense_snf(M)
    assert got.rank == want.rank
    assert [typed(f) for f in got.factors] == [typed(f) for f in want.factors]
    # the invariants are read off D alone; each transform is replayed on its first read
    assert built_transforms(got) == []
    for name in ("d", "u", "uinv", "v", "vinv"):
        assert_same_entries(getattr(got, name), getattr(want, name))
    assert_same_entries(got.kernel(), want.v.take_columns(range(want.rank, M.cols)))


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(SNF_RINGS), dims, dims, st.data())
def test_snf_matches_dense_snf(ring, rows, cols, data):
    assert_snf_matches_dense_snf(data.draw(matrices(ring, rows, cols)))


@st.composite
def sparse_matrices(draw, ring, rows, cols):
    """A rows x cols matrix at least 60% of whose entries are zero on average."""
    zero_share = draw(st.floats(0.6, 1))
    elem = elements(ring)
    return Matrix(ring, [[ring.zero() if draw(st.floats(0, 1)) < zero_share else draw(elem)
                          for _ in range(cols)] for _ in range(rows)], cols=cols)


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(SNF_RINGS), st.integers(0, 12), st.integers(0, 12),
                  st.data())
def test_sparse_snf_matches_dense_snf(ring, rows, cols, data):
    # shapes and zero shares of the sections-complex differentials: the
    # restarts and the divisibility sweep run on sparse rows
    assert_snf_matches_dense_snf(data.draw(sparse_matrices(ring, rows, cols)))


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(SNF_RINGS), dims, dims, dims, st.data())
def test_image_coords_are_the_coordinates_in_the_image_basis(ring, rows, cols, rhs, data):
    M = data.draw(matrices(ring, rows, cols))
    res = snf(M)
    image = res.image()
    C = data.draw(matrices(ring, res.rank, rhs))
    B = image @ C
    # read off the one factorization, before or after the image is built
    for got in (res.image_coords(B), snf(M).image_coords(B)):
        assert got == C
        assert_same_entries(got, image_coords_by_solve(res, B))
    # a unit column off the span exists exactly when the span is not all of R^rows
    units = Matrix.identity(ring, rows)
    off = [k for k in range(rows)
           if image_coords_by_solve(res, units.take_columns([k])) is None]
    assert bool(off) == (res.rank < rows or not all(map(ring.is_unit, res.factors)))
    if off and rhs:
        j = data.draw(st.integers(0, rhs - 1))
        moved = [list(row) for row in B.data]
        moved[off[0]][j] = ring.add(moved[off[0]][j], ring.one())
        moved = Matrix(ring, moved, cols=rhs)
        assert res.image_coords(moved) is None
        assert image_coords_by_solve(res, moved) is None
    # any right-hand side: the same answer as the route through the basis's Smith form
    free = data.draw(matrices(ring, rows, rhs))
    got, want = res.image_coords(free), image_coords_by_solve(res, free)
    assert (got is None) == (want is None)
    if got is not None:
        assert_same_entries(got, want)
    with pytest.raises(ShapeMismatch):
        res.image_coords(Matrix.zeros(ring, rows + 1, rhs))


@pytest.mark.parametrize("data", [
    [[2, 0], [0, 0], [3, 0]],        # the pivot column's clear restarts on a remainder
    [[0, 0, 2, 3]],                  # the pivot row's clear restarts on a remainder
    [[2, 0, 0], [0, 4, 3]],          # the sweep's offender sits past a row's first entry
    [[0, 0, 0], [0, 6, 0], [0, 0, 4]],
    # an exact division clears the pivot row, the sweep adds row 1 to it, and
    # the next remainder swaps in a column with an entry below the pivot
    [[-3, -3], [0, 4]],
])
def test_sparse_snf_branches_match_dense_snf(data):
    assert_snf_matches_dense_snf(Matrix(IntegerRing(5), data))


@pytest.mark.parametrize("case, ring", [("h1-sphere", IntegerRing(2)),
                                        ("h1-sphere", PolynomialRing(PrimeField(5))),
                                        ("h3_failure_witness", IntegerRing(2))])
def test_snf_matches_dense_snf_on_theorem_traffic(monkeypatch, case, ring):
    # every matrix verify_main_theorem factors, sections-complex differentials
    # of up to 32 rows or columns included
    factored = []
    factor = rmatrix.snf

    def recorded(M):
        factored.append(M)
        return factor(M)

    patch_everywhere(monkeypatch, rmatrix, "snf", recorded)
    verify_main_theorem(theorem_instance(case, ring))
    assert max(max(M.rows, M.cols) for M in factored) >= 22
    monkeypatch.undo()
    for M in factored:
        assert_snf_matches_dense_snf(M)


def units(ring):
    """The units of a PID: +-1 over Z, the nonzero constants over F[t]."""
    if isinstance(ring, IntegerRing):
        return st.sampled_from([1, -1])
    return elements(ring.base).filter(bool).map(lambda c: ring.from_coeffs([c]))


@st.composite
def lower_triangular(draw, ring, n):
    """A nonsingular lower-triangular n x n matrix: each diagonal entry a unit times xi^0..2."""
    A = [list(row) for row in draw(matrices(ring, n, n)).data]
    for i, row in enumerate(A):
        row[i] = ring.mul(draw(units(ring)), ring.xi_power(draw(st.integers(0, 2))))
        row[i + 1:] = [ring.zero()] * (n - i - 1)
    return Matrix(ring, A, cols=n)


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(SNF_RINGS), dims, dims, st.data())
def test_substitution_is_the_smith_form_solve(ring, n, rhs, data):
    A = data.draw(lower_triangular(ring, n))
    assert A.is_nonsingular_lower_triangular()
    solvable = A @ data.draw(matrices(ring, n, rhs))
    for B in (solvable, data.draw(matrices(ring, n, rhs))):
        got, want = rmatrix.substitute(A, B), snf(A).solve(B)
        assert (got is None) == (want is None)
        if got is not None:
            assert_same_entries(got, want)
    assert rmatrix.substitute(A, solvable) is not None
    # one entry that a non-unit diagonal entry does not divide: no solution
    stuck = [i for i in range(n) if not ring.is_unit(A.data[i][i])]
    if stuck and rhs:
        i, j = stuck[0], data.draw(st.integers(0, rhs - 1))
        B = [list(row) for row in solvable.data]
        B[i][j] = ring.add(B[i][j], ring.one())
        B = Matrix(ring, B, cols=rhs)
        assert rmatrix.substitute(A, B) is None and snf(A).solve(B) is None
    with pytest.raises(ShapeMismatch):
        rmatrix.substitute(A, Matrix.zeros(ring, n + 1, rhs))


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(SNF_RINGS), dims, dims, st.data())
def test_memo_substitutes_on_nonsingular_lower_triangular_systems_alone(ring, rows, cols, data):
    # a triangular matrix, upper or lower, with a diagonal entry zeroed or not, or any matrix
    A = data.draw(lower_triangular(ring, rows))
    if data.draw(st.booleans()):
        A = A.transpose()
    if rows and data.draw(st.booleans()):
        entries = [list(row) for row in A.data]
        k = data.draw(st.integers(0, rows - 1))
        entries[k][k] = ring.zero()
        A = Matrix(ring, entries, cols=rows)
    if data.draw(st.booleans()):
        A = data.draw(matrices(ring, rows, cols))
    # square, nonzero on the diagonal and zero above it
    triangular = A.rows == A.cols and all(
        bool(A.data[i][j]) == (i == j) for i in range(A.rows) for j in range(i, A.cols))
    assert A.is_nonsingular_lower_triangular() == triangular
    B = data.draw(matrices(ring, A.rows, 2))
    factored = []

    def recorded(M):
        factored.append(M)
        return snf(M)

    # over R the one solve substitutes, with no Smith form, and refuses any other A
    with pytest.MonkeyPatch.context() as patch:
        assert rmatrix in patch_everywhere(patch, rmatrix, "snf", recorded)
        if triangular:
            got, want = complexes.solve(A, B), snf(A).solve(B)
            assert (got is None) == (want is None)
            if got is not None:
                assert_same_entries(got, want)
        else:
            with pytest.raises(NotTriangular):
                complexes.solve(A, B)
        with pytest.raises(ShapeMismatch):
            complexes.solve(A, Matrix.zeros(ring, A.rows + 1, 2))
    assert factored == []


MODULE_RINGS = [IntegerRing(2), IntegerRing(3), IntegerRing(5), PolynomialRing(PrimeField(5)),
                PolynomialRing(RationalField())]


def assert_module_is_the_presentations_module(K: FreeComplex):
    # every degree of the window and one past each end
    for i in range(K.lo - 1, K.hi + 2):
        got = Memo().module(K, i)
        want = cohomology_presentation(Memo(), K, i).module
        assert got == want
        assert [typed(f) for f in got.factors] == [typed(f) for f in want.factors]


@hypothesis.settings(max_examples=100, deadline=None)
@hypothesis.given(st.sampled_from(MODULE_RINGS), st.integers(0, 2 ** 32 - 1),
                  st.integers(1, 3), st.integers(1, 3))
def test_module_is_the_presentations_module(ring, seed, max_degree, max_rank):
    assert_module_is_the_presentations_module(
        random_complex(ring, random.Random(seed), max_degree, max_rank))


@pytest.mark.parametrize("ring", MODULE_RINGS, ids=str)
def test_module_keeps_xi_squared_torsion(ring):
    # d(0) = diag(xi^2, 0): H^0 = R and H^1 = R/(xi^2) + R
    z, xi2 = ring.zero(), ring.xi_power(2)
    K = FreeComplex(ring, 0, [2, 2], [Matrix(ring, [[xi2, z], [z, z]])])
    assert Memo().module(K, 0) == FGModule(ring, 1)
    assert Memo().module(K, 1) == FGModule(ring, 1, [ring.unit_normalize(xi2)[1]])
    assert not Memo().module(K, 1).xi_torsion_free
    assert_module_is_the_presentations_module(K)


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(RINGS), st.data())
def test_is_zero_is_equality_with_zero(ring, data):
    x = data.draw(st.one_of(st.just(ring.zero()), elements(ring)))
    assert ring.is_zero(x) == (x == ring.zero())


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(RINGS), dims, dims, st.data())
def test_is_identity_is_equality_with_the_identity(ring, rows, cols, data):
    # the identity with a few entries redrawn (one, zero or any), or any matrix
    if data.draw(st.booleans()):
        entries = [list(row) for row in Matrix.identity(ring, rows).data]
        for _ in range(data.draw(st.integers(0, 2)) if rows else 0):
            i, j = data.draw(st.integers(0, rows - 1)), data.draw(st.integers(0, rows - 1))
            entries[i][j] = data.draw(st.sampled_from([ring.one(), ring.zero()])
                                      | elements(ring))
        M = Matrix(ring, entries, cols=rows)
    else:
        M = data.draw(matrices(ring, rows, cols))
    assert M.is_identity() == (M.rows == M.cols and M == Matrix.identity(ring, M.rows))


# ---------------------------------------------------------------------------
# native row kernels against BaseRing's generic ones

KERNEL_RINGS = [IntegerRing(2), IntegerRing(3), PrimeField(5), PolynomialRing(PrimeField(5)),
                PolynomialRing(RationalField())]


def field_of(ring):
    """The field the k-linear algebra of ``ring`` runs over."""
    return ring if ring.is_field else ring.residue_field()


def assert_same_data(got: Matrix, want: Matrix):
    """Equal shapes and entries of equal types; the rings differ in kernels only."""
    assert (got.rows, got.cols) == (want.rows, want.cols)
    assert [[typed(x) for x in row] for row in got.data] == \
        [[typed(x) for x in row] for row in want.data]


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(KERNEL_RINGS + [RationalField()]), dims, st.data())
def test_row_kernels_match_generic_kernels(ring, n, data):
    generic = GenericKernels(ring)
    elem = elements(ring)
    row, src = (data.draw(st.lists(elem, min_size=n, max_size=n)) for _ in range(2))
    f = data.draw(elem)
    assert typed(ring.row_sub_multiple(row, f, src)) == \
        typed(generic.row_sub_multiple(row, f, src))
    assert typed(ring.row_scale(f, row)) == typed(generic.row_scale(f, row))
    out = {j: x for j, x in enumerate(row) if x}
    want = dict(out)
    sparse_src = {j: x for j, x in enumerate(src) if x}
    ring.sparse_axpy(out, f, sparse_src)
    generic.sparse_axpy(want, f, sparse_src)
    assert {j: typed(x) for j, x in out.items()} == {j: typed(x) for j, x in want.items()}
    assert all(out.values())
    if not ring.is_field:
        assert typed(ring.row_residue(row)) == typed(generic.row_residue(row))


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(KERNEL_RINGS), dims, st.integers(0, 7), dims, st.data())
def test_field_elimination_matches_generic_kernels(ring, rows, cols, rhs, data):
    F = field_of(ring)
    A = data.draw(matrices(F, rows, cols))
    GA = with_generic_kernels(A)
    got, pivots = rref(A)
    want, want_pivots = rref(GA)
    assert pivots == want_pivots
    assert_same_data(got, want)
    assert_same_data(kernel_cols(A), kernel_cols(GA))
    got_kernel, want_kernel = kernel(A), kernel(GA)
    assert got_kernel.pivots == want_kernel.pivots
    assert_same_data(got_kernel.matrix(), want_kernel.matrix())
    assert column_lows(A) == column_lows(GA)
    solvable = A @ data.draw(matrices(F, cols, rhs))
    for B in (solvable, data.draw(matrices(F, rows, rhs))):
        got, want = solve_field(A, B), solve_field(GA, with_generic_kernels(B))
        assert (got is None) == (want is None)
        if got is not None:
            assert_same_data(got, want)
    assert solve_field(A, solvable) is not None


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(SNF_RINGS), dims, dims, dims, st.data())
def test_snf_and_solve_match_generic_kernels(ring, rows, cols, rhs, data):
    M = data.draw(matrices(ring, rows, cols))
    got, want = snf(M), snf(with_generic_kernels(M))
    assert got.rank == want.rank
    assert [typed(f) for f in got.factors] == [typed(f) for f in want.factors]
    for name in ("d", "u", "uinv", "v", "vinv"):
        assert_same_data(getattr(got, name), getattr(want, name))
    assert_same_data(got.image(), want.image())
    solvable = M @ data.draw(matrices(ring, cols, rhs))
    for B in (solvable, data.draw(matrices(ring, rows, rhs))):
        x, y = got.solve(B), want.solve(with_generic_kernels(B))
        assert (x is None) == (y is None)
        if x is not None:
            assert_same_data(x, y)
    assert got.solve(solvable) is not None


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(KERNEL_RINGS), dims, dims, dims, st.data())
def test_product_and_reductions_match_generic_kernels(ring, rows, inner, cols, data):
    A = data.draw(matrices(ring, rows, inner))
    B = data.draw(matrices(ring, inner, cols))
    GA, GB = with_generic_kernels(A), with_generic_kernels(B)
    assert_same_data(A @ B, GA @ GB)
    c = data.draw(elements(ring))
    assert_same_data(A.scale(c), GA.scale(c))
    assert_same_data(matrix_sum(A, A.scale(c)), matrix_sum(GA, GA.scale(c)))
    if not ring.is_field:
        assert_same_data(A.residue(), GA.residue())
        assert_same_data(A.xi_scale(2).xi_residue(2), A.residue())
