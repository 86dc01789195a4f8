"""The zero-skipping exact kernels against their dense references.

``Matrix.__matmul__`` skips zero entries of both factors, ``rref`` updates a
row only at the pivot row's nonzero columns, and ``snf`` updates rows and
columns only at the nonzero entries of their source.  Each must return what
the dense versions in ``oracles.py`` return, entry for entry and in the same
normal form (same Python type, down to polynomial coefficients), because
report digests see element representations.  Shapes include empty ones and
the share of zero entries ranges over [0, 1].
"""

from fractions import Fraction

import pytest

from decalage.kmatrix import rref
from decalage.rings import IntegerRing, PolynomialRing, PrimeField, RationalField
from decalage.rmatrix import Matrix, snf
from oracles import dense_matmul, dense_rref, dense_snf

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
PROPERTY_SETTINGS = hypothesis.settings(max_examples=150, deadline=None)

FIELDS = [PrimeField(2), PrimeField(3), PrimeField(5), RationalField()]
RINGS = [IntegerRing(2), IntegerRing(3), PolynomialRing(PrimeField(5)),
         PolynomialRing(RationalField())] + FIELDS
SNF_RINGS = [IntegerRing(2), IntegerRing(3), PrimeField(5), RationalField(),
             PolynomialRing(PrimeField(5)), PolynomialRing(RationalField())]

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
@hypothesis.given(st.sampled_from(SNF_RINGS), dims, dims, st.data())
def test_snf_matches_dense_snf(ring, rows, cols, data):
    M = data.draw(matrices(ring, rows, cols))
    got, want = snf(M), dense_snf(M)
    for name in ("d", "u", "uinv", "v", "vinv"):
        assert_same_entries(getattr(got, name), getattr(want, name))
    assert got.rank == want.rank
    assert [typed(f) for f in got.factors] == [typed(f) for f in want.factors]


@PROPERTY_SETTINGS
@hypothesis.given(st.sampled_from(RINGS), st.data())
def test_is_zero_is_equality_with_zero(ring, data):
    x = data.draw(st.one_of(st.just(ring.zero()), elements(ring)))
    assert ring.is_zero(x) == (x == ring.zero())
