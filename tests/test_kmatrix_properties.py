"""Properties of the residue-field echelon reductions, over F_2, F_3 and F_5
in ambient dimension <= 6: membership by reduction against the stored RREF
rows, the greedy quotient representatives, and the one-solve coordinates."""

import pytest

from decalage.kmatrix import QuotientSpace, Subspace, field_rank
from decalage.rings import PrimeField
from decalage.rmatrix import Matrix
from oracles import matrix_sum, quotient_coords, ring_sum, subspace_add

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies
PROPERTY_SETTINGS = hypothesis.settings(max_examples=60, deadline=None)


@st.composite
def vectors_over(draw, max_vectors=5):
    """(field, ambient dimension, list of vectors) over a small prime field."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.integers(1, 6))
    vec = st.tuples(*[st.integers(0, p - 1)] * n)
    return PrimeField(p), n, draw(st.lists(vec, max_size=max_vectors))


def combinations_of(F, vectors, n, draw, count):
    """``count`` random linear combinations of ``vectors`` in k^n."""
    out = []
    for _ in range(count):
        coeffs = draw(st.lists(st.integers(0, F.p - 1), min_size=len(vectors),
                               max_size=len(vectors)))
        out.append(tuple(ring_sum(F, (F.mul(c, v[i]) for c, v in zip(coeffs, vectors)))
                         for i in range(n)))
    return out


@PROPERTY_SETTINGS
@hypothesis.given(vectors_over(), st.data())
def test_contains_agrees_with_rank(space, data):
    F, n, vectors = space
    S = Subspace(F, n, vectors)
    inside = combinations_of(F, vectors, n, data.draw, 1)[0]
    anywhere = data.draw(st.tuples(*[st.integers(0, F.p - 1)] * n))
    for probe in (inside, anywhere):
        stacked = Matrix(F, list(S.basis) + [probe], cols=n)
        assert S.contains(probe) == (field_rank(stacked) == S.dim)
        assert S.contains_space(Subspace(F, n, [probe])) == S.contains(probe)
    assert S.contains(inside)


def old_greedy_reps(F, n, zspace, bspace):
    """Representatives chosen one RREF per vector: keep v when B + reps misses it."""
    reps, current = [], bspace
    for v in zspace.basis:
        if Subspace(F, n, list(current.basis) + [v]).dim != current.dim:
            reps.append(v)
            current = subspace_add(current, Subspace(F, n, [v]))
    return tuple(reps)


@PROPERTY_SETTINGS
@hypothesis.given(vectors_over(), st.data())
def test_quotient_reps_match_old_greedy_choice(space, data):
    F, n, z = space
    b = combinations_of(F, z, n, data.draw, data.draw(st.integers(0, 3)))
    zspace, bspace = Subspace(F, n, z), Subspace(F, n, b)
    q = QuotientSpace(zspace, Matrix.from_columns(F, b, rows=n))
    assert q.reps == old_greedy_reps(F, n, zspace, bspace)
    assert q.dim == zspace.dim - bspace.dim


@PROPERTY_SETTINGS
@hypothesis.given(vectors_over(), st.data())
def test_coords_matrix_is_columnwise_coords(space, data):
    F, n, z = space
    b = combinations_of(F, z, n, data.draw, data.draw(st.integers(0, 3)))
    bspace = Subspace(F, n, b)
    q = QuotientSpace(Subspace(F, n, z), Matrix.from_columns(F, b, rows=n))
    cols = combinations_of(F, z, n, data.draw, data.draw(st.integers(0, 4)))
    M = Matrix.from_columns(F, cols, rows=n)
    C = q.coords_matrix(M)
    assert C == Matrix.from_columns(F, [quotient_coords(q, c) for c in cols], rows=q.dim)
    # each column minus its representative part is a boundary
    rest = matrix_sum(M, -(q.rep_matrix() @ C))
    assert all(bspace.contains(rest.column(j)) for j in range(rest.cols))
