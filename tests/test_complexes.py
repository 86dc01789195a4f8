import pytest

from decalage.bockstein import Memo
from decalage.complexes import (
    ChainMap,
    DifferentialSquareNonzero,
    FGModule,
    FreeComplex,
    cohomology_presentation,
    hodge_filtration,
    truncate_leq,
)
from decalage.instances import random_complex
from decalage.kmatrix import kernel
from decalage.rmatrix import Matrix, snf
from oracles import (
    cone,
    direct_sum,
    euler_characteristic,
    induced_map,
    is_zero_complex,
    normalized_nonnegative,
    vstack,
)


def shell(ring, c, lo=0):
    return FreeComplex(ring, lo, [1, 1], [Matrix(ring, [[c]])])


def test_validate_examples(z5):
    FreeComplex(z5, 0, [2, 3], [Matrix.zeros(z5, 3, 2)]).validate()
    shell(z5, 5).validate()
    bad = FreeComplex(z5, 0, [1, 1, 1], [Matrix(z5, [[1]]), Matrix(z5, [[1]])])
    with pytest.raises(DifferentialSquareNonzero) as err:
        bad.validate()
    assert err.value.degree == 0


def test_cohomology_examples(z5):
    K = shell(z5, 5)
    assert cohomology_presentation(Memo(), K, 0).module.is_zero()
    assert cohomology_presentation(Memo(), K, 1).module == FGModule(z5, 0, (5,))
    K2 = FreeComplex(z5, 0, [2, 3], [Matrix.zeros(z5, 3, 2)])
    assert cohomology_presentation(Memo(), K2, 0).module == FGModule(z5, 2)
    assert cohomology_presentation(Memo(), K2, 1).module == FGModule(z5, 3)
    K3 = shell(z5, 1)
    assert cohomology_presentation(Memo(), K3, 0).module.is_zero()
    assert cohomology_presentation(Memo(), K3, 1).module.is_zero()


def test_cocycles_boundaries(z5):
    K2 = FreeComplex(z5, 0, [2, 3], [Matrix.zeros(z5, 3, 2)])
    assert snf(K2.d(0)).kernel().cols == 2
    assert K2.d(0).is_zero()
    K = shell(z5, 5)
    assert snf(K.d(0)).kernel().cols == 0
    assert K.d(0) == Matrix(z5, [[5]])
    Kbar = K.reduce_mod_xi()
    assert kernel(Kbar.d(0)).dim == 1


def test_truncate_examples(z5):
    # truncations are taken of complexes over k: d = 1 mod 5 here, d = 0 mod 5 below
    K = shell(z5, 1).reduce_mod_xi()
    assert truncate_leq(K, 5).source == K
    assert is_zero_complex(truncate_leq(K, -1).source)
    inc0 = truncate_leq(K, 0)
    assert inc0.source.rank(0) == 0
    inc0.validate()
    inc0 = truncate_leq(shell(z5, 5).reduce_mod_xi(), 0)
    assert inc0.source.rank(0) == 1
    inc0.validate()


def test_truncate_cohomology_property(rng, z3, z5):
    for trial in range(200):
        K = random_complex(z3 if trial % 2 else z5, rng, max_degree=3, max_rank=3)
        Kbar = K.reduce_mod_xi()
        for m in range(K.lo - 1, K.hi + 2):
            inc = truncate_leq(Kbar, m)
            T = inc.source
            inc.validate()
            ctx = Memo()
            for i in K.degrees():
                want = ctx.quotient(Kbar, i).dim if i <= m else 0
                assert ctx.quotient(T, i).dim == want, (i, m)


def test_hodge_examples(z5):
    K = shell(z5, 5)
    assert hodge_filtration(K, 0).source == K
    assert is_zero_complex(hodge_filtration(K, 2).source)
    inc = hodge_filtration(K, 1)
    assert inc.source.lo == 1 and inc.source.rank(1) == 1
    inc.validate()


def test_reduce_mod_xi(z5):
    K = shell(z5, 5)
    Kbar = K.reduce_mod_xi()
    assert Kbar.d(0).is_zero()
    assert Kbar.ring == z5.residue_field()


def test_cone_examples(z3):
    K = shell(z3, 3)
    c = cone(ChainMap.identity(K))
    c.validate()
    assert all(cohomology_presentation(Memo(), c, i).module.is_zero() for i in c.degrees())

    zero_map = ChainMap.zero(K, FreeComplex.zero(z3))
    shifted = cone(zero_map)
    for i in shifted.degrees():
        got = cohomology_presentation(Memo(), shifted, i).module
        assert got == cohomology_presentation(Memo(), K, i + 1).module

    K0 = FreeComplex(z3, 0, [1, 1], [Matrix.zeros(z3, 1, 1)])
    mul = ChainMap(K0, K0, {0: Matrix(z3, [[3]]), 1: Matrix(z3, [[3]])})
    c3 = cone(mul)
    assert cohomology_presentation(Memo(), c3, 0).module == FGModule(z3, 0, (3,))
    assert cohomology_presentation(Memo(), c3, 1).module == FGModule(z3, 0, (3,))


def test_cone_long_exact_sequence_ranks(rng, z2):
    # for an inclusion-style map, alternating rank identity of the LES
    for _ in range(25):
        K = random_complex(z2, rng, max_degree=2, max_rank=3)
        scaled = ChainMap(K, K, {i: Matrix.identity(z2, K.rank(i)).scale(2)
                                 for i in K.degrees()})
        c = cone(scaled)
        c.validate()
        # Euler characteristics: chi(cone) = chi(tgt) - chi(src) = 0 here
        assert euler_characteristic(c) == 0
        sum_free = sum((-1) ** i * cohomology_presentation(Memo(), c, i).module.free_rank
                       for i in c.degrees())
        assert sum_free == 0


def test_cone_of_summand_inclusion_is_quotient(rng, z3):
    # the cone of A -> A (+) B has the cohomology of B: the exactness content
    # of the long exact sequence at FG-invariant level
    for _ in range(20):
        A = random_complex(z3, rng, max_degree=2, max_rank=2)
        B = random_complex(z3, rng, max_degree=2, max_rank=2)
        S = direct_sum(A, B)
        maps = {}
        for i in A.degrees():
            ide = Matrix.identity(z3, A.rank(i))
            maps[i] = vstack(ide, Matrix.zeros(z3, B.rank(i), A.rank(i)))
        f = ChainMap(A, S, maps)
        f.validate()
        c = cone(f)
        c.validate()
        for i in c.degrees():
            got = cohomology_presentation(Memo(), c, i).module
            assert got == cohomology_presentation(Memo(), B, i).module, i


def test_induced_map_examples(z3):
    K0 = FreeComplex(z3, 0, [1, 1], [Matrix.zeros(z3, 1, 1)])
    ident = induced_map(Memo(), ChainMap.identity(K0), 0)
    assert ident == Matrix.identity(z3, 1)
    zero = induced_map(Memo(), ChainMap.zero(K0, K0), 0)
    assert zero.is_zero()
    mul = ChainMap(K0, K0, {0: Matrix(z3, [[3]]), 1: Matrix(z3, [[3]])})
    assert induced_map(Memo(), mul, 0) == Matrix(z3, [[3]])


def test_induced_map_functorial(rng, z3):
    for _ in range(25):
        K = random_complex(z3, rng, max_degree=2, max_rank=2)
        f = ChainMap(K, K, {i: Matrix.identity(z3, K.rank(i)).scale(3)
                            for i in K.degrees()})
        g = ChainMap(K, K, {i: Matrix.identity(z3, K.rank(i)).scale(2)
                            for i in K.degrees()})
        comp = g.after(f)
        ctx = Memo()
        for i in K.degrees():
            assert induced_map(ctx, comp, i) == induced_map(ctx, g, i) @ induced_map(ctx, f, i)


def test_euler_characteristic(rng, z5):
    for _ in range(40):
        K = random_complex(z5, rng, max_degree=3, max_rank=4)
        lhs = euler_characteristic(K)
        rhs = sum((-1) ** i * cohomology_presentation(Memo(), K, i).module.free_rank
                  for i in K.degrees())
        assert lhs == rhs


def test_fg_module_invariants(z2):
    with pytest.raises(ValueError):
        FGModule(z2, 0, (1,))
    M = Matrix(z2, [[2, 0], [0, 6]])
    m = FGModule.from_snf(z2, 2, Memo().factor(M))
    assert m == FGModule(z2, 0, (2, 6))
    assert not m.xi_torsion_free
    assert m.mod_xi_torsion() == FGModule(z2, 0, (3,))
    assert FGModule.of_k_dimension(z2, 2) == FGModule(z2, 0, (2, 2))
    assert FGModule(z2, 0, (2, 2)).k_dimension() == 2
    assert FGModule(z2, 1).k_dimension() is None


def test_direct_sum(z3):
    A = shell(z3, 3)
    B = FreeComplex(z3, 1, [2], [])
    S = direct_sum(A, B)
    S.validate()
    assert S.rank(1) == 3
    assert cohomology_presentation(Memo(), S, 1).module == FGModule(z3, 2, (3,))


def test_normalized_nonnegative(z3):
    K = shell(z3, 3, lo=-2)
    K2, s = normalized_nonnegative(K)
    assert s == -2 and K2.lo == 0
    K2.validate()
    for i in K2.degrees():
        got = cohomology_presentation(Memo(), K2, i).module
        assert got == cohomology_presentation(Memo(), K, i + s).module
    same, s0 = normalized_nonnegative(K2)
    assert s0 == 0 and same is K2


def test_equal_complexes_built_separately_hash_alike(rng, z3, f5t):
    for ring in (z3, f5t):
        for _ in range(5):
            K = random_complex(ring, rng, max_degree=3, max_rank=3)
            again = FreeComplex(ring, K.lo, list(K.ranks()),
                                [K.d(i) for i in range(K.lo, K.hi)], K.twist)
            assert again is not K and again == K and hash(again) == hash(K)
            assert len({K, again}) == 1
            assert hash(K.reduce_mod_xi()) == hash(K.reduce_mod_xi())


def test_complexes_differing_in_twist_ring_or_one_entry_are_unequal(z3, z5):
    K = FreeComplex(z3, 0, [1, 2], [Matrix(z3, [[1], [3]])])
    variants = [
        FreeComplex(z3, 0, [1, 2], [Matrix(z3, [[1], [3]])], twist=1),
        FreeComplex(z5, 0, [1, 2], [Matrix(z5, [[1], [3]])]),
        FreeComplex(z3, 0, [1, 2], [Matrix(z3, [[1], [6]])]),
    ]
    assert all(V != K and K != V for V in variants)
    assert len({K, *variants}) == 4
