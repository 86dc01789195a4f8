"""The decalage construction and its one-parameter refinement.

For a termwise-free complex K in nonnegative degrees and m >= 0, the refined
subcomplex has degree-i term

    xi^i * { x in K^i : d(x) in xi*K^{i+1} }   for i >= m,
    xi^m * K^i                                  for i < m,

realized as an honest submodule of K^i with a recorded basis, so inclusions
between the stages (and the later lattice comparisons) are literal matrices.
Each lattice comes from one elimination over k (``_congruence_kernel``), once
per complex: in degrees i >= m every stage has stage 0's term, and below m
it is xi^m K, so stage m > 0 takes its bases and differentials from stage 0
and K and solves only at the seam degree m - 1.  A stage complex equal to
K is K, and one equal to stage 0's is stage 0's, so the memos keyed by it
hit by identity.  From m = hi on the congruence condition is empty, so
stage m is xi^m K on the nose: its source is K itself and it takes no
solve, and the maps between stationary stages do not depend on m.  A stage
is its inclusion chain map into K: the stage complex is its ``source``, its
degree-i basis is ``map(i)`` and K is its ``target``.
The family decreases in m and squeezes between xi-multiples:
xi * stage(m) <= stage(m+1) <= stage(m).

A quotient of stages is the injective chain map whose cokernel it is: the
graded piece stage(m)/stage(m+1) is the cokernel of ``ctx.inclusion(K, m)``
and the subquotient stage(m+1)/xi*stage(m) that of ``ctx.subquotient(K, m)``.
Stages m and m+1 share their term above m and are xi^m K and xi^(m+1) K
below m, so both maps are a scalar matrix in every degree but m, and each
takes one ``solve``, at its seam degree m.
The comparison of the graded piece with the truncation of K/xi is a chain
map from the stage mod xi, ``ctx.graded(K, m)``.  Every builder
takes a context (a ``Memo``, bockstein module), which factors each matrix
once per call.  Everything built from several stages takes the context and
K, and reads the stages and their inclusions from the context
(``ctx.stage(K, m)``, ``ctx.inclusion(K, m)``), which builds each of them
once per call: ``stage_inclusion``, ``xi_step_inclusion_holds``,
``is_stationary_stage``, ``graded_piece``, ``verify_graded_piece``,
``mod_xi_subquotient`` and ``verify_eta_m_cohomology``.
"""

from __future__ import annotations

from .checks import CheckResult
from .complexes import ChainMap, FGModule, FreeComplex, factor_through, solve, subcomplex
from .kmatrix import field_rank, kernel
from .rmatrix import Matrix


class DegreeBelowZero(ValueError):
    """Decalage needs complexes concentrated in nonnegative degrees."""


class NegativeM(ValueError):
    """The refinement index m must be nonnegative."""


def _congruence_kernel(K: FreeComplex, i: int) -> Matrix:
    """Basis of { x in K^i : d(x) in xi*K^{i+1} }, the preimage of ker(d mod xi).

    Column j is the lift of the kernel's RREF vector at a free column j and
    xi*e_j at a pivot column j: lower triangular, with 1 or xi on the diagonal.
    """
    ring, n = K.ring, K.rank(i)
    ker = kernel(K.d(i).residue())
    lifted = dict(zip(ker.pivots, ker.matrix().map_entries(ring.lift, ring).data))
    # xi*I is symmetric: its rows are its columns xi*e_j
    columns = Matrix.scalar(ring, n, ring.xi).data
    return Matrix.from_columns(ring, [lifted.get(j, e) for j, e in enumerate(columns)], rows=n)


def eta_m(ctx, K: FreeComplex, m: int) -> ChainMap:
    """Stage m of the refined decalage filtration, as its inclusion into K.

    The inclusion has square injective matrices in each degree (the stages
    are full-rank submodules); the degree-i basis carries the xi-power i for
    the plain decalage part and m below degree m.  Stage m >= hi is xi^m K,
    since at hi the congruence condition is empty: its basis is xi^m I in
    every degree and its source is K itself, with no solve.  Stage 0
    restricts d to its bases by ``subcomplex``.  Stage 0 < m < hi is built
    from stage 0 and K: in degrees >= m its bases and differentials are
    ``ctx.stage(K, 0)``'s, below m - 1 its differentials are K's (xi^m
    cancels), and the one ``solve`` is at the seam degree m - 1.  Its
    source is K when it equals K, else stage 0's source when it equals that.
    """
    if K.lo < 0:
        raise DegreeBelowZero(f"complex starts at degree {K.lo}")
    if m < 0:
        raise NegativeM(f"m = {m}")
    ring = K.ring
    if m >= K.hi:
        return ChainMap(K, K, {i: Matrix.scalar(ring, K.rank(i), ring.xi_power(m))
                               for i in K.degrees()})
    if not m:
        return subcomplex(K, {i: _congruence_kernel(K, i).xi_scale(i) for i in K.degrees()})
    # in degree order, so a failure below m comes before one in stage 0
    bases = {i: Matrix.scalar(ring, K.rank(i), ring.xi_power(m)) for i in range(K.lo, m)}
    stage0 = ctx.stage(K, 0)
    plain = stage0.source
    bases.update((i, stage0.map(i)) for i in range(max(K.lo, m), K.hi + 1))
    diffs = []
    for i in range(K.lo, K.hi):
        if i >= m:
            diffs.append(plain.d(i))
        elif i < m - 1:
            diffs.append(K.d(i))
        else:
            seam = solve(bases[m], K.d(i).xi_scale(m))
            if seam is None:
                raise ArithmeticError(f"d leaves the subcomplex at degree {i}")
            diffs.append(seam)
    S = FreeComplex(ring, K.lo, K.ranks(), diffs, K.twist)
    return ChainMap(K if S == K else plain if S == plain else S, K, bases)


def stage_inclusion(ctx, K: FreeComplex, m: int) -> ChainMap:
    """stage(m+1) -> stage(m), whose cokernel is the graded piece stage(m)/stage(m+1).

    Below m the stages are xi^(m+1) K and xi^m K, so the map is xi*I; above
    m both hold one term, so it is the identity; the one ``solve`` is at
    the seam degree m.
    """
    stage, finer = ctx.stage(K, m), ctx.stage(K, m + 1)
    ring = K.ring
    maps = {}
    for i in K.degrees():
        if i != m:
            maps[i] = Matrix.scalar(ring, K.rank(i), ring.xi if i < m else ring.one())
            continue
        sol = solve(stage.map(i), finer.map(i))
        if sol is None:
            raise ArithmeticError(f"images are not nested at degree {i}")
        maps[i] = sol
    return ChainMap(finer.source, stage.source, maps)


def xi_step_inclusion_holds(ctx, K: FreeComplex, m: int) -> bool:
    """Membership test for xi * stage(m) <= stage(m+1) <= stage(m).

    The context's inclusion and subquotient solve the two memberships; each
    raises ArithmeticError when its membership fails.
    """
    try:
        ctx.inclusion(K, m)
        ctx.subquotient(K, m)
    except ArithmeticError:
        return False
    return True


def is_stationary_stage(ctx, K: FreeComplex, m: int) -> bool:
    """True when stage m equals xi^m * K on the nose (holds for m >= hi)."""
    stage = ctx.stage(K, m)
    ring = K.ring
    scaled = ChainMap(K, K, {i: Matrix.scalar(ring, K.rank(i), ring.xi_power(m))
                             for i in K.degrees()})
    try:
        factor_through(scaled, stage)
        factor_through(stage, scaled)
    except ArithmeticError:
        return False
    return True


# ---------------------------------------------------------------------------
# graded pieces


def graded_piece(ctx, K: FreeComplex, m: int) -> ChainMap:
    """The comparison of stage(m)/stage(m+1) onto the truncation of K/xi at m.

    The graded piece is the cokernel of ``ctx.inclusion(K, m)``; the
    comparison is the reduced stage, the stage's degree-i basis divided by
    xi^m and reduced for i <= m and zero above m, factored through the
    context's truncation ``ctx.truncation(ctx.kbar(K), m)``.
    """
    stage = ctx.stage(K, m)
    kbar = ctx.kbar(K)
    reduced = ChainMap(ctx.kbar(stage.source), kbar,
                       {i: stage.map(i).xi_residue(m)
                        for i in range(K.lo, min(m, K.hi) + 1)})
    return factor_through(reduced, ctx.truncation(kbar, m))


def verify_graded_piece(ctx, K: FreeComplex, m: int) -> CheckResult:
    """The comparison of ``ctx.graded(K, m)`` is an isomorphism onto the truncation."""
    out = CheckResult("eta-m.graded-piece")
    inc = ctx.inclusion(K, m)
    comparison = ctx.graded(K, m)
    tau = comparison.target
    for i in K.degrees():
        comp, step = comparison.map(i), inc.map(i)
        rels = step.residue()
        # well-defined on the quotient
        if rels.cols:
            out.expect((comp @ rels).is_zero(), degree=i, reason="comparison not defined on quotient")
        # chain map over k
        if i < K.hi:
            left = comparison.map(i + 1) @ comparison.source.d(i)
            right = tau.d(i) @ comp
            out.expect(left == right, degree=i, reason="comparison does not commute with d")
        # termwise bijectivity; an identity inclusion has no cokernel
        qdim = 0 if step.is_identity() else FGModule.from_snf(
            K.ring, inc.target.rank(i), ctx.factor(step)).k_dimension()
        tdim = tau.rank(i)
        out.expect(qdim == tdim, degree=i, reason="term dimension mismatch",
                   quotient=qdim, truncation=tdim)
        out.expect(field_rank(comp) == tdim, degree=i, reason="comparison not surjective")
        if i > m:
            out.expect(qdim == 0, degree=i, reason="graded piece should vanish above m")
    # cohomology agreement, degree by degree
    for i in K.degrees():
        got = ctx.presentation(inc, i).module
        want = FGModule.of_k_dimension(K.ring, ctx.quotient(tau, i).dim)
        out.expect(got == want, degree=i, reason="graded cohomology mismatch",
                   got=got, want=want)
    return out


# ---------------------------------------------------------------------------
# mod-xi subquotient stage(m+1) / xi*stage(m)


def mod_xi_subquotient(ctx, K: FreeComplex, m: int) -> ChainMap:
    """xi: stage(m) -> stage(m+1), whose cokernel is stage(m+1)/(xi * stage(m)).

    Degreewise the cokernel is 0 below m, K^m/{x : dx in xi K^{m+1}} at m,
    and the mod-xi reduction of the plain decalage terms above m.  Below m
    the stages are xi^m K and xi^(m+1) K, so the map is the identity; above
    m both hold one term, so it is xi*I; at the seam degree m, xi times
    stage(m)'s basis is factored through stage(m+1) by one ``solve``.  The
    cross-check against the Hodge part of the cohomology complex of K/xi
    lives in the bockstein module.
    """
    stage = ctx.stage(K, m)
    finer = ctx.stage(K, m + 1)
    ring = K.ring
    maps = {}
    for i in K.degrees():
        if i != m:
            maps[i] = Matrix.scalar(ring, K.rank(i), ring.one() if i < m else ring.xi)
            continue
        sol = solve(finer.map(i), stage.map(i).scale(ring.xi))
        if sol is None:
            raise ArithmeticError(f"images are not nested at degree {i}")
        maps[i] = sol
    return ChainMap(stage.source, finer.source, maps)


# ---------------------------------------------------------------------------
# cohomology of the stages


def verify_eta_m_cohomology(ctx, K: FreeComplex, m: int) -> CheckResult:
    """Three-case cohomology formula for stage(m), as exact FGModule equality.

    Above m the stage has the cohomology of the plain decalage (whose own
    identity against H(K) with xi-torsion removed is checked alongside, with
    both sides read from one context entry per complex, since they do not
    depend on m); at and below m it matches H(K).
    """
    out = CheckResult("eta-m.cohomology")
    stage = ctx.stage(K, m).source
    plain = ctx.stage(K, 0).source

    h = ctx.module
    for i in K.degrees():
        got = h(stage, i)
        want = h(plain, i) if i > m else h(K, i)
        out.expect(got == want, degree=i, m=m, got=got, want=want)
    for i, got, want in ctx.once(("decalage-identity", K), lambda: [
            (i, h(plain, i), h(K, i).mod_xi_torsion()) for i in K.degrees()]):
        out.expect(got == want, degree=i, reason="decalage vs torsion quotient",
                   got=got, want=want)
    return out
