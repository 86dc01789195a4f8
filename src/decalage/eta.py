"""The decalage construction and its one-parameter refinement.

For a termwise-free complex K in nonnegative degrees and m >= 0, the refined
subcomplex has degree-i term

    xi^i * { x in K^i : d(x) in xi*K^{i+1} }   for i >= m,
    xi^m * K^i                                  for i < m,

realized as an honest submodule of K^i with a recorded basis, so inclusions
between the stages (and the later lattice comparisons) are literal matrices.
A stage is its inclusion chain map into K: the stage complex is its
``source``, its degree-i basis is ``map(i)`` and K is its ``target``.
The family decreases in m and squeezes between xi-multiples:
xi * stage(m) <= stage(m+1) <= stage(m).

Quotients of consecutive stages are produced as finitely presented complexes
together with the comparison maps onto truncations of K/xi.  Every builder
takes a context (a ``Memo``, bockstein module), which factors each matrix
once per call.  Everything built from several stages takes the context and
K, and reads the stages and their inclusions from the context
(``ctx.stage(K, m)``, ``ctx.inclusion(K, m)``), which builds each of them
once per call: ``xi_step_inclusion_holds``, ``is_stationary_stage``,
``graded_piece``, ``verify_graded_piece``, ``mod_xi_subquotient`` and
``verify_eta_m_cohomology``.
"""

from __future__ import annotations

from .checks import CheckResult
from .complexes import ChainMap, FGModule, FPComplex, FPModule, FreeComplex
from .kmatrix import field_rank, solve_field
from .rmatrix import Matrix


class DegreeBelowZero(ValueError):
    """Decalage needs complexes concentrated in nonnegative degrees."""


class NegativeM(ValueError):
    """The refinement index m must be nonnegative."""


def _congruence_kernel(ctx, K: FreeComplex, i: int) -> Matrix:
    """Basis of { x in K^i : d(x) in xi*K^{i+1} } inside K^i."""
    ring = K.ring
    return ctx.preimage(K.d(i), Matrix.scalar(ring, K.rank(i + 1), ring.xi))


def eta_m(ctx, K: FreeComplex, m: int) -> ChainMap:
    """Stage m of the refined decalage filtration, as its inclusion into K.

    The inclusion has square injective matrices in each degree (the stages
    are full-rank submodules); the degree-i basis carries the xi-power i for
    the plain decalage part and m below degree m.  Every matrix is factored
    by the context ``ctx``.
    """
    if K.lo < 0:
        raise DegreeBelowZero(f"complex starts at degree {K.lo}")
    if m < 0:
        raise NegativeM(f"m = {m}")
    ring = K.ring
    bases = {}
    for i in K.degrees():
        if i < m:
            bases[i] = Matrix.scalar(ring, K.rank(i), ring.xi_power(m))
        else:
            bases[i] = _congruence_kernel(ctx, K, i).xi_scale(i)
    diffs = []
    for i in range(K.lo, K.hi):
        moved = K.d(i) @ bases[i]
        inner = ctx.solve(bases[i + 1], moved)
        if inner is None:
            raise ArithmeticError(f"stage differential escaped the stage at degree {i}")
        diffs.append(inner)
    E = FreeComplex(ring, K.lo, [bases[i].cols for i in K.degrees()], diffs, K.twist)
    return ChainMap(E, K, bases)


def stage_inclusion(ctx, finer: ChainMap, coarser: ChainMap) -> ChainMap:
    """The literal containment of one stage in another, from their inclusions."""
    maps = {}
    for i in coarser.target.degrees():
        sol = ctx.solve(coarser.map(i), finer.map(i))
        if sol is None:
            raise ArithmeticError(f"stages are not nested at degree {i}")
        maps[i] = sol
    return ChainMap(finer.source, coarser.source, maps)


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
    """True when stage m equals xi^m * K on the nose (holds for m > hi)."""
    stage = ctx.stage(K, m)
    ring = K.ring
    for i in K.degrees():
        scaled = Matrix.scalar(ring, K.rank(i), ring.xi_power(m))
        if ctx.solve(stage.map(i), scaled) is None:
            return False
        if ctx.solve(scaled, stage.map(i)) is None:
            return False
    return True


# ---------------------------------------------------------------------------
# graded pieces


class GradedPiece:
    """stage(m)/stage(m+1) with its comparison onto the truncation of K/xi.

    ``fp`` presents the quotient on the stage-m basis; ``comparison[i]`` is
    the k-matrix from stage-m generator coordinates to the chosen basis of
    the degree-i term of the context's truncation ``ctx.truncation(ctx.kbar(K), m)``.
    """

    __slots__ = ("fp", "comparison")

    def __init__(self, fp, comparison):
        self.fp = fp
        self.comparison = comparison


def graded_piece(ctx, K: FreeComplex, m: int) -> GradedPiece:
    """stage(m)/stage(m+1) with comparison to the truncation of K/xi at m."""
    stage = ctx.stage(K, m)
    inc = ctx.inclusion(K, m)
    ring = K.ring
    modules = [FPModule(stage.source.rank(i), inc.map(i)) for i in K.degrees()]
    diffs = [stage.source.d(i) for i in range(K.lo, K.hi)]
    fp = FPComplex(ring, K.lo, modules, diffs)

    kbar = ctx.kbar(K)
    tau = ctx.truncation(kbar, m)

    comparison = {}
    for i in K.degrees():
        if i < m:
            comparison[i] = Matrix.identity(kbar.ring, K.rank(i))
        elif i == m:
            wbar = stage.map(m).xi_divide(m).residue()
            sol = solve_field(tau.map(m), wbar)
            if sol is None:
                raise ArithmeticError("stage basis did not reduce into the cocycles")
            comparison[i] = sol
        else:
            comparison[i] = Matrix.zeros(kbar.ring, tau.source.rank(i), stage.source.rank(i))
    return GradedPiece(fp, comparison)


def verify_graded_piece(ctx, K: FreeComplex, m: int) -> CheckResult:
    """The comparison of ``ctx.graded(K, m)`` is an isomorphism onto the truncation."""
    out = CheckResult("eta-m.graded-piece")
    grade = ctx.graded(K, m)
    fp, comparison = grade.fp, grade.comparison
    tau = ctx.truncation(ctx.kbar(K), m).source
    for i in K.degrees():
        comp = comparison[i]
        rels = fp.rels(i).residue()
        # well-defined on the quotient
        if rels.cols:
            out.expect((comp @ rels).is_zero(), degree=i, reason="comparison not defined on quotient")
        # chain map over k
        lhs = comparison.get(i + 1)
        if lhs is not None:
            left = lhs @ fp.d(i).residue()
            right = tau.d(i) @ comp
            out.expect(left == right, degree=i, reason="comparison does not commute with d")
        # termwise bijectivity
        qdim = fp.term_invariants(ctx, i).k_dimension()
        tdim = tau.rank(i)
        out.expect(qdim == tdim, degree=i, reason="term dimension mismatch",
                   quotient=qdim, truncation=tdim)
        out.expect(field_rank(comp) == tdim, degree=i, reason="comparison not surjective")
        if i > m:
            out.expect(qdim == 0, degree=i, reason="graded piece should vanish above m")
    # cohomology agreement, degree by degree
    for i in K.degrees():
        got = ctx.presentation(fp, i).module
        want = FGModule.of_k_dimension(K.ring, ctx.quotient(tau, i).dim)
        out.expect(got == want, degree=i, reason="graded cohomology mismatch",
                   got=repr(got), want=repr(want))
    return out


# ---------------------------------------------------------------------------
# mod-xi subquotient stage(m+1) / xi*stage(m)


def mod_xi_subquotient(ctx, K: FreeComplex, m: int) -> FPComplex:
    """stage(m+1) / (xi * stage(m)) presented on the stage-(m+1) basis.

    Degreewise this is 0 below m, K^m/{x : dx in xi K^{m+1}} at m, and the
    mod-xi reduction of the plain decalage terms above m.  The cross-check
    against the Hodge part of the cohomology complex of K/xi lives in the
    bockstein module.
    """
    stage = ctx.stage(K, m)
    finer = ctx.stage(K, m + 1)
    ring = K.ring
    modules = []
    for i in K.degrees():
        rel = ctx.solve(finer.map(i), stage.map(i).scale(ring.xi))
        if rel is None:
            raise ArithmeticError(f"xi*stage(m) escaped stage(m+1) at degree {i}")
        modules.append(FPModule(finer.source.rank(i), rel))
    diffs = [finer.source.d(i) for i in range(K.lo, K.hi)]
    return FPComplex(ring, K.lo, modules, diffs)


# ---------------------------------------------------------------------------
# cohomology of the stages


def verify_eta_m_cohomology(ctx, K: FreeComplex, m: int) -> CheckResult:
    """Three-case cohomology formula for stage(m), as exact FGModule equality.

    Above m the stage has the cohomology of the plain decalage (whose own
    identity against H(K) with xi-torsion removed is checked alongside);
    at and below m it matches H(K).
    """
    out = CheckResult("eta-m.cohomology")
    stage = ctx.stage(K, m).source
    plain = ctx.stage(K, 0).source

    def h(C, i):
        return ctx.presentation(C, i).module

    for i in K.degrees():
        got = h(stage, i)
        want = h(plain, i) if i > m else h(K, i)
        out.expect(got == want, degree=i, m=m, got=repr(got), want=repr(want))
    for i in K.degrees():
        got = h(plain, i)
        want = h(K, i).mod_xi_torsion()
        out.expect(got == want, degree=i, reason="decalage vs torsion quotient",
                   got=repr(got), want=repr(want))
    return out
