"""The cohomology complex of K/xi with its Bockstein differential.

Stringing the mod-xi cohomology groups H^i(K/xi) together by the connecting
map of 0 -> xi*R/xi^2 -> R/xi^2 -> R/xi -> 0 yields a complex over k; it is
this package's stand-in for a de Rham complex.  ``ctx.bockstein(K)`` is that
complex over k as a ``FreeComplex``: its degree-i basis is the representatives
``ctx.quotient(ctx.kbar(K), i).reps`` of H^i(K/xi), and its degree-i
differential is beta_i in those bases.  The module also houses the
identifications between that complex and the mod-xi reductions and
subquotients of the decalage stages: the reduction of the plain decalage is
quasi-isomorphic to the whole complex, the stage-(m+1)/xi*stage(m)
subquotient matches its degree >= m+1 (Hodge) part, the connecting map of the
graded triangle factors through beta, and the mod-xi reduction of a stage
splits into a truncation part and a Hodge part.  Each check takes a
context (``Memo``) and the complex K, and reads every object it needs from
the context, which builds each object made from one complex once per call.
"""

from __future__ import annotations

from .checks import CheckResult
from .complexes import (
    ChainMap,
    FGModule,
    FreeComplex,
    cohomology_module,
    cohomology_presentation,
    factor_through,
    hodge_filtration,
    solve,
    truncate_leq,
)
from .eta import eta_m, graded_piece, mod_xi_subquotient, stage_inclusion
from .kmatrix import QuotientSpace, Subspace, field_rank, kernel
from .rmatrix import Matrix, SNFResult, snf


def k_cohomology_quotient(cx: FreeComplex, i: int) -> QuotientSpace:
    """H^i of a complex over a field, with deterministic representatives."""
    if not cx.rank(i):
        return QuotientSpace(Subspace(cx.ring, 0), Matrix.zeros(cx.ring, 0, 0))
    return QuotientSpace(kernel(cx.d(i)), cx.d(i - 1))


def k_induced_matrix(ctx: Memo, cm: ChainMap, i: int) -> Matrix:
    """The map on degree-i cohomology induced by a chain map over a field.

    Its columns are the classes of the images of the source's
    representatives, in the target's representatives; both quotients come
    from the context ``ctx``.
    """
    src = ctx.quotient(cm.source, i).rep_matrix()
    return ctx.quotient(cm.target, i).coords_matrix(cm.map(i) @ src)


def bockstein_complex(ctx: Memo, K: FreeComplex) -> FreeComplex:
    """Build H^*(K/xi) with beta computed through explicit lifts, over k.

    The reduction K/xi and its groups H^i(K/xi) come from the context
    ``ctx``.  Their representatives are lifted together: apply d, divide by
    xi, reduce and classify.
    """
    kbar = ctx.kbar(K)
    quotients = {i: ctx.quotient(kbar, i) for i in K.degrees()}
    beta = []
    for i in range(K.lo, K.hi):
        lifted = quotients[i].rep_matrix().map_entries(K.ring.lift, K.ring)
        image = (K.d(i) @ lifted).xi_residue(1)
        beta.append(quotients[i + 1].coords_matrix(image))
    ranks = [quotients[i].dim for i in K.degrees()]
    return FreeComplex(kbar.ring, K.lo, ranks, beta)


# ---------------------------------------------------------------------------
# every object built from one complex, built once per call


_MISSING = object()


class Memo:
    """Builds each keyed object once; a context lives for one top-level call.

    A context is the one builder of the objects made from a complex K: its
    cohomology groups, its stages, graded pieces, mod-xi subquotients and
    Hodge comparisons, its reduction K/xi with the truncations, and its
    Bockstein complex with the Hodge parts.  A cohomology group comes in two
    forms: ``module`` gives its invariants alone, from the Smith forms of
    the two differentials, for the readers that want nothing else (H1, the
    torsion table, the stage cohomology check); ``presentation`` gives a
    cocycle basis and relations, for every reader of a basis and for
    quotients.  A stage, truncation or Hodge part is its inclusion chain map
    (``subcomplex``), whose ``source`` is the piece, and a map into a piece
    is factored through it (``factor_through``);
    a quotient is the injective chain map whose cokernel it is, and a
    comparison is a chain map.  Each is keyed by the complex it is built
    from: equal free complexes built separately share one entry, and the
    chain maps presented as quotients (built once per context) are keyed by
    identity; behind that key a presentation is keyed by the content of the
    four matrices it reads, so quotient maps equal in content share one,
    and H^i over k (``quotient``) is keyed by the content of d(i) and
    d(i-1), the two matrices it reads.  Stages 0 < m < hi and the Hodge
    comparison maps of stage m > 0 are read from the entries for stage 0,
    not solved again, and the maps between neighbouring stages are solved
    only at their seam degree.  From m = hi on stage m is xi^m K, with K as
    its source, and the maps built from it do not depend on m: inclusion,
    subquotient, graded and truncation entries are keyed by min(m, hi),
    comparison entries by min(m, hi + 1) and Hodge parts by p clamped to
    [lo, hi + 1], each content-equal to the entry it stands for.  A
    context is also the
    one place where matrices over R are factored, keyed by content and
    keeping nothing else about a matrix: a reader takes
    a kernel or an image from ``factor(M)``, whose transforms are built only
    when one of these reads them and which keeps its image once built.  A
    stage basis takes no Smith form: it is one elimination over k.  Over k,
    kernels are ``kmatrix``'s, so no Smith form is taken over a field.
    """

    def __init__(self):
        self._built = {}

    def once(self, key, build, *args):
        built = self._built.get(key, _MISSING)
        if built is _MISSING:
            built = self._built[key] = build(*args)
        return built

    def factor(self, M: Matrix) -> SNFResult:
        """The Smith normal form of M, as ``snf``."""
        return self.once(("factor", M), snf, M)

    def module(self, K: FreeComplex, i: int) -> FGModule:
        """The invariants of H^i of a free complex K over R, as ``cohomology_module``."""
        return self.once(("module", K, i), cohomology_module, self, K, i)

    def presentation(self, K, i: int):
        """H^i of K (of its cokernel for a chain map K) over R, as ``cohomology_presentation``."""
        return self.once(("presentation", K, i), cohomology_presentation, self, K, i)

    def quotient(self, K: FreeComplex, i: int) -> QuotientSpace:
        """H^i(K) of a complex over k, as ``k_cohomology_quotient``.

        Behind the ``("quotient", K, i)`` key it is built once per content of
        d(i) and d(i-1), the two matrices it reads, so complexes that agree
        there share one ``QuotientSpace``.
        """
        return self.once(("quotient", K, i), lambda: self.once(
            ("k-quotient", K.d(i), K.d(i - 1)), k_cohomology_quotient, K, i))

    def stage(self, K: FreeComplex, m: int) -> ChainMap:
        """Stage m of K as its inclusion into K, as ``eta_m``."""
        return self.once(("stage", K, m), eta_m, self, K, m)

    def inclusion(self, K: FreeComplex, m: int) -> ChainMap:
        """stage(m+1) -> stage(m) of K, as ``stage_inclusion``; one entry from m = hi on."""
        m = min(m, K.hi)
        return self.once(("inclusion", K, m), stage_inclusion, self, K, m)

    def graded(self, K: FreeComplex, m: int) -> ChainMap:
        """stage(m) mod xi onto the truncation of K/xi at m, as ``graded_piece``; one from m = hi on."""
        m = min(m, K.hi)
        return self.once(("graded", K, m), graded_piece, self, K, m)

    def subquotient(self, K: FreeComplex, m: int) -> ChainMap:
        """xi: stage(m) -> stage(m+1) of K, as ``mod_xi_subquotient``; one from m = hi on."""
        m = min(m, K.hi)
        return self.once(("subquotient", K, m), mod_xi_subquotient, self, K, m)

    def kbar(self, K: FreeComplex) -> FreeComplex:
        """K/xi."""
        return self.once(("kbar", K), K.reduce_mod_xi)

    def truncation(self, K: FreeComplex, m: int) -> ChainMap:
        """tau_{<=m}(K) as its inclusion into K, as ``truncate_leq``; one from m = hi on."""
        m = min(m, K.hi)
        return self.once(("truncation", K, m), truncate_leq, K, m)

    def bockstein(self, K: FreeComplex) -> FreeComplex:
        """H^*(K/xi) with beta over k, as ``bockstein_complex``."""
        return self.once(("bockstein", K), bockstein_complex, self, K)

    def hodge(self, K: FreeComplex, p: int) -> ChainMap:
        """The degree >= p part of K as its inclusion into K, as ``hodge_filtration``.

        One entry for p <= lo (all of K) and one for p > hi (zero).
        """
        p = min(max(p, K.lo), K.hi + 1)
        return self.once(("hodge", K, p), hodge_filtration, K, p)

    def comparison(self, K: FreeComplex, m: int) -> ChainMap:
        """stage(m) mod xi onto F_m, as ``hodge_stage_comparison``; one from m = hi + 1 on."""
        m = min(m, K.hi + 1)
        return self.once(("comparison", K, m), hodge_stage_comparison, self, K, m)


# ---------------------------------------------------------------------------
# comparison maps into the Bockstein complex


def hodge_stage_comparison(ctx: Memo, K: FreeComplex, m: int) -> ChainMap:
    """Chain map from stage(m) mod xi onto the Hodge part F_m of H^*(K/xi).

    It factors through stage(m)/xi*stage(m-1).  For m = 0 this is the
    comparison of the full reduced decalage.  F_m is zero below m; at degree
    i >= m generator j is xi^i * w_j and maps to the class of w_j.  In those
    degrees stage m holds stage 0's bases, so for m > 0 the maps are
    ``ctx.comparison(K, 0)``'s.
    """
    stage = ctx.stage(K, m)
    degrees = range(max(m, K.lo), K.hi + 1)
    if m:
        maps = {i: ctx.comparison(K, 0).map(i) for i in degrees}
    else:
        kbar = ctx.kbar(K)
        maps = {i: ctx.quotient(kbar, i).coords_matrix(stage.map(i).xi_residue(i))
                for i in degrees}
    return ChainMap(ctx.kbar(stage.source), ctx.hodge(ctx.bockstein(K), m).source, maps)


def verify_reduction_identification(ctx: Memo, K: FreeComplex) -> CheckResult:
    """(decalage of K) mod xi is the Bockstein complex, via explicit maps.

    Checks the comparison is a chain map over k and induces an isomorphism on
    cohomology in every degree (dimension match plus full rank).
    """
    out = CheckResult("eta.mod-xi-bockstein-model")
    comp = ctx.comparison(K, 0)
    red, bcx = comp.source, comp.target
    for i in range(K.lo, K.hi):
        lhs = comp.map(i + 1) @ red.d(i)
        rhs = bcx.d(i) @ comp.map(i)
        out.expect(lhs == rhs, degree=i, reason="comparison is not a chain map")
    for i in K.degrees():
        hq = ctx.quotient(red, i)
        hb = ctx.quotient(bcx, i)
        out.expect(hq.dim == hb.dim, degree=i, reason="dimension mismatch",
                   reduced=hq.dim, bockstein=hb.dim)
        if hq.dim != hb.dim:
            continue
        out.expect(field_rank(k_induced_matrix(ctx, comp, i)) == hq.dim, degree=i,
                   reason="induced map on cohomology is not invertible")
    return out


def verify_mod_xi_subquotient(ctx: Memo, K: FreeComplex, m: int) -> CheckResult:
    """stage(m+1)/xi*stage(m) has the cohomology of the Hodge part F_{m+1}."""
    out = CheckResult("eta-m.mod-xi-subquotient")
    sq = ctx.subquotient(K, m)
    out.expect(ctx.presentation(sq, m).module.is_zero(), degree=m, m=m,
               reason="degree-m cohomology of the subquotient must vanish")
    hodge = ctx.hodge(ctx.bockstein(K), m + 1).source
    for i in K.degrees():
        got = ctx.presentation(sq, i).module
        want = FGModule.of_k_dimension(K.ring, ctx.quotient(hodge, i).dim)
        out.expect(got == want, degree=i, m=m, got=got, want=want)
    return out


# ---------------------------------------------------------------------------
# the connecting map of the graded triangle


def connecting_factorization(ctx: Memo, K: FreeComplex, m: int) -> CheckResult:
    """Connecting map of stage(m+1) -> stage(m) -> graded piece, versus beta.

    Verifies, in order: the four-term sequence
    0 -> ker(beta_m) -> H^m(K/xi) -> ker(beta_{m+1}) -> H^{m+1}(of the
    Bockstein complex) -> 0 is exact; the mod-xi reduction of stage(m) has
    the three-case cohomology (H^i(K/xi) below m, ker beta_m at m, Bockstein
    cohomology above); and the snake map of the graded triangle equals beta_m
    under the comparison identifications.
    """
    out = CheckResult("eta-m.connecting-bockstein")
    bcx = ctx.bockstein(K)

    # four-term exactness with middle map beta
    beta_m = bcx.d(m)
    beta_m1 = bcx.d(m + 1)
    zm = kernel(beta_m).dim
    zm1 = kernel(beta_m1).dim
    hm1 = ctx.quotient(bcx, m + 1)
    out.expect((beta_m1 @ beta_m).is_zero(), m=m, reason="beta squared nonzero")
    # exactness at H^m(K/xi): kernel of beta_m is Z^m by construction; at
    # Z^{m+1}: image of beta_m + boundaries span, quotient is H^{m+1}
    rank_beta = field_rank(beta_m)
    out.expect(zm + rank_beta == bcx.rank(m), m=m, reason="rank-nullity failure")
    out.expect(zm1 - rank_beta == hm1.dim, m=m,
               reason="cokernel of beta_m inside Z^{m+1} is not H^{m+1}")

    # three-case formula for stage(m) mod xi
    red = ctx.kbar(ctx.stage(K, m).source)
    for i in K.degrees():
        got = ctx.quotient(red, i).dim
        if i <= m - 1:
            want = bcx.rank(i)
        elif i == m:
            want = zm
        else:
            want = ctx.quotient(bcx, i).dim
        out.expect(got == want, degree=i, m=m, got=got, want=want,
                   reason="three-case reduction formula")

    # snake of the graded triangle equals beta
    if m + 1 <= K.hi:
        stage = ctx.stage(K, m).source
        inc = ctx.inclusion(K, m)
        gens = ctx.presentation(inc, m).gens_basis
        # beta of the classes of the generators in H^m(K/xi)
        betas = beta_m @ (ctx.comparison(K, m).map(m) @ gens.residue())
        for j in range(gens.cols):
            z = gens.take_columns([j])
            rhs = betas.column(j)
            # snake: lift z, apply d, pull back along the stage inclusion
            y = solve(inc.map(m + 1), stage.d(m) @ z)
            if y is None:
                out.fail(m=m, generator=j, reason="snake image escaped the finer stage")
                continue
            lhs = (ctx.comparison(K, m + 1).map(m + 1) @ y.residue()).column(0)
            if lhs != rhs:
                out.fail(m=m, generator=j, reason="connecting map does not factor through beta",
                         snake=[bcx.ring.format(x) for x in lhs],
                         beta=[bcx.ring.format(x) for x in rhs])
    return out


# ---------------------------------------------------------------------------
# the splitting of stage(m+1) mod xi


def split_mod_xi(ctx: Memo, K: FreeComplex, m: int) -> CheckResult:
    """stage(m+1)/xi splits into a truncation part and a Hodge part.

    The check asserts cohomology additivity in every degree, then the two
    compatibility squares on cohomology, keying each square's failure
    ``check: eta-m.mod-xi-splitting-compat``:
    (a) Hodge side: stage(m+1)/xi*stage(m) -> stage(m)/xi*stage(m-1)
        agrees with the inclusion F_{m+1} -> F_m of Hodge parts.
    (b) truncation side: graded(m-1)(1) -> stage(m)/xi*stage(m) -> graded(m)
        agrees with the truncation inclusion tau_{<=m-1} -> tau_{<=m}.
    """
    hodge = ctx.hodge(ctx.bockstein(K), m + 1).source
    red = ctx.kbar(ctx.stage(K, m + 1).source)
    tau = ctx.truncation(ctx.kbar(K), m).source

    out = CheckResult("eta-m.mod-xi-splitting")
    compat = "eta-m.mod-xi-splitting-compat"  # the check a square's failure names
    for i in K.degrees():
        got = ctx.quotient(red, i).dim
        want = ctx.quotient(tau, i).dim + ctx.quotient(hodge, i).dim
        out.expect(got == want, degree=i, m=m, got=got, want=want,
                   reason="cohomology does not split")

    # (a): compare through the Hodge comparisons at levels m+1 and m
    sq = ctx.subquotient(K, m)
    inc = ctx.inclusion(K, m)
    comp_fine = ctx.comparison(K, m + 1)
    comp_coarse = ctx.comparison(K, m)
    f_coarse = ctx.hodge(ctx.bockstein(K), m).source
    for i in range(max(m + 1, K.lo), K.hi + 1):
        gens = ctx.presentation(sq, i).gens_basis
        hq = ctx.quotient(f_coarse, i)
        lhs = hq.coords_matrix(comp_coarse.map(i) @ (inc.map(i) @ gens).residue())
        rhs = hq.coords_matrix(comp_fine.map(i) @ gens.residue())
        if lhs != rhs:
            for j in range(gens.cols):
                out.expect(lhs.column(j) == rhs.column(j), check=compat, degree=i, m=m,
                           generator=j, reason="Hodge-side compatibility square fails")

    # (b): truncation side, only meaningful for m >= 1
    if m >= 1:
        grade_prev = ctx.graded(K, m - 1)
        grade = ctx.graded(K, m)
        kbar = ctx.kbar(K)
        # inclusion tau_{<=m-1} -> tau_{<=m} over k
        try:
            jmap = factor_through(ctx.truncation(kbar, m - 1), ctx.truncation(kbar, m))
        except ArithmeticError as exc:
            out.fail(check=compat, reason=f"truncations are not nested: {exc}")
            return out
        inc_prev, u = ctx.inclusion(K, m - 1), ctx.subquotient(K, m - 1)
        for i in K.degrees():
            gens = ctx.presentation(inc_prev, i).gens_basis
            if gens.cols == 0:
                continue
            hq = ctx.quotient(grade.target, i)
            # xi * stage(m-1) -> stage(m)
            lhs = hq.coords_matrix(grade.map(i) @ (u.map(i) @ gens).residue())
            rhs = hq.coords_matrix(jmap.map(i) @ (grade_prev.map(i) @ gens.residue()))
            if lhs != rhs:
                for j in range(gens.cols):
                    out.expect(lhs.column(j) == rhs.column(j), check=compat, degree=i, m=m,
                               generator=j, reason="truncation-side compatibility square fails")
    return out
