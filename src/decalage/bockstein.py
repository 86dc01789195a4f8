"""The cohomology complex of K/xi with its Bockstein differential.

Stringing the mod-xi cohomology groups H^i(K/xi) together by the connecting
map of 0 -> xi*R/xi^2 -> R/xi^2 -> R/xi -> 0 yields a complex over k; it is
this package's stand-in for a de Rham complex.  The module also houses the
identifications between that complex and the mod-xi reductions and
subquotients of the decalage stages: the reduction of the plain decalage is
quasi-isomorphic to the whole complex, the stage-(m+1)/xi*stage(m)
subquotient matches its degree >= m+1 (Hodge) part, the connecting map of the
graded triangle factors through beta, and the mod-xi reduction of a stage
splits into a truncation part and a Hodge part.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .checks import CheckResult
from .complexes import FGModule, FreeComplex, cohomology, cohomology_presentation, hodge_filtration, truncate_leq
from .eta import eta_m, graded_piece, mod_xi_subquotient, stage_inclusion
from .kmatrix import QuotientSpace, field_rank, kernel_cols, solve_field
from .rmatrix import Matrix, solve_exact


def k_cohomology_quotient(cx: FreeComplex, i: int) -> QuotientSpace:
    """H^i of a complex over a field, with deterministic representatives."""
    Z = kernel_cols(cx.d(i))
    B = cx.d(i - 1)
    return QuotientSpace(
        cx.ring,
        cx.rank(i),
        [Z.column(j) for j in range(Z.cols)],
        [B.column(j) for j in range(B.cols)],
    )


class BocksteinComplex:
    """H^*(K/xi) with the Bockstein differential, over k = R/(xi).

    ``quotients[i]`` fixes representatives of H^i(K/xi) inside (K/xi)^i;
    ``beta[i]`` is the differential in those bases.  Degree i carries twist
    tag i (the differential raises the tag by one; comparisons untwist).
    """

    __slots__ = ("K", "kbar", "field", "quotients", "beta")

    def __init__(self, K, kbar, quotients, beta):
        self.K = K
        self.kbar = kbar
        self.field = kbar.ring
        self.quotients = quotients
        self.beta = beta

    def dim(self, i: int) -> int:
        q = self.quotients.get(i)
        return 0 if q is None else q.dim

    def beta_matrix(self, i: int) -> Matrix:
        b = self.beta.get(i)
        if b is None:
            return Matrix.zeros(self.field, self.dim(i + 1), self.dim(i))
        return b

    def as_complex(self) -> FreeComplex:
        """The Bockstein complex as a plain complex over k."""
        lo, hi = self.K.lo, self.K.hi
        ranks = [self.dim(i) for i in range(lo, hi + 1)]
        diffs = [self.beta_matrix(i) for i in range(lo, hi)]
        return FreeComplex(self.field, lo, ranks, diffs)

    def describe(self) -> dict:
        return {
            "dims": [self.dim(i) for i in range(self.K.lo, self.K.hi + 1)],
            "beta": [
                [[self.field.format(x) for x in row] for row in self.beta_matrix(i).data]
                for i in range(self.K.lo, self.K.hi)
            ],
        }


def bockstein_complex(K: FreeComplex, rng: random.Random | None = None) -> BocksteinComplex:
    """Build H^*(K/xi) with beta computed through explicit lifts.

    The representatives of H^i(K/xi) are lifted together: apply d, divide by
    xi, reduce and classify.  When ``rng`` is given, every lift is perturbed
    by a random multiple of xi; the resulting matrices must not change (lift
    independence).
    """
    kbar = K.reduce_mod_xi()
    quotients = {i: k_cohomology_quotient(kbar, i) for i in K.degrees()}
    beta = {}
    ring = K.ring
    for i in range(K.lo, K.hi):
        reps = quotients[i].rep_matrix()
        lifted = reps.map_entries(ring.lift, ring)
        if rng is not None:
            noise = Matrix.from_columns(ring, [
                [ring.parse(str(rng.randint(-3, 3))) if ring.kind == "z"
                 else ring.constant(_random_field_element(ring.base, rng))
                 for _ in range(reps.rows)]
                for _ in range(reps.cols)
            ], rows=reps.rows)
            lifted = lifted + noise.scale(ring.xi)
        image = (K.d(i) @ lifted).xi_divide(1).residue()
        beta[i] = quotients[i + 1].coords_matrix(image)
    return BocksteinComplex(K, kbar, quotients, beta)


def _random_field_element(field, rng):
    from .rings import PrimeField

    if isinstance(field, PrimeField):
        return rng.randrange(field.p)
    from fractions import Fraction

    return Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))


def beta_squared_is_zero(bc: BocksteinComplex) -> bool:
    for i in range(bc.K.lo, bc.K.hi - 1):
        if not (bc.beta_matrix(i + 1) @ bc.beta_matrix(i)).is_zero():
            return False
    return True


# ---------------------------------------------------------------------------
# one complex's stages and Bockstein data, built once per call


class Memo:
    """Builds each keyed object once; a context lives for one top-level call."""

    def __init__(self):
        self._built = {}

    def once(self, key, build, *args):
        if key not in self._built:
            self._built[key] = build(*args)
        return self._built[key]


class ComplexContext(Memo):
    """The stages of K and its Bockstein data, for the stage checks to share."""

    def __init__(self, K: FreeComplex):
        super().__init__()
        self.K = K

    def stage(self, m: int):
        return self.once(("stage", m), eta_m, self.K, m)

    def inclusion(self, m: int):
        """stage(m+1) -> stage(m)."""
        return self.once(("inclusion", m), stage_inclusion, self.stage(m + 1), self.stage(m))

    def graded(self, m: int):
        return self.once(("graded", m), graded_piece, self, m)

    def subquotient(self, m: int):
        return self.once(("subquotient", m), mod_xi_subquotient, self, m)

    def kbar(self) -> FreeComplex:
        return self.once("kbar", self.K.reduce_mod_xi)

    def truncation(self, m: int):
        """tau_{<=m}(K/xi) with its inclusion, untwisted."""
        return self.once(("truncation", m), truncate_leq, self.kbar(), m)

    def bockstein(self) -> BocksteinComplex:
        return self.once("bockstein", bockstein_complex, self.K)

    def hodge(self, p: int):
        """The Hodge part F_p of the Bockstein complex with its inclusion."""
        return self.once(("hodge", p), hodge_filtration, self.bockstein().as_complex(), p)

    def comparison(self, m: int) -> dict:
        return self.once(("comparison", m), hodge_stage_comparison, self, m)


# ---------------------------------------------------------------------------
# comparison maps into the Bockstein complex


def hodge_stage_comparison(cx: ComplexContext, m: int) -> dict:
    """Comparison from stage(m)/xi*stage(m-1) onto the Hodge part F_m of H^*(K/xi).

    For m = 0 this is the comparison of the full reduced decalage.  Degrees
    below m are zero on both sides; at degree i >= m generator j is
    xi^i * w_j and maps to the class of w_j.
    """
    K, bc = cx.K, cx.bockstein()
    emb = cx.stage(m)
    maps = {}
    for i in K.degrees():
        if i < m:
            maps[i] = Matrix.zeros(bc.field, 0, emb.complex.rank(i))
            continue
        wbar = emb.basis(i).xi_divide(i).residue()
        maps[i] = bc.quotients[i].coords_matrix(wbar)
    return maps


def verify_reduction_identification(cx: ComplexContext) -> CheckResult:
    """(decalage of K) mod xi is the Bockstein complex, via explicit maps.

    Checks the comparison is a chain map over k and induces an isomorphism on
    cohomology in every degree (dimension match plus full rank).
    """
    out = CheckResult("eta.mod-xi-bockstein-model")
    K, bc = cx.K, cx.bockstein()
    red = cx.stage(0).complex.reduce_mod_xi()
    comp = cx.comparison(0)
    bcx = bc.as_complex()
    for i in range(K.lo, K.hi):
        lhs = comp[i + 1] @ red.d(i)
        rhs = bcx.d(i) @ comp[i]
        out.expect(lhs == rhs, degree=i, reason="comparison is not a chain map")
    for i in K.degrees():
        hq = k_cohomology_quotient(red, i)
        hb = k_cohomology_quotient(bcx, i)
        out.expect(hq.dim == hb.dim, degree=i, reason="dimension mismatch",
                   reduced=hq.dim, bockstein=hb.dim)
        if hq.dim != hb.dim:
            continue
        induced = hb.coords_matrix(comp[i] @ hq.rep_matrix())
        out.expect(field_rank(induced) == hq.dim, degree=i,
                   reason="induced map on cohomology is not invertible")
    return out


def verify_mod_xi_subquotient(cx: ComplexContext, m: int) -> CheckResult:
    """stage(m+1)/xi*stage(m) has the cohomology of the Hodge part F_{m+1}."""
    out = CheckResult("eta-m.mod-xi-subquotient")
    K = cx.K
    sq = cx.subquotient(m)
    out.expect(sq.degree_m_cohomology_vanishes(), degree=m, m=m,
               reason="degree-m cohomology of the subquotient must vanish")
    hodge, _ = cx.hodge(m + 1)
    for i in K.degrees():
        got = cohomology(sq.fp, i)
        want = FGModule.of_k_dimension(K.ring, cohomology(hodge, i).free_rank)
        out.expect(got == want, degree=i, m=m, got=repr(got), want=repr(want))
    return out


# ---------------------------------------------------------------------------
# the connecting map of the graded triangle


def connecting_factorization(cx: ComplexContext, m: int) -> CheckResult:
    """Connecting map of stage(m+1) -> stage(m) -> graded piece, versus beta.

    Verifies, in order: the four-term sequence
    0 -> ker(beta_m) -> H^m(K/xi) -> ker(beta_{m+1}) -> H^{m+1}(of the
    Bockstein complex) -> 0 is exact; the mod-xi reduction of stage(m) has
    the three-case cohomology (H^i(K/xi) below m, ker beta_m at m, Bockstein
    cohomology above); and the snake map of the graded triangle equals beta_m
    under the comparison identifications.
    """
    out = CheckResult("eta-m.connecting-bockstein")
    K, bc = cx.K, cx.bockstein()
    bcx = bc.as_complex()
    field = bc.field

    # four-term exactness with middle map beta
    beta_m = bc.beta_matrix(m)
    beta_m1 = bc.beta_matrix(m + 1)
    zm = kernel_cols(beta_m)
    zm1 = kernel_cols(beta_m1)
    hm1 = k_cohomology_quotient(bcx, m + 1)
    out.expect((beta_m1 @ beta_m).is_zero(), m=m, reason="beta squared nonzero")
    # exactness at H^m(K/xi): kernel of beta_m is Z^m by construction; at
    # Z^{m+1}: image of beta_m + boundaries span, quotient is H^{m+1}
    rank_beta = field_rank(beta_m)
    out.expect(zm.cols + rank_beta == bc.dim(m), m=m, reason="rank-nullity failure")
    out.expect(zm1.cols - rank_beta == hm1.dim, m=m,
               reason="cokernel of beta_m inside Z^{m+1} is not H^{m+1}")

    # three-case formula for stage(m) mod xi
    red = cx.stage(m).complex.reduce_mod_xi()
    for i in K.degrees():
        got = k_cohomology_quotient(red, i).dim
        if i <= m - 1:
            want = bc.dim(i)
        elif i == m:
            want = zm.cols
        else:
            want = k_cohomology_quotient(bcx, i).dim
        out.expect(got == want, degree=i, m=m, got=got, want=want,
                   reason="three-case reduction formula")

    # snake of the graded triangle equals beta
    if m + 1 <= K.hi:
        grade = cx.graded(m)
        stage, finer = grade.stage, grade.finer
        inc = cx.inclusion(m)
        gens = cohomology_presentation(grade.fp, m).gens_basis
        # beta of the classes of the generators in H^m(K/xi)
        elts = (stage.basis(m) @ gens).xi_divide(m).residue()
        betas = beta_m @ bc.quotients[m].coords_matrix(elts)
        for j in range(gens.cols):
            z = gens.take_columns([j])
            rhs = betas.column(j)
            # snake: lift z, apply d, pull back along the stage inclusion
            dz = stage.complex.d(m) @ z
            y = solve_exact(inc.map(m + 1), dz)
            if y is None:
                out.fail(m=m, generator=j, reason="snake image escaped the finer stage")
                continue
            velt = (finer.basis(m + 1) @ y).xi_divide(m + 1).residue()
            lhs = bc.quotients[m + 1].coords(velt.column(0))
            out.expect(lhs == rhs, m=m, generator=j,
                       reason="connecting map does not factor through beta",
                       snake=[field.format(x) for x in lhs],
                       beta=[field.format(x) for x in rhs])
    return out


# ---------------------------------------------------------------------------
# the splitting of stage(m+1) mod xi


@dataclass
class Splitting:
    """stage(m+1)/xi against its two factors, with the verification record."""

    dims: dict
    reduced: FreeComplex
    truncation_factor: FreeComplex
    hodge_factor: FreeComplex
    check: CheckResult


def split_mod_xi(cx: ComplexContext, m: int) -> Splitting:
    """Decomposition record for stage(m+1)/xi: truncation part + Hodge part.

    ``dims`` holds the per-degree bookkeeping; the check asserts cohomology
    additivity in every degree and the two compatibility squares.
    """
    K = cx.K
    hodge, _ = cx.hodge(m + 1)
    red = cx.stage(m + 1).complex.reduce_mod_xi()
    tau = cx.truncation(m)[0].with_twist(m + 1)

    result = CheckResult("eta-m.mod-xi-splitting")
    dims = {}
    for i in K.degrees():
        dims[i] = {
            "reduced": red.rank(i),
            "truncation_factor": tau.rank(i),
            "hodge_factor": hodge.rank(i),
        }
        got = k_cohomology_quotient(red, i).dim
        want = (k_cohomology_quotient(tau, i).dim
                + k_cohomology_quotient(hodge, i).dim)
        result.expect(got == want, degree=i, m=m, got=got, want=want,
                      reason="cohomology does not split")

    result.merge(_splitting_compatibility(cx, m))
    return Splitting(dims, red, tau, hodge, result)


def _splitting_compatibility(cx: ComplexContext, m: int) -> CheckResult:
    """The two compatibility squares of the splitting, on cohomology.

    (a) Hodge side: stage(m+1)/xi*stage(m) -> stage(m)/xi*stage(m-1)
        agrees with the inclusion F_{m+1} -> F_m of Hodge parts.
    (b) truncation side: graded(m-1)(1) -> stage(m)/xi*stage(m) -> graded(m)
        agrees with the truncation inclusion tau_{<=m-1} -> tau_{<=m}.
    """
    out = CheckResult("eta-m.mod-xi-splitting-compat")
    K = cx.K

    # (a): compare through the Hodge comparisons at levels m+1 and m
    sq = cx.subquotient(m)
    inc = cx.inclusion(m)
    comp_fine = cx.comparison(m + 1)
    comp_coarse = cx.comparison(m)
    f_coarse, _ = cx.hodge(m)
    for i in K.degrees():
        if i < m + 1:
            continue
        gens = cohomology_presentation(sq.fp, i).gens_basis
        hq = k_cohomology_quotient(f_coarse, i)
        lhs = hq.coords_matrix(comp_coarse[i] @ (inc.map(i) @ gens).residue())
        rhs = hq.coords_matrix(comp_fine[i] @ gens.residue())
        for j in range(gens.cols):
            out.expect(lhs.column(j) == rhs.column(j), degree=i, m=m, generator=j,
                       reason="Hodge-side compatibility square fails")

    # (b): truncation side, only meaningful for m >= 1
    if m >= 1:
        grade_prev = cx.graded(m - 1)
        grade = cx.graded(m)
        _, tau_prev_inc = cx.truncation(m - 1)
        _, tau_inc = cx.truncation(m)
        # inclusion tau_{<=m-1} -> tau_{<=m} over k
        jmaps = {}
        for i in K.degrees():
            sol = solve_field(tau_inc.map(i), tau_prev_inc.map(i))
            if sol is None:
                out.fail(degree=i, reason="truncations are not nested")
                return out
            jmaps[i] = sol
        for i in K.degrees():
            gens = cohomology_presentation(grade_prev.fp, i).gens_basis
            if gens.cols == 0:
                continue
            hq = k_cohomology_quotient(grade.tau, i)
            u = solve_exact(grade.stage.basis(i),
                            grade_prev.stage.basis(i).scale(K.ring.xi))
            if u is None:
                out.fail(degree=i, m=m, reason="xi*stage(m-1) escaped stage(m)")
                continue
            lhs = hq.coords_matrix(grade.comparison[i] @ (u @ gens).residue())
            rhs = hq.coords_matrix(jmaps[i] @ (grade_prev.comparison[i] @ gens.residue()))
            for j in range(gens.cols):
                out.expect(lhs.column(j) == rhs.column(j), degree=i, m=m, generator=j,
                           reason="truncation-side compatibility square fails")
    return out
