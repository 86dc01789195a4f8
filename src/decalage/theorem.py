"""The stage lattice, its flag, torsion-freeness tables, main comparison.

The stage lattice in degree i is the image of H^i of the stage-0 sections in
H^i of the sections of F, a full-rank lattice L in R^n, n the free rank,
given as the column span of one matrix M.  Only xi-valuations carry meaning
(primes away from xi act as units of the intended local model).

The flag of M is increasing in m: the image of L ∩ xi^m R^n in
xi^m R^n / xi^{m+1} R^n = k^n, zero below 0 and full from one past the
largest valuation of an elementary divisor.  It is read by the decalage's
own congruence condition applied to L: L_0 = L and
L_{m+1} = {y : xi y in L_m} = (L_m ∩ xi R^n) / xi, whose basis is
B C / xi for B a basis of L_m and C its ``congruence_kernel``, and the
space at m is L_m mod xi.  The relative position, the xi-valuations of the
elementary divisors, is the flag's jump multiset.  Both are intrinsic to
the pair (R^n, L): any basis of the span gives them.  The main comparison
identifies the flag with the image filtration of the stages on the mod-xi
cohomology, and matches graded dimensions against the cohomology of the
term sheaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bockstein import k_cohomology_quotient  # noqa: F401 (perfbench/selftest.py checks this alias)
from .checks import CheckResult
from .eta import congruence_kernel, is_stationary_stage
from .kmatrix import Subspace, field_rank
from .rmatrix import Matrix
from .sites import (
    InstanceContext,
    SheafComplex,
)
from .spectral import (
    compare_degeneration,
    degeneration_check_HT,
    degeneration_check_HdR,
    term_dims,
)


class SingularBasis(ValueError):
    """A lattice matrix must have full row rank."""


class TorsionObstruction(ValueError):
    def __init__(self, degree, which):
        super().__init__(f"{which} cohomology has xi-torsion at degree {degree}")


class Flag:
    """Increasing subspaces of k^n on a window m_lo .. m_hi with no gap: zero below, full above."""

    __slots__ = ("field", "n", "spaces", "m_lo", "m_hi")

    def __init__(self, field, n: int, spaces: dict):
        self.field = field
        self.n = n
        if not spaces:
            raise ValueError("a flag needs at least one space")
        self.m_lo = min(spaces)
        self.m_hi = max(spaces)
        self.spaces = dict(spaces)
        prev = None
        for m in range(self.m_lo, self.m_hi + 1):
            if m not in self.spaces:
                raise ValueError(f"flag window has a gap at m = {m}")
            cur = self.spaces[m]
            if prev is not None and not cur.contains_space(prev):
                raise ValueError(f"flag not increasing at m = {m}")
            prev = cur

    def subspace(self, m: int) -> Subspace:
        if m in self.spaces:
            return self.spaces[m]
        if m < self.m_lo:
            return Subspace(self.field, self.n)
        return self.spaces[self.m_hi]

    def dim(self, m: int) -> int:
        return self.subspace(m).dim

    def graded_dim(self, m: int) -> int:
        return self.dim(m) - self.dim(m - 1)

    def shifted(self, c: int) -> "Flag":
        return Flag(self.field, self.n, {m + c: s for m, s in self.spaces.items()})

    def __eq__(self, other):
        if not isinstance(other, Flag) or other.n != self.n:
            return False
        lo = min(self.m_lo, other.m_lo)
        hi = max(self.m_hi, other.m_hi)
        return all(self.subspace(m) == other.subspace(m) for m in range(lo, hi + 1))

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.n,
            "window": [self.m_lo, self.m_hi],
            "subspaces": {str(m): self.subspace(m).to_json()
                          for m in range(self.m_lo, self.m_hi + 1)},
        }


def bb_filtration(M: Matrix, top: int) -> Flag:
    """The flag that L = span(M) cuts in k^n, read level by level off L_m.

    From B = M, a basis of L_0 = L, the space at m is B mod xi; until it is
    full, B becomes B C / xi with C = ``congruence_kernel(B)``, a basis of
    L_{m+1} = (L_m ∩ xi R^n) / xi.  The window runs from 0 to one past the
    level where the space is full, the largest valuation (only 0 when
    n = 0).  Raises SingularBasis unless the space is full by m = ``top``,
    which must be at least the largest valuation; a singular M never fills.
    """
    ring, spaces, B = M.ring, {}, M
    for m in range(top + 1):
        spaces[m] = Subspace.from_columns(B.residue())
        if spaces[m].dim == M.rows:
            if M.rows:
                spaces[m + 1] = spaces[m]
            return Flag(ring.residue_field(), M.rows, spaces)
        B = (B @ congruence_kernel(B)).map_entries(lambda x: ring.xi_divide(x, 1), ring)
    raise SingularBasis(f"flag not full by m = {top}: M is singular or has a larger valuation")


def relative_position(flag: Flag) -> list:
    """The jumps of the flag with multiplicity, descending.

    For the flag of span(M), the xi-valuations of the elementary divisors of
    span(M) in R^n: invariant under M -> P M Q for P and Q invertible over
    the localization at xi.
    """
    return [m for m in range(flag.m_hi, flag.m_lo - 1, -1) for _ in range(flag.graded_dim(m))]


# ---------------------------------------------------------------------------
# the stage lattice of a sheaf complex


def stage_lattice(ctx: InstanceContext, i: int) -> Matrix:
    """H^i of the stage-0 sections in the free coordinates of H^i of the sections of F.

    Both cohomologies must be xi-torsion-free (TorsionObstruction names the
    offender); the columns are the images of the basis cocycles of the
    stage.  Their lattice has full rank, and contains xi^hi R^n, since stage
    hi is xi^hi F inside stage 0: ``bb_filtration`` with ``top`` = hi reads
    its flag, and raises SingularBasis if it is not full by then.
    """
    incl = ctx.sections_map(ctx.stage_sheaf(0))
    pres0 = ctx.presentation(incl.target, i)
    if not pres0.module.xi_torsion_free:
        raise TorsionObstruction(i, "ambient")
    pres1 = ctx.presentation(incl.source, i)
    if not pres1.module.xi_torsion_free:
        raise TorsionObstruction(i, "stage")
    return pres0.free_coords(incl.map(i) @ pres1.basis_cocycles())


# ---------------------------------------------------------------------------
# torsion-freeness table and hypothesis checks


def check_torsionfree_eta_m(ctx: InstanceContext) -> dict:
    """FG invariants of H^i of the sections of stages 0 .. hi + 1, with verdicts."""
    table = {}
    for m in range(0, ctx.F.hi() + 2):
        total = ctx.sections(ctx.stage_sheaf(m).source)
        for i in total.degrees():
            fg = ctx.module(total, i)
            table[(i, m)] = {
                "invariants": fg.describe(),
                "xi_torsion_free": fg.xi_torsion_free,
            }
    return table


def hypothesis_h1(ctx: InstanceContext) -> tuple:
    """All H^i of the sections xi-torsion-free; witness is the first failure."""
    total = ctx.sections(ctx.F)
    for i in total.degrees():
        if not ctx.module(total, i).xi_torsion_free:
            return False, i
    return True, None


def reduction_iso_matrices(ctx: InstanceContext) -> dict:
    """Per-degree matrices H^i(sections of F) tensor k -> H^i(sections of F/xi).

    The sections complex reduces literally, so the right side is the
    cohomology of the residue of the total complex; the map reduces chosen
    basis cocycles.  Called under H1: every H^i is torsion-free, so each
    map is an isomorphism.
    """
    total = ctx.sections(ctx.F)
    red = ctx.sections(ctx.reduced())
    return {i: ctx.quotient(red, i).coords_matrix(
                ctx.presentation(total, i).basis_cocycles().residue())
            for i in total.degrees()}


# ---------------------------------------------------------------------------
# the image filtration (the comparison's right-hand side)


def image_flag(ctx: InstanceContext, i: int, m_max: int) -> Flag:
    """Flag of images of H^i of the stage sections in H^i of sections of F/xi.

    Stage m maps by pushing the generators of H^i of its sections forward
    along the sections of its inclusion, dividing by xi^m and reducing; the
    images increase with m, and above hi, where stage m is xi^m F, they are hi's.
    """
    bar_total = ctx.sections(ctx.reduced())
    kfield = bar_total.ring
    target = ctx.quotient(bar_total, i)
    top = min(m_max, ctx.F.hi())
    spaces = {}
    for m in range(0, top + 1):
        if target.dim == 0:
            spaces[m] = Subspace(kfield, 0)
            continue
        # generators of H^i of the stage sections, pushed forward over R; the
        # inclusion's sections are divisible by xi^m, so every entry is too
        incl = ctx.sections_map(ctx.stage_sheaf(m))
        gens_basis = ctx.presentation(incl.source, i).gens_basis
        pushed = (incl.map(i) @ gens_basis).xi_residue(m)
        spaces[m] = Subspace.from_columns(target.coords_matrix(pushed))
    spaces.update(dict.fromkeys(range(top + 1, m_max + 1), spaces[top]))
    return Flag(kfield, target.dim, spaces)


# ---------------------------------------------------------------------------
# the theorem report


@dataclass
class TheoremReport:
    hypotheses: dict = field(default_factory=dict)
    torsion_table: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)
    graded: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    asserted: bool = False

    @property
    def passed(self) -> bool:
        """Unasserted, or every check passed."""
        return not self.asserted or all(c.passed for c in self.checks)

    def to_json(self) -> dict:
        return {
            "hypotheses": self.hypotheses,
            "asserted": self.asserted,
            "passed": self.passed,
            "torsion_table": {
                f"i={i},m={m}": v for (i, m), v in sorted(self.torsion_table.items())
            },
            "flags": self.flags,
            "graded": self.graded,
            "checks": [c.to_json() for c in self.checks],
        }


def verify_main_theorem(F: SheafComplex) -> TheoremReport:
    """Compare the two-lattice flag with the stage image filtration.

    Steps: check the torsion-freeness hypothesis on the sections of F and
    the injectivity hypothesis on the truncation maps; tabulate the stage
    torsion-freeness; for each degree compute the lattice flag and the image
    flag; when both hypotheses hold, assert flag equality and the graded
    dimension identity against the term sheaves.  Under H1 the cokernel
    comparison runs at each (i, m) with H^i(S, Omega^m[-m]) nonzero, read
    off the same ``term_dims`` table as the graded targets: both images lie
    in that space, so where it is zero they are equal.  With a failed
    hypothesis the same fields are returned unasserted, built without what
    only an asserted check reads: the reduction identification, that table
    and the cokernel comparison without H1, the moved lattice flag without
    both; their checks stay, passed and empty.  All
    steps share one InstanceContext, dropped on return.  F is validated
    first, and only here: what is built from it is valid by construction.
    """
    F.validate()
    report = TheoremReport()
    ctx = InstanceContext(F)
    h1, h1_witness = hypothesis_h1(ctx)
    h3, h3_witness, h3_agrees = degeneration_check_HT(ctx)
    report.hypotheses = {
        "H1": {"holds": h1, "witness": h1_witness},
        "H3": {"holds": h3, "witness": list(h3_witness) if h3_witness else None,
               "page_crosscheck_agrees": h3_agrees},
    }
    report.asserted = h1 and h3

    m_max = F.hi() + 1
    report.torsion_table = check_torsionfree_eta_m(ctx)
    torsion_check = CheckResult("torsion-free.eta-m-global")
    if h1:
        for (i, m), row in sorted(report.torsion_table.items()):
            torsion_check.expect(row["xi_torsion_free"], i=i, m=m,
                                 invariants=row["invariants"])
    report.checks.append(torsion_check)

    stationary = CheckResult("torsion-free.stage-stationarity")
    for x in F.site.elements:
        stationary.expect(is_stationary_stage(ctx, F.stalk(x), m_max), element=x, m=m_max)
    report.checks.append(stationary)

    total = ctx.sections(F)
    if h1:
        rho = reduction_iso_matrices(ctx)
        red = ctx.sections(ctx.reduced())
        omega_dims = {m: term_dims(ctx, m) for m in range(0, m_max + 1)}

    flag_check = CheckResult("main.flag-equality")
    graded_check = CheckResult("main.graded-dims")
    iso_check = CheckResult("main.reduction-identification")
    for i in total.degrees():
        entry = {"i": i}
        try:
            M = stage_lattice(ctx, i)
        except TorsionObstruction as exc:
            entry["torsion_obstruction"] = str(exc)
            report.flags[str(i)] = entry
            if report.asserted:
                flag_check.fail(i=i, reason=str(exc))
            continue
        bb = bb_filtration(M, F.hi())
        entry["relative_position"] = relative_position(bb)
        if h1:
            red_q = ctx.quotient(red, i)
            iso_check.expect(rho[i].rows == rho[i].cols
                             and bb.n == red_q.dim
                             and field_rank(rho[i]) == red_q.dim, i=i,
                             reason="reduction identification is not invertible",
                             free_rank=bb.n, reduced_dim=red_q.dim)
        img = image_flag(ctx, i, m_max)
        entry["bb_flag"] = bb.to_json()
        entry["image_flag"] = img.to_json()
        report.flags[str(i)] = entry
        if report.asserted:
            # move the lattice flag into H^i of the reduced sections
            moved = {m: Subspace.from_columns(rho[i] @ bb.subspace(m).matrix().transpose())
                     for m in range(bb.m_lo, bb.m_hi + 1)}
            bb_moved = Flag(red.ring, red_q.dim, moved)
            grades = {}
            for m in range(0, m_max + 1):
                if bb_moved.subspace(m) != img.subspace(m):
                    flag_check.fail(i=i, m=m, bb=bb_moved.subspace(m).to_json(),
                                    image=img.subspace(m).to_json())
                got = img.graded_dim(m)
                want = omega_dims[m].get(i, 0)
                grades[str(m)] = {"flag": got, "omega": want}
                graded_check.expect(got == want, i=i, m=m, flag=got, omega=want)
            report.graded[str(i)] = grades

    report.checks += [iso_check, flag_check, graded_check]

    # degeneration equivalence data rides along
    comp_check = CheckResult("degeneration.coker-comparison")
    if h1:
        for i in total.degrees():
            # both images lie in H^i(S, Omega^m[-m]), so they differ only where it is nonzero
            for m in [m for m, dims in omega_dims.items() if dims.get(i)]:
                coker_f, coker_g = compare_degeneration(ctx, i, m)
                if coker_f != coker_g:
                    comp_check.fail(i=i, m=m, coker_f=coker_f.to_json(), coker_g=coker_g.to_json())
    report.checks.append(comp_check)
    hdr_ok, hdr_wit = degeneration_check_HdR(ctx)
    equiv_check = CheckResult("degeneration.ht-vs-hdr")
    if h1:
        equiv_check.expect(h3 == hdr_ok, ht=h3, hdr=hdr_ok,
                           hdr_witness=list(hdr_wit) if hdr_wit else None)
    report.hypotheses["HdR-degenerate"] = {"holds": hdr_ok,
                                           "witness": list(hdr_wit) if hdr_wit else None}
    report.checks.append(equiv_check)
    return report
