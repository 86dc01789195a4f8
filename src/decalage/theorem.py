"""Lattices, the two-lattice flag, torsion-freeness tables, main comparison.

A lattice is xi^shift times the column span of a nonsingular matrix over R,
sitting inside the xi-inverted ambient space.  Only xi-valuations carry
meaning (primes away from xi act as units of the intended local model), so
relative position is read off the xi-valuations of the invariant factors of
the change-of-basis matrix after clearing the largest invariant factor of the
reference basis.

The flag of a lattice pair is increasing in m: the image of L ∩ xi^m L0 in
xi^m L0 / xi^{m+1} L0, zero for m small and full for m large, with jump
multiset equal to the relative position.  The main comparison identifies it,
for the pair coming from the decalage of a sheaf complex, with the image
filtration of the stages on the mod-xi cohomology, and matches graded
dimensions against the cohomology of the term sheaves.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bockstein import k_cohomology_quotient
from .checks import CheckResult
from .complexes import ChainMap, FreeComplex, cohomology_presentation
from .eta import is_stationary_stage
from .kmatrix import Subspace, field_rank
from .rmatrix import Matrix, image_basis, intersect_spans, snf, solve_exact
from .sites import (
    InstanceContext,
    SheafComplex,
)
from .spectral import (
    compare_degeneration,
    degeneration_check_HT,
    degeneration_check_HdR,
)


class SingularBasis(ValueError):
    """Lattice basis matrices must be nonsingular."""


class TorsionObstruction(ValueError):
    def __init__(self, degree, which):
        self.degree = degree
        self.which = which
        super().__init__(f"{which} cohomology has xi-torsion at degree {degree}")


class Lattice:
    """xi^shift * (column span of basis) inside the xi-inverted R^n."""

    __slots__ = ("n", "basis", "shift", "ambient")

    def __init__(self, basis: Matrix, shift: int = 0, ambient: str = "ambient"):
        if basis.rows != basis.cols:
            raise SingularBasis("lattice basis must be square")
        self.n = basis.rows
        self.basis = basis
        self.shift = shift
        self.ambient = ambient
        if self.n and snf(basis).rank != self.n:
            raise SingularBasis("lattice basis is singular")

    @classmethod
    def standard(cls, ring, n, ambient="ambient") -> "Lattice":
        return cls(Matrix.identity(ring, n), 0, ambient)

    def scaled(self, c: int) -> "Lattice":
        return Lattice(self.basis, self.shift + c, self.ambient)


def relative_position(L: Lattice, L0: Lattice) -> list:
    """xi-valuations of the elementary divisors of the pair, descending.

    Invariant under any basis change of either lattice that is invertible
    over the localization at xi.
    """
    if L.n != L0.n:
        raise SingularBasis("lattices of different rank")
    ring = L.basis.ring
    n = L.n
    if n == 0:
        return []
    # the largest invariant factor of L0 clears its inverse
    clear = snf(L0.basis).factors[-1]
    cleared = solve_exact(L0.basis, L.basis.scale(clear))
    if cleared is None:
        raise SingularBasis("could not clear the reference basis")
    res = snf(cleared)
    v0 = ring.xi_valuation(clear)
    vals = [int(ring.xi_valuation(f)) - int(v0) + (L.shift - L0.shift)
            for f in res.factors]
    return sorted(vals, reverse=True)


class Flag:
    """Increasing family of subspaces of k^n: zero for m << 0, full for m >> 0."""

    __slots__ = ("field", "n", "spaces", "m_lo", "m_hi")

    def __init__(self, field, n: int, spaces: dict):
        self.field = field
        self.n = n
        if spaces:
            self.m_lo = min(spaces)
            self.m_hi = max(spaces)
        else:
            self.m_lo, self.m_hi = 0, -1
        self.spaces = dict(spaces)
        prev = None
        for m in range(self.m_lo, self.m_hi + 1):
            cur = self.subspace(m)
            if prev is not None and not cur.contains_space(prev):
                raise ValueError(f"flag not increasing at m = {m}")
            prev = cur

    def subspace(self, m: int) -> Subspace:
        if m in self.spaces:
            return self.spaces[m]
        if m < self.m_lo:
            return Subspace(self.field, self.n)
        return Subspace.full(self.field, self.n) if self._stable_full() else self.spaces[self.m_hi]

    def _stable_full(self) -> bool:
        return self.spaces and self.spaces[self.m_hi].is_full()

    def dim(self, m: int) -> int:
        return self.subspace(m).dim

    def graded_dim(self, m: int) -> int:
        return self.dim(m) - self.dim(m - 1)

    def jumps(self) -> list:
        """Jump positions with multiplicity; their number equals n (if full)."""
        out = []
        for m in range(self.m_lo, self.m_hi + 1):
            out.extend([m] * self.graded_dim(m))
        return sorted(out, reverse=True)

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


def bb_filtration(L: Lattice, L0: Lattice) -> Flag:
    """The two-lattice flag in L0/xi*L0, untwisted degree by degree.

    The first lattice is scaled by a xi-power c so it sits inside the
    second (simultaneous scaling shifts the flag index exactly); the choice
    c = max(0, -min relative position) keeps the scaled basis integral,
    since any negative leftover is bounded by the gcd valuation of the
    entries.
    """
    if L.n != L0.n:
        raise SingularBasis("lattices of different rank")
    ring = L.basis.ring
    n = L.n
    kfield = ring.residue_field()
    if n == 0:
        return Flag(kfield, 0, {0: Subspace(kfield, 0)})
    mus = relative_position(L, L0)
    c = max(0, -min(mus))
    eff = c + (L.shift - L0.shift)
    ml = L.basis.xi_scale(eff) if eff >= 0 else L.basis.xi_divide(-eff)
    m0 = L0.basis
    spaces = {}
    top = max(mus) + c
    for m in range(0, top + 2):
        inter = intersect_spans(ml, m0.xi_scale(m))
        coords = solve_exact(m0, inter)
        if coords is None:
            raise SingularBasis("intersection escaped the reference lattice")
        reduced = coords.xi_divide(m).residue()
        spaces[m] = Subspace.from_columns(reduced)
    flag = Flag(kfield, n, spaces)
    if not flag.subspace(top + 1).is_full():
        raise ArithmeticError("flag failed to stabilize at full")
    return flag.shifted(-c)


# ---------------------------------------------------------------------------
# cohomology lattices of a sheaf complex


class FreeClassCoords:
    """Coordinates on the xi-local free quotient of H^i.

    Kills all torsion (prime-to-xi torsion is invisible to the lattice
    story, where those primes act as units); requires the xi-part to be
    trivial so nothing relevant is lost.
    """

    __slots__ = ("pres", "rank", "f", "_u", "_uinv")

    def __init__(self, pres):
        if not pres.module.xi_torsion_free:
            raise ValueError("cohomology has xi-torsion")
        res = snf(pres.relations)
        self.pres = pres
        self.rank = res.rank
        self.f = pres.gens_basis.cols - res.rank
        self._u = res.u
        self._uinv = res.uinv

    def coords(self, cocycles: Matrix) -> Matrix:
        """f x (cols) coordinates of cocycle columns."""
        y = self.pres.coords(cocycles)
        moved = self._u @ y
        return moved.submatrix(self.rank, moved.rows, 0, moved.cols)

    def basis_cocycles(self) -> Matrix:
        """Ambient cocycle representatives of the chosen H^i basis."""
        sel = self._uinv.take_columns(range(self.rank, self._uinv.cols))
        return self.pres.gens_basis @ sel


@dataclass
class LatticePairData:
    """The two lattices at degree i plus everything needed to map onward."""

    i: int
    L: Lattice
    L0: Lattice
    coords: FreeClassCoords
    total: FreeComplex
    stage_total: FreeComplex
    inclusion: ChainMap


def lattice_pair_from_complex(ctx: InstanceContext, i: int) -> LatticePairData:
    """L = image of H^i of the decalage stage, L0 = H^i of the sections of F.

    Both cohomologies must be xi-torsion-free (TorsionObstruction names the
    offender); coordinates are fixed by the presentation of H^i(sections).
    """
    ring = ctx.F.ring
    total, _ = ctx.sections()
    stage_total, _ = ctx.stage_sections(0)
    cm = ctx.stage_map(0)

    pres0 = cohomology_presentation(total, i)
    if not pres0.module.xi_torsion_free:
        raise TorsionObstruction(i, "ambient")
    pres1 = cohomology_presentation(stage_total, i)
    if not pres1.module.xi_torsion_free:
        raise TorsionObstruction(i, "stage")
    coords = FreeClassCoords(pres0)
    stage_coords = FreeClassCoords(pres1)
    mapped = coords.coords(cm.map(i) @ stage_coords.basis_cocycles())
    lbasis = image_basis(mapped)
    if lbasis.cols != coords.f:
        raise SingularBasis(f"stage lattice is not full rank at degree {i}")
    L = Lattice(lbasis, 0, ambient=f"H^{i}")
    L0 = Lattice.standard(ring, coords.f, ambient=f"H^{i}")
    return LatticePairData(i, L, L0, coords, total, stage_total, cm)


# ---------------------------------------------------------------------------
# torsion-freeness table and hypothesis checks


def check_torsionfree_eta_m(ctx: InstanceContext, m_max=None) -> dict:
    """FG invariants of H^i of the sections of every stage, with verdicts."""
    hi = ctx.F.hi()
    if m_max is None:
        m_max = hi + 1
    table = {}
    for m in range(0, m_max + 1):
        total, _ = ctx.stage_sections(m)
        for i in total.degrees():
            fg = cohomology_presentation(total, i).module
            table[(i, m)] = {
                "invariants": fg.describe(),
                "xi_torsion_free": fg.xi_torsion_free,
            }
    return table


def hypothesis_h1(ctx: InstanceContext) -> tuple:
    """All H^i of the sections xi-torsion-free; witness is the first failure."""
    total, _ = ctx.sections()
    for i in total.degrees():
        fg = cohomology_presentation(total, i).module
        if not fg.xi_torsion_free:
            return False, i
    return True, None


def reduction_iso_matrices(ctx: InstanceContext) -> dict:
    """Per-degree matrices H^i(sections of F) tensor k -> H^i(sections of F/xi).

    The sections complex reduces literally, so the right side is the
    cohomology of the residue of the total complex; the map reduces chosen
    basis cocycles.  Only meaningful (and an isomorphism) when H^i and
    H^{i+1} are torsion-free; callers check.
    """
    total, _ = ctx.sections()
    red, _ = ctx.reduced_sections()
    out = {}
    for i in total.degrees():
        pres = cohomology_presentation(total, i)
        if not pres.module.xi_torsion_free:
            out[i] = None
            continue
        hq = k_cohomology_quotient(red, i)
        out[i] = hq.coords_matrix(FreeClassCoords(pres).basis_cocycles().residue())
    return out


# ---------------------------------------------------------------------------
# the image filtration (the comparison's right-hand side)


def image_flag(ctx: InstanceContext, i: int, m_max: int) -> Flag:
    """Flag of images of H^i of the stage sections in H^i of sections of F/xi.

    Stage m maps by dividing its embedding by xi^m and reducing; the images
    increase with m and stabilize at the image of the full reduction.
    """
    bar_total, _ = ctx.reduced_sections()
    kfield = bar_total.ring
    target = k_cohomology_quotient(bar_total, i) if i in bar_total.degrees() else None
    dim_i = 0 if target is None else target.dim
    spaces = {}
    for m in range(0, m_max + 1):
        if dim_i == 0:
            spaces[m] = Subspace(kfield, 0)
            continue
        # generators of H^i of the stage sections over R, reduced mod xi
        stage_total, _ = ctx.stage_sections(m)
        gens = cohomology_presentation(stage_total, i).gens_basis.residue()
        pushed = ctx.stage_reduction(m).map(i) @ gens
        spaces[m] = Subspace.from_columns(target.coords_matrix(pushed))
    return Flag(kfield, dim_i, spaces)


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
    passed: bool = True

    def add_check(self, result: CheckResult) -> None:
        self.checks.append(result)
        if self.asserted and not result.passed:
            self.passed = False

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
    dimension identity against the term sheaves.  With a failed hypothesis
    the same data is returned unasserted.  All steps share one
    InstanceContext, dropped on return.
    """
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

    hi = F.hi()
    m_max = hi + 1
    report.torsion_table = check_torsionfree_eta_m(ctx, m_max)
    torsion_check = CheckResult("torsion-free.eta-m-global")
    for (i, m), row in sorted(report.torsion_table.items()):
        if h1:
            torsion_check.expect(row["xi_torsion_free"], i=i, m=m,
                                 invariants=row["invariants"])
    report.add_check(torsion_check)

    stationary = CheckResult("torsion-free.stage-stationarity")
    for x in F.site.elements:
        stationary.expect(is_stationary_stage(ctx.stalks[x], m_max), element=x, m=m_max)
    report.add_check(stationary)

    total, _ = ctx.sections()
    rho = reduction_iso_matrices(ctx)
    red, _ = ctx.reduced_sections()

    flag_check = CheckResult("main.flag-equality")
    graded_check = CheckResult("main.graded-dims")
    iso_check = CheckResult("main.reduction-identification")

    # graded target dimensions: H^{i-m}(S, Omega^m-avatar)
    omega_dims = {}
    for m in range(0, m_max + 1):
        av_total, _ = ctx.term_sections(m, place_at=0)
        omega_dims[m] = {p: k_cohomology_quotient(av_total, p).dim
                         for p in av_total.degrees()}

    for i in total.degrees():
        red_q = k_cohomology_quotient(red, i)
        entry = {"i": i}
        try:
            pair = lattice_pair_from_complex(ctx, i)
        except TorsionObstruction as exc:
            entry["torsion_obstruction"] = str(exc)
            report.flags[str(i)] = entry
            if report.asserted:
                flag_check.fail(i=i, reason=str(exc))
            continue
        bb = bb_filtration(pair.L, pair.L0)
        rel = relative_position(pair.L, pair.L0)
        entry["relative_position"] = rel
        # move the lattice flag into H^i of the reduced sections
        if rho.get(i) is not None and red_q.dim == rho[i].rows:
            moved = {}
            for m in range(bb.m_lo, bb.m_hi + 1):
                mat = rho[i] @ bb.subspace(m).matrix().transpose()
                moved[m] = Subspace.from_columns(mat)
            bb_moved = Flag(red.ring, red_q.dim, moved) if moved else Flag(
                red.ring, red_q.dim, {0: Subspace(red.ring, red_q.dim)})
            if h1:
                iso_check.expect(rho[i].rows == rho[i].cols
                                 and bb.n == red_q.dim
                                 and field_rank(rho[i]) == red_q.dim, i=i,
                                 reason="reduction identification is not invertible",
                                 free_rank=bb.n, reduced_dim=red_q.dim)
        else:
            bb_moved = None
        img = image_flag(ctx, i, m_max)
        entry["bb_flag"] = bb.to_json()
        entry["image_flag"] = img.to_json()
        report.flags[str(i)] = entry
        if report.asserted and bb_moved is not None:
            window = range(0, m_max + 1)
            for m in window:
                flag_check.expect(
                    bb_moved.subspace(m) == img.subspace(m), i=i, m=m,
                    bb=bb_moved.subspace(m).to_json(), image=img.subspace(m).to_json(),
                )
            grades = {}
            for m in window:
                got = img.graded_dim(m)
                want = omega_dims.get(m, {}).get(i - m, 0)
                grades[str(m)] = {"flag": got, "omega": want}
                graded_check.expect(got == want, i=i, m=m, flag=got, omega=want)
            report.graded[str(i)] = grades

    report.add_check(iso_check)
    report.add_check(flag_check)
    report.add_check(graded_check)

    # degeneration equivalence data rides along
    comp_check = CheckResult("degeneration.coker-comparison")
    for i in total.degrees():
        for m in range(0, m_max + 1):
            rec = compare_degeneration(ctx, i, m, h1_holds=h1)
            if h1:
                comp_check.expect(rec.equal, i=i, m=m,
                                  coker_f=rec.coker_f.to_json(),
                                  coker_g=rec.coker_g.to_json())
    report.add_check(comp_check)
    hdr_ok, hdr_wit = degeneration_check_HdR(ctx)
    equiv_check = CheckResult("degeneration.ht-vs-hdr")
    if h1:
        equiv_check.expect(h3 == hdr_ok, ht=h3, hdr=hdr_ok,
                           hdr_witness=list(hdr_wit) if hdr_wit else None)
    report.hypotheses["HdR-degenerate"] = {"holds": hdr_ok,
                                           "witness": list(hdr_wit) if hdr_wit else None}
    report.add_check(equiv_check)
    return report
