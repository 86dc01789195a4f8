"""Filtered complexes over the residue field and their spectral sequences.

Pages are computed from the closed-form cycle/boundary subquotients

    Z_r(p, n) = F_p C^n  ∩  d^{-1}(F_{p+r} C^{n+1})
    E_r(p, q) = Z_r(p, n) / ( Z_{r-1}(p+1, n) + d Z_{r-1}(p-r+1, n-1) ),

with n = p + q, entirely in exact linear algebra over k.  A filtered complex
builds each Z_r(p, n) once, with one kernel computation, and every entry and
page after that reuses it; the store lives on the filtered complex, which
each spectral-sequence call builds and drops.  Two spectral sequences are
packaged: the truncation-filtration one on the global sections of K/xi
(reported with its customary page numbering, starting at 2) and the
Hodge-filtration one on the global sections of the objectwise Bockstein
complex (starting at 1).  Degeneration detectors and the cokernel-comparison
record live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bockstein import k_cohomology_quotient
from .complexes import ChainMap, FreeComplex
from .kmatrix import QuotientSpace, Subspace, kernel_cols
from .rmatrix import Matrix
from .sites import (
    InstanceContext,
    SheafMap,
    global_sections_complex,
    global_sections_map,
)


class HypothesisH1Failed(ValueError):
    """Some H^i of the global sections of K has xi-torsion."""

    def __init__(self, witness_degree):
        self.witness_degree = witness_degree
        super().__init__(f"H^{witness_degree} of the global sections has xi-torsion")


def k_induced_matrix(cm: ChainMap, i: int, src_q=None, tgt_q=None) -> Matrix:
    """Induced map on degree-i cohomology of a chain map over a field."""
    src_q = src_q or k_cohomology_quotient(cm.source, i)
    tgt_q = tgt_q or k_cohomology_quotient(cm.target, i)
    return tgt_q.coords_matrix(cm.map(i) @ src_q.rep_matrix())


class FilteredComplex:
    """A decreasing, exhaustive, bounded filtration by subspaces per degree.

    ``pieces[p][n]`` is the subspace F_p C^n; p runs over [p_min, p_max] with
    F_{p_min} the whole complex and F_{p_max+1} = 0.  Validated: each F_p is
    d-stable and F_{p+1} <= F_p degreewise.  The images d(F_p C^n) and the
    spaces Z_r(p, n) are kept on the object as they are first built.
    """

    __slots__ = ("ambient", "field", "p_min", "p_max", "pieces", "_d_images",
                 "_z_spaces")

    def __init__(self, ambient: FreeComplex, pieces: dict):
        self.ambient = ambient
        self.field = ambient.ring
        if not self.field.is_field:
            raise ValueError("filtered complexes live over the residue field")
        self.p_min = min(pieces)
        self.p_max = max(pieces)
        self.pieces = pieces
        self._d_images = {}
        self._z_spaces = {}

    @classmethod
    def from_inclusions(cls, ambient: FreeComplex, inclusions: dict) -> "FilteredComplex":
        """inclusions: p -> ChainMap into ambient (decreasing in p)."""
        pieces = {}
        for p, cm in inclusions.items():
            level = {}
            for n in ambient.degrees():
                level[n] = Subspace.from_columns(cm.map(n))
            pieces[p] = level
        return cls(ambient, pieces)

    def subspace(self, p: int, n: int) -> Subspace:
        if n < self.ambient.lo or n > self.ambient.hi:
            return Subspace(self.field, max(self.ambient.rank(n), 0))
        if p < self.p_min:
            return Subspace.full(self.field, self.ambient.rank(n))
        if p > self.p_max:
            return Subspace(self.field, self.ambient.rank(n))
        return self.pieces[p][n]

    def validate(self) -> None:
        for p in range(self.p_min, self.p_max + 1):
            for n in self.ambient.degrees():
                here = self.subspace(p, n)
                finer = self.subspace(p + 1, n)
                if not here.contains_space(finer):
                    raise ValueError(f"filtration not nested at (p, n) = {(p, n)}")
                image = Subspace.from_columns(self.d_image(p, n))
                if not self.subspace(p, n + 1).contains_space(image):
                    raise ValueError(f"filtration not d-stable at (p, n) = {(p, n)}")

    # -- page machinery -----------------------------------------------------

    def d_image(self, p: int, n: int) -> Matrix:
        """d applied to the basis of F_p C^n, one column per basis vector."""
        key = (p, n)
        if key not in self._d_images:
            basis = self.subspace(p, n).matrix().transpose()
            self._d_images[key] = self.ambient.d(n) @ basis
        return self._d_images[key]

    def z_space(self, r: int, p: int, n: int) -> Subspace:
        """Z_r(p, n) = F_p C^n ∩ d^{-1}(F_{p+r} C^{n+1}).

        With B_p the matrix whose columns are the basis of F_p, one kernel of
        [d B_p | B_{p+r}] has an x-part that, mapped back through B_p, spans
        the intersection.
        """
        # F_p is the whole complex below p_min and zero above p_max
        src = min(max(p, self.p_min - 1), self.p_max + 1)
        tgt = min(max(p + r, self.p_min - 1), self.p_max + 1)
        fp = self.subspace(src, n)
        if tgt <= src:
            return fp  # F_{p+r} contains F_p, which is d-stable
        key = (src, tgt, n)
        if key not in self._z_spaces:
            bound = self.subspace(tgt, n + 1)
            if fp.dim == 0 or bound.is_full():
                z = fp
            else:
                ker = kernel_cols(self.d_image(src, n).hstack(bound.matrix().transpose()))
                xpart = ker.submatrix(0, fp.dim, 0, ker.cols)
                z = Subspace.from_columns(fp.matrix().transpose() @ xpart)
            self._z_spaces[key] = z
        return self._z_spaces[key]

    def entry(self, r: int, p: int, q: int) -> QuotientSpace:
        n = p + q
        num = self.z_space(r, p, n)
        prev = self.z_space(r - 1, p - r + 1, n - 1)
        boundaries = self.ambient.d(n - 1) @ prev.matrix().transpose()
        den = list(self.z_space(r - 1, p + 1, n).basis) + boundaries.columns()
        return QuotientSpace(
            self.field, max(self.ambient.rank(n), 0), list(num.basis), den
        )

    def abutment_graded_dims(self, n: int) -> dict:
        """dim gr_p of the induced filtration on H^n(ambient).

        F_p H^n is the image of H^n of the p-th subcomplex, computed as
        (F_p ∩ ker d + boundaries) / boundaries.
        """
        hq = k_cohomology_quotient(self.ambient, n)
        ker = Subspace.from_columns(kernel_cols(self.ambient.d(n)))
        fdims = {}
        for p in range(self.p_min, self.p_max + 2):
            zn = self.subspace(p, n).intersect(ker)
            fdims[p] = zn.add(hq.bspace).dim - hq.bspace.dim
        return {p: fdims[p] - fdims[p + 1] for p in range(self.p_min, self.p_max + 1)}


@dataclass
class SSPage:
    """One page: dimensions and differentials, in the reported labels."""

    r: int
    entries: dict = field(default_factory=dict)
    differentials: dict = field(default_factory=dict)

    def dim(self, p, q) -> int:
        return self.entries.get((p, q), 0)

    def all_differentials_vanish(self) -> bool:
        return all(m.is_zero() for m in self.differentials.values())

    def to_json(self) -> dict:
        ent = [
            {"p": p, "q": q, "dim": d}
            for (p, q), d in sorted(self.entries.items())
        ]
        diffs = [
            {
                "p": p,
                "q": q,
                "matrix": [[m.ring.format(x) for x in row] for row in m.data],
                "shape": [m.rows, m.cols],
            }
            for (p, q), m in sorted(self.differentials.items())
            if m.rows and m.cols
        ]
        return {"r": self.r, "entries": ent, "differentials": diffs}


def ss_pages(fc: FilteredComplex, r_max: int, label_shift: int = 0,
             relabel=None) -> list:
    """Pages r = 1 .. r_max of the filtration spectral sequence.

    ``label_shift`` adds to the reported page number; ``relabel(p, q)``
    rewrites entry coordinates (used for the truncation reindexing).
    """
    pages = []
    span_p = range(fc.p_min, fc.p_max + 1)
    for r in range(1, r_max + 1):
        page = SSPage(r + label_shift)
        cells = {}
        for p in span_p:
            for n in fc.ambient.degrees():
                q = n - p
                cell = fc.entry(r, p, q)
                if cell.dim:
                    cells[(p, q)] = cell
                    lp, lq = (p, q) if relabel is None else relabel(p, q)
                    page.entries[(lp, lq)] = cell.dim
        for (p, q), cell in cells.items():
            tgt = cells.get((p + r, q - r + 1))
            if tgt is None:
                mat = Matrix.zeros(fc.field, 0, cell.dim)
            else:
                mat = tgt.coords_matrix(fc.ambient.d(p + q) @ cell.rep_matrix())
            lp, lq = (p, q) if relabel is None else relabel(p, q)
            page.differentials[(lp, lq)] = mat
        pages.append(page)
    return pages


# ---------------------------------------------------------------------------
# the two spectral sequences of the engine


def ht_spectral_sequence(ctx: InstanceContext, r_max: int = 4):
    """Pages of the truncation-filtration spectral sequence, labeled from 2.

    Entries are reported as (p, q) with E_2^{p,q} = H^p(S, H^q(K/xi)-sheaf),
    abutting to H^{p+q} of the global sections of K/xi.
    """
    total, _ = ctx.reduced_sections()
    q_min, q_max = ctx.reduced().lo(), ctx.reduced().hi()
    # decreasing filtration on RGamma(K/xi) from the truncation levels: p = q_max - q
    inclusions = {q_max - q: ctx.truncation_map(q) for q in range(q_min, q_max + 1)}
    fc = FilteredComplex.from_inclusions(total, inclusions)

    def relabel(p, q):
        s = q_max - p          # truncation level = sheaf degree
        n = p + q              # total degree
        return (n - s, s)

    pages = ss_pages(fc, r_max, label_shift=1, relabel=relabel)
    return pages, fc, total


def ht_e2_crosscheck(ctx: InstanceContext, pages) -> list:
    """Recompute every E_2 entry as H^p(S, H^q-sheaf); returns mismatches."""
    first = pages[0]
    mismatches = []
    covered = set()
    Fbar = ctx.reduced()
    for q in range(Fbar.lo(), Fbar.hi() + 1):
        av_total, _ = ctx.term_sections(q, place_at=0)
        for p in av_total.degrees():
            want = k_cohomology_quotient(av_total, p).dim
            got = first.dim(p, q)
            covered.add((p, q))
            if got != want:
                mismatches.append({"p": p, "q": q, "page": got, "direct": want})
    for (p, q), d in first.entries.items():
        if (p, q) not in covered and d:
            mismatches.append({"p": p, "q": q, "page": d, "direct": 0})
    return mismatches


def hdr_spectral_sequence(ctx: InstanceContext, r_max: int = 4):
    """Hodge-filtration spectral sequence of the Bockstein sheaf, labeled from 1.

    E_1^{p,q} = H^q(S, degree-p term), abutting to the cohomology of the
    global sections of the Bockstein sheaf complex.
    """
    omega, _ = ctx.bockstein()
    total, idx = global_sections_complex(omega)
    inclusions = {}
    for p in range(omega.lo(), omega.hi() + 1):
        _, incl = ctx.hodge(p)
        sub_total, sub_idx = ctx.hodge_sections(p)
        inclusions[p] = global_sections_map(incl, sub_idx, idx, sub_total, total)
    fc = FilteredComplex.from_inclusions(total, inclusions)
    pages = ss_pages(fc, r_max)
    return pages, fc, total


# ---------------------------------------------------------------------------
# degeneration checks


def degeneration_check_HT(ctx: InstanceContext, r_max: int = 4):
    """Injectivity of every truncation-level map on cohomology.

    Returns (verdict, witness, crosscheck_agrees): witness is the first
    failing (i, m); crosscheck compares with vanishing of all reported HT
    differentials from page 2 on.
    """
    Fbar = ctx.reduced()
    total, _ = ctx.reduced_sections()
    verdict = True
    witness = None
    for m in range(Fbar.lo(), Fbar.hi() + 1):
        sub_total, _ = ctx.truncation_sections(m)
        cm = ctx.truncation_map(m)
        for i in total.degrees():
            src_q = k_cohomology_quotient(sub_total, i)
            if src_q.dim == 0:
                continue
            mat = k_induced_matrix(cm, i, src_q=src_q)
            if kernel_cols(mat).cols != 0:
                verdict = False
                if witness is None:
                    witness = (i, m)
    pages, _, _ = ht_spectral_sequence(ctx, r_max=r_max)
    pages_vanish = all(p.all_differentials_vanish() for p in pages)
    return verdict, witness, pages_vanish == verdict


def degeneration_check_HdR(ctx: InstanceContext, r_max: int = 4):
    """All differentials vanish on every Hodge-filtration page from 1 on."""
    pages, fc, total = hdr_spectral_sequence(ctx, r_max=r_max)
    for page in pages:
        for (p, q), mat in sorted(page.differentials.items()):
            if not mat.is_zero():
                return False, (page.r, p, q)
    return True, None


@dataclass
class CokernelComparison:
    """Images of the truncation-side and Hodge-side maps into H^{i-m}(S, Omega^m)."""

    i: int
    m: int
    ambient_dim: int
    coker_f: Subspace
    coker_g: Subspace
    equal: bool
    h1_holds: bool


def cokernel_maps(ctx: InstanceContext, m: int):
    """Sections of Omega^m[-m] with the truncation-side and Hodge-side maps into them."""
    F = ctx.F
    avatar = ctx.term(m, place_at=m)
    av_total, av_idx = ctx.term_sections(m, place_at=m)

    tau, tau_incl = ctx.truncation(m)
    _, bcs = ctx.bockstein()
    maps = {}
    for x in F.site.elements:
        stalk = tau.stalk(x)
        zbasis = tau_incl.map(x).map(m)
        qx = bcs[x].quotients.get(m)
        mat = (qx.coords_matrix(zbasis) if qx is not None
               else Matrix.zeros(avatar.ring, 0, zbasis.cols))
        maps[x] = ChainMap(stalk, avatar.stalk(x), {m: mat})
    qmap = SheafMap(tau, avatar, maps)
    tau_total, tau_idx = ctx.truncation_sections(m)
    cm_f = global_sections_map(qmap, tau_idx, av_idx, tau_total, av_total)
    cm_f.validate()

    hodge, _ = ctx.hodge(m)
    maps_g = {
        x: ChainMap(hodge.stalk(x), avatar.stalk(x),
                    {m: Matrix.identity(avatar.ring, hodge.stalk(x).rank(m))})
        for x in F.site.elements
    }
    gmap = SheafMap(hodge, avatar, maps_g)
    hodge_total, hodge_idx = ctx.hodge_sections(m)
    cm_g = global_sections_map(gmap, hodge_idx, av_idx, hodge_total, av_total)
    cm_g.validate()
    return av_total, cm_f, cm_g


def compare_degeneration(ctx: InstanceContext, i: int, m: int, h1_holds: bool,
                         require_h1: bool = False) -> CokernelComparison:
    """Both cokernel images inside H^i(RGamma(S, Omega^m[-m])), compared.

    The truncation side maps tau_{<=m}(K/xi) onto its top cohomology sheaf;
    the Hodge side projects the degree >= m part of the Bockstein sheaf onto
    its degree-m term.  Under the torsion-freeness hypothesis the two images
    agree; without it the record is returned for inspection.
    """
    if require_h1 and not h1_holds:
        raise HypothesisH1Failed(i)
    av_total, cm_f, cm_g = ctx.once(("cokernel-maps", m), cokernel_maps, ctx, m)
    av_q = k_cohomology_quotient(av_total, i)
    mat_f = k_induced_matrix(cm_f, i, tgt_q=av_q)
    coker_f = Subspace.from_columns(mat_f)
    mat_g = k_induced_matrix(cm_g, i, tgt_q=av_q)
    coker_g = Subspace.from_columns(mat_g)
    return CokernelComparison(
        i, m, av_q.dim, coker_f, coker_g, coker_f == coker_g, h1_holds
    )
