"""Filtered complexes over the residue field and their spectral sequences.

A filtered complex is held as its adapted form: per degree, a basis listed
highest filtration level first, and d in those bases.  The degeneration
checks read their verdicts off the persistence pairs of that form and build
no page.  The pages that ``ss`` prints come from the closed-form subquotients

    Z_r(p, n) = F_p C^n  ∩  d^{-1}(F_{p+r} C^{n+1})
    E_r(p, q) = Z_r(p, n) / ( Z_{r-1}(p+1, n) + d Z_{r-1}(p-r+1, n-1) ),

with n = p + q, in exact linear algebra over k; each Z_r(p, n) is one
corner-block kernel of the adapted d.  A filtered complex builds each
Z_r(p, n) and each distinct cell E_r(p, q) once; the stores live on the
filtered complex, which each spectral-sequence call builds and drops.  Two
spectral sequences are packaged: the truncation-filtration one on the global
sections of K/xi (reported with its customary page numbering, starting at 2)
and the Hodge-filtration one on the global sections of the objectwise
Bockstein complex (starting at 1).  Degeneration detectors and the
cokernel comparison live here as well.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .bockstein import k_induced_matrix
from .complexes import ChainMap, FreeComplex
from .kmatrix import QuotientSpace, Subspace, column_lows, field_rank, kernel, solve_field
from .rmatrix import Matrix
from .sites import InstanceContext, SheafMap


class FilteredComplex:
    """A decreasing, exhaustive, bounded filtration, held as its adapted form.

    ``inclusions`` maps p to the inclusion of F_p, decreasing in p, with
    F_{p_min} the whole complex and F_{p_max+1} = 0; each F_p must be a
    subcomplex.  In the adapted basis F_p C^n is a leading run of columns, so
    every Z_r(p, n) is one corner-block kernel of d.  The spaces Z_r(p, n) and
    the cells E_r(p, q) are kept on the object as they are first built.
    """

    __slots__ = ("ambient", "field", "p_min", "p_max", "form", "_z_spaces", "_cells")

    def __init__(self, ambient: FreeComplex, inclusions: dict):
        self.ambient = ambient
        self.field = ambient.ring
        if not self.field.is_field:
            raise ValueError("filtered complexes live over the residue field")
        self.p_min = min(inclusions)
        self.p_max = max(inclusions)
        self.form = adapted_form(ambient, inclusions)
        self._z_spaces = {}
        self._cells = {}

    def _count(self, n: int, p: int) -> int:
        """The number of degree-n adapted basis vectors of level >= p."""
        levels = self.form[n][0] if n in self.form else ()
        return sum(1 for level in levels if level >= p)

    # -- page machinery -----------------------------------------------------

    def z_space(self, r: int, p: int, n: int) -> Subspace:
        """Z_r(p, n) = F_p C^n ∩ d^{-1}(F_{p+r} C^{n+1}).

        F_p C^n is spanned by the first c basis vectors B_n[:, :c] and
        F_{p+r} C^{n+1} by the first ρ in degree n + 1, so Z_r(p, n) is
        B_n[:, :c] · ker(D_n[ρ:, :c]).  For r <= 0 it is F_p C^n itself, which
        is d-stable.
        """
        c = self._count(n, p)
        rows = self.ambient.rank(n + 1)
        rho = rows if r <= 0 else self._count(n + 1, p + r)
        key = (n, c, rho)
        if key not in self._z_spaces:
            if c == 0:
                z = Subspace(self.field, self.ambient.rank(n))
            else:
                _, basis, d = self.form[n]
                span = basis.submatrix(0, basis.rows, 0, c)
                if rho < rows:
                    span = span @ kernel(d.submatrix(rho, rows, 0, c)).matrix().transpose()
                z = Subspace.from_columns(span)
            self._z_spaces[key] = z
        return self._z_spaces[key]

    def entry(self, r: int, p: int, q: int) -> QuotientSpace:
        """E_r(p, q), one quotient per distinct cell.

        The cell depends only on n = p + q and the three cycle spaces below,
        so once the pages settle a later page reuses the earlier quotients.
        """
        n = p + q
        num = self.z_space(r, p, n)
        prev = self.z_space(r - 1, p - r + 1, n - 1)
        finer = self.z_space(r - 1, p + 1, n)
        key = (n, num, prev, finer)
        cell = self._cells.get(key)
        if cell is None:
            boundaries = self.ambient.d(n - 1) @ prev.matrix().transpose()
            den = finer.matrix().transpose().hstack(boundaries)
            cell = self._cells[key] = QuotientSpace(num, den)
        return cell


@dataclass
class SSPage:
    """One page: dimensions and differentials, in the reported labels."""

    r: int
    entries: dict = field(default_factory=dict)
    differentials: dict = field(default_factory=dict)

    def dim(self, p, q) -> int:
        return self.entries.get((p, q), 0)

    def to_json(self) -> dict:
        ent = [
            {"p": p, "q": q, "dim": d}
            for (p, q), d in sorted(self.entries.items())
        ]
        diffs = [
            {
                "p": p,
                "q": q,
                "matrix": m.to_json(),
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


def adapted_form(ambient: FreeComplex, inclusions: dict) -> dict:
    """n -> (levels, basis, d): a filtered complex in a basis adapted to its filtration.

    ``inclusions`` maps p to the inclusion of F_p, decreasing in p, with
    F_{p_min} the whole complex.  The degree-n basis lists its vectors highest
    level first, ``levels`` giving each one's level, so F_p C^n is spanned by
    a leading run of columns; ``d`` is d(n) in the degree-n and degree-(n+1)
    bases.
    """
    adapted = {}
    for n in ambient.degrees():
        levels, stacked = [], Matrix.zeros(ambient.ring, ambient.rank(n), 0)
        for p in sorted(inclusions, reverse=True):
            levels += [p] * inclusions[p].map(n).cols
            stacked = stacked.hstack(inclusions[p].map(n))
        # a column has a low exactly when it lies outside the span of those before it
        kept = [j for j, low in enumerate(column_lows(stacked)) if low is not None]
        if len(kept) != ambient.rank(n):
            raise ValueError("the lowest filtration piece is not the whole complex")
        adapted[n] = ([levels[j] for j in kept], stacked.take_columns(kept))
    # d out of the top degree is the empty matrix in any basis
    return {n: (levels, basis, solve_field(adapted[n + 1][1], ambient.d(n) @ basis)
                if n < ambient.hi else ambient.d(n))
            for n, (levels, basis) in adapted.items()}


def persistence_pairs(ambient: FreeComplex, inclusions: dict) -> list:
    """The persistence pairs (p_src, n, p_tgt) of a filtered complex.

    In the adapted form, rows and columns ordered highest level first, a
    column of d (level p, degree n) with a low pairs with it: the least last
    nonzero row (level p + r) over the column plus the span of the columns
    before it, as :func:`column_lows` reads it.  So d_r out of E_r(p, n - p)
    has rank the number of pairs with gap r from (p, n), and E_r(p, n - p)
    counts the level-p, degree-n basis vectors unpaired or paired with gap at
    least r.
    """
    form = adapted_form(ambient, inclusions)
    pairs = []
    for n, (levels, _, d) in form.items():
        for j, low in enumerate(column_lows(d)):
            if low is not None:
                pairs.append((levels[j], n, form[n + 1][0][low]))
    return pairs


# ---------------------------------------------------------------------------
# the two spectral sequences of the engine


def ht_inclusions(ctx: InstanceContext) -> tuple:
    """The truncation filtration: (sections of K/xi, p -> inclusion of F_p).

    Truncation level q gives the piece at p = q_max - q, decreasing in p.
    """
    Fbar = ctx.reduced()
    q_max = Fbar.hi()
    return ctx.sections(Fbar), {q_max - q: ctx.sections_map(ctx.truncation_sheaf(q))
                                for q in range(Fbar.lo(), q_max + 1)}


def ht_spectral_sequence(ctx: InstanceContext, r_max: int = 4) -> list:
    """Pages of the truncation-filtration spectral sequence, labeled from 2.

    Entries are reported as (p, q) with E_2^{p,q} = H^p(S, H^q(K/xi)-sheaf),
    abutting to H^{p+q} of the global sections of K/xi.
    """
    q_max = ctx.reduced().hi()

    def relabel(p, q):
        s = q_max - p          # truncation level = sheaf degree
        n = p + q              # total degree
        return (n - s, s)

    fc = FilteredComplex(*ht_inclusions(ctx))
    return ss_pages(fc, r_max, label_shift=1, relabel=relabel)


def term_dims(ctx: InstanceContext, q: int) -> dict:
    """n -> dim H^n(S, Omega^q[-q]), on the degrees of the term sheaf's sections.

    The one table of these dimensions: E_2^{n-q,q} for ``ht_e2_crosscheck``,
    and for ``verify_main_theorem`` the graded targets and the space of the
    cokernel comparison at (n, q).  A degree off the map has dimension 0.
    """
    total = ctx.sections(ctx.term(q))
    return {n: ctx.quotient(total, n).dim for n in total.degrees()}


def ht_e2_crosscheck(ctx: InstanceContext, pages) -> list:
    """Recompute every E_2 entry as H^p(S, H^q-sheaf); returns mismatches.

    The direct side of entry (p, q) is ``term_dims(ctx, q)`` at p + q.
    """
    first = pages[0]
    mismatches = []
    covered = set()
    Fbar = ctx.reduced()
    for q in range(Fbar.lo(), Fbar.hi() + 1):
        for n, want in term_dims(ctx, q).items():
            p = n - q
            got = first.dim(p, q)
            covered.add((p, q))
            if got != want:
                mismatches.append({"p": p, "q": q, "page": got, "direct": want})
    for (p, q), d in first.entries.items():
        if (p, q) not in covered and d:
            mismatches.append({"p": p, "q": q, "page": d, "direct": 0})
    return mismatches


def hdr_inclusions(ctx: InstanceContext) -> tuple:
    """The Hodge filtration: (sections of the Bockstein sheaf, p -> inclusion of F_p)."""
    omega = ctx.bockstein_sheaf()
    return ctx.sections(omega), {p: ctx.sections_map(ctx.hodge_sheaf(p))
                                 for p in range(omega.lo(), omega.hi() + 1)}


def hdr_spectral_sequence(ctx: InstanceContext, r_max: int = 4) -> list:
    """Hodge-filtration spectral sequence of the Bockstein sheaf, labeled from 1.

    E_1^{p,q} = H^q(S, degree-p term), abutting to the cohomology of the
    global sections of the Bockstein sheaf complex.
    """
    return ss_pages(FilteredComplex(*hdr_inclusions(ctx)), r_max)


# ---------------------------------------------------------------------------
# degeneration checks


def degeneration_check_HT(ctx: InstanceContext):
    """Injectivity of every truncation-level map on cohomology.

    Returns (verdict, witness, crosscheck_agrees): witness is the first
    failing (i, m), at which the check returns; the crosscheck, computed
    first from every persistence pair, compares with vanishing of every HT
    d_r with 1 <= r <= 4 (reported pages 2 to 5), that is, with no
    persistence pair of the truncation filtration spanning 1 to 4 steps.
    """
    pages_vanish = not any(1 <= t - s <= 4 for s, _, t in persistence_pairs(*ht_inclusions(ctx)))
    Fbar = ctx.reduced()
    total = ctx.sections(Fbar)
    for m in range(Fbar.lo(), Fbar.hi() + 1):
        cm = ctx.sections_map(ctx.truncation_sheaf(m))
        for i in total.degrees():
            # injective when the induced matrix has full column rank
            dim = ctx.quotient(cm.source, i).dim
            if dim and field_rank(k_induced_matrix(ctx, cm, i)) < dim:
                return False, (i, m), not pages_vanish
    return True, None, pages_vanish


def degeneration_check_HdR(ctx: InstanceContext):
    """All differentials vanish on Hodge-filtration pages 1 to 4.

    The witness is the least (r, p, q) with a persistence pair of gap r
    leaving (p, q), 1 <= r <= 4: the first nonzero d_r in page order.
    """
    pairs = persistence_pairs(*hdr_inclusions(ctx))
    witness = min(((t - s, s, n - s) for s, n, t in pairs if 1 <= t - s <= 4), default=None)
    return witness is None, witness


def cokernel_maps(ctx: InstanceContext, m: int):
    """The truncation-side and Hodge-side maps into the sections of Omega^m[-m].

    Both are chain maps by construction, so neither is checked again.
    """
    F = ctx.F
    avatar = ctx.term(m)
    tau_incl = ctx.truncation_sheaf(m)
    tau = tau_incl.source
    maps = {}
    for x in F.site.elements:
        mat = ctx.quotient(ctx.kbar(F.stalk(x)), m).coords_matrix(tau_incl.map(x).map(m))
        maps[x] = ChainMap(tau.stalk(x), avatar.stalk(x), {m: mat})
    cm_f = ctx.sections_map(SheafMap(tau, avatar, maps))

    hodge = ctx.hodge_sheaf(m).source
    maps_g = {
        x: ChainMap(hodge.stalk(x), avatar.stalk(x),
                    {m: Matrix.identity(avatar.ring, hodge.stalk(x).rank(m))})
        for x in F.site.elements
    }
    return cm_f, ctx.sections_map(SheafMap(hodge, avatar, maps_g))


def compare_degeneration(ctx: InstanceContext, i: int, m: int) -> tuple:
    """Both cokernel images inside H^i(RGamma(S, Omega^m[-m])), as (coker_f, coker_g).

    The truncation side maps tau_{<=m}(K/xi) onto its top cohomology sheaf;
    the Hodge side projects the degree >= m part of the Bockstein sheaf onto
    its degree-m term.  Under the torsion-freeness hypothesis the two images
    are equal; without it the pair is returned for inspection.  Both live in
    a space of dimension ``term_dims(ctx, m).get(i, 0)``, and where that is
    zero they are equal, so ``verify_main_theorem`` asks nowhere else.
    """
    cm_f, cm_g = ctx.once(("cokernel-maps", m), cokernel_maps, ctx, m)
    return (Subspace.from_columns(k_induced_matrix(ctx, cm_f, i)),
            Subspace.from_columns(k_induced_matrix(ctx, cm_g, i)))
