"""Two closed surfaces, whose cohomology topology gives in closed form.

The 6-vertex RP^2 and the 7-vertex torus enter as their face posets, ordered
by inclusion.  The order complex of a face poset is the barycentric
subdivision of the surface, so the constant sheaf R in degree 0 has the
cohomology of the surface with coefficients in R:

- H^*(RP^2; Z) = Z, 0, Z/2 and H^*(T^2; Z) = Z, Z^2, Z.
- Over R = Z or F_5[t], which are torsion-free over Z, H^n(X; R) is
  H^n(X; Z) tensored with R.  The torsion order 2 is a unit of F_5[t].
- Over the residue field k, the universal coefficient theorem gives
  dim H^n(X; k) = dim H^n(X; Z) (x) k + dim Tor(H^{n+1}(X; Z), k).

These check the torsion table, hypothesis H1 with its witness, the theorem
report, and the E_2 page of the truncation spectral sequence, which for a
sheaf in degree 0 is H^p(X; k) in row q = 0.
"""

from itertools import combinations

import pytest

from decalage.complexes import FreeComplex
from decalage.rings import IntegerRing, PolynomialRing, PrimeField
from decalage.sites import InstanceContext, PosetSite, SheafComplex
from decalage.spectral import ht_e2_crosscheck, ht_spectral_sequence
from decalage.theorem import check_torsionfree_eta_m, hypothesis_h1, verify_main_theorem


def face_poset(facets) -> PosetSite:
    """The nonempty faces of a simplicial complex given by its facets, by inclusion."""
    faces = {frozenset(s) for f in facets for k in range(1, len(f) + 1)
             for s in combinations(f, k)}

    def name(face):
        return "".join(map(str, sorted(face)))

    return PosetSite([name(s) for s in faces],
                     [(name(a), name(b)) for a in faces for b in faces if a < b])


# (facets, (elements, chains), H^n(X; Z) as (free rank, torsion orders))
SURFACES = {
    "rp2": ([(1, 2, 3), (1, 3, 4), (1, 4, 5), (1, 5, 6), (1, 6, 2),
             (2, 3, 5), (3, 4, 6), (4, 5, 2), (5, 6, 3), (6, 2, 4)],
            (31, 181), [(1, ()), (0, ()), (0, (2,))]),
    "torus": ([(i, (i + 1) % 7, (i + 3) % 7) for i in range(7)]
              + [(i, (i + 2) % 7, (i + 3) % 7) for i in range(7)],
              (42, 252), [(1, ()), (2, ()), (1, ())]),
}
SITES = {name: face_poset(facets) for name, (facets, _, _) in SURFACES.items()}

# each ring with the characteristic of its residue field
RINGS = {"z2": (IntegerRing(2), 2), "z3": (IntegerRing(3), 3),
         "f5t": (PolynomialRing(PrimeField(5)), 5)}

surfaces = pytest.mark.parametrize("surface", sorted(SURFACES))
rings = pytest.mark.parametrize("ring", sorted(RINGS))


def constant_sheaf(surface, ring) -> SheafComplex:
    R = RINGS[ring][0]
    return SheafComplex.constant(SITES[surface], FreeComplex(R, 0, [1], []))


def uct_dims(integral, p: int) -> list:
    """dim H^n(X; F_p) from H^*(X; Z), by the universal coefficient theorem."""
    def divisible(torsion):
        return sum(1 for t in torsion if t % p == 0)

    above = [torsion for _, torsion in integral[1:]] + [()]
    return [free + divisible(torsion) + divisible(up)
            for (free, torsion), up in zip(integral, above)]


@surfaces
def test_face_poset_sizes(surface):
    site = SITES[surface]
    assert (len(site.elements), sum(map(len, site.chains()))) == SURFACES[surface][1]


@surfaces
@rings
def test_torsion_table_is_the_integral_cohomology(surface, ring):
    R = RINGS[ring][0]
    integral = SURFACES[surface][2]
    table = check_torsionfree_eta_m(InstanceContext(constant_sheaf(surface, ring)))
    got = [table[(n, 0)]["invariants"] for n in range(len(integral))]
    keep = isinstance(R, IntegerRing)  # the only torsion order, 2, is a unit of F_5[t]
    assert got == [{"free_rank": free, "factors": [str(t) for t in torsion if keep]}
                   for free, torsion in integral]


@surfaces
@rings
def test_h1_and_the_report_follow_the_torsion(surface, ring):
    p = RINGS[ring][1]
    integral = SURFACES[surface][2]
    # xi-torsion is torsion of order divisible by the residue characteristic
    witness = next((n for n, (_, torsion) in enumerate(integral)
                    if any(t % p == 0 for t in torsion)), None)
    F = constant_sheaf(surface, ring)
    assert hypothesis_h1(InstanceContext(F)) == (witness is None, witness)
    report = verify_main_theorem(F)
    assert report.hypotheses["H1"] == {"holds": witness is None, "witness": witness}
    if witness is None:
        assert report.asserted and report.passed


@surfaces
@rings
def test_ht_e2_is_the_mod_k_cohomology(surface, ring):
    p = RINGS[ring][1]
    integral = SURFACES[surface][2]
    ctx = InstanceContext(constant_sheaf(surface, ring))
    pages = ht_spectral_sequence(ctx)
    assert [pages[0].dim(n, 0) for n in range(len(integral))] == uct_dims(integral, p)
    assert ht_e2_crosscheck(ctx, pages) == []
