"""Exact decalage stages over a PID, their filtration identities, and the
two-lattice flag comparison, verified on finite models."""

from .rings import IntegerRing, PolynomialRing, PrimeField, RationalField, make_ring
from .rmatrix import Matrix, snf, solve_exact
from .complexes import (
    ChainMap,
    FGModule,
    FreeComplex,
    hodge_filtration,
    truncate_leq,
)
from .eta import eta_m, graded_piece, mod_xi_subquotient
from .bockstein import Memo, bockstein_complex, connecting_factorization, split_mod_xi
from .sites import InstanceContext, PosetSite, SheafComplex, global_sections_complex
from .spectral import (
    FilteredComplex,
    SSPage,
    compare_degeneration,
    degeneration_check_HT,
    degeneration_check_HdR,
    hdr_spectral_sequence,
    ht_spectral_sequence,
    persistence_pairs,
    ss_pages,
)
from .theorem import (
    Flag,
    bb_filtration,
    check_torsionfree_eta_m,
    relative_position,
    stage_lattice,
    verify_main_theorem,
)
from .instances import generate_instance

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
