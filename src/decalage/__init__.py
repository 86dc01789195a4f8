"""Exact decalage stages over a PID, their filtration identities, and the
two-lattice flag comparison, verified on finite models."""

__version__ = "0.1.0"
