"""Make the checkout's own ``src/decalage`` the one that gets imported.

The benchmark measures the sources next to it, never an installed copy, so
every entry point calls :func:`use_checkout_sources` before importing the
library or :mod:`workloads`.
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class MissingSources(RuntimeError):
    """The checkout holds no ``src/decalage`` package to benchmark."""


def use_checkout_sources() -> Path:
    """Put ``<root>/src`` first on ``sys.path`` and check what it imports."""
    if not (SRC / "decalage" / "__init__.py").is_file():
        raise MissingSources(f"no decalage package under {SRC}")
    sys.path.insert(0, str(SRC))
    import decalage

    origin = Path(decalage.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise MissingSources(f"decalage imported from {origin}, not from {SRC}")
    return ROOT
