"""Spans at the library's module boundaries, recorded from outside the library.

:class:`Tracer` wraps every public function defined in a ``decalage.*``
module and rebinds the wrapper under every name any ``decalage`` module
holds for it, so calls made through ``from .x import f`` aliases are counted
too.  ``decalage.rings`` stays unwrapped: its per-element calls would swamp
the trace, and coefficient growth is measured instead by the entry sizes
that ``rmatrix.snf`` sees.

Each call appends one span (function, parent span, start, end) to flat
arrays in memory.  Probes attached to a few functions record input
fingerprints and sizes; the clock is paused while they run, so their cost
lands in no span.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
from array import array
from fractions import Fraction

# rings: see above; __main__ runs the command line when imported
SKIPPED_MODULES = ("decalage.rings", "decalage.__main__")


def entry_bits(ring, x) -> int:
    """Storage size of one ring element in bits.

    Integers: bit length of the absolute value.  Polynomials, stored as
    coefficient tuples: over F_p, the bits of the largest number with as many
    base-p digits, so a linear polynomial over F_5 takes 5 bits; over Q, the
    numerator and denominator bits of every coefficient, summed.
    """
    if isinstance(x, tuple):
        p = getattr(ring.base, "p", None)
        if p is not None:
            return (p ** len(x) - 1).bit_length()
        return sum(abs(c.numerator).bit_length() + c.denominator.bit_length() for c in x)
    if isinstance(x, Fraction):
        return abs(x.numerator).bit_length() + x.denominator.bit_length()
    return abs(x).bit_length()


def matrix_bits(M) -> int:
    return max((entry_bits(M.ring, x) for row in M.data for x in row), default=0)


def _ring_key(ring) -> str:
    return repr(ring.describe())


def complex_key(K) -> tuple:
    return (_ring_key(K.ring), K.lo, tuple(K.ranks()), K.twist,
            tuple(K.d(i).data for i in range(K.lo, K.hi)))


def sheaf_key(F) -> tuple:
    site = F.site
    return (site.elements, tuple(site.strict_pairs()),
            tuple(complex_key(F.stalk(x)) for x in site.elements),
            tuple(tuple(F.res(a, b).map(i).data
                        for i in range(F.stalk(a).lo, F.stalk(a).hi + 1))
                  for a, b in site.strict_pairs()))


class Tracer:
    """Wraps the library while installed; aggregates spans on request."""

    def __init__(self):
        self.names = []  # function id -> "module.function"
        self.fids = array("i")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.outermost = array("b")  # 1 if no enclosing span has the same function
        self.extra = {}  # "module.function.stat" -> value, filled by probes
        self._fingerprints = {}  # "module.function" -> set of input hashes
        self._stack = []
        self._depth = []
        self._paused = 0.0
        self._patched = []  # (module, attribute, original)
        self._probes = {
            "eta.eta_m": self._probe_eta_m,
            "sites.global_sections_complex": self._probe_sections,
            "rmatrix.snf": self._probe_snf,
        }

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import decalage

        modules = [decalage]
        for info in pkgutil.iter_modules(decalage.__path__):
            name = f"decalage.{info.name}"
            if name not in SKIPPED_MODULES:
                modules.append(importlib.import_module(name))
        wrappers = {}
        for mod in modules[1:]:
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    wrappers[id(obj)] = self._wrap(
                        f"{mod.__name__.removeprefix('decalage.')}.{attr}", obj)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._patched.append((mod, attr, obj))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _now(self) -> float:
        return time.perf_counter() - self._paused

    def _wrap(self, name: str, fn):
        fid = len(self.names)
        self.names.append(name)
        self._depth.append(0)
        probe = self._probes.get(name)
        signature = inspect.signature(fn) if probe else None
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        outermost, stack, depth, now = self.outermost, self._stack, self._depth, self._now

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(fids)
            fids.append(fid)
            parents.append(stack[-1] if stack else -1)
            outermost.append(depth[fid] == 0)
            ends.append(0.0)
            stack.append(idx)
            depth[fid] += 1
            starts.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = now()
                depth[fid] -= 1
                stack.pop()
            if probe is not None:
                paused = time.perf_counter()
                probe(signature.bind(*args, **kwargs).arguments, result)
                self._paused += time.perf_counter() - paused
            return result

        return wrapper

    # -- probes -------------------------------------------------------------

    def _seen(self, name: str, key) -> None:
        self._fingerprints.setdefault(name, set()).add(hash(key))

    def _raise(self, stat: str, value) -> None:
        self.extra[stat] = max(self.extra.get(stat, 0), value)

    def _probe_eta_m(self, arguments, result) -> None:
        self._seen("eta.eta_m", (complex_key(arguments["K"]), arguments["m"]))

    def _probe_sections(self, arguments, result) -> None:
        self._seen("sites.global_sections_complex", sheaf_key(arguments["F"]))
        self._raise("sites.global_sections_complex.max_rank", result[0].total_rank())

    def _probe_snf(self, arguments, result) -> None:
        M = arguments["M"]
        self._raise("rmatrix.snf.max_dim", max(M.rows, M.cols))
        bits = max(matrix_bits(X) for X in (M, result.d, result.u, result.uinv,
                                            result.v, result.vinv))
        self._raise("rmatrix.snf.max_entry_bits", bits)

    # -- aggregation ----------------------------------------------------------

    def stats(self) -> dict:
        """Per function: calls, self_s, incl_s; plus probe stats and unique ratios.

        Self time is a span's duration minus its direct children's; inclusive
        time counts only outermost spans, so recursion is not double counted.
        """
        n = len(self.names)
        calls = [0] * n
        incl = [0.0] * n
        self_s = [0.0] * n
        fids, parents, starts, ends = self.fids, self.parents, self.starts, self.ends
        for idx in range(len(fids)):
            fid = fids[idx]
            dur = ends[idx] - starts[idx]
            calls[fid] += 1
            self_s[fid] += dur
            if self.outermost[idx]:
                incl[fid] += dur
            parent = parents[idx]
            if parent >= 0:
                self_s[fids[parent]] -= dur
        out = {}
        for fid, name in enumerate(self.names):
            out[f"{name}.calls"] = calls[fid]
            out[f"{name}.self_s"] = self_s[fid]
            out[f"{name}.incl_s"] = incl[fid]
        for name, seen in self._fingerprints.items():
            out[f"{name}.unique_ratio"] = len(seen) / out[f"{name}.calls"]
        out.update(self.extra)
        return out

    def table(self, stats: dict, limit: int = 15) -> list:
        """Lines of the functions with the most self time, with their shares."""
        total = sum(stats[f"{name}.self_s"] for name in self.names) or 1.0
        ranked = sorted(self.names, key=lambda name: -stats[f"{name}.self_s"])
        lines = [f"{'function':40s} {'calls':>9s} {'self_s':>9s} {'share':>6s} {'incl_s':>9s}"]
        for name in ranked[:limit]:
            lines.append(f"{name:40s} {stats[f'{name}.calls']:9d} "
                         f"{stats[f'{name}.self_s']:9.3f} "
                         f"{stats[f'{name}.self_s'] / total:6.1%} "
                         f"{stats[f'{name}.incl_s']:9.3f}")
        return lines
