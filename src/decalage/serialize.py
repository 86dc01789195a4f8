"""JSON encoding of rings, matrices, complexes, sites and sheaf complexes.

Ring elements travel as strings (decimal integers, polynomials in canonical
descending form such as "2*t^3+1"); matrices as row-major nested arrays of
such strings.  Complexes carry {ring, lo, hi, ranks, differentials}, with
lo >= 0 since the engine works in nonnegative degrees; sheaf complexes carry
{site, stalks, restrictions} with restriction keys "a<=b".
"""

from __future__ import annotations

import json

from .complexes import ChainMap, FreeComplex
from .rings import BaseRing, RingElementError, ring_from_description
from .rmatrix import Matrix
from .sites import InvalidSheaf, PosetSite, SheafComplex


class SerializeError(ValueError):
    """Input does not parse as the expected object."""


def matrix_to_json(M: Matrix):
    return [[M.ring.format(x) for x in row] for row in M.data]


def matrix_from_json(ring: BaseRing, data, rows: int, cols: int) -> Matrix:
    if not isinstance(data, list) or len(data) != rows:
        raise SerializeError(f"matrix needs {rows} rows, got {data!r}")
    out = []
    for row in data:
        if not isinstance(row, list) or len(row) != cols:
            raise SerializeError(f"matrix row needs {cols} entries")
        try:
            out.append([ring.parse(str(x)) for x in row])
        except RingElementError as exc:
            raise SerializeError(str(exc)) from exc
    return Matrix(ring, out, cols=cols)


def complex_to_json(K: FreeComplex) -> dict:
    return {
        "ring": K.ring.describe(),
        "lo": K.lo,
        "hi": K.hi,
        "ranks": list(K.ranks()),
        "differentials": [matrix_to_json(K.d(i)) for i in range(K.lo, K.hi)],
        "twist": K.twist,
    }


def _is_int(value) -> bool:
    """True for a JSON integer; JSON's true and false are not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


def complex_from_json(data: dict) -> FreeComplex:
    if not isinstance(data, dict):
        raise SerializeError("complex JSON must be an object")
    try:
        ring = ring_from_description(data["ring"])
        lo, ranks = data["lo"], data["ranks"]
    except (KeyError, TypeError, ValueError, RingElementError) as exc:
        raise SerializeError(f"bad complex JSON: {exc}") from exc
    if not isinstance(ranks, list) or not all(map(_is_int, ranks)):
        raise SerializeError(f"ranks must be a list of integers, got {ranks!r}")
    for name in ("lo", "hi", "twist"):
        if name in data and not _is_int(data[name]):
            raise SerializeError(f"{name} must be an integer, got {data[name]!r}")
    hi = data.get("hi", lo + len(ranks) - 1)
    twist = data.get("twist", 0)
    raw = data.get("differentials", [])
    if not isinstance(raw, list):
        raise SerializeError(f"differentials must be a list, got {raw!r}")
    if ring.is_field:
        raise SerializeError(f"a complex needs a ring with a uniformizer xi; "
                             f"{ring.kind!r} is a field")
    if lo < 0:
        raise SerializeError(f"degrees must be nonnegative, got lo = {lo}")
    if any(r < 0 for r in ranks):
        raise SerializeError(f"ranks must be nonnegative, got {ranks}")
    if hi != lo + len(ranks) - 1:
        raise SerializeError("hi does not match lo + len(ranks) - 1")
    if len(raw) != max(len(ranks) - 1, 0):
        raise SerializeError("need one differential per adjacent degree pair")
    diffs = [
        matrix_from_json(ring, raw[i], ranks[i + 1], ranks[i])
        for i in range(len(raw))
    ]
    return FreeComplex(ring, lo, ranks, diffs, twist)


def site_to_json(site: PosetSite) -> dict:
    return site.describe()


def _strings(value, length=None) -> bool:
    """True if value is a list of strings, of the given length if one is given."""
    return (isinstance(value, list) and all(isinstance(x, str) for x in value)
            and length in (None, len(value)))


def site_from_json(data: dict) -> PosetSite:
    try:
        elements, leq = data["elements"], data.get("leq", [])
    except (KeyError, TypeError) as exc:
        raise SerializeError(f"bad site JSON: {exc}") from exc
    if not _strings(elements):
        raise SerializeError(f"site elements must be a list of strings, got {elements!r}")
    if not isinstance(leq, list) or not all(_strings(p, 2) for p in leq):
        raise SerializeError(f"site leq must be a list of [a, b] string pairs, got {leq!r}")
    try:
        return PosetSite(elements, [tuple(p) for p in leq])
    except ValueError as exc:
        raise SerializeError(f"bad site JSON: {exc}") from exc


def sheaf_to_json(F: SheafComplex) -> dict:
    out = {
        "site": site_to_json(F.site),
        "stalks": {x: complex_to_json(F.stalk(x)) for x in F.site.elements},
        "restrictions": {},
    }
    for a, b in F.site.strict_pairs():
        src = F.stalk(a)
        cm = F.res(a, b)
        out["restrictions"][f"{a}<={b}"] = [
            matrix_to_json(cm.map(i)) for i in range(src.lo, src.hi + 1)
        ]
    return out


def sheaf_from_json(data: dict) -> SheafComplex:
    if not isinstance(data, dict) or "site" not in data:
        raise SerializeError("sheaf JSON must carry a site")
    site = site_from_json(data["site"])
    raw_stalks, raw = data.get("stalks"), data.get("restrictions", {})
    if not isinstance(raw_stalks, dict) or not isinstance(raw, dict):
        raise SerializeError("stalks and restrictions must be objects")
    try:
        stalks = {x: complex_from_json(raw_stalks[x]) for x in site.elements}
    except KeyError as exc:
        raise SerializeError(f"missing stalk: {exc}") from exc
    restrictions = {}
    for a, b in site.strict_pairs():
        key = f"{a}<={b}"
        if key not in raw:
            raise SerializeError(f"missing restriction {key}")
        src, tgt = stalks[a], stalks[b]
        mats = raw[key]
        if not isinstance(mats, list) or len(mats) != src.hi - src.lo + 1:
            raise SerializeError(f"restriction {key} needs one matrix per degree")
        maps = {
            src.lo + j: matrix_from_json(
                src.ring, mats[j], tgt.rank(src.lo + j), src.rank(src.lo + j)
            )
            for j in range(len(mats))
        }
        restrictions[(a, b)] = ChainMap(src, tgt, maps)
    try:
        return SheafComplex(site, stalks, restrictions)
    except InvalidSheaf as exc:
        raise SerializeError(f"bad sheaf JSON: {exc}") from exc


def load_instance(data):
    """A sheaf complex from JSON: bare complexes become point-site sheaves."""
    if isinstance(data, dict) and "site" in data:
        return sheaf_from_json(data)
    K = complex_from_json(data)
    return SheafComplex.constant(PosetSite.point(), K)


def read_json(path: str):
    """The JSON value in the file at ``path``; SerializeError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise SerializeError(f"cannot read {path}: {exc}") from exc


def load_instance_file(path: str):
    """The instance in a JSON file, bare or under the ``instance`` key of a fixture record."""
    data = read_json(path)
    if isinstance(data, dict) and "instance" in data:
        data = data["instance"]
    return load_instance(data)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
