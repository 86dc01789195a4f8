"""JSON encoding of rings, matrices, complexes, sites and sheaf complexes.

Ring elements travel as strings (decimal integers, polynomials in canonical
descending form such as "2*t^3+1"); matrices as row-major nested arrays of
such strings.  Complexes carry {ring, lo, hi, ranks, differentials}, with
lo >= 0 since the engine works in nonnegative degrees, and every rank at
most MAX_RANK; sheaf complexes carry {site, stalks, restrictions} with
restriction keys "a<=b".
"""

from __future__ import annotations

import json
from collections import namedtuple

from .complexes import ChainMap, FreeComplex
from .rings import BaseRing, RingElementError, ring_from_description
from .rmatrix import Matrix
from .sites import InvalidSheaf, PosetSite, SheafComplex


class SerializeError(ValueError):
    """Input does not parse as the expected object."""


# the largest rank an input complex may declare, and the largest --max-rank:
# check-theorem on one free module of this rank takes seconds and about half
# a gigabyte, and twice it about 2 GB (README, Limits)
MAX_RANK = 1024


# The input records, each walked by _check before it is read: a record maps
# its fields to specs and has no other field, and a spec is a JSON type (object
# for any value), NAT, [spec], a tuple of specs (a list of that length), a
# record, or RING (the record of RINGS that "kind" names).  A field with a
# reader of its own is walked by that reader, so a complex's ring is read, and
# refused if it is a field, before its matrices are walked.
NAT, RING, KIND = "nat", "ring", "kind"
Maybe = namedtuple("Maybe", "spec")  # the spec of a field that may be absent
RINGS = {
    "z": {"kind": str, "xi": str},
    "fp-poly": {"kind": str, "p": int, "xi": Maybe(str)},
    "q-poly": {"kind": str, "xi": Maybe(str)},
    "prime-field": {"kind": str, "p": int},
    "rationals": {"kind": str},
}
TYPE_NAMES = {str: "a string", int: "an integer", list: "a list", dict: "an object",
              NAT: "a nonnegative integer", KIND: f"one of {', '.join(RINGS)}"}
COMPLEX = {"ring": RING, "lo": NAT, "hi": Maybe(int), "ranks": [NAT], "twist": Maybe(int),
           "differentials": Maybe(list)}
SITE = {"elements": [str], "leq": Maybe([(str, str)])}
SHEAF = {"site": dict, "stalks": dict, "restrictions": Maybe(dict)}
FIXTURE = {"instance": dict, "facts": Maybe(object), "lemma_report": Maybe(object),
           "theorem_report": Maybe(object)}


def _check(value, spec, path: str = "$") -> None:
    """Raise SerializeError at the JSON path of the first part of value that spec refuses."""
    if spec is RING:
        kind = value.get("kind") if type(value) is dict else None
        spec = RINGS[kind] if type(kind) is str and kind in RINGS else {"kind": KIND}
    if type(spec) is dict:
        _check(value, dict, path)
        for name, sub in spec.items():
            if name in value:
                _check(value[name], sub.spec if type(sub) is Maybe else sub, f"{path}.{name}")
            elif type(sub) is not Maybe:
                raise SerializeError(f"{path}.{name}: missing")
        for name in value:
            if name not in spec:
                raise SerializeError(f"{path}.{name}: unknown key")
    elif type(spec) in (list, tuple):
        _check(value, list, path)
        if type(spec) is tuple and len(value) != len(spec):
            raise SerializeError(f"{path}: expected a list of {len(spec)}, got {len(value)}")
        for i, x in enumerate(value):
            _check(x, spec[i] if type(spec) is tuple else spec[0], f"{path}[{i}]")
    elif not (spec is object or type(value) is spec
              or spec is NAT and type(value) is int and value >= 0):
        shown = TYPE_NAMES[type(value)] if type(value) in (list, dict) else json.dumps(value)
        raise SerializeError(f"{path}: expected {TYPE_NAMES[spec]}, got {shown}")


def _element(ring: BaseRing, text: str, path: str):
    # int() and Fraction() also read digit separators and non-ASCII digits
    if not text.isascii() or "_" in text:
        raise SerializeError(f"{path}: bad ring element {text!r}: ASCII without '_' only")
    try:
        return ring.parse(text)
    except RingElementError as exc:
        raise SerializeError(f"{path}: {exc}") from exc


def _check_length(value, n: int, path: str) -> None:
    """_check(value, (spec,) * n, path)'s length test, which builds no spec of length n."""
    _check(value, list, path)
    if len(value) != n:
        raise SerializeError(f"{path}: expected a list of {n}, got {len(value)}")


def matrix_from_json(ring: BaseRing, data, rows: int, cols: int, path: str = "$") -> Matrix:
    _check_length(data, rows, path)
    for r, row in enumerate(data):
        _check_length(row, cols, f"{path}[{r}]")
        _check(row, [str], f"{path}[{r}]")
    return Matrix(ring, [[_element(ring, x, f"{path}[{r}][{c}]") for c, x in enumerate(row)]
                         for r, row in enumerate(data)], cols=cols)


def complex_to_json(K: FreeComplex) -> dict:
    return {
        "ring": K.ring.describe(),
        "lo": K.lo,
        "hi": K.hi,
        "ranks": list(K.ranks()),
        "differentials": [K.d(i).to_json() for i in range(K.lo, K.hi)],
        "twist": K.twist,
    }


def complex_from_json(data: dict, path: str = "$") -> FreeComplex:
    _check(data, COMPLEX, path)
    try:
        ring = ring_from_description(data["ring"])
    except ValueError as exc:
        raise SerializeError(f"{path}.ring: {exc}") from exc
    if ring.is_field:
        raise SerializeError(f"{path}.ring: a complex needs a ring with a uniformizer xi; "
                             f"{ring.kind!r} is a field")
    lo, ranks, raw = data["lo"], data["ranks"], data.get("differentials", [])
    for j, rank in enumerate(ranks):
        if rank > MAX_RANK:
            raise SerializeError(f"{path}.ranks[{j}]: expected a rank of at most {MAX_RANK}, "
                                 f"got {rank}")
    if data.get("hi", lo + len(ranks) - 1) != lo + len(ranks) - 1:
        raise SerializeError(f"{path}.hi: does not match lo + len(ranks) - 1")
    _check(raw, (list,) * max(len(ranks) - 1, 0), f"{path}.differentials")
    diffs = [matrix_from_json(ring, m, ranks[i + 1], ranks[i], f"{path}.differentials[{i}]")
             for i, m in enumerate(raw)]
    return FreeComplex(ring, lo, ranks, diffs, data.get("twist", 0))


def site_to_json(site: PosetSite) -> dict:
    return site.describe()


def site_from_json(data: dict, path: str = "$") -> PosetSite:
    _check(data, SITE, path)
    # a sheaf keys each restriction "a<=b", which only names without "<=" split back
    for i, x in enumerate(data["elements"]):
        if "<=" in x:
            raise SerializeError(f"{path}.elements[{i}]: element name {x!r} contains '<='")
    try:
        return PosetSite(data["elements"], [tuple(p) for p in data.get("leq", [])])
    except ValueError as exc:
        raise SerializeError(f"{path}: {exc}") from exc


def sheaf_to_json(F: SheafComplex) -> dict:
    out = {
        "site": site_to_json(F.site),
        "stalks": {x: complex_to_json(F.stalk(x)) for x in F.site.elements},
        "restrictions": {},
    }
    for a, b in F.site.strict_pairs():
        src = F.stalk(a)
        cm = F.res(a, b)
        out["restrictions"][f"{a}<={b}"] = [cm.map(i).to_json() for i in src.degrees()]
    return out


def sheaf_from_json(data: dict, path: str = "$") -> SheafComplex:
    _check(data, SHEAF, path)
    site = site_from_json(data["site"], f"{path}.site")
    # the site names the fields of the stalks and the restrictions
    _check(data["stalks"], dict.fromkeys(site.elements, dict), f"{path}.stalks")
    stalks = {x: complex_from_json(K, f"{path}.stalks.{x}") for x, K in data["stalks"].items()}
    pairs = {f"{a}<={b}": (a, b) for a, b in site.strict_pairs()}
    raw = data.get("restrictions", {})
    _check(raw, {key: (list,) * len(stalks[a].degrees()) for key, (a, _) in pairs.items()},
           f"{path}.restrictions")
    restrictions = {}
    for key, mats in raw.items():
        (a, b), where = pairs[key], f"{path}.restrictions.{key}"
        src, tgt = stalks[a], stalks[b]
        restrictions[(a, b)] = ChainMap(src, tgt, {
            i: matrix_from_json(src.ring, m, tgt.rank(i), src.rank(i), f"{where}[{j}]")
            for j, (i, m) in enumerate(zip(src.degrees(), mats))
        })
    try:
        return SheafComplex(site, stalks, restrictions)
    except InvalidSheaf as exc:
        raise SerializeError(f"{path}.stalks: {exc}") from exc


def load_instance(data, path: str = "$"):
    """A sheaf complex from JSON: bare complexes become point-site sheaves."""
    if isinstance(data, dict) and "site" in data:
        return sheaf_from_json(data, path)
    K = complex_from_json(data, path)
    return SheafComplex.constant(PosetSite.point(), K)


def read_json(path: str):
    """The JSON value in the file at ``path``; SerializeError if it cannot be read."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    # json.JSONDecodeError, invalid UTF-8 and an integer past the digit limit are ValueErrors
    except (OSError, RecursionError, ValueError) as exc:
        raise SerializeError(f"cannot read {path}: {exc}") from exc


def load_instance_file(path: str):
    """The instance in a JSON file, bare or under the ``instance`` key of a fixture record."""
    data = read_json(path)
    if isinstance(data, dict) and "instance" in data:
        _check(data, FIXTURE)
        return load_instance(data["instance"], "$.instance")
    return load_instance(data)


def dump_json(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True)
