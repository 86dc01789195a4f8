"""Command line: validate instances, run the check suites, print pages.

Exit codes: 0 all checks passed, 1 a verified identity failed (or an
invariant was violated), 2 the input did not parse or the report could not
be written to ``--out``, 3 an instance did not meet the hypotheses so nothing
was asserted.
"""

from __future__ import annotations

import argparse
import errno
import os
import sys

from .instances import GenerationBudgetExceeded, generate_instance
from .rings import make_ring
from .serialize import (
    MAX_RANK,
    SerializeError,
    dump_json,
    load_instance_file,
    read_json,
    site_from_json,
)
from .sites import InstanceContext, PosetSite
from .spectral import hdr_spectral_sequence, ht_spectral_sequence, ht_e2_crosscheck
from .suites import sheaf_lemma_report
from .theorem import verify_main_theorem

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_HYPOTHESES = 3


class OutputError(Exception):
    """The report could not be written to the ``--out`` path."""


def fixtures_dir() -> str:
    env = os.environ.get("DECALAGE_FIXTURES")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "fixtures")


def resolve_path(path: str) -> str:
    if os.path.exists(path):
        return path
    candidate = os.path.join(fixtures_dir(), path)
    if os.path.exists(candidate):
        return candidate
    return path


# the options that generate instances, with the values they take when not given
GENERATION_DEFAULTS = {"generate": "h1", "ring": "z", "xi": None, "char": 5, "seed": 0,
                       "count": 1, "max_degree": 2, "max_rank": 2, "poset": None}


def _add_generation(p: argparse.ArgumentParser) -> None:
    """An instance file, or the options that generate instances (None unless given)."""
    p.add_argument("path", nargs="?")
    p.add_argument("--generate", choices=["free", "h1", "adversarial"])
    p.add_argument("--ring", choices=["z", "fp-poly", "q-poly"])
    p.add_argument("--xi", help="prime for z (default 2); t for polynomials")
    p.add_argument("--char", type=int, help="characteristic for fp-poly only (default 5)")
    p.add_argument("--seed", type=int)
    p.add_argument("--count", type=int)
    p.add_argument("--max-degree", type=int)
    p.add_argument("--max-rank", type=int)
    p.add_argument("--poset", help="file or builtin:point|pseudo-circle|chain3|sphere")


def _add_output(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=["text", "json"], default="text")
    p.add_argument("--out", default=None)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="decalage",
        description="Exactly verified decalage stages, their filtration "
                    "identities, and the two-lattice flag comparison.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    v = sub.add_parser("validate", help="check a complex or sheaf JSON file")
    v.add_argument("path")

    for name, text in (("check-lemmas", "run the stage identity suite"),
                       ("check-theorem", "run the flag comparison suite")):
        checks = sub.add_parser(name, help=text)
        _add_generation(checks)
        _add_output(checks)

    ss = sub.add_parser("ss", help="print spectral sequence pages")
    ss.add_argument("path")
    ss.add_argument("--filtration", choices=["tau", "hodge"], default="tau")
    ss.add_argument("--pages", type=int, default=4)
    _add_output(ss)
    return ap


def _check_out(path: str) -> None:
    """Refuse, before the run, an ``--out`` path that is a directory or lies in none."""
    if os.path.isdir(path) or not os.path.isdir(os.path.dirname(path) or "."):
        code = errno.EISDIR if os.path.isdir(path) else errno.ENOENT
        raise OutputError(f"cannot write --out {path}: {os.strerror(code)}")


def _emit(args, payload, text_lines) -> None:
    text = dump_json(payload) if args.format == "json" else "\n".join(text_lines)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text + "\n")
        except OSError as exc:
            raise OutputError(f"cannot write --out {args.out}: {exc.strerror}") from exc
        return
    try:
        print(text, flush=True)
    except BrokenPipeError:
        # the reader closed stdout: send what is left to devnull, so the
        # interpreter's final flush stays quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _instances(args):
    """(id, sheaf) pairs from a path or a generation request."""
    given = [name for name in GENERATION_DEFAULTS if getattr(args, name) is not None]
    if args.path:
        if given:
            raise SerializeError(f"--{given[0].replace('_', '-')} is a generation option, "
                                 "not for a path")
        F = load_instance_file(resolve_path(args.path))
        return [(os.path.basename(args.path), F)]
    vars(args).update({name: v for name, v in GENERATION_DEFAULTS.items() if name not in given})
    if "char" in given and args.ring != "fp-poly":
        raise SerializeError(f"--char is the characteristic of fp-poly, not for --ring {args.ring}")
    for option in ("count", "max_degree", "max_rank"):
        if getattr(args, option) < 1:
            raise SerializeError(f"--{option.replace('_', '-')} must be at least 1, "
                                 f"got {getattr(args, option)}")
    if args.max_rank > MAX_RANK:
        raise SerializeError(f"--max-rank must be at most {MAX_RANK}, got {args.max_rank}")
    profile = args.generate
    poset = args.poset or ""
    builtin = poset.startswith("builtin:")
    try:
        ring = make_ring(args.ring, args.xi, args.char)
        site = PosetSite.builtin(poset.removeprefix("builtin:")) if builtin else None
    except ValueError as exc:
        raise SerializeError(f"bad generation option: {exc}") from exc
    if poset and not builtin:
        site = site_from_json(read_json(resolve_path(poset)))
    out = []
    for j in range(args.count):
        F = generate_instance(profile, args.seed + j, ring=ring, site=site,
                              max_degree=args.max_degree, max_rank=args.max_rank)
        out.append((f"{profile}-{args.seed + j}", F))
    return out


def _invalid(F, out=None) -> bool:
    """Print the ``invalid:`` line to ``out`` (stdout by default) if F fails validation."""
    try:
        F.validate()
    except Exception as exc:
        print(f"invalid: {type(exc).__name__}: {exc}", file=out)
        return True
    return False


def cmd_validate(args) -> int:
    F = load_instance_file(resolve_path(args.path))
    if _invalid(F):
        return EXIT_VIOLATION
    print(f"valid: {len(F.site.elements)} stalk(s), "
          f"degrees [{F.lo()}, {F.hi()}]")
    return EXIT_PASS


def cmd_check_lemmas(args) -> int:
    reports = [sheaf_lemma_report(F, iid) for iid, F in _instances(args)]
    all_passed = all(r["passed"] for r in reports)
    lines = []
    for r in reports:
        lines.append(f"instance {r['instance']}: "
                     f"{'pass' if r['passed'] else 'FAIL'}")
        for c in r["checks"]:
            if not c["passed"]:
                lines.append(f"  FAIL {c['check']} (stalk {c.get('stalk')}): "
                             f"{c['failures'][:1]}")
    lines.append("all-passed" if all_passed else "failures-present")
    _emit(args, {"instances": reports, "passed": all_passed}, lines)
    return EXIT_PASS if all_passed else EXIT_VIOLATION


def cmd_check_theorem(args) -> int:
    instances = _instances(args)
    # an instance that fails validation gets its one line, not a traceback
    if any(_invalid(F, sys.stderr) for _, F in instances):
        return EXIT_VIOLATION
    payload = {"instances": []}
    lines = []
    any_violation = False
    any_unmet = False
    for iid, F in instances:
        report = verify_main_theorem(F)
        rec = report.to_json()
        rec["instance"] = iid
        payload["instances"].append(rec)
        if not report.asserted:
            status = "hypotheses-not-met"
            any_unmet = True
        elif report.passed:
            status = "pass"
        else:
            status = "FAIL"
            any_violation = True
            lines.append(dump_json(rec))
        lines.append(f"instance {iid}: {status} "
                     f"(H1={report.hypotheses['H1']['holds']}, "
                     f"H3={report.hypotheses['H3']['holds']})")
    if any_violation:
        worst = EXIT_VIOLATION
    elif any_unmet:
        worst = EXIT_HYPOTHESES
    else:
        worst = EXIT_PASS
    payload["exit"] = worst
    _emit(args, payload, lines)
    return worst


def _render_pages(pages) -> list:
    lines = []
    for page in pages:
        lines.append(f"page r = {page.r}")
        if not page.entries:
            lines.append("  (empty)")
            continue
        ps = sorted({p for p, _ in page.entries})
        qs = sorted({q for _, q in page.entries}, reverse=True)
        cells = {(p, q): str(page.dim(p, q) or ".") for p in ps for q in qs}
        # widths 4 and 3, widened so that no label or entry touches its neighbour
        widths = {p: max(4, 1 + len(str(p)), *(1 + len(cells[p, q]) for q in qs)) for p in ps}
        qw = max(3, *(len(str(q)) for q in qs))
        lines.append("  " + "q\\p".rjust(qw) + " " + "".join(str(p).rjust(widths[p]) for p in ps))
        lines += ["  " + str(q).rjust(qw) + " " + "".join(cells[p, q].rjust(widths[p]) for p in ps)
                  for q in qs]
        nonzero = [
            f"  d_{page.r} at (p={p}, q={q}) is nonzero"
            for (p, q), m in sorted(page.differentials.items())
            if not m.is_zero()
        ]
        lines.extend(nonzero)
    return lines


def cmd_ss(args) -> int:
    if args.pages < 1:
        raise SerializeError(f"--pages must be at least 1, got {args.pages}")
    F = load_instance_file(resolve_path(args.path))
    if _invalid(F, sys.stderr):
        return EXIT_VIOLATION
    ctx = InstanceContext(F)
    if args.filtration == "tau":
        pages = ht_spectral_sequence(ctx, r_max=args.pages)
        mism = ht_e2_crosscheck(ctx, pages)
        extra = [] if not mism else [f"E_2 crosscheck mismatches: {mism}"]
    else:
        pages = hdr_spectral_sequence(ctx, r_max=args.pages)
        extra = []
    lines = _render_pages(pages) + extra
    _emit(args, {"pages": [p.to_json() for p in pages]}, lines)
    return EXIT_PASS


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    table = {
        "validate": cmd_validate,
        "check-lemmas": cmd_check_lemmas,
        "check-theorem": cmd_check_theorem,
        "ss": cmd_ss,
    }
    # every command checks its --out path first, reads or generates its input
    # before it verifies anything, and writes its report last
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        return table[args.command](args)
    except SerializeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
    except OutputError as exc:
        print(f"output error: {exc}", file=sys.stderr)
    except GenerationBudgetExceeded as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
    return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
