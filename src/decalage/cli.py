"""Command line: validate instances, run the check suites, print pages.

Exit codes: 0 all checks passed, 1 a verified identity failed (or an
invariant was violated), 2 the input did not parse, 3 an instance did not
meet the hypotheses so nothing was asserted.
"""

from __future__ import annotations

import argparse
import os
import sys

from .instances import GenerationBudgetExceeded, generate_instance
from .rings import make_ring
from .serialize import (
    SerializeError,
    dump_json,
    load_instance_file,
)
from .sites import InstanceContext, PosetSite
from .spectral import hdr_spectral_sequence, ht_spectral_sequence, ht_e2_crosscheck
from .suites import sheaf_lemma_report
from .theorem import verify_main_theorem

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INPUT = 2
EXIT_HYPOTHESES = 3


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


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--ring", choices=["z", "fp-poly", "q-poly"], default="z")
    p.add_argument("--xi", default=None, help="prime for z (default 2); t for polynomials")
    p.add_argument("--char", type=int, default=5, help="characteristic for fp-poly")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--max-degree", type=int, default=2)
    p.add_argument("--max-rank", type=int, default=2)
    p.add_argument("--poset", default=None,
                   help="file or builtin:point|pseudo-circle|chain3|sphere")
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
    _add_common(v)

    cl = sub.add_parser("check-lemmas", help="run the stage identity suite")
    cl.add_argument("path", nargs="?")
    cl.add_argument("--generate", default=None,
                    choices=["free", "h1", "adversarial"])
    _add_common(cl)

    ct = sub.add_parser("check-theorem", help="run the flag comparison suite")
    ct.add_argument("path", nargs="?")
    ct.add_argument("--generate", default=None,
                    choices=["free", "h1", "adversarial"])
    _add_common(ct)

    ss = sub.add_parser("ss", help="print spectral sequence pages")
    ss.add_argument("path")
    ss.add_argument("--filtration", choices=["tau", "hodge"], default="tau")
    ss.add_argument("--pages", type=int, default=4)
    _add_common(ss)
    return ap


def _emit(args, payload, text_lines) -> None:
    if args.format == "json":
        text = dump_json(payload, args.out)
        if not args.out:
            print(text)
    else:
        body = "\n".join(text_lines)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(body + "\n")
        else:
            print(body)


def _instances(args):
    """(id, sheaf) pairs from a path or a generation request."""
    if getattr(args, "path", None):
        F = load_instance_file(resolve_path(args.path))
        return [(os.path.basename(args.path), F)]
    profile = args.generate or "h1"
    ring = make_ring(args.ring, args.xi, args.char)
    site = None
    if args.poset:
        if args.poset.startswith("builtin:"):
            site = PosetSite.builtin(args.poset.split(":", 1)[1])
        else:
            from .serialize import site_from_json
            import json as _json

            with open(resolve_path(args.poset), "r", encoding="utf-8") as fh:
                site = site_from_json(_json.load(fh))
    out = []
    for j in range(args.count):
        F = generate_instance(profile, args.seed + j, ring=ring, site=site,
                              max_degree=args.max_degree, max_rank=args.max_rank)
        out.append((f"{profile}-{args.seed + j}", F))
    return out


def cmd_validate(args) -> int:
    try:
        F = load_instance_file(resolve_path(args.path))
    except SerializeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        F.validate()
    except Exception as exc:
        print(f"invalid: {type(exc).__name__}: {exc}")
        return EXIT_VIOLATION
    print(f"valid: {len(F.site.elements)} stalk(s), "
          f"degrees [{F.lo()}, {F.hi()}]")
    return EXIT_PASS


def cmd_check_lemmas(args) -> int:
    try:
        instances = _instances(args)
    except SerializeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GenerationBudgetExceeded as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
    reports = [sheaf_lemma_report(F, iid) for iid, F in instances]
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
    try:
        instances = _instances(args)
    except SerializeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except GenerationBudgetExceeded as exc:
        print(f"generation failed: {exc}", file=sys.stderr)
        return EXIT_INPUT
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
        width = 4
        header = "  q\\p " + "".join(f"{p:>{width}}" for p in ps)
        lines.append(header)
        for q in qs:
            row = f"  {q:>3} " + "".join(
                f"{page.dim(p, q) or '.':>{width}}" for p in ps
            )
            lines.append(row)
        nonzero = [
            f"  d_{page.r} at (p={p}, q={q}) is nonzero"
            for (p, q), m in sorted(page.differentials.items())
            if not m.is_zero()
        ]
        lines.extend(nonzero)
    return lines


def cmd_ss(args) -> int:
    try:
        F = load_instance_file(resolve_path(args.path))
    except SerializeError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    ctx = InstanceContext(F)
    if args.filtration == "tau":
        pages, _, _ = ht_spectral_sequence(ctx, r_max=args.pages)
        mism = ht_e2_crosscheck(ctx, pages)
        extra = [] if not mism else [f"E_2 crosscheck mismatches: {mism}"]
    else:
        pages, _, _ = hdr_spectral_sequence(ctx, r_max=args.pages)
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
    return table[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
