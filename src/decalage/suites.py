"""The named check batteries shared by the command line and the test suite."""

from __future__ import annotations

from .bockstein import (
    Memo,
    connecting_factorization,
    split_mod_xi,
    verify_reduction_identification,
    verify_mod_xi_subquotient,
)
from .checks import CheckResult
from .complexes import DifferentialSquareNonzero, FreeComplex
from .eta import verify_eta_m_cohomology, verify_graded_piece, xi_step_inclusion_holds
from .sites import SheafComplex


def _guard(name: str, check, *args, **where) -> CheckResult:
    """``check(*args)``, or when it raises a failed check recording ``where`` and the error."""
    try:
        return check(*args)
    except Exception as exc:  # a crash is a failed check with the message as witness
        out = CheckResult(name)
        out.fail(**where, error=f"{type(exc).__name__}: {exc}")
        return out


def lemma_battery(K: FreeComplex) -> list:
    """Every stage-level identity for one complex, across all useful m.

    A K with d^2 != 0 is no complex and has no stages: its battery is one
    failed ``complex.valid`` record.
    """
    try:
        K.validate()
    except DifferentialSquareNonzero as exc:
        bad = CheckResult("complex.valid")
        bad.fail(error=f"{type(exc).__name__}: {exc}")
        return [bad]
    ctx = Memo()
    results = [_guard("eta-m.cohomology", verify_eta_m_cohomology, ctx, K, m, m=m)
               for m in range(0, K.hi + 3)]
    # read at call time, so a patched or traced check is the one that runs
    per_m = (("eta-m.graded-piece", verify_graded_piece),
             ("eta-m.mod-xi-subquotient", verify_mod_xi_subquotient),
             ("eta-m.connecting-bockstein", connecting_factorization),
             ("eta-m.mod-xi-splitting", split_mod_xi))
    for m in range(0, K.hi + 2):
        results.extend(_guard(name, check, ctx, K, m, m=m) for name, check in per_m)
    results.append(_guard("eta.mod-xi-bockstein-model", verify_reduction_identification, ctx, K))
    filt = CheckResult("eta-m.filtration-steps")
    for m in range(0, K.hi + 2):
        try:
            filt.expect(xi_step_inclusion_holds(ctx, K, m), m=m)
        except Exception as exc:
            filt.fail(m=m, error=f"{type(exc).__name__}: {exc}")
    results.append(filt)
    return results


def sheaf_lemma_report(F: SheafComplex, instance_id: str) -> dict:
    """Run the lemma battery on every stalk of an instance."""
    checks = []
    passed = True
    try:
        F.validate()
    except Exception as exc:
        bad = CheckResult("instance.valid")
        bad.fail(error=f"{type(exc).__name__}: {exc}")
        return {"instance": instance_id, "passed": False,
                "checks": [bad.to_json()]}
    for x in F.site.elements:
        for result in lemma_battery(F.stalk(x)):
            record = result.to_json()
            record["stalk"] = x
            checks.append(record)
            passed = passed and result.passed
    return {"instance": instance_id, "passed": passed, "checks": checks}
