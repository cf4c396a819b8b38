"""Command-line interface.

Exit codes: 0 all checks passed; 1 a check failed, an unexpected erratum
surfaced or a computation failed numerically; 2 usage or configuration
error.  Expected errata (the locked set of misprinted coefficient cases) do
not fail a run: they are reported and counted as passing, since flagging
them is this library's documented behavior.  A coefficient whose closed form
cannot be evaluated (oracle_only) fails, as its sweep row does.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .bounds import KIND_FOR_INDEX, PRESETS, _crosscheck, _instance_values, _require_band
from .bounds import case_label, check_theorem, crosscheck_plan
from .convexity import GridSpec, check_harmonic_sm, linear, parse_function_spec
from .errors import (
    AccuracyError,
    ConfigError,
    DomainError,
    EvaluationError,
    ParameterError,
    PreconditionError,
)
from .harness import SweepConfig, emit_report, run_sweep
from .identity import Instance, _judged, check_identity
from .identity import kernel_representation, rule_deviation_as_printed


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="harmonia",
        description="Verify the harmonic (s,m)-convexity identity, bounds, "
        "and coefficient tables numerically.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pc = sub.add_parser("check-convexity", help="grid-check harmonic (s,m)-convexity")
    pc.add_argument("--f", required=True, help="function spec, e.g. power:c=1,p=2")
    pc.add_argument("--s", type=float, required=True)
    pc.add_argument("--m", type=float, required=True)
    pc.add_argument("--lo", type=float, required=True)
    pc.add_argument("--hi", type=float, required=True)
    pc.add_argument("--grid", default="41,41,21", help="NX,NY,NT (default 41,41,21)")

    pi = sub.add_parser("verify-identity", help="check the kernel integral identity")
    pi.add_argument("--f", required=True)
    pi.add_argument("--a", type=float, required=True)
    pi.add_argument("--b", type=float, required=True)
    pi.add_argument("--lambda", dest="lambda_", type=float, required=True)
    pi.add_argument("--mu", dest="mu_", type=float, required=True)
    pi.add_argument(
        "--printed", action="store_true",
        help="evaluate the as-printed deviation display instead (errata demo; "
        "expected to fail the identity)",
    )

    pb = sub.add_parser("verify-bounds", help="check one theorem bound on one instance")
    pb.add_argument("--theorem", type=int, choices=(1, 2), required=True)
    pb.add_argument("--f", required=True)
    pb.add_argument("--a", type=float, required=True)
    pb.add_argument("--b", type=float, required=True)
    pb.add_argument("--s", type=float, required=True)
    pb.add_argument("--m", type=float, required=True)
    pb.add_argument("--q", type=float, required=True)
    pb.add_argument("--lambda", dest="lambda_", type=float)
    pb.add_argument("--mu", dest="mu_", type=float)
    pb.add_argument("--preset", choices=tuple(PRESETS))

    px = sub.add_parser("crosscheck", help="closed form vs oracle for coefficients")
    px.add_argument("--index", default="all", help="1..12 or 'all'")
    px.add_argument("--a", type=float, required=True)
    px.add_argument("--b", type=float, required=True)
    px.add_argument("--s", type=float, required=True)
    px.add_argument("--m", type=float, required=True)
    px.add_argument("--q", type=float, required=True)
    px.add_argument("--lambda", dest="lambda_", type=float, required=True)
    px.add_argument("--mu", dest="mu_", type=float, required=True)

    ps = sub.add_parser("sweep", help="run the full verification matrix")
    ps.add_argument("--config", required=True, help="JSON file mirroring SweepConfig")
    ps.add_argument("--out", required=True)
    ps.add_argument("--format", choices=("json", "csv"), required=True)
    ps.add_argument("--seed", type=int, default=None)
    ps.add_argument("--jobs", type=int, default=None, help="worker processes (default: core count)")
    return parser


def _cmd_check_convexity(args: argparse.Namespace) -> int:
    f = parse_function_spec(args.f)
    try:
        nx, ny, nt = (int(p) for p in args.grid.split(","))
    except ValueError:
        raise ConfigError(f"--grid expects NX,NY,NT integers, got {args.grid!r}") from None
    grid = GridSpec(nx=nx, ny=ny, nt=nt, lo=args.lo, hi=args.hi)
    report = check_harmonic_sm(f, args.s, args.m, grid)
    print(f"function   {args.f}")
    print(f"claim      harmonically ({args.s}, {args.m})-convex on [{args.lo}, {args.hi}]")
    print(f"grid       {nx}x{ny}x{nt}  ({report.checked} combinations)")
    print(f"worst defect  {report.worst_defect:.6e}")
    if report.holds:
        print("PASS: no counterexample at grid resolution")
        return 0
    x, y, t = report.witness
    print(f"FAIL: defect > tolerance at x={x!r}, y={y!r}, t={t!r}")
    return 1


def _cmd_verify_identity(args: argparse.Namespace) -> int:
    f = parse_function_spec(args.f)
    inst = Instance(
        a=args.a, b=args.b, s=1.0, m=1.0, q=1.0,
        lambda_=args.lambda_, mu_=args.mu_, f=f,
    )
    if args.printed:
        check = _judged(rule_deviation_as_printed(inst), kernel_representation(inst))
        label = "as-printed deviation"
        verdicts = ("FAIL: printed display does not satisfy the identity (known erratum)",
                    "PASS: printed display matches the kernel representation here")
    else:
        check = check_identity(inst)
        label, verdicts = "rule deviation", ("FAIL", "PASS")
    print(f"{label:<21} {check.lhs:.10g}")
    print(f"kernel representation {check.rhs:.10g}")
    print(f"|difference|          {check.abs_diff:.6e}  (tol {check.tol:g})")
    print(verdicts[check.passed])
    return 0 if check.passed else 1


def _cmd_verify_bounds(args: argparse.Namespace) -> int:
    if args.preset is not None:
        if args.lambda_ is not None or args.mu_ is not None:
            raise ConfigError("give either --preset or --lambda/--mu, not both")
        lam, mu = PRESETS[args.preset]
    else:
        if args.lambda_ is None or args.mu_ is None:
            raise ConfigError("need --lambda and --mu (or --preset)")
        lam, mu = args.lambda_, args.mu_
    f = parse_function_spec(args.f)
    inst = Instance(
        a=args.a, b=args.b, s=args.s, m=args.m, q=args.q,
        lambda_=lam, mu_=mu, f=f,
    )
    verdict = check_theorem(inst, args.theorem)
    print(f"theorem {verdict.theorem}")
    print(f"lhs |I_f|  {verdict.lhs:.10g}")
    print(f"rhs bound  {verdict.rhs:.10g}")
    print(f"margin     {verdict.margin:.6e}")
    print("PASS" if verdict.passed else "FAIL")
    return 0 if verdict.passed else 1


def _cmd_crosscheck(args: argparse.Namespace) -> int:
    if args.index == "all":
        indices = list(KIND_FOR_INDEX)
        explicit = False
    else:
        try:
            indices = [int(args.index)]
        except ValueError:
            raise ConfigError(f"--index must be 1..12 or 'all', got {args.index!r}") from None
        if indices[0] not in KIND_FOR_INDEX:
            raise ConfigError(f"--index must be 1..12 or 'all', got {args.index!r}")
        explicit = True
    inst = Instance(
        a=args.a, b=args.b, s=args.s, m=args.m, q=args.q,
        lambda_=args.lambda_, mu_=args.mu_, f=linear(),
    )
    _require_band(inst.mu_, inst.lambda_)
    _, feasible = crosscheck_plan(inst.q)
    cases = {index: case_label(index, inst) for index in indices if explicit or index in feasible}
    values = _instance_values(inst, [(index, inst) for index in cases], cases.items())  # as in a sweep
    violations = 0
    for index in indices:
        if index not in cases:
            print(f"B{index:<2} skipped (q=1: conjugate exponent undefined)")
            continue
        term = _crosscheck(index, cases[index], inst, values)
        closed = "---" if term.closed_form is None else f"{term.closed_form:.12g}"
        rel = "---" if term.rel_diff is None else f"{term.rel_diff:.3e}"
        tag = term.status
        if term.status == "erratum_suspected":
            tag += " (expected)" if term.expected else " (UNEXPECTED)"
        elif term.status == "ill_conditioned":
            tag += f" (gap within the closed form's error bound {term.bound:.3e})"
        violations += not term.passed
        print(
            f"B{index:<2} {term.case:<10} oracle {term.oracle:.12g}  "
            f"closed {closed}  rel {rel}  {tag}"
        )
    if violations:
        print(f"FAIL: {violations} coefficient(s) neither match their oracle "
              "nor lie in the locked erratum set")
        return 1
    print("PASS: closed forms agree with oracles up to the locked erratum set")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {args.config!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {args.config!r} is not valid JSON: {exc}") from exc
    if args.seed is not None and isinstance(data, dict):
        data["rng_seed"] = args.seed
    cfg = SweepConfig.from_dict(data)
    out_dir = os.path.dirname(args.out) or "."
    if not os.path.isdir(out_dir):
        raise ConfigError(f"--out: directory {out_dir!r} does not exist")
    if os.path.isdir(args.out):
        raise ConfigError(f"--out: {args.out!r} is a directory")
    report = run_sweep(cfg, jobs=args.jobs)
    emit_report(report, args.format, args.out)
    summary = report._summary
    print(f"instances {summary['instances']}  discarded {summary['discarded']}")
    print(f"identity  {summary['identity_pass']}/{summary['identity_total']}")
    for t in ("1", "2"):
        print(f"theorem{t}  {summary['bound_pass'][t]}/{summary['bound_total'][t]}")
    print(f"errata    expected {summary['expected_errata']}  "
          f"unexpected {summary['unexpected_errata']}")
    print(f"report    {args.out} ({args.format})")
    print("PASS" if summary["all_pass"] else "FAIL")
    return 0 if summary["all_pass"] else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "check-convexity": _cmd_check_convexity,
        "verify-identity": _cmd_verify_identity,
        "verify-bounds": _cmd_verify_bounds,
        "crosscheck": _cmd_crosscheck,
        "sweep": _cmd_sweep,
    }
    try:
        return handlers[args.command](args)
    except (ConfigError, ParameterError, DomainError, PreconditionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AccuracyError, EvaluationError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
