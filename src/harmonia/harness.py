"""Sweep harness: certified instance generation, verification matrix, reports.

A sweep draws random instances from configured parameter ranges, keeps only
those whose hypothesis (|f'|^q harmonically (s,m)-convex on [a, b/m]) passes
grid certification, and then runs the full verification matrix on each:
the integral identity, both theorem bounds at the instance triple and at the
three preset triples, and the twelve coefficient cross-checks.  Results are
flat rows (one per check) plus an erratum table; reports serialize to JSON
(versioned schema) or CSV (deterministic, byte-identical for a fixed config
and seed).
"""

from __future__ import annotations

import csv
import json
import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone

from .bounds import (
    CROSSCHECK_TOL,
    EXPECTED_COEFFICIENT_ERRATA,
    MARGIN_TOL,
    PRESETS,
    certify_instance,
    check_theorem,
    crosscheck_B,
    refuted_coarsely,
)
from .convexity import (
    ConvexityReport,
    FunctionSpec,
    format_function_spec,
    linear,
    parse_function_spec,
)
from .errors import AccuracyError, ConfigError, EvaluationError
from .identity import (
    IDENTITY_TOL,
    Instance,
    check_identity,
    rule_deviation,
    rule_deviation_as_printed,
)
from .quadrature import DEFAULT_SETTINGS, QuadSettings

SCHEMA = "harmonia/v1"

_DEFAULT_FAMILIES = ("linear", "power:c=1,p=2", "spower:b=1,s=0.5,c=0")


def _coerce(convert, value: object, name: str):
    """convert(value), with a bad value reported as a ConfigError naming it."""
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{name}: expected a number, got {value!r}") from None


def _is_int(value: object) -> bool:
    # bool subclasses int, but true/false where a count belongs is a mistake.
    return isinstance(value, int) and not isinstance(value, bool)


def _integral(value: object, name: str) -> int:
    """value as an int; a bool or a fractional number is a ConfigError."""
    if _is_int(value):
        return value
    if not isinstance(value, bool):
        number = _coerce(float, value, name)
        if number.is_integer():
            return int(number)
    raise ConfigError(f"{name}: expected an integer, got {value!r}")


def _check_jobs(jobs: object) -> None:
    if jobs is not None and not (_is_int(jobs) and jobs >= 1):
        raise ConfigError(f"jobs must be an integer >= 1 or null, got {jobs!r}")


@dataclass(frozen=True)
class SweepConfig:
    """Sweep parameters; JSON config files mirror these field names."""

    samples: int = 200
    rng_seed: int = 20260816
    a_range: tuple[float, float] = (0.5, 2.0)
    b_minus_a_range: tuple[float, float] = (0.1, 2.0)
    s_values: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    m_values: tuple[float, ...] = (0.25, 0.5, 0.75, 1.0)
    q_values: tuple[float, ...] = (1.0, 1.5, 2.0, 3.0)
    lambda_mu: object = "random"  # "random" | preset name | (lambda, mu)
    families: tuple[str, ...] = _DEFAULT_FAMILIES
    identity_tol: float = IDENTITY_TOL
    crosscheck_tol: float = CROSSCHECK_TOL
    margin_tol: float = MARGIN_TOL
    quad: QuadSettings = field(default_factory=lambda: DEFAULT_SETTINGS)
    jobs: int | None = None

    def __post_init__(self) -> None:
        if not (_is_int(self.samples) and self.samples >= 1):
            raise ConfigError(f"samples must be an integer >= 1, got {self.samples!r}")
        if not _is_int(self.rng_seed):
            raise ConfigError(f"rng_seed must be an integer, got {self.rng_seed!r}")
        lo, hi = self.a_range
        if not (0.0 < lo <= hi and math.isfinite(hi)):
            raise ConfigError(f"a_range must satisfy 0 < lo <= hi, got {self.a_range!r}")
        lo, hi = self.b_minus_a_range
        if not (0.0 < lo <= hi and math.isfinite(hi)):
            raise ConfigError(
                f"b_minus_a_range must satisfy 0 < lo <= hi, got {self.b_minus_a_range!r}"
            )
        for name, values, check in (
            ("s_values", self.s_values, lambda v: 0.0 < v <= 1.0),
            ("m_values", self.m_values, lambda v: 0.0 < v <= 1.0),
            ("q_values", self.q_values, lambda v: v >= 1.0),
        ):
            if not values:
                raise ConfigError(f"{name} must be nonempty")
            for v in values:
                if not (isinstance(v, (int, float)) and math.isfinite(v) and check(v)):
                    raise ConfigError(f"{name} entry {v!r} out of range")
        self._triple_mode()  # validates lambda_mu
        if not self.families:
            raise ConfigError("families must be nonempty")
        for spec in self.families:
            try:
                parse_function_spec(spec)
            except Exception as exc:
                raise ConfigError(f"unparseable family {spec!r}: {exc}") from exc
        for name, tol in (
            ("identity_tol", self.identity_tol),
            ("crosscheck_tol", self.crosscheck_tol),
            ("margin_tol", self.margin_tol),
        ):
            if not (isinstance(tol, (int, float)) and math.isfinite(tol) and tol > 0.0):
                raise ConfigError(f"{name} must be a positive real, got {tol!r}")
        if not isinstance(self.quad, QuadSettings):
            raise ConfigError(f"quad must be QuadSettings, got {type(self.quad).__name__}")
        _check_jobs(self.jobs)

    def _triple_mode(self) -> tuple[float, float] | None:
        """None means random admissible; otherwise the fixed (lambda, mu)."""
        lm = self.lambda_mu
        if lm == "random":
            return None
        if isinstance(lm, str):
            if lm in PRESETS:
                return PRESETS[lm]
            raise ConfigError(
                f"lambda_mu must be 'random', a preset {sorted(PRESETS)}, or a pair, got {lm!r}"
            )
        try:
            lam, mu = lm  # type: ignore[misc]
        except (TypeError, ValueError):
            raise ConfigError(f"lambda_mu pair expected, got {lm!r}") from None
        lam, mu = _coerce(float, lam, "lambda"), _coerce(float, mu, "mu")
        if not (0.0 <= mu <= 0.5 <= lam <= 1.0):
            raise ConfigError(
                f"lambda_mu pair must satisfy 0 <= mu <= 1/2 <= lambda <= 1, got {lm!r}"
            )
        return lam, mu

    def to_dict(self) -> dict:
        lm = self.lambda_mu
        if not isinstance(lm, str):
            lm = [float(lm[0]), float(lm[1])]
        return {
            "samples": self.samples,
            "rng_seed": self.rng_seed,
            "a_range": list(self.a_range),
            "b_minus_a_range": list(self.b_minus_a_range),
            "s_values": list(self.s_values),
            "m_values": list(self.m_values),
            "q_values": list(self.q_values),
            "lambda_mu": lm,
            "families": list(self.families),
            "identity_tol": self.identity_tol,
            "crosscheck_tol": self.crosscheck_tol,
            "margin_tol": self.margin_tol,
            "quad": {
                "abs_tol": self.quad.abs_tol,
                "rel_tol": self.quad.rel_tol,
                "max_subdivisions": self.quad.max_subdivisions,
            },
            "jobs": self.jobs,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        known = {
            "samples", "rng_seed", "a_range", "b_minus_a_range", "s_values",
            "m_values", "q_values", "lambda_mu", "families", "identity_tol",
            "crosscheck_tol", "margin_tol", "quad", "jobs",
        }
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        kwargs: dict = {}
        for key in ("samples", "rng_seed", "jobs"):
            if key in data:
                kwargs[key] = data[key]
        for key in ("a_range", "b_minus_a_range"):
            if key in data:
                pair = data[key]
                if not (isinstance(pair, (list, tuple)) and len(pair) == 2):
                    raise ConfigError(f"{key} must be a [lo, hi] pair, got {pair!r}")
                kwargs[key] = (_coerce(float, pair[0], key), _coerce(float, pair[1], key))
        for key in ("s_values", "m_values", "q_values"):
            if key in data:
                vals = data[key]
                if not isinstance(vals, (list, tuple)):
                    raise ConfigError(f"{key} must be a list, got {vals!r}")
                kwargs[key] = tuple(_coerce(float, v, key) for v in vals)
        if "lambda_mu" in data:
            lm = data["lambda_mu"]
            kwargs["lambda_mu"] = tuple(lm) if isinstance(lm, (list, tuple)) else lm
        if "families" in data:
            fams = data["families"]
            if not isinstance(fams, (list, tuple)):
                raise ConfigError(f"families must be a list, got {fams!r}")
            kwargs["families"] = tuple(str(f) for f in fams)
        for key in ("identity_tol", "crosscheck_tol", "margin_tol"):
            if key in data:
                kwargs[key] = _coerce(float, data[key], key)
        if "quad" in data:
            qd = data["quad"]
            if not isinstance(qd, dict):
                raise ConfigError(f"quad must be an object, got {qd!r}")
            qknown = {"abs_tol", "rel_tol", "max_subdivisions"}
            if set(qd) - qknown:
                raise ConfigError(f"unknown quad keys: {sorted(set(qd) - qknown)}")
            d = DEFAULT_SETTINGS
            kwargs["quad"] = QuadSettings(
                abs_tol=_coerce(float, qd.get("abs_tol", d.abs_tol), "abs_tol"),
                rel_tol=_coerce(float, qd.get("rel_tol", d.rel_tol), "rel_tol"),
                max_subdivisions=_integral(
                    qd.get("max_subdivisions", d.max_subdivisions), "max_subdivisions"
                ),
            )
        return cls(**kwargs)


@dataclass(frozen=True)
class Row:
    """One verification row: a single check on a single instance."""

    instance_id: int
    family: str
    a: float
    b: float
    s: float
    m: float
    q: float
    lambda_: float
    mu_: float
    check: str
    lhs: float
    rhs: float
    margin: float
    passed: bool


@dataclass
class RunReport:
    """Aggregated sweep results."""

    config: SweepConfig
    instances: int
    discarded: int
    rows: list[Row]
    errata: list[dict]
    wall_time: float

    @property
    def identity_total(self) -> int:
        return sum(1 for r in self.rows if r.check == "identity")

    @property
    def identity_pass(self) -> int:
        return sum(1 for r in self.rows if r.check == "identity" and r.passed)

    def bound_total(self, theorem: int) -> int:
        prefix = f"theorem{theorem}@"
        return sum(1 for r in self.rows if r.check.startswith(prefix))

    def bound_pass(self, theorem: int) -> int:
        prefix = f"theorem{theorem}@"
        return sum(1 for r in self.rows if r.check.startswith(prefix) and r.passed)

    def worst_margin(self, theorem: int) -> float | None:
        prefix = f"theorem{theorem}@"
        margins = [
            r.margin for r in self.rows
            if r.check.startswith(prefix) and math.isfinite(r.margin)
        ]
        return min(margins) if margins else None

    @property
    def expected_errata(self) -> int:
        return sum(1 for e in self.errata if e["expected"])

    @property
    def unexpected_errata(self) -> int:
        return sum(1 for e in self.errata if not e["expected"])

    @property
    def failures(self) -> int:
        return sum(1 for r in self.rows if not r.passed)

    @property
    def all_pass(self) -> bool:
        return self.failures == 0


def generate_instances(
    cfg: SweepConfig, *, with_certificates: bool = False
) -> tuple[list[Instance], int] | tuple[list[Instance], int, list[ConvexityReport]]:
    """Draw and grid-certify instances; returns (instances, discard count).

    Candidates whose |f'|^q fails certification on [a, b/m] (or has no
    derivative evaluator) are discarded and counted.  A candidate that a
    subgrid of the certification grid already refutes is discarded without
    the full grid; the discard set is the same.  Draw order is fixed, so a
    given seed always yields the same list.  With ``with_certificates``
    the result gains a third item: each instance's ConvexityReport, in
    instance order.
    """
    rng = random.Random(cfg.rng_seed)
    families = [parse_function_spec(s) for s in cfg.families]
    fixed_triple = cfg._triple_mode()
    instances: list[Instance] = []
    certificates: list[ConvexityReport] = []
    discarded = 0
    attempts = 0
    max_attempts = cfg.samples * 50
    while len(instances) < cfg.samples and attempts < max_attempts:
        attempts += 1
        f = rng.choice(families)
        a = rng.uniform(*cfg.a_range)
        b = a + rng.uniform(*cfg.b_minus_a_range)
        s = rng.choice(cfg.s_values)
        m = rng.choice(cfg.m_values)
        q = rng.choice(cfg.q_values)
        if fixed_triple is None:
            mu = rng.uniform(0.0, 0.5)
            lam = rng.uniform(0.5, 1.0)
        else:
            lam, mu = fixed_triple
        inst = Instance(a=a, b=b, s=s, m=m, q=q, lambda_=lam, mu_=mu, f=f)
        try:
            report = None if refuted_coarsely(inst) else certify_instance(inst)
        except EvaluationError:
            discarded += 1
            continue
        if report is not None and report.holds:
            instances.append(inst)
            certificates.append(report)
        else:
            discarded += 1
    if not instances:
        raise ConfigError(
            "no candidate instance could be certified; the configured families "
            "do not satisfy the convexity hypothesis on the configured ranges"
        )
    if len(instances) < cfg.samples:
        raise ConfigError(
            f"only {len(instances)} of {cfg.samples} requested instances certified "
            f"after {max_attempts} draws; widen the ranges or change families"
        )
    if with_certificates:
        return instances, discarded, certificates
    return instances, discarded


def _nan_row(inst_id: int, inst: Instance, check: str) -> Row:
    nan = float("nan")
    return Row(
        instance_id=inst_id, family=format_function_spec(inst.f),
        a=inst.a, b=inst.b, s=inst.s, m=inst.m, q=inst.q,
        lambda_=inst.lambda_, mu_=inst.mu_, check=check,
        lhs=nan, rhs=nan, margin=nan, passed=False,
    )


def _instance_rows(payload: tuple) -> tuple[list[Row], list[dict]]:
    """Verification matrix for one certified instance (worker-safe).

    One memo, dropped on return, lets the rows share every integral average,
    kernel oracle and 2F1 value that they have in common.
    """
    inst_id, inst, certificate, identity_tol, crosscheck_tol, margin_tol, quad = payload
    family = format_function_spec(inst.f)
    rows: list[Row] = []
    errata: list[dict] = []
    memo: dict = {}

    def add(check: str, lhs: float, rhs: float, margin: float, passed: bool) -> None:
        rows.append(Row(
            instance_id=inst_id, family=family, a=inst.a, b=inst.b, s=inst.s,
            m=inst.m, q=inst.q, lambda_=inst.lambda_, mu_=inst.mu_,
            check=check, lhs=lhs, rhs=rhs, margin=margin, passed=passed,
        ))

    # The payload carries the ConvexityReport generate_instances computed
    # for this instance; check_theorem still refuses one that does not hold.

    try:
        ic = check_identity(inst, settings=quad, tol=identity_tol, memo=memo)
        add("identity", ic.lhs, ic.rhs, ic.tol - ic.abs_diff, ic.passed)
    except (AccuracyError, EvaluationError):
        rows.append(_nan_row(inst_id, inst, "identity"))

    triples = [("instance", (inst.lambda_, inst.mu_))] + [
        (name, (lam, mu)) for name, (lam, mu) in PRESETS.items()
    ]
    theorems = (1,) if inst.q == 1.0 else (1, 2)
    for theorem in theorems:
        for name, (lam, mu) in triples:
            check = f"theorem{theorem}@{name}"
            tri = replace(inst, lambda_=lam, mu_=mu)
            try:
                verdict = check_theorem(
                    tri, theorem, settings=quad, certificate=certificate,
                    margin_tol=margin_tol, memo=memo,
                )
                add(check, verdict.lhs, verdict.rhs, verdict.margin, verdict.passed)
            except (AccuracyError, EvaluationError):
                rows.append(_nan_row(inst_id, tri, check))

    p = inst.q / (inst.q - 1.0) if inst.q > 1.0 else None
    for index in range(1, 13):
        if index in (7, 10) and p is None:
            continue  # conjugate exponent undefined at q=1
        try:
            term = crosscheck_B(
                index, inst, p=p, settings=quad, tol=crosscheck_tol, memo=memo
            )
        except (AccuracyError, EvaluationError):
            rows.append(_nan_row(inst_id, inst, f"crosscheck:B{index}:?"))
            continue
        expected = (index, term.case) in EXPECTED_COEFFICIENT_ERRATA
        if term.status == "erratum_suspected":
            errata.append({
                "index": index,
                "case": term.case,
                "oracle": term.oracle,
                "closed_form": term.closed_form,
                "rel_diff": term.rel_diff,
                "status": term.status,
                "instance_id": inst_id,
                "expected": expected,
            })
        closed = term.closed_form if term.closed_form is not None else float("nan")
        rel = term.rel_diff if term.rel_diff is not None else float("nan")
        passed = term.status == "ok" or (term.status == "erratum_suspected" and expected)
        add(f"crosscheck:B{index}:{term.case}", term.oracle, closed,
            crosscheck_tol - rel, passed)
    return rows, errata


def _printed_lock_row() -> Row:
    """Regression row: the printed deviation display vs the corrected one.

    Locks the erratum on the canonical case f(x)=x, a=1, b=2, trapezoid
    triple: the two displays must keep disagreeing by at least 0.5.
    """
    inst = Instance(a=1.0, b=2.0, s=1.0, m=1.0, q=1.0, lambda_=0.5, mu_=0.5, f=linear())
    printed = rule_deviation_as_printed(inst)
    corrected = rule_deviation(inst)
    gap = abs(printed - corrected)
    return Row(
        instance_id=-1, family="linear", a=1.0, b=2.0, s=1.0, m=1.0, q=1.0,
        lambda_=0.5, mu_=0.5, check="printed_deviation_lock",
        lhs=printed, rhs=corrected, margin=gap - 0.5, passed=gap >= 0.5,
    )


def run_sweep(cfg: SweepConfig, jobs: int | None = None) -> RunReport:
    """Execute the full verification matrix; never aborts on row failures.

    ``jobs`` overrides cfg.jobs under the same rule (an integer >= 1 or
    None); the default is the machine's core count.  Parallel and serial
    execution produce identical reports: work is split per instance and
    merged back in instance order.
    """
    _check_jobs(jobs)
    start = time.perf_counter()
    instances, discarded, certificates = generate_instances(cfg, with_certificates=True)
    payloads = [
        (i, inst, cert, cfg.identity_tol, cfg.crosscheck_tol, cfg.margin_tol, cfg.quad)
        for i, (inst, cert) in enumerate(zip(instances, certificates))
    ]
    if jobs is None:
        jobs = cfg.jobs
    if jobs is None:
        jobs = os.cpu_count() or 1
    if jobs == 1 or len(payloads) == 1:
        results = [_instance_rows(p) for p in payloads]
    else:
        chunk = max(1, len(payloads) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_instance_rows, payloads, chunksize=chunk))
    rows: list[Row] = []
    errata: list[dict] = []
    for r, e in results:
        rows.extend(r)
        errata.extend(e)
    rows.append(_printed_lock_row())

    finite = sum(1 for r in rows if math.isfinite(r.lhs) or math.isfinite(r.rhs))
    if len(rows) >= 10 and finite < len(rows) / 2:
        raise AccuracyError(
            "systemic quadrature failure: most rows failed to evaluate",
            failed=len(rows) - finite, total=len(rows),
        )
    return RunReport(
        config=cfg, instances=len(instances), discarded=discarded,
        rows=rows, errata=errata, wall_time=time.perf_counter() - start,
    )


def _g17(x: float) -> str:
    return format(float(x), ".17g")


def _jsonable(x: float) -> float | None:
    # Strict JSON has no NaN/Infinity; failed-row placeholders become null.
    return x if math.isfinite(x) else None


def report_to_dict(report: RunReport) -> dict:
    """Nested JSON form under the versioned schema key."""
    return {
        "schema": SCHEMA,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "wall_time": report.wall_time,
        "config": report.config.to_dict(),
        "summary": {
            "instances": report.instances,
            "discarded": report.discarded,
            "identity_pass": report.identity_pass,
            "identity_total": report.identity_total,
            "bound_pass": {"1": report.bound_pass(1), "2": report.bound_pass(2)},
            "bound_total": {"1": report.bound_total(1), "2": report.bound_total(2)},
            "worst_margin": {"1": report.worst_margin(1), "2": report.worst_margin(2)},
            "expected_errata": report.expected_errata,
            "unexpected_errata": report.unexpected_errata,
            "failures": report.failures,
            "all_pass": report.all_pass,
        },
        "errata": report.errata,
        "rows": [
            {
                "instance_id": r.instance_id, "family": r.family,
                "a": r.a, "b": r.b, "s": r.s, "m": r.m, "q": r.q,
                "lambda": r.lambda_, "mu": r.mu_, "check": r.check,
                "lhs": _jsonable(r.lhs), "rhs": _jsonable(r.rhs),
                "margin": _jsonable(r.margin), "pass": r.passed,
            }
            for r in report.rows
        ],
    }


CSV_COLUMNS = (
    "instance_id", "family", "a", "b", "s", "m", "q", "lambda", "mu",
    "check", "lhs", "rhs", "margin", "pass",
)


def emit_report(report: RunReport, format: str, destination: str) -> None:
    """Write the report; CSV is deterministic for a fixed config and seed."""
    if format == "json":
        payload = report_to_dict(report)
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True, allow_nan=False)
            fh.write("\n")
        return
    if format == "csv":
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(CSV_COLUMNS)
            for r in report.rows:
                writer.writerow([
                    r.instance_id, r.family,
                    _g17(r.a), _g17(r.b), _g17(r.s), _g17(r.m), _g17(r.q),
                    _g17(r.lambda_), _g17(r.mu_), r.check,
                    _g17(r.lhs), _g17(r.rhs), _g17(r.margin),
                    "true" if r.passed else "false",
                ])
        return
    raise ConfigError(f"format must be 'json' or 'csv', got {format!r}")
