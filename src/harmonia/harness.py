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
import numbers
import os
import random
import time
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace
from datetime import datetime, timezone
from operator import attrgetter

from .bounds import (
    CROSSCHECK_TOL,
    PRESETS,
    _require_band,
    case_label,
    certify_instance,
    check_theorem,
    crosscheck_B,
    crosscheck_plan,
    refuted_coarsely,
)
from .convexity import (
    ConvexityReport,
    format_function_spec,
    linear,
    parse_function_spec,
)
from .errors import AccuracyError, ConfigError, EvaluationError, HarmoniaError, ParameterError
from .identity import (
    Instance,
    check_identity,
    rule_deviation,
    rule_deviation_as_printed,
)

SCHEMA = "harmonia/v1"

_DEFAULT_FAMILIES = ("linear", "power:c=1,p=2", "spower:b=1,s=0.5,c=0")


def _as_float(value: object) -> float | None:
    """value as a finite float, or None if it is no finite real number.

    bool subclasses int, but true/false where a number belongs is a
    mistake, and so is a string that spells one.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        return None
    try:
        x = float(value)
    except OverflowError:
        return None
    return x if math.isfinite(x) else None


def _as_int(value: object) -> int | None:
    """value as an int (an integral float counts), or None."""
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    x = _as_float(value)
    return int(x) if x is not None and x.is_integer() else None


def _as_floats(value: object) -> tuple[float, ...] | None:
    """A nonempty list or tuple of finite numbers as a tuple of floats, or None."""
    if not isinstance(value, (list, tuple)):
        return None
    items = tuple(map(_as_float, value))
    return items if items and None not in items else None


def _as_triple(value: object) -> str | tuple[float, ...] | None:
    """'random' or a preset name as given, an admissible (lambda, mu) pair, or None."""
    if isinstance(value, str):
        return value if value == "random" or value in PRESETS else None
    pair = _as_floats(value)
    if pair is None or len(pair) != 2:
        return None
    try:
        _require_band(mu_=pair[1], lambda_=pair[0])
    except ParameterError:
        return None
    return pair


def _reader(convert, what: str, ok=lambda x: True, *, nullable: bool = False):
    """A field reader: convert(value) if ok, else a ConfigError naming the field."""

    def read(value: object, name: str):
        if value is None and nullable:
            return None
        x = convert(value)
        if x is None or not ok(x):
            raise ConfigError(f"{name} must be {what}, got {value!r}")
        return x

    return read


_integer = _reader(_as_int, "an integer")
_count = _reader(_as_int, "an integer >= 1", lambda n: n >= 1)
_read_jobs = _reader(_as_int, "an integer >= 1 or None", lambda n: n >= 1, nullable=True)
_range = _reader(
    _as_floats, "a [lo, hi] pair with 0 < lo <= hi", lambda p: len(p) == 2 and 0.0 < p[0] <= p[1]
)
_unit_values = _reader(
    _as_floats, "a nonempty list of numbers in (0, 1]", lambda xs: all(0.0 < x <= 1.0 for x in xs)
)
_q_values = _reader(
    _as_floats, "a nonempty list of numbers >= 1", lambda xs: all(x >= 1.0 for x in xs)
)
_lambda_mu = _reader(
    _as_triple, f"'random', a preset {sorted(PRESETS)}, or a (lambda, mu) pair "
    "with 0 <= mu <= 1/2 <= lambda <= 1",
)
_specs = _reader(
    lambda v: tuple(v) if isinstance(v, (list, tuple)) else None,
    "a nonempty list of function specs", lambda t: t and all(isinstance(s, str) for s in t),
)


def _families(value: object, name: str) -> tuple[str, ...]:
    specs = _specs(value, name)
    for spec in specs:
        try:
            parse_function_spec(spec)
        except HarmoniaError as exc:
            raise ConfigError(f"{name}: unparseable family {spec!r}: {exc}") from exc
    return specs


def _field(default, read):
    return field(default=default, metadata={"read": read})


@dataclass(frozen=True)
class SweepConfig:
    """What a sweep samples; JSON config files mirror these field names.

    Each field names its reader, which checks the value and normalises it
    (numbers to float or int, lists to tuples) on every construction path.
    Every check runs at its library defaults (tolerances, quadrature
    settings); parallelism is ``run_sweep``'s ``jobs`` argument alone.
    """

    samples: int = _field(200, _count)
    rng_seed: int = _field(20260816, _integer)
    a_range: tuple[float, float] = _field((0.5, 2.0), _range)
    b_minus_a_range: tuple[float, float] = _field((0.1, 2.0), _range)
    s_values: tuple[float, ...] = _field((0.25, 0.5, 0.75, 1.0), _unit_values)
    m_values: tuple[float, ...] = _field((0.25, 0.5, 0.75, 1.0), _unit_values)
    q_values: tuple[float, ...] = _field((1.0, 1.5, 2.0, 3.0), _q_values)
    lambda_mu: object = _field("random", _lambda_mu)  # "random" | preset name | (lambda, mu)
    families: tuple[str, ...] = _field(_DEFAULT_FAMILIES, _families)

    def __post_init__(self) -> None:
        for f in fields(self):
            object.__setattr__(self, f.name, f.metadata["read"](getattr(self, f.name), f.name))

    def _triple_mode(self) -> tuple[float, float] | None:
        """None means random admissible; otherwise the fixed (lambda, mu)."""
        lm = self.lambda_mu
        if lm == "random":
            return None
        return PRESETS[lm] if isinstance(lm, str) else lm

    def to_dict(self) -> dict:
        return {k: list(v) if isinstance(v, tuple) else v for k, v in vars(self).items()}

    @classmethod
    def from_dict(cls, data: dict) -> "SweepConfig":
        if not isinstance(data, dict):
            raise ConfigError(f"config must be a JSON object, got {type(data).__name__}")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        return cls(**data)


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


def generate_instances(cfg: SweepConfig) -> tuple[list[Instance], int, list[ConvexityReport]]:
    """Draw and grid-certify instances; returns (instances, discard count,
    each instance's ConvexityReport in instance order).

    Candidates whose |f'|^q fails certification on [a, b/m] (or has no
    derivative evaluator) are discarded and counted.  A candidate that a
    subgrid of the certification grid already refutes is discarded without
    the full grid; the discard set is the same.  Draw order is fixed, so a
    given seed always yields the same list.
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
    return instances, discarded, certificates


_NAN = float("nan")


def _row(
    inst_id: int, family: str, inst: Instance, check: str,
    lhs: float = _NAN, rhs: float = _NAN, margin: float = _NAN, passed: bool = False,
) -> Row:
    """The row of one check on inst; without values it is a failed row."""
    return Row(
        instance_id=inst_id, family=family, a=inst.a, b=inst.b, s=inst.s, m=inst.m,
        q=inst.q, lambda_=inst.lambda_, mu_=inst.mu_, check=check,
        lhs=lhs, rhs=rhs, margin=margin, passed=passed,
    )


def _instance_rows(payload: tuple) -> tuple[list[Row], list[dict]]:
    """Verification matrix for one certified instance (worker-safe).

    One memo, dropped on return, lets the rows share every integral average,
    kernel oracle and 2F1 value that they have in common.
    """
    inst_id, inst, certificate = payload
    family = format_function_spec(inst.f)
    rows: list[Row] = []
    errata: list[dict] = []
    memo: dict = {}

    # The payload carries the ConvexityReport generate_instances computed
    # for this instance; check_theorem still refuses one that does not hold.

    try:
        ic = check_identity(inst, memo=memo)
        rows.append(_row(inst_id, family, inst, "identity",
                         ic.lhs, ic.rhs, ic.tol - ic.abs_diff, ic.passed))
    except (AccuracyError, EvaluationError):
        rows.append(_row(inst_id, family, inst, "identity"))

    theorems, indices = crosscheck_plan(inst.q)
    triples = [("instance", (inst.lambda_, inst.mu_)), *PRESETS.items()]
    for theorem in theorems:
        for name, (lam, mu) in triples:
            check = f"theorem{theorem}@{name}"
            tri = replace(inst, lambda_=lam, mu_=mu)
            try:
                verdict = check_theorem(tri, theorem, certificate=certificate, memo=memo)
                rows.append(_row(inst_id, family, inst, check, verdict.lhs, verdict.rhs,
                                 verdict.margin, verdict.passed))
            except (AccuracyError, EvaluationError):
                rows.append(_row(inst_id, family, inst, check))

    for index in indices:
        check = f"crosscheck:B{index}:{case_label(index, inst)}"
        try:
            term = crosscheck_B(index, inst, memo=memo)
        except (AccuracyError, EvaluationError):
            rows.append(_row(inst_id, family, inst, check))
            continue
        if term.status == "erratum_suspected":
            # vars, not asdict: the fields are flat; asdict's deep copy costs ~1% of a sweep.
            entry = {**vars(term), "instance_id": inst_id, "expected": term.expected}
            del entry["bound"]  # an erratum's gap exceeds it by definition; keep the table's keys
            errata.append(entry)
        closed = term.closed_form if term.closed_form is not None else _NAN
        rel = term.rel_diff if term.rel_diff is not None else _NAN
        rows.append(_row(inst_id, family, inst, check,
                         term.oracle, closed, CROSSCHECK_TOL - rel, term.passed))
    return rows, errata


def _printed_lock_row() -> Row:
    """Regression row: the printed deviation display vs the corrected one.

    Locks the erratum on the canonical case f(x)=x, a=1, b=2, trapezoid
    triple: the two displays must keep disagreeing by at least 0.5.
    """
    inst = Instance(a=1.0, b=2.0, s=1.0, m=1.0, q=1.0, lambda_=0.5, mu_=0.5, f=linear())
    try:
        printed = rule_deviation_as_printed(inst)
        corrected = rule_deviation(inst)
    except (AccuracyError, EvaluationError):
        return _row(-1, "linear", inst, "printed_deviation_lock")
    gap = abs(printed - corrected)
    return _row(-1, "linear", inst, "printed_deviation_lock",
                printed, corrected, gap - 0.5, gap >= 0.5)


def run_sweep(cfg: SweepConfig, jobs: int | None = None) -> RunReport:
    """Execute the full verification matrix; never aborts on row failures.

    ``jobs`` is the number of worker processes, an integer >= 1 or None
    for the machine's core count; it is the only way to set parallelism.
    Parallel and serial execution produce identical reports: work is split
    per instance and merged back in instance order.
    """
    jobs = _read_jobs(jobs, "jobs") or os.cpu_count() or 1
    start = time.perf_counter()
    instances, discarded, certificates = generate_instances(cfg)
    payloads = [(i, inst, cert) for i, (inst, cert) in enumerate(zip(instances, certificates))]
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


_g17 = "{:.17g}".format
_flag = ("false", "true").__getitem__  # CSV text of a bool


def _finite_or_null(x: float) -> float | None:
    # Strict JSON has no NaN/Infinity; failed-row placeholders become null.
    return x if math.isfinite(x) else None


# Report column -> (Row field, CSV cell, JSON value); None writes the field
# as it is.  Both reports write these columns in this order.
_COLUMNS = {
    "instance_id": ("instance_id", None, None),
    "family": ("family", None, None),
    "a": ("a", _g17, None),
    "b": ("b", _g17, None),
    "s": ("s", _g17, None),
    "m": ("m", _g17, None),
    "q": ("q", _g17, None),
    "lambda": ("lambda_", _g17, None),
    "mu": ("mu_", _g17, None),
    "check": ("check", None, None),
    "lhs": ("lhs", _g17, _finite_or_null),
    "rhs": ("rhs", _g17, _finite_or_null),
    "margin": ("margin", _g17, _finite_or_null),
    "pass": ("passed", _flag, None),
}
CSV_COLUMNS = tuple(_COLUMNS)
_FIELDS, _CSV_CELLS, _JSON_VALUES = zip(*_COLUMNS.values())


def _table(rows: list[Row], formats: tuple) -> Iterator[tuple]:
    """Each row's formatted values as a tuple, formatted a column at a time."""
    columns = (map(attrgetter(name), rows) for name in _FIELDS)
    return zip(*(col if fmt is None else map(fmt, col) for col, fmt in zip(columns, formats)))


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
        "rows": [dict(zip(CSV_COLUMNS, cells)) for cells in _table(report.rows, _JSON_VALUES)],
    }


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
            writer.writerows(_table(report.rows, _CSV_CELLS))
        return
    raise ConfigError(f"format must be 'json' or 'csv', got {format!r}")
