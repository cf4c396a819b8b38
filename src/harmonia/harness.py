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
import io
import json
import math
import numbers
import os
import random
import time
from collections import defaultdict
from collections.abc import Iterator
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields
from datetime import datetime, timezone
from functools import cache, cached_property, partial
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import TextIO

from .bounds import (
    BoundTerm,
    PRESETS,
    _oracle_pass,
    _require_band,
    _triples,
    case_label,
    certify_instance,
    check_theorem,
    crosscheck_B,
    crosscheck_plan,
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


def _summary_entry(key: str) -> property:
    return property(lambda report: report._summary[key], doc=f"The summary's {key!r}.")


@dataclass
class RunReport:
    """Aggregated sweep results; each accessor reads its entry of _summary.

    A report is read-only once run_sweep returns it: the summary is built
    on its first read and kept, so changing rows or errata in place would
    leave it stale (dataclasses.replace makes a new report).
    """

    config: SweepConfig
    instances: int
    discarded: int
    rows: list[Row]
    errata: list[dict]
    wall_time: float

    @cached_property
    def _summary(self) -> dict:
        """The JSON report's summary, from one pass over the rows and one
        over the errata.  A row counts towards the first nine characters of
        its check: "identity", "theorem1@", "theorem2@" or another kind."""
        tally: dict = defaultdict(lambda: [0, 0, math.inf])  # total, passed, least finite margin
        for r in self.rows:
            t = tally[r.check[:9]]
            t[0] += 1
            t[1] += bool(r.passed)
            if r.margin < t[2] and math.isfinite(r.margin):
                t[2] = r.margin
        failures = len(self.rows) - sum(t[1] for t in tally.values())
        expected = sum(1 for e in self.errata if e["expected"])
        identity = tally["identity"]
        bounds = {t: tally[f"theorem{t}@"] for t in ("1", "2")}
        return {
            "instances": self.instances,
            "discarded": self.discarded,
            "identity_pass": identity[1],
            "identity_total": identity[0],
            "bound_pass": {t: b[1] for t, b in bounds.items()},
            "bound_total": {t: b[0] for t, b in bounds.items()},
            "worst_margin": {t: b[2] if b[2] < math.inf else None for t, b in bounds.items()},
            "expected_errata": expected,
            "unexpected_errata": len(self.errata) - expected,
            "failures": failures,
            "all_pass": failures == 0,
        }

    identity_total = _summary_entry("identity_total")
    identity_pass = _summary_entry("identity_pass")
    expected_errata = _summary_entry("expected_errata")
    unexpected_errata = _summary_entry("unexpected_errata")
    failures = _summary_entry("failures")
    all_pass = _summary_entry("all_pass")

    def bound_total(self, theorem: int) -> int:
        return self._summary["bound_total"][str(theorem)]

    def bound_pass(self, theorem: int) -> int:
        return self._summary["bound_pass"][str(theorem)]

    def worst_margin(self, theorem: int) -> float | None:
        return self._summary["worst_margin"][str(theorem)]


def _certified(cfg: SweepConfig) -> Iterator[tuple[Instance, ConvexityReport, int]]:
    """Draw and grid-certify candidates; yields (instance, certificate,
    discarded) for each certified instance, in draw order.

    discarded counts the candidates dropped before that instance, so the
    last triple carries the sweep's count: the draws stop at the
    cfg.samples-th instance.  Each candidate is certified by one
    certify_instance call; one whose |f'|^q fails certification on
    [a, b/m] (or has no derivative evaluator) is discarded.  When the draws
    run out first, ConfigError is raised after the last instance found.
    """
    rng = random.Random(cfg.rng_seed)
    families = [parse_function_spec(s) for s in cfg.families]
    fixed_triple = cfg._triple_mode()
    certified = 0
    discarded = 0
    attempts = 0
    max_attempts = cfg.samples * 50
    while certified < cfg.samples and attempts < max_attempts:
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
            report = certify_instance(inst)
        except EvaluationError:
            discarded += 1
            continue
        if report.holds:
            certified += 1
            yield inst, report, discarded
        else:
            discarded += 1
    if not certified:
        raise ConfigError(
            "no candidate instance could be certified; the configured families "
            "do not satisfy the convexity hypothesis on the configured ranges"
        )
    if certified < cfg.samples:
        raise ConfigError(
            f"only {certified} of {cfg.samples} requested instances certified "
            f"after {max_attempts} draws; widen the ranges or change families"
        )


def generate_instances(cfg: SweepConfig) -> tuple[list[Instance], int, list[ConvexityReport]]:
    """Draw and grid-certify instances; returns (instances, discard count,
    each instance's ConvexityReport in instance order), as _certified draws
    and certifies them.  Draw order is fixed, so a given seed always yields
    the same list.
    """
    instances, certificates, discards = zip(*_certified(cfg))
    return list(instances), discards[-1], list(certificates)


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

    The payload is (id, instance, certificate): run_sweep's parent has
    certified the instance, and on the pool path it streams such payloads
    to the workers in batches, so no worker certifies.  Each row runs one (name, call) check: a call that raises gives a failed
    row, any other takes its pass and margin from the verdict record the call
    returns, whose module holds the rule.  A crosscheck row writes the oracle
    and the closed form as lhs and rhs; an erratum_suspected term also enters
    the errata.  check_theorem refuses a payload certificate that does not
    hold.  One memo, dropped on return, lets the rows share every integral
    average, kernel oracle and 2F1 value that they have in common; before
    the checks run, bounds' batched pass puts in it every kernel oracle the
    rows read, and the rows compute alone only the oracles it could not.
    The pass and the theorem rows share the memo's one Instance per triple.
    """
    inst_id, inst, certificate = payload
    family = format_function_spec(inst.f)
    memo: dict = {}
    _oracle_pass(inst, memo)
    theorems, indices = crosscheck_plan(inst.q)
    triples = _triples(inst, memo)
    checks = [("identity", partial(check_identity, inst, memo=memo))]
    checks += [
        (f"theorem{theorem}@{name}",
         partial(check_theorem, tri, theorem, certificate=certificate, memo=memo))
        for theorem in theorems for name, tri in triples.items()
    ]
    checks += [
        (f"crosscheck:B{index}:{case_label(index, inst)}",
         partial(crosscheck_B, index, inst, memo=memo))
        for index in indices
    ]
    rows: list[Row] = []
    errata: list[dict] = []
    for check, call in checks:
        try:
            record = call()
        except (AccuracyError, EvaluationError):
            rows.append(_row(inst_id, family, inst, check))
            continue
        if isinstance(record, BoundTerm):
            if record.status == "erratum_suspected":
                # vars, not asdict: the fields are flat; asdict's deep copy costs ~1% of a sweep.
                entry = {**vars(record), "instance_id": inst_id, "expected": record.expected}
                del entry["bound"]  # its gap exceeds the bound by definition; keep the table's keys
                errata.append(entry)
            lhs, rhs = record.oracle, _NAN if record.closed_form is None else record.closed_form
        else:
            lhs, rhs = record.lhs, record.rhs
        rows.append(_row(inst_id, family, inst, check, lhs, rhs, record.margin, record.passed))
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
    per instance and merged back in instance order.  The parent alone
    certifies.  With more than one job it opens the pool first and submits
    the certified instances in batches as the draws find them, so the
    workers evaluate rows while the parent certifies the next candidates;
    if the draws raise, the queued batches are cancelled.
    """
    jobs = _read_jobs(jobs, "jobs") or os.cpu_count() or 1
    start = time.perf_counter()
    if jobs == 1 or cfg.samples == 1:
        instances, discarded, certificates = generate_instances(cfg)
        results = [
            _instance_rows((i, inst, cert))
            for i, (inst, cert) in enumerate(zip(instances, certificates))
        ]
    else:
        # About twelve batches per worker: the first reaches the pool early.
        size = max(1, cfg.samples // (12 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            batches, batch = [], []
            try:
                for i, (inst, cert, discarded) in enumerate(_certified(cfg)):
                    batch.append((i, inst, cert))
                    if len(batch) == size or i + 1 == cfg.samples:
                        batches.append(pool.map(_instance_rows, batch, chunksize=size))
                        batch = []
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
            results = [result for chunk in batches for result in chunk]
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
        config=cfg, instances=len(results), discarded=discarded,
        rows=rows, errata=errata, wall_time=time.perf_counter() - start,
    )


_g17 = "{:.17g}".format
_flag = ("false", "true").__getitem__  # CSV and JSON text of a bool
_json_int = int.__repr__


def _finite_or_null(x: float) -> float | None:
    # Strict JSON has no NaN/Infinity; failed-row placeholders become null.
    return x if math.isfinite(x) else None


def _json_float(x: float) -> str:
    """x as json.dump writes a float with allow_nan=False."""
    if math.isfinite(x):
        return float.__repr__(x)
    raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")


def _json_float_or_null(x: float) -> str:
    return float.__repr__(x) if math.isfinite(x) else "null"


# Report column -> (Row field, CSV cell, JSON value, JSON text).  A format
# names a function of this module, looked up each time a report is written
# (so a formatter replaced at run time, say to count its calls, is used);
# None writes the field as it is.  Both reports write these columns; the
# CSV in this order, the JSON with its keys sorted.
_COLUMNS = {
    "instance_id": ("instance_id", None, None, "_json_int"),
    "family": ("family", None, None, "encode_basestring_ascii"),
    "a": ("a", "_g17", None, "_json_float"),
    "b": ("b", "_g17", None, "_json_float"),
    "s": ("s", "_g17", None, "_json_float"),
    "m": ("m", "_g17", None, "_json_float"),
    "q": ("q", "_g17", None, "_json_float"),
    "lambda": ("lambda_", "_g17", None, "_json_float"),
    "mu": ("mu_", "_g17", None, "_json_float"),
    "check": ("check", None, None, "encode_basestring_ascii"),
    "lhs": ("lhs", "_g17", "_finite_or_null", "_json_float_or_null"),
    "rhs": ("rhs", "_g17", "_finite_or_null", "_json_float_or_null"),
    "margin": ("margin", "_g17", "_finite_or_null", "_json_float_or_null"),
    "pass": ("passed", "_flag", None, "_flag"),
}
CSV_COLUMNS = tuple(_COLUMNS)
_FIELDS, _CSV_CELLS, _JSON_VALUES, _JSON_TEXTS = zip(*_COLUMNS.values())
# The columns _row copies from the instance: all rows of one instance
# repeat them, so the writers format them once per run of such rows.
_RUN_COLUMNS = CSV_COLUMNS[:CSV_COLUMNS.index("check")]
_RUN_FIELDS = _FIELDS[:len(_RUN_COLUMNS)]
# A row's run key: its instance cells, then their classes (1 == 1.0 == True).
_run_key = attrgetter(*_RUN_FIELDS, *(f"{name}.__class__" for name in _RUN_FIELDS))
# json.dump(sort_keys=True) writes the keys of a row sorted.
_JSON_KEYS = sorted(_COLUMNS)
# One JSON row, as json.dump(indent=2, sort_keys=True) writes an object in
# the report's "rows" list; its cells come in _JSON_KEYS order.
_JSON_ROW = "    {\n%s\n    }" % ",\n".join(
    f"      {encode_basestring_ascii(key)}: %s" for key in _JSON_KEYS
)
_CHUNK = 128  # report rows (and errata) read, formatted and written at a time


def _formats(formats) -> list:
    """Each format as a function: a name is looked up in this module now."""
    return [globals()[f] if isinstance(f, str) else f for f in formats]


def _table(rows: list[Row], names: tuple, formats) -> Iterator[tuple]:
    """Each row's formatted fields as a tuple, formatted a column at a time.
    A format is a function, the name of one in this module, or None."""
    columns = (map(attrgetter(name), rows) for name in names)
    return zip(*(col if fmt is None else map(fmt, col)
                 for col, fmt in zip(columns, _formats(formats))))


def _shared(key: tuple) -> bool:
    """Whether rows with this run key print the same instance cells: equal
    ints, strings and nonzero floats do; 0.0 == -0.0 and other classes
    (Decimal("1") == Decimal("1.0")) may not."""
    n = len(_RUN_FIELDS)
    return all(c is int or c is str or (c is float and x != 0.0)
               for x, c in zip(key[:n], key[n:]))


def _runs(rows: list[Row]) -> Iterator[tuple[tuple | None, list[Row]]]:
    """The rows as (run key, run): runs of consecutive rows with equal run
    keys that _shared passes, read _CHUNK rows at a time.  A row whose
    key fails _shared is a run of its own, with key None."""
    for start in range(0, len(rows), _CHUNK):
        for key, run in groupby(rows[start:start + _CHUNK], _run_key):
            if _shared(key):
                yield key, list(run)
            else:
                yield from ((None, [row]) for row in run)


def _texts(rows: list[Row], template, columns: tuple, formats: list) -> Iterator[str]:
    """Each row's text: its run's template(instance cells), made once per
    run (a run cut by a chunk's end keeps it), with its %s slots filled by
    the row's own cells, columns formatted a column at a time by formats."""
    fields = [_COLUMNS[column][0] for column in columns]
    last = text = None
    for key, run in _runs(rows):
        if key is None or key != last:
            text = template((key or _run_key(run[0]))[:len(_RUN_FIELDS)])
        last = key
        yield from map(text.__mod__, _table(run, fields, formats))


def _escaped(cell):
    """cell with each % doubled, to stand in a %-template."""
    return cell.replace("%", "%%") if isinstance(cell, str) else cell


def _csv_line(cells) -> str:
    """One line of cells as the CSV report's csv.writer quotes them."""
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerow(cells)
    return out.getvalue()


def _csv_lines(rows: list[Row]) -> Iterator[str]:
    """The CSV lines of rows.  A run's line template is csv.writer's line of
    its instance cells and a %s slot for each other cell; the numbers and
    flags need no quoting, and each distinct check is quoted once."""
    cells = dict(zip(CSV_COLUMNS, _formats(_CSV_CELLS)))
    own = CSV_COLUMNS[len(_RUN_COLUMNS):]

    def template(values: tuple) -> str:
        texts = (v if cells[c] is None else cells[c](v) for c, v in zip(_RUN_COLUMNS, values))
        return _csv_line([*map(_escaped, texts), *["%s"] * len(own)])

    quoted = cache(lambda check: _csv_line(("", check))[1:-1])  # "" keeps an empty check bare
    return _texts(rows, template, own, [quoted if c == "check" else cells[c] for c in own])


def _json_rows(rows: list[Row]) -> Iterator[str]:
    """The JSON texts of rows: _JSON_ROW with a run's instance slots filled
    once, and each distinct check encoded once."""
    texts = dict(zip(CSV_COLUMNS, _formats(_JSON_TEXTS)))
    own = tuple(key for key in _JSON_KEYS if key not in _RUN_COLUMNS)

    def template(values: tuple) -> str:
        filled = {c: _escaped(texts[c](v)) for c, v in zip(_RUN_COLUMNS, values)}
        return _JSON_ROW % tuple(filled.get(key, "%s") for key in _JSON_KEYS)

    return _texts(rows, template, own, [cache(texts[c]) if c == "check" else texts[c] for c in own])


# json's own encoder, with each item of an object on a line of its own at
# the indent of an object in the report's "errata" list.
_json_items = json.JSONEncoder(
    sort_keys=True, allow_nan=False, separators=(",\n      ", ": ")
).encode


def _json_erratum(entry: dict) -> str:
    """An erratum as json.dump(indent=2, sort_keys=True) writes it in the
    report, for flat objects such as _instance_rows makes."""
    return "    {\n      %s\n    }" % _json_items(entry)[1:-1]


def _write_chunks(fh: TextIO, texts: Iterator[str], separator: str) -> None:
    """Write texts, none of them empty, with separator between them,
    _CHUNK at a time: at most one chunk is held at once."""
    lead = ""
    while chunk := separator.join(islice(texts, _CHUNK)):
        fh.write(lead)
        fh.write(chunk)
        del chunk
        lead = separator


def _report_head(report: RunReport) -> dict:
    """The JSON form without its two long lists, "errata" and "rows"."""
    return {
        "schema": SCHEMA,
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "wall_time": report.wall_time,
        "config": report.config.to_dict(),
        "summary": report._summary,
    }


def report_to_dict(report: RunReport) -> dict:
    """Nested JSON form under the versioned schema key."""
    return {
        **_report_head(report),
        "errata": report.errata,
        "rows": [
            dict(zip(CSV_COLUMNS, cells)) for cells in _table(report.rows, _FIELDS, _JSON_VALUES)
        ],
    }


def _write_json(report: RunReport, fh: TextIO) -> None:
    """Write the head through json.dumps and splice the two long lists into
    it at their keys (only a top-level key is indented by two spaces)."""
    head = json.dumps(
        {**_report_head(report), "errata": [], "rows": []},
        indent=2, sort_keys=True, allow_nan=False,
    )
    for key, items, texts in (("errata", report.errata, map(_json_erratum, report.errata)),
                              ("rows", report.rows, _json_rows(report.rows))):
        before, mark, head = head.partition(f'\n  "{key}": []')
        fh.write(before)
        if not items:
            fh.write(mark)
            continue
        fh.write(mark[:-1] + "\n")
        _write_chunks(fh, texts, ",\n")
        fh.write("\n  ]")
    fh.write(head + "\n")


def emit_report(report: RunReport, format: str, destination: str) -> None:
    """Write the report as "json" or "csv" to the file destination.

    The JSON file holds the bytes that ``json.dump(report_to_dict(report),
    fh, indent=2, sort_keys=True, allow_nan=False)`` followed by "\\n"
    writes, without building the row dicts: a non-finite lhs, rhs or
    margin is null, and one in any other float column raises ValueError.
    The CSV file holds the bytes that ``csv.writer(fh, lineterminator="\\n")``
    writes for the header and each row's CSV cells.  The CSV is
    deterministic for a fixed config and seed; the JSON also carries
    generated_at and wall_time.

    Both writers take the rows in runs of consecutive rows whose instance
    cells (instance_id through mu) are equal, as all rows of one instance
    are, pickled or not.  A run's cells are formatted once, into a CSV line
    template made by csv.writer or a _JSON_ROW with those nine slots
    filled; each row fills in only its check, lhs, rhs, margin and pass,
    and each distinct check is quoted or encoded once.  A run breaks where
    the next row's cells differ in value or in class (1 == 1.0 == True),
    and a row whose cells hold a float zero (0.0 == -0.0) or a value other
    than an int, a str or a float is a run of its own.  Both files are
    written _CHUNK rows at a time.
    """
    if format == "json":
        with open(destination, "w", encoding="utf-8", newline="\n") as fh:
            _write_json(report, fh)
        return
    if format == "csv":
        with open(destination, "w", encoding="utf-8", newline="") as fh:
            fh.write(_csv_line(CSV_COLUMNS))
            _write_chunks(fh, _csv_lines(report.rows), "")
        return
    raise ConfigError(f"format must be 'json' or 'csv', got {format!r}")
