"""Span tracing of harmonia from outside the package.

``install()`` replaces each public function at the place where its caller
binds it (``harness.check_theorem``, ``bounds.kernel_oracle``,
``specfun.integrate_de``, ...) with a wrapper that records one span: name,
start, end, the id of the enclosing span, and an extra value taken from the
arguments or the result (integrand evaluations, grid points, the argument
key used to count distinct calls).  Spans stay in memory; ``layer_metrics``
turns them into the per-layer numbers when the sweep is done.

Pool workers inherit the wrappers through ``fork``.  The per-instance
wrapper ships each worker's spans back inside the pickled result, and the
parent adds them to its own list while unpickling, so a traced ``jobs=2``
sweep sees the same spans as a serial one.
"""

from __future__ import annotations

import functools
import os
import statistics
from collections import Counter, defaultdict
from time import perf_counter

from harmonia import bounds, harness, identity, specfun

# Span fields, in record order.
PID, SID, PARENT, NAME, T0, T1, EXTRA = range(7)


class Tracer:
    """Spans and call counts of one process."""

    def __init__(self) -> None:
        self.owner_pid = os.getpid()
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._next = 0

    def call(self, name: str, extra, fn, *args, **kwargs):
        """Run fn inside a span; extra(args, kwargs, result) fills its extra field."""
        sid = self._next
        self._next += 1
        parent = self._stack[-1] if self._stack else None
        self._stack.append(sid)
        result = None
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
            return result
        finally:
            t1 = perf_counter()
            self._stack.pop()
            value = extra(args, kwargs, result) if extra is not None and result is not None else None
            self.spans.append((os.getpid(), sid, parent, name, t0, t1, value))


_ACTIVE: Tracer | None = None


def _arg(args: tuple, kwargs: dict, index: int, name: str):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _quad_extra(args, kwargs, result):
    return (result.evaluations, result.converged)


def _certify_extra(args, kwargs, result):
    return result.checked


def _oracle_key(args, kwargs, result):
    # The oracle integrand reads only these fields of the instance.
    kind, inst = args[0], args[1]
    return (
        kind, inst.a, inst.b, inst.s, inst.q, inst.lambda_, inst.mu_,
        _arg(args, kwargs, 2, "p_or_q"), _arg(args, kwargs, 3, "settings"),
    )


def _hyp2f1_key(args, kwargs, result):
    return (args, tuple(sorted(kwargs.items())))


# (module that binds the function, attribute, span name, extra extractor).
# A function bound in several modules is wrapped at each binding; every call
# goes through exactly one of them, so no call is counted twice.
_SPANNED = (
    (harness, "generate_instances", "harness.generate", None),
    (harness, "certify_instance", "convexity.certify", _certify_extra),
    (harness, "check_identity", "identity.check", None),
    (harness, "rule_deviation", "identity.rule_deviation", None),
    (identity, "rule_deviation", "identity.rule_deviation", None),
    (bounds, "rule_deviation", "identity.rule_deviation", None),
    (harness, "check_theorem", "bounds.theorem", None),
    (harness, "crosscheck_B", "bounds.crosscheck", None),
    (bounds, "kernel_oracle", "bounds.kernel_oracle", _oracle_key),
    (bounds, "closed_B", "bounds.closed_B", None),
    (bounds, "hyp2f1", "specfun.hyp2f1", _hyp2f1_key),
    (identity, "integrate", "quadrature.integrate", _quad_extra),
    (specfun, "integrate", "quadrature.integrate", _quad_extra),
    (bounds, "integrate_de", "quadrature.integrate_de", _quad_extra),
    (specfun, "integrate_de", "quadrature.integrate_de", _quad_extra),
)

# Cheap, hot functions: counted, not spanned.
_COUNTED = (
    (bounds, "beta", "specfun.beta"),
    (specfun, "beta", "specfun.beta"),
)


def _spanned(tracer: Tracer, fn, name: str, extra):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return tracer.call(name, extra, fn, *args, **kwargs)

    return wrapper


def _counted(tracer: Tracer, fn, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.counts[name] += 1
        return fn(*args, **kwargs)

    return wrapper


class _Shipped(tuple):
    """A worker's ``_instance_rows`` result that carries the worker's spans.

    Unpickling it in the parent adds the spans and counts to the parent's
    tracer and yields the plain ``(rows, errata)`` pair ``run_sweep`` expects.
    """

    def __new__(cls, result: tuple, spans: list, counts: Counter):
        obj = super().__new__(cls, result)
        obj.spans = spans
        obj.counts = counts
        return obj

    def __reduce__(self):
        return (_receive, (tuple(self), self.spans, self.counts))


def _receive(result: tuple, spans: list, counts: Counter) -> tuple:
    _ACTIVE.spans.extend(spans)
    _ACTIVE.counts.update(counts)
    return result


def _instance_extra(args, kwargs, result):
    return args[0][0]  # instance id from the worker payload


def traced_instance_rows(payload: tuple):
    """Stand-in for ``harness._instance_rows`` (module level, so picklable)."""
    tracer = _ACTIVE
    if tracer is None:
        raise RuntimeError("a traced process pool needs workers started by fork")
    if os.getpid() == tracer.owner_pid:
        return tracer.call("harness.instance", _instance_extra, _ORIGINAL_ROWS, payload)
    # In a forked worker: start from empty buffers (the inherited ones belong
    # to the parent, whose open sweep span is no parent here) and hand this
    # instance's spans back with its rows.
    tracer.spans, tracer.counts, tracer._stack = [], Counter(), []
    result = tracer.call("harness.instance", _instance_extra, _ORIGINAL_ROWS, payload)
    return _Shipped(result, tracer.spans, tracer.counts)


_ORIGINAL_ROWS = harness._instance_rows


def install() -> Tracer:
    """Wrap every traced binding for the rest of the process; returns the tracer."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("tracing is already installed")
    tracer = Tracer()
    for module, attr, name, extra in _SPANNED:
        setattr(module, attr, _spanned(tracer, getattr(module, attr), name, extra))
    for module, attr, name in _COUNTED:
        setattr(module, attr, _counted(tracer, getattr(module, attr), name))
    harness._instance_rows = traced_instance_rows
    _ACTIVE = tracer
    return tracer


def _self_times(spans: list[tuple]) -> list[float]:
    """Each span's duration minus the time its child spans cover.

    Children run nested inside their parent in the same process, so their
    intervals do not overlap and their durations add up.
    """
    child_time: dict[tuple[int, int], float] = defaultdict(float)
    for sp in spans:
        if sp[PARENT] is not None:
            child_time[(sp[PID], sp[PARENT])] += sp[T1] - sp[T0]
    return [sp[T1] - sp[T0] - child_time[(sp[PID], sp[SID])] for sp in spans]


LAYERS = ("harness", "convexity", "identity", "bounds", "specfun", "quadrature")


def layer_metrics(
    tracer: Tracer, instances: int, discarded: int, time_scale: float
) -> dict[str, float]:
    """Per-layer work counts and busy times of one traced sweep.

    Times are multiplied by time_scale, the sweep's CPU-speed factor, so they
    add up to the scaled sweep time.
    """
    spans = tracer.spans
    selfs = _self_times(spans)
    by_name: dict[str, list[int]] = defaultdict(list)
    for i, sp in enumerate(spans):
        by_name[sp[NAME]].append(i)

    def calls(name: str) -> int:
        return len(by_name[name])

    def total(name: str) -> float:
        return time_scale * sum(spans[i][T1] - spans[i][T0] for i in by_name[name])

    def self_total(name: str) -> float:
        return time_scale * sum(selfs[i] for i in by_name[name])

    def extras(name: str) -> list:
        return [spans[i][EXTRA] for i in by_name[name]]

    def distinct(name: str) -> int:
        return len(set(extras(name)))

    quad = {n: extras(f"quadrature.{n}") for n in ("integrate", "integrate_de")}
    evals = {n: sum(e[0] for e in v) for n, v in quad.items()}
    unconverged = sum(1 for v in quad.values() for e in v if not e[1])
    per_instance_ms = sorted(
        1e3 * time_scale * (spans[i][T1] - spans[i][T0]) for i in by_name["harness.instance"]
    )
    oracle_calls = calls("bounds.kernel_oracle")

    m: dict[str, float] = {
        "convexity.certify_calls": calls("convexity.certify"),
        "convexity.certify_s": total("convexity.certify"),
        "convexity.grid_points": sum(extras("convexity.certify")),
        "identity.check_calls": calls("identity.check"),
        "identity.check_s": total("identity.check"),
        "identity.rule_deviation_calls": calls("identity.rule_deviation"),
        "identity.rule_deviation_s": total("identity.rule_deviation"),
        "bounds.theorem_calls": calls("bounds.theorem"),
        "bounds.theorem_s": total("bounds.theorem"),
        "bounds.crosscheck_calls": calls("bounds.crosscheck"),
        "bounds.crosscheck_s": total("bounds.crosscheck"),
        "bounds.kernel_oracle_calls": oracle_calls,
        "bounds.kernel_oracle_distinct": distinct("bounds.kernel_oracle"),
        "bounds.kernel_oracle_ms_per_call": 1e3 * total("bounds.kernel_oracle") / max(oracle_calls, 1),
        "bounds.closed_B_calls": calls("bounds.closed_B"),
        "bounds.closed_B_s": total("bounds.closed_B"),
        "specfun.hyp2f1_calls": calls("specfun.hyp2f1"),
        "specfun.hyp2f1_distinct": distinct("specfun.hyp2f1"),
        "specfun.hyp2f1_s": total("specfun.hyp2f1"),
        "specfun.hyp2f1_self_s": self_total("specfun.hyp2f1"),
        "specfun.beta_calls": tracer.counts["specfun.beta"],
        "quadrature.integrate_calls": len(quad["integrate"]),
        "quadrature.integrate_evals": evals["integrate"],
        "quadrature.integrate_s": total("quadrature.integrate"),
        "quadrature.integrate_de_calls": len(quad["integrate_de"]),
        "quadrature.integrate_de_evals": evals["integrate_de"],
        "quadrature.integrate_de_s": total("quadrature.integrate_de"),
        "quadrature.unconverged": unconverged,
        "quadrature.evals_per_instance": (evals["integrate"] + evals["integrate_de"]) / instances,
        "harness.generate_s": total("harness.generate"),
        "harness.accept_ratio": instances / (instances + discarded),
        "harness.instance_p50_ms": statistics.median(per_instance_ms),
        "harness.instance_p95_ms": statistics.quantiles(per_instance_ms, n=20)[18],
        "harness.sweep_self_s": self_total("harness.sweep"),
        "trace.spans": len(spans),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = time_scale * sum(
            selfs[i] for i, sp in enumerate(spans) if sp[NAME].startswith(layer + ".")
        )
    return m
