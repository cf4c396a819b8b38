"""The kernel oracles and closed forms against a 40-digit referee.

``kernel_oracle`` integrates the twelve proof integrals with a Gauss-Jacobi
product rule.  Here its values are held to mpmath at 40 digits (a test-only
import) on sampled oracles of the benchmark workloads, at b/a = 1e4 and over
the documented domain, wherever the rule converges.  The corrected closed
forms, and the pinned closed-form values, are held to the same referee
within their own error bounds.
"""

from __future__ import annotations

import math
import random
import runpy
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from harmonia import (
    CROSSCHECK_TOL,
    EXPECTED_COEFFICIENT_ERRATA,
    KIND_FOR_INDEX,
    PRESETS,
    AccuracyError,
    EvaluationError,
    Instance,
    ParameterError,
    SweepConfig,
    bounds,
    generate_instances,
    kernel_oracle,
    linear,
)
from harmonia.bounds import crosscheck_plan

mpmath = pytest.importorskip("mpmath")

WORKLOADS = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "bench" / "workloads.py")
)["WORKLOADS"]


def referee(kind, inst) -> float:
    """The proof integral at 40 digits, split at the kink and graded toward the pole of A^-2q.

    mpmath.quad controls the absolute error, so A^-2q is taken relative to
    its value at the half's lower end, where it is largest, and that scale
    is divided back out: an integral of 1e-118 is then as accurate as one of 1.
    """
    with mpmath.workdps(40):
        mp = mpmath.mpf
        a, b, s, q = mp(inst.a), mp(inst.b), mp(inst.s), mp(inst.q)
        lo, hi = (mp(0), mp(1) / 2) if kind.side == "left" else (mp(1) / 2, mp(1))
        centre = bounds._centre(kind, inst)
        e = q / (q - 1) if kind.needs_p else mp(1)
        A_lo = lo * b + (1 - lo) * a
        scale = A_lo ** (2 * q) if kind.include_A else mp(1)

        def f(t):
            val = mp(1) if centre is None else abs(mp(centre) - t) ** e
            if kind.factor == "t_pow_s":
                val *= t**s
            elif kind.factor == "one_minus_t_pow_s":
                val *= (1 - t) ** s
            if kind.include_A:
                val *= (A_lo / (t * b + (1 - t) * a)) ** (2 * q)
            return val

        points = {lo, hi}
        if centre is not None and lo < centre < hi:
            points.add(mp(centre))
        if kind.include_A and lo == 0:
            cut = a / (b - a)
            while cut < hi:
                points.add(cut)
                cut *= 4
        return float(mpmath.quad(f, sorted(points)) / scale)


def _sweep_oracles(workload: str) -> list[tuple[int, Instance]]:
    """The distinct (index, instance) oracles a seed-1 sweep of the workload reads."""
    cfg = SweepConfig.from_dict(dict(WORKLOADS[workload]["config"], rng_seed=1))
    seen = {}
    for inst in generate_instances(cfg)[0]:
        theorems, indices = crosscheck_plan(inst.q)
        wanted = [(index, inst) for index in indices]
        for lam, mu in [(inst.lambda_, inst.mu_), *PRESETS.values()]:
            tri = Instance(inst.a, inst.b, inst.s, inst.m, inst.q, lam, mu, inst.f)
            for theorem in theorems:
                braces = (2, 3, 5, 6) if theorem == 1 else (8, 9, 11, 12)
                wanted += [(index, tri) for index in braces]
        for index, tri in wanted:
            kind = KIND_FOR_INDEX[index]
            key = (kind, tri.a, tri.b, tri.s, tri.q, bounds._centre(kind, tri))
            seen.setdefault(key, (index, tri))
    return list(seen.values())


@pytest.mark.parametrize("workload", ["sweep_default", "sweep_wide"])
def test_sampled_sweep_oracles_match_referee(workload):
    oracles = _sweep_oracles(workload)
    assert len(oracles) > 1000
    for index, inst in random.Random(16).sample(oracles, 24):
        ref = referee(KIND_FOR_INDEX[index], inst)
        got = kernel_oracle(KIND_FOR_INDEX[index], inst)
        assert abs(got - ref) <= 1e-13 * ref, (index, inst, got, ref)


@pytest.mark.parametrize("q", [3.0, 8.0])
def test_every_kind_at_ratio_1e4_matches_referee(q):
    # The pole of A^-2q sits at t = -1e-4, next to the left half.
    inst = Instance(a=0.01, b=100.0, s=0.5, m=1.0, q=q, lambda_=0.8, mu_=0.3, f=linear())
    for index, kind in KIND_FOR_INDEX.items():
        ref = referee(kind, inst)
        got = kernel_oracle(kind, inst)
        assert abs(got - ref) <= 1e-13 * ref, (index, got, ref)


@given(
    index=st.integers(1, 12),
    a=st.floats(1e-3, 1e2),
    ratio=st.floats(1e-3, 1e4),
    s=st.floats(0.01, 1.0),
    q=st.floats(1.0, 10.0),
    lam=st.floats(0.5, 1.0),
    mu=st.floats(0.0, 0.5),
)
# Values near 1e-118, where an absolute error control alone is 1.9e-5 off.
@example(index=6, a=100.0, ratio=1e4, s=1.0, q=10.0, lam=0.5, mu=0.0)
def test_product_rule_agrees_with_referee(index, a, ratio, s, q, lam, mu):
    kind = KIND_FOR_INDEX[index]
    inst = Instance(a=a, b=a * (1.0 + ratio), s=s, m=1.0, q=q, lambda_=lam, mu_=mu, f=linear())
    try:
        rule = kernel_oracle(kind, inst)
    except (AccuracyError, EvaluationError, ParameterError):
        return  # a rule that does not converge, or a kind that needs q > 1
    ref = referee(kind, inst)
    assert math.isfinite(rule) and rule >= 0.0
    assert abs(rule - ref) <= 1e-13 * ref, (rule, ref)


def test_weighted_oracle_pins_match_referee():
    # The bit pins of test_bounds hold values within 1e-14 of the integral.
    from test_bounds import TestKernelOracle

    for (a, b, s, q, lam, mu), pins in TestKernelOracle.WEIGHTED.items():
        inst = Instance(a=a, b=b, s=s, m=1.0, q=q, lambda_=lam, mu_=mu, f=linear())
        for index, pinned in pins.items():
            ref = referee(KIND_FOR_INDEX[index], inst)
            assert abs(float.fromhex(pinned) - ref) <= 1e-14 * ref, (a, index)


def _closed_cases():
    from test_bounds import TestAdjudication

    return TestAdjudication.F21_CASES


@pytest.mark.parametrize(
    "index,case", _closed_cases(), ids=[f"B{i}-{c}" for i, c in _closed_cases()]
)
def test_corrected_forms_lie_within_their_bound_of_referee(index, case):
    # The draws of test_bounds' test_corrected_forms_match_oracle: the
    # derived form's error, not only its gap to the oracle, is within its bound.
    from test_bounds import corrected_draws

    for inst in corrected_draws(index, case):
        value, bound = bounds._corrected(index, inst)
        assert bound <= CROSSCHECK_TOL * abs(value)  # corrected_B returns it
        ref = referee(KIND_FOR_INDEX[index], inst)
        assert abs(value - ref) <= bound, (index, case, inst, value, ref, bound)


def test_closed_form_pins_lie_within_their_bound_of_referee():
    # Every corrected pin, and every printed pin of a case that is no
    # erratum, re-recorded ones included.
    from test_bounds import TestClosedFormValues

    for absq, pins in TestClosedFormValues.GOLDEN.items():
        for (index, case), (printed, corrected) in pins.items():
            inst = TestClosedFormValues.pinned_instance(absq, case)
            ref = referee(KIND_FOR_INDEX[index], inst)
            assert abs(corrected - ref) <= bounds._corrected(index, inst)[1], (absq, index, case)
            if (index, case) not in EXPECTED_COEFFICIENT_ERRATA:
                bound = bounds._printed((index, case), inst)[1]
                assert abs(printed - ref) <= bound, (absq, index, case)
