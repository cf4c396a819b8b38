"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Every test follows record-then-assert so the terminal summary always carries
one line per criterion even when an assertion trips.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import replace

from harmonia import (
    EXPECTED_COEFFICIENT_ERRATA,
    GridSpec,
    Instance,
    KIND_FOR_INDEX,
    PRESETS,
    PROPERTY_CORPUS,
    SM_PAIRS,
    SweepConfig,
    b1_b4,
    b7_b10,
    beta,
    certify_instance,
    check_harmonic_sm,
    check_identity,
    classify,
    combine,
    corollary_rhs,
    crosscheck_B,
    emit_report,
    gamma,
    hyp2f1_euler,
    kernel_oracle,
    kernel_representation,
    linear,
    power,
    rule_deviation_as_printed,
    run_sweep,
    s_power,
    theorem1_rhs,
    theorem2_rhs,
)
from harmonia.specfun import _hyp2f1_bounded

SQUARE = power(1.0, 2.0)
SQRT = s_power(1.0, 0.5, 0.0)


def test_criterion_1_kernel_identity(acceptance):
    # families paired with the s-range their derivative class certifies at m=1
    families = [
        (linear(), 1.0),
        (SQUARE, 1.0),
        (power(0.5, 1.5), 0.5),
        (SQRT, 0.5),
    ]
    rng = random.Random(20260816)
    start = time.perf_counter()
    worst = 0.0
    certified = 0
    failures = 0
    for _ in range(100):
        f, s_max = rng.choice(families)
        a = rng.uniform(0.5, 2.0)
        inst = Instance(
            a=a, b=a + rng.uniform(0.1, 2.0), s=rng.uniform(0.05, s_max),
            m=1.0, q=1.0, lambda_=rng.uniform(0.5, 1.0),
            mu_=rng.uniform(0.0, 0.5), f=f,
        )
        if not certify_instance(inst).holds:
            continue
        certified += 1
        chk = check_identity(inst)
        assert chk.tol == 1e-8
        worst = max(worst, chk.abs_diff)
        if not chk.passed:
            failures += 1
    elapsed = time.perf_counter() - start
    ok = certified == 100 and failures == 0 and elapsed <= 30.0
    acceptance(
        1, ok,
        f"{certified}/100 certified, worst |diff| {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_2_printed_deviation_differs(acceptance):
    inst = Instance(
        a=1.0, b=2.0, s=1.0, m=1.0, q=1.0, lambda_=0.5, mu_=0.5, f=linear(),
    )
    printed = rule_deviation_as_printed(inst)
    kernel = kernel_representation(inst)
    gap = abs(printed - kernel)
    ok = gap >= 0.5
    acceptance(2, ok, f"printed {printed:.7f} vs kernel {kernel:.7f}, gap {gap:.3f}")
    assert ok


def test_criterion_3_elementary_moments(acceptance):
    rng = random.Random(31415)
    worst = 0.0
    for _ in range(100):
        mu = rng.uniform(0.0, 0.5)
        lam = rng.uniform(0.5, 1.0)
        q = rng.uniform(1.25, 5.0)
        p = q / (q - 1.0)
        inst = Instance(
            a=1.0, b=2.0, s=1.0, m=1.0, q=q, lambda_=lam, mu_=mu, f=linear(),
        )
        closed = {
            1: b1_b4(mu, lam)[0], 4: b1_b4(mu, lam)[1],
            7: b7_b10(mu, lam, p)[0], 10: b7_b10(mu, lam, p)[1],
        }
        for index, value in closed.items():
            oracle = kernel_oracle(KIND_FOR_INDEX[index], inst)
            worst = max(worst, abs(value - oracle) / abs(oracle))
    anchors = (
        abs(b1_b4(0.5, 0.5)[0] - 0.125),
        abs(b1_b4(1.0 / 6.0, 5.0 / 6.0)[0] - 5.0 / 72.0),
        abs(b7_b10(0.5, 0.5, 2.0)[0] - 1.0 / 24.0),
    )
    ok = worst <= 1e-10 and max(anchors) <= 1e-15
    acceptance(3, ok, f"100 draws, worst rel {worst:.2e}, anchors exact")
    assert ok


ALL_CASES = [(i, "all") for i in (1, 4, 7, 8, 9, 10, 11, 12)]
for _i in (2, 3):
    ALL_CASES += [(_i, c) for c in ("mu=0", "interior", "mu=1/2")]
for _i in (5, 6):
    ALL_CASES += [(_i, c) for c in ("lambda=1/2", "interior", "lambda=1")]


def test_criterion_4_coefficient_crosschecks(acceptance):
    def pin(rng, inst, index, case):
        if index in (2, 3):
            mu = {"mu=0": 0.0, "mu=1/2": 0.5}.get(case)
            return replace(inst, mu_=mu if mu is not None else rng.uniform(0.01, 0.49))
        if index in (5, 6):
            lam = {"lambda=1/2": 0.5, "lambda=1": 1.0}.get(case)
            return replace(inst, lambda_=lam if lam is not None else rng.uniform(0.51, 0.99))
        return inst

    flag_sets = []
    mismatches = 0
    draws = 0
    for seed in (101, 202):
        rng = random.Random(seed)
        flagged = set()
        for index, case in ALL_CASES:
            for _ in range(50):
                a = rng.uniform(0.5, 2.0)
                inst = Instance(
                    a=a, b=a + rng.uniform(0.1, 2.0), s=rng.uniform(0.05, 1.0),
                    m=rng.uniform(0.05, 1.0), q=rng.uniform(1.1, 5.0),
                    lambda_=rng.uniform(0.5, 1.0), mu_=rng.uniform(0.0, 0.5),
                    f=linear(),
                )
                inst = pin(rng, inst, index, case)
                term = crosscheck_B(index, inst)
                draws += 1
                suspected = term.status == "erratum_suspected"
                if suspected:
                    flagged.add((index, term.case))
                if suspected != ((index, term.case) in EXPECTED_COEFFICIENT_ERRATA):
                    mismatches += 1
        flag_sets.append(flagged)
    ok = (
        mismatches == 0
        and flag_sets[0] == flag_sets[1] == EXPECTED_COEFFICIENT_ERRATA
    )
    acceptance(
        4, ok,
        f"{draws} draws over 2 seeds, {mismatches} mismatches, "
        f"{len(flag_sets[0])} flagged case-forms",
    )
    assert ok


def test_criterion_5_default_sweep_margins(acceptance):
    start = time.perf_counter()
    report = run_sweep(SweepConfig(), jobs=1)
    elapsed = time.perf_counter() - start
    worst = min(
        m for m in (report.worst_margin(1), report.worst_margin(2)) if m is not None
    )
    ok = (
        report.instances == 200
        and report.failures == 0
        and report.unexpected_errata == 0
        and worst >= -1e-9
        and elapsed <= 60.0
    )
    acceptance(
        5, ok,
        f"{report.instances} instances, worst margin {worst:.2e}, {elapsed:.1f}s",
    )
    assert ok


def test_criterion_6_corollary_consistency(acceptance):
    worst = 0.0
    combos = 0
    for f, s, m, q in (
        (SQUARE, 0.7, 1.0, 2.5),
        (SQUARE, 1.0, 0.8, 2.0),
        (power(0.5, 1.5), 0.5, 1.0, 3.0),
    ):
        for preset, theorem in itertools.product(sorted(PRESETS), (1, 2)):
            lam, mu = PRESETS[preset]
            inst = Instance(
                a=1.0, b=2.3, s=s, m=m, q=q, lambda_=lam, mu_=mu, f=f,
            )
            general = theorem1_rhs(inst) if theorem == 1 else theorem2_rhs(inst)
            special = corollary_rhs(inst, theorem)
            worst = max(worst, abs(special - general) / abs(general))
            combos += 1
    ok = worst <= 1e-12
    acceptance(6, ok, f"{combos} preset/theorem combos, worst rel {worst:.2e}")
    assert ok


def test_criterion_7_specfun_self_checks(acceptance):
    shapes = (
        lambda s: (1.0, s + 2.0), lambda s: (1.0, s + 3.0),
        lambda s: (2.0, s + 3.0), lambda s: (s + 1.0, s + 2.0),
        lambda s: (s + 1.0, s + 3.0), lambda s: (s + 2.0, s + 3.0),
    )
    # hyp2f1's two paths: the bounded value the closed forms read (the Gauss
    # series below z = 0.9, a connection formula from there on) and the
    # Euler integral.
    worst_f21 = 0.0
    pairs = 0
    for q in (1.0, 1.5, 2.0, 3.0, 5.0):
        for s in (0.25, 0.5, 0.75, 1.0):
            for shape in shapes:
                b_, g_ = shape(s)
                for z in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.95, 0.99, 0.999):
                    euler = hyp2f1_euler(2.0 * q, b_, g_, z)
                    value, _ = _hyp2f1_bounded(2.0 * q, b_, g_, z)
                    worst_f21 = max(worst_f21, abs(euler - value) / abs(euler))
                    pairs += 1
    rng = random.Random(20260816)
    worst_beta = 0.0
    for _ in range(200):
        x, y = rng.uniform(0.05, 5.0), rng.uniform(0.05, 5.0)
        worst_beta = max(worst_beta, abs(beta(x, y) - beta(y, x)) / beta(x, y))
    worst_gamma = 0.0
    for k in range(1, 101):
        x = k / 10.0
        worst_gamma = max(worst_gamma, abs(gamma(x + 1.0) - x * gamma(x)) / gamma(x + 1.0))
    ok = worst_f21 <= 1e-10 and worst_beta <= 1e-13 and worst_gamma <= 1e-12
    acceptance(
        7, ok,
        f"{pairs} dual-path pairs worst {worst_f21:.2e}, "
        f"beta sym {worst_beta:.2e}, gamma rec {worst_gamma:.2e}",
    )
    assert ok


def test_criterion_8_closure_propositions(acceptance):
    counterexamples = 0
    checks = 0
    composites = [
        combine("sum", [SQRT, linear()]),
        combine("max", [linear(), SQUARE]),
        combine("scale", [SQUARE], lam=2.5),
        combine(
            "seq_limit",
            [power(1.0 + 1.0 / n, 1.0) for n in range(1, 9)],
            limit=linear(),
        ),
    ]
    for spec in composites:
        report = check_harmonic_sm(
            spec, spec.claimed_s, spec.claimed_m, GridSpec(lo=0.5, hi=3.0),
        )
        checks += 1
        if not report.holds:
            counterexamples += 1
    for entry, (s, m) in itertools.product(PROPERTY_CORPUS, SM_PAIRS):
        grid = GridSpec(lo=entry.lo, hi=entry.hi)
        cls = classify(entry.spec, s, m, grid)
        checks += 1
        if cls.monotone == "nondecreasing" and cls.sm_convex and not cls.harmonic_sm_convex:
            counterexamples += 1
        if cls.monotone == "nonincreasing" and cls.harmonic_sm_convex and not cls.sm_convex:
            counterexamples += 1
        if entry.certifies(s, m) and not cls.harmonic_sm_convex:
            counterexamples += 1
    ok = counterexamples == 0
    acceptance(
        8, ok,
        f"{checks} grid checks at 41x41x21, {counterexamples} counterexamples",
    )
    assert ok


def test_criterion_9_reproducible_sweep(acceptance, tmp_path):
    cfg = SweepConfig(samples=8, rng_seed=777, q_values=(1.0, 2.0))
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    emit_report(run_sweep(cfg, jobs=1), "csv", str(first))
    emit_report(run_sweep(cfg, jobs=1), "csv", str(second))
    a, b = first.read_bytes(), second.read_bytes()
    ok = a == b and len(a) > 0
    acceptance(9, ok, f"two runs, {len(a)} bytes each, identical={a == b}")
    assert ok
