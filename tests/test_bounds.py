"""Coefficient oracles, printed-form adjudication, and theorem bounds."""

from __future__ import annotations

import hashlib
import itertools
import math
import random
from dataclasses import replace

import pytest

from harmonia import (
    AccuracyError,
    BoundTerm,
    CROSSCHECK_TOL,
    EXPECTED_COEFFICIENT_ERRATA,
    EvaluationError,
    Instance,
    KIND_FOR_INDEX,
    KernelKind,
    MARGIN_TOL,
    ParameterError,
    PreconditionError,
    PRESETS,
    SweepConfig,
    b1_b4,
    b7_b10,
    bounds,
    case_label,
    certify_instance,
    check_theorem,
    closed_B,
    combine,
    corollary_rhs,
    corrected_B,
    crosscheck_B,
    generate_instances,
    kernel_oracle,
    linear,
    power,
    s_power,
    simpson_theorem2_prefactor,
    theorem1_rhs,
    theorem2_rhs,
)
from harmonia.bounds import PRINTED

SQUARE = power(1.0, 2.0)


def make(a=1.0, b=2.0, s=1.0, m=1.0, q=1.0, lam=0.75, mu=0.25, f=None):
    return Instance(a=a, b=b, s=s, m=m, q=q, lambda_=lam, mu_=mu, f=f or linear())


def random_inst(rng, q_min=1.0):
    a = rng.uniform(0.5, 2.0)
    return make(
        a=a,
        b=a + rng.uniform(0.1, 2.0),
        s=rng.uniform(0.05, 1.0),
        m=rng.uniform(0.05, 1.0),
        q=rng.uniform(q_min, 5.0),
        lam=rng.uniform(0.5, 1.0),
        mu=rng.uniform(0.0, 0.5),
    )


def at_case(inst, index, case):
    """Pin inst's weight to a representative of the named piecewise case."""
    if index in (2, 3):
        mu = {"mu=0": 0.0, "mu=1/2": 0.5}.get(case, inst.mu_ or 0.25)
        if case == "interior" and mu in (0.0, 0.5):
            mu = 0.25
        return replace(inst, mu_=mu)
    if index in (5, 6):
        lam = {"lambda=1/2": 0.5, "lambda=1": 1.0}.get(case, inst.lambda_ or 0.75)
        if case == "interior" and lam in (0.5, 1.0):
            lam = 0.75
        return replace(inst, lambda_=lam)
    return inst


ALL_CASES = [(1, "all"), (4, "all"), (7, "all"), (10, "all")]
for _i in (2, 3):
    ALL_CASES += [(_i, "mu=0"), (_i, "interior"), (_i, "mu=1/2")]
for _i in (5, 6):
    ALL_CASES += [(_i, "lambda=1/2"), (_i, "interior"), (_i, "lambda=1")]
ALL_CASES += [(8, "all"), (9, "all"), (11, "all"), (12, "all")]


def corrected_draws(index, case):
    """The seeded instances at which corrected_B(index, .) is held to the oracle in case."""
    rng = random.Random(1234 + index)
    return [at_case(random_inst(rng, q_min=1.1), index, case) for _ in range(6)]


class TestKernelOracle:
    def test_unweighted_left_moment(self):
        # index 8 at s=1, q=1, a=1, b=2 is the integral of t/(1+t)^2 over
        # [0, 1/2] = log(3/2) - 1/3
        inst = make(s=1.0, q=1.0)
        val = kernel_oracle(KIND_FOR_INDEX[8], inst)
        assert val == pytest.approx(0.0721317747748311, abs=1e-12)
        assert val == pytest.approx(math.log(1.5) - 1.0 / 3.0, abs=1e-12)

    def test_p_moment_at_half(self):
        inst = make(q=2.0, mu=0.5)  # p = q/(q-1) = 2
        val = kernel_oracle(KIND_FOR_INDEX[7], inst)
        assert val == pytest.approx(1.0 / 24.0, abs=1e-13)

    def test_p_required_for_p_moments(self):
        # q = 1 has no conjugate exponent
        for index in (7, 10):
            with pytest.raises(ParameterError, match="q > 1"):
                kernel_oracle(KIND_FOR_INDEX[index], make(q=1.0))

    def test_band_enforced(self):
        with pytest.raises(ParameterError):
            kernel_oracle(KIND_FOR_INDEX[2], make(mu=0.7))
        with pytest.raises(ParameterError):
            kernel_oracle(KIND_FOR_INDEX[5], make(lam=0.3))

    def test_kind_validation(self):
        with pytest.raises(ParameterError):
            KernelKind(weight="bogus", factor="none", side="left")
        with pytest.raises(ParameterError):
            KernelKind(weight="none", factor="none", side="middle")

    def test_values_are_nonnegative(self):
        rng = random.Random(11)
        for _ in range(10):
            inst = random_inst(rng, q_min=1.1)
            for idx in range(1, 13):
                val = kernel_oracle(KIND_FOR_INDEX[idx], inst)
                assert val >= 0.0
                assert math.isfinite(val)

    def test_boundary_offsets_shrink_linearly(self):
        # continuity at the piecewise-case boundaries: the offset difference
        # scales with the offset (no jump beyond 1e-6 in the limit)
        boundaries = [
            (2, "mu_", 0.0, +1.0),
            (2, "mu_", 0.5, -1.0),
            (3, "mu_", 0.0, +1.0),
            (3, "mu_", 0.5, -1.0),
            (5, "lambda_", 0.5, +1.0),
            (5, "lambda_", 1.0, -1.0),
            (6, "lambda_", 0.5, +1.0),
            (6, "lambda_", 1.0, -1.0),
        ]
        base = make(s=0.5, q=1.5)
        for idx, field, anchor, direction in boundaries:
            kind = KIND_FOR_INDEX[idx]
            at_anchor = kernel_oracle(kind, replace(base, **{field: anchor}))
            coarse = abs(
                kernel_oracle(kind, replace(base, **{field: anchor + direction * 1e-2}))
                - at_anchor
            )
            fine = abs(
                kernel_oracle(kind, replace(base, **{field: anchor + direction * 1e-4}))
                - at_anchor
            )
            slope = coarse / 1e-2
            assert fine <= 1.5 * slope * 1e-4 + 1e-6, f"B{idx} jumps at {field}={anchor}"

    @pytest.mark.parametrize("mu", [2.2e-309, 1e-100, 5e-17])
    def test_centre_next_to_a_factor_zero_is_that_zero(self, monkeypatch, mu):
        # A weight centre closer to the zero of t^s than the rule resolves is
        # integrated as the zero itself: one panel, not panels graded down to
        # the centre's distance, and the value at mu = 0.
        kind = KIND_FOR_INDEX[2]
        panels = []
        real = bounds._product_rule

        def spy(f, parts, *args):
            panels.append(len(parts))
            return real(f, parts, *args)

        monkeypatch.setattr(bounds, "_product_rule", spy)
        at_zero = kernel_oracle(kind, make(s=0.5, q=2.0, mu=0.0))
        assert kernel_oracle(kind, make(s=0.5, q=2.0, mu=mu)) == at_zero
        assert panels == [1, 1]

    @pytest.mark.parametrize(
        "index,field,value", [(2, "mu", 1e-16), (2, "mu", 1e-12), (6, "lam", 1.0 - 2.0**-53)]
    )
    def test_centre_in_the_sliver_is_no_cut(self, monkeypatch, index, field, value):
        # A centre past that snap but within the sliver radius of the factor's
        # zero cuts no panel; the integrand keeps the true centre, and the
        # value stays within rounding of the defining integral.
        mpmath = pytest.importorskip("mpmath")
        kind = KIND_FOR_INDEX[index]
        panels = []
        real = bounds._product_rule

        def spy(f, parts, *args):
            panels.append(len(parts))
            return real(f, parts, *args)

        monkeypatch.setattr(bounds, "_product_rule", spy)
        inst = make(s=0.5, q=2.0, **{field: value})
        got = kernel_oracle(kind, inst)
        assert panels == [1]
        with mpmath.workdps(40):
            c, s = mpmath.mpf(value), mpmath.mpf(inst.s)
            lo, hi = (0, mpmath.mpf(1) / 2) if kind.side == "left" else (mpmath.mpf(1) / 2, 1)

            def f(t):
                x = t if kind.factor == "t_pow_s" else 1 - t
                return abs(c - t) * x**s / (t * inst.b + (1 - t) * inst.a) ** (2 * inst.q)

            ref = mpmath.quad(f, [lo, c, hi])
            assert abs(got - ref) <= 4e-16 * ref

    # The weighted oracles, split at mu or lam strictly inside their half,
    # pinned bit for bit (float.hex).  Keyed (a, b, s, q, lam, mu) -> index
    # -> value; B7 and B10 use p = q/(q-1).
    WEIGHTED = {
        (1.0, 2.0, 0.5, 2.0, 0.8, 0.3): {
            1: "0x1.0a3d70a3d70a4p-4",
            2: "0x1.7a27f96e31e82p-7",
            3: "0x1.18249fb329fdep-5",
            4: "0x1.0a3d70a3d70a4p-4",
            5: "0x1.ba046a6b0a0dcp-8",
            6: "0x1.3c90217a23c41p-8",
            7: "0x1.7e4b17e4b17e5p-7",
            10: "0x1.7e4b17e4b17e7p-7",
        },
        (0.7, 2.4, 0.25, 3.0, 0.65, 0.15): {
            1: "0x1.28f5c28f5c28fp-4",
            2: "0x1.015ca5453444fp-5",
            3: "0x1.0b1513b39f32fp-4",
            4: "0x1.28f5c28f5c290p-4",
            5: "0x1.1ca91d68cc8aep-10",
            6: "0x1.bd04b9cc308b0p-11",
            7: "0x1.0a07e984f3846p-5",
            10: "0x1.0a07e984f3847p-5",
        },
    }

    @pytest.mark.parametrize("point", sorted(WEIGHTED), ids=lambda k: "a{}-b{}-s{}-q{}".format(*k))
    def test_weighted_oracles_pinned_bitwise(self, point):
        a, b, s, q, lam, mu = point
        inst = make(a=a, b=b, s=s, q=q, lam=lam, mu=mu)
        for index, expected in self.WEIGHTED[point].items():
            assert kernel_oracle(KIND_FOR_INDEX[index], inst).hex() == expected, index

    @pytest.mark.parametrize(
        "a, b, s, q",
        [(1.0, 2.0, 0.5, 2.0), (0.7, 2.4, 0.25, 3.0), (1.5, 1.6, 1.0, 1.0), (0.5, 2.5, 0.75, 1.5)],
    )
    def test_unweighted_oracles_match_mpmath(self, a, b, s, q):
        # B8, B9, B11 and B12 have no weight, so no kink at mu or lam: one
        # panel per half, against a 50-digit reference.
        mpmath = pytest.importorskip("mpmath")
        inst = make(a=a, b=b, s=s, q=q, lam=0.8, mu=0.3)
        with mpmath.workdps(50):
            for index in (8, 9, 11, 12):
                kind = KIND_FOR_INDEX[index]
                lo, hi = (0, mpmath.mpf(1) / 2) if kind.side == "left" else (mpmath.mpf(1) / 2, 1)

                def f(t, kind=kind):
                    x = t if kind.factor == "t_pow_s" else 1 - t
                    return x ** mpmath.mpf(s) / (t * b + (1 - t) * a) ** (2 * mpmath.mpf(q))

                ref = float(mpmath.quad(f, [lo, hi]))
                val = kernel_oracle(kind, inst)
                assert abs(val - ref) <= 1e-13 * abs(ref), (index, val, ref)


class TestOraclePass:
    """The batched pass over an instance's oracles gives kernel_oracle's bits."""

    # (a range, b - a range) of the default sweep and of the wide benchmark sweep.
    RANGES = {"default": ((0.5, 2.0), (0.1, 2.0)), "wide": ((0.05, 0.5), (1.0, 10.0))}
    # The instance's own (lambda, mu): drawn, at the preset centres, and the
    # sliver centre next to the zero of t^s.
    TRIPLES = [None, (0.5, 0.0), (5.0 / 6.0, 1.0 / 6.0), (1.0, 0.5), (None, 1e-16)]
    # sha256 of the hex of each distinct oracle of the draws, in _row_kernels order.
    DIGEST = "b94ce6cae57e8cf7bda6d17913c680f241b8709a9f501fcfcd4383b2a5263ec2"

    @staticmethod
    def oracles(memo: dict) -> dict:
        """memo's oracle entries; its one other entry is the instance's triples."""
        assert [key[0] for key in memo if key[0] != "oracle"] == ["triples"]
        return {key: val for key, val in memo.items() if key[0] == "oracle"}

    def draws(self):
        rng = random.Random(20281)
        # At q = 2, B7 and B10 raise |c - t| to p = 2.0, which numpy squares,
        # and at s = 0.5 the factor takes numpy's square root; an array
        # exponent would round otherwise, in a few B7 and B10 per hundred
        # draws at q = 2, so 40 more draws are at q = 2.
        qs = [1.0, 1.5, 2.0, 3.0, 8.0]
        for (a_lo, a_hi), (w_lo, w_hi) in self.RANGES.values():
            for q, (i, triple) in [*itertools.product(qs, enumerate(self.TRIPLES)),
                                   *((2.0, (i, None)) for i in range(20))]:
                lam, mu = triple or (None, None)
                a = rng.uniform(a_lo, a_hi)
                yield make(
                    a=a, b=a + rng.uniform(w_lo, w_hi), s=(0.25, 0.5, 0.75, 1.0)[i % 4], q=q,
                    lam=rng.uniform(0.5, 1.0) if lam is None else lam,
                    mu=rng.uniform(0.0, 0.5) if mu is None else mu,
                )

    def test_pass_equals_kernel_oracle_bitwise(self, monkeypatch):
        runs = []
        real = bounds._product_rules

        def spy(f, rules):
            results = real(f, rules)
            runs.extend(zip(rules, results))
            return results

        monkeypatch.setattr(bounds, "_product_rules", spy)
        digest = hashlib.sha256()
        for inst in self.draws():
            memo: dict = {}
            bounds._oracle_pass(inst, memo)
            kernels: dict = {}
            for index, tri in bounds._row_kernels(inst):
                kernels.setdefault(bounds._oracle_key(KIND_FOR_INDEX[index], tri), (index, tri))
            for key, (index, tri) in kernels.items():
                assert memo[key].hex() == kernel_oracle(KIND_FOR_INDEX[index], tri).hex(), key
                digest.update(memo[key].hex().encode() + b"\n")
            assert len(self.oracles(memo)) == len(kernels)
        # The values' bits are pinned too, so the integrand that both paths
        # share cannot change its rounding unseen.
        assert digest.hexdigest() == self.DIGEST
        # The draws reach graded panels and levels past the first (n = 8).
        assert max(len(panels) for panels, _ in runs) >= 4
        assert any(evals > 24 * len(panels) for panels, (_, _, evals, _) in runs)

    def test_pass_that_raises_leaves_every_kernel_to_kernel_oracle(self, monkeypatch):
        def fails(f, rules):
            raise AccuracyError("Gauss-Jacobi nodes did not converge")

        monkeypatch.setattr(bounds, "_product_rules", fails)
        memo: dict = {}
        bounds._oracle_pass(make(s=0.5, q=2.0), memo)
        assert self.oracles(memo) == {}

    def test_failing_kernel_is_left_to_kernel_oracle(self):
        # A^400 underflows near t = 0 at a = 0.05: the set-up of each kernel
        # with A^-2q on the left half raises, so the pass stores the others
        # and the left ones raise when the rows ask for them.
        inst = make(a=0.05, b=0.5, s=0.5, q=200.0, lam=0.8, mu=0.3)
        memo: dict = {}
        bounds._oracle_pass(inst, memo)
        stored = {key[1] for key in self.oracles(memo)}
        assert stored == {KIND_FOR_INDEX[i] for i in (1, 4, 5, 6, 7, 10, 11, 12)}
        for index in (2, 3, 8, 9):
            with pytest.raises(EvaluationError, match="float range"):
                bounds._oracle(KIND_FOR_INDEX[index], inst, memo)


class TestClosedMoments:
    def test_b1_b4_at_trapezoid(self):
        b1, b4 = b1_b4(0.5, 0.5)
        assert b1 == pytest.approx(0.125, abs=1e-15)
        assert b4 == pytest.approx(0.125, abs=1e-15)

    def test_b1_b4_at_simpson(self):
        b1, b4 = b1_b4(1.0 / 6.0, 5.0 / 6.0)
        assert b1 == pytest.approx(5.0 / 72.0, abs=1e-15)
        assert b4 == pytest.approx(5.0 / 72.0, abs=1e-15)

    def test_b4_at_midpoint_weights(self):
        _, b4 = b1_b4(0.0, 1.0)
        assert b4 == pytest.approx(0.125, abs=1e-15)

    def test_minimum_is_one_sixteenth(self):
        b1, b4 = b1_b4(0.25, 0.75)
        assert b1 == pytest.approx(1.0 / 16.0, abs=1e-15)
        assert b4 == pytest.approx(1.0 / 16.0, abs=1e-15)

    def test_positivity_floor_on_random_draws(self):
        rng = random.Random(5150)
        for _ in range(200):
            b1, b4 = b1_b4(rng.uniform(0.0, 0.5), rng.uniform(0.5, 1.0))
            assert b1 >= 1.0 / 16.0 - 1e-15
            assert b4 >= 1.0 / 16.0 - 1e-15

    def test_band_validation(self):
        with pytest.raises(ParameterError):
            b1_b4(0.6, 0.8)
        with pytest.raises(ParameterError):
            b1_b4(0.3, 0.4)
        with pytest.raises(ParameterError):
            b7_b10(0.3, 0.8, p=1.0)
        with pytest.raises(ParameterError):
            b7_b10(0.3, 0.8, p=math.nan)

    def test_b1_b4_match_oracle(self):
        rng = random.Random(77)
        for _ in range(25):
            inst = random_inst(rng)
            b1, b4 = b1_b4(inst.mu_, inst.lambda_)
            o1 = kernel_oracle(KIND_FOR_INDEX[1], inst)
            o4 = kernel_oracle(KIND_FOR_INDEX[4], inst)
            assert abs(b1 - o1) <= 1e-10 * max(abs(o1), 1e-3)
            assert abs(b4 - o4) <= 1e-10 * max(abs(o4), 1e-3)

    def test_b7_b10_match_oracle(self):
        rng = random.Random(78)
        for _ in range(25):
            inst = random_inst(rng, q_min=1.1)
            p = inst.q / (inst.q - 1.0)
            b7, b10 = b7_b10(inst.mu_, inst.lambda_, p)
            o7 = kernel_oracle(KIND_FOR_INDEX[7], inst)
            o10 = kernel_oracle(KIND_FOR_INDEX[10], inst)
            assert abs(b7 - o7) <= 1e-10 * max(abs(o7), 1e-3)
            assert abs(b10 - o10) <= 1e-10 * max(abs(o10), 1e-3)

    def test_simpson_prefactor_consistency(self):
        for p in (1.5, 2.0, 3.0, 4.0):
            b7, b10 = b7_b10(1.0 / 6.0, 5.0 / 6.0, p)
            assert b7 == pytest.approx(b10, rel=1e-14)
            assert simpson_theorem2_prefactor(p) ** p == pytest.approx(b7, rel=1e-12)
            printed = simpson_theorem2_prefactor(p, as_printed=True)
            expected_printed = (2.0 ** (p + 1.0) / ((p + 1.0) * 6.0 ** (p + 1.0))) ** (1.0 / p)
            assert printed == pytest.approx(expected_printed, rel=1e-14)
            assert printed < simpson_theorem2_prefactor(p)  # the dropped +1

    def test_simpson_prefactor_validation(self):
        with pytest.raises(ParameterError):
            simpson_theorem2_prefactor(1.0)

    @pytest.mark.parametrize(
        "call",
        [lambda: b7_b10(0.2, 0.7, None), lambda: simpson_theorem2_prefactor(None)],
        ids=["b7_b10", "simpson_theorem2_prefactor"],
    )
    def test_missing_exponent_is_parameter_error(self, call):
        # A missing p is a bad exponent like p <= 1, not a TypeError.
        with pytest.raises(ParameterError):
            call()


class TestCaseLabels:
    @pytest.mark.parametrize(
        "index,field,value,expected",
        [
            (2, "mu_", 0.0, "mu=0"),
            (2, "mu_", 0.31, "interior"),
            (2, "mu_", 0.5, "mu=1/2"),
            (3, "mu_", 0.0, "mu=0"),
            (3, "mu_", 0.2, "interior"),
            (3, "mu_", 0.5, "mu=1/2"),
            (5, "lambda_", 0.5, "lambda=1/2"),
            (5, "lambda_", 0.66, "interior"),
            (5, "lambda_", 1.0, "lambda=1"),
            (6, "lambda_", 0.5, "lambda=1/2"),
            (6, "lambda_", 0.85, "interior"),
            (6, "lambda_", 1.0, "lambda=1"),
            (1, "mu_", 0.25, "all"),
            (4, "lambda_", 0.75, "all"),
            (7, "mu_", 0.1, "all"),
            (12, "lambda_", 0.9, "all"),
        ],
    )
    def test_mapping(self, index, field, value, expected):
        inst = replace(make(), **{field: value})
        assert case_label(index, inst) == expected

    def test_index_validation(self):
        with pytest.raises(ParameterError):
            case_label(0, make())
        with pytest.raises(ParameterError):
            case_label(13, make())


class TestAdjudication:
    def test_flagged_set_is_frozen(self):
        assert EXPECTED_COEFFICIENT_ERRATA == frozenset(
            {
                (2, "interior"),
                (3, "mu=0"),
                (3, "interior"),
                (3, "mu=1/2"),
                (5, "lambda=1"),
                (5, "interior"),
                (6, "interior"),
                (6, "lambda=1/2"),
                (8, "all"),
                (9, "all"),
                (12, "all"),
            }
        )

    @pytest.mark.parametrize("index,case", ALL_CASES, ids=[f"B{i}-{c}" for i, c in ALL_CASES])
    def test_status_matches_expectation(self, index, case):
        rng = random.Random(9000 + index * 31 + hash(case) % 97)
        flagged = (index, case) in EXPECTED_COEFFICIENT_ERRATA
        for _ in range(8):
            inst = at_case(random_inst(rng, q_min=1.1), index, case)
            term = crosscheck_B(index, inst)
            assert term.case == case
            assert term.oracle >= 0.0 and math.isfinite(term.oracle)
            if flagged:
                assert term.status == "erratum_suspected", (
                    f"B{index} {case}: rel {term.rel_diff}"
                )
                assert term.rel_diff > CROSSCHECK_TOL
            else:
                assert term.status == "ok", f"B{index} {case}: rel {term.rel_diff}"
                assert term.rel_diff <= CROSSCHECK_TOL

    F21_CASES = [(i, c) for i, c in ALL_CASES if i not in (1, 4, 7, 10)]

    @pytest.mark.parametrize("index,case", F21_CASES, ids=[f"B{i}-{c}" for i, c in F21_CASES])
    def test_corrected_forms_match_oracle(self, index, case):
        for inst in corrected_draws(index, case):
            oracle = kernel_oracle(KIND_FOR_INDEX[index], inst)
            corrected = corrected_B(index, inst)
            assert abs(corrected - oracle) <= 1e-8 * max(abs(oracle), 1e-6), (
                f"B{index} {case}: corrected {corrected} oracle {oracle}"
            )

    @pytest.mark.parametrize("index", [5, 11])
    def test_corrected_form_raises_where_its_terms_cancel(self, index):
        # At q = 8 and b/a = 101 the oracle is about 1e-13, while the
        # corrected sum is left with rounding noise of about 3e-3 (B5 returned
        # -5.3e-3, B11 2.7e-3): its own bound is hundreds of times the value.
        inst = make(a=0.1, b=10.1, s=0.5, q=8.0, lam=0.75, mu=0.25)
        with pytest.raises(AccuracyError) as info:
            corrected_B(index, inst)
        value, bound = info.value.values["value"], info.value.values["bound"]
        assert bound > 100 * abs(value) > 0.0
        assert abs(kernel_oracle(KIND_FOR_INDEX[index], inst)) < 1e-12

    def test_flag_set_is_seed_stable(self):
        for seed in (101, 202):
            rng = random.Random(seed)
            flagged = set()
            for index, case in ALL_CASES:
                inst = at_case(random_inst(rng, q_min=1.1), index, case)
                term = crosscheck_B(index, inst)
                if term.status == "erratum_suspected":
                    flagged.add((index, case))
            assert flagged == EXPECTED_COEFFICIENT_ERRATA

    def test_printed_forms_jump_at_flagged_boundaries(self):
        # the misprinted branches are not even mutually consistent: the
        # interior display does not converge to the boundary display
        base = make(s=0.5, q=1.5)
        jumps = {
            3: abs(closed_B(3, replace(base, mu_=0.5 - 1e-9)) - closed_B(3, replace(base, mu_=0.5))),
            5: abs(closed_B(5, replace(base, lambda_=0.5 + 1e-9)) - closed_B(5, replace(base, lambda_=0.5))),
            6: abs(closed_B(6, replace(base, lambda_=1.0 - 1e-9)) - closed_B(6, replace(base, lambda_=1.0))),
        }
        for idx, jump in jumps.items():
            assert jump > 1e-3, f"B{idx} printed branches unexpectedly consistent"

    def test_corrected_forms_are_continuous_at_boundaries(self):
        base = make(s=0.5, q=1.5)
        pairs = [
            (2, "mu_", 0.0, 1e-9),
            (3, "mu_", 0.5, -1e-9),
            (5, "lambda_", 0.5, 1e-9),
            (6, "lambda_", 1.0, -1e-9),
        ]
        for idx, field, anchor, off in pairs:
            at = corrected_B(idx, replace(base, **{field: anchor}))
            near = corrected_B(idx, replace(base, **{field: anchor + off}))
            assert abs(near - at) <= 1e-6

    def test_crosscheck_index_validation(self):
        with pytest.raises(ParameterError):
            crosscheck_B(0, make())
        with pytest.raises(ParameterError):
            crosscheck_B(13, make())

    def test_p_moments_reject_q_one(self):
        inst = make(q=1.0)
        with pytest.raises(ParameterError):
            crosscheck_B(7, inst)

    @pytest.mark.parametrize(
        "index, case, status, expected, passed",
        [
            (2, "mu=0", "ok", False, True),
            (2, "interior", "erratum_suspected", True, True),
            (11, "all", "erratum_suspected", False, False),
            (11, "all", "oracle_only", False, False),
            (8, "all", "oracle_only", True, False),
        ],
    )
    def test_pass_rule(self, index, case, status, expected, passed):
        term = BoundTerm(index=index, case=case, oracle=1.0, closed_form=None,
                         rel_diff=None, status=status)
        assert term.expected is expected
        assert term.passed is passed

    def test_closed_form_overflow_demotes_to_oracle_only(self):
        # 2^(2q-s-2) overflows at q = 600; the oracle still evaluates.
        inst = make(s=0.5, q=600.0, lam=0.8, mu=0.3)
        with pytest.raises(EvaluationError):
            closed_B(8, inst)
        term = crosscheck_B(8, inst)
        assert term.status == "oracle_only" and not term.passed
        assert term.oracle > 0.0

    # The oracles are ~1e302, and a term's product F / b^2q passes 1e308:
    # a float product overflows to inf without an OverflowError, and
    # inf - inf is nan.
    NONFINITE_CLOSED = make(a=0.01, b=0.05, s=0.25, q=100.0, lam=0.8, mu=0.3)

    @pytest.mark.parametrize("index", [5, 6, 11])
    def test_closed_form_that_is_not_finite_demotes_to_oracle_only(self, index):
        inst = self.NONFINITE_CLOSED
        with pytest.raises(EvaluationError, match="with bound"):
            closed_B(index, inst)
        term = crosscheck_B(index, inst)
        assert term.status == "oracle_only" and not term.passed
        assert math.isfinite(term.oracle)

    def test_margin_is_tol_minus_rel_diff(self):
        for index in (1, 2, 11):
            term = crosscheck_B(index, make(s=0.5, q=2.0))
            assert term.margin == CROSSCHECK_TOL - term.rel_diff
        assert crosscheck_B(1, make(q=2.0)).margin > 0.0

    def test_oracle_only_margin_is_nan(self):
        term = crosscheck_B(11, self.NONFINITE_CLOSED)
        assert term.rel_diff is None
        assert math.isnan(term.margin)

    def test_argument_that_rounds_to_one_demotes_to_oracle_only(self):
        # At b/a = 1e17, zeta = 1 - a/b rounds to 1.0, outside the 2F1 domain;
        # the closed form fails as a row instead of aborting the run.
        inst = make(a=1e-17, b=1.0, s=0.5, q=1.0, lam=0.8, mu=0.3)
        with pytest.raises(EvaluationError, match="DomainError"):
            closed_B(11, inst)
        term = crosscheck_B(11, inst)
        assert term.status == "oracle_only" and not term.passed
        assert math.isfinite(term.oracle)

    def test_oracle_division_by_zero_is_evaluation_error(self):
        # A^400 underflows to 0 near t = 0 when a = 0.05.
        inst = make(a=0.05, b=0.5, s=0.5, q=200.0, lam=0.8, mu=0.3)
        with pytest.raises(EvaluationError):
            kernel_oracle(KIND_FOR_INDEX[2], inst)


class TestIllConditioned:
    """Past tol, a gap within the closed form's error bound is not a misprint."""

    # A sweep_wide (seed 1) instance whose printed B11 cancels: its terms
    # are ~1e9 times its value.  B11 reads only a, b, s and q.
    CANCELS = make(a=0.1264001506117494, b=6.6668316096031415, s=0.75, q=4.0,
                   lam=0.8411103263737205, mu=0.3367390116847893)

    def test_cancellation_is_ill_conditioned_and_passes(self):
        term = crosscheck_B(11, self.CANCELS)
        assert term.rel_diff > CROSSCHECK_TOL
        assert term.status == "ill_conditioned" and term.passed
        assert abs(term.closed_form - term.oracle) <= term.bound

    def test_misprint_in_a_well_conditioned_form_is_flagged(self):
        term = crosscheck_B(8, make(s=0.5, q=2.0))
        assert term.status == "erratum_suspected" and term.expected
        assert abs(term.closed_form - term.oracle) > 1e6 * term.bound

    def test_misprint_on_a_cancelling_form_is_flagged(self, monkeypatch):
        printed = bounds._printed

        def misprinted(index, inst, memo):
            value, bound = printed(index, inst, memo)
            return value * (1 + 1e-3), bound

        monkeypatch.setattr(bounds, "_printed", misprinted)
        term = crosscheck_B(11, self.CANCELS)
        assert term.status == "erratum_suspected" and not term.passed

    def test_ok_rows_carry_their_bound(self):
        term = crosscheck_B(11, make(s=0.5, q=2.0))
        assert term.status == "ok"
        assert 0.0 < term.bound <= CROSSCHECK_TOL * abs(term.oracle)
        moment = crosscheck_B(1, make(s=0.5, q=2.0))
        assert moment.status == "ok" and moment.bound == 0.0

    # Two sweep_wide (seed 3) B11 rows that land under tol, though their
    # closed forms are off by the whole gap against a 50-digit referee: the
    # bound, not the gap, says they cannot be judged.  The q = 4 row has
    # zeta = 0.982, so its 2F1 values come from the connection formulas.
    @pytest.mark.parametrize(
        "a, b, s, q, lam, mu",
        [
            (0.11585209567628575, 6.519319415334711, 0.75, 4.0,
             0.7955273887456946, 0.3183598492969878),
            (0.2706238156792558, 1.808083506356541, 0.25, 8.0,
             0.5164194431284191, 0.15892822447323413),
        ],
        ids=["q4", "q8"],
    )
    def test_gap_under_tol_with_a_wider_bound_is_ill_conditioned(
        self, a, b, s, q, lam, mu
    ):
        term = crosscheck_B(11, make(a=a, b=b, s=s, q=q, lam=lam, mu=mu))
        assert term.rel_diff <= CROSSCHECK_TOL < term.bound / abs(term.oracle)
        assert term.status == "ill_conditioned" and term.passed

    def test_pass_rule_accepts_ill_conditioned(self):
        term = BoundTerm(index=11, case="all", oracle=1.0, closed_form=1.1,
                         rel_diff=0.1, status="ill_conditioned", bound=0.2)
        assert term.passed and not term.expected


class TestClosedFormValues:
    # closed_B and corrected_B at every 2F1 case, pinned so that a slip in
    # any term shows, flagged case or not.  Interior cases sit at mu = 0.3
    # and lambda = 0.8 (also the triple of B8, B9, B11, B12).  No case's
    # largest term exceeds 300x its value here, so rel=1e-12 is not eaten
    # by cancellation.  Keyed (a, b, s, q) -> (index, case) ->
    # (closed_B, corrected_B).
    GOLDEN = {
        (1.0, 2.0, 0.5, 2.0): {
            (2, "mu=0"): (0.02237425515891041, 0.02237425515891041),
            (2, "interior"): (0.025372204135061638, 0.011540409843646345),
            (2, "mu=1/2"): (0.023731725812473816, 0.023731725812473816),
            (3, "mu=0"): (0.0060593195436744515, 0.03637263423062043),
            (3, "interior"): (0.03940908492535351, 0.03419715110186364),
            (3, "mu=1/2"): (0.09911935344431988, 0.06916096478828296),
            (5, "lambda=1/2"): (0.010319111024813511, 0.010319111024813511),
            (5, "interior"): (0.04362943273870819, 0.00674464796160075),
            (5, "lambda=1"): (0.03413384859910388, 0.013495626549476683),
            (6, "lambda=1/2"): (0.006726898023271343, 0.0048464929023304595),
            (6, "interior"): (0.39289369678792097, 0.004830368207094135),
            (6, "lambda=1"): (0.010090347034907307, 0.010090347034907307),
            (8, "all"): (0.04610598097138431, 0.09221196194276862),
            (9, "all"): (0.2289914059625005, 0.2110671980378152),
            (11, "all"): (0.04762947514858351, 0.04762947514858351),
            (12, "all"): (0.009692985804660919, 0.029873679874475534),
        },
        (0.7, 2.4, 0.25, 3.0): {
            (2, "mu=0"): (0.03918792965091445, 0.03918792965091445),
            (2, "interior"): (0.1173803828000762, 0.06649724446250674),
            (2, "mu=1/2"): (0.13042253147431287, 0.13042253147431287),
            (3, "mu=0"): (0.030614935628733214, 0.05920218145520717),
            (3, "interior"): (0.14706750923466358, 0.1460379514099559),
            (3, "mu=1/2"): (0.30954545795966953, 0.27574824403556936),
            (5, "lambda=1/2"): (0.0016140033702011503, 0.001614003370195835),
            (5, "interior"): (0.13748872536533685, 0.0018003564651628001),
            (5, "lambda=1"): (0.006835043334314325, 0.0036070365939209273),
            (6, "lambda=1/2"): (0.002582229659376415, 0.0011752317335139229),
            (6, "interior"): (1.089009160238401, 0.0016097415060578038),
            (6, "lambda=1"): (0.0032277870742208, 0.0032277870742208),
            (8, "all"): (0.16961046112523154, 0.3392209222504631),
            (9, "all"): (0.6747930941012955, 0.6699008509815902),
            (11, "all"): (0.010442079928235315, 0.010442079928235315),
            (12, "all"): (0.0023504634670278458, 0.008806037615469445),
        },
    }

    @staticmethod
    def pinned_instance(absq, case):
        a, b, s, q = absq
        mu = {"mu=0": 0.0, "mu=1/2": 0.5}.get(case, 0.3)
        lam = {"lambda=1/2": 0.5, "lambda=1": 1.0}.get(case, 0.8)
        return make(a=a, b=b, s=s, q=q, lam=lam, mu=mu)

    # abs=0: approx's default abs=1e-12 would swamp rel=1e-12 on pins of 1e-3.
    # test_oracle_referee holds every pin within its bound of a 40-digit referee.
    @pytest.mark.parametrize("absq", sorted(GOLDEN), ids=lambda k: "a{}-b{}-s{}-q{}".format(*k))
    def test_pinned_values(self, absq):
        for (index, case), (printed, corrected) in self.GOLDEN[absq].items():
            inst = self.pinned_instance(absq, case)
            assert case_label(index, inst) == case
            assert closed_B(index, inst) == pytest.approx(printed, rel=1e-12, abs=0), (index, case)
            assert corrected_B(index, inst) == pytest.approx(corrected, rel=1e-12, abs=0), (
                index, case,
            )

    def test_printed_table_keys_are_the_cases(self):
        cases = [(i, c) for i, c in ALL_CASES if i not in (1, 4, 7, 10)]
        assert len(cases) == 16
        assert set(PRINTED) == set(cases)
        for index, case in PRINTED:
            inst = at_case(make(lam=0.8, mu=0.3), index, case)
            assert case_label(index, inst) == case

    def test_derived_forms_depart_from_printed_exactly_on_the_locked_errata(self):
        rng = random.Random(2027)
        for base in [make(s=0.5, q=2.0, lam=0.8, mu=0.3)] + [
            random_inst(rng, q_min=1.1) for _ in range(4)
        ]:
            departed = set()
            for index, case in PRINTED:
                inst = at_case(base, index, case)
                corrected = corrected_B(index, inst)
                if abs(corrected - closed_B(index, inst)) > CROSSCHECK_TOL * abs(corrected):
                    departed.add((index, case))
            assert departed == EXPECTED_COEFFICIENT_ERRATA, base


CLOSED_INDICES = (2, 3, 5, 6, 8, 9, 11, 12)


@pytest.mark.parametrize("k", [-20, -1, 1, 20])
def test_coefficients_are_homogeneous_of_degree_minus_2q_in_a_and_b(k):
    # (a, b) -> 2^k (a, b) scales A_t by 2^k and leaves every 2F1 argument
    # and weight alone, so each 2F1-based coefficient scales by 2^(-2qk).
    # The draws take the default sweep ranges, each index cycling its cases.
    cases = {i: [c for j, c in ALL_CASES if j == i] for i in CLOSED_INDICES}
    evaluators = {
        "closed_B": closed_B,
        "corrected_B": corrected_B,
        "kernel_oracle": lambda index, inst: kernel_oracle(KIND_FOR_INDEX[index], inst),
    }
    draws = generate_instances(SweepConfig(samples=40, rng_seed=27))[0]
    for n, drawn in enumerate(draws):
        base = make(a=drawn.a, b=drawn.b, s=drawn.s, q=drawn.q, lam=drawn.lambda_, mu=drawn.mu_)
        scaled = replace(base, a=2.0**k * base.a, b=2.0**k * base.b)
        factor = 2.0 ** (-2.0 * base.q * k)
        for index in CLOSED_INDICES:
            case = cases[index][n % len(cases[index])]
            inst, moved = at_case(base, index, case), at_case(scaled, index, case)
            for name, evaluate in evaluators.items():
                want = factor * evaluate(index, inst)
                got = evaluate(index, moved)
                assert abs(got - want) <= 1e-13 * abs(want), (name, index, case, n)


def assert_scales_with_f(rhs, seed):
    """rhs(c f) = c rhs(f) for c = 2^k, k in [-40, 40], on sampled sweep instances.

    |(c f)'|^q = c^q |f'|^q, so each brace scales by c^q and its 1/q power by c.
    """
    instances = generate_instances(SweepConfig(samples=150, rng_seed=seed))[0]
    rng = random.Random(seed)
    draws = 0
    for inst in instances:
        if rhs is theorem2_rhs and inst.q == 1.0:
            continue
        c = 2.0 ** rng.randint(-40, 40)
        scaled = replace(inst, f=combine("scale", [inst.f], lam=c))
        assert rhs(scaled) == pytest.approx(c * rhs(inst), rel=1e-13, abs=0.0), (inst, c)
        draws += 1
    assert draws >= 100


class TestTheorem1:
    GOLDEN = make(s=1.0, q=1.0, lam=0.5, mu=0.5)

    def test_golden_rhs(self):
        rhs = theorem1_rhs(self.GOLDEN)
        assert rhs == pytest.approx(0.26443392868723314, abs=1e-8)

    def test_golden_braces(self):
        # at q=1 the power-mean weights collapse and the RHS splits into
        # ab(b-a) * (left brace + right brace)
        left = kernel_oracle(KIND_FOR_INDEX[2], self.GOLDEN) + kernel_oracle(
            KIND_FOR_INDEX[3], self.GOLDEN
        )
        right = kernel_oracle(KIND_FOR_INDEX[5], self.GOLDEN) + kernel_oracle(
            KIND_FOR_INDEX[6], self.GOLDEN
        )
        assert left == pytest.approx(0.09453489189183563, abs=1e-9)
        assert right == pytest.approx(0.03768207245178093, abs=1e-9)
        assert theorem1_rhs(self.GOLDEN) == pytest.approx(2.0 * (left + right), rel=1e-12)

    def test_scales_with_f(self):
        assert_scales_with_f(theorem1_rhs, seed=41)

    def test_band_enforced(self):
        with pytest.raises(ParameterError):
            theorem1_rhs(make(lam=0.3))


class TestTheorem2:
    def test_rejects_q_at_most_one(self):
        with pytest.raises(ParameterError):
            theorem2_rhs(make(q=1.0))

    def test_positive_and_finite(self):
        rng = random.Random(31)
        for _ in range(5):
            inst = random_inst(rng, q_min=1.2)
            rhs = theorem2_rhs(inst)
            assert math.isfinite(rhs) and rhs > 0.0

    def test_scales_with_f(self):
        assert_scales_with_f(theorem2_rhs, seed=42)


class TestCorollaries:
    @pytest.mark.parametrize("preset", sorted(PRESETS))
    @pytest.mark.parametrize("theorem", [1, 2])
    def test_matches_general_rhs(self, preset, theorem):
        lam, mu = PRESETS[preset]
        inst = make(a=1.0, b=2.3, s=0.7, m=1.0, q=2.5, lam=lam, mu=mu, f=SQUARE)
        general = theorem1_rhs(inst) if theorem == 1 else theorem2_rhs(inst)
        special = corollary_rhs(inst, theorem)
        assert special == pytest.approx(general, rel=1e-12)

    def test_triple_mismatch_rejected(self):
        inst = make(lam=0.8, mu=0.3)
        with pytest.raises(ParameterError, match="preset"):
            corollary_rhs(inst, 1)

    def test_kind_and_theorem_validation(self):
        # The triple names the corollary: one off a preset by one ulp names none.
        with pytest.raises(ParameterError, match="preset"):
            corollary_rhs(make(lam=0.5, mu=math.nextafter(0.5, 0.0)), 1)
        with pytest.raises(ParameterError, match="theorem"):
            corollary_rhs(make(lam=0.5, mu=0.5), 3)

    def test_theorem2_needs_q_above_one(self):
        with pytest.raises(ParameterError, match="q > 1"):
            corollary_rhs(make(q=1.0, lam=0.5, mu=0.5), 2)

    def test_preset_table(self):
        assert PRESETS["trapezoid"] == (0.5, 0.5)
        assert PRESETS["midpoint"] == (1.0, 0.0)
        assert PRESETS["simpson"] == (5.0 / 6.0, 1.0 / 6.0)


class TestRhsOverflow:
    # Each instance overflows at a different step of the RHS assembly:
    # |f'(a)|^q, the braces, and the product of finite braces with ab(b-a).
    INSTANCES = {
        "deriv_pow": make(a=3.0, b=4.0, q=1000.0, lam=0.5, mu=0.5, f=SQUARE),
        "braces": make(a=0.01, b=0.02, q=70.0, lam=0.5, mu=0.5, f=power(1.0, -1.0)),
        "product": make(a=1.0, b=1e103, q=1.0, lam=0.5, mu=0.5, f=power(1e110, 2.0)),
    }
    RHS = {
        "theorem1": theorem1_rhs,
        "theorem2": theorem2_rhs,
        "trapezoid1": lambda inst: corollary_rhs(inst, 1),
    }
    # Theorem 2 needs q > 1, which the "product" instance (q = 1) lacks.
    CASES = [
        ("deriv_pow", "theorem1"), ("deriv_pow", "theorem2"), ("deriv_pow", "trapezoid1"),
        ("braces", "theorem1"), ("braces", "theorem2"), ("braces", "trapezoid1"),
        ("product", "theorem1"), ("product", "trapezoid1"),
    ]

    @pytest.mark.parametrize("where,rhs", CASES)
    def test_overflow_raises_evaluation_error(self, where, rhs):
        with pytest.raises(EvaluationError):
            self.RHS[rhs](self.INSTANCES[where])


class TestRhsPinnedBitwise:
    # float.hex of (theorem1_rhs, theorem2_rhs, corollary_rhs theorem 1,
    # corollary_rhs theorem 2) at the instance triple and the three presets.
    # Refactors of the RHS assembly must keep every bit.
    PINNED = {
        (1.0, 2.3, 1.0, 1.0, 2.5, 0.8, 0.3): {
            "instance": ("0x1.a0510ffbf268cp-1", "0x1.99743c47a023ep-1"),
            "trapezoid": ("0x1.79134742ae02ep+0", "0x1.8512a1c5725f3p+0",
                          "0x1.79134742ae02dp+0", "0x1.8512a1c5725f3p+0"),
            "midpoint": ("0x1.31705a2e6fee7p+0", "0x1.8512a1c5725f3p+0",
                         "0x1.31705a2e6fee7p+0", "0x1.8512a1c5725f3p+0"),
            "simpson": ("0x1.740d5017231a7p-1", "0x1.bc0b0e21bc9a2p-1",
                        "0x1.740d5017231a4p-1", "0x1.bc0b0e21bc9a2p-1"),
        },
        (0.7, 1.9, 0.45, 0.8, 3.0, 0.7, 0.2): {
            "instance": ("0x1.6a9b338370250p-1", "0x1.959a5a8e7e2abp-1"),
            "trapezoid": ("0x1.8078d1df2387cp+0", "0x1.8286bb20d8fc6p+0",
                          "0x1.8078d1df2387cp+0", "0x1.8286bb20d8fc6p+0"),
            "midpoint": ("0x1.2d9707d980df1p+0", "0x1.8286bb20d8fc6p+0",
                         "0x1.2d9707d980df1p+0", "0x1.8286bb20d8fc6p+0"),
            "simpson": ("0x1.7d0eb9dd97067p-1", "0x1.b661dc3eb2d4cp-1",
                        "0x1.7d0eb9dd97066p-1", "0x1.b661dc3eb2d4bp-1"),
        },
    }

    @pytest.mark.parametrize(
        "point", sorted(PINNED), ids=lambda k: "a{}-b{}-s{}-m{}-q{}-lam{}-mu{}".format(*k)
    )
    def test_rhs_pinned_bitwise(self, point):
        a, b, s, m, q, lam, mu = point
        for name, expected in self.PINNED[point].items():
            lam_, mu_ = PRESETS.get(name, (lam, mu))
            inst = make(a=a, b=b, s=s, m=m, q=q, lam=lam_, mu=mu_, f=SQUARE)
            got = [theorem1_rhs(inst).hex(), theorem2_rhs(inst).hex()]
            if name in PRESETS:
                got += [corollary_rhs(inst, theorem).hex() for theorem in (1, 2)]
            assert tuple(got) == expected, name


class TestCheckTheorem:
    def test_certified_square_passes_theorem1(self):
        inst = make(lam=0.5, mu=0.5, f=SQUARE)
        v = check_theorem(inst, 1)
        assert v.passed
        assert v.margin >= -MARGIN_TOL
        assert v.lhs == pytest.approx(abs(1.5 - 2.0), abs=1e-6) or v.lhs >= 0.0

    def test_certified_square_passes_theorem2(self):
        inst = make(s=0.8, m=0.9, q=2.0, lam=5.0 / 6.0, mu=1.0 / 6.0, f=SQUARE)
        v = check_theorem(inst, 2)
        assert v.passed
        assert v.theorem == 2

    def test_uncertified_instance_rejected(self):
        # |f'|^q of the sqrt family is x^(-q/2): at s=1 it lies outside the
        # class, so the hypothesis gate must fire
        inst = make(s=1.0, q=1.0, f=s_power(1.0, 0.5, 0.0))
        cert = certify_instance(inst)
        assert not cert.holds
        with pytest.raises(PreconditionError):
            check_theorem(inst, 1)

    def test_certificate_reuse(self):
        inst = make(lam=0.5, mu=0.5, f=SQUARE)
        cert = certify_instance(inst)
        assert cert.holds
        v = check_theorem(inst, 1, certificate=cert)
        assert v.passed

    def test_theorem_validation(self):
        with pytest.raises(ParameterError):
            check_theorem(make(f=SQUARE), 3)

    def test_theorem2_exponent_rule_comes_before_certification(self, monkeypatch):
        def certify(*args, **kwargs):
            raise AssertionError("certification ran before the q > 1 check")

        monkeypatch.setattr(bounds, "certify_instance", certify)
        with pytest.raises(ParameterError, match="q > 1"):
            check_theorem(make(q=1.0, f=SQUARE), 2)

    def test_margins_on_random_certified_instances(self):
        rng = random.Random(6021023)
        checked = 0
        for _ in range(30):
            inst = replace(random_inst(rng, q_min=1.1), f=SQUARE)
            cert = certify_instance(inst)
            if not cert.holds:
                continue
            checked += 1
            for theorem in (1, 2):
                v = check_theorem(inst, theorem, certificate=cert)
                assert v.margin >= -MARGIN_TOL, (
                    f"T{theorem} violated: {inst} margin {v.margin}"
                )
            if checked >= 12:
                break
        assert checked >= 8

    def test_starved_quadrature_raises(self, monkeypatch):
        from harmonia import QuadSettings, quadrature

        inst = make(lam=0.5, mu=0.5, f=SQUARE)
        starved = QuadSettings(abs_tol=1e-300, rel_tol=1e-16, max_subdivisions=1)
        monkeypatch.setattr(quadrature, "DEFAULT_SETTINGS", starved)
        with pytest.raises(AccuracyError):
            check_theorem(inst, 1)
