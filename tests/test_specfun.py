"""Gamma, Beta, and dual-path Gauss 2F1 contracts."""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonia import (
    AccuracyBudget,
    AccuracyError,
    DomainError,
    ParameterError,
    beta,
    gamma,
    gamma_integral,
    hyp2f1,
    hyp2f1_euler,
    hyp2f1_series,
)

# (beta_, gamma_) argument shapes that the coefficient closed forms feed
# into 2F1, as functions of the convexity exponent s.
F21_SHAPES = (
    lambda s: (1.0, s + 2.0),
    lambda s: (1.0, s + 3.0),
    lambda s: (2.0, s + 3.0),
    lambda s: (s + 1.0, s + 2.0),
    lambda s: (s + 1.0, s + 3.0),
    lambda s: (s + 2.0, s + 3.0),
)


class TestGamma:
    def test_golden_values(self):
        assert gamma(1.0) == pytest.approx(1.0, rel=1e-13)
        assert gamma(5.0) == pytest.approx(24.0, rel=1e-13)
        assert gamma(0.5) == pytest.approx(1.7724538509055160, rel=1e-13)

    def test_recurrence_on_grid(self):
        # gamma(x+1) = x*gamma(x) across [0.1, 10] in steps of 0.1
        for k in range(1, 101):
            x = k / 10.0
            lhs = gamma(x + 1.0)
            rhs = x * gamma(x)
            assert abs(lhs - rhs) <= 1e-12 * abs(rhs), f"recurrence broke at x={x}"

    def test_agrees_with_math_gamma(self):
        rng = random.Random(7)
        for _ in range(200):
            x = rng.uniform(0.05, 30.0)
            assert gamma(x) == pytest.approx(math.gamma(x), rel=1e-12)

    def test_integral_oracle(self):
        for x in (0.5, 1.0, 1.7, 3.0, 4.2):
            assert gamma_integral(x) == pytest.approx(gamma(x), rel=1e-9)

    @pytest.mark.parametrize("x", [0.0, -1.0, -0.5, math.inf, math.nan])
    def test_domain(self, x):
        with pytest.raises(DomainError):
            gamma(x)


class TestBeta:
    def test_golden_values(self):
        assert beta(1.0, 1.0) == pytest.approx(1.0, rel=1e-13)
        assert beta(2.0, 3.0) == pytest.approx(1.0 / 12.0, rel=1e-13)
        assert beta(1.0, 2.5) == pytest.approx(0.4, rel=1e-13)

    def test_symmetry_1000_pairs(self):
        rng = random.Random(20260816)
        for _ in range(1000):
            a = rng.uniform(0.05, 8.0)
            b = rng.uniform(0.05, 8.0)
            x, y = beta(a, b), beta(b, a)
            assert abs(x - y) <= 1e-13 * max(abs(x), abs(y))

    def test_against_tanh_sinh_integral(self):
        # Euler integral of t^(a-1) (1-t)^(b-1).  Split at 1/2 and fold the
        # upper half with u = 1-t so each singularity sits at a zero lower
        # endpoint, where the tanh-sinh abscissae carry full precision.
        from harmonia import QuadSettings, integrate_de

        deep = QuadSettings(abs_tol=1e-12, rel_tol=1e-12, max_subdivisions=40000)
        rng = random.Random(99)
        for _ in range(40):
            a = rng.uniform(0.05, 4.0)
            b = rng.uniform(0.05, 4.0)
            lower = integrate_de(
                lambda t, a=a, b=b: t ** (a - 1.0) * (1.0 - t) ** (b - 1.0), 0.0, 0.5, deep
            )
            upper = integrate_de(
                lambda u, a=a, b=b: u ** (b - 1.0) * (1.0 - u) ** (a - 1.0), 0.0, 0.5, deep
            )
            assert lower.converged and upper.converged
            assert abs(lower.value + upper.value - beta(a, b)) <= 1e-9

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0), (math.nan, 1.0)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            beta(a, b)


class TestHyp2F1:
    def test_z_zero_is_one(self):
        for alpha, b_, g_ in ((2.0, 1.0, 3.0), (4.0, 1.5, 2.5), (10.0, 2.0, 4.0)):
            assert hyp2f1(alpha, b_, g_, 0.0) == pytest.approx(1.0, rel=1e-13)

    def test_log_case(self):
        # 2F1(1,1;2;z) = -log(1-z)/z
        val = hyp2f1(1.0, 1.0, 2.0, 0.5)
        assert val == pytest.approx(2.0 * math.log(2.0), rel=1e-11)
        assert val == pytest.approx(1.3862943611, abs=1e-9)

    def test_binomial_case(self):
        # 2F1(a,b;b;z) = (1-z)^-a whenever gamma_ == beta_ is off-pattern,
        # so use the Euler-safe contiguous pair gamma_ = beta_ + 1 instead:
        # 2F1(1, b; b+1; z) = b * z^-b * integral, checked numerically at a
        # point with a known closed form: 2F1(1,2;3;z) = 2(-z-log(1-z))/z^2.
        z = 0.4
        exact = 2.0 * (-z - math.log(1.0 - z)) / (z * z)
        assert hyp2f1(1.0, 2.0, 3.0, z) == pytest.approx(exact, rel=1e-11)

    def test_euler_vs_series_on_working_grid(self):
        for q in (1.0, 1.5, 2.0, 3.0, 5.0):
            alpha = 2.0 * q
            for s in (0.25, 0.5, 0.75, 1.0):
                for shape in F21_SHAPES:
                    b_, g_ = shape(s)
                    for z in (0.0, 0.1, 0.3, 0.5, 0.7, 0.9):
                        e = hyp2f1_euler(alpha, b_, g_, z)
                        srs, _ = hyp2f1_series(alpha, b_, g_, z)
                        assert abs(e - srs) <= 1e-10 * max(abs(e), abs(srs), 1.0), (
                            f"paths disagree at alpha={alpha}, beta_={b_}, gamma_={g_}, z={z}"
                        )

    def test_nondecreasing_in_z(self):
        # positive parameters make every series term nonnegative
        for alpha, b_, g_ in ((2.0, 1.0, 3.0), (6.0, 1.5, 3.5), (4.0, 2.0, 4.0)):
            prev = -math.inf
            for k in range(10):
                z = 0.09 * k
                val = hyp2f1(alpha, b_, g_, z)
                assert val >= prev - 1e-12
                prev = val

    def test_series_reports_terms(self):
        val, terms = hyp2f1_series(2.0, 1.0, 3.0, 0.5)
        assert terms >= 2
        assert val == pytest.approx(hyp2f1_euler(2.0, 1.0, 3.0, 0.5), rel=1e-10)

    @pytest.mark.parametrize(
        "alpha,b_,g_,z",
        [
            (2.0, 0.0, 1.0, 0.5),  # beta_ must be > 0
            (2.0, 2.0, 2.0, 0.5),  # gamma_ must exceed beta_
            (2.0, 3.0, 2.0, 0.5),
            (2.0, 1.0, 2.0, 1.0),  # z must stay below 1
            (2.0, 1.0, 2.0, -0.1),
            (math.nan, 1.0, 2.0, 0.5),
        ],
    )
    def test_domain(self, alpha, b_, g_, z):
        with pytest.raises(DomainError):
            hyp2f1(alpha, b_, g_, z)

    def test_budget_validation(self):
        with pytest.raises(ParameterError):
            AccuracyBudget(rel_tol=0.0)
        with pytest.raises(ParameterError):
            AccuracyBudget(max_work=0)
        with pytest.raises(ParameterError):
            AccuracyBudget(max_work=2.5e5)  # a float cap would reach QuadSettings

    @pytest.mark.parametrize(
        "alpha,b_,g_,z,rel_tol",
        [
            # q = 1 shapes (2, 1, s+3): later term ratios exceed the current one
            (2.0, 1.0, 3.25, 0.99, 1e-13),
            (2.0, 1.0, 3.5, 0.99, 1e-13),
            (2.0, 1.0, 3.75, 0.999, 1e-12),
            # 25k terms: the sum's own rounding matters as much as the tail
            (2.0, 2.0, 4.0, 0.999, 1e-13),
            (4.0, 1.0, 3.5, 0.99, 1e-12),
        ],
    )
    def test_series_error_within_rel_tol(self, alpha, b_, g_, z, rel_tol):
        mpmath = pytest.importorskip("mpmath")
        val, _ = hyp2f1_series(alpha, b_, g_, z, rel_tol=rel_tol)
        with mpmath.workdps(40):
            ref = mpmath.hyp2f1(alpha, b_, g_, z)
            rel_err = float(abs((mpmath.mpf(val) - ref) / ref))
        assert rel_err <= rel_tol

    def test_series_term_cap_raises(self):
        with pytest.raises(AccuracyError) as exc:
            hyp2f1_series(8.0, 2.0, 3.0, 0.95, rel_tol=1e-15, max_terms=10)
        assert "partial_sum" in exc.value.values


@given(
    q=st.floats(1.0, 5.0),
    s=st.floats(0.05, 1.0),
    z=st.floats(0.0, 0.9),
    shape=st.sampled_from(F21_SHAPES),
)
def test_dual_path_agreement_property(q, s, z, shape):
    b_, g_ = shape(s)
    val = hyp2f1(2.0 * q, b_, g_, z)  # raises AccuracyError on disagreement
    assert math.isfinite(val)
    assert val >= 1.0 - 1e-12  # nonnegative-term series starts at 1
