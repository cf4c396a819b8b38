"""Gamma, Beta, and dual-path Gauss 2F1 contracts."""

from __future__ import annotations

import json
import math
import random
import runpy
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonia import (
    AccuracyError,
    DomainError,
    SweepConfig,
    beta,
    bounds,
    gamma,
    generate_instances,
    hyp2f1,
    hyp2f1_euler,
)
from harmonia import specfun
from harmonia.bounds import _BETA_ERR, PRINTED
from harmonia.cli import main
from harmonia.specfun import (
    _CUT,
    _GAMMA_ERR,
    _connection,
    _digamma,
    _digamma_err,
    _gauss_sum,
    _hyp2f1_bounded,
    _near_one,
    _w_sum,
)

WORKLOADS = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
U = 2.0**-53

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

    def test_agrees_with_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(7)
        with mpmath.workdps(40):
            for _ in range(200):
                x = rng.uniform(0.05, 30.0)
                assert gamma(x) == pytest.approx(float(mpmath.gamma(x)), rel=1e-12)

    def test_overflow_is_inf(self):
        # Gamma passes the double range above about 171.6 and below about 5.6e-309.
        assert gamma(171.7) == math.inf
        assert gamma(5e-324) == math.inf

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
            assert beta(a, b) == beta(b, a)

    def test_overflow_is_inf(self):
        assert beta(5e-324, 1.0) == math.inf

    def test_error_within_closed_form_allowance(self):
        # bounds._evaluate charges every Beta of PRINTED _BETA_ERR (the derived
        # forms have none); check that against 40-digit mpmath on a seeded sample
        # of s in (0, 1].
        mpmath = pytest.importorskip("mpmath")
        pairs = {(t[3], t[4]) for terms in PRINTED.values() for t in terms}
        assert len(pairs) == 6
        rng = random.Random(20261018)
        worst = 0.0
        with mpmath.workdps(40):
            for s in [1.0] + [1.0 - rng.random() for _ in range(300)]:
                v = {"1": 1.0, "2": 2.0, "s+1": s + 1, "s+2": s + 2, "s+3": s + 3}
                for x, y in pairs:
                    ref = mpmath.beta(v[x], v[y])
                    worst = max(worst, float(abs((beta(v[x], v[y]) - ref) / ref)))
        assert worst <= _BETA_ERR

    def test_against_mpmath_beta(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(99)
        with mpmath.workdps(40):
            for _ in range(40):
                a = rng.uniform(0.05, 4.0)
                b = rng.uniform(0.05, 4.0)
                ref = mpmath.beta(a, b)
                assert abs(beta(a, b) - ref) <= 1e-13 * ref, (a, b)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (-1.0, 2.0), (1.0, 0.0), (math.nan, 1.0)])
    def test_domain(self, a, b):
        with pytest.raises(DomainError):
            beta(a, b)

    def test_large_arguments_match_mpmath(self):
        # A log-spaced grid over [1e-3, 1e300]^2.  mpmath's own Beta cancels
        # in lgamma(b) - lgamma(a + b) too, so the reference works with
        # log10(b) digits on top of 50 and is rounded once at the end.
        mpmath = pytest.importorskip("mpmath")
        grid = [10.0 ** (-3.0 + 303.0 * k / 40) for k in range(41)]
        smallest_normal = mpmath.mpf(2) ** -1022
        underflow = mpmath.mpf(2) ** -1075
        for i, a in enumerate(grid):
            for b in grid[i:]:
                with mpmath.workdps(50 + max(0, int(math.log10(b)))):
                    ref = mpmath.beta(a, b)
                got = beta(a, b)
                assert got == beta(b, a)
                if ref >= smallest_normal:
                    assert abs((got - ref) / ref) <= 1e-12, (a, b, got)
                elif ref < underflow:
                    assert got == 0.0, (a, b, got)

    @pytest.mark.parametrize(
        "a,b,expected",
        # 12 digits of mpmath at 400 working digits; the last one underflows.
        [(0.5, 1e6, 1.77245407246e-3), (0.5, 1e10, 1.77245385093e-5),
         (2.5, 1e12, 1.32934038818e-30), (0.5, 1e300, 1.77245385091e-150), (1e308, 1e308, 0.0)],
    )
    def test_extreme_arguments(self, a, b, expected):
        assert beta(a, b) == pytest.approx(expected, rel=1e-10, abs=0.0)

    def test_closed_form_range_bits_unchanged(self):
        # The term tables' Beta arguments lie in [1, 4]; there beta() is the
        # plain lgamma formula, so no closed-form bit moves.
        grid = [1.0 + 3.0 * k / 60 for k in range(61)]
        for a in grid:
            for b in grid:
                plain = math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
                assert beta(a, b) == plain


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
                        srs = _gauss_sum(alpha, b_, g_, z)[0]
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
        val, terms, _, _ = _gauss_sum(2.0, 1.0, 3.0, 0.5)
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
    def test_series_error_within_rel_tol(self, alpha, b_, g_, z, rel_tol, monkeypatch):
        mpmath = pytest.importorskip("mpmath")
        monkeypatch.setattr(specfun, "_REL_TOL", 10.0 * rel_tol)  # the series sums to a tenth
        assert specfun._REL_TOL / 10.0 == rel_tol
        val = _gauss_sum(alpha, b_, g_, z)[0]
        with mpmath.workdps(40):
            ref = mpmath.hyp2f1(alpha, b_, g_, z)
            rel_err = float(abs((mpmath.mpf(val) - ref) / ref))
        assert rel_err <= rel_tol

    def test_series_term_cap_raises(self, monkeypatch):
        monkeypatch.setattr(specfun, "_REL_TOL", 1e-14)
        monkeypatch.setattr(specfun, "_MAX_TERMS", 10)
        with pytest.raises(AccuracyError) as exc:
            _gauss_sum(8.0, 2.0, 3.0, 0.95)
        assert "partial_sum" in exc.value.values

    def test_returns_the_bounded_value(self):
        # Both of _hyp2f1_bounded's paths: the series and a connection formula.
        for args in ((2.0, 1.0, 3.0, 0.5), (4.0, 1.5, 3.5, 0.7), (16.0, 1.0, 3.0, 0.99)):
            assert hyp2f1(*args) == _hyp2f1_bounded(*args)[0]

    def test_paths_that_disagree_raise(self, monkeypatch):
        args = (4.0, 1.5, 3.5, 0.7)
        value = hyp2f1(*args)
        monkeypatch.setattr(specfun, "hyp2f1_euler", lambda *a: value * (1.0 + 2e-10))
        with pytest.raises(AccuracyError, match="disagree") as exc:
            hyp2f1(*args)
        assert exc.value.values == {"euler": value * (1.0 + 2e-10), "value": value}

    def test_bound_above_rel_tol_raises(self):
        # q = 1.0000001 near z = 1: c - a - b is near an integer, so the
        # connection formulas give up and the series' bound is 1.6e-12.
        args = (2.0000002, 1.0, 3.0, 0.9999)
        value, bound = _hyp2f1_bounded(*args)
        assert bound > specfun._REL_TOL
        with pytest.raises(AccuracyError, match="bound") as exc:
            hyp2f1(*args)
        assert exc.value.values == {"value": value, "bound": bound}


def _mp_rel_err(value, alpha, b_, g_, z):
    """|value - 2F1| / |2F1| against 40-digit mpmath at exactly these arguments."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        ref = mpmath.hyp2f1(alpha, b_, g_, z)
        return float(abs((mpmath.mpf(value) - ref) / ref))


@pytest.fixture
def series_path(monkeypatch):
    """Send every argument to the Gauss series, as below the cut."""
    monkeypatch.setattr(specfun, "_CUT", 1.0)


class TestBoundedSeries:
    """The private series path the closed forms read: value and error bound."""

    # The Gauss series misses its 1e-13 tail target here by the rounding of
    # its term recurrence: 1.01e-13 after 6,069 terms and 1.10e-13 after 8,816.
    @pytest.mark.parametrize("args", [(16.0, 1.0, 3.0, 0.99), (8.0, 1.0, 3.0, 0.995)])
    def test_bound_covers_the_recurrence_rounding(self, args, series_path):
        value, bound = _hyp2f1_bounded(*args)
        assert _mp_rel_err(value, *args) > 1e-13
        assert _mp_rel_err(value, *args) <= bound

    def test_value_is_the_series_hyp2f1_sums(self, series_path):
        for args in ((16.0, 1.0, 3.0, 0.99), (4.0, 1.5, 3.5, 0.3), (2.0, 2.0, 3.25, 0.0)):
            assert _hyp2f1_bounded(*args)[0] == _gauss_sum(*args)[0]

    def test_bound_covers_rounded_arguments_on_the_series(self, series_path):
        # test_bound_covers_rounded_arguments now reads the connection formulas.
        mpmath = pytest.importorskip("mpmath")
        arg_err = 8 * U
        value, bound = _hyp2f1_bounded(16.0, 1.5, 3.5, 0.99, arg_err)
        for sign in (-1, 1):
            with mpmath.workdps(40):
                err = sign * mpmath.mpf(arg_err)
                moved = (16.0, 1.5 * (1 + err), 3.5 / (1 + err), mpmath.mpf(0.99) + err)
            assert _mp_rel_err(value, *moved) <= bound

    def test_below_the_cut_the_value_is_the_series(self):
        args = (16.0, 1.0, 3.0, math.nextafter(_CUT, 0.0))
        assert _hyp2f1_bounded(*args)[0] == _gauss_sum(*args)[0]

    def test_bound_covers_rounded_arguments(self):
        # The caller's z, beta_ and gamma_ may each be off by arg_err.
        mpmath = pytest.importorskip("mpmath")
        arg_err = 8 * U
        value, bound = _hyp2f1_bounded(16.0, 1.5, 3.5, 0.99, arg_err)
        assert bound > _hyp2f1_bounded(16.0, 1.5, 3.5, 0.99)[1]
        for sign in (-1, 1):
            with mpmath.workdps(40):
                err = sign * mpmath.mpf(arg_err)
                moved = (16.0, 1.5 * (1 + err), 3.5 / (1 + err), mpmath.mpf(0.99) + err)
            assert _mp_rel_err(value, *moved) <= bound

    def test_bound_covers_sweep_wide_near_one(self):
        # Every distinct 2F1 argument set with z >= 0.9 that the sweep_wide
        # benchmark workload evaluates at seed 1: its crosschecks read the
        # closed forms at the instance triple through this call.
        sets = _wide_sets(0.9)
        assert len(sets) > 500
        for args in sets:
            value, bound = _hyp2f1_bounded(*args)
            assert _mp_rel_err(value, *args) <= bound, args


def _wide_sets(cut: float) -> list[tuple]:
    """Every distinct (alpha, beta_, gamma_, z) with z >= cut that the
    sweep_wide crosschecks read at seed 1, collected by wrapping the
    closed forms' _hyp2f1_bounded while each instance's table is built."""
    workloads = runpy.run_path(str(WORKLOADS))
    cfg = SweepConfig.from_dict(workloads["sweep_config"]("sweep_wide", 1))
    sets = set()
    real = bounds._hyp2f1_bounded

    def collect(alpha, beta_, gamma_, z, *arg_err):
        sets.add((alpha, beta_, gamma_, z))
        return real(alpha, beta_, gamma_, z, *arg_err)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bounds, "_hyp2f1_bounded", collect)
        for inst in generate_instances(cfg)[0]:
            bounds._instance_values(inst, printed=[(i, bounds.case_label(i, inst))
                                                   for i in (2, 3, 5, 6, 8, 9, 11, 12)])
    return sorted(args for args in sets if args[3] >= cut)


@pytest.fixture(scope="module")
def wide_sets_near_one() -> list[tuple]:
    """Every distinct (alpha, beta_, gamma_, z) with z >= _CUT that the
    sweep_wide crosschecks read at seed 1."""
    return _wide_sets(_CUT)


class TestConnection:
    """At z >= _CUT the closed forms' 2F1 comes from the 1 - z connection
    formulas: DLMF 15.8.4, or A&S 15.3.10-15.3.12 where c - a - b is an
    integer, with the Gauss series as the fallback."""

    @pytest.mark.parametrize(
        "args",
        [
            (2.0, 1.0, 3.0),  # c - a - b = 0
            (2.0, 1.0, 4.0),  # +1: q = 1, s = 1
            *((1.0 - k, 1.5, 2.5) for k in range(-1, -16, -1)),  # -1 .. -15 (q = 1 .. 8)
            (2.0, 1.0, 3.25),  # a quarter-integer
            (4.0, 1.0, 3.0),  # -2 with b - m = -1: 1/Gamma(b - m) = 0, no log series
            (2.0, 0.3 + 1.0, 0.3 + 3.0),  # 0 exactly, -2.2e-16 in floats
        ],
        ids=["0", "+1", *(f"{k}" for k in range(-1, -16, -1)), "quarter", "rgamma-zero",
             "float-snap"],
    )
    @pytest.mark.parametrize("z", [_CUT, 0.99, 0.9999, 1.0 - 1e-6])
    def test_pinned_cases_take_the_connection(self, args, z):
        assert _near_one(*args, z) is not None
        value, bound = _hyp2f1_bounded(*args, z)
        assert bound <= 1e-13
        assert _mp_rel_err(value, *args, z) <= bound

    def test_integer_in_exact_arithmetic_takes_the_integer_formula(self):
        gap = (0.3 + 3.0) - (0.3 + 1.0) - 2.0
        assert gap != 0.0
        assert _connection(2.0, 0.3 + 1.0, 0.3 + 3.0, 0.99)[2] >= abs(gap)
        assert _connection(2.0, 1.0, 3.25, 0.99)[2] == 0.0

    def test_near_integer_falls_back_to_the_series(self):
        # q = 1.0000001: c - a - b = -2e-7 cancels the two terms of 15.8.4 by ~1e7.
        args = (2.0000002, 1.0, 3.0, 0.95)
        assert _connection(*args)[1] > 1e-13 * _connection(*args)[0]
        assert _near_one(*args) is None
        value, bound = _hyp2f1_bounded(*args)
        assert value == _gauss_sum(*args)[0]
        assert _mp_rel_err(value, *args) <= bound

    def test_sweep_wide_sets_near_one_are_exact_to_1e13(self, wide_sets_near_one):
        for args in wide_sets_near_one:
            assert _near_one(*args) is not None, args
            assert _mp_rel_err(_hyp2f1_bounded(*args)[0], *args) <= 1e-13, args


@given(
    q=st.floats(1.0, 10.0),
    s=st.floats(0.0, 1.0, exclude_min=True),
    z=st.floats(_CUT, 1.0 - 1e-6),
    shape=st.sampled_from(F21_SHAPES),
)
def test_connection_value_within_its_bound_property(q, s, z, shape):
    b_, g_ = shape(s)
    try:
        value, bound = _hyp2f1_bounded(2.0 * q, b_, g_, z)
    except AccuracyError:
        assert _near_one(2.0 * q, b_, g_, z) is None  # only the fallback gives up
        return
    assert _mp_rel_err(value, 2.0 * q, b_, g_, z) <= bound


class TestWork:
    """Gauss-series terms summed, counted through specfun._gauss_sum."""

    @pytest.fixture
    def terms(self, monkeypatch):
        summed = [0]
        real = specfun._gauss_sum

        def counting(*args):
            result = real(*args)
            summed[0] += result[1]
            return result

        monkeypatch.setattr(specfun, "_gauss_sum", counting)
        return summed

    def test_large_ratio_crosscheck(self, terms, capsys):
        # 2,432,428 terms when every argument took the series.
        rc = main(["crosscheck", "--a", "0.01", "--b", "100", "--s", "0.5", "--m", "1",
                   "--q", "3", "--lambda", "0.8", "--mu", "0.3"])
        capsys.readouterr()
        assert rc == 0
        assert terms[0] < 20_000

    def test_sweep_wide_sets_near_one(self, wide_sets_near_one, terms):
        # 819,975 terms on these 695 sets when they took the series.
        assert len(wide_sets_near_one) > 500
        for args in wide_sets_near_one:
            _hyp2f1_bounded(*args)
        assert terms[0] < 50_000


class TestSeriesBits:
    """The series loops' results, pinned by float.hex.

    series_pins.json holds a corpus recorded before _gauss_sum counted its
    terms on a float: 40 distinct _gauss_sum argument sets and 40 _w_sum calls
    (16 plain, 12 with count > 0, 12 logarithmic), drawn with
    random.Random(30) from those of the seed-1 sweeps of sweep_default and
    sweep_wide.  The sweeps have no terminating series and no _w_sum call with
    nonzero errs, so the corpus adds F(-3, 1.5; 2.5; 1/2) and the four
    perturbed _w_sum calls of _hyp2f1_bounded at (2, 1.3, 3.7, 0.95),
    (6, 1.7, 3.7, 0.99) and (2, 1.3, 5.3, 0.95).
    """

    PINS = json.loads((Path(__file__).parent / "series_pins.json").read_text(encoding="utf-8"))

    @staticmethod
    def _hex(values):
        return [v if isinstance(v, int) else v.hex() for v in values]

    def test_the_corpus_covers_every_branch(self):
        gauss, wsum = self.PINS["gauss_sum"], self.PINS["w_sum"]
        assert any(float.fromhex(p["args"][0]) == -3.0 for p in gauss)  # terminating
        assert any(p["count"] for p in wsum)
        assert any(p["log_w"] for p in wsum)
        assert any(float.fromhex(e) for p in wsum for e in p["errs"])

    def test_gauss_sum_keeps_its_bits(self):
        for pin in self.PINS["gauss_sum"]:
            result = _gauss_sum(*map(float.fromhex, pin["args"]))
            assert isinstance(result[1], int)
            assert self._hex(result) == pin["result"], pin["args"]

    def test_w_sum_keeps_its_bits(self):
        for pin in self.PINS["w_sum"]:
            args = [float.fromhex(v) for v in pin["args"]]
            errs = tuple(float.fromhex(v) for v in pin["errs"])
            log_w = None if pin["log_w"] is None else float.fromhex(pin["log_w"])
            result = _w_sum(*args, errs, log_w=log_w, count=pin["count"])
            assert isinstance(result[2], int)
            assert self._hex(result) == pin["result"], pin


class TestDomainChecks:
    def test_one_check_per_bounded_call(self, monkeypatch):
        checks = [0]
        real = specfun._check_2f1_domain

        def counting(*args):
            checks[0] += 1
            return real(*args)

        monkeypatch.setattr(specfun, "_check_2f1_domain", counting)
        for z in (0.0, 0.5, _CUT, 0.99):
            _hyp2f1_bounded(2.0, 1.5, 3.25, z)
        assert checks[0] == 4

    def test_the_series_arguments_are_checked(self):
        with pytest.raises(DomainError, match="0 <= z < 1"):
            _hyp2f1_bounded(2.0, 1.0, 2.0, 1.0)
        with pytest.raises(DomainError, match="alpha must be finite"):
            _hyp2f1_bounded(math.nan, 1.0, 2.0, 0.5)


class TestDigamma:
    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(7)
        xs = [10.0 ** rng.uniform(-6.0, 8.0) for _ in range(2000)]
        root = 1.4616321449683622
        xs += [1e-6, 1.0, 10.0, 1e8, root, *(root + k * 1e-12 for k in (-3, -1, 1, 3))]
        with mpmath.workdps(40):
            for x in xs:
                psi = _digamma(x)
                assert float(abs(psi - mpmath.digamma(x))) <= _digamma_err(psi), x

    def test_math_gamma_within_its_allowance(self):
        # The connection formulas charge _GAMMA_ERR per Gamma factor, at
        # arguments of either sign away from the poles.
        mpmath = pytest.importorskip("mpmath")
        rng = random.Random(11)
        xs = [rng.uniform(-40.0, 60.0) for _ in range(3000)]
        xs += [-k + d for k in range(16) for d in (1e-9, -1e-9, 0.25)]
        with mpmath.workdps(40):
            for x in xs:
                ref = mpmath.gamma(x)
                assert float(abs((math.gamma(x) - ref) / ref)) <= _GAMMA_ERR, x


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
