"""Adaptive Gauss-Kronrod and tanh-sinh integrator contracts."""

from __future__ import annotations

import hashlib
import math
import os
import random
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonia import (
    KIND_FOR_INDEX,
    AccuracyError,
    EvaluationError,
    Instance,
    ParameterError,
    hyp2f1_euler,
    integrate,
    integrate_de,
    kernel_oracle,
    kernel_representation,
    power,
    rule_deviation,
)
from harmonia import quadrature
from harmonia.quadrature import _XGK, _ArrayIntegrand

# (integrand, lo, hi, exact) - every member is analytic on its closed
# interval so the Kronrod-minus-Gauss score is an honest error bound.
SMOOTH_CORPUS = [
    ("const", lambda t: 1.0, 0.0, 1.0, 1.0),
    ("linear", lambda t: t, 0.0, 1.0, 0.5),
    ("square", lambda t: t * t, 0.0, 2.0, 8.0 / 3.0),
    ("cubic_mix", lambda t: t**3 - 2.0 * t, -1.0, 2.0, 0.75),
    ("quintic", lambda t: t**5, 0.0, 1.0, 1.0 / 6.0),
    ("nonic", lambda t: t**9, 0.0, 1.0, 0.1),
    ("exp", math.exp, 0.0, 1.0, math.e - 1.0),
    ("gauss_bell", lambda t: math.exp(-t * t), 0.0, 1.0, math.sqrt(math.pi) / 2.0 * math.erf(1.0)),
    ("sin", math.sin, 0.0, math.pi, 2.0),
    ("cos", math.cos, 0.0, math.pi / 2.0, 1.0),
    ("t_sin", lambda t: t * math.sin(t), 0.0, math.pi, math.pi),
    ("recip", lambda t: 1.0 / t, 1.0, math.e, 1.0),
    ("log", math.log, 1.0, 2.0, 2.0 * math.log(2.0) - 1.0),
    ("arctan_kernel", lambda t: 1.0 / (1.0 + t * t), 0.0, 1.0, math.pi / 4.0),
    ("t_exp", lambda t: t * math.exp(t), 0.0, 1.0, 1.0),
    ("inv_square", lambda t: t**-2.0, 1.0, 2.0, 0.5),
    ("shifted_rational", lambda t: t / (1.0 + t) ** 2, 0.0, 0.5, math.log(1.5) - 1.0 / 3.0),
    ("sinh", math.sinh, 0.0, 1.0, math.cosh(1.0) - 1.0),
    ("periodic_rational", lambda t: 1.0 / (2.0 + math.sin(t)), 0.0, 2.0 * math.pi, 2.0 * math.pi / math.sqrt(3.0)),
    ("exp_cos", lambda t: math.exp(t) * math.cos(t), 0.0, math.pi, -(math.exp(math.pi) + 1.0) / 2.0),
]


class TestSettings:
    def test_defaults(self):
        assert quadrature._ABS_TOL == 1e-10
        assert quadrature._REL_TOL == 1e-10
        assert quadrature._MAX_SUBDIVISIONS == 2000

    @pytest.mark.parametrize("lo,hi", [(1.0, 1.0), (2.0, 1.0), (0.0, math.inf), (math.nan, 1.0)])
    def test_rejects_bad_interval(self, lo, hi):
        with pytest.raises(ParameterError):
            integrate(lambda t: t, lo, hi)
        with pytest.raises(ParameterError):
            integrate_de(lambda t: t, lo, hi)


class TestGaussKronrod:
    def test_linear(self):
        res = integrate(lambda t: t, 0.0, 1.0)
        assert res.converged
        assert abs(res.value - 0.5) <= 1e-12

    def test_inverse_square(self):
        res = integrate(lambda u: u**-2.0, 1.0, 2.0)
        assert res.converged
        assert abs(res.value - 0.5) <= 1e-12

    def test_shifted_rational(self):
        res = integrate(lambda t: t / (1.0 + t) ** 2, 0.0, 0.5)
        exact = math.log(1.5) - 1.0 / 3.0
        assert abs(exact - 0.0721317747748311) < 1e-14
        assert res.converged
        assert abs(res.value - exact) <= 1e-12

    @pytest.mark.parametrize("degree", range(0, 13))
    def test_monomial_exactness(self, degree):
        res = integrate(lambda t, d=degree: t**d, 0.0, 1.0)
        exact = 1.0 / (degree + 1.0)
        assert res.converged
        assert abs(res.value - exact) <= 1e-13 * max(1.0, abs(exact))

    def test_random_polynomial_exactness(self):
        rng = random.Random(314159)
        for _ in range(25):
            coeffs = [rng.uniform(-3.0, 3.0) for _ in range(rng.randint(1, 9))]

            def poly(t, c=tuple(coeffs)):
                acc = 0.0
                for ck in reversed(c):
                    acc = acc * t + ck
                return acc

            exact = sum(ck / (k + 1.0) for k, ck in enumerate(coeffs))
            res = integrate(poly, 0.0, 1.0)
            assert res.converged
            assert abs(res.value - exact) <= 1e-13 * max(1.0, abs(exact))

    @pytest.mark.parametrize("name,f,lo,hi,exact", SMOOTH_CORPUS, ids=[c[0] for c in SMOOTH_CORPUS])
    def test_err_estimate_bounds_true_error(self, name, f, lo, hi, exact):
        res = integrate(f, lo, hi)
        assert res.converged
        assert abs(res.value - exact) <= res.err_estimate

    def test_interval_additivity(self):
        rng = random.Random(20260816)

        def f(t):
            return math.exp(-t) * math.sin(3.0 * t) + t * t

        for _ in range(500):
            pts = sorted(rng.uniform(0.1, 3.0) for _ in range(3))
            a, b, c = pts
            if b - a < 1e-6 or c - b < 1e-6:
                continue
            whole = integrate(f, a, c)
            left = integrate(f, a, b)
            right = integrate(f, b, c)
            budget = 2.0 * (whole.err_estimate + left.err_estimate + right.err_estimate)
            assert abs(whole.value - (left.value + right.value)) <= budget + 1e-13

    def test_nonconvergence_is_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 1)
        res = integrate(lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0)
        assert not res.converged
        assert res.err_estimate > 1e-10

    def test_kink_converges_with_budget(self):
        res = integrate(lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0)
        exact = (1.0 / 3.0) ** 2 / 2.0 + (2.0 / 3.0) ** 2 / 2.0
        assert res.converged
        assert abs(res.value - exact) <= 1e-10

    def test_nonfinite_integrand_raises_with_abscissa(self):
        def f(t):
            return math.nan if abs(t - 0.5) < 1e-12 else 1.0

        with pytest.raises(EvaluationError) as exc:
            integrate(f, 0.0, 1.0)
        assert exc.value.abscissa == pytest.approx(0.5)

    @pytest.mark.parametrize("rule", [integrate, integrate_de])
    @pytest.mark.parametrize(
        "f", [lambda t: 1.0 / (t - 0.5), lambda t: 10.0 ** (1000.0 * t)],
        ids=["ZeroDivisionError", "OverflowError"],
    )
    def test_arithmetic_error_raises_evaluation_error(self, rule, f):
        # Both rules evaluate the midpoint 0.5 first; 10**500 overflows there.
        with pytest.raises(EvaluationError) as exc:
            rule(f, 0.0, 1.0)
        assert exc.value.abscissa == 0.5


class TestArrayIntegrand:
    """integrate on an _ArrayIntegrand keeps the scalar path's error contract."""

    @staticmethod
    def _both(f):
        # The scalar integrand and its list-valued twin.
        return f, _ArrayIntegrand(lambda xs: [f(x) for x in xs])

    # The second and third abscissae of the first panel on [0, 1].
    LEFT = 0.5 - 0.5 * _XGK[0]
    RIGHT = 0.5 + 0.5 * _XGK[0]

    def test_nonfinite_off_centre_same_abscissa(self):
        seen = []
        for f in self._both(lambda t: math.inf if t > 0.9 else 1.0):
            with pytest.raises(EvaluationError) as exc:
                integrate(f, 0.0, 1.0)
            seen.append(exc.value.abscissa)
        assert seen == [self.RIGHT, self.RIGHT]

    @pytest.mark.parametrize(
        "f,node",
        [(lambda t: 1.0 / (t - TestArrayIntegrand.RIGHT), "RIGHT"),
         (lambda t: 10.0 ** (1000.0 * (t - 0.4)), "RIGHT"),
         (lambda t: 1.0 / (t - TestArrayIntegrand.LEFT), "LEFT")],
        ids=["ZeroDivisionError", "OverflowError", "ZeroDivisionError-left"],
    )
    def test_arithmetic_error_names_its_node(self, f, node):
        for g in self._both(f):
            with pytest.raises(EvaluationError) as exc:
                integrate(g, 0.0, 1.0)
            assert exc.value.abscissa == getattr(self, node)

    def test_function_spec_overflow_names_the_node(self):
        # x**400 overflows above about 5.9: on [1, 10] the first panel's
        # centre 5.5 is finite and its third abscissa is the first to fail.
        f = power(1.0, 400.0)
        seen = []
        for g in (f.value, _ArrayIntegrand(f.value)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EvaluationError) as exc:
                    integrate(g, 1.0, 10.0)
            seen.append(exc.value.abscissa)
        assert seen == [5.5 + 4.5 * _XGK[0]] * 2

    def test_one_call_per_panel(self):
        sizes = []

        def f(xs):
            sizes.append(len(xs))
            return [abs(x - 1.0 / 3.0) for x in xs]

        res = integrate(_ArrayIntegrand(f), 0.0, 1.0)
        assert sizes == [15] * (res.evaluations // 15)
        ref = integrate(lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0)
        assert (res.value.hex(), res.err_estimate.hex()) == (ref.value.hex(), ref.err_estimate.hex())


class TestTanhSinh:
    def test_inverse_sqrt_endpoint_singularity(self):
        res = integrate_de(lambda t: t**-0.5, 0.0, 1.0)
        assert res.converged
        assert abs(res.value - 2.0) <= 1e-10

    def test_symmetric_sqrt_kernel(self):
        res = integrate_de(lambda t: math.sqrt(t) * math.sqrt(1.0 - t), 0.0, 1.0)
        exact = math.pi / 8.0
        assert abs(exact - 0.3926991) < 5e-8
        assert res.converged
        assert abs(res.value - exact) <= 1e-10

    def test_steep_rational(self):
        res = integrate_de(lambda t: (1.0 - 0.9 * t) ** -4.0, 0.0, 1.0)
        exact = ((1.0 - 0.9) ** -3.0 - 1.0) / 2.7
        assert exact == pytest.approx(370.0, rel=1e-13)
        assert res.converged
        assert abs(res.value - exact) <= 1e-8 * exact

    def test_algebraic_endpoint_pair(self):
        # B(1.3, 0.7) kernel: both endpoints singular, exact via reflection.
        res = integrate_de(lambda t: t**0.3 * (1.0 - t) ** -0.3, 0.0, 1.0)
        exact = math.gamma(1.3) * math.gamma(0.7) / math.gamma(2.0)
        assert res.converged
        assert abs(res.value - exact) <= 1e-10 * exact

    @pytest.mark.parametrize("name,f,lo,hi,exact", SMOOTH_CORPUS, ids=[c[0] for c in SMOOTH_CORPUS])
    def test_agrees_with_gauss_kronrod_on_smooth(self, name, f, lo, hi, exact):
        gk = integrate(f, lo, hi)
        de = integrate_de(f, lo, hi)
        assert de.converged
        assert abs(gk.value - de.value) <= 1e-9 * max(1.0, abs(exact))

    def test_nonconvergence_is_flagged_not_raised(self, monkeypatch):
        monkeypatch.setattr(quadrature, "_MAX_SUBDIVISIONS", 2)
        res = integrate_de(lambda t: t**-0.5, 0.0, 1.0)
        assert not res.converged

    def test_endpoints_never_evaluated(self):
        seen = []

        def f(t):
            seen.append(t)
            return t**-0.25

        res = integrate_de(f, 0.0, 1.0)
        assert res.converged
        assert all(0.0 < t < 1.0 for t in seen)


def _set_accuracy(monkeypatch, accuracy: dict) -> None:
    """Replace quadrature's named accuracy constants for one test."""
    for name, value in accuracy.items():
        monkeypatch.setattr(quadrature, name, value)


# integrate_de pinned bit for bit: value and error estimate as float.hex,
# the evaluation count, the converged flag, a digest of the abscissae in
# evaluation order, and how many of them the nextafter endpoint clamp
# produced.  Any change to the node table, node order, summation or
# stopping rule moves at least one of these.
# (name, integrand, lo, hi, the quadrature constants set in place of the
# library's, (value.hex, err.hex, evaluations, converged, digest of the
# abscissae in evaluation order)).
# oscillating_refresh runs past 512 bisections, where the running sums are
# re-added exactly; kink_capped and log_refresh_capped stop at the
# _MAX_SUBDIVISIONS cap.
GK_PINS = [
    ("exp", math.exp, 0.0, 1.0, {},
     ("0x1.b7e151628aed2p+0", "0x1.57a80794fc894p-46", 15, True, "a2a2094c1fa55439")),
    ("sin_tight", math.sin, 0.0, math.pi, {"_ABS_TOL": 1e-13, "_REL_TOL": 1e-13},
     ("0x1.0000000000000p+1", "0x1.9000000000000p-46", 45, True, "c3d0401a1eb8d670")),
    ("recip", lambda t: 1.0 / t, 1.0, math.e, {},
     ("0x1.0000000000000p+0", "0x1.105bfa232267dp-38", 45, True, "c058f27574cfecf0")),
    ("kink", lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0, {},
     ("0x1.1c71c71d236b9p-2", "0x1.03c06479e4100p-34", 375, True, "5b651a80a63eae31")),
    ("kink_capped", lambda t: abs(t - 1.0 / 3.0), 0.0, 1.0, {"_MAX_SUBDIVISIONS": 3},
     ("0x1.1c748dae215d3p-2", "0x1.03bceb970ef00p-16", 105, False, "2e722e07f326817d")),
    ("inv_sqrt", lambda t: t**-0.5, 0.0, 1.0, {},
     ("0x1.ffffffff7bb38p+0", "0x1.aaecd636556d0p-33", 1725, True, "2c6ddb95b29ea7ef")),
    ("oscillating_refresh", lambda t: math.sin(1.0 / t), 3e-4, 1.0, {},
     ("0x1.021516f4c3b29p-1", "0x1.b2dfd450ed56dp-34", 16755, True, "e5903c9f36c4b79b")),
    ("log_refresh_capped", math.log, 0.0, 1.0,
     {"_ABS_TOL": 1e-14, "_REL_TOL": 1e-14, "_MAX_SUBDIVISIONS": 600},
     ("-0x1.0000000000000p+0", "0x1.91a66ef0e0d30p-47", 18015, False, "47b3e137fe98daa8")),
]


@pytest.mark.parametrize(
    "name,f,lo,hi,accuracy,pinned", GK_PINS, ids=[c[0] for c in GK_PINS]
)
def test_integrate_pinned_bits(name, f, lo, hi, accuracy, pinned, monkeypatch):
    _set_accuracy(monkeypatch, accuracy)
    seen = []

    def traced(t):
        seen.append(t)
        return f(t)

    res = integrate(traced, lo, hi)
    digest = hashlib.sha256("".join(x.hex() for x in seen).encode()).hexdigest()[:16]
    got = (res.value.hex(), res.err_estimate.hex(), res.evaluations, res.converged, digest)
    assert got == pinned


DE_PINS = [
    ("exp", math.exp, 0.0, 1.0, {},
     ("0x1.b7e151628aed3p+0", "0x1.0f37000000000p-36", 97, True, "6a0e9c93468f2759", 23)),
    ("sin_tight", math.sin, 0.0, math.pi, {"_ABS_TOL": 1e-15, "_REL_TOL": 1e-15},
     ("0x1.0000000000000p+1", "0x1.0000000000000p-51", 195, True, "8381df5c54cc4c31", 47)),
    ("gauss_bell_rel0", lambda t: math.exp(-t * t), -1.0, 3.0,
     {"_ABS_TOL": 1e-12, "_REL_TOL": 0.0},
     ("0x1.a20e59e48adecp+0", "0x0.0p+0", 391, True, "3e45102f0df5f50b", 189)),
    ("inv_sqrt", lambda t: t**-0.5, 0.0, 1.0, {},
     ("0x1.0000000000001p+1", "0x1.c000000000000p-49", 97, True, "6a0e9c93468f2759", 23)),
    ("beta_kernel", lambda t: t**0.3 * (1.0 - t) ** -0.3, 0.0, 1.0, {},
     ("0x1.2a3b40abb7bc6p+0", "0x1.e000000000000p-47", 97, True, "6a0e9c93468f2759", 23)),
    ("beta_kernel_capped", lambda t: t**0.3 * (1.0 - t) ** -0.3, 0.0, 1.0,
     {"_MAX_SUBDIVISIONS": 2},
     ("0x1.2a3b40abb7b8ap+0", "0x1.152fe87900000p-19", 49, False, "148be477628607c1", 12)),
    ("oracle_like",
     lambda t: abs(0.3 - t) * t**0.25 / (t * 2.5 + (1.0 - t) * 0.7) ** 3.0, 0.0, 0.3,
     {"_ABS_TOL": 1e-12, "_REL_TOL": 1e-12},
     ("0x1.227b11d29487dp-5", "0x0.0p+0", 195, True, "3e35f83b4f01f6a4", 47)),
    ("clamp_lo", lambda t: (t - 1.0) ** -0.5, 1.0, 2.0, {},
     ("0x1.ffffffc44168ep+0", "0x1.a946800000000p-34", 3123, True, "8ae56c3abe02033d", 1524)),
    ("clamp_hi", lambda t: (3.0 - t) ** -0.75, 2.0, 3.0, {"_ABS_TOL": 1e-9, "_REL_TOL": 1e-9},
     ("0x1.fff20750f1e9ep+1", "0x1.c1413ae000000p-22", 49967, False, "8ee3d948cf421c88", 24538)),
    ("clamp_wide", lambda t: 1.0 / math.sqrt(abs(t - 1e3)), 1e3, 1e3 + 5.0, {},
     ("0x1.1e37785ed9c47p+2", "0x1.2fc1d80000000p-29", 49967, False, "e3f12d65a863038e", 25512)),
]


@pytest.mark.parametrize(
    "name,f,lo,hi,accuracy,pinned", DE_PINS, ids=[c[0] for c in DE_PINS]
)
def test_integrate_de_pinned_bits(name, f, lo, hi, accuracy, pinned, monkeypatch):
    _set_accuracy(monkeypatch, accuracy)
    seen = []

    def traced(t):
        seen.append(t)
        return f(t)

    res = integrate_de(traced, lo, hi)
    digest = hashlib.sha256("".join(x.hex() for x in seen).encode()).hexdigest()[:16]
    clamped = sum(1 for x in seen if x in (math.nextafter(lo, hi), math.nextafter(hi, lo)))
    got = (res.value.hex(), res.err_estimate.hex(), res.evaluations, res.converged, digest, clamped)
    assert got == pinned


@given(
    a=st.floats(0.1, 2.0),
    width=st.floats(0.05, 2.0),
    c0=st.floats(-2.0, 2.0),
    c1=st.floats(-2.0, 2.0),
    c2=st.floats(-2.0, 2.0),
)
def test_quadratic_exact_everywhere(a, width, c0, c1, c2):
    b = a + width

    def f(t):
        return c0 + c1 * t + c2 * t * t

    exact = c0 * (b - a) + c1 * (b * b - a * a) / 2.0 + c2 * (b**3 - a**3) / 3.0
    res = integrate(f, a, b)
    assert res.converged
    assert abs(res.value - exact) <= 1e-12 * max(1.0, abs(exact))


# An accuracy no integral here can meet: the tolerance is below the roundoff
# floor of Gauss-Kronrod, and the product rule gets fewer evaluations than
# its first level takes.  No function here takes a tolerance: the verdicts
# and hyp2f1_euler read quadrature's constants, which the test replaces.
_STARVED = {"_ABS_TOL": 1e-300, "_REL_TOL": 1e-16, "_MAX_SUBDIVISIONS": 1}
_INST = Instance(a=1.0, b=2.0, s=0.5, m=1.0, q=2.0, lambda_=0.75, mu_=0.25, f=power(1.0, 2.0))


@pytest.mark.parametrize(
    "evaluate",
    [
        lambda: kernel_oracle(KIND_FOR_INDEX[2], _INST),
        lambda: rule_deviation(_INST),
        lambda: kernel_representation(_INST),
        lambda: hyp2f1_euler(2.0, 1.0, 3.0, 0.5),
        lambda: hyp2f1_euler(50.0, 0.5, 1.5, 0.9999),
    ],
    ids=[
        "kernel_oracle", "rule_deviation", "kernel_representation",
        "hyp2f1_euler-one_panel", "hyp2f1_euler-graded",
    ],
)
def test_unconverged_integral_reports_its_estimate(evaluate, monkeypatch):
    _set_accuracy(monkeypatch, _STARVED)
    with pytest.raises(AccuracyError) as exc:
        evaluate()
    assert set(exc.value.values) == {"estimate", "err_estimate"}


def test_node_tables_are_built_on_first_use_not_at_import():
    # Importing harmonia and its CLI, as every sweep process does, builds no
    # Gauss-Jacobi node table; the first kernel oracle builds its own.
    code = (
        "import harmonia, harmonia.cli\n"
        "from harmonia.quadrature import _jacobi_level, _jacobi_rule\n"
        "sizes = lambda: (_jacobi_rule.cache_info().currsize,"
        " _jacobi_level.cache_info().currsize)\n"
        "print(*sizes())\n"
        "harmonia.kernel_oracle(harmonia.KIND_FOR_INDEX[2], harmonia.Instance("
        "1.0, 2.0, 0.5, 1.0, 2.0, 0.75, 0.25, harmonia.linear()))\n"
        "print(*sizes())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    at_import, after_oracle = proc.stdout.splitlines()
    assert at_import == "0 0"
    assert "0" not in after_oracle.split()


def test_node_caches_are_bounded():
    # Each new s brings new Jacobi exponents and so new node tables; the
    # caches drop the least recently used instead of growing without end.
    rng = random.Random(22)
    for _ in range(300):
        s = rng.uniform(0.01, 1.0)
        assert math.isfinite(hyp2f1_euler(rng.uniform(2.0, 16.0), s + 1.0, s + 3.0, 0.5))
    for cache in (quadrature._jacobi_rule, quadrature._jacobi_level):
        info = cache.cache_info()
        assert info.misses > info.maxsize >= info.currsize, info
