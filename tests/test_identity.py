"""Rule-deviation node form vs kernel integral representation."""

from __future__ import annotations

import math
import random
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harmonia import (
    AccuracyError,
    DomainError,
    EvaluationError,
    IDENTITY_TOL,
    Instance,
    ParameterError,
    QuadSettings,
    check_identity,
    combine,
    identity,
    integrate,
    kernel_representation,
    linear,
    parse_function_spec,
    power,
    quadrature,
    rule_deviation,
    rule_deviation_as_printed,
    s_power,
)

CONST_ONE = s_power(0.0, 1.0, 1.0)


def make(f, a, b, lambda_, mu_, s=1.0, m=1.0, q=1.0):
    return Instance(a=a, b=b, s=s, m=m, q=q, lambda_=lambda_, mu_=mu_, f=f)


CANONICAL = make(linear(), 1.0, 2.0, 0.5, 0.5)


class TestInstance:
    def test_harmonic_mean(self):
        assert CANONICAL.harmonic_mean == pytest.approx(4.0 / 3.0, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"a": 2.0, "b": 1.0},
            {"a": 0.0, "b": 1.0},
            {"a": -1.0, "b": 1.0},
            {"s": 0.0},
            {"s": 1.5},
            {"m": 0.0},
            {"m": 1.0001},
            {"q": 0.5},
            {"a": math.nan},
            {"lambda_": math.inf},
        ],
    )
    def test_field_validation(self, kwargs):
        base = dict(a=1.0, b=2.0, s=1.0, m=1.0, q=1.0, lambda_=0.5, mu_=0.5, f=linear())
        base.update(kwargs)
        with pytest.raises(ParameterError):
            Instance(**base)

    def test_domain_gate(self):
        shifted = s_power(1.0, 0.5, 0.0)
        object.__setattr__(shifted, "domain_lo", shifted.domain_lo)  # frozen sanity
        bad = power(1.0, -1.0)
        # fine: domain_lo = 0 < a
        make(bad, 1.0, 2.0, 0.5, 0.5)
        from harmonia import FunctionSpec

        walled = FunctionSpec(kind="linear", domain_lo=1.5)
        with pytest.raises(DomainError):
            make(walled, 1.0, 2.0, 0.5, 0.5)

    def test_weights_are_unrestricted(self):
        # the identity holds for all real weights, so construction allows them
        make(linear(), 1.0, 2.0, 1.7, -0.4)
        make(linear(), 1.0, 2.0, -2.0, 3.0)


class TestCorrectedForm:
    def test_canonical_value(self):
        val = rule_deviation(CANONICAL)
        exact = 1.5 - 2.0 * math.log(2.0)
        assert val == pytest.approx(exact, abs=1e-10)
        assert val == pytest.approx(0.1137056, abs=1e-7)

    def test_endpoint_weights_value(self):
        val = rule_deviation(make(linear(), 1.0, 2.0, 1.0, 0.0))
        exact = 4.0 / 3.0 - 2.0 * math.log(2.0)
        assert exact == pytest.approx(-0.05296103, abs=5e-9)
        assert val == pytest.approx(exact, abs=1e-10)

    def test_equal_weights_cancel_the_harmonic_node(self):
        # at lambda_ == mu_ the harmonic-mean term has zero coefficient
        for c in (0.2, 0.5, 0.9):
            inst = make(power(1.0, 2.0), 1.0, 2.0, c, c)
            res = integrate(lambda u: inst.f.value(u) / (u * u), 1.0, 2.0)
            expected = (1.0 - c) * 1.0 + c * 4.0 - 2.0 * res.value
            assert rule_deviation(inst) == pytest.approx(expected, abs=1e-10)

    def test_constant_function_all_weights(self):
        # nodes sum to 1 and the integral average of a constant is the
        # constant, so the deviation vanishes identically
        for lam, mu in ((1.0, 0.0), (0.5, 0.5), (2.0, -1.0)):
            val = rule_deviation(make(CONST_ONE, 1.0, 2.0, lam, mu))
            assert val == pytest.approx(0.0, abs=1e-12)


class TestRuleDeviationMemo:
    def test_average_shared_across_triples(self):
        memo: dict = {}
        for lam, mu in ((0.5, 0.5), (1.0, 0.0), (0.8, 0.3)):
            inst = make(power(1.0, 2.0), 1.0, 2.0, lam, mu)
            assert rule_deviation(inst, memo=memo) == rule_deviation(inst)
        assert len(memo) == 1

    def test_failed_integral_is_not_stored(self, monkeypatch):
        starved = QuadSettings(abs_tol=1e-300, rel_tol=1e-15, max_subdivisions=1)
        monkeypatch.setattr(quadrature, "DEFAULT_SETTINGS", starved)
        memo: dict = {}
        for _ in range(2):
            with pytest.raises(AccuracyError):
                rule_deviation(CANONICAL, memo=memo)
        assert memo == {}


class TestPrintedVariant:
    def test_canonical_value(self):
        val = rule_deviation_as_printed(CANONICAL)
        exact = 1.5 - 4.0 * math.log(2.0)
        assert val == pytest.approx(exact, abs=1e-10)
        assert val == pytest.approx(-1.2725887, abs=1e-7)

    def test_constant_function_shows_the_double_counting(self):
        val = rule_deviation_as_printed(make(CONST_ONE, 1.0, 2.0, 1.0, 0.0))
        assert val == pytest.approx(-1.0, abs=1e-12)

    def test_fails_the_identity_by_a_wide_margin(self):
        lhs = rule_deviation_as_printed(CANONICAL)
        rhs = kernel_representation(CANONICAL)
        assert abs(lhs - rhs) > 0.01


class TestKernelIdentity:
    def test_canonical_passes(self):
        chk = check_identity(CANONICAL)
        assert chk.passed
        assert chk.abs_diff <= IDENTITY_TOL
        assert chk.tol == IDENTITY_TOL

    def test_square_instance(self):
        chk = check_identity(make(power(1.0, 2.0), 1.0, 3.0, 0.8, 0.3))
        assert chk.passed

    def test_margin_is_tol_minus_abs_diff(self):
        chk = check_identity(CANONICAL)
        assert chk.margin == chk.tol - chk.abs_diff
        assert chk.margin > 0.0

    def test_printed_form_is_judged_by_the_same_rule(self):
        printed = rule_deviation_as_printed(CANONICAL)
        chk = identity._judged(printed, kernel_representation(CANONICAL))
        assert chk.tol == IDENTITY_TOL and not chk.passed
        assert chk.margin == IDENTITY_TOL - abs(chk.lhs - chk.rhs) < 0.0

    def test_constant_function_kernel_is_zero(self):
        for lam, mu in ((0.5, 0.5), (2.0, -1.0)):
            val = kernel_representation(make(CONST_ONE, 1.0, 2.0, lam, mu))
            assert val == pytest.approx(0.0, abs=1e-12)

    def test_holds_outside_the_unit_band(self):
        for lam, mu in ((1.7, -0.4), (-1.0, 2.0), (3.0, 3.0)):
            chk = check_identity(make(power(0.7, 1.5), 0.8, 2.5, lam, mu))
            assert chk.passed, f"({lam},{mu}): diff {chk.abs_diff}"

    def test_thirty_random_instances(self):
        rng = random.Random(424242)
        families = [
            lambda: linear(),
            lambda: power(rng.uniform(0.2, 3.0), rng.uniform(0.5, 3.0)),
            lambda: s_power(rng.uniform(0.0, 2.0), rng.uniform(0.1, 1.0), rng.uniform(0.0, 2.0)),
        ]
        for _ in range(30):
            f = rng.choice(families)()
            a = rng.uniform(0.5, 2.0)
            b = a + rng.uniform(0.1, 2.0)
            lam = rng.uniform(-1.0, 2.0)
            mu = rng.uniform(-1.0, 2.0)
            chk = check_identity(make(f, a, b, lam, mu))
            assert chk.passed, f"f={f.kind} a={a} b={b} lam={lam} mu={mu}: {chk.abs_diff}"

    def test_overflow_names_its_point_without_a_warning(self):
        inst = make(power(1.0, 120.0), 1e3, 2e3, 0.5, 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as exc:
                check_identity(inst)
        # f(H), f(a), f(b) come first, in that order; H**120 already overflows.
        assert exc.value.abscissa == inst.harmonic_mean

    def test_quadrature_budget_exhaustion_raises(self, monkeypatch):
        starved = QuadSettings(abs_tol=1e-300, rel_tol=1e-15, max_subdivisions=2)
        monkeypatch.setattr(quadrature, "DEFAULT_SETTINGS", starved)
        with pytest.raises(AccuracyError):
            rule_deviation(CANONICAL)


class TestPresetSubstitutions:
    """The three weight presets reduce the node form to textbook rules."""

    FUNCTIONS = [linear(), power(1.0, 2.0), s_power(1.0, 0.5, 0.0), power(2.0, 3.0)]
    INTERVALS = [(1.0, 2.0), (0.5, 1.7), (2.0, 5.0)]

    def _avg_term(self, f, a, b):
        res = integrate(lambda u: f.value(u) / (u * u), a, b)
        assert res.converged
        return a * b / (b - a) * res.value

    @pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.kind)
    @pytest.mark.parametrize("a,b", INTERVALS)
    def test_trapezoid(self, f, a, b):
        inst = make(f, a, b, 0.5, 0.5)
        expected = 0.5 * (f.value(a) + f.value(b)) - self._avg_term(f, a, b)
        assert rule_deviation(inst) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.kind)
    @pytest.mark.parametrize("a,b", INTERVALS)
    def test_midpoint(self, f, a, b):
        inst = make(f, a, b, 1.0, 0.0)
        expected = f.value(2.0 * a * b / (a + b)) - self._avg_term(f, a, b)
        assert rule_deviation(inst) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("f", FUNCTIONS, ids=lambda f: f.kind)
    @pytest.mark.parametrize("a,b", INTERVALS)
    def test_simpson(self, f, a, b):
        inst = make(f, a, b, 5.0 / 6.0, 1.0 / 6.0)
        harm = f.value(2.0 * a * b / (a + b))
        expected = (0.5 * (f.value(a) + f.value(b)) + 2.0 * harm) / 3.0 - self._avg_term(f, a, b)
        assert rule_deviation(inst) == pytest.approx(expected, abs=1e-12)


@given(
    a=st.floats(0.5, 2.0),
    width=st.floats(0.1, 2.0),
    lam=st.floats(-1.0, 2.0),
    mu=st.floats(-1.0, 2.0),
    c=st.floats(0.2, 2.0),
    p=st.floats(1.0, 3.0),
)
def test_identity_property(a, width, lam, mu, c, p):
    inst = make(power(c, p), a, a + width, lam, mu)
    chk = check_identity(inst)
    assert chk.passed


# check_identity's lhs and rhs, bit for bit, at one instance of every
# grammar kind on the sweep's default ranges (a in [0.5, 2], b - a in
# [0.1, 2]) and on sweep_wide's (a in [0.05, 0.5], b - a in [1, 10]).  max
# has no derivative, so its kernel side raises and only the lhs is pinned.
_PIN_SPECS = {
    "linear": "linear",
    "power": "power:c=1,p=2",
    "spower": "spower:b=1,s=0.5,c=0",
    "scale": "scale:2.5:power:c=1,p=3",
    "sum": "sum:linear+spower:b=1,s=0.5,c=0",
    "max": "max:linear|power:c=1,p=2",
}
_PIN_RANGES = {"default": (0.8, 2.1, 0.7, 0.2), "wide": (0.07, 6.5, 0.9, 0.35)}
IDENTITY_PINS = [
    ("linear", "default", ("-0x1.01ebbf456a700p-7", "-0x1.01ebbf456a6a4p-7")),
    ("power", "default", ("0x1.0b1027147cbf0p-4", "0x1.0b1027147cc02p-4")),
    ("spower", "default", ("-0x1.40884d457e680p-7", "-0x1.40884d457e69fp-7")),
    ("scale", "default", ("0x1.bcc2167b9fc88p-1", "0x1.bcc2167b9fc94p-1")),
    ("sum", "default", ("-0x1.213a064574700p-6", "-0x1.213a06457469fp-6")),
    ("max", "default", ("0x1.552a5f21572f0p-4", "EvaluationError")),
    ("compose", "default", ("-0x1.4618814425a00p-5", "-0x1.461881442598ep-5")),
    ("linear", "wide", ("0x1.04ce83dcbb4a7p+1", "0x1.04ce83dcbb4a8p+1")),
    ("power", "wide", ("0x1.cafe4ac559c89p+3", "0x1.cafe4ac559c8ap+3")),
    ("spower", "wide", ("0x1.49c480f35cef2p-1", "0x1.49c480f35cef3p-1")),
    ("scale", "wide", ("0x1.d920bb07e60d4p+7", "0x1.d920bb07e60d7p+7")),
    ("sum", "wide", ("0x1.573fa41992864p+1", "0x1.573fa41992865p+1")),
    ("max", "wide", ("0x1.c962d33b7e853p+3", "EvaluationError")),
    ("compose", "wide", ("0x1.b1a8c99b91294p+3", "0x1.b1a8c99b91296p+3")),
]


def _pin_spec(kind):
    if kind == "compose":
        return combine("compose", [power(1.0, 3.0), s_power(1.0, 0.5, 1.0)])
    return parse_function_spec(_PIN_SPECS[kind])


@pytest.mark.parametrize(
    "kind,ranges,pinned", IDENTITY_PINS, ids=[f"{k}-{r}" for k, r, _ in IDENTITY_PINS]
)
def test_check_identity_pinned_bits(kind, ranges, pinned):
    a, b, lam, mu = _PIN_RANGES[ranges]
    inst = make(_pin_spec(kind), a, b, lam, mu)
    try:
        ic = check_identity(inst)
    except EvaluationError:
        got = (rule_deviation(inst).hex(), "EvaluationError")
    else:
        assert ic.passed
        got = (ic.lhs.hex(), ic.rhs.hex())
    assert got == pinned


def _scalar_integrands(inst):
    """The identity's three integrands one node at a time, in check_identity's
    call order; the array path must reproduce them bit for bit."""
    a, b, f = inst.a, inst.b, inst.f
    ab = a * b

    def average(u):
        return f.value(u) / (u * u)

    def kernel(anchor):
        def integrand(t):
            A = t * b + (1.0 - t) * a
            return (anchor - t) / (A * A) * f.deriv(ab / A)

        return integrand

    return [average, kernel(inst.mu_), kernel(inst.lambda_)]


def _bits(res):
    return res.value.hex(), res.err_estimate.hex(), res.evaluations, res.converged


@settings(deadline=None)
@given(
    a=st.floats(0.05, 2.0),
    width=st.floats(0.1, 10.0),
    lam=st.floats(-1.0, 2.0),
    mu=st.floats(-1.0, 2.0),
    kind=st.sampled_from([k for k, _, _ in IDENTITY_PINS if k != "max"]),
)
def test_array_path_matches_scalar_reference(a, width, lam, mu, kind):
    inst = make(_pin_spec(kind), a, a + width, lam, mu)
    calls = []

    def spy(f, lo, hi, settings=None):
        res = integrate(f, lo, hi, settings)
        calls.append((lo, hi, settings, res))
        return res

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(identity, "integrate", spy)
        try:
            check_identity(inst)
        except AccuracyError:
            pass
    assert calls
    for ref, (lo, hi, quad, res) in zip(_scalar_integrands(inst), calls):
        assert _bits(res) == _bits(integrate(ref, lo, hi, quad)), (lo, hi)
