"""Harmonic (s,m)-convexity checks, closure rules, and the spec grammar."""

from __future__ import annotations

import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonia import (
    DEFECT_TOL,
    DomainError,
    EvaluationError,
    FunctionSpec,
    GridSpec,
    ParameterError,
    PROPERTY_CORPUS,
    SM_PAIRS,
    check_harmonic_sm,
    check_plain_sm,
    classify,
    combine,
    format_function_spec,
    harmonic_sm_defect,
    linear,
    parse_function_spec,
    power,
    reflection_witness,
    s_power,
    abs_deriv_pow,
)
from harmonia.convexity import SUBGRID_STRIDE, _defect, _grid_axes, refuted_on_subgrid

NEG_LINEAR = power(-1.0, 1.0)


class TestDefect:
    def test_constant_function_halfway(self):
        # f = 1: defect at t=1/2, s=1/2, m=1 is 1 - 2*(1/2)^(1/2) = 1 - sqrt(2)
        const = s_power(0.0, 1.0, 1.0)
        d = harmonic_sm_defect(const, 1.0, 1.0, 0.5, 0.5, 1.0)
        assert d == pytest.approx(1.0 - math.sqrt(2.0), abs=1e-14)
        assert d == pytest.approx(-0.4142, abs=1e-4)

    def test_identity_function_is_harmonic_vs_arithmetic_gap(self):
        # f = x at x=1, y=2, t=1/2: HM - AM = 4/3 - 3/2 = -1/6
        d = harmonic_sm_defect(linear(), 1.0, 2.0, 0.5, 1.0, 1.0)
        assert d == pytest.approx(-1.0 / 6.0, abs=1e-15)

    def test_square_holds_on_wide_grid(self):
        report = check_harmonic_sm(power(1.0, 2.0), 1.0, 1.0, GridSpec(lo=1.0, hi=3.0))
        assert report.holds
        assert report.worst_defect <= DEFECT_TOL
        assert report.checked == 41 * 41 * 21

    def test_negated_identity_fails_with_lexicographic_witness(self):
        report = check_harmonic_sm(NEG_LINEAR, 1.0, 1.0, GridSpec())
        assert not report.holds
        assert report.worst_defect > 0.1
        x, y, t = report.witness
        assert (x, y) == (1.0, 2.0)
        assert t == pytest.approx(0.4, abs=1e-12)

    def test_sqrt_family_holds_at_its_exponent(self):
        report = check_harmonic_sm(s_power(1.0, 0.5, 0.0), 0.5, 1.0, GridSpec(lo=0.5, hi=4.0))
        assert report.holds

    def test_sqrt_family_holds_at_s_one_via_reciprocal_convexity(self):
        # u = 1/x maps the harmonic inequality for x**0.5 onto plain
        # convexity of u**-0.5, so every s <= 1 works at m = 1
        report = check_harmonic_sm(s_power(1.0, 0.5, 0.0), 1.0, 1.0, GridSpec(lo=0.5, hi=4.0))
        assert report.holds

    def test_constant_fails_below_m_one(self):
        # at t=0 the inequality needs 1 <= m
        report = check_harmonic_sm(s_power(0.0, 1.0, 1.0), 1.0, 0.5, GridSpec())
        assert not report.holds
        assert report.worst_defect == pytest.approx(0.5, abs=1e-12)

    def test_inverse_sqrt_fails_above_its_exponent(self):
        # x**-r with r < 1 at m = 1 certifies only s <= r
        report = check_harmonic_sm(power(1.0, -0.5), 1.0, 1.0, GridSpec(lo=0.5, hi=3.0))
        assert not report.holds

    def test_t_outside_unit_interval_rejected(self):
        with pytest.raises(ParameterError):
            harmonic_sm_defect(linear(), 1.0, 2.0, 1.5, 1.0, 1.0)

    @pytest.mark.parametrize("s,m", [(0.0, 1.0), (1.5, 1.0), (1.0, 0.0), (1.0, 2.0)])
    def test_class_parameters_validated(self, s, m):
        with pytest.raises(ParameterError):
            harmonic_sm_defect(linear(), 1.0, 2.0, 0.5, s, m)

    def test_point_below_domain_rejected(self):
        with pytest.raises(DomainError):
            harmonic_sm_defect(power(1.0, -1.0), 0.0, 1.0, 0.5, 1.0, 1.0)

    def test_combination_below_domain_rejected(self):
        shifted = FunctionSpec(kind="linear", domain_lo=0.5)
        with pytest.raises(DomainError):
            # m pulls the harmonic combination down to 0.15 < 0.5
            harmonic_sm_defect(shifted, 0.6, 0.6, 0.0, 1.0, 0.25)

    def test_grid_below_domain_rejected(self):
        shifted = FunctionSpec(kind="linear", domain_lo=1.0)
        with pytest.raises(DomainError):
            check_harmonic_sm(shifted, 1.0, 1.0, GridSpec(lo=1.0, hi=2.0))

    def test_overflow_raises_without_numpy_warning(self):
        # |2x|^1000 overflows on [3, 4]: an EvaluationError, and no
        # RuntimeWarning printed (or raised, under "error") before it.
        shape, grid = abs_deriv_pow(power(1.0, 2.0), 1000.0), GridSpec(lo=3.0, hi=4.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError):
                check_harmonic_sm(shape, 1.0, 1.0, grid)
            with pytest.raises(EvaluationError):
                refuted_on_subgrid(shape, 1.0, 1.0, grid)


class TestGridSpec:
    def test_refined_doubles_every_axis(self):
        g = GridSpec(nx=10, ny=12, nt=7, lo=0.5, hi=3.0)
        r = g.refined()
        assert (r.nx, r.ny, r.nt) == (20, 24, 14)
        assert (r.lo, r.hi) == (0.5, 3.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"nx": 1},
            {"nt": 0},
            {"lo": 0.0, "hi": 1.0},
            {"lo": 2.0, "hi": 1.0},
            {"lo": math.nan, "hi": 1.0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ParameterError):
            GridSpec(**kwargs)

    def test_refinement_does_not_flip_verdicts(self):
        cases = [
            (linear(), 1.0, 1.0, GridSpec(), True),
            (power(1.0, 2.0), 0.5, 0.5, GridSpec(lo=0.5, hi=3.0), True),
            (NEG_LINEAR, 1.0, 1.0, GridSpec(), False),
            (power(1.0, -0.5), 1.0, 1.0, GridSpec(lo=0.5, hi=3.0), False),
        ]
        for f, s, m, grid, expected in cases:
            coarse = check_harmonic_sm(f, s, m, grid)
            fine = check_harmonic_sm(f, s, m, grid.refined())
            assert coarse.holds is expected
            assert fine.holds is expected
            # a refined grid contains new points, so the worst defect can
            # only move up
            assert fine.worst_defect >= coarse.worst_defect - 1e-12


class TestSubgrid:
    # (a_range, b_minus_a_range, q_values) of the default sweep and of a wide
    # one with b/a up to ~200 and q up to 8.
    RANGES = {
        "default": ((0.5, 2.0), (0.1, 2.0), (1.0, 1.5, 2.0, 3.0)),
        "wide": ((0.05, 0.5), (1.0, 10.0), (1.0, 2.0, 4.0, 8.0)),
    }
    FAMILIES = ("linear", "power:c=1,p=2", "spower:b=1,s=0.5,c=0")

    def _candidates(self, ranges, n):
        a_range, width_range, q_values = ranges
        rng = random.Random(20261018)
        families = [parse_function_spec(text) for text in self.FAMILIES]
        for _ in range(n):
            f = rng.choice(families)
            a = rng.uniform(*a_range)
            b = a + rng.uniform(*width_range)
            s = rng.choice((0.25, 0.5, 0.75, 1.0))
            m = rng.choice((0.25, 0.5, 0.75, 1.0))
            q = rng.choice(q_values)
            yield abs_deriv_pow(f, q), s, m, GridSpec(lo=a, hi=b / m)

    @pytest.mark.parametrize("ranges", sorted(RANGES))
    def test_subgrid_defect_is_the_full_grids_bit_for_bit(self, ranges):
        k = SUBGRID_STRIDE
        refuted = 0
        for shape, s, m, grid in self._candidates(self.RANGES[ranges], 120):
            xs, ys, ts = _grid_axes(grid)
            full = _defect(shape, s, m, xs, ys, ts, harmonic=True)
            sub = _defect(shape, s, m, xs[::k], ys[::k], ts[::k], harmonic=True)
            assert sub.shape == (11, 11, 6)
            assert np.array_equal(sub.view(np.int64), full[::k, ::k, ::k].view(np.int64))
            if refuted_on_subgrid(shape, s, m, grid):
                refuted += 1
                assert not check_harmonic_sm(shape, s, m, grid).holds
        assert refuted > 0

    def test_subgrid_checks_arguments_like_the_full_grid(self):
        shifted = FunctionSpec(kind="linear", domain_lo=1.0)
        with pytest.raises(DomainError):
            refuted_on_subgrid(shifted, 1.0, 1.0, GridSpec(lo=1.0, hi=2.0))
        with pytest.raises(ParameterError):
            refuted_on_subgrid(linear(), 0.0, 1.0, GridSpec())


class TestClassify:
    def test_identity_function(self):
        c = classify(linear(), 1.0, 1.0, GridSpec())
        assert c.monotone == "nondecreasing"
        assert c.sm_convex and c.harmonic_sm_convex

    def test_reciprocal_is_nonincreasing_and_both_convex(self):
        c = classify(power(1.0, -1.0), 1.0, 1.0, GridSpec())
        assert c.monotone == "nonincreasing"
        assert c.harmonic_sm_convex
        assert c.sm_convex

    def test_negated_identity(self):
        # affine, so plain convex with equality, yet the harmonic check
        # fails: the nonincreasing implication only runs harmonic -> plain
        c = classify(NEG_LINEAR, 1.0, 1.0, GridSpec())
        assert c.monotone == "nonincreasing"
        assert c.sm_convex
        assert not c.harmonic_sm_convex

    def test_constant_counts_as_nondecreasing(self):
        c = classify(s_power(0.0, 1.0, 1.0), 0.5, 1.0, GridSpec())
        assert c.monotone == "nondecreasing"
        assert c.sm_convex and c.harmonic_sm_convex


class TestMonotoneImplications:
    """Nondecreasing plain-convex implies harmonically convex, and
    nonincreasing harmonically convex implies plain convex, same class."""

    @pytest.mark.parametrize("entry", PROPERTY_CORPUS, ids=[e.name for e in PROPERTY_CORPUS])
    @pytest.mark.parametrize("s,m", SM_PAIRS)
    def test_implication_pair(self, entry, s, m):
        grid = GridSpec(lo=entry.lo, hi=entry.hi)
        c = classify(entry.spec, s, m, grid)
        if c.sm_convex and c.monotone == "nondecreasing":
            assert c.harmonic_sm_convex, (
                f"{entry.name} is nondecreasing plain ({s},{m})-convex but the "
                "harmonic check failed"
            )
        if c.harmonic_sm_convex and c.monotone == "nonincreasing":
            assert c.sm_convex, (
                f"{entry.name} is nonincreasing harmonically ({s},{m})-convex "
                "but the plain check failed"
            )

    def test_certified_entries_pass_their_region(self):
        for entry in PROPERTY_CORPUS:
            for s, m in SM_PAIRS:
                if not entry.certifies(s, m):
                    continue
                report = check_harmonic_sm(entry.spec, s, m, GridSpec(lo=entry.lo, hi=entry.hi))
                assert report.holds, f"{entry.name} at ({s},{m}): {report.worst_defect}"


class TestReflectionInequality:
    def test_left_endpoint_equality(self):
        w = reflection_witness(power(1.0, 2.0), 1.0, 2.0, 1.0, 1.0, x=1.0)
        assert w.t == 1.0
        assert w.lhs == pytest.approx(w.rhs, abs=1e-12)
        assert w.holds

    def test_right_endpoint_equality_at_m_one(self):
        w = reflection_witness(power(1.0, 2.0), 1.0, 2.0, 1.0, 1.0, x=2.0)
        assert w.t == 0.0
        assert w.lhs == pytest.approx(w.rhs, abs=1e-12)
        assert w.holds

    def test_square_is_strict_at_midpoint(self):
        w = reflection_witness(power(1.0, 2.0), 1.0, 2.0, 1.0, 1.0, x=1.5)
        assert w.t == pytest.approx(0.5)
        assert w.lhs == pytest.approx((4.0 / 3.0) ** 2, rel=1e-12)
        assert w.rhs - w.lhs > 1.0  # 5 - 2*(4/3)^2 = 13/9
        assert w.holds

    def test_holds_at_101_points_across_certified_corpus(self):
        for entry in PROPERTY_CORPUS:
            for s, m in SM_PAIRS:
                if not entry.certifies(s, m):
                    continue
                a, b = entry.lo, entry.hi
                for k in range(101):
                    x = a + (b - a) * k / 100.0
                    w = reflection_witness(entry.spec, a, b, s, m, x=x)
                    assert w.holds, f"{entry.name} ({s},{m}) x={x}"

    def test_x_outside_interval_rejected(self):
        with pytest.raises(ParameterError):
            reflection_witness(linear(), 1.0, 2.0, 1.0, 1.0, x=2.5)


class TestScaleClosure:
    def test_scale_preserves_class(self):
        doubled = combine("scale", [linear()], lam=2.0)
        assert doubled.claimed_s == 1.0 and doubled.claimed_m == 1.0
        assert doubled.value(3.0) == pytest.approx(6.0)
        report = check_harmonic_sm(doubled, 1.0, 1.0, GridSpec())
        assert report.holds

    def test_scaled_defect_is_scaled(self):
        base = harmonic_sm_defect(linear(), 1.0, 2.0, 0.5, 1.0, 1.0)
        scaled = harmonic_sm_defect(combine("scale", [linear()], lam=2.5), 1.0, 2.0, 0.5, 1.0, 1.0)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    @pytest.mark.parametrize("lam", [0.0, -1.0, math.inf, None])
    def test_factor_validation(self, lam):
        with pytest.raises(ParameterError):
            combine("scale", [linear()], lam=lam)

    def test_scale_arity(self):
        with pytest.raises(ParameterError):
            combine("scale", [linear(), linear()], lam=2.0)


class TestSumClosure:
    def test_sum_takes_minimum_s(self):
        total = combine("sum", [s_power(1.0, 0.5, 0.0), linear()])
        assert total.claimed_s == 0.5
        assert total.claimed_m == 1.0
        report = check_harmonic_sm(total, 0.5, 1.0, GridSpec(lo=0.5, hi=3.0))
        assert report.holds

    def test_sum_value(self):
        total = combine("sum", [linear(), power(1.0, 2.0)])
        assert total.value(2.0) == pytest.approx(6.0)

    def test_mixed_m_drops_the_claim(self):
        # claims with different m do not combine
        odd = FunctionSpec(kind="linear", claimed_s=1.0, claimed_m=0.5)
        total = combine("sum", [odd, linear()])
        assert total.claimed_s is None and total.claimed_m is None

    def test_sum_arity(self):
        with pytest.raises(ParameterError):
            combine("sum", [linear()])


class TestMaxClosure:
    def test_max_of_function_with_itself_is_identity_on_verdicts(self):
        folded = combine("max", [linear(), linear()])
        direct = check_harmonic_sm(linear(), 1.0, 1.0, GridSpec())
        via_max = check_harmonic_sm(folded, 1.0, 1.0, GridSpec())
        assert via_max.holds == direct.holds
        assert via_max.worst_defect == pytest.approx(direct.worst_defect, abs=1e-15)

    def test_max_pair_holds(self):
        folded = combine("max", [linear(), power(1.0, 2.0)])
        assert folded.claimed_s == 1.0
        report = check_harmonic_sm(folded, 1.0, 1.0, GridSpec(lo=0.5, hi=3.0))
        assert report.holds

    def test_max_value(self):
        folded = combine("max", [linear(), power(1.0, 2.0)])
        assert folded.value(0.5) == pytest.approx(0.5)
        assert folded.value(2.0) == pytest.approx(4.0)


class TestSequenceLimit:
    def test_members_converging_to_identity(self):
        members = [combine("scale", [linear()], lam=1.0 + 1.0 / n) for n in range(1, 9)]
        seq = combine("seq_limit", members, limit=linear())
        assert seq.claimed_s == 1.0 and seq.claimed_m == 1.0
        assert seq.value(2.0) == pytest.approx(2.0)
        assert check_harmonic_sm(seq, 1.0, 1.0, GridSpec()).holds
        for member in seq.members:
            assert check_harmonic_sm(member, 1.0, 1.0, GridSpec()).holds

    def test_limit_accessors(self):
        members = [linear(), linear()]
        seq = combine("seq_limit", members, limit=power(1.0, 2.0))
        assert seq.limit.kind == "power"
        assert len(seq.members) == 2
        with pytest.raises(ParameterError):
            linear().members  # noqa: B018 - accessor contract

    def test_missing_limit_rejected(self):
        with pytest.raises(ParameterError):
            combine("seq_limit", [linear()])


class TestComposition:
    def test_square_after_linear(self):
        # outer nondecreasing convex, inner harmonically convex with the
        # same m: the composition stays in the outer class
        comp = combine("compose", [power(1.0, 2.0), linear()])
        assert comp.claimed_s == 1.0 and comp.claimed_m == 1.0
        assert comp.value(3.0) == pytest.approx(9.0)
        assert check_harmonic_sm(comp, 1.0, 1.0, GridSpec()).holds

    def test_derivative_chains(self):
        comp = combine("compose", [power(1.0, 2.0), power(1.0, 2.0)])
        # (x^2)^2 = x^4, derivative 4x^3
        assert comp.deriv(2.0) == pytest.approx(32.0)

    @pytest.mark.parametrize("x", [100.0, [2.0, 100.0]], ids=["scalar", "array"])
    @pytest.mark.parametrize("method", ["value", "deriv"])
    def test_outer_overflow_names_the_compose_input(self, method, x):
        # (x^2)^400 overflows at x = 100 through the inner value 1e4: the
        # error names the compose's own input, not the inner value.
        comp = combine("compose", [power(1.0, 400.0), power(1.0, 2.0)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as exc:
                getattr(comp, method)(x)
        assert exc.value.abscissa == 100.0

    def test_compose_arity(self):
        with pytest.raises(ParameterError):
            combine("compose", [linear()])
        with pytest.raises(ParameterError):
            combine("compose", [linear(), linear(), linear()])

    def test_unknown_op_rejected(self):
        with pytest.raises(ParameterError):
            combine("convolve", [linear(), linear()])


class TestFunctionSpecNodes:
    def test_abs_deriv_pow(self):
        shape = abs_deriv_pow(power(1.0, 2.0), 2.0)
        assert shape.value(3.0) == pytest.approx(36.0)  # (2x)^2
        with pytest.raises(EvaluationError):
            shape.deriv(1.0)

    @pytest.mark.parametrize("x", [1e3, [1.0, 2.0, 1e3, 2e3]], ids=["scalar", "array"])
    @pytest.mark.parametrize("method", ["value", "deriv"])
    def test_overflow_names_its_input_without_a_warning(self, method, x):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(EvaluationError) as exc:
                getattr(power(1.0, 400.0), method)(x)
        assert exc.value.abscissa == 1e3

    def test_abs_deriv_pow_validates_q(self):
        with pytest.raises(ParameterError):
            abs_deriv_pow(linear(), 0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ParameterError):
            FunctionSpec(kind="gaussian")

    def test_wrong_params_rejected(self):
        with pytest.raises(ParameterError):
            FunctionSpec(kind="power", params=(("c", 1.0),))

    def test_claim_range_validated(self):
        with pytest.raises(ParameterError):
            FunctionSpec(kind="linear", claimed_s=1.5)

    def test_negative_s_power_cannot_carry_a_claim(self):
        with pytest.raises(ParameterError):
            FunctionSpec(
                kind="s_power",
                params=(("b", -1.0), ("s", 0.5), ("c", 0.0)),
                claimed_s=0.5,
                claimed_m=1.0,
            )

    def test_constructor_drops_claim_for_negative_coefficients(self):
        assert s_power(-1.0, 0.5, 0.0).claimed_s is None
        assert power(-1.0, 2.0).claimed_s is None
        assert power(1.0, 0.5).claimed_s is None  # p < 1 unclaimed


class TestSpecGrammar:
    ROUND_TRIPS = [
        "linear",
        "power:c=1.0,p=2.0",
        "spower:b=1.0,s=0.5,c=0.0",
        "scale:2.5:power:c=1.0,p=2.0",
        "sum:linear+power:c=1.0,p=2.0",
        "max:linear|spower:b=1.0,s=0.5,c=0.0",
        "sum:max:linear|linear+linear",
        "scale:2.0:sum:linear+linear",
    ]

    @pytest.mark.parametrize("text", ROUND_TRIPS)
    def test_round_trip(self, text):
        spec = parse_function_spec(text)
        again = parse_function_spec(format_function_spec(spec))
        assert again == spec

    def test_parse_matches_constructors(self):
        assert parse_function_spec("linear") == linear()
        assert parse_function_spec("power:c=1,p=2") == power(1.0, 2.0)
        assert parse_function_spec("spower:b=1,s=0.5,c=0") == s_power(1.0, 0.5, 0.0)
        assert parse_function_spec("scale:2:linear") == combine("scale", [linear()], lam=2.0)

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "bogus",
            "power:c=1",
            "power:c=1,q=2",
            "power:c=abc,p=2",
            "power:c=inf,p=2",
            "scale:linear",
            "scale:0:linear",
            "scale:-2:linear",
            "sum:linear",
            "max:linear",
            "spower:b=1,s=0,c=0",
            "spower:b=1,s=-1,c=0",
        ],
    )
    def test_parse_errors(self, text):
        with pytest.raises(ParameterError):
            parse_function_spec(text)

    def test_formats_without_syntax_rejected(self):
        comp = combine("compose", [power(1.0, 2.0), linear()])
        with pytest.raises(ParameterError):
            format_function_spec(comp)


# hypothesis strategies for random spec trees -------------------------------

_LEAVES = st.one_of(
    st.just(linear()),
    st.builds(
        power,
        st.floats(-3.0, 3.0, allow_nan=False).map(lambda v: round(v, 3)),
        st.floats(-2.0, 4.0, allow_nan=False).map(lambda v: round(v, 3)),
    ),
    st.builds(
        s_power,
        st.floats(0.0, 3.0, allow_nan=False).map(lambda v: round(v, 3)),
        st.floats(0.1, 1.0, allow_nan=False).map(lambda v: round(v, 3)),
        st.floats(0.0, 2.0, allow_nan=False).map(lambda v: round(v, 3)),
    ),
)


def _branch(children):
    return st.one_of(
        st.builds(lambda f, lam: combine("scale", [f], lam=lam), children, st.floats(0.1, 5.0).map(lambda v: round(v, 3))),
        st.builds(lambda f, g: combine("sum", [f, g]), children, children),
        st.builds(lambda f, g: combine("max", [f, g]), children, children),
    )


SPEC_TREES = st.recursive(_LEAVES, _branch, max_leaves=6)


@given(spec=SPEC_TREES)
def test_grammar_round_trip_property(spec):
    text = format_function_spec(spec)
    assert parse_function_spec(text) == spec


@given(
    x=st.floats(0.3, 5.0),
    y=st.floats(0.3, 5.0),
    t=st.floats(0.0, 1.0),
    s=st.floats(0.05, 1.0),
    m=st.floats(0.05, 1.0),
)
def test_identity_function_is_universally_harmonic_convex(x, y, t, s, m):
    assert harmonic_sm_defect(linear(), x, y, t, s, m) <= 1e-12
