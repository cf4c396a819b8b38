"""Harmonic (s,m)-convexity checks, closure rules, and the spec grammar."""

from __future__ import annotations

import hashlib
import math
import random
import sys
import threading
import tracemalloc
import warnings
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from itertools import cycle, islice

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
    HarmoniaError,
    Instance,
    ParameterError,
    PROPERTY_CORPUS,
    SM_PAIRS,
    SweepConfig,
    certify_instance,
    check_harmonic_sm,
    check_plain_sm,
    classify,
    combine,
    format_function_spec,
    generate_instances,
    harmonic_sm_defect,
    linear,
    parse_function_spec,
    power,
    reflection_witness,
    s_power,
    abs_deriv_pow,
)
from harmonia import bounds, convexity, harness
from harmonia.convexity import (
    SUBGRID_STRIDE,
    _defect,
    _grid_axes,
    check_harmonic_sm_subgrid_first,
)

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
        # The same on a default-size grid, twice (the second run's workspace is
        # warm): each names the combination's least value, m * lo = 0.3.
        shifted = FunctionSpec(kind="linear", domain_lo=1.0)
        for check in (check_harmonic_sm, check_harmonic_sm, check_plain_sm):
            with pytest.raises(DomainError) as exc:
                check(shifted, 1.0, 0.25, GridSpec(lo=1.2, hi=2.0))
            assert str(exc.value) == "value of linear spec requires x > 1.0, got x=0.3"

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
                check_harmonic_sm_subgrid_first(shape, 1.0, 1.0, grid)

    @pytest.mark.parametrize("what", ["value", "derivative"])
    def test_combination_overflow_names_its_point(self, what):
        # x**-3000 and its derivative underflow to 0 on the axes [3, 4] and
        # overflow where m = 0.25 pulls the combination down to 0.75.  Each
        # run names that point, the second harmonic run with a warm workspace.
        f = power(1.0, -3000.0)
        shape = f if what == "value" else abs_deriv_pow(f, 1.0)
        checks = (check_harmonic_sm, check_harmonic_sm, check_harmonic_sm_subgrid_first,
                  check_plain_sm)
        for check in checks:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(EvaluationError) as exc:
                    check(shape, 1.0, 0.25, GridSpec(lo=3.0, hi=4.0))
            assert str(exc.value) == f"power {what} is not finite at x=0.75"
            assert exc.value.abscissa == 0.75


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

    @pytest.mark.parametrize("kwargs", [{"lo": True}, {"lo": 0.5, "hi": True}, {"lo": "1"}])
    def test_interval_ends_are_reals(self, kwargs):
        # bool subclasses int, but True is no grid end.
        with pytest.raises(ParameterError, match="grid interval needs 0 < lo < hi"):
            GridSpec(**{"hi": 2.0, **kwargs})

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
            report = check_harmonic_sm_subgrid_first(shape, s, m, grid)
            full_report = check_harmonic_sm(shape, s, m, grid)
            assert report.holds is full_report.holds
            if sub.max() > DEFECT_TOL:
                refuted += 1
                assert (report.checked, report.worst_defect) == (sub.size, float(sub.max()))
            else:
                assert report == full_report
        assert refuted > 0

    # sha256 of every report's (holds, worst_defect, witness, checked) in
    # test_reports_keep_their_bits, recorded before the grid workspace.
    DIGEST = "65595c9827f38e22e5a0c6bcce17af9468da973c48b144a069f25cd952ca43de"

    def test_reports_keep_their_bits(self):
        digest = hashlib.sha256()
        refuted = {}
        for ranges in sorted(self.RANGES):
            for shape, s, m, grid in self._candidates(self.RANGES[ranges], 120):
                for check in (check_harmonic_sm_subgrid_first, check_harmonic_sm, check_plain_sm):
                    r = check(shape, s, m, grid)
                    key = (ranges, check.__name__)
                    refuted[key] = refuted.get(key, 0) + (not r.holds)
                    digest.update(repr((r.holds, r.worst_defect.hex(),
                                        [w.hex() for w in r.witness], r.checked)).encode())
        assert len(refuted) == 6 and all(refuted.values())
        assert digest.hexdigest() == self.DIGEST

    def test_subgrid_checks_arguments_like_the_full_grid(self):
        shifted = FunctionSpec(kind="linear", domain_lo=1.0)
        with pytest.raises(DomainError):
            check_harmonic_sm_subgrid_first(shifted, 1.0, 1.0, GridSpec(lo=1.0, hi=2.0))
        with pytest.raises(ParameterError):
            check_harmonic_sm_subgrid_first(linear(), 0.0, 1.0, GridSpec())


@dataclass(frozen=True)
class _Spiked(FunctionSpec):
    """A linear spec whose derivative is infinite at the one point ``spike``."""

    spike: float = 0.0

    def _deriv(self, x, out=None):
        deriv = super()._deriv(x, out)
        deriv[x == self.spike] = np.inf
        return deriv


class TestAxisWork:
    """The x and y axes of every candidate of one |f'|^q in a block are one
    array, and |f'|^q is evaluated on it once."""

    # The small seeded config of tests/test_harness.py.
    SMALL = SweepConfig(samples=6, rng_seed=424242, q_values=(1.0, 2.0))

    @staticmethod
    def block_groups(cfg):
        """The sizes of the (f, q) groups of cfg's first block of draws."""
        block = list(islice(harness._draws(cfg), harness._BLOCK))
        return sorted(Counter((inst.f, inst.q) for inst in block).values())

    def test_generate_instances_builds_and_evaluates_each_axis_once(self, monkeypatch):
        linspace, axis_derivs = [0], [0]
        real_linspace, real_deriv = np.linspace, FunctionSpec._deriv

        def counting_linspace(*args, **kwargs):
            linspace[0] += 1
            return real_linspace(*args, **kwargs)

        def counting_deriv(self, x, out=None):
            axis_derivs[0] += np.ndim(x) == 2  # a stack of axes, one row per candidate
            return real_deriv(self, x, out)

        monkeypatch.setattr(np, "linspace", counting_linspace)
        monkeypatch.setattr(FunctionSpec, "_deriv", counting_deriv)
        instances, discarded, _ = generate_instances(self.SMALL)
        assert discarded > 0 and len(instances) + discarded <= harness._BLOCK  # one block
        passes = len(self.block_groups(self.SMALL))
        assert passes == 6  # 3 families x 2 q values
        assert linspace[0] == 2 * passes  # the stacked x and y, then t
        assert axis_derivs[0] == passes

    # A spike at the axis point xs[1], outside the subgrid (stride 4): in f'
    # itself, or in a summand, whose own check raises inside sum's f'.
    NESTINGS = {
        "leaf": (lambda spiked: spiked, linear()),
        "summand": (lambda spiked: combine("sum", [spiked, linear()]),
                    combine("sum", [linear(), linear()])),
    }

    def _spiked(self, nesting, m, k=1):
        """The instance with the spike at xs[k], its twin without one, and the x axis."""
        a, b = 1.0, 1.37  # no subgrid combination lands on xs[1] at m = 1/2 or 1
        xs = np.linspace(a, b / m, 41)
        build, plain = self.NESTINGS[nesting]
        inst = Instance(a=a, b=b, s=1.0, m=m, q=2.0, lambda_=0.7, mu_=0.2,
                        f=build(_Spiked(kind="linear", spike=float(xs[k]))))
        return inst, replace(inst, f=plain), xs

    @pytest.mark.parametrize("nesting", sorted(NESTINGS))
    def test_a_value_outside_the_subgrid_leaves_its_refutation_alone(self, nesting):
        # |f'|^2 is a constant c > 0; with m = 1/2 it fails at t = 0 (c > m c).
        inst, twin, xs = self._spiked(nesting, 0.5)
        with pytest.raises(EvaluationError):
            abs_deriv_pow(inst.f, inst.q).value(xs)
        report = certify_instance(inst)
        assert not report.holds and report.checked == 11 * 11 * 6
        assert report == certify_instance(twin)

    @pytest.mark.parametrize("nesting", sorted(NESTINGS))
    def test_a_subgrid_that_holds_raises_the_full_grids_error(self, nesting):
        # m = 1: the constant holds on the subgrid, and the full grid reads xs[1].
        inst, twin, xs = self._spiked(nesting, 1.0)
        with pytest.raises(EvaluationError) as expected:
            abs_deriv_pow(inst.f, inst.q).value(xs)
        assert certify_instance(twin).holds
        with pytest.raises(EvaluationError) as raised:
            certify_instance(inst)
        assert str(raised.value) == str(expected.value)
        assert raised.value.abscissa == expected.value.abscissa == xs[1]


class TestGridChecks:
    """A grid checks |f'|^q on its combination once for the domain and once,
    on the defect, for finiteness; a grid that fails re-runs the checked
    evaluation, so it raises what it always raised."""

    @staticmethod
    def _spiked(k, nesting):
        return TestAxisWork()._spiked(nesting, 1.0, k)[0]

    @staticmethod
    def _drawn(f, q, s=1.0, m=0.25, b=1.5):
        return Instance(a=1.0, b=b, s=s, m=m, q=q, lambda_=0.7, mu_=0.2, f=f)

    # Each failing case's instance and the (class, message, abscissa) that
    # check_harmonic_sm, check_harmonic_sm_subgrid_first and certify_instance
    # all raise on it, recorded while every |f'|^q value on a grid was still
    # checked as it was made.  xs[1] lies off the subgrid and xs[4] on it;
    # at m < 1 the combination reaches below a, down to m a.
    CASES = {
        "spike in f' off the subgrid": (
            lambda c: c._spiked(1, "leaf"),
            EvaluationError, "linear derivative is not finite at x=1.00925", 1.00925),
        "spike in f' on the subgrid": (
            lambda c: c._spiked(4, "leaf"),
            EvaluationError, "linear derivative is not finite at x=1.037", 1.037),
        "spike in a summand's f' off the subgrid": (
            lambda c: c._spiked(1, "summand"),
            EvaluationError, "linear derivative is not finite at x=1.00925", 1.00925),
        "spike in a summand's f' on the subgrid": (
            lambda c: c._spiked(4, "summand"),
            EvaluationError, "linear derivative is not finite at x=1.037", 1.037),
        "combination below domain_lo": (
            lambda c: c._drawn(FunctionSpec(kind="linear", domain_lo=0.9), 1.5, s=0.5, m=0.5),
            DomainError, "value of abs_deriv_pow spec requires x > 0.9, got x=0.5", None),
        "combination below domain_lo at q = 1": (
            lambda c: c._drawn(FunctionSpec(kind="power", params=(("c", 1.0), ("p", 2.0)),
                                            domain_lo=0.9), 1.0, s=0.5, m=0.5),
            DomainError, "value of abs_deriv_pow spec requires x > 0.9, got x=0.5", None),
        "|f'|^q overflows at large q": (
            lambda c: c._drawn(power(1.0, -1.0), 300.0),
            EvaluationError, "abs_deriv_pow value is not finite at x=0.25", 0.25),
        "f' overflows": (
            lambda c: c._drawn(power(1.0, -600.0), 1.0),
            EvaluationError, "power derivative is not finite at x=0.25", 0.25),
        "f' is NaN": (  # 0 * inf
            lambda c: c._drawn(power(0.0, -600.0), 2.0),
            EvaluationError, "power derivative is not finite at x=0.25", 0.25),
        "right-hand side overflows": (
            lambda c: c._drawn(power(4e307, 2.0), 1.0, s=0.25, m=1.0, b=2.0),
            EvaluationError, "grid defect evaluation produced non-finite values", None),
    }

    @pytest.mark.parametrize("check", ["check_harmonic_sm", "subgrid_first", "certify_instance"])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_a_failing_grid_raises_what_it_always_raised(self, case, check):
        build, error, message, abscissa = self.CASES[case]
        inst = build(self)
        shape = abs_deriv_pow(inst.f, inst.q), inst.s, inst.m, GridSpec(lo=inst.a, hi=inst.b / inst.m)
        run = {
            "check_harmonic_sm": lambda: check_harmonic_sm(*shape),
            "subgrid_first": lambda: check_harmonic_sm_subgrid_first(*shape),
            "certify_instance": lambda: certify_instance(inst),
        }[check]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            with pytest.raises(error) as raised:
                run()
        assert type(raised.value) is error and str(raised.value) == message
        assert getattr(raised.value, "abscissa", None) == abscissa

    def test_a_narrower_child_domain_is_checked(self):
        # abs_deriv_pow built by hand over a child with the narrower domain.
        child = FunctionSpec(kind="linear", domain_lo=0.9)
        shape = FunctionSpec(kind="abs_deriv_pow", params=(("q", 2.0),), children=(child,))
        for check in (check_harmonic_sm, check_harmonic_sm_subgrid_first):
            with pytest.raises(DomainError) as raised:
                check(shape, 0.5, 0.5, GridSpec(lo=1.0, hi=3.0))
            assert str(raised.value) == "derivative of linear spec requires x > 0.9, got x=0.5"
        with pytest.raises(DomainError, match="derivative of linear spec requires x > 0.9"):
            shape.value(0.85)

    def test_each_grid_checks_once_for_the_domain_and_once_for_finiteness(self, monkeypatch):
        # Work pin on the small seeded config: passes over a grid-sized (3-D,
        # or 4-D when stacked) array, by its size: 726 points per subgrid in
        # each stacked pass, 35,301 for a full grid.  A change that adds a
        # check re-records it and says why in CHANGES.md.
        grids, domain, finite, checked = Counter(), Counter(), Counter(), Counter()
        real_defect, real_in_domain = convexity._defect, FunctionSpec._in_domain
        real_isfinite, real_evaluate = np.isfinite, FunctionSpec._evaluate

        def count(counter, x):
            if np.ndim(x) >= 3:
                counter[np.size(x)] += 1

        def defect(f, s, m, xs, ys, ts, *args):
            grids[np.size(xs) * np.shape(ys)[-1] * len(ts)] += 1
            return real_defect(f, s, m, xs, ys, ts, *args)

        def in_domain(self, x, what):
            count(domain, x)
            return real_in_domain(self, x, what)

        def isfinite(x, *args, **kwargs):
            count(finite, x)
            return real_isfinite(x, *args, **kwargs)

        def evaluate(self, x, what, rule):
            count(checked, x)
            return real_evaluate(self, x, what, rule)

        monkeypatch.setattr(convexity, "_defect", defect)
        monkeypatch.setattr(FunctionSpec, "_in_domain", in_domain)
        monkeypatch.setattr(np, "isfinite", isfinite)
        monkeypatch.setattr(FunctionSpec, "_evaluate", evaluate)
        generate_instances(TestAxisWork.SMALL)
        groups = TestAxisWork.block_groups(TestAxisWork.SMALL)  # one stacked pass each
        assert grids == Counter([726 * n for n in groups] + [41 * 41 * 21] * 6)
        assert groups == [1, 7, 7, 9, 10, 14]
        assert domain == finite == grids
        assert checked == Counter()  # no checked evaluation of a grid that passes

    def test_the_exponent_one_copies(self):
        x = np.array([0.5, 1.5, -2.0, 1e-310, np.inf])
        copy = convexity._pow(x, 1.0, None)
        assert copy is not x and np.array_equal(copy.view(np.int64), (x ** 1.0).view(np.int64))
        out = np.empty_like(x)
        assert convexity._pow(x, 1.0, out) is out and np.array_equal(out.view(np.int64), x.view(np.int64))
        assert convexity._pow(out, 1.0, out) is out


def _outcome(call):
    """A certification's report bits, or its error's class, message and abscissa."""
    try:
        r = call()
    except HarmoniaError as exc:
        return type(exc), str(exc), getattr(exc, "abscissa", None)
    return r.holds, r.worst_defect.hex(), [w.hex() for w in r.witness], r.checked


class TestBlocks:
    """bounds._certify_block stacks the subgrids of each |f'|^q and gives every
    candidate what certify_instance gives it alone."""

    @staticmethod
    def _block():
        spiked = TestAxisWork()._spiked
        off, twin, _ = spiked("leaf", 1.0, 1)  # off the subgrid: its full grid raises
        on = spiked("leaf", 1.0, 4)[0]  # on the subgrid: the stacked pass raises
        summand_off, summand_on = spiked("summand", 1.0, 1)[0], spiked("summand", 1.0, 4)[0]
        square = replace(twin, f=power(1.0, 2.0), q=1.5)
        return [off, twin, on, replace(off, m=0.5), replace(twin, m=0.5), replace(on, m=0.5),
                summand_off, square, summand_on, replace(off, b=1.6), replace(square, s=0.5)]

    def test_each_call_is_certify_instance_alone(self, monkeypatch):
        block = self._block()
        alone = [_outcome(partial(certify_instance, inst)) for inst in block]
        fallbacks = []

        def one_at_a_time(inst):
            fallbacks.append(inst)
            return certify_instance(inst)

        monkeypatch.setattr(bounds, "certify_instance", one_at_a_time)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            together = [_outcome(call) for call in bounds._certify_block(block)]
        assert together == alone
        # Only the groups whose stacked pass raised went one candidate at a time.
        assert fallbacks == [block[2], block[5], block[8]]
        off_message = "linear derivative is not finite at x=1.00925"
        on_message = "linear derivative is not finite at x=1.037"
        assert [alone[i] for i in (0, 2, 6, 8)] == [
            (EvaluationError, off_message, 1.00925), (EvaluationError, on_message, 1.037),
            (EvaluationError, off_message, 1.00925), (EvaluationError, on_message, 1.037)]
        assert [alone[i][0] for i in (1, 3, 4, 5, 7, 9, 10)] == [True, False, False, False,
                                                                 True, True, True]

    def test_a_full_grid_that_raises_discards_its_candidate(self, monkeypatch):
        # The spike off the subgrid holds there; its full grid raises when
        # the draws reach it, and the candidate is discarded.
        off, twin = self._block()[:2]
        monkeypatch.setattr(harness, "_draws", lambda cfg: cycle([off, twin]))
        instances, discarded, certificates = generate_instances(SweepConfig(samples=3))
        assert instances == [twin] * 3 and discarded == 3
        assert certificates == [certify_instance(twin)] * 3

    def test_a_stack_too_large_for_the_workspace_gets_its_own_arrays(self):
        # 60 default subgrids (43,560 points) exceed one grid's 35,301; half
        # of them (m = 1/2) refute.
        shape = abs_deriv_pow(s_power(1.0, 0.5, 0.0), 2.0)
        candidates = [(0.5, m, GridSpec(lo=1.0, hi=1.0 + k / 30)) for k in range(1, 31)
                      for m in (0.5, 1.0)]
        together = [_outcome(call) for call in convexity._subgrid_first(shape, candidates)]
        assert together == [_outcome(partial(check_harmonic_sm_subgrid_first, shape, *c))
                            for c in candidates]


class TestWorkspace:
    """Certification computes in per-thread, per-shape scratch arrays."""

    GRID_BYTES = 41 * 41 * 21 * 8  # one float array of the default grid

    def test_a_warm_certification_allocates_no_grid_array(self):
        inst = Instance(a=1.0, b=2.0, s=0.5, m=1.0, q=2.0, lambda_=0.7, mu_=0.2,
                        f=power(1.0, 2.0))
        certify_instance(inst)  # makes this thread's workspace
        tracemalloc.start()
        try:
            report = certify_instance(inst)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.holds and report.checked == 41 * 41 * 21
        assert peak < self.GRID_BYTES

    def test_threads_certifying_at_once_get_the_serial_reports(self):
        # Four threads, each on its own candidates, switching often: with one
        # workspace for all, their grids would overwrite each other.
        threads = 4
        candidates = list(TestSubgrid()._candidates(TestSubgrid.RANGES["default"], 24))
        serial = [check_harmonic_sm(*c) for c in candidates]
        start = threading.Barrier(threads, timeout=60)

        def certify(k):
            start.wait()
            return [check_harmonic_sm(*c) for _ in range(5) for c in candidates[k::threads]]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=threads) as pool:
                futures = [pool.submit(certify, k) for k in range(threads)]
                reports = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for k in range(threads):
            assert reports[k] == serial[k::threads] * 5

    def test_defect_without_a_workspace_is_a_fresh_array(self):
        axes = _grid_axes(GridSpec())
        first = _defect(linear(), 1.0, 1.0, *axes, harmonic=True)
        kept = first.copy()
        second = _defect(power(1.0, 2.0), 1.0, 1.0, *axes, harmonic=True)
        assert not np.shares_memory(first, second)
        assert np.array_equal(first, kept)

    def test_least_recently_used_shapes_are_dropped(self):
        shapes = [GridSpec(nx=n, ny=n, nt=n) for n in range(2, 4 + convexity._WORKSPACE_SHAPES)]
        for grid in shapes:
            check_harmonic_sm(linear(), 1.0, 1.0, grid)
        kept = list(convexity._WORKSPACES.cache)
        assert kept == [(g.nx, g.ny, g.nt) for g in shapes[-convexity._WORKSPACE_SHAPES:]]


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

    def test_boolean_params_rejected(self):
        # bool subclasses int, but True where a number belongs is a mistake.
        with pytest.raises(ParameterError, match="abs_deriv_pow param q=True must be a finite real"):
            abs_deriv_pow(linear(), True)
        with pytest.raises(ParameterError, match="power param p=True must be a finite real"):
            FunctionSpec(kind="power", params=(("c", 1.0), ("p", True)))

    @pytest.mark.parametrize("build, message", [
        (lambda: power(1.0, True), "power param p=True"),
        (lambda: power(False, 2.0), "power param c=False"),
        (lambda: s_power(True, 0.5, 0.0), "s_power param b=True"),
        (lambda: s_power(1.0, True, 0.0), "s_power param s=True"),
        (lambda: s_power(1.0, 0.5, False), "s_power param c=False"),
        (lambda: combine("scale", [linear()], lam=True), "scale param lam=True"),
    ])
    def test_the_builders_reject_boolean_params(self, build, message):
        # They convert their numbers to float, but not a bool to 1.0 or 0.0.
        with pytest.raises(ParameterError, match=f"{message} must be a finite real"):
            build()

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
