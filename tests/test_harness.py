"""Sweep harness: config validation, determinism, reports."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import warnings
from collections import Counter
from dataclasses import fields, replace
from datetime import datetime
from decimal import Decimal
from itertools import groupby

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from harmonia import (
    AccuracyError,
    CROSSCHECK_TOL,
    CSV_COLUMNS,
    ConfigError,
    FunctionSpec,
    IDENTITY_TOL,
    Instance,
    MARGIN_TOL,
    PRESETS,
    QuadSettings,
    Row,
    RunReport,
    SCHEMA,
    SweepConfig,
    bounds,
    certify_instance,
    check_identity,
    check_theorem,
    crosscheck_B,
    emit_report,
    generate_instances,
    harness,
    identity,
    linear,
    quadrature,
    report_to_dict,
    run_sweep,
    specfun,
)

# small but representative: mixes q=1 (theorem 1 only) with q>1, and the
# linear family discards at m<1 so the discard counter is exercised
SMALL = SweepConfig(samples=6, rng_seed=424242, q_values=(1.0, 2.0))


@pytest.fixture(scope="module")
def small_report():
    return run_sweep(SMALL, jobs=1)


def _one_row_report(**row) -> RunReport:
    nan = float("nan")
    values = dict(
        instance_id=0, family="linear", a=1.0, b=2.0, s=1.0, m=1.0,
        q=1.0, lambda_=0.5, mu_=0.5, check="identity",
        lhs=nan, rhs=nan, margin=nan, passed=False,
    )
    return RunReport(
        config=SMALL, instances=1, discarded=0, rows=[Row(**{**values, **row})],
        errata=[], wall_time=0.0,
    )


@pytest.fixture
def failed_report():
    """One failed row: nan lhs, rhs and margin, and no errata."""
    return _one_row_report()


@pytest.fixture
def non_ascii_report():
    return _one_row_report(family="caf\u00e9 \u03bb", lhs=1.0, rhs=2.0, margin=1.0, passed=True)


@pytest.fixture
def odd_errata_report():
    """An erratum with values no sweep writes: None and a float subclass."""
    errata = [{"expected": False, "a": None, "x": np.float64(0.5)}]
    return replace(_one_row_report(), errata=errata)


class TestSweepConfig:
    def test_defaults_validate(self):
        cfg = SweepConfig()
        assert cfg.samples == 200
        assert cfg.lambda_mu == "random"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"samples": 0},
            {"samples": 2.5},
            {"a_range": (0.0, 1.0)},
            {"a_range": (2.0, 1.0)},
            {"b_minus_a_range": (0.0, 0.5)},
            {"s_values": ()},
            {"s_values": (0.5, 1.5)},
            {"m_values": (0.0,)},
            {"q_values": (0.5,)},
            {"lambda_mu": "booles_rule"},
            {"lambda_mu": (0.3, 0.7)},
            {"lambda_mu": (0.7, 0.6)},
            {"families": ()},
            {"families": ("power:c=1",)},
            {"families": ("not a spec",)},
            {"identity_tol": 0.0},
            {"margin_tol": float("nan")},
            {"quad": {"abs_tol": 1e-10}},
            {"jobs": 0},
            {"rng_seed": [1]},
            {"rng_seed": "7"},
            {"samples": True},
            {"jobs": True},
            {"rng_seed": False},
            {"identity_tol": True},
            {"crosscheck_tol": "1e-6"},
            {"s_values": (True,)},
            {"q_values": ("2",)},
            {"lambda_mu": (True, 0.25)},
            {"families": "linear"},
        ],
    )
    def test_rejects_bad_values(self, kwargs):
        # from_dict builds SweepConfig(**kwargs) once every key is known; the
        # tolerance, quad and jobs keys are not fields and fail as unknown keys.
        with pytest.raises(ConfigError) as exc:
            SweepConfig.from_dict(kwargs)
        assert next(iter(kwargs)) in str(exc.value)

    def test_scalar_family_error_names_the_field(self):
        with pytest.raises(ConfigError, match="families"):
            SweepConfig(families="linear")

    def test_integer_fields_accept_integral_floats(self):
        cfg = SweepConfig.from_dict({"samples": 200.0, "rng_seed": 7.0})
        assert (cfg.samples, cfg.rng_seed) == (200, 7)
        assert all(type(n) is int for n in (cfg.samples, cfg.rng_seed))

    def test_lists_become_tuples(self):
        cfg = SweepConfig(a_range=[0.5, 2.0], s_values=[0.5, 1], families=["linear"])
        assert cfg.a_range == (0.5, 2.0) and cfg.s_values == (0.5, 1.0)
        assert cfg.families == ("linear",)
        assert hash(cfg) == hash(replace(cfg))

    def test_preset_and_pair_triples_accepted(self):
        assert SweepConfig(lambda_mu="simpson")._triple_mode() == (5.0 / 6.0, 1.0 / 6.0)
        assert SweepConfig(lambda_mu=(0.75, 0.25))._triple_mode() == (0.75, 0.25)
        assert SweepConfig()._triple_mode() is None

    def test_dict_round_trip(self):
        cfg = SweepConfig(
            samples=11,
            rng_seed=7,
            lambda_mu=(0.9, 0.1),
            families=("power:c=1,p=2",),
        )
        again = SweepConfig.from_dict(cfg.to_dict())
        assert again == cfg

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError) as exc:
            SweepConfig.from_dict({"samples": 5, "smaples": 6})
        assert "smaples" in str(exc.value)

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict([1, 2])

    def test_from_dict_shape_errors(self):
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"a_range": [1.0]})
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"s_values": 0.5})
        with pytest.raises(ConfigError):
            SweepConfig.from_dict({"families": "linear"})

    def test_fields_are_the_sampling_parameters(self):
        assert [f.name for f in fields(SweepConfig)] == [
            "samples", "rng_seed", "a_range", "b_minus_a_range", "s_values",
            "m_values", "q_values", "lambda_mu", "families",
        ]

    def test_from_dict_rejects_removed_keys(self):
        # How rows are judged and how many workers run are not config keys,
        # not even at the values a sweep uses.
        removed = {
            "identity_tol": IDENTITY_TOL, "crosscheck_tol": CROSSCHECK_TOL,
            "margin_tol": MARGIN_TOL, "quad": {"abs_tol": 1e-10}, "jobs": 2,
        }
        for key, value in removed.items():
            with pytest.raises(ConfigError, match=rf"unknown config keys: \['{key}'\]"):
                SweepConfig.from_dict({"samples": 5, key: value})


class TestGenerateInstances:
    def test_deterministic_for_fixed_seed(self):
        first, d1, _ = generate_instances(SMALL)
        second, d2, _ = generate_instances(SMALL)
        assert first == second
        assert d1 == d2

    def test_requested_count_and_discards(self):
        instances, discarded, _ = generate_instances(SMALL)
        assert len(instances) == SMALL.samples
        # default families include linear, which cannot certify at m < 1
        assert discarded > 0

    def test_seed_changes_the_draw(self):
        other = generate_instances(SweepConfig(samples=6, rng_seed=99, q_values=(1.0, 2.0)))[0]
        assert other != generate_instances(SMALL)[0]

    def test_fixed_triple_applied_everywhere(self):
        cfg = SweepConfig(samples=4, lambda_mu="midpoint", families=("power:c=1,p=2",))
        instances, _, _ = generate_instances(cfg)
        assert all(i.lambda_ == 1.0 and i.mu_ == 0.0 for i in instances)

    def test_uncertifiable_corpus_rejected(self):
        # constant |f'|^q requires m = 1, so this can never certify
        cfg = SweepConfig(samples=2, families=("linear",), m_values=(0.25,))
        with pytest.raises(ConfigError) as exc:
            generate_instances(cfg)
        assert "certified" in str(exc.value)


class TestRunSweep:
    def test_row_counts_follow_the_matrix(self, small_report):
        rep = small_report
        assert rep.instances == SMALL.samples
        assert rep.identity_total == rep.instances
        by_inst: dict[int, list[Row]] = {}
        for row in rep.rows:
            by_inst.setdefault(row.instance_id, []).append(row)
        lock_rows = by_inst.pop(-1)
        assert len(lock_rows) == 1
        for inst_id, rows in by_inst.items():
            q = rows[0].q
            checks = [r.check for r in rows]
            assert checks.count("identity") == 1
            t1 = sum(1 for c in checks if c.startswith("theorem1@"))
            t2 = sum(1 for c in checks if c.startswith("theorem2@"))
            crosschecks = sum(1 for c in checks if c.startswith("crosscheck:"))
            assert t1 == 4  # instance triple plus three presets
            if q == 1.0:
                assert t2 == 0
                assert crosschecks == 10  # B7/B10 undefined at q=1
            else:
                assert t2 == 4
                assert crosschecks == 12

    def test_every_row_passes(self, small_report):
        rep = small_report
        assert rep.all_pass
        assert rep.failures == 0
        assert rep.unexpected_errata == 0

    def test_margins_respect_tolerance(self, small_report):
        for theorem in (1, 2):
            worst = small_report.worst_margin(theorem)
            assert worst is not None
            assert worst >= -MARGIN_TOL

    def test_errata_rows_are_expected_and_shaped(self, small_report):
        assert small_report.errata, "flagged coefficients should appear in any sweep"
        for entry in small_report.errata:
            assert entry["expected"] is True
            assert entry["status"] == "erratum_suspected"
            assert entry["rel_diff"] > CROSSCHECK_TOL
            assert set(entry) == {
                "index", "case", "oracle", "closed_form", "rel_diff",
                "status", "instance_id", "expected",
            }

    def test_printed_deviation_lock_row(self, small_report):
        lock = [r for r in small_report.rows if r.instance_id == -1]
        assert len(lock) == 1
        row = lock[0]
        assert row.check == "printed_deviation_lock"
        assert row.passed
        assert abs(row.lhs - row.rhs) >= 0.5
        assert row.margin == pytest.approx(abs(row.lhs - row.rhs) - 0.5, abs=1e-15)

    def test_parallel_equals_serial(self, small_report):
        power = ("power:c=1,p=2",)
        cases = [
            (SMALL, small_report, 2),
            (SMALL, small_report, 3),
            # fewer instances than workers
            (SweepConfig(samples=2, rng_seed=7, families=power), None, 3),
            # batches of two and a last batch of one
            (SweepConfig(samples=49, rng_seed=7, q_values=(1.0,), families=power), None, 2),
        ]
        for cfg, serial, jobs in cases:
            serial = serial or run_sweep(cfg, jobs=1)
            parallel = run_sweep(cfg, jobs=jobs)
            assert parallel.rows == serial.rows
            assert parallel.errata == serial.errata
            assert parallel.discarded == serial.discarded
            assert parallel.instances == serial.instances == cfg.samples

    def test_pool_evaluates_rows_while_the_parent_certifies(self, monkeypatch, small_report):
        # The first batch reaches the pool before the last candidate is
        # certified, and only the parent certifies.
        parent = os.getpid()
        events: list[str] = []
        real_certify = harness.certify_instance

        def logging_certify(inst):
            if os.getpid() != parent:
                raise AssertionError("a pool worker certified an instance")
            events.append("certify")
            return real_certify(inst)

        class LoggingPool(harness.ProcessPoolExecutor):
            def submit(self, *args, **kwargs):
                events.append("submit")
                return super().submit(*args, **kwargs)

        monkeypatch.setattr(harness, "certify_instance", logging_certify)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", LoggingPool)
        rep = run_sweep(SMALL, jobs=2)
        last_certify = len(events) - 1 - events[::-1].index("certify")
        assert events.index("submit") < last_certify
        assert events.count("certify") == rep.instances + rep.discarded
        assert events.count("submit") == SMALL.samples  # batches of one at 6 samples
        assert rep.rows == small_report.rows

    def test_pool_cancels_queued_batches_when_too_few_certify(self, monkeypatch):
        # linear certifies only at m = 1, drawn once in sixty: 4 of the 8
        # instances certify in the 400 draws, each submitted as it comes.
        cfg = SweepConfig(samples=8, rng_seed=1, families=("linear",),
                          m_values=(0.25,) * 59 + (1.0,))
        with pytest.raises(ConfigError) as serial:
            run_sweep(cfg, jobs=1)
        shutdowns: list[dict] = []

        class LoggingPool(harness.ProcessPoolExecutor):
            def shutdown(self, *args, **kwargs):
                shutdowns.append(kwargs)
                return super().shutdown(*args, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", LoggingPool)
        with pytest.raises(ConfigError) as pooled:
            run_sweep(cfg, jobs=2)
        assert str(pooled.value) == str(serial.value)
        assert str(serial.value).startswith("only 4 of 8 requested instances certified")
        assert shutdowns[0] == {"cancel_futures": True}

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_each_accepted_instance_certified_once(self, monkeypatch, small_report, jobs):
        # certify_instance runs in the parent only: once per candidate,
        # never again for the rows.
        parent = os.getpid()
        candidates: list[Instance] = []
        verdicts: list[bool] = []
        real_certify = harness.certify_instance

        def counting_certify(inst, *args, **kwargs):
            if os.getpid() != parent:
                raise AssertionError("a pool worker re-certified an instance")
            candidates.append(inst)
            report = real_certify(inst, *args, **kwargs)
            verdicts.append(report.holds)
            return report

        monkeypatch.setattr(harness, "certify_instance", counting_certify)
        rep = run_sweep(SMALL, jobs=jobs)
        assert len(candidates) == rep.instances + rep.discarded
        assert verdicts.count(True) == rep.instances
        assert verdicts.count(False) > 0
        assert rep.rows == small_report.rows
        assert rep.errata == small_report.errata
        assert rep.discarded == small_report.discarded

    def test_failed_theorem_row_reports_the_instance_triple(self, monkeypatch):
        inst = next(i for i in generate_instances(SMALL)[0] if i.q > 1.0)
        real = harness.check_theorem

        def fails_at_simpson(tri, theorem, **kwargs):
            if (tri.lambda_, tri.mu_) == PRESETS["simpson"]:
                raise AccuracyError("starved", estimate=0.0, err_estimate=1.0)
            return real(tri, theorem, **kwargs)

        monkeypatch.setattr(harness, "check_theorem", fails_at_simpson)
        payload = (0, inst, certify_instance(inst))
        rows, _ = harness._instance_rows(payload)
        failed = [r for r in rows if not r.passed]
        assert [r.check for r in failed] == ["theorem1@simpson", "theorem2@simpson"]
        assert {(r.lambda_, r.mu_) for r in rows} == {(inst.lambda_, inst.mu_)}

    def test_failed_crosscheck_row_names_its_case(self, monkeypatch):
        def starved(kind, inst):
            raise AccuracyError("starved", estimate=0.0, err_estimate=1.0)

        monkeypatch.setattr(bounds, "kernel_oracle", starved)
        # With no batched pass, every oracle is computed alone, and starved.
        monkeypatch.setattr(harness, "_oracle_pass", lambda inst, memo: None)
        inst = Instance(a=1.0, b=2.0, s=0.5, m=1.0, q=2.0, lambda_=0.8, mu_=0.3, f=linear())
        rows, _ = harness._instance_rows((0, inst, certify_instance(inst)))
        failed = [r.check for r in rows if not r.passed and r.check.startswith("crosscheck")]
        assert "crosscheck:B2:interior" in failed
        assert failed == [f"crosscheck:B{i}:{bounds.case_label(i, inst)}" for i in range(1, 13)]

    def test_failing_oracles_fail_the_rows_they_fail_alone(self, monkeypatch):
        # At a = 0.05 and q = 200, A^400 leaves the float range on the left
        # half: the batched pass leaves B2, B3, B8 and B9 to kernel_oracle,
        # whose EvaluationError fails every row that reads one, just as when
        # each oracle is computed alone.  No numpy RuntimeWarning escapes.
        inst = Instance(a=0.05, b=0.5, s=0.5, m=1.0, q=200.0, lambda_=0.8, mu_=0.3, f=linear())
        payload = (0, inst, certify_instance(inst))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            batched = harness._instance_rows(payload)
        assert [r.check for r in batched[0] if not r.passed] == [
            *(f"theorem{t}@{name}" for t in (1, 2)
              for name in ("instance", "trapezoid", "midpoint", "simpson")),
            *(f"crosscheck:B{i}:interior" for i in (2, 3, 5, 6)),
            *(f"crosscheck:B{i}:all" for i in (8, 9, 11)),
        ]
        monkeypatch.setattr(harness, "_oracle_pass", lambda inst, memo: None)
        assert repr(batched) == repr(harness._instance_rows(payload))

    def test_closed_form_argument_that_rounds_to_one_fails_only_its_rows(self):
        # At b/a = 1e17 the 2F1 arguments z, zeta and 1 - a/A_x round to 1.0:
        # the rows of the closed forms that read them fail, the instance's
        # other rows are still computed, and nothing raises.
        inst = Instance(a=1e-17, b=1.0, s=0.5, m=1.0, q=1.0, lambda_=0.8, mu_=0.3, f=linear())
        rows, _ = harness._instance_rows((0, inst, certify_instance(inst)))
        failed = {r.check for r in rows if not r.passed}
        assert failed == {f"crosscheck:B{i}:{case}" for i, case in (
            (2, "interior"), (3, "interior"), (5, "interior"), (6, "interior"),
            (8, "all"), (9, "all"), (11, "all"))}
        assert all(math.isnan(r.rhs) for r in rows if r.check in failed)
        assert {"identity", "theorem1@instance", "crosscheck:B12:all"} < {r.check for r in rows}

    def test_generate_returns_certificates_on_request(self):
        instances, discarded, certificates = generate_instances(SMALL)
        again, discarded_again, _ = generate_instances(SMALL)
        assert (again, discarded_again) == (instances, discarded)
        assert certificates == [certify_instance(inst) for inst in instances]
        assert all(cert.holds for cert in certificates)

    @pytest.mark.parametrize("jobs", [0, -1, True])
    def test_bad_jobs_override_rejected(self, jobs):
        cfg = SweepConfig(samples=2, families=("power:c=1,p=2",))
        with pytest.raises(ConfigError, match="jobs"):
            run_sweep(cfg, jobs=jobs)

    def test_overflowing_sweep_is_a_numeric_failure(self):
        # At q = 400, A^(2q) overflows once A exceeds about 2.4: most rows
        # fail, and the sweep reports that instead of raising OverflowError.
        cfg = SweepConfig.from_dict({
            "samples": 3, "q_values": [400.0], "families": ["linear"], "a_range": [1.5, 2.0],
        })
        with pytest.raises(AccuracyError, match="systemic"):
            run_sweep(cfg, jobs=1)

    def test_systemic_quadrature_failure_raises(self, monkeypatch):
        # Starve every quadrature, which every row reads (the printed-deviation
        # lock row too): the rows fail to converge, and the sweep reports it
        # as systemic.
        starved = QuadSettings(abs_tol=1e-300, rel_tol=1e-15, max_subdivisions=1)
        monkeypatch.setattr(quadrature, "DEFAULT_SETTINGS", starved)
        cfg = SweepConfig(samples=2, families=("power:c=1,p=2",))
        with pytest.raises(AccuracyError, match="systemic"):
            run_sweep(cfg, jobs=1)


def _exact_oracle_key(kind, inst):
    """Everything a kernel_oracle value depends on.

    The weight is centred on mu on the left half and on lambda on the right;
    the weight "none" reads neither.
    """
    centre = None if kind.weight == "none" else inst.mu_ if kind.side == "left" else inst.lambda_
    return (kind, inst.a, inst.b, inst.s, inst.q, centre)


def test_closed_forms_run_no_quadrature(monkeypatch):
    # Every 2F1 of a closed form is a series with an error bound; the Euler
    # integral serves only the public hyp2f1's check.
    calls = Counter()
    real = specfun._product_rule

    def counted(*args, **kwargs):
        calls["_product_rule"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(specfun, "_product_rule", counted)
    evaluated = 0
    for inst in generate_instances(SMALL)[0]:
        for lam, mu in [(inst.lambda_, inst.mu_), *PRESETS.values()]:
            for index in (2, 3, 5, 6, 8, 9, 11, 12):
                assert math.isfinite(bounds.closed_B(index, replace(inst, lambda_=lam, mu_=mu)))
                evaluated += 1
    assert evaluated > 0 and calls == Counter()
    assert specfun.hyp2f1(2.0, 1.0, 3.5, 0.5) > 1.0 and calls["_product_rule"] == 1


def test_kernel_oracles_run_no_tanh_sinh(monkeypatch):
    # The oracles and the Euler integral integrate with the Gauss-Jacobi
    # product rule alone; nothing in the library runs the tanh-sinh rule.
    calls = Counter()
    for module, name in ((quadrature, "_de_level"), (bounds, "_product_rules")):
        fn = getattr(module, name)

        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    report = run_sweep(SMALL, jobs=1)
    assert all(r.passed for r in report.rows)
    assert calls["_product_rules"] > 0 and calls["_de_level"] == 0
    assert specfun.hyp2f1(50.0, 0.5, 1.5, 0.9999) > 1.0 and calls["_de_level"] == 0
    # The counter is not vacuous: the tanh-sinh rule reaches each level through
    # the module global that the patch replaced.
    assert "_de_level" in quadrature.integrate_de.__code__.co_names


class TestInstanceMemo:
    def test_rows_equal_the_unmemoized_functions(self, small_report):
        instances, _, _ = generate_instances(SMALL)
        for inst_id, inst in enumerate(instances):
            rows = {r.check: r for r in small_report.rows if r.instance_id == inst_id}
            expected = {}
            ic = check_identity(inst)
            expected["identity"] = (ic.lhs, ic.rhs)
            triples = [("instance", (inst.lambda_, inst.mu_)), *PRESETS.items()]
            for theorem in (1,) if inst.q == 1.0 else (1, 2):
                for name, (lam, mu) in triples:
                    v = check_theorem(replace(inst, lambda_=lam, mu_=mu), theorem)
                    expected[f"theorem{theorem}@{name}"] = (v.lhs, v.rhs)
            for index in range(1, 13):
                if index in (7, 10) and inst.q == 1.0:
                    continue
                term = crosscheck_B(index, inst)
                expected[f"crosscheck:B{index}:{term.case}"] = (term.oracle, term.closed_form)
            assert set(rows) == set(expected)
            for check, (lhs, rhs) in expected.items():
                assert (rows[check].lhs, rows[check].rhs) == (lhs, rhs), (inst_id, check)

            # The theorem rows' 1/q powers can absorb a last-bit slip in a
            # coefficient, so read every coefficient at all four triples
            # through one memo, as the rows do, and compare it bit for bit.
            memo: dict = {}
            for _, (lam, mu) in triples:
                tri = replace(inst, lambda_=lam, mu_=mu)
                for index in range(1, 13):
                    if index in (7, 10) and inst.q == 1.0:
                        continue
                    shared = crosscheck_B(index, tri, memo=memo)
                    alone = crosscheck_B(index, tri)
                    assert shared == alone, (inst_id, lam, mu, index)

    def test_each_value_computed_once(self, monkeypatch):
        inst = next(i for i in generate_instances(SMALL)[0] if i.q > 1.0)
        keys: dict[str, Counter] = {}

        def count(module, name, key):
            fn = getattr(module, name)
            seen = keys[name] = Counter()

            def wrapper(*args, **kwargs):
                seen[key(*args, **kwargs)] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(module, name, wrapper)

        count(bounds, "kernel_oracle", _exact_oracle_key)
        count(bounds, "_plan", _exact_oracle_key)
        count(bounds, "_hyp2f1_bounded", lambda *args: args)
        # One closed-form evaluation per 2F1 row gives both its value and its
        # bound; the crosscheck rows are at the instance's own triple only.
        count(bounds, "_evaluate", lambda index, terms, form_err, memo=None: index)
        count(identity, "integrate", lambda f, lo, hi: (lo, hi))
        payload = (0, inst, certify_instance(inst))
        rows, _ = harness._instance_rows(payload)
        assert all(r.passed for r in rows)
        for name, seen in keys.items():
            repeated = {k: n for k, n in seen.items() if n > 1}
            assert not repeated, (name, repeated)
        assert keys["_plan"] and keys["_hyp2f1_bounded"] and keys["_evaluate"]
        assert keys["integrate"][(inst.a, inst.b)] == 1
        # The batched pass plans and evaluates every oracle the rows read, each
        # once; a default-range instance leaves none to kernel_oracle alone.
        assert len(keys["_plan"]) == 24 and keys["kernel_oracle"] == Counter()
        # B8, B9, B11 and B12 do not read lambda or mu: one integral serves
        # all four triples and the crosscheck.
        for index in (8, 9, 11, 12):
            kind = bounds.KIND_FOR_INDEX[index]
            calls = sum(n for k, n in keys["_plan"].items() if k[0] == kind)
            assert calls == 1, (index, calls)

    def test_each_triple_built_once(self, monkeypatch):
        # The oracle pass and the theorem rows share one mapping of the four
        # triples through the memo: the instance itself and one new Instance
        # per preset, so the rows of an instance build three.
        payloads = [(0, inst, certify_instance(inst)) for inst in generate_instances(SMALL)[0]]
        assert any(inst.q > 1.0 for _, inst, _ in payloads)  # both theorems' rows
        built: Counter = Counter()
        post_init = Instance.__post_init__

        def counted(self):
            built[self.lambda_, self.mu_] += 1
            post_init(self)

        monkeypatch.setattr(Instance, "__post_init__", counted)
        for payload in payloads:
            built.clear()
            harness._instance_rows(payload)
            assert built == Counter(PRESETS.values()), payload[1]

    def test_function_values_once_per_instance(self, monkeypatch):
        # Count FunctionSpec.value/.deriv calls on the instance's function by
        # the number of points: the node values f(H), f(a), f(b) and the
        # endpoint derivatives f'(a), f'(b/m) are one call each per instance,
        # and each Gauss-Kronrod panel of the identity is one 15-point call.
        inst = next(i for i in generate_instances(SMALL)[0] if i.q > 1.0)
        payload = (0, inst, certify_instance(inst))
        calls: dict[str, Counter] = {}
        for name in ("value", "deriv"):
            fn = getattr(FunctionSpec, name)
            seen = calls[name] = Counter()

            def wrapper(self, x, fn=fn, seen=seen):
                if self is inst.f:
                    seen[np.size(x) if np.ndim(x) else "scalar"] += 1
                return fn(self, x)

            monkeypatch.setattr(FunctionSpec, name, wrapper)
        evaluations = []
        integrate = identity.integrate

        def spy(f, lo, hi, settings=None):
            res = integrate(f, lo, hi, settings)
            evaluations.append(res.evaluations)
            return res

        monkeypatch.setattr(identity, "integrate", spy)
        rows, _ = harness._instance_rows(payload)
        assert all(r.passed for r in rows)
        assert len(evaluations) == 3  # the integral average and two kernel halves
        panels = sum(evaluations) // 15
        assert calls["value"] == Counter({3: 1, 15: evaluations[0] // 15})
        assert calls["deriv"] == Counter({2: 1, 15: panels - evaluations[0] // 15})


class TestReports:
    def test_json_schema_and_summary(self, small_report):
        doc = report_to_dict(small_report)
        assert doc["schema"] == SCHEMA == "harmonia/v1"
        assert doc["summary"]["instances"] == small_report.instances
        assert doc["summary"]["discarded"] == small_report.discarded
        assert doc["summary"]["failures"] == 0
        assert doc["summary"]["all_pass"] is True
        assert doc["summary"]["identity_pass"] == doc["summary"]["identity_total"]
        assert doc["summary"]["bound_total"]["1"] == small_report.bound_total(1)
        assert len(doc["rows"]) == len(small_report.rows)
        assert doc["config"] == SMALL.to_dict()

    def test_json_row_keys(self, small_report):
        doc = report_to_dict(small_report)
        assert set(doc["rows"][0]) == {
            "instance_id", "family", "a", "b", "s", "m", "q",
            "lambda", "mu", "check", "lhs", "rhs", "margin", "pass",
        }

    def test_json_is_strict(self, small_report, failed_report, tmp_path):
        # the emitted files, read back: no NaN/Infinity tokens may appear
        def reject(token):
            raise AssertionError(f"non-strict JSON token {token}")

        dest = tmp_path / "report.json"
        for report in (small_report, failed_report):
            emit_report(report, "json", str(dest))
            doc = json.loads(dest.read_text(encoding="utf-8"), parse_constant=reject)
            assert doc["schema"] == "harmonia/v1"

    def test_nan_rows_serialize_as_null(self, failed_report):
        doc = report_to_dict(failed_report)
        assert doc["rows"][0]["lhs"] is None
        assert doc["rows"][0]["margin"] is None
        assert doc["rows"][0]["pass"] is False
        json.dumps(doc, allow_nan=False)

    def test_emit_json_file(self, small_report, tmp_path):
        dest = tmp_path / "report.json"
        emit_report(small_report, "json", str(dest))
        doc = json.loads(dest.read_text(encoding="utf-8"))
        assert doc["schema"] == "harmonia/v1"
        assert doc["summary"]["all_pass"] is True

    def test_emit_csv_layout(self, small_report, tmp_path):
        dest = tmp_path / "report.csv"
        emit_report(small_report, "csv", str(dest))
        lines = dest.read_text(encoding="utf-8").splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == len(small_report.rows) + 1
        assert lines[-1].split(",")[0] == "-1"  # lock row emitted last

    def test_csv_byte_identical_across_runs(self, small_report, tmp_path):
        first = tmp_path / "first.csv"
        second = tmp_path / "second.csv"
        emit_report(small_report, "csv", str(first))
        emit_report(run_sweep(SMALL, jobs=1), "csv", str(second))
        assert first.read_bytes() == second.read_bytes()

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_accessors_and_writers_read_each_row_once(
        self, small_report, tmp_path, monkeypatch, fmt
    ):
        # A row is read by a walk (__iter__) or through __getitem__, as the
        # writers read their chunks by slices; both are counted.  A small
        # _CHUNK makes the writers cut the rows, and their runs, into chunks.
        class CountedRows(list):
            walks = 0

            def __init__(self, rows):
                super().__init__(rows)
                self.reads = Counter()

            def __iter__(self):
                self.walks += 1
                return super().__iter__()

            def __getitem__(self, key):
                span = range(len(self))[key]
                self.reads.update(span if isinstance(key, slice) else [span])
                return super().__getitem__(key)

        monkeypatch.setattr(harness, "_CHUNK", 5)
        report = replace(small_report, rows=CountedRows(small_report.rows))
        assert len(report.rows) > 4 * harness._CHUNK
        for name in ("identity_total", "identity_pass", "expected_errata",
                     "unexpected_errata", "failures", "all_pass"):
            getattr(report, name)
        for theorem in (1, 2):
            report.bound_total(theorem), report.bound_pass(theorem), report.worst_margin(theorem)
        assert report.rows.walks == 1 and not report.rows.reads  # the summary's one pass
        emit_report(report, fmt, str(tmp_path / f"report.{fmt}"))
        walks = report.rows.walks - 1
        reads = [report.rows.reads[i] + walks for i in range(len(report.rows))]
        assert reads == [1] * len(report.rows)

    def test_emit_rejects_unknown_format(self, small_report, tmp_path):
        with pytest.raises(ConfigError):
            emit_report(small_report, "xml", str(tmp_path / "r.xml"))


class TestJsonBytes:
    """emit_report writes the bytes of json.dump(report_to_dict(...), indent=2,
    sort_keys=True, allow_nan=False) plus a newline."""

    @pytest.fixture(autouse=True)
    def fixed_clock(self, monkeypatch):
        class Clock(datetime):
            @classmethod
            def now(cls, tz=None):
                return datetime(2026, 1, 2, 3, 4, 5, tzinfo=tz)

        monkeypatch.setattr(harness, "datetime", Clock)

    @staticmethod
    def emitted(report, tmp_path) -> str:
        dest = tmp_path / "report.json"
        emit_report(report, "json", str(dest))
        return dest.read_text(encoding="utf-8")

    @pytest.mark.parametrize(
        "name", ["small_report", "failed_report", "non_ascii_report", "odd_errata_report"]
    )
    def test_same_bytes_as_json_dump(self, name, request, tmp_path):
        report = request.getfixturevalue(name)
        expected = json.dumps(
            report_to_dict(report), indent=2, sort_keys=True, allow_nan=False
        ) + "\n"
        assert self.emitted(report, tmp_path) == expected

    def test_fixtures_cover_errata_null_and_escapes(
        self, small_report, failed_report, non_ascii_report, tmp_path
    ):
        assert small_report.errata and not failed_report.errata
        assert '"lhs": null' in self.emitted(failed_report, tmp_path)
        assert r'"family": "caf\u00e9 \u03bb"' in self.emitted(non_ascii_report, tmp_path)

    def test_nan_in_a_non_nullable_column_raises(self, failed_report, tmp_path):
        report = replace(failed_report, rows=[replace(failed_report.rows[0], a=float("nan"))])
        with pytest.raises(ValueError):
            json.dumps(report_to_dict(report), indent=2, sort_keys=True, allow_nan=False)
        with pytest.raises(ValueError):
            emit_report(report, "json", str(tmp_path / "report.json"))


class _FixedClock(datetime):
    @classmethod
    def now(cls, tz=None):
        return datetime(2026, 1, 2, 3, 4, 5, tzinfo=tz)


# Pools for the instance cells: a zero in a, lambda and mu, quoting and
# %-template hazards in the family, and equal values under other ids.
_RUN_CELLS = {
    "instance_id": st.sampled_from([0, 1, -1]),
    "family": st.sampled_from(["linear", 'f,"%s"', "caf\u00e9\n%", ""]),
    "a": st.sampled_from([0.5, 1e-300, 0.0]),
    "b": st.sampled_from([2.0, 3.0]),
    "q": st.sampled_from([1.0, 0.1 + 0.2]),
    "lambda_": st.sampled_from([1.0, 0.75, 0.0]),
    "mu_": st.sampled_from([2.5e10, 0.25, 0.0]),
}
_CELL_FLOATS = st.sampled_from([1.25, 0.0, -0.0, -3e-5, math.nan, math.inf, -math.inf])
_OWN_CELLS = st.tuples(
    st.text(alphabet=list('ab,"%\n\r \u00e9\u03bb'), max_size=5),
    _CELL_FLOATS, _CELL_FLOATS, _CELL_FLOATS, st.booleans(),
)


@st.composite
def _reports(draw) -> RunReport:
    """Runs of rows.  Each instance changes one cell of the one before:
    it redraws it or negates a, lambda or mu.  So equal cells under two ids,
    two instances under one id and zeros that differ only in sign follow
    each other often.  Now and then one row holds a non-finite instance
    float."""
    own = draw(st.lists(_OWN_CELLS, min_size=1, max_size=4))
    cells = {name: draw(pool) for name, pool in _RUN_CELLS.items()}
    rows = []
    for _ in range(draw(st.integers(0, 6))):
        name = draw(st.sampled_from(sorted(_RUN_CELLS)))
        if name in ("a", "lambda_", "mu_") and draw(st.booleans()):
            cells[name] = -cells[name]
        else:
            cells[name] = draw(_RUN_CELLS[name])
        for i in range(draw(st.sampled_from([1, 2, 21]))):
            check, lhs, rhs, margin, passed = own[i % len(own)]
            rows.append(Row(**cells, s=0.5, m=1.0, check=check, lhs=lhs, rhs=rhs,
                            margin=margin, passed=passed))
    poison = draw(st.sampled_from([None] * 5 + [math.nan, math.inf, -math.inf]))
    if rows and poison is not None:
        i = draw(st.integers(0, len(rows) - 1))
        rows[i] = replace(rows[i], **{draw(st.sampled_from(["a", "q", "mu_"])): poison})
    return RunReport(config=SMALL, instances=0, discarded=0, rows=rows, errata=[], wall_time=0.0)


def _csv_reference(report: RunReport) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    writer.writerows(harness._table(report.rows, harness._FIELDS, harness._CSV_CELLS))
    return out.getvalue()


def _instance_floats(row: Row) -> tuple:
    return row.a, row.b, row.s, row.m, row.q, row.lambda_, row.mu_


class TestReportRuns:
    """emit_report formats the instance cells once per run of rows and still
    writes the bytes of its reference definitions."""

    @staticmethod
    def assert_reference_bytes(report: RunReport, tmp_path) -> None:
        csv_path, json_path = tmp_path / "r.csv", tmp_path / "r.json"
        emit_report(report, "csv", str(csv_path))
        assert csv_path.read_bytes().decode("utf-8") == _csv_reference(report)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "datetime", _FixedClock)
            if all(math.isfinite(x) for row in report.rows for x in _instance_floats(row)):
                expected = json.dumps(
                    report_to_dict(report), indent=2, sort_keys=True, allow_nan=False
                ) + "\n"
                emit_report(report, "json", str(json_path))
                assert json_path.read_text(encoding="utf-8") == expected
            else:
                with pytest.raises(ValueError):
                    emit_report(report, "json", str(json_path))

    # Rows are read and written _CHUNK at a time.  Runs cross a drawn
    # chunk size here, so examples stay small enough to shrink quickly;
    # test_edge_runs_match_their_references crosses the module's own chunk.
    @given(report=_reports(), chunk=st.sampled_from([harness._CHUNK, 5, 16, 1]))
    def test_writers_match_their_references(self, report, chunk, tmp_path_factory):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(harness, "_CHUNK", chunk)
            self.assert_reference_bytes(report, tmp_path_factory.mktemp("runs"))

    def test_edge_runs_match_their_references(self, tmp_path):
        base = _one_row_report(lhs=1.0, rhs=-0.0, margin=math.inf, passed=True).rows[0]
        signs = (0.0, 0.0, -0.0, -0.0, 0.0)
        rows = [
            *(replace(base, a=x) for x in signs),
            *(replace(base, lambda_=x) for x in signs),
            *(replace(base, mu_=x) for x in signs),
            replace(base, instance_id=1), replace(base, instance_id=2),
            replace(base, instance_id=2, b=3.0),
            *(replace(base, instance_id=3, family='f,"%s"\n\u00e9',
                      check=f'c{i % 3},%d"\n\u03bb', lhs=float(i)) for i in range(600)),
        ]
        report = replace(_one_row_report(), rows=rows)
        assert 18 < harness._CHUNK < len(rows)  # the 600-row run crosses a chunk end
        self.assert_reference_bytes(report, tmp_path)
        self.assert_reference_bytes(replace(report, rows=[]), tmp_path)

    def test_csv_run_breaks_between_equal_cells_of_other_classes(self, tmp_path):
        base = _one_row_report(instance_id=1, lhs=1.0, rhs=2.0, margin=1.0, passed=True).rows[0]
        rows = [
            base, replace(base, instance_id=True), base,
            replace(base, a=Decimal("1.0")), replace(base, a=Decimal("1.00")),
        ]
        assert len({harness._run_key(row)[:9] for row in rows}) == 1  # all equal as values
        report = replace(_one_row_report(), rows=rows)
        emit_report(report, "csv", str(tmp_path / "r.csv"))
        assert (tmp_path / "r.csv").read_bytes().decode("utf-8") == _csv_reference(report)
        with pytest.raises(TypeError):  # float.__repr__ of a Decimal, as per row
            emit_report(report, "json", str(tmp_path / "r.json"))

    def test_instance_cells_formatted_once_per_run(self, monkeypatch, small_report, tmp_path):
        calls = Counter()

        def counting(name):
            fmt = getattr(harness, name)

            def counted(x):
                calls[name] += 1
                return fmt(x)

            return counted

        for name in ("_g17", "_json_float", "_json_float_or_null"):
            monkeypatch.setattr(harness, name, counting(name))
        rows = len(small_report.rows)
        runs = len(list(groupby(row.instance_id for row in small_report.rows)))
        assert runs == small_report.instances + 1  # the lock row is a run of its own
        emit_report(small_report, "csv", str(tmp_path / "r.csv"))
        assert calls == Counter(_g17=7 * runs + 3 * rows)
        calls.clear()
        emit_report(small_report, "json", str(tmp_path / "r.json"))
        assert calls == Counter(_json_float=7 * runs, _json_float_or_null=3 * rows)
