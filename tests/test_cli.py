"""CLI subcommands, exit codes, and console entry point."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

import harmonia
from harmonia import cli
from harmonia.cli import main

IDENTITY_ARGS = ["--f", "linear", "--a", "1", "--b", "2", "--lambda", "0.5", "--mu", "0.5"]
SQUARE_INST = ["--f", "power:c=1,p=2", "--a", "1", "--b", "2",
               "--s", "1", "--m", "1", "--q", "2"]
ROOT = Path(__file__).resolve().parents[1]
PYPROJECT = ROOT / "pyproject.toml"


def _run(cmd: list[str]) -> subprocess.CompletedProcess:
    """Run cmd in a child process that imports harmonia from this checkout."""
    path = [str(ROOT / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    return subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=120)


def _project() -> dict:
    """The ``[project]`` table of pyproject.toml."""
    if sys.version_info >= (3, 11):
        import tomllib
    else:
        tomllib = pytest.importorskip("tomli")
    with PYPROJECT.open("rb") as fh:
        return tomllib.load(fh)["project"]


def _console_entry(name: str) -> str:
    """The ``[project.scripts]`` entry ``name`` declared in pyproject.toml."""
    return _project()["scripts"][name]


class TestCheckConvexity:
    def test_holding_claim_exits_zero(self, capsys):
        rc = main([
            "check-convexity", "--f", "power:c=1,p=2",
            "--s", "1", "--m", "1", "--lo", "1", "--hi", "3",
        ])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "worst defect" in out

    def test_failing_claim_exits_one_with_witness(self, capsys):
        rc = main([
            "check-convexity", "--f", "power:c=-1,p=1",
            "--s", "1", "--m", "1", "--lo", "1", "--hi", "2",
        ])
        out = capsys.readouterr().out
        assert rc == 1
        assert "FAIL" in out
        assert "x=" in out and "t=" in out

    def test_custom_grid(self, capsys):
        rc = main([
            "check-convexity", "--f", "linear",
            "--s", "0.5", "--m", "1", "--lo", "1", "--hi", "2",
            "--grid", "11,11,7",
        ])
        assert rc == 0
        assert "11x11x7" in capsys.readouterr().out

    def test_bad_grid_is_usage_error(self, capsys):
        rc = main([
            "check-convexity", "--f", "linear",
            "--s", "1", "--m", "1", "--lo", "1", "--hi", "2",
            "--grid", "11,11",
        ])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_non_integer_grid_is_usage_error(self, capsys):
        rc = main([
            "check-convexity", "--f", "linear",
            "--s", "1", "--m", "1", "--lo", "1", "--hi", "2",
            "--grid", "4,4,x",
        ])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: --grid")

    def test_bad_spec_is_usage_error(self, capsys):
        rc = main([
            "check-convexity", "--f", "warp:9",
            "--s", "1", "--m", "1", "--lo", "1", "--hi", "2",
        ])
        assert rc == 2


class TestVerifyIdentity:
    def test_corrected_identity_passes(self, capsys):
        rc = main(["verify-identity", *IDENTITY_ARGS])
        out = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in out
        assert "kernel representation" in out

    def test_printed_variant_fails(self, capsys):
        rc = main(["verify-identity", *IDENTITY_ARGS, "--printed"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "known erratum" in out

    @pytest.mark.parametrize("printed, code, expected", [
        (False, 0, [
            "rule deviation        0.1137056389",
            "kernel representation 0.1137056389",
            "|difference|          2.636780e-16  (tol 1e-08)",
            "PASS",
        ]),
        (True, 1, [
            "as-printed deviation  -1.272588722",
            "kernel representation 0.1137056389",
            "|difference|          1.386294e+00  (tol 1e-08)",
            "FAIL: printed display does not satisfy the identity (known erratum)",
        ]),
    ])
    def test_stdout_is_pinned(self, capsys, printed, code, expected):
        # Both forms share one print block; their text must not drift.
        rc = main(["verify-identity", *IDENTITY_ARGS, *(["--printed"] if printed else [])])
        assert rc == code
        assert capsys.readouterr().out.splitlines() == expected

    def test_tol_is_not_an_option(self, capsys):
        # The identity is judged at IDENTITY_TOL alone; --tol is a usage error.
        with pytest.raises(SystemExit) as exc:
            main(["verify-identity", *IDENTITY_ARGS, "--tol", "1"])
        assert exc.value.code == 2
        assert "--tol" in capsys.readouterr().err

    def test_invalid_interval_is_usage_error(self, capsys):
        rc = main(["verify-identity", "--f", "linear", "--a", "2", "--b", "1",
                   "--lambda", "0.5", "--mu", "0.5"])
        assert rc == 2


class TestVerifyBounds:
    def test_preset_triple_passes(self, capsys):
        rc = main(["verify-bounds", "--theorem", "1", *SQUARE_INST,
                   "--preset", "trapezoid"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "margin" in out and "PASS" in out

    def test_explicit_triple_passes(self, capsys):
        rc = main(["verify-bounds", "--theorem", "2", *SQUARE_INST,
                   "--lambda", "0.75", "--mu", "0.25"])
        assert rc == 0

    def test_preset_and_triple_conflict(self, capsys):
        rc = main(["verify-bounds", "--theorem", "1", *SQUARE_INST,
                   "--preset", "simpson", "--lambda", "0.75", "--mu", "0.25"])
        assert rc == 2
        assert "not both" in capsys.readouterr().err

    def test_missing_triple(self, capsys):
        rc = main(["verify-bounds", "--theorem", "1", *SQUARE_INST])
        assert rc == 2

    def test_overflow_is_one_numeric_failure_line(self):
        # |f'|^q overflows at q = 1000: exit 1 with no numpy warning on stderr.
        proc = _run([sys.executable, "-m", "harmonia.cli", "verify-bounds", "--theorem", "1",
                     "--f", "power:c=1,p=2", "--a", "3", "--b", "4", "--s", "1", "--m", "1",
                     "--q", "1000", "--preset", "trapezoid"])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("numeric failure: ")

    def test_uncertified_hypothesis_rejected(self, capsys):
        # sqrt family: |f'|^q lies outside the class at s=1
        rc = main(["verify-bounds", "--theorem", "1",
                   "--f", "spower:b=1,s=0.5,c=0", "--a", "1", "--b", "2",
                   "--s", "1", "--m", "1", "--q", "1", "--preset", "midpoint"])
        assert rc == 2
        assert "error" in capsys.readouterr().err


class TestCrosscheck:
    ARGS = ["--a", "1", "--b", "2", "--s", "0.5", "--m", "0.75", "--q", "2",
            "--lambda", "0.75", "--mu", "0.25"]

    def test_all_indices_pass_with_expected_errata(self, capsys):
        rc = main(["crosscheck", "--index", "all", *self.ARGS])
        out = capsys.readouterr().out
        assert rc == 0
        assert "erratum_suspected (expected)" in out
        assert "(UNEXPECTED)" not in out
        assert "PASS" in out
        for index in range(1, 13):
            assert f"B{index:<2}" in out

    def test_single_index(self, capsys):
        rc = main(["crosscheck", "--index", "1", *self.ARGS])
        out = capsys.readouterr().out
        assert rc == 0
        assert "B1" in out and "B2" not in out

    def test_q_one_skips_conjugate_moments(self, capsys):
        rc = main(["crosscheck", "--index", "all", "--a", "1", "--b", "2",
                   "--s", "0.5", "--m", "0.75", "--q", "1",
                   "--lambda", "0.75", "--mu", "0.25"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("skipped") == 2  # B7 and B10

    def test_explicit_conjugate_index_at_q_one_errors(self, capsys):
        rc = main(["crosscheck", "--index", "7", "--a", "1", "--b", "2",
                   "--s", "0.5", "--m", "0.75", "--q", "1",
                   "--lambda", "0.75", "--mu", "0.25"])
        assert rc == 2
        assert "conjugate" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0", "13", "B2", "first"])
    def test_bad_index_is_usage_error(self, bad, capsys):
        rc = main(["crosscheck", "--index", bad, *self.ARGS])
        assert rc == 2

    def test_large_q_near_one_is_judged(self, capsys):
        # At b/a = 1e4, q = 8 the Gauss series of B3, B5, B6, B9 and B11 needed
        # more than 500,000 terms, so those rows were oracle_only; the
        # connection formulas near z = 1 judge every one of them.
        rc = main(["crosscheck", "--index", "all", "--a", "0.001", "--b", "10",
                   "--s", "0.5", "--m", "1", "--q", "8", "--lambda", "0.8", "--mu", "0.3"])
        out = capsys.readouterr().out
        lines = {line.split()[0]: line for line in out.splitlines()}
        assert "oracle_only" not in out
        assert "ill_conditioned" in lines["B11"]
        assert "PASS" in out and rc == 0

    def test_argument_that_rounds_to_one_fails_the_row(self, capsys):
        # At b/a = 1e17, zeta = 1 - a/b rounds to 1.0: the closed forms that
        # read it are oracle_only and the command fails, without aborting.
        rc = main(["crosscheck", "--a", "1e-17", "--b", "1", "--s", "0.5", "--m", "1",
                   "--q", "1", "--lambda", "0.8", "--mu", "0.3"])
        captured = capsys.readouterr()
        lines = {line.split()[0]: line for line in captured.out.splitlines()}
        assert "oracle_only" in lines["B11"] and "B12" in lines
        assert "FAIL" in captured.out and "error:" not in captured.err
        assert rc == 1

    @pytest.mark.parametrize("index", ["5", "6", "11"])
    def test_closed_form_that_is_not_finite_fails(self, index, capsys):
        # The printed form overflows to inf or nan here; it is oracle_only,
        # never an erratum verdict or an ill_conditioned pass.
        rc = main(["crosscheck", "--index", index, "--a", "0.01", "--b", "0.05",
                   "--s", "0.25", "--m", "1", "--q", "100", "--lambda", "0.8", "--mu", "0.3"])
        out = capsys.readouterr().out
        assert "oracle_only" in out and "closed ---" in out
        assert "FAIL" in out and "PASS" not in out
        assert rc == 1

    def test_cancellation_is_ill_conditioned_not_an_erratum(self):
        # b/a = 1e4: the printed B11 (correct, per 50-digit mpmath) cancels
        # its terms by ~1e16, so its gap to the oracle is rounding, not a misprint.
        proc = _run([sys.executable, "-m", "harmonia.cli", "crosscheck", "--a", "0.01",
                     "--b", "100", "--s", "0.5", "--m", "1", "--q", "3",
                     "--lambda", "0.8", "--mu", "0.3"])
        lines = {line.split()[0]: line for line in proc.stdout.splitlines()}
        assert "ill_conditioned" in lines["B11"] and "error bound" in lines["B11"]
        assert "erratum_suspected (expected)" in lines["B12"]
        assert "(UNEXPECTED)" not in proc.stdout
        assert proc.returncode == 0, proc.stdout + proc.stderr

    def test_tiny_conjugate_moments_are_not_errata(self, capsys):
        # At q = 1.05 the weight |c - t|^p has p = 21 and B7 = B10 = 5.2e-15;
        # an oracle that stopped on an absolute tolerance was 3.4e-6 off here.
        rc = main(["crosscheck", "--a", "0.02", "--b", "30", "--s", "0.5", "--m", "1",
                   "--q", "1.05", "--lambda", "0.75", "--mu", "0.25"])
        out = capsys.readouterr().out
        lines = {line.split()[0]: line for line in out.splitlines()}
        assert lines["B7"].endswith(" ok") and lines["B10"].endswith(" ok"), out
        assert "(UNEXPECTED)" not in out
        assert rc == 0

    def test_oracle_overflow_is_numeric_failure(self, capsys):
        rc = main(["crosscheck", "--a", "1", "--b", "2", "--s", "0.5", "--m", "1",
                   "--q", "1000", "--lambda", "0.8", "--mu", "0.3"])
        assert rc == 1
        assert capsys.readouterr().err.startswith("numeric failure:")


class TestSweep:
    CONFIG = {
        "samples": 3,
        "rng_seed": 11,
        "families": ["power:c=1,p=2"],
        "q_values": [1.0, 2.0],
    }

    def write_config(self, tmp_path, data=None):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(data or self.CONFIG), encoding="utf-8")
        return path

    def test_sweep_writes_report(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "report.json"
        rc = main(["sweep", "--config", str(cfg), "--out", str(out),
                   "--format", "json"])
        stdout = capsys.readouterr().out
        assert rc == 0
        assert "PASS" in stdout
        doc = json.loads(out.read_text(encoding="utf-8"))
        assert doc["schema"] == "harmonia/v1"
        assert doc["summary"]["instances"] == 3

    def test_sweep_csv_reproducible(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(first),
                     "--format", "csv"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(second),
                     "--format", "csv"]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        base = tmp_path / "base.csv"
        reseeded = tmp_path / "reseeded.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(base),
                     "--format", "csv"]) == 0
        assert main(["sweep", "--config", str(cfg), "--out", str(reseeded),
                     "--format", "csv", "--seed", "77"]) == 0
        capsys.readouterr()
        assert base.read_bytes() != reseeded.read_bytes()

    def test_unknown_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path, {"samples": 2, "smaples": 3})
        rc = main(["sweep", "--config", str(cfg), "--out",
                   str(tmp_path / "r.csv"), "--format", "csv"])
        assert rc == 2
        assert "smaples" in capsys.readouterr().err

    def test_jobs_in_config_is_usage_error(self, tmp_path, capsys):
        # Parallelism is the --jobs flag's alone; a config names what to sample.
        cfg = self.write_config(tmp_path, {**self.CONFIG, "jobs": 2})
        rc = main(["sweep", "--config", str(cfg), "--out",
                   str(tmp_path / "r.csv"), "--format", "csv"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: unknown config keys: ['jobs']")

    def test_malformed_json_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["sweep", "--config", str(path), "--out",
                   str(tmp_path / "r.csv"), "--format", "csv"])
        assert rc == 2

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_bad_jobs_flag_is_usage_error(self, tmp_path, jobs):
        cfg = self.write_config(tmp_path)
        proc = _run(
            [sys.executable, "-m", "harmonia.cli", "sweep", "--config", str(cfg),
             "--out", str(tmp_path / "r.csv"), "--format", "csv", "--jobs", jobs],
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: jobs must be")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize(
        "data, extra",
        [
            ({"identity_tol": "abc"}, []),
            ({"a_range": ["x", 1]}, []),
            ({"s_values": [None]}, []),
            ({"quad": {"max_subdivisions": "x"}}, []),
            ({"lambda_mu": ["x", 0.2]}, []),
            ({"rng_seed": [1]}, []),
            ({"samples": True, "families": ["linear"]}, []),
            ({"jobs": True}, []),
            ({"rng_seed": False}, []),
            ({"quad": {"max_subdivisions": 2.7}}, []),
            ([1, 2], ["--seed", "5"]),
            ({"identity_tol": True}, []),
            ({"s_values": [True]}, []),
            ({"margin_tol": "1e-9"}, []),
            ({"families": "linear"}, []),
        ],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, data, extra):
        cfg = self.write_config(tmp_path, data)
        proc = _run(
            [sys.executable, "-m", "harmonia.cli", "sweep", "--config", str(cfg),
             "--out", str(tmp_path / "r.csv"), "--format", "csv", *extra],
        )
        assert proc.returncode == 2
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_overflowing_sweep_exits_one_without_traceback(self, tmp_path):
        data = {"samples": 3, "q_values": [400.0], "families": ["linear"],
                "a_range": [1.5, 2.0]}
        proc = _run(
            [sys.executable, "-m", "harmonia.cli", "sweep", "--config",
             str(self.write_config(tmp_path, data)), "--out", str(tmp_path / "r.csv"),
             "--format", "csv", "--jobs", "1"],
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("numeric failure:")
        assert "Traceback" not in proc.stderr

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        rc = main(["sweep", "--config", str(tmp_path / "absent.json"),
                   "--out", str(tmp_path / "r.csv"), "--format", "csv"])
        assert rc == 2

    def test_missing_out_directory_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called although --out cannot be written")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        cfg = self.write_config(tmp_path)
        rc = main(["sweep", "--config", str(cfg),
                   "--out", str(tmp_path / "missing_dir" / "r.json"), "--format", "json"])
        assert rc == 2
        assert "--out" in capsys.readouterr().err

    def test_out_directory_fails_before_the_sweep(self, tmp_path, monkeypatch, capsys):
        def no_sweep(*args, **kwargs):
            raise AssertionError("run_sweep called although --out is a directory")

        monkeypatch.setattr(cli, "run_sweep", no_sweep)
        cfg = self.write_config(tmp_path)
        (tmp_path / "outdir").mkdir()
        rc = main(["sweep", "--config", str(cfg),
                   "--out", str(tmp_path / "outdir"), "--format", "csv"])
        assert rc == 2
        assert "--out" in capsys.readouterr().err


class TestArgparseBehavior:
    def test_missing_subcommand_is_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_subcommand_is_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_theorem_choice_is_usage_exit(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify-bounds", "--theorem", "3", *SQUARE_INST,
                  "--preset", "simpson"])
        assert exc.value.code == 2


class TestConsoleScript:
    def test_entry_point_runs(self):
        proc = _run([sys.executable, "-m", "harmonia.cli", "verify-identity", *IDENTITY_ARGS])
        assert proc.returncode == 0
        assert "PASS" in proc.stdout

    def test_installed_script_help(self):
        # Start the declared entry point the way the generated wrapper does,
        # through this interpreter, so no install or PATH entry is needed.
        module, _, attr = _console_entry("harmonia").partition(":")
        launcher = f"import sys; from {module} import {attr}; sys.exit({attr}())"
        commands = [[sys.executable, "-c", launcher, "--help"]]
        # After an install, also run the generated wrapper itself.
        script = shutil.which("harmonia", path=sysconfig.get_path("scripts"))
        if script is not None:
            commands.append([script, "--help"])
        for cmd in commands:
            proc = _run(cmd)
            assert proc.returncode == 0, proc.stderr
            assert "check-convexity" in proc.stdout
            assert "sweep" in proc.stdout


class TestPackageMetadata:
    def test_version_matches_pyproject(self):
        assert harmonia.__version__ == _project()["version"]

    def test_test_extra_declares_the_referee(self):
        # The 40- and 50-digit referee tests import mpmath; an installed test
        # environment must have it rather than skip them.
        extra = _project()["optional-dependencies"]["test"]
        assert any(req.split(">")[0].strip() == "mpmath" for req in extra)
