"""Command line behaviour: flags, environment seed, exit codes, formats."""

import json
import subprocess
import sys

import numpy as np
import pytest

from g2calc import suites
from g2calc.cli import build_parser, main
from support import package_env


def run_main(argv, capsysbinary):
    code = main(argv)
    return code, capsysbinary.readouterr().out


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args(["verify"])
        assert (args.seed, args.samples, args.format) == (0, 1000, "text")
        assert args.suites is None
        assert (args.tol_rel, args.tol_identity) == (1e-9, 1e-8)

    def test_repeatable_suite_flag(self):
        args = build_parser().parse_args(
            ["verify", "--suite", "torus", "--suite", "dhym"]
        )
        assert args.suites == ["torus", "dhym"]

    def test_unknown_suite_rejected_by_parser(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["verify", "--suite", "bogus"])

    def test_zero_tolerance_accepted(self):
        args = build_parser().parse_args(
            ["verify", "--tol-rel", "0", "--tol-identity", "0.0"]
        )
        assert (args.tol_rel, args.tol_identity) == (0.0, 0.0)

    @pytest.mark.parametrize("flag, value", [
        ("--samples", "0"),
        ("--samples", "-3"),
        ("--samples", "many"),
        ("--seed", "-1"),
        ("--seed", "x"),
        ("--tol-rel", "nan"),
        ("--tol-rel", "-1"),
        ("--tol-rel", "inf"),
        ("--tol-identity", "-inf"),
        ("--tol-identity", "NaN"),
        ("--tol-identity", "-1e-8"),
    ])
    def test_bad_value_is_a_usage_error(self, flag, value, capsys, monkeypatch):
        monkeypatch.delenv("G2CALC_SEED", raising=False)
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--suite", "propD1", f"{flag}={value}"])
        captured = capsys.readouterr()
        assert exit_info.value.code == 2
        assert captured.out == ""
        assert "usage:" in captured.err
        assert flag in captured.err


class TestMain:
    def test_passing_run_exits_zero(self, capsysbinary, monkeypatch):
        monkeypatch.delenv("G2CALC_SEED", raising=False)
        code, out = run_main(
            ["verify", "--samples", "6", "--suite", "propD1",
             "--suite", "appendixA", "--format", "json"],
            capsysbinary,
        )
        assert code == 0
        payload = json.loads(out)
        assert [r["suite"] for r in payload] == ["appendixA", "propD1"]
        assert all(r["failed"] == 0 for r in payload)

    def test_failing_tolerance_exits_one(self, capsysbinary, monkeypatch):
        monkeypatch.delenv("G2CALC_SEED", raising=False)
        code, out = run_main(
            ["verify", "--samples", "4", "--suite", "propD1",
             "--tol-rel", "1e-30"],
            capsysbinary,
        )
        assert code == 1
        assert b"overall: FAIL" in out

    def test_environment_seed_wins(self, capsysbinary, monkeypatch):
        monkeypatch.setenv("G2CALC_SEED", "123")
        code, out = run_main(
            ["verify", "--seed", "7", "--samples", "4", "--suite", "propD1"],
            capsysbinary,
        )
        assert code == 0
        assert out.splitlines()[0].startswith(b"campaign seed=123 ")

    def test_bad_environment_seed_reports_usage_error(self, capsysbinary,
                                                      monkeypatch):
        monkeypatch.setenv("G2CALC_SEED", "not-a-number")
        code = main(["verify", "--samples", "4", "--suite", "propD1"])
        captured = capsysbinary.readouterr()
        assert code == 2
        assert b"G2CALC_SEED" in captured.err

    def test_negative_environment_seed_reports_usage_error(self, capsysbinary,
                                                           monkeypatch):
        monkeypatch.setenv("G2CALC_SEED", "-5")
        code = main(["verify", "--samples", "4", "--suite", "propD1"])
        captured = capsysbinary.readouterr()
        assert code == 2
        assert captured.out == b""
        assert b"G2CALC_SEED must be a nonnegative integer" in captured.err

    def test_json_output_is_strict(self, capsysbinary, monkeypatch):
        # A NaN residual fails the run and is written as the string "NaN".
        monkeypatch.delenv("G2CALC_SEED", raising=False)
        monkeypatch.setattr(suites, "row_residual",
                            lambda lhs, rhs: np.full(np.shape(lhs)[:-1], np.nan))
        code, out = run_main(
            ["verify", "--samples", "2", "--suite", "propD1", "--format", "json"],
            capsysbinary,
        )

        def reject(name):
            raise ValueError(f"non-standard JSON constant {name}")

        payload = json.loads(out, parse_constant=reject)
        assert code == 1
        assert payload[0]["failed"] == 2
        assert payload[0]["worst_residual"] == "NaN"
        assert {w["residual"] for w in payload[0]["witnesses"]} == {"NaN"}

    @pytest.mark.parametrize("fmt", ["json", "text"])
    def test_timings_go_to_stderr_only(self, capsysbinary, monkeypatch, fmt):
        monkeypatch.delenv("G2CALC_SEED", raising=False)
        argv = ["verify", "--samples", "5", "--suite", "dhym", "--suite", "thmC1",
                "--suite", "propD1", "--format", fmt]
        assert main(argv) == 0
        plain = capsysbinary.readouterr()
        assert main(argv + ["--timings"]) == 0
        timed = capsysbinary.readouterr()
        assert timed.out == plain.out
        assert plain.err == b""
        lines = timed.err.decode().splitlines()
        assert [line.split()[1] for line in lines] == ["thmC1", "propD1", "dhym"]
        for line in lines:
            word, _, seconds, unit = line.split()
            assert word == "timing" and unit == "s"
            assert float(seconds) >= 0.0

    def test_text_output_is_deterministic(self, capsysbinary, monkeypatch):
        monkeypatch.delenv("G2CALC_SEED", raising=False)
        argv = ["verify", "--seed", "5", "--samples", "5", "--suite", "dhym"]
        _, first = run_main(argv, capsysbinary)
        _, second = run_main(argv, capsysbinary)
        assert first == second


class TestModuleInvocation:
    def test_python_dash_m_round_trip(self):
        proc = subprocess.run(
            [sys.executable, "-m", "g2calc", "verify", "--samples", "4",
             "--suite", "propD1", "--format", "json"],
            capture_output=True,
            check=False,
            env=package_env(),
        )
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert [r["suite"] for r in payload] == ["propD1"]
        assert payload[0]["failed"] == 0
