"""Tests for the kdd-repro CLI (run / simulate / trace file loading)."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.harness.cli import main as cli_main
from repro.traces import uniform_workload, write_spc


class TestSimulateCommand:
    def test_simulate_named_workload(self, capsys):
        rc = cli_main([
            "simulate", "kdd", "--workload", "Fin2", "--scale", "0.002",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "kdd" in out and "hit_ratio" in out

    def test_simulate_all_policies(self, capsys):
        for policy in ("nossd", "wa", "wt", "wb", "leavo", "kdd",
                       "dedup-wt", "mwb", "owb", "jwb"):
            rc = cli_main([
                "simulate", policy, "--workload", "Fin2", "--scale", "0.001",
            ])
            assert rc == 0, policy

    def test_simulate_explicit_cache_pages(self, capsys):
        rc = cli_main([
            "simulate", "wt", "--workload", "Fin2", "--scale", "0.001",
            "--cache-pages", "128",
        ])
        assert rc == 0
        assert "128" in capsys.readouterr().out

    def test_simulate_with_admission(self, capsys):
        rc = cli_main([
            "simulate", "wt", "--workload", "Fin2", "--scale", "0.001",
            "--admission", "larc",
        ])
        assert rc == 0

    def test_simulate_spc_file(self, tmp_path, capsys):
        tr = uniform_workload(200, 300, read_ratio=0.5, seed=1)
        spc = tmp_path / "mini.spc"
        write_spc(tr, spc)
        rc = cli_main(["simulate", "wt", "--workload", str(spc)])
        assert rc == 0

    def test_simulate_unknown_workload(self, capsys):
        assert cli_main(["simulate", "wt", "--workload", "nope.bin"]) == 2
        assert "kdd-repro simulate: unknown workload 'nope.bin'" in \
            capsys.readouterr().err

    def test_simulate_unknown_policy_exits_2(self, capsys):
        rc = cli_main(["simulate", "bogus", "--workload", "Fin2",
                       "--scale", "0.001"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("kdd-repro simulate: unknown policy 'bogus'")
        assert "Traceback" not in err

    def test_simulate_bad_cache_size_exits_2(self, capsys):
        for flag, value, message in (
            ("--cache-pages", "0", "cache_pages must be >= 1"),
            ("--cache-fraction", "0", "--cache-fraction must be positive"),
            ("--cache-fraction", "-1", "--cache-fraction must be positive"),
            ("--cache-fraction", "inf", "--cache-fraction must be positive"),
        ):
            rc = cli_main(["simulate", "wt", "--workload", "Fin2",
                           "--scale", "0.001", flag, value])
            assert rc == 2, (flag, value)
            assert capsys.readouterr().err.startswith(
                f"kdd-repro simulate: {message}"), (flag, value)

    def test_simulate_negative_seed_exits_2(self, capsys):
        assert cli_main(["simulate", "kdd", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == \
            "kdd-repro simulate: seed must be >= 0, got -1\n"

    def test_simulate_compression_flag(self, capsys):
        rc = cli_main([
            "simulate", "kdd", "--workload", "Fin2", "--scale", "0.001",
            "--compression", "0.12",
        ])
        assert rc == 0


class TestRunCommand:
    def test_run_multiple_figures(self, capsys):
        rc = cli_main(["run", "table1", "--scale", "0.001"])
        assert rc == 0

    def test_seed_flag_accepted(self, capsys):
        rc = cli_main(["run", "table1", "--scale", "0.001", "--seed", "7"])
        assert rc == 0

    def test_negative_scale_exits_2(self, capsys):
        for figure in ("fig5", "table1", "all"):
            for scale in ("-1", "0", "nan", "inf"):
                assert cli_main(["run", figure, "--scale", scale]) == 2
                err = capsys.readouterr().err
                assert err.startswith(
                    "kdd-repro run: scale factor must be positive"), \
                    (figure, scale, err)
        assert cli_main(["simulate", "wt", "--scale", "nan"]) == 2
        assert capsys.readouterr().err.startswith(
            "kdd-repro simulate: scale factor must be positive")

    def test_negative_seed_exits_2(self, capsys):
        rc = cli_main(["run", "fig5", "--seed", "-1", "--scale", "0.001"])
        assert rc == 2
        assert capsys.readouterr().err == \
            "kdd-repro run: seed must be >= 0, got -1\n"

    def test_bench_is_not_a_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    def test_unknown_figure_exits_2(self, capsys):
        assert cli_main(["run", "fig99"]) == 2
        assert "kdd-repro run: unknown figures: ['fig99']" in \
            capsys.readouterr().err

    def test_errors_exit_2_without_traceback_in_a_subprocess(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.harness.cli", "run", "table1",
             "--jobs", "0"],
            capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == "kdd-repro run: jobs must be >= 1, got 0\n"


class TestServeCommand:
    _SMALL = [
        "serve", "--tenants", "2", "--cache-pages", "256",
        "--universe-pages", "256", "--base-iops", "10", "--duration", "120",
        "--realloc-period", "500", "--min-fraction", "0.05",
    ]

    def test_serve_compares_static_and_dynamic(self, capsys):
        rc = cli_main(self._SMALL)
        assert rc == 0
        out = capsys.readouterr().out
        assert "static" in out and "dynamic" in out
        assert "fairness_jain" in out

    def test_serve_per_tenant_tables(self, capsys):
        rc = cli_main(self._SMALL + ["--per-tenant"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "per-tenant" in out
        assert "quota_pages" in out

    def test_serve_report_out(self, tmp_path, capsys):
        import json

        report = tmp_path / "serve.json"
        rc = cli_main(self._SMALL + ["--report-out", str(report)])
        assert rc == 0
        rows = json.loads(report.read_text())
        assert {row["plan"] for row in rows} == {"static", "dynamic"}
        assert all(row["per_tenant"] for row in rows)

    def test_serve_rejects_unknown_plan(self, capsys):
        assert cli_main(["serve", "--plans", "static,bogus"]) == 2
        assert "kdd-repro serve: unknown plans ['bogus']" in \
            capsys.readouterr().err


class TestSweepCommandInputs:
    @pytest.mark.parametrize("argv", [
        ["run", "table1"], ["faults"], ["reliability"], ["serve"],
    ])
    def test_every_sweep_command_rejects_zero_jobs(self, capsys, argv):
        assert cli_main([*argv, "--jobs", "0"]) == 2
        assert capsys.readouterr().err == \
            f"kdd-repro {argv[0]}: jobs must be >= 1, got 0\n"

    @pytest.mark.parametrize("argv, message", [
        (["faults", "--universe-pages", "0"],
         "kdd-repro faults: universe_pages must be >= 1, got 0\n"),
        (["faults", "--requests", "-5"],
         "kdd-repro faults: n_requests must be >= 1, got -5\n"),
        (["faults", "--requests", "0"],
         "kdd-repro faults: n_requests must be >= 1, got 0\n"),
        (["reliability", "--universe-pages", "0"],
         "kdd-repro reliability: universe_pages must be >= 1, got 0\n"),
        (["reliability", "--universe-pages", "-4"],
         "kdd-repro reliability: universe_pages must be >= 1, got -4\n"),
    ], ids=["faults-universe-0", "faults-requests-neg", "faults-requests-0",
            "reliability-universe-0", "reliability-universe-neg"])
    def test_empty_workload_sizes_exit_2(self, capsys, argv, message):
        assert cli_main(argv) == 2
        assert capsys.readouterr().err == message


class TestNonFiniteInputs:
    """Non-finite and fractional inputs exit 2 with one line."""

    _RELIABILITY = [
        "reliability", "--accesses", "60", "--universe-pages", "32",
        "--trials", "20", "--scrub-periods", "0", "--dirty-thresholds",
        "0.5", "--rebuild-priorities", "1",
    ]

    @pytest.mark.parametrize("flag, value, message", [
        ("--iops", "inf", "iops must be > 0 and finite, got inf"),
        ("--iops", "nan", "iops must be > 0 and finite, got nan"),
        ("--rebuild-priorities", "nan",
         "rebuild_priority must be > 0 and finite, got nan"),
        ("--rebuild-priorities", "inf",
         "rebuild_priority must be > 0 and finite, got inf"),
        ("--scrub-periods", "0.5",
         "--scrub-periods must be whole numbers of accesses, got [0.5]"),
    ], ids=["iops-inf", "iops-nan", "priority-nan", "priority-inf",
            "scrub-fractional"])
    def test_reliability(self, capsys, flag, value, message):
        assert cli_main([*self._RELIABILITY, flag, value]) == 2
        assert capsys.readouterr().err == \
            f"kdd-repro reliability: {message}\n"

    @pytest.mark.parametrize("flag, message", [
        ("--duration", "WorkloadComposer.compose: duration_s must be "
                       "positive and finite, got inf"),
        ("--epoch", "WorkloadComposer.epoch_s must be positive and "
                    "finite, got inf"),
    ], ids=["duration", "epoch"])
    def test_serve_infinite_times(self, capsys, flag, message):
        assert cli_main([*TestServeCommand._SMALL, flag, "inf"]) == 2
        assert capsys.readouterr().err == f"kdd-repro serve: {message}\n"

    def test_serve_epoch_count_capped(self, capsys):
        assert cli_main([*TestServeCommand._SMALL, "--epoch", "1e-7"]) == 2
        assert capsys.readouterr().err == (
            "kdd-repro serve: WorkloadComposer.compose: duration_s=120.0 at "
            "epoch_s=1e-07 spans 1.2e+09 epochs, more than the cap of "
            "1000000\n")

    def test_non_finite_trace_time(self, tmp_path, capsys):
        spc = tmp_path / "nan.spc"
        spc.write_text("0,0,4096,r,0\n0,8,4096,w,nan\n0,16,4096,r,1\n")
        assert cli_main(["simulate", "wt", "--workload", str(spc),
                         "--cache-pages", "4"]) == 2
        assert capsys.readouterr().err == (
            "kdd-repro simulate: record 1 has a non-finite arrival time nan\n")

    @pytest.mark.parametrize("suffix", [".spc", ".csv"])
    def test_missing_trace_file(self, tmp_path, capsys, suffix):
        missing = tmp_path / f"missing{suffix}"
        assert cli_main(["simulate", "wt", "--workload", str(missing)]) == 2
        assert capsys.readouterr().err == (
            f"kdd-repro simulate: cannot read trace {missing}: "
            "No such file or directory\n")
