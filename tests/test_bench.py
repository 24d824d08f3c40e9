"""Unit tests for the benchmark harness (no timed simulation runs)."""

from __future__ import annotations

import json

import pytest

from repro.errors import ConfigError
from repro.harness.bench import (
    BENCH_FIGURES,
    _cell,
    _checksum,
    _FIG_GRIDS,
    compare_reports,
    load_report,
    run_benches,
    write_report,
)


def _report(fig="fig4", wall_s=1.0, checksum="sha256:aa", engine=None):
    out = {
        "figure": fig,
        "kind": "trace",
        "scale": 0.004,
        "cells": 4,
        "ops": 1000,
        "wall_s": wall_s,
        "ops_per_s": round(1000 / wall_s),
        "row_checksum": checksum,
    }
    if engine is not None:
        out["engine"] = engine
    return out


def test_compare_clean():
    assert compare_reports(_report(), _report()) == []


def test_compare_checksum_drift_is_flagged():
    problems = compare_reports(_report(), _report(checksum="sha256:bb"))
    assert len(problems) == 1
    assert "rows changed" in problems[0]


def test_compare_does_not_gate_wall_time():
    # speed belongs to benchmarks/e2e; a 10x slower run is not drift
    assert compare_reports(_report(wall_s=1.0), _report(wall_s=10.0)) == []


def test_compare_speedup_improvement_is_clean():
    assert compare_reports(_report(wall_s=1.0), _report(wall_s=0.1)) == []


def test_compare_engine_checksum():
    old = _report(engine={"row_checksum": "sha256:e1"})
    new = _report(engine={"row_checksum": "sha256:e2"})
    assert any("engine-bench rows changed" in p
               for p in compare_reports(old, new))
    assert compare_reports(old, old) == []


def test_report_roundtrip(tmp_path):
    report = _report()
    path = write_report(report, tmp_path)
    assert path.name == "BENCH_fig4.json"
    assert load_report("fig4", tmp_path) == report
    assert load_report("fig9", tmp_path) is None
    # file is valid, newline-terminated JSON (committable baseline)
    text = path.read_text()
    assert text.endswith("\n")
    assert json.loads(text) == report


def test_load_report_corrupt_baseline_is_config_error(tmp_path):
    path = tmp_path / "BENCH_fig4.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match=r"unreadable bench baseline .*BENCH_fig4\.json"):
        load_report("fig4", tmp_path)


def test_run_benches_rejects_unknown_figure(tmp_path):
    with pytest.raises(ConfigError, match="unknown bench figures"):
        run_benches(["fig99"], out_dir=tmp_path)


def test_run_benches_check_requires_baselines_up_front(tmp_path):
    # No baseline committed: --check must refuse before benching,
    # naming every missing file.
    with pytest.raises(ConfigError, match=r"missing: .*BENCH_fig4\.json"):
        run_benches(["fig4"], out_dir=tmp_path, check_only=True)


def test_kdd_variant_cells_map_to_kdd():
    cell = _cell("kdd-25", "Fin1", 128)
    assert cell.policy == "kdd"
    assert cell.label == "kdd-25"
    assert dict(cell.config)["mean_compression"] == 0.25
    assert dict(cell.config)["seed"] == 0


def test_grids_cover_every_trace_figure():
    for fig in BENCH_FIGURES:
        if fig not in _FIG_GRIDS:  # engine-only / robustness benches
            continue
        cells = _FIG_GRIDS[fig](0.004)
        assert cells, fig
        # every cell resolves to a registered policy with a pinned seed
        for cell in cells:
            assert "seed" in dict(cell.config)


def test_checksum_is_order_sensitive_and_stable():
    rows = [{"policy": "wt", "hit_ratio": 0.5}, {"policy": "kdd"}]
    assert _checksum(rows) == _checksum([dict(r) for r in rows])
    assert _checksum(rows) != _checksum(rows[::-1])


def test_compare_serve_report_is_checksum_gated_only():
    old = {"figure": "serve", "kind": "serve", "row_checksum": "sha256:aa"}
    assert compare_reports(old, dict(old)) == []
    drift = dict(old, row_checksum="sha256:bb")
    assert any("rows changed" in p for p in compare_reports(old, drift))


def test_cli_bench_subcommand_wiring(tmp_path, capsys, monkeypatch):
    from repro.harness import bench, cli

    def fake_bench_figure(fig, scale=bench.BENCH_SCALE):
        return _report(fig=fig, wall_s=2.0, checksum="sha256:cc")

    monkeypatch.setattr(bench, "bench_figure", fake_bench_figure)
    rc = cli.main(["bench", "fig4", "--out-dir", str(tmp_path)])
    assert rc == 0
    assert load_report("fig4", tmp_path)["wall_s"] == 2.0
    # --check against the baseline just written: clean
    assert cli.main(["bench", "fig4", "--out-dir", str(tmp_path),
                     "--check"]) == 0
    # --check with a missing baseline is a configuration error naming
    # the absent file (exit 2, no bare traceback)
    rc = cli.main(["bench", "fig5", "--out-dir", str(tmp_path), "--check"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "kdd-repro bench:" in err
    assert f"{tmp_path}/BENCH_fig5.json" in err
    # --check --artifact-dir writes the fresh report without touching
    # the baseline directory
    artifacts = tmp_path / "out"
    assert cli.main(["bench", "fig4", "--out-dir", str(tmp_path), "--check",
                     "--artifact-dir", str(artifacts)]) == 0
    assert load_report("fig4", artifacts) is not None
    assert load_report("fig5", tmp_path) is None
