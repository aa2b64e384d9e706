"""Tests for the sdp-bench CLI."""

from __future__ import annotations

import os

import pytest

from repro.bench.cli import main
from repro.bench.experiments.common import clear_caches


@pytest.fixture(autouse=True)
def _fresh(monkeypatch):
    clear_caches()
    monkeypatch.setenv("REPRO_BENCH_INSTANCES", "1")
    monkeypatch.setenv("REPRO_BENCH_HEAVY_INSTANCES", "1")
    monkeypatch.setenv("REPRO_BENCH_MAX_SECONDS", "10")
    yield
    clear_caches()


def test_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "table-1.1" in out and "figure-2.2" in out


def test_unknown_experiment(capsys):
    assert main(["table-9.9"]) == 2
    assert "unknown experiment" in capsys.readouterr().err


def test_single_experiment(capsys):
    assert main(["table-2.2"]) == 0
    out = capsys.readouterr().out
    assert "matches the paper" in out
    assert "done in" in out


def test_flag_overrides(capsys):
    code = main(["table-2.2", "--instances", "1", "--seed", "5"])
    assert code == 0


def test_experiment_with_comparison(capsys):
    assert main(["figure-2.2"]) == 0
    out = capsys.readouterr().out
    assert "Survivors" in out


def test_robust_report_smoke(capsys):
    assert main(["robust-report", "--instances", "2"]) == 0
    out = capsys.readouterr().out
    assert "budget-exceeded" in out
    assert "Fallbacks" in out
    assert "Degraded winners" in out


def test_robust_flag_accepted(capsys):
    assert main(["table-2.2", "--robust"]) == 0
    assert "done in" in capsys.readouterr().out


def test_output_directory(tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert main(["table-2.2", "--output", str(out_dir)]) == 0
    written = out_dir / "table-2.2.txt"
    assert written.exists()
    assert "matches the paper" in written.read_text()


def test_workers_flag_keeps_report_identical(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    reports = []
    for workers in ("1", "2"):
        clear_caches()
        out_dir = tmp_path / f"workers-{workers}"
        argv = ["table-1.1", "--instances", "2", "--workers", workers]
        assert main([*argv, "--output", str(out_dir)]) == 0
        reports.append((out_dir / "table-1.1.txt").read_bytes())
    assert reports[0] == reports[1]
