"""Convergence studies and the oracle check."""

from __future__ import annotations

import csv
import importlib
import importlib.util
import json
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ddmech import cli, data
from ddmech.experiments import (
    default_study_config,
    oracle_check,
    run_convergence_study,
    study_mesh,
    weighted_l2_error,
)
from ddmech.phase import GlobalMetric
from ddmech.solver import Trajectory
from ddmech.truss import LatticeSpec

TOOLS = Path(__file__).resolve().parents[1] / "tools"


def _trajectory(times, strain, gm):
    """A one-bar trajectory with zero stress and no solver diagnostics."""
    t, m = strain.shape
    zeros = np.zeros((t, m))
    return Trajectory(
        times, strain, zeros, zeros.astype(int), np.zeros(t), np.zeros(t),
        np.ones(t, dtype=bool), np.zeros(t), np.zeros((t, 1)), zeros, gm,
    )


class TestWeightedError:
    def test_tau_must_be_positive(self):
        """NaN is rejected like zero and negative tau; +inf is the no-decay
        limit, the plain time-weighted l2 distance."""
        times = np.array([0.0, 1.0, 3.0])
        gm = GlobalMetric([4.0], [0.5])
        traj = _trajectory(times, np.array([[0.0], [1.0], [1.0]]), gm)
        ref = _trajectory(times, np.zeros((3, 1)), gm)
        for tau in (np.nan, 0.0, -1.0):
            with pytest.raises(ValueError, match="tau must be positive"):
                weighted_l2_error(traj, ref, tau)
        # 0.5 * 4 * 1^2 over steps of length 1 and 2
        assert weighted_l2_error(traj, ref, np.inf) == np.sqrt(2.0 * 1.0 + 2.0 * 2.0)


def test_output_digest_is_reproducible():
    """``tools/output_digest.py`` records one oracle_check.csv digest, the
    same on two runs."""
    spec = importlib.util.spec_from_file_location("output_digest", TOOLS / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first = tool.digest(["oracle-check", "--runs", "2"], None)
    assert list(first) == ["oracle_check.csv"]
    assert len(first["oracle_check.csv"]) == 64
    assert tool.digest(["oracle-check", "--runs", "2"], None) == first


def test_command_timing_records_time_exit_code_and_digests(tmp_path, monkeypatch):
    """``tools/command_timing.py`` writes each command's wall time, exit
    code and CSV digests; a failing command is recorded, not raised."""
    monkeypatch.syspath_prepend(str(TOOLS))
    tool = importlib.import_module("command_timing")
    assert [label for label, _ in tool.COMMANDS] == [
        "relaxation", "relaxation --history-matching", "visco", "plastic", "oracle-check"
    ]
    quick, bad = ["oracle-check", "--runs", "2"], ["oracle-check", "--runs", "0"]
    monkeypatch.setattr(tool, "COMMANDS", (("quick", quick), ("bad", bad)))
    out = tmp_path / "times.json"
    monkeypatch.setattr(sys, "argv", ["command_timing.py", "--out", str(out)])
    tool.main()
    record = json.loads(out.read_text())
    assert list(record) == ["quick", "bad"]
    assert record["quick"]["exit_code"] == 0 and record["quick"]["wall_s"] > 0.0
    assert record["quick"]["csv_sha256"] == importlib.import_module("output_digest").digest(
        quick, None
    )
    assert record["bad"]["exit_code"] == 2 and record["bad"]["csv_sha256"] == {}


class TestConvergenceStudy:
    """Reproducibility of the study over worker counts."""

    def test_errors_identical_for_any_worker_count(self):
        """Serial and pooled runs give bit-identical errors, with data sizes
        on both sides of the sorted-search crossover."""
        cfg = default_study_config(
            "visco", lattice=LatticeSpec(2, 1, 1), points=(64, 4096), runs=2, t_end=3.0
        )
        bars = len(study_mesh(cfg).areas)
        assert bars * cfg.points[0] < data._SORTED_SEARCH_MIN_SIZE
        assert bars * cfg.points[-1] >= data._SORTED_SEARCH_MIN_SIZE
        serial = run_convergence_study(cfg)
        pooled = run_convergence_study(replace(cfg, workers=2))
        assert [r.errors for r in serial.rows] == [r.errors for r in pooled.rows]
        assert serial.rate == pooled.rate


class TestOracleCheck:
    """How often the fixed point reaches the enumerated minimum."""

    def test_reports_hits_and_relative_gaps(self):
        result = oracle_check(12, 5, max_elements=6, max_points=5)
        assert result.passed
        assert 0 < result.n_global <= result.n_systems
        assert result.max_rel_gap >= result.mean_rel_gap
        if result.n_global == result.n_systems:
            assert result.max_rel_gap <= 1e-9

    def test_hit_counts_keep_their_floor(self):
        """At seed 90210 the fixed point reaches the enumerated minimum on 88
        of 100 instances of up to 3 bars x 20 points, on all 100 of up to 6
        bars x 5 points and on 97 of up to 10 bars x 4 points; removing a
        polish stage must not lower any. Only the last family sees the pair
        stage: without it the hits are 88, 100 and 94."""
        assert oracle_check(100, 90210).n_global >= 88
        assert oracle_check(100, 90210, max_elements=6, max_points=5).n_global == 100
        assert oracle_check(100, 90210, max_elements=10, max_points=4).n_global >= 97

    def test_command_writes_both_families(self, tmp_path, capsys):
        code = cli.main(["oracle-check", "--runs", "3", "--seed", "4", "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "oracle_check.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["max_elements"], r["max_points"]) for r in rows] == [
            (str(e), str(p)) for e, p in cli.ORACLE_FAMILIES
        ]
        assert all(0 <= int(r["n_global"]) <= 3 for r in rows)
        out = capsys.readouterr().out
        assert out.count("at the global minimum") == len(cli.ORACLE_FAMILIES)
