"""Convergence studies and the oracle check."""

from __future__ import annotations

import csv
from dataclasses import replace

from ddmech import cli, data
from ddmech.experiments import (
    default_study_config,
    oracle_check,
    run_convergence_study,
    study_mesh,
)
from ddmech.truss import LatticeSpec


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
        of 100 instances of up to 3 bars x 20 points and on all 100 of up to
        6 bars x 5 points; removing a polish stage must not lower either."""
        assert oracle_check(100, 90210).n_global >= 88
        assert oracle_check(100, 90210, max_elements=6, max_points=5).n_global == 100

    def test_command_writes_both_families(self, tmp_path, capsys):
        code = cli.main(["oracle-check", "--runs", "3", "--seed", "4", "--out", str(tmp_path)])
        assert code == 0
        with open(tmp_path / "oracle_check.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [(r["max_elements"], r["max_points"]) for r in rows] == [
            (str(e), str(p)) for e, p in cli.ORACLE_FAMILIES
        ]
        assert all(0 <= int(r["n_global"]) <= 3 for r in rows)
        assert capsys.readouterr().out.count("at the global minimum") == 2
