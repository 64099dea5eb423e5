"""Convergence studies."""

from __future__ import annotations

from dataclasses import replace

from ddmech import data
from ddmech.experiments import default_study_config, run_convergence_study, study_mesh
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
