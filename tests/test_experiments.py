"""Reference solves, convergence studies and the oracle check."""

from __future__ import annotations

import csv
import importlib
import importlib.util
import json
import multiprocessing
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from ddmech import cli, data, experiments
from ddmech.experiments import (
    DEFAULT_PLASTIC,
    DEFAULT_SLS,
    default_study_config,
    oracle_check,
    reference_trajectory,
    run_convergence_study,
    study_mesh,
    weighted_l2_error,
)
from ddmech.phase import GlobalMetric
from ddmech.solver import Trajectory
from ddmech.truss import LatticeSpec, PiecewiseLinearProgram, Prescribed, TrussMesh

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


def _driven_bar(breakpoints):
    """A unit bar along x whose far end is driven along x by the program
    ``breakpoints``, so its strain is the program: no free dof."""
    program = PiecewiseLinearProgram.from_breakpoints(breakpoints)
    return TrussMesh(
        node_coords=np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]]),
        conn=np.array([[0, 1]]),
        areas=np.array([1.0]),
        supports=frozenset({(0, 0), (0, 1), (0, 2), (1, 1), (1, 2)}),
        prescribed=(Prescribed(1, 0, program),),
    )


def _sls_held(strain, law, dt):
    """The backward-difference standard linear solid held at the constant
    strain ``strain[0]`` from a virgin state: e0 eps + e1 eps rho^k with
    rho = tau1 / (dt + tau1)."""
    rho = law.tau1 / (dt + law.tau1)
    return law.e0 * strain[0] + law.e1 * strain[0] * rho ** np.arange(strain.size)


def _play_operator(strain, law, dt):
    """The plastic law under a strain history: the branch stress s moves by
    e1 times the strain increment and is clipped to +-(sigma1 + h q_acc),
    where the accumulated slip q_acc grows by the excess over the yield
    level divided by e1 + h; the stress is e0 eps + s."""
    s = q_acc = prev = 0.0
    out = []
    for eps in strain:
        trial = s + law.e1 * (eps - prev)
        q_acc += max(abs(trial) - (law.sigma1 + law.h * q_acc), 0.0) / (law.e1 + law.h)
        level = law.sigma1 + law.h * q_acc
        s, prev = min(max(trial, -level), level), eps
        out.append(law.e0 * eps + s)
    return np.array(out)


_REVERSAL = ((0.0, 0.0), (20.0, 0.02), (60.0, -0.02), (100.0, 0.03))


@pytest.mark.parametrize(
    "law, breakpoints, closed_form",
    [
        (DEFAULT_SLS, ((0.0, 1e-3),), _sls_held),
        (DEFAULT_PLASTIC, _REVERSAL, _play_operator),
        (replace(DEFAULT_PLASTIC, h=2000.0), _REVERSAL, _play_operator),
    ],
    ids=["sls-held", "plastic-h0", "plastic-h2000"],
)
def test_reference_trajectory_on_a_driven_bar(law, breakpoints, closed_form):
    """``reference_trajectory`` on one bar driven by a PRESCRIBED strain
    program, against closed forms written here, which share no code with
    ``ddmech.materials``: the held SLS bar's relaxation series, and the
    play operator of the plastic law through two reversals, with and
    without hardening. The bar has no free dof, so the force residual is
    empty and the plastic branch's Newton solve is not reached; a free-dof
    oracle (a statically determinate truss) still has to pin it."""
    mesh = _driven_bar(breakpoints)
    gm = GlobalMetric.uniform(law.modulus_instantaneous, mesh.volumes)
    times = np.arange(0.0, 101.0, 1.0)
    ref = reference_trajectory(mesh, gm, law, None, times)
    t, v = np.array(breakpoints).T
    strain = np.interp(times, t, v)
    exact = closed_form(strain, law, 1.0)
    assert np.max(np.abs(ref.strain[:, 0] - strain)) <= 1e-15 * np.max(np.abs(strain))
    assert np.max(np.abs(ref.stress[:, 0] - exact)) <= 1e-12 * np.max(np.abs(exact))
    if closed_form is _play_operator:  # the program yields: far below the elastic line
        assert np.max(np.abs(exact)) < 0.5 * law.modulus_instantaneous * np.max(strain)


@pytest.mark.parametrize("band, rate", [(1e-5, 0.8), (0.0, None)])
def test_relaxation_study_against_the_closed_form(band, rate):
    """The held bar as a study: with a band the error against the closed
    form falls with the data size at a rate of at least 0.8; at band 0 the
    held strain is a sample of every set, so every size gives round-off."""
    cfg = default_study_config(
        "relaxation", t_end=20.0, points=(64, 256, 1024), runs=2, band_ref=band
    )
    result = run_convergence_study(cfg)
    assert [row.unconverged for row in result.rows] == [0, 0, 0]
    if rate is None:
        assert max(max(row.errors) for row in result.rows) < 1e-14
    else:
        assert result.rate >= rate
        assert all(min(row.errors) > 1e-6 for row in result.rows)


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


def test_output_digest_drops_the_assignment_column(tmp_path):
    """A CSV with an ``assignment`` column gets a second digest, equal to
    that of the same CSV written without the column; a CSV without one
    gets one digest."""
    spec = importlib.util.spec_from_file_location("output_digest", TOOLS / "output_digest.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    rows = [(0.5, 1, 2.5e-3, 7, ""), (1.0, 0, -1.25, 12, "a,b")]
    data.write_csv(tmp_path / "with.csv", ["time", "element", "strain", "assignment", "x"], rows)
    data.write_csv(
        tmp_path / "without.csv", ["time", "element", "strain", "x"],
        [r[:3] + r[4:] for r in rows],
    )
    data.write_csv(tmp_path / "renumbered.csv", ["time", "element", "strain", "assignment", "x"],
                   [r[:3] + (r[3] + 1,) + r[4:] for r in rows])
    with_col = tool.csv_digests(tmp_path / "with.csv")
    without = tool.csv_digests(tmp_path / "without.csv")
    renumbered = tool.csv_digests(tmp_path / "renumbered.csv")
    assert list(with_col) == ["with.csv", "with.csv without assignment"]
    assert list(without) == ["without.csv"]
    assert with_col["with.csv without assignment"] == without["without.csv"]
    assert renumbered["renumbered.csv without assignment"] == without["without.csv"]
    assert renumbered["renumbered.csv"] != with_col["with.csv"]


def test_command_timing_records_time_exit_code_and_digests(tmp_path, monkeypatch):
    """``tools/command_timing.py`` writes each command's wall time, exit
    code and CSV digests; a failing command is recorded, not raised; labels
    select commands."""
    monkeypatch.syspath_prepend(str(TOOLS))
    tool = importlib.import_module("command_timing")
    assert [label for label, *_ in tool.COMMANDS] == [
        "relaxation", "relaxation --history-matching", "visco", "visco --points 1024",
        "visco --history-matching", "plastic", "plastic --points 1024", "oracle-check",
        "convergence --kind plastic",
    ]
    quick, bad = ["oracle-check", "--runs", "2"], ["oracle-check", "--runs", "0"]
    monkeypatch.setattr(tool, "COMMANDS", (("quick", quick), ("bad", bad)))
    out = tmp_path / "times.json"
    monkeypatch.setattr(sys, "argv", ["command_timing.py", "--out", str(out)])
    tool.main()
    record = json.loads(out.read_text())
    assert list(record) == ["quick", "bad"]
    assert record["quick"]["exit_code"] == 0 and record["quick"]["wall_s"] > 0.0
    assert record["quick"]["max_rss_mib"] > 0.0
    assert record["quick"]["csv_sha256"] == importlib.import_module("output_digest").digest(
        quick, None
    )
    assert record["bad"]["exit_code"] == 2 and record["bad"]["csv_sha256"] == {}
    # labels run only their commands, in the table's order
    monkeypatch.setattr(sys, "argv", ["command_timing.py", "--out", str(out), "bad"])
    tool.main()
    assert list(json.loads(out.read_text())) == ["bad"]
    monkeypatch.setattr(sys, "argv", ["command_timing.py", "--out", str(out), "bad", "quick"])
    tool.main()
    assert list(json.loads(out.read_text())) == ["quick", "bad"]
    monkeypatch.setattr(sys, "argv", ["command_timing.py", "--out", str(out), "visco"])
    with pytest.raises(SystemExit) as exc:
        tool.main()
    assert exc.value.code == 2


def test_study_compare_prints_shifts_in_base_spread(tmp_path, monkeypatch, capsys):
    """``tools/study_compare.py`` prints both mean errors per size with
    their difference in base standard deviations, and both rates and
    run-rate spreads; records of other points, runs or seed exit 2 with one
    ``error:`` line."""
    monkeypatch.syspath_prepend(str(TOOLS))
    tool = importlib.import_module("study_compare")

    def record(means, rate, spread, **changes):
        rec = {"seed": 7, "points": [16, 64], "runs": 3, "mean_error": means,
               "std_error": [2.0, 0.5], "rate": rate, "run_rate_std": spread}
        return {"visco": {**rec, **changes}}

    base, new = tmp_path / "base.json", tmp_path / "new.json"
    base.write_text(json.dumps(record([10.0, 1.0], 1.5, 0.25)))
    new.write_text(json.dumps(record([13.0, 0.75], 1.625, 0.125)))
    assert tool.main([str(base), str(new)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "visco    16 points: mean error 10 -> 13, +1.50 std",
        "visco    64 points: mean error 1 -> 0.75, -0.50 std",
        "visco rate 1.5000 -> 1.6250, run-rate spread 0.2500 -> 0.1250",
    ]
    for key, value in (("points", [16, 128]), ("runs", 5), ("seed", 8)):
        new.write_text(json.dumps(record([13.0, 0.75], 1.625, 0.125, **{key: value})))
        assert tool.main([str(base), str(new)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err.startswith(f"error: visco: the records differ in {key}")
        assert len(out.err.splitlines()) == 1


def test_perf_pairs_compares_a_checkout_with_itself(tmp_path, monkeypatch, capsys):
    """``tools/perf_pairs.py`` runs one tiny pair of this checkout against
    itself: the same outputs, and both sides of every end-to-end metric;
    a run without a result line ends the script with one ``error:`` line
    naming the side and the pair."""
    monkeypatch.syspath_prepend(str(TOOLS))
    tool = importlib.import_module("perf_pairs")
    root, out = TOOLS.parent, tmp_path / "pairs.json"
    argv = ["--parent", str(root), "--change", str(root), "--pairs", "1", "--out", str(out),
            "--workload", "plastic-sparse", "--seconds", "1", "--tiny"]
    assert tool.main(argv) == 0
    record = json.loads(out.read_text())
    assert record["outputs_identical"] is True
    assert [(r["pair"], r["side"]) for r in record["runs"]] == [(1, "parent"), (1, "change")]
    for name in ("setup_s", "march_s", "traj_error", "ok_step_share", "peak_rss_mb"):
        row = record["summary"][f"plastic-sparse/{name}"]
        assert set(row) == {"better", "parent_median", "parent_quartiles", "change_median",
                            "change_quartiles", "change_won"}
    capsys.readouterr()
    broken = tmp_path / "broken"
    (broken / "perfbench").mkdir(parents=True)
    for body in ("print('# no result')\n", "raise SystemExit(3)\n"):
        (broken / "perfbench" / "run.py").write_text(body)
        argv[1] = str(broken)
        assert tool.main(argv) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: the parent run of pair 1 exited")


def _tiny_study(points, runs):
    return default_study_config(
        "visco", lattice=LatticeSpec(2, 1, 1), points=points, runs=runs, t_end=3.0
    )


@pytest.fixture
def pools(monkeypatch):
    """The size of every pool a study makes."""
    made = []
    pool = experiments.ProcessPoolExecutor

    def recorded_pool(max_workers):
        made.append(max_workers)
        return pool(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", recorded_pool)
    return made


class TestConvergenceStudy:
    """How many processes a study uses, and its bits on any number of CPUs."""

    def test_errors_identical_for_any_worker_count(self, monkeypatch, pools):
        """A pooled study and a one-CPU study give bit-identical errors, with
        data sizes on both sides of the sorted-search crossover."""
        cfg = _tiny_study((64, 4096), 2)
        bars = len(study_mesh(cfg).areas)
        assert bars * cfg.points[0] < data._SORTED_SEARCH_MIN_SIZE
        assert bars * cfg.points[-1] >= data._SORTED_SEARCH_MIN_SIZE
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        pooled = run_convergence_study(cfg)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        serial = run_convergence_study(cfg)
        assert pools == [2]
        assert [r.errors for r in serial.rows] == [r.errors for r in pooled.rows]
        assert serial.rate == pooled.rate

    @pytest.mark.parametrize(
        "cpus, points, runs, made",
        [
            ({0, 1}, (64,), 1, []),
            ({0, 1}, (64,), 2, [2]),
            ({0, 1, 2}, (64,), 2, [2]),
            ({0, 1, 2}, (64, 128), 2, [3]),
            ({0}, (64, 128), 2, []),
        ],
        ids=["one-task", "two-tasks", "fewer-tasks-than-cpus", "fewer-cpus-than-tasks",
             "one-cpu"],
    )
    def test_one_task_forks_and_more_tasks_pool(
        self, monkeypatch, pools, cpus, points, runs, made
    ):
        """A study of two or more tasks runs them on a pool of min(CPUs,
        tasks) processes; a one-task study, or any study on one CPU, runs
        in its own process."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        run_convergence_study(_tiny_study(points, runs))
        assert pools == made
        assert multiprocessing.active_children() == []


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
