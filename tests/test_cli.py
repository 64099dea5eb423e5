"""The command line: config-file keys, rejected flags and a tiny run."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ddmech
from ddmech import cli
from ddmech.experiments import default_study_config
from ddmech.truss import LatticeSpec, generate_lattice_truss

#: Every config key each command accepts. A new setting must be added here.
#: The held bar of ``relaxation`` reads the lattice keys, ``load_scale`` and
#: ``breakpoints`` but no part of its march uses them.
_LAW_KEYS = {"visco": ["law.e0", "law.e1", "law.tau1"],
             "plastic": ["law.e0", "law.e1", "law.sigma1", "law.h"]}
_STUDY_KEYS = [
    "lattice.nx", "lattice.ny", "lattice.nz", "lattice.spacing", "lattice.area",
    "load_scale", "breakpoints", "dt", "t_end", "points", "runs", "band_ref",
    "window.halfwidth", "window.floor", "seed", "max_fixed_point_iters",
]
CONFIG_KEYS = {
    "relaxation": _LAW_KEYS["visco"] + _STUDY_KEYS,
    "visco": _LAW_KEYS["visco"] + _STUDY_KEYS,
    "plastic": _LAW_KEYS["plastic"] + _STUDY_KEYS,
}


def _as_text(value) -> str:
    """A config value as the text a config file gives for it."""
    if value is None:
        return "none"
    if isinstance(value, tuple) and isinstance(value[0], tuple):
        return "; ".join(f"{t!r},{v!r}" for t, v in value)
    if isinstance(value, tuple):
        return ", ".join(str(v) for v in value)
    return repr(value)


@pytest.mark.parametrize("command", list(CONFIG_KEYS))
def test_config_keys_are_pinned(tmp_path, command):
    """Each command takes exactly its listed keys (19, 19 and 20), and a
    file that sets every key to its default reads back as the defaults."""
    cfg = default_study_config(command)
    keys = cli._config_keys(cfg)
    assert keys == CONFIG_KEYS[command]
    assert len(keys) == {"relaxation": 19, "visco": 19, "plastic": 20}[command]
    lines = []
    for key in keys:
        outer, _, name = key.rpartition(".")
        lines.append(f"{key} = {_as_text(getattr(getattr(cfg, outer) if outer else cfg, name))}")
    path = tmp_path / "all.cfg"
    path.write_text("\n".join(lines) + "\n")
    assert cli._apply_config(cfg, path)[0] == cfg


@pytest.mark.parametrize(
    "command, text, line, key",
    [
        ("visco", "t_end = 3\nband = 0.5\n", 2, "band"),
        ("visco", "dt = abc\n", 1, "dt"),
        ("visco", "lattice.nx = 2\nlattice.face_diagonals = no\n", 2,
         "unknown key 'lattice.face_diagonals'"),
        ("plastic", "law.tau1 = 3\n", 1, "law.tau1"),
        ("visco", "# comment\nlaw.e0 = -1\n", 2, "law.e0"),
        ("relaxation", "mesh = bars.mesh\n", 1, "unknown key 'mesh'"),
        ("visco", "t_end = 3\ndt = 0\n", 2, "dt"),
        ("plastic", "t_end = -1\n", 1, "t_end"),
        ("visco", "runs = 1\nworkers = 2\n", 2, "unknown key 'workers'"),
        ("visco", "seed = -1\n", 1, "seed"),
        ("relaxation", "band_ref = 0\nseed = -2\n", 2, "seed"),
        ("relaxation", "band_ref = 0.001\nseed = -2\n", 2, "seed"),
        ("plastic", "runs = 2.5\n", 1, "runs"),
        ("relaxation", "t_end = 3\ndt = nan\n", 2, "dt"),
        ("relaxation", "dt = inf\n", 1, "dt"),
        ("relaxation", "t_end = nan\n", 1, "t_end"),
        ("relaxation", "eps_bar = nan\n", 1, "unknown key 'eps_bar'"),
        ("visco", "load_scale = nan\n", 1, "load_scale"),
        ("visco", "band_ref = nan\n", 1, "band_ref"),
        ("plastic", "band_exponent = inf\n", 1, "unknown key 'band_exponent'"),
        ("visco", "window_exponent = nan\n", 1, "unknown key 'window_exponent'"),
        ("plastic", "max_fixed_point_iters = 0\n", 1, "max_fixed_point_iters"),
        ("visco", "n_ref = 0\n", 1, "unknown key 'n_ref'"),
        ("visco", "sampling = grid\n", 1, "unknown key 'sampling'"),
        ("relaxation", "n_points = 0\n", 1, "unknown key 'n_points'"),
        ("relaxation", "band_width = nan\n", 1, "unknown key 'band_width'"),
        ("relaxation", "metric_value = nan\n", 1, "unknown key 'metric_value'"),
        ("plastic", "metric_value = -1\n", 1, "unknown key 'metric_value'"),
        ("visco", "t_end = 2\nband_exponent = -1e308\n", 2, "unknown key 'band_exponent'"),
        ("visco", "window_exponent = 1e308\n", 1, "unknown key 'window_exponent'"),
        ("plastic", "window_exponent = -1e308\n", 1, "unknown key 'window_exponent'"),
        ("visco", "lattice.spacing = nan\n", 1, "lattice.spacing"),
        ("plastic", "lattice.area = inf\n", 1, "lattice.area"),
        ("relaxation", "t_end = 3\neps_bar = 1\n", 2, "unknown key 'eps_bar'"),
        ("relaxation", "n_points = 64\n", 1, "unknown key 'n_points'"),
        ("relaxation", "band_width = 0\n", 1, "unknown key 'band_width'"),
        ("relaxation", "program.px = 0,0; 1,0.001\n", 1, "unknown key 'program.px'"),
    ],
    ids=[
        "unknown-key", "bad-float", "bad-boolean", "other-law", "rejected-value", "no-mesh",
        "zero-dt", "negative-t_end", "removed-workers", "negative-seed",
        "negative-seed-noiseless", "negative-seed-noisy", "fractional-runs",
        "nan-dt", "inf-dt", "nan-t_end", "nan-eps_bar", "nan-load_scale", "nan-band_ref",
        "inf-band_exponent", "nan-window_exponent", "zero-iters", "zero-n_ref",
        "removed-sampling", "zero-n_points", "nan-band_width", "nan-metric_value",
        "negative-metric_value", "overflowing-band_exponent", "vanishing-window_exponent",
        "overflowing-window_exponent", "nan-lattice.spacing", "inf-lattice.area",
        "removed-eps_bar", "removed-n_points", "removed-band_width", "no-program",
    ],
)
def test_bad_config_line_names_path_line_and_key(tmp_path, capsys, command, text, line, key):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert f"{path}:{line}: " in err
    assert key in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["visco", "relaxation", "oracle-check"])
def test_negative_seed_flag_is_named(tmp_path, capsys, command):
    assert cli.main([command, "--seed", "-5", "--out", str(tmp_path)]) == 2
    assert "error: seed must be at least 0, got -5" in capsys.readouterr().err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_oracle_check_refuses_fewer_than_one_system(tmp_path, capsys, runs):
    """No system checked is no pass: the count is refused, not reported."""
    assert cli.main(["oracle-check", "--runs", runs, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == f"error: runs must be at least 1, got {runs}\n"
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize(
    "argv",
    [
        ["relaxation", "--mesh", "bars.mesh"],
        ["oracle-check", "--config", "run.cfg"],
        ["convergence", "--kind", "visco", "--workers", "2"],
    ],
)
def test_unread_flags_are_rejected(tmp_path, argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_visco_run_from_a_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "lattice.nx = 2\nlattice.ny = 1\nlattice.nz = 1\nt_end = 3\npoints = 16\n"
    )
    assert cli.main(["visco", "--config", str(path), "--out", str(tmp_path)]) == 0
    bars = generate_lattice_truss(LatticeSpec(2, 1, 1)).n_bars
    lines = (tmp_path / "visco_trajectory.csv").read_text().splitlines()
    assert len(lines) == 1 + 4 * bars


@pytest.mark.parametrize(
    "command, config, files",
    [
        ("relaxation", "t_end = 5\n", ["relaxation.csv", "relaxation_trajectory.csv"]),
        (
            "visco",
            "lattice.nx = 2\nlattice.ny = 1\nlattice.nz = 1\nt_end = 4\n",
            ["visco_probe.csv", "visco_reference.csv", "visco_trajectory.csv"],
        ),
    ],
)
def test_history_matching_run_writes_its_files(tmp_path, command, config, files):
    path = tmp_path / "run.cfg"
    path.write_text(config)
    out = tmp_path / "out"
    argv = [command, "--history-matching", "--config", str(path), "--out", str(out)]
    assert cli.main(argv) == 0
    assert sorted(p.name for p in out.glob("*.csv")) == files


@pytest.mark.parametrize("command", ["relaxation", "visco"])
@pytest.mark.parametrize("flag, value", [("--points", "64"), ("--band", "0.1")])
def test_history_matching_refuses_data_flags(tmp_path, capsys, command, flag, value):
    """The archive fixes the data, so a data flag is an error, not ignored."""
    argv = [command, "--history-matching", flag, value, "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == f"error: {flag} does not apply to --history-matching\n"
    assert not list(tmp_path.glob("*.csv"))


def test_relaxation_marches_at_the_largest_size(tmp_path, capsys):
    """``relaxation`` takes a size list and marches at its largest size, as
    ``visco`` does: the same files as a run at that size alone."""
    for points in ("64,128", "128"):
        argv = ["relaxation", "--points", points, "--out", str(tmp_path / points)]
        assert cli.main(argv) == 0
        assert "relaxation run (128 points/step): 1 bars, 101 steps" in capsys.readouterr().out
    files = ["relaxation.csv", "relaxation_trajectory.csv"]
    for name in files:
        assert (tmp_path / "64,128" / name).read_bytes() == (tmp_path / "128" / name).read_bytes()
    assert sorted(p.name for p in (tmp_path / "128").iterdir()) == files


def test_relaxation_study_refuses_a_mesh(tmp_path, capsys):
    """The held bar is the preset's own mesh, so ``--mesh`` is an error."""
    argv = ["convergence", "--kind", "relaxation", "--mesh", "bars.mesh", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    assert capsys.readouterr().err == "error: --mesh does not apply to relaxation\n"
    assert not list(tmp_path.glob("*.csv"))


def test_relaxation_study_at_band_0_asks_for_a_band(tmp_path, capsys):
    """At band 0 the held strain is a sample of every set, so two or more
    sizes give round-off errors and a meaningless rate: the study stops with
    one ``error:`` line. One size at band 0 still runs."""
    argv = ["convergence", "--kind", "relaxation", "--points", "64,256", "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "--band" in err
    assert not list(tmp_path.glob("*.csv"))
    path = tmp_path / "run.cfg"
    path.write_text("t_end = 3\n")
    argv[4] = "64"
    assert cli.main(argv + ["--config", str(path)]) == 0
    assert "rate: not fitted" in capsys.readouterr().out


@pytest.mark.parametrize("budget, unconverged", [(1, 11), (200, 0)])
def test_convergence_reports_unconverged_steps(tmp_path, capsys, budget, unconverged):
    """A study prints each size's count of unconverged steps, summed over
    its runs, and ends with a warning when any is nonzero; the exit code
    stays 0 and the CSV keeps its columns."""
    path = tmp_path / "run.cfg"
    path.write_text(
        "lattice.nx = 2\nlattice.ny = 1\nlattice.nz = 1\nt_end = 10\n"
        f"max_fixed_point_iters = {budget}\n"
    )
    argv = ["convergence", "--kind", "plastic", "--points", "64", "--runs", "1",
            "--config", str(path), "--out", str(tmp_path)]
    assert cli.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[1].endswith(f"  unconverged={unconverged}/11")
    warning = f"  warning: unconverged steps at max_fixed_point_iters = {budget}"
    assert (lines[-1] == warning) == (unconverged > 0)
    header = (tmp_path / "plastic_convergence.csv").read_text().splitlines()[0]
    assert header == "n_points,mean_error,std_error,err_0"


_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Imports the package as ``python -m ddmech.cli`` and the ``ddmech`` script
#: do, then reports the thread variables and the thread count of every
#: OpenBLAS loaded (numpy's and scipy's).
_PROBE = """
import ctypes, json, os
{first}
import ddmech.cli
import numpy.linalg
import scipy.linalg

counts = []
with open("/proc/self/maps") as fh:
    paths = sorted({{line.split()[-1] for line in fh if "openblas" in line}})
for path in paths:
    lib = ctypes.CDLL(path)
    for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                 "openblas_get_num_threads64_", "openblas_get_num_threads"):
        if hasattr(lib, name):
            counts.append(getattr(lib, name)())
            break
print(json.dumps({{"env": {{v: os.environ.get(v) for v in {names}}}, "blas": counts}}))
"""


def _thread_report(first="", **env):
    """The probe's report from a fresh interpreter whose environment has no
    thread variable but those in ``env``."""
    clean = {k: v for k, v in os.environ.items() if k not in _THREAD_VARS}
    src = str(Path(ddmech.__file__).resolve().parents[1])
    clean["PYTHONPATH"] = os.pathsep.join(filter(None, [src, clean.get("PYTHONPATH")]))
    clean.update(env)
    code = _PROBE.format(first=first, names=_THREAD_VARS)
    out = subprocess.run(
        [sys.executable, "-c", code], env=clean, capture_output=True, text=True, check=True
    )
    return json.loads(out.stdout)


def test_commands_run_blas_with_one_thread():
    report = _thread_report()
    assert report["env"] == {v: "1" for v in _THREAD_VARS}
    assert len(report["blas"]) >= 1 and set(report["blas"]) == {1}


@pytest.mark.parametrize("var", ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"])
def test_a_users_thread_setting_wins(var):
    report = _thread_report(**{var: "2"})
    assert report["env"] == {v: ("2" if v == var else None) for v in _THREAD_VARS}
    assert set(report["blas"]) == {min(2, os.cpu_count())}


def test_a_caller_that_imported_numpy_first_is_unchanged():
    report = _thread_report(first="import numpy")
    assert report["env"] == {v: None for v in _THREAD_VARS}


#: A two-bar mesh: nodes 0 and 1 are fixed, node 2 hangs from both.
_MESH_HEAD = "NODES\n0 0 0 0\n1 1 0 0\n2 0.5 0 -1\n"
_MESH_FIXED = "SUPPORTS\n" + "".join(f"{n} {d}\n" for n in (0, 1) for d in "xyz")


@pytest.mark.parametrize(
    "body, line, message",
    [
        ("BARS\n0 0 2 1.0\n1 1 7 1.0\n", 7, "no node 7 in NODES"),
        ("BARS\n0 0 2 1.0\n1 2 2 1.0\n", 7, "bar 1 joins node 2 to itself"),
        ("BARS\n0 0 2 1.0\n1 1 2 0\n", 7, "bar 1: area must be finite and positive, got 0.0"),
        ("BARS\n0 0 2 -1\n1 1 2 1.0\n", 6, "bar 0: area must be finite and positive"),
        ("BARS\n0 0 2 nan\n1 1 2 1.0\n", 6, "bar 0: area must be finite and positive"),
        ("BARS\n0 0 2 1.0\n1 1 2 1.0\nSUPPORTS\n2 y\n9 x\n", 10, "no node 9 in NODES"),
        ("BARS\n0 0 2 1.0\n1 1 2 1.0\nLOADS\n8 z -1\n", 9, "no node 8 in NODES"),
        ("BARS\n0 0 2 1.0\n1 1 2 1.0\nPRESCRIBED\n5 x px\n", 9, "no node 5 in NODES"),
        ("BARS\n0 0 2 1.0\n1 1 2 1.0\nPRESCRIBED\n2 x ramp\n", 9, "unknown program id 'ramp'"),
        ("BARS\n0 0 2 1.0\n1 1 2 1.0\nLOADS\n2 y 1\n0 z -1\n", 10,
         "load on dof (0, 2), which is supported"),
        ("BARS\n0 0 2 1.0\n1 1 2 1.0\nPRESCRIBED\n2 y px\n1 x px\n", 10,
         "dof (1, 0) is both supported and prescribed"),
        ("BARS\n0 0 2 1.0\n1 1 2 1.0\nPRESCRIBED\n2 x px\n2 0 px\n", 10,
         "dof (2, 0) prescribed twice"),
        ("BARS\n0 0 2 1.0\n1 1 2 1.0\nPRESCRIBED\n2 y px\nLOADS\n2 y 1\n", 11,
         "load on dof (2, 1), which is prescribed"),
        ("NODES\n3 1 nan 0\nBARS\n0 0 2 1.0\n1 1 2 1.0\n", 6,
         "node 3: coordinates must be finite"),
        ("NODES\n3 inf 0 0\nBARS\n0 0 2 1.0\n1 1 2 1.0\n", 6,
         "node 3: coordinates must be finite"),
        ("NODES\n3 0.5 0 -1\nBARS\n1 1 2 1.0\n0 0 2 1.0\n2 3 2 1.0\n", 10,
         "zero-length bar 2: nodes 3 and 2 lie at (0.5, 0.0, -1.0)"),
        ("BARS\n0 0 2 1.0\n1 1 2 1.0\nLOADS\n2 y 1\n2 x nan\n", 10,
         "load on dof (2, 0) must be finite, got nan"),
        ("BARS\n0 0 2 1.0\n1 1 2 1.0\nLOADS\n2 y -inf\n", 9,
         "load on dof (2, 1) must be finite, got -inf"),
        ("BARS\n0 0 2 1.0\n1 1 2 1.0\nLOADS\n2 z 1e308\n2 z 1e308\n", 10,
         "load on dof (2, 2) must be finite, got inf"),
    ],
    ids=[
        "missing-bar-end", "bar-to-itself", "zero-area", "negative-area", "nan-area",
        "missing-support-node", "missing-load-node", "missing-prescribed-node",
        "unknown-program", "load-on-support", "prescribed-support",
        "prescribed-twice", "load-on-prescribed", "nan-coordinate", "inf-coordinate",
        "zero-length-bar", "nan-load", "inf-load", "load-sum-overflows",
    ],
)
def test_bad_mesh_line_names_path_and_line(tmp_path, capsys, body, line, message):
    """A mesh file entry that TrussMesh would refuse, or that names a node
    the NODES section lacks, stops the command with ``<file>:<line>``."""
    mesh = tmp_path / "two.mesh"
    mesh.write_text(_MESH_HEAD + body + _MESH_FIXED)
    config = tmp_path / "run.cfg"
    config.write_text("program.px = 0,0; 1,0.001\nt_end = 1\n")
    argv = ["visco", "--mesh", str(mesh), "--config", str(config), "--out", str(tmp_path)]
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mesh}:{line}: ")
    assert message in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("given", ["flag", "config"])
def test_mechanism_mesh_is_one_error_line(tmp_path, capsys, given):
    """A mesh whose free node can move out of its bars' plane is bad input:
    one ``error:`` line naming the mesh file, exit 2, no traceback."""
    mesh = tmp_path / "two.mesh"
    mesh.write_text(_MESH_HEAD + "BARS\n0 0 2 1.0\n1 1 2 1.0\n" + _MESH_FIXED)
    config = tmp_path / "run.cfg"
    config.write_text(f"mesh = {mesh}\nt_end = 1\n" if given == "config" else "t_end = 1\n")
    argv = ["visco", "--config", str(config), "--out", str(tmp_path)]
    assert cli.main(argv + (["--mesh", str(mesh)] if given == "flag" else [])) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {mesh}: stiffness matrix is singular")
    assert err.count("\n") == 1
    assert not list(tmp_path.glob("*.csv"))
