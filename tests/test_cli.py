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
from ddmech.truss import LatticeSpec, generate_lattice_truss


@pytest.mark.parametrize(
    "command, text, line, key",
    [
        ("visco", "t_end = 3\nband = 0.5\n", 2, "band"),
        ("visco", "dt = abc\n", 1, "dt"),
        ("visco", "lattice.nx = 2\nlattice.face_diagonals = maybe\n", 2, "lattice.face_diagonals"),
        ("plastic", "law.tau1 = 3\n", 1, "law.tau1"),
        ("visco", "# comment\nlaw.e0 = -1\n", 2, "law.e0"),
        ("relaxation", "mesh = bars.mesh\n", 1, "mesh"),
        ("visco", "t_end = 3\ndt = 0\n", 2, "dt"),
        ("plastic", "t_end = -1\n", 1, "t_end"),
        ("visco", "runs = 1\nworkers = -3\n", 2, "workers"),
        ("visco", "seed = -1\n", 1, "seed"),
        ("relaxation", "band_width = 0\nseed = -2\n", 2, "seed"),
        ("relaxation", "band_width = 0.001\nseed = -2\n", 2, "seed"),
        ("plastic", "runs = 2.5\n", 1, "runs"),
        ("relaxation", "t_end = 3\ndt = nan\n", 2, "dt"),
        ("relaxation", "dt = inf\n", 1, "dt"),
        ("relaxation", "t_end = nan\n", 1, "t_end"),
        ("relaxation", "eps_bar = nan\n", 1, "eps_bar"),
        ("visco", "load_scale = nan\n", 1, "load_scale"),
        ("visco", "band_ref = nan\n", 1, "band_ref"),
        ("plastic", "band_exponent = inf\n", 1, "band_exponent"),
        ("visco", "window_exponent = nan\n", 1, "window_exponent"),
        ("plastic", "max_fixed_point_iters = 0\n", 1, "max_fixed_point_iters"),
        ("visco", "n_ref = 0\n", 1, "n_ref"),
        ("visco", "sampling = grid\n", 1, "unknown key 'sampling'"),
        ("relaxation", "n_points = 0\n", 1, "n_points"),
        ("relaxation", "band_width = nan\n", 1, "band_width"),
        ("relaxation", "metric_value = nan\n", 1, "metric_value"),
        ("plastic", "metric_value = -1\n", 1, "metric_value"),
        ("visco", "t_end = 2\nband_exponent = -1e308\n", 2, "band_exponent"),
        ("visco", "window_exponent = 1e308\n", 1, "window_exponent"),
        ("plastic", "window_exponent = -1e308\n", 1, "window_exponent"),
        ("visco", "lattice.spacing = nan\n", 1, "lattice.spacing"),
        ("plastic", "lattice.area = inf\n", 1, "lattice.area"),
    ],
    ids=[
        "unknown-key", "bad-float", "bad-boolean", "other-law", "rejected-value", "no-mesh",
        "zero-dt", "negative-t_end", "negative-workers", "negative-seed",
        "negative-seed-noiseless", "negative-seed-noisy", "fractional-runs",
        "nan-dt", "inf-dt", "nan-t_end", "nan-eps_bar", "nan-load_scale", "nan-band_ref",
        "inf-band_exponent", "nan-window_exponent", "zero-iters", "zero-n_ref",
        "removed-sampling", "zero-n_points", "nan-band_width", "nan-metric_value",
        "negative-metric_value", "overflowing-band_exponent", "vanishing-window_exponent",
        "overflowing-window_exponent", "nan-lattice.spacing", "inf-lattice.area",
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
    "argv", [["relaxation", "--mesh", "bars.mesh"], ["oracle-check", "--config", "run.cfg"]]
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
