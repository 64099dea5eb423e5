"""The command line: config-file keys, rejected flags and a tiny run."""

from __future__ import annotations

import pytest

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
    ],
    ids=[
        "unknown-key", "bad-float", "bad-boolean", "other-law", "rejected-value", "no-mesh",
        "zero-dt", "negative-t_end", "negative-workers", "negative-seed",
        "negative-seed-noiseless", "negative-seed-noisy", "fractional-runs",
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
