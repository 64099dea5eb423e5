"""Command-line front end for the truss experiments.

Subcommands: ``relaxation``, ``visco``, ``plastic``, ``convergence --kind
{relaxation|visco|plastic}`` and ``oracle-check``. Options may come from
flags or from a plain key=value config file (flags win). Every command but
``oracle-check`` builds a :class:`StudyConfig` from the preset of its kind,
and a config key names one of its fields; the prefixes ``law.``,
``lattice.`` and ``window.`` reach the fields of its material law, lattice
and sampling window. A lattice study also takes ``mesh``, a mesh file, and
``program.<id>``, the breakpoints of a PRESCRIBED program of that file; the
held bar of ``relaxation`` takes neither. Outputs are UTF-8 CSV files with
LF line endings and a header row, written into the ``--out`` directory.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import astuple, fields, replace
from pathlib import Path

import numpy as np

from .data import write_csv
from .experiments import (
    MAX_ARCHIVE_ENTRIES,
    OracleCheckResult,
    StudyConfig,
    build_relaxation_repository,
    build_truss_repositories,
    default_study_config,
    held_bar_exact,
    held_strain,
    oracle_check,
    reference_trajectory,
    run_convergence_study,
    study_error,
    study_generator,
    study_metric,
    study_setup,
    write_rate_csv,
    write_study_csv,
)
from .solver import (
    SolverConfig,
    export_trajectory_csv,
    history_matching_march,
    time_march,
    trajectory_summary,
)
from .truss import MechanismError, PiecewiseLinearProgram, assemble, load_mesh

__all__ = ["main", "build_parser", "parse_config_file"]


# ---------------------------------------------------------------------------
# config file: plain "key = value" text, '#' comments


def parse_config_file(path) -> dict[str, tuple[str, str]]:
    """Key=value lines (bare ``key value`` also accepted); '#' starts a
    comment; later keys override earlier ones. Maps each key to its value
    and to the ``path:line`` it came from."""
    out: dict[str, tuple[str, str]] = {}
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
        else:
            key, _, value = line.partition(" ")
        key = key.strip()
        value = value.strip()
        if not key or not value:
            raise ValueError(f"{path}:{lineno}: expected 'key = value'")
        out[key] = (value, f"{path}:{lineno}")
    return out


def _parse_points(text: str) -> tuple[int, ...]:
    parts = text.replace(",", " ").split()
    if not parts:
        raise ValueError("empty points list")
    return tuple(int(p) for p in parts)


def _parse_breakpoints(text: str) -> tuple[tuple[float, float], ...]:
    """Semicolon-separated ``time,value`` pairs: ``0,0; 10,1; 50,1``."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        fields = chunk.replace(",", " ").split()
        if len(fields) != 2:
            raise ValueError(f"breakpoint {chunk!r} is not a time,value pair")
        pairs.append((float(fields[0]), float(fields[1])))
    if not pairs:
        raise ValueError("empty breakpoint list")
    return tuple(pairs)


#: Config-key prefixes that reach the fields of a nested dataclass.
_NESTED = ("law", "lattice", "window")
#: Fields no config key sets: the command fixes the study kind, and a mesh
#: file gives the mesh and its nodal loads.
_NOT_KEYS = ("kind", "mesh", "nodal_loads")


def _config_keys(cfg) -> list[str]:
    """The config keys of ``cfg``, in field order: its fields, and
    ``<part>.<field>`` for the fields of its nested parts."""
    keys = []
    for f in fields(cfg):
        if f.name in _NESTED:
            keys += [f"{f.name}.{g.name}" for g in fields(getattr(cfg, f.name))]
        elif f.name not in _NOT_KEYS:
            keys.append(f.name)
    return keys


def _parse_value(key: str, current, text: str):
    """``text`` parsed as the type of the field's current value; a field
    left at None (a window half-width) takes a float."""
    if key == "window.halfwidth" and text.lower() in ("none", "auto"):
        return None
    if isinstance(current, int):
        return int(text)
    if isinstance(current, tuple):
        return _parse_breakpoints(text) if isinstance(current[0], tuple) else _parse_points(text)
    return float(text)


def _with_key(cfg, key: str, text: str):
    """``cfg`` with the field that config key ``key`` names set from
    ``text`` by :func:`dataclasses.replace`, so the dataclass's own checks
    run; KeyError when ``key`` is not one of :func:`_config_keys`."""
    if key not in _config_keys(cfg):
        raise KeyError(key)
    outer, _, name = key.rpartition(".")
    target = getattr(cfg, outer) if outer else cfg
    value = replace(target, **{name: _parse_value(key, getattr(target, name), text)})
    return replace(cfg, **{outer: value}) if outer else value


def _apply_config(cfg, path):
    """``cfg`` with every key of the config file at ``path`` (if any) set,
    the file's mesh path (or None) and its ``program.<id>`` programs; the
    held bar of ``relaxation`` takes neither of those two. A bad key or
    value raises ``ValueError`` naming ``path:line`` and the key."""
    lattice = cfg.kind != "relaxation"
    mesh_path, programs = None, {}
    for key, (text, where) in (parse_config_file(path) if path else {}).items():
        try:
            if lattice and key == "mesh":
                mesh_path = text
            elif lattice and key.startswith("program."):
                programs[key[len("program."):]] = PiecewiseLinearProgram.from_breakpoints(
                    _parse_breakpoints(text)
                )
            else:
                cfg = _with_key(cfg, key, text)
        except KeyError:
            raise ValueError(f"{where}: unknown key {key!r}") from None
        except ValueError as exc:
            raise ValueError(f"{where}: {key}: {exc}") from None
    return cfg, mesh_path, programs


def _with_flags(cfg, **flags):
    """``cfg`` with every flag given on the command line set; flags win
    over the config file."""
    return replace(cfg, **{k: v for k, v in flags.items() if v is not None})


def _study_config(kind: str, args) -> StudyConfig:
    """Defaults <- config file <- explicit flags."""
    cfg, mesh_path, programs = _apply_config(default_study_config(kind), args.config)
    cfg = _with_flags(
        cfg,
        seed=args.seed,
        runs=getattr(args, "runs", None),
        points=args.points,
        band_ref=args.band,
    )
    mesh_path = getattr(args, "mesh", None) or mesh_path
    if mesh_path and kind == "relaxation":
        raise ValueError("--mesh does not apply to relaxation")
    if not mesh_path:
        return cfg
    mesh, nodal = load_mesh(mesh_path, programs)
    try:
        assemble(mesh, study_metric(cfg, mesh))
    except MechanismError as exc:
        raise ValueError(f"{mesh_path}: {exc}") from None
    nodal_loads = tuple((n, d, v) for (n, d), v in sorted(nodal.items()))
    return replace(cfg, mesh=mesh, nodal_loads=nodal_loads or None)


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def _reject_data_flags(args) -> None:
    """``ValueError`` for a data flag given with ``--history-matching``: the
    archive fixes the data, so the flag would be ignored."""
    for flag, value in (("--points", args.points), ("--band", args.band)):
        if args.history_matching and value is not None:
            raise ValueError(f"{flag} does not apply to --history-matching")


def _probe_indices(sys, loads, ref) -> tuple[int, int]:
    """Loaded dof with the largest schedule force; bar with the largest
    reference stress magnitude."""
    dof = int(np.argmax(np.abs(loads.base_forces))) if sys.n_free else 0
    bar = int(np.argmax(np.max(np.abs(ref.stress), axis=0)))
    return dof, bar


def _write_probe_csv(path, times, dof, bar, traj, ref, areas) -> None:
    write_csv(
        path,
        ["time", "deflection", "bar_force", "ref_deflection", "ref_bar_force"],
        (
            (
                float(times[k]),
                float(traj.displacements[k, dof]),
                float(traj.stress[k, bar] * areas[bar]),
                float(ref.displacements[k, dof]),
                float(ref.stress[k, bar] * areas[bar]),
            )
            for k in range(times.size)
        ),
    )


def _cmd_single_run(kind: str, args) -> int:
    _reject_data_flags(args)
    cfg = _study_config(kind, args)
    n = cfg.points[-1]
    mesh, gm, system, loads, times = study_setup(cfg)
    ref = reference_trajectory(mesh, gm, cfg.law, loads, times, sys=system)
    solver_cfg = SolverConfig(max_fixed_point_iters=cfg.max_fixed_point_iters)

    started = time.perf_counter()
    if args.history_matching:
        if kind == "relaxation":
            archive = build_relaxation_repository(cfg.law, held_strain(cfg), cfg.dt)
        else:
            # size the archive grids to the entry budget; big meshes get
            # coarse offset grids rather than an out-of-memory archive
            n_cur, n_ps = 33, 3
            per_element = MAX_ARCHIVE_ENTRIES // max(mesh.n_bars, 1)
            n_po = (per_element // n_cur - 1) // max((times.size - 1) * n_ps, 1)
            n_po = max(5, min(81, n_po))
            archive = build_truss_repositories(
                mesh, gm, cfg.law, loads, times,
                n_prior_strain=n_ps, n_prior_offset=n_po, n_current=n_cur,
            )
        traj = history_matching_march(mesh, gm, archive, loads, times, solver_cfg, sys=system)
    else:
        generator = study_generator(cfg, n, len(cfg.points) - 1, 0)
        traj = time_march(mesh, gm, generator, loads, times, solver_cfg, sys=system)
    elapsed = time.perf_counter() - started

    err = study_error(cfg, traj, ref)
    out = _out_dir(args)
    export_trajectory_csv(traj, out / f"{kind}_trajectory.csv")
    if kind == "relaxation":
        stress, exact = traj.stress[:, 0], held_bar_exact(cfg)
        rel = np.abs(stress - exact) / np.abs(exact)
        columns = (times.tolist(), stress.tolist(), exact.tolist(), rel.tolist())
        write_csv(out / "relaxation.csv", ["time", "stress", "exact", "rel_error"], zip(*columns))
        report = (f"instantaneous stress/strain ratio: {float(stress[0]) / held_strain(cfg)!r} "
                  f"(target {cfg.law.modulus_instantaneous!r})")
    else:
        export_trajectory_csv(ref, out / f"{kind}_reference.csv")
        dof, bar = _probe_indices(system, loads, ref)
        _write_probe_csv(out / f"{kind}_probe.csv", times, dof, bar, traj, ref, mesh.areas)
        report = f"probes: dof {dof} deflection, bar {bar} axial force -> {kind}_probe.csv"
    summary = trajectory_summary(traj)
    mode = "history-matching" if args.history_matching else f"{n} points/step"
    print(
        f"{kind} run ({mode}): {mesh.n_bars} bars, "
        f"{times.size} steps in {elapsed:.1f}s"
    )
    print(f"  study error: {err:.6e}")
    print(
        f"  solver: all steps converged={summary['all_converged']}, "
        f"max iterations={summary['max_iterations']}, "
        f"max equilibrium residual={summary['max_equilibrium_residual']:.3e}"
    )
    print(f"  {report}; wrote {out}")
    return 0


def _cmd_convergence(args) -> int:
    cfg = _study_config(args.kind, args)
    if cfg.kind == "relaxation" and cfg.band_ref == 0.0 and len(cfg.points) > 1:
        raise ValueError("a relaxation study at band 0 has round-off errors only; give --band")
    started = time.perf_counter()
    result = run_convergence_study(cfg)
    elapsed = time.perf_counter() - started
    out = _out_dir(args)
    write_study_csv(result, out / f"{args.kind}_convergence.csv")
    write_rate_csv(result, out / f"{args.kind}_rate.csv")
    print(
        f"{args.kind} convergence study: {cfg.runs} runs x "
        f"{len(cfg.points)} sizes in {elapsed:.1f}s"
    )
    steps = cfg.runs * result.reference.n_steps
    for row in result.rows:
        print(
            f"  n={row.n_points:>6}  mean={row.mean_error:.6e}  "
            f"std={row.std_error:.3e}  unconverged={row.unconverged}/{steps}"
        )
    if result.rate is None:
        print("  rate: not fitted (need >= 2 sizes with positive errors)")
    else:
        print(f"  fitted rate: {result.rate:.3f}")
    print(f"  wrote {out / (args.kind + '_convergence.csv')}")
    if any(row.unconverged for row in result.rows):
        print(f"  warning: unconverged steps at max_fixed_point_iters = {cfg.max_fixed_point_iters}")
    return 0


#: The oracle-check instance families as (max_elements, max_points): few
#: bars with many points, more bars with few points (6 x 5, where the
#: subset stage of the swap polish shows) and more still (10 x 4, where the
#: pair stage shows).
ORACLE_FAMILIES = ((3, 20), (6, 5), (10, 4))


def _cmd_oracle_check(args) -> int:
    n_systems = args.runs if args.runs is not None else 100
    seed = args.seed if args.seed is not None else 90210
    out = _out_dir(args)
    rows = []
    for max_elements, max_points in ORACLE_FAMILIES:
        started = time.perf_counter()
        result = oracle_check(
            n_systems, seed, max_elements=max_elements, max_points=max_points
        )
        elapsed = time.perf_counter() - started
        rows.append((max_elements, max_points, *astuple(result), result.passed))
        print(
            f"oracle check: {n_systems} random systems of up to {max_elements} "
            f"bars x {max_points} points in {elapsed:.1f}s"
        )
        print(
            f"  enumerated minimum <= fixed point: {result.n_bound_ok}/{n_systems}"
            f" (max gap {result.max_bound_gap:.3e})"
        )
        print(
            f"  fixed point stable at oracle assignment: "
            f"{result.n_consistent}/{n_systems}"
        )
        print(
            f"  fixed point at the global minimum: {result.n_global}/{n_systems}"
            f" (relative gap mean {result.mean_rel_gap:.3e},"
            f" max {result.max_rel_gap:.3e})"
        )
        print("  PASS" if result.passed else "  FAIL")
    header = ["max_elements", "max_points", *(f.name for f in fields(OracleCheckResult)), "passed"]
    write_csv(out / "oracle_check.csv", header, rows)
    return 0 if all(row[-1] for row in rows) else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, *, mesh=True) -> None:
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    p.add_argument("--seed", type=int, metavar="U64", help="master seed")
    p.add_argument("--out", metavar="DIR", help="output directory (default .)")
    if mesh:
        p.add_argument("--mesh", metavar="FILE", help="mesh file (see README)")
    p.add_argument(
        "--points",
        type=_parse_points,
        metavar="LIST",
        help="comma-separated data-set sizes",
    )
    p.add_argument("--band", type=float, metavar="REAL", help="data band at 64 points")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddmech",
        description="Model-free data-driven solver experiments on trusses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "relaxation", help="held-bar stress relaxation vs the closed form"
    )
    _add_common(p, mesh=False)
    p.add_argument(
        "--history-matching",
        action="store_true",
        help="march against a fixed two-time archive instead of regenerating",
    )
    p.set_defaults(func=lambda a: _cmd_single_run("relaxation", a))

    p = sub.add_parser(
        "visco", help="one viscoelastic lattice trajectory vs the reference law"
    )
    _add_common(p)
    p.add_argument(
        "--history-matching",
        action="store_true",
        help="march against two-time archives instead of regenerating",
    )
    p.set_defaults(func=lambda a: _cmd_single_run("visco", a))

    p = sub.add_parser(
        "plastic", help="one plastic lattice trajectory vs the reference law"
    )
    _add_common(p)
    p.set_defaults(
        func=lambda a: _cmd_single_run("plastic", a), history_matching=False
    )

    p = sub.add_parser(
        "convergence", help="error-vs-data-size study with rate fit"
    )
    p.add_argument(
        "--kind", choices=("relaxation", "visco", "plastic"), required=True, help="study kind"
    )
    _add_common(p)
    p.add_argument("--runs", type=int, metavar="N", help="independent runs")
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser(
        "oracle-check",
        help="fixed point vs exhaustive enumeration on random small systems",
    )
    p.add_argument("--seed", type=int, metavar="U64", help="master seed")
    p.add_argument("--out", metavar="DIR", help="output directory (default .)")
    p.add_argument("--runs", type=int, metavar="N", help="number of systems per family")
    p.set_defaults(func=_cmd_oracle_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MechanismError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
