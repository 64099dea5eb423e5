"""Command-line front end for the truss experiments.

Subcommands: ``relaxation``, ``visco``, ``plastic``, ``convergence --kind
{visco|plastic}`` and ``oracle-check``. Options may come from flags or from
a plain key=value config file (flags win); outputs are UTF-8 CSV files with
LF line endings and a header row, written into the ``--out`` directory.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from pathlib import Path

import numpy as np

from .data import WindowRule
from .experiments import (
    RelaxationConfig,
    StudyConfig,
    build_relaxation_repository,
    build_truss_repositories,
    bv_error,
    default_study_config,
    oracle_check,
    reference_trajectory,
    run_convergence_study,
    run_relaxation,
    run_relaxation_history,
    study_generator,
    study_loads,
    study_mesh,
    study_metric,
    study_times,
    weighted_l2_error,
    write_rate_csv,
    write_relaxation_csv,
    write_study_csv,
)
from .materials import PlasticParams, SlsParams
from .solver import (
    SolverConfig,
    export_trajectory_csv,
    history_matching_march,
    time_march,
    trajectory_summary,
)
from .truss import LatticeSpec, PiecewiseLinearProgram, assemble, load_mesh

__all__ = ["main", "build_parser", "parse_config_file"]


# ---------------------------------------------------------------------------
# config file: plain "key = value" text, '#' comments


def parse_config_file(path) -> dict[str, str]:
    """Key=value lines (bare ``key value`` also accepted); '#' starts a
    comment; later keys override earlier ones."""
    out: dict[str, str] = {}
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
        out[key] = value
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


_TRUE = {"1", "true", "yes", "on"}
_FALSE = {"0", "false", "no", "off"}


def _parse_bool(text: str) -> bool:
    low = text.strip().lower()
    if low in _TRUE:
        return True
    if low in _FALSE:
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _law_from_config(kind: str, cfg: dict[str, str], base):
    """Material parameter overrides via law.e0, law.e1, law.tau1 / law.sigma1,
    law.h config keys."""
    keys = {k: v for k, v in cfg.items() if k.startswith("law.")}
    if not keys:
        return base
    if kind == "plastic":
        return PlasticParams(
            e0=float(keys.get("law.e0", base.e0)),
            e1=float(keys.get("law.e1", base.e1)),
            sigma1=float(keys.get("law.sigma1", base.sigma1)),
            h=float(keys.get("law.h", base.h)),
        )
    return SlsParams(
        e0=float(keys.get("law.e0", base.e0)),
        e1=float(keys.get("law.e1", base.e1)),
        tau1=float(keys.get("law.tau1", base.tau1)),
    )


def _lattice_from_config(cfg: dict[str, str], base: LatticeSpec) -> LatticeSpec:
    keys = {k: v for k, v in cfg.items() if k.startswith("lattice.")}
    if not keys:
        return base
    return LatticeSpec(
        nx=int(keys.get("lattice.nx", base.nx)),
        ny=int(keys.get("lattice.ny", base.ny)),
        nz=int(keys.get("lattice.nz", base.nz)),
        spacing=float(keys.get("lattice.spacing", base.spacing)),
        area=float(keys.get("lattice.area", base.area)),
        face_diagonals=_parse_bool(keys["lattice.face_diagonals"])
        if "lattice.face_diagonals" in keys
        else base.face_diagonals,
        fix_x0=_parse_bool(keys["lattice.fix_x0"])
        if "lattice.fix_x0" in keys
        else base.fix_x0,
    )


def _window_from_config(cfg: dict[str, str], base: WindowRule) -> WindowRule:
    keys = {k: v for k, v in cfg.items() if k.startswith("window.")}
    if not keys:
        return base
    halfwidth = base.halfwidth
    if "window.halfwidth" in keys:
        raw = keys["window.halfwidth"].lower()
        halfwidth = None if raw in ("none", "auto") else float(raw)
    return WindowRule(
        halfwidth=halfwidth,
        incr_factor=float(keys.get("window.incr_factor", base.incr_factor)),
        band_factor=float(keys.get("window.band_factor", base.band_factor)),
        floor=float(keys.get("window.floor", base.floor)),
    )


def _mesh_programs(cfg: dict[str, str]):
    """PRESCRIBED program tables from program.<id> config keys."""
    programs = {}
    for key, value in cfg.items():
        if key.startswith("program."):
            name = key[len("program."):]
            programs[name] = PiecewiseLinearProgram.from_breakpoints(
                _parse_breakpoints(value)
            )
    return programs or None


def _study_config(kind: str, args) -> StudyConfig:
    """Defaults <- config file <- explicit flags."""
    cfg = parse_config_file(args.config) if args.config else {}
    overrides: dict = {}
    scalar_keys = {
        "load_scale": float,
        "dt": float,
        "t_end": float,
        "band_ref": float,
        "band_exponent": float,
        "window_exponent": float,
        "metric_value": float,
        "n_ref": int,
        "seed": int,
        "runs": int,
        "workers": int,
        "max_fixed_point_iters": int,
        "sampling": str,
    }
    for key, cast in scalar_keys.items():
        if key in cfg:
            overrides[key] = cast(cfg[key])
    if "points" in cfg:
        overrides["points"] = _parse_points(cfg["points"])
    if "breakpoints" in cfg:
        overrides["breakpoints"] = _parse_breakpoints(cfg["breakpoints"])

    base = default_study_config(kind)
    overrides["law"] = _law_from_config(kind, cfg, base.law)
    overrides["lattice"] = _lattice_from_config(cfg, base.lattice)
    overrides["window"] = _window_from_config(cfg, base.window)

    mesh_path = args.mesh or cfg.get("mesh")
    if mesh_path:
        mesh, nodal = load_mesh(mesh_path, _mesh_programs(cfg))
        overrides["mesh"] = mesh
        if nodal:
            overrides["nodal_loads"] = tuple(
                (n, d, v) for (n, d), v in sorted(nodal.items())
            )

    # explicit flags win over the config file
    if args.seed is not None:
        overrides["seed"] = args.seed
    if getattr(args, "runs", None) is not None:
        overrides["runs"] = args.runs
    if getattr(args, "points", None) is not None:
        overrides["points"] = args.points
    if args.band is not None:
        overrides["band_ref"] = args.band
    if getattr(args, "workers", None) is not None:
        overrides["workers"] = args.workers
    return default_study_config(kind, **overrides)


def _out_dir(args) -> Path:
    out = Path(args.out or ".")
    out.mkdir(parents=True, exist_ok=True)
    return out


# ---------------------------------------------------------------------------
# subcommands


def _cmd_relaxation(args) -> int:
    cfg_file = parse_config_file(args.config) if args.config else {}
    kwargs: dict = {}
    for key, cast in (
        ("eps_bar", float),
        ("dt", float),
        ("t_end", float),
        ("n_points", int),
        ("band_width", float),
        ("seed", int),
        ("metric_value", float),
    ):
        if key in cfg_file:
            kwargs[key] = cast(cfg_file[key])
    kwargs["law"] = _law_from_config("visco", cfg_file, RelaxationConfig().law)
    if args.seed is not None:
        kwargs["seed"] = args.seed
    if args.band is not None:
        kwargs["band_width"] = args.band
    if args.points is not None:
        if len(args.points) != 1:
            raise ValueError("relaxation takes a single --points value")
        kwargs["n_points"] = args.points[0]
    cfg = RelaxationConfig(**kwargs)

    started = time.perf_counter()
    if args.history_matching:
        result = run_relaxation_history(cfg)
    else:
        result = run_relaxation(cfg)
    elapsed = time.perf_counter() - started

    out = _out_dir(args)
    write_relaxation_csv(result, out / "relaxation.csv")
    export_trajectory_csv(result.trajectory, out / "relaxation_trajectory.csv")
    mode = "history-matching" if args.history_matching else "differential"
    print(f"relaxation ({mode}): {result.times.size} steps in {elapsed:.3f}s")
    print(f"  max relative error vs closed form: {result.max_rel_error:.3e}")
    print(
        "  instantaneous stress/strain ratio: "
        f"{result.instantaneous_modulus_ratio!r} "
        f"(target {cfg.law.modulus_instantaneous!r})"
    )
    print(f"  wrote {out / 'relaxation.csv'} and {out / 'relaxation_trajectory.csv'}")
    return 0


def _probe_indices(sys, loads, ref) -> tuple[int, int]:
    """Loaded dof with the largest schedule force; bar with the largest
    reference stress magnitude."""
    dof = int(np.argmax(np.abs(loads.base_forces))) if sys.n_free else 0
    bar = int(np.argmax(np.max(np.abs(ref.stress), axis=0)))
    return dof, bar


def _write_probe_csv(path, times, dof, bar, traj, ref, areas) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(
            ["time", "deflection", "bar_force", "ref_deflection", "ref_bar_force"]
        )
        for k in range(times.size):
            writer.writerow(
                [
                    repr(float(times[k])),
                    repr(float(traj.displacements[k, dof])),
                    repr(float(traj.stress[k, bar] * areas[bar])),
                    repr(float(ref.displacements[k, dof])),
                    repr(float(ref.stress[k, bar] * areas[bar])),
                ]
            )


def _cmd_single_run(kind: str, args) -> int:
    cfg = _study_config(kind, args)
    n = cfg.points[-1]
    mesh = study_mesh(cfg)
    gm = study_metric(cfg, mesh)
    sys_ = assemble(mesh, gm)
    loads = study_loads(cfg, sys_)
    times = study_times(cfg)
    ref = reference_trajectory(mesh, gm, cfg.law, loads, times, sys=sys_)

    started = time.perf_counter()
    if args.history_matching:
        if kind != "visco":
            raise ValueError(
                "history matching needs a rate-dependent law whose past enters "
                "through recorded (prior, current) pairs; use the visco command"
            )
        # size the archive grids to the entry budget; big meshes get coarse
        # offset grids rather than an out-of-memory archive
        n_cur, n_ps, cap = 33, 3, 10_000_000
        per_element = cap // max(mesh.n_bars, 1)
        n_po = (per_element // n_cur - 1) // max((times.size - 1) * n_ps, 1)
        n_po = max(5, min(81, n_po))
        repos = build_truss_repositories(
            mesh, gm, cfg.law, loads, times,
            n_prior_strain=n_ps, n_prior_offset=n_po, n_current=n_cur,
        )
        traj = history_matching_march(
            mesh, gm, repos, loads, times,
            SolverConfig(max_fixed_point_iters=cfg.max_fixed_point_iters),
            sys=sys_,
        )
    else:
        generator = study_generator(cfg, n, len(cfg.points) - 1, 0)
        traj = time_march(
            mesh, gm, generator, loads, times,
            SolverConfig(max_fixed_point_iters=cfg.max_fixed_point_iters),
            sys=sys_,
        )
    elapsed = time.perf_counter() - started

    if kind == "visco":
        err = weighted_l2_error(traj, ref, cfg.law.tau1)
    else:
        err = bv_error(traj, ref)
    out = _out_dir(args)
    export_trajectory_csv(traj, out / f"{kind}_trajectory.csv")
    export_trajectory_csv(ref, out / f"{kind}_reference.csv")
    dof, bar = _probe_indices(sys_, loads, ref)
    _write_probe_csv(
        out / f"{kind}_probe.csv", times, dof, bar, traj, ref, mesh.areas
    )
    summary = trajectory_summary(traj)
    mode = "history-matching" if args.history_matching else f"{n} points/step"
    print(
        f"{kind} run ({mode}): {mesh.n_bars} bars, "
        f"{times.size} steps in {elapsed:.1f}s"
    )
    print(f"  trajectory error vs reference law: {err:.6e}")
    print(
        f"  solver: all steps converged={summary['all_converged']}, "
        f"max iterations={summary['max_iterations']}, "
        f"max equilibrium residual={summary['max_equilibrium_residual']:.3e}"
    )
    print(
        f"  probes: dof {dof} deflection, bar {bar} axial force -> "
        f"{out / (kind + '_probe.csv')}"
    )
    return 0


def _cmd_convergence(args) -> int:
    cfg = _study_config(args.kind, args)
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
    for row in result.rows:
        print(
            f"  n={row.n_points:>6}  mean={row.mean_error:.6e}  "
            f"std={row.std_error:.3e}"
        )
    if result.rate is None:
        print("  rate: not fitted (need >= 2 sizes with positive errors)")
    else:
        print(f"  fitted rate: {result.rate:.3f}")
    print(f"  wrote {out / (args.kind + '_convergence.csv')}")
    return 0


#: The oracle-check instance families as (max_elements, max_points): few
#: bars with many points, and more bars with few points, where the pair and
#: subset stages of the swap polish come into play.
ORACLE_FAMILIES = ((3, 20), (6, 5))


def _cmd_oracle_check(args) -> int:
    n_systems = args.runs if args.runs is not None else 100
    seed = args.seed if args.seed is not None else 90210
    out = _out_dir(args)
    fields = [
        "max_elements",
        "max_points",
        "n_systems",
        "n_bound_ok",
        "n_consistent",
        "max_bound_gap",
        "max_distance_mismatch",
        "n_global",
        "mean_rel_gap",
        "max_rel_gap",
        "passed",
    ]
    passed = True
    with open(out / "oracle_check.csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(fields)
        for max_elements, max_points in ORACLE_FAMILIES:
            started = time.perf_counter()
            result = oracle_check(
                n_systems, seed, max_elements=max_elements, max_points=max_points
            )
            elapsed = time.perf_counter() - started
            passed = passed and result.passed
            writer.writerow(
                [
                    max_elements,
                    max_points,
                    result.n_systems,
                    result.n_bound_ok,
                    result.n_consistent,
                    repr(result.max_bound_gap),
                    repr(result.max_distance_mismatch),
                    result.n_global,
                    repr(result.mean_rel_gap),
                    repr(result.max_rel_gap),
                    result.passed,
                ]
            )
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
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# parser


def _add_common(p: argparse.ArgumentParser, *, runs=False, workers=False) -> None:
    p.add_argument("--config", metavar="FILE", help="key=value config file")
    p.add_argument("--seed", type=int, metavar="U64", help="master seed")
    p.add_argument("--out", metavar="DIR", help="output directory (default .)")
    p.add_argument("--mesh", metavar="FILE", help="mesh file (see README)")
    p.add_argument(
        "--points",
        type=_parse_points,
        metavar="LIST",
        help="comma-separated data-set sizes",
    )
    p.add_argument("--band", type=float, metavar="REAL", help="data band width")
    if runs:
        p.add_argument("--runs", type=int, metavar="N", help="independent runs")
    if workers:
        p.add_argument(
            "--workers", type=int, metavar="N", help="parallel worker processes"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddmech",
        description="Model-free data-driven solver experiments on trusses.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "relaxation", help="held-bar stress relaxation vs the closed form"
    )
    _add_common(p)
    p.add_argument(
        "--history-matching",
        action="store_true",
        help="march against a fixed two-time archive instead of regenerating",
    )
    p.set_defaults(func=_cmd_relaxation)

    p = sub.add_parser(
        "visco", help="one viscoelastic lattice trajectory vs the reference law"
    )
    _add_common(p)
    p.add_argument(
        "--history-matching",
        action="store_true",
        help="march against two-time archives (small meshes only)",
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
        "--kind", choices=("visco", "plastic"), required=True, help="study kind"
    )
    _add_common(p, runs=True, workers=True)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser(
        "oracle-check",
        help="fixed point vs exhaustive enumeration on random small systems",
    )
    p.add_argument("--config", metavar="FILE", help="unused; accepted for symmetry")
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
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
