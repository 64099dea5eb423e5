"""Model-free data-driven solver for inelastic truss structures.

States live in a per-element (strain, stress) phase space equipped with a
weighted energetic metric. Each time step is solved by alternating between
the affine subspace of compatible-and-equilibrated states and a material
data set sampled around the previous state, until the data assignment
repeats. History dependence enters through the data set itself: the sets
are regenerated each step conditioned on the accepted local states (and
internal variables, for rate-independent behaviour), or assembled from
two-time archives of recorded transitions.

BLAS runs one thread in a process that imports this package before numpy,
as the ``ddmech`` commands do, unless ``OPENBLAS_NUM_THREADS``,
``OMP_NUM_THREADS`` or ``MKL_NUM_THREADS`` is set: the solver's matrices
are a few hundred rows, where BLAS threads only compete with the
processes of a study's pool. A caller that imported numpy first keeps its
setting.
"""

import os as _os
import sys as _sys

_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if "numpy" not in _sys.modules and not any(v in _os.environ for v in _BLAS_THREAD_VARS):
    # BLAS reads these once, when numpy loads it
    for _var in _BLAS_THREAD_VARS:
        _os.environ[_var] = "1"

from .data import (
    GeneratorSpec,
    HistoryRepository,
    StackedSets,
    WindowRule,
    batch_nearest,
    history_cost_dataset,
    stack_sets,
    update_history_variable,
    write_csv,
)
from .experiments import (
    DEFAULT_PLASTIC,
    DEFAULT_SLS,
    PLASTIC_BREAKPOINTS,
    VISCO_BREAKPOINTS,
    ConvergenceRow,
    OracleCheckResult,
    StudyConfig,
    StudyResult,
    build_relaxation_repository,
    build_truss_repositories,
    bv_error,
    default_study_config,
    fit_loglog_slope,
    held_bar_exact,
    held_strain,
    oracle_check,
    random_small_instance,
    reference_trajectory,
    relaxation_mesh,
    run_convergence_study,
    small_truss_fixture,
    study_error,
    study_generator,
    study_loads,
    study_mesh,
    study_metric,
    study_setup,
    study_times,
    weighted_l2_error,
    write_rate_csv,
    write_study_csv,
)
from .materials import (
    PlasticParams,
    ReturnMapResult,
    SlsParams,
    plastic_return_map,
    sls_affine_coefficients,
    sls_relaxation_exact,
)
from .phase import GlobalMetric, GlobalState
from .solver import (
    SolverConfig,
    StepResult,
    Trajectory,
    enumerate_global_min,
    export_trajectory_csv,
    fixed_point_solve,
    history_matching_march,
    time_march,
    trajectory_summary,
)
from .truss import (
    ConstraintSystem,
    LatticeSpec,
    LoadProgram,
    MechanismError,
    PiecewiseLinearProgram,
    Prescribed,
    TrussMesh,
    assemble,
    generate_lattice_truss,
    load_mesh,
)

__version__ = "0.1.0"

__all__ = [
    # phase space
    "GlobalMetric",
    "GlobalState",
    # material laws
    "SlsParams",
    "PlasticParams",
    "ReturnMapResult",
    "sls_affine_coefficients",
    "sls_relaxation_exact",
    "plastic_return_map",
    # truss mechanics
    "TrussMesh",
    "LatticeSpec",
    "generate_lattice_truss",
    "PiecewiseLinearProgram",
    "Prescribed",
    "LoadProgram",
    "ConstraintSystem",
    "assemble",
    "MechanismError",
    "load_mesh",
    # data sets
    "StackedSets",
    "stack_sets",
    "batch_nearest",
    "WindowRule",
    "GeneratorSpec",
    "update_history_variable",
    "HistoryRepository",
    "history_cost_dataset",
    "write_csv",
    # solver
    "SolverConfig",
    "StepResult",
    "fixed_point_solve",
    "enumerate_global_min",
    "Trajectory",
    "time_march",
    "history_matching_march",
    "export_trajectory_csv",
    "trajectory_summary",
    # experiments
    "DEFAULT_SLS",
    "DEFAULT_PLASTIC",
    "VISCO_BREAKPOINTS",
    "PLASTIC_BREAKPOINTS",
    "weighted_l2_error",
    "bv_error",
    "fit_loglog_slope",
    "reference_trajectory",
    "relaxation_mesh",
    "held_strain",
    "held_bar_exact",
    "build_relaxation_repository",
    "StudyConfig",
    "ConvergenceRow",
    "StudyResult",
    "study_mesh",
    "study_loads",
    "study_times",
    "study_metric",
    "study_setup",
    "study_generator",
    "study_error",
    "run_convergence_study",
    "default_study_config",
    "small_truss_fixture",
    "build_truss_repositories",
    "OracleCheckResult",
    "oracle_check",
    "random_small_instance",
    "write_study_csv",
    "write_rate_csv",
    "__version__",
]
