"""Finite-volume solver for 1D conservation laws with computable
a-posteriori L-inf/L1 error bounds."""

from .grid import Grid1D, TimeLevels, build_grid, cfl_timestep
from .models import (
    Burgers,
    DomainError,
    PSystem,
    UnsupportedFluxError,
    make_model,
    numerical_entropy_flux,
    numerical_flux,
)
from .riemann import (
    ConvergenceError,
    VacuumError,
    Wave,
    WaveFan,
    cell_average_exact,
    solve_riemann,
)
from .solver import SpaceTimeSolution, load_solution, run, save_solution, step
from .residual import ResidualReport, epsilon, total_variation
from .partition import (
    JumpRegion,
    SlabPartition,
    SurgeTrapezoid,
    Trapezoid,
    build_surge_trapezoid,
    detect_jumps,
    detect_surges,
    inb,
    oscillation,
    partition_meso_slab,
)
from .estimator import EstimateReport, error_estimator
from .cli import CaseConfig, EoCTable, converge, eoc, linf_l1_error, run_case

# The API the README documents; every other public name stays importable.
__all__ = [
    "CaseConfig",
    "build_grid",
    "cell_average_exact",
    "converge",
    "epsilon",
    "error_estimator",
    "linf_l1_error",
    "make_model",
    "run",
    "run_case",
    "solve_riemann",
]
