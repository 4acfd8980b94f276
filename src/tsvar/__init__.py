"""Variational calculus on finite time scales.

Delta/nabla difference calculus on finite isolated scales, composite
variational functionals with two residual formulations, a damped Newton
solver, and a firm production/investment model whose discretization
variants the ``tsvar`` command line compares.
"""

from .timescale import DomainError, GridFunction, PointNotInScaleError, TimeScale
from .variational import (
    CLAMPED,
    STRICT,
    BoundaryMismatchError,
    CompositeProblem,
    Integrand,
    OuterFunction,
    check_integrand_partials,
    corollary_z_residual,
    eval_component_integrals,
    eval_functional,
    identity_outer,
    product_outer,
    sum_outer,
    theorem_main_residual,
)
from .solver import (
    DEFAULT_GRID,
    MAX_STARTS,
    ResidualSystem,
    SolveReport,
    SolverConfig,
    default_start_grid,
    fd_jacobian,
    lockstep_solve,
    multistart_solve,
    newton_solve,
)
from .econ import (
    MAX_HORIZON,
    EquationKind,
    FirmParams,
    ProblemKind,
    firm_integrand,
    firm_problem,
    gamma_term,
    residual_system,
)
from .cli import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    emit_table,
    main,
    parse_config,
    run_table,
)

__version__ = "0.1.0"

__all__ = [
    "BoundaryMismatchError",
    "CLAMPED",
    "CompositeProblem",
    "ConfigError",
    "DEFAULT_GRID",
    "DomainError",
    "EquationKind",
    "ExperimentConfig",
    "FirmParams",
    "GridFunction",
    "Integrand",
    "MAX_HORIZON",
    "MAX_STARTS",
    "OuterFunction",
    "PointNotInScaleError",
    "ProblemKind",
    "ResidualSystem",
    "ResultRow",
    "STRICT",
    "SolveReport",
    "SolverConfig",
    "TimeScale",
    "check_integrand_partials",
    "corollary_z_residual",
    "default_start_grid",
    "emit_table",
    "eval_component_integrals",
    "eval_functional",
    "fd_jacobian",
    "firm_integrand",
    "firm_problem",
    "gamma_term",
    "identity_outer",
    "lockstep_solve",
    "main",
    "multistart_solve",
    "newton_solve",
    "parse_config",
    "product_outer",
    "residual_system",
    "run_table",
    "sum_outer",
    "theorem_main_residual",
    "__version__",
]
