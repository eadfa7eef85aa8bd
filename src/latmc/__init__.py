"""Gradient-based MCMC on finite lattices with global quadratic
preconditioning: samplers, calibration, diagnostics, tuning, and an
experiment harness."""

__version__ = "0.1.0"

from .errors import (
    CalibrationError,
    ConfigError,
    ContractError,
    EnumerationBudgetError,
    InvalidStateError,
    LatmcError,
    NumericGuardError,
    RankDeficiencyError,
    SupportMismatchError,
    UndefinedESSError,
)
from .targets import (
    LatticeSpec,
    TargetModel,
    QuadraticTarget,
    clock_potts,
    discrete_gaussian,
    enumerate_joint,
    integer_lattice,
    quadratic_mixture,
)
from .precondition import (
    CalibrationSample,
    Preconditioner,
    calibrate_w_energy_diff,
    calibrate_w_gradient_diff,
    exact_quadratic_preconditioner,
    factorize,
    first_order_preconditioner,
    lambda_shift,
    scaling_check,
)
from .proposals import over_relax_conditional
from .samplers import (
    ChainState,
    SamplerConfig,
    StepOutcome,
    momentum_init,
    run_chains,
    step_kernel,
    transition_terms,
)
from .diagnostics import (
    acf,
    empirical_pmf,
    ess_multichain,
    moment_report,
    tv_distance,
)
from .tuning import staged_grid_search
