"""Pseudo-spectral Benjamin-Ono evolution with windowed virial diagnostics.

The package has four layers: periodic spectral operators
(:mod:`~bovirial.spectral_core`), the integrating-factor RK4 solver and
traveling-wave family (:mod:`~bovirial.bo_solver`), weighted functionals
and term-by-term budgets (:mod:`~bovirial.virial_diagnostics`), and the
inequality calibration harness (:mod:`~bovirial.inequality_harness`).
The ``bovirial`` console script in :mod:`~bovirial.experiment_cli` drives
full scenario runs.
"""

__version__ = "0.1.0"

from .spectral_core import (
    Field,
    Grid,
    dealias,
    deriv,
    fourier_l1_deriv,
    frac_deriv,
    hilbert,
    inner,
    l2_norm,
    make_grid,
    reflect,
    zeros,
)
from .bo_solver import (
    BlowupError,
    SolitonParams,
    SolverConfig,
    TrajectoryState,
    bo_rhs,
    check_stability,
    conserved_energy,
    invariants,
    l1_growth_fit,
    profile_residual,
    profile_residual_spectral,
    run_trajectory,
    soliton,
    soliton_profile,
)
from .virial_diagnostics import (
    DiagRecord,
    EnergyBudget,
    MassBudget,
    WeightSchedule,
    diag_record,
    energy_budget,
    eta_at,
    integrated_decay,
    lambda_at,
    lambda_prime_at,
    local_energy,
    mass_budget,
    w_at,
    w_prime_at,
)
from .inequality_harness import (
    Corpus,
    LemmaReport,
    build_corpus,
    calibrate,
    check_comm,
    check_key,
    check_km1,
    check_km2,
    commutator_half,
    run_check,
)

__all__ = [
    "__version__",
    "Field", "Grid", "dealias", "deriv", "fourier_l1_deriv", "frac_deriv",
    "hilbert", "inner", "l2_norm", "make_grid", "reflect", "zeros",
    "BlowupError", "SolitonParams", "SolverConfig", "TrajectoryState",
    "bo_rhs", "check_stability", "conserved_energy", "invariants",
    "l1_growth_fit", "profile_residual", "profile_residual_spectral",
    "run_trajectory", "soliton", "soliton_profile",
    "DiagRecord", "EnergyBudget", "MassBudget", "WeightSchedule",
    "diag_record", "energy_budget", "eta_at", "integrated_decay",
    "lambda_at", "lambda_prime_at", "local_energy", "mass_budget",
    "w_at", "w_prime_at",
    "Corpus", "LemmaReport", "build_corpus", "calibrate", "check_comm",
    "check_key", "check_km1", "check_km2", "commutator_half", "run_check",
]
