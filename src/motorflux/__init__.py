"""motorflux: structure-preserving solver for coupled drift-diffusion-reaction systems.

The package discretizes n-species drift-diffusion systems with monotone
reaction coupling using exponential-fitting finite-volume fluxes, advances
them with positivity- and mass-preserving implicit/IMEX steps, computes
stationary states, and ships executable checks for the structural invariants
of the flow (conservation, positivity, comparison, L1 contraction, and
convergence to the stationary family).
"""

from . import errors
from .discretize import (
    SystemOperator,
    TransportOperator,
    assemble_system,
    assemble_transport,
    bernoulli,
    conjugate_to_neumann,
    gauge_transform,
)
from .evolve import (
    StepConfig,
    Trajectory,
    imex_dt_max,
    run,
    run_batch,
)
from .model import (
    CouplingMatrix,
    Grid,
    PotentialSpec,
    ProblemSpec,
    ReactionSpec,
    SpeciesSpec,
    State,
    ValidationReport,
    eval_potential,
    eval_reaction,
    initial_state,
    reaction_lipschitz,
    validate,
)
from .steady import (
    StationaryState,
    adjoint_null_check,
    boltzmann_profile,
    solve_null_vector,
    solve_stationary,
)
from .verify import (
    CheckReport,
    check_comparison,
    check_contraction,
    check_convergence,
    oracle_compare,
    oracle_expm,
    weighted_l1_distance,
    weighted_l1_norm,
    weighted_mass,
)

__version__ = "0.1.0"

__all__ = [
    "errors",
    "Grid", "PotentialSpec", "ReactionSpec", "SpeciesSpec", "CouplingMatrix",
    "State", "ProblemSpec", "ValidationReport", "validate",
    "eval_potential", "eval_reaction", "reaction_lipschitz",
    "initial_state",
    "bernoulli", "TransportOperator", "SystemOperator",
    "assemble_transport", "assemble_system", "conjugate_to_neumann",
    "gauge_transform",
    "StepConfig", "Trajectory", "imex_dt_max", "run", "run_batch",
    "StationaryState", "solve_null_vector", "solve_stationary",
    "adjoint_null_check", "boltzmann_profile",
    "CheckReport", "weighted_mass", "weighted_l1_norm",
    "weighted_l1_distance", "check_contraction", "check_comparison",
    "check_convergence", "oracle_expm", "oracle_compare",
]
