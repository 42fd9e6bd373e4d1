"""Stationary states of the coupled system, by one solver for every problem.

Pseudo-transient continuation (Kelley & Keyes, SIAM J. Numer. Anal. 35, 1998;
Mulder & Van Leer, J. Comput. Phys. 59, 1985) on the stepper's factor path.
F(u) = T u + (alpha lam (x) I) r(u) is the right-hand side and
J = T + (alpha lam (x) I) diag(r'(u)) its Jacobian: Metzler with w^T J = 0
for the conservation weights w_i = cell_volume/alpha_i, so K = I - tau J has
every property of a time step's K and goes through `evolve._Factored`, the
band in 1-D and SuperLU in 2-D, with every solve check.  Each step solves

    linear      K u_{k+1} = u_k, J = A factored once: inverse iteration;
    nonlinear   K d = tau F(u_k), F's w-component removed, u_{k+1} = u_k + d;

halves each entry that the step would make non-positive, rescales to the
initial weighted mass, and sets tau_{k+1} = tau_k ||F_k||/||F_{k+1}||
(switched evolution relaxation), or tau_k/2 after a step with a halved
entry; halving the whole step instead can shrink it to nothing for one
entry near zero.  The nonlinear step solves for the increment: with the
state as right-hand side, tau*(F - J u) carries rounding that the slow modes
amplify, and the iterates wander by 1e-6 at 4,096 cells.  tau*||J||_inf
starts at _FIRST_STEP and stays below _CONDITION_CAP, where K keeps its
identity in rounding; a linear problem takes the cap at once, which lets
inverse iteration pass deep potential wells.  The iteration stops once the
residual is near its floor and the update reaches round-off, 4 eps max(u),
or stops shrinking; after _MAX_STEPS steps NonConvergenceError names the
residual.  The M-matrix solve adds terms of one sign, so a species fed only
through a rate far below the others (1e-17 beside O(1)) stays positive.

Linear states are one null vector times their mass: a linear continuation
starts at the constant state, and `solve_stationary` multiplies the vector it
reaches by the data's weighted mass, so data times 2^k give exactly 2^k
times the state.  A nonlinear one starts at the data; its state of their
weighted mass is unique, as L1 contraction implies.  One acceptance rule
holds for every state: each entry finite and at least the smallest normal
double, as the exact state is, or ScalingError names the species and the
cell; and ||F(u)||_inf <= STATIONARY_TOL * ||J(u)||_inf * max(u), a backward
error free of u's scale, or NonConvergenceError.  It does not bound the
entrywise error where a deep well makes the state tiny.  Pre-checks keep
their exits: a coupling graph that is not strongly connected raises
IrreducibilityError, a transport weight or rate lost in rounding beside the
other ScalingError, as does a transport so weak (a largest diagonal below
about 5.6e-297) that tau = _CONDITION_CAP/||J||_inf would overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .discretize import SystemOperator, _block_matrix, _gauge_factors, _transports
from .errors import (
    DegenerateDataError,
    IrreducibilityError,
    NonConvergenceError,
    ScalingError,
    SolverError,
)
from .evolve import _block_weights, _cells_1d, _Factored, _implicit_matrix, _inf_norm
from .model import ProblemSpec, State, _samples, _strongly_connected
from .verify import weighted_mass

__all__ = [
    "StationaryState",
    "solve_null_vector",
    "solve_stationary",
    "adjoint_null_check",
    "boltzmann_profile",
    "STATIONARY_TOL",
]

#: residual bound of a stationary state, relative to ||J(u)||_inf * max(u)
STATIONARY_TOL = 1e-13

#: most continuation steps (solves of a linear problem) before NonConvergenceError
_MAX_STEPS = 200
#: tau_0*||J||_inf of a nonlinear problem
_FIRST_STEP = 1e6
#: largest tau*||J||_inf: I - tau*J then rounds its weighted column sums
#: within about 1e-4 of 1
_CONDITION_CAP = 1e12
#: relative residual ||F(u)||/(||J|| max u) below which the iteration may stop,
#: once its update reaches round-off or no longer shrinks; its floor is about 1e-16
_STALL = 1e-13


@dataclass(frozen=True)
class StationaryState:
    """A stationary state with its residual and normalization record."""

    state: State
    residual: float
    normalization: str
    constraint_value: float


def _left_null_vector(A: SystemOperator) -> np.ndarray:
    """The conservation vector in A's gauge; D A D^-1 is annihilated by w D^-1."""
    w = _block_weights(A.spec, 1)[0]
    if A.gauge == "neumann":
        w = w / _gauge_factors(A.spec).ravel()
    return w


def _accepted(spec: ProblemSpec, u: np.ndarray, residual: float, norm: float) -> float:
    """``residual`` = ||F(u)||_inf of the flat state u if u passes the one
    acceptance rule of the module docstring; ``norm`` is ||J(u)||_inf."""
    k = int(np.argmin(u))
    if u[k] >= np.finfo(float).tiny:  # then no entry is NaN
        k = int(np.argmax(u))
    if not np.finfo(float).tiny <= u[k] <= np.finfo(float).max:
        (i, c), over = divmod(k, spec.grid.size), bool(u[k] > 1.0)
        raise ScalingError(
            "the stationary state is not resolved in double precision although the coupling "
            f"graph is strongly connected: species {i + 1} {'over' if over else 'under'}flows "
            f"to {float(u[k])!r} at cell {c}, where the exact state is "
            f"{'finite' if over else 'positive'}")
    bound = STATIONARY_TOL * norm * float(u[k])
    if not residual <= bound:  # a NaN bound fails too
        raise NonConvergenceError(
            f"stationary residual {residual:.3e} exceeds its bound {bound:.3e}", residual=residual)
    return residual


def _require_solvable(spec: ProblemSpec, transports) -> None:
    """The pre-checks: a strongly connected coupling graph; no transport weight
    sigma/h^2 lost in rounding beside the largest rate alpha_i*|lam_ii|, no
    rate beside its species' transport diagonal, and a largest transport
    diagonal that the step cap can divide (named in that order)."""
    if not _strongly_connected(spec.coupling.lam):
        raise IrreducibilityError(
            "coupling graph is not strongly connected; the configuration is not "
            "irreducible and its weighted mass does not fix its stationary state"
        )
    eps = np.finfo(float).eps
    h = max(spec.grid.h)
    weight = min(sp.sigma for sp in spec.species) / (h * h)  # h**2 would raise beyond 1.3e154
    rates = spec.alphas * np.abs(np.diag(spec.coupling.lam))
    lost = [f"the smallest transport weight sigma/h^2 = {weight:.3e} is lost in rounding "
            f"beside the largest coupling rate alpha_i*|lam_ii| = {rates.max():.3e}"
            ] if weight <= eps * rates.max() else []
    diagonals = [float(np.abs(t.matrix.diagonal()).max()) for t in transports]
    lost += [f"the coupling rate alpha_{i}*|lam_{i}{i}| = {r:.3e} of species {i} is lost "
             f"in rounding beside its transport diagonal {d:.3e}"
             for i, (r, d) in enumerate(zip(rates, diagonals), start=1) if 0 < r <= eps * d]
    # ||J||_inf is at least the largest diagonal, so then tau = _CONDITION_CAP/||J||_inf is finite
    if not max(diagonals) * float(np.finfo(float).max) > _CONDITION_CAP:
        lost.append(f"the largest transport diagonal {max(diagonals):.3e} is too small for a "
                    f"step of tau*||J||_inf = {_CONDITION_CAP:g}")
    if lost:
        raise ScalingError("the stationary state is not resolved in double precision "
                           f"although the coupling graph is strongly connected: {lost[0]}")


def solve_null_vector(A: SystemOperator) -> StationaryState:
    """Positive null vector of the linear block operator A, of total integral
    sum_i integral(v_i) = 1.

    The continuation runs in the physical gauge from the constant state, for
    a Neumann-gauge A too; v is in A's gauge and passes the acceptance rule
    there, with ||A v||_inf <= STATIONARY_TOL * ||A||_inf * max(v).  An A
    whose I - tau*A cannot be factored raises IrreducibilityError.
    """
    spec = A.spec
    _require_solvable(spec, A.transports)
    matrix = A.matrix
    if A.gauge == "neumann":
        d = _gauge_factors(spec).ravel()
        matrix = sparse.dia_array(sparse.diags_array(1.0 / d) @ matrix @ sparse.diags_array(d))
    try:
        x, _, _ = _continuation(spec, A.transports, np.ones(matrix.shape[0]), matrix)
    except ScalingError as err:
        # with tau*||A|| capped, I - tau*A keeps its identity for any A with w^T A = 0
        raise IrreducibilityError(
            f"cannot factor I - tau*A ({err}): A does not conserve the weighted mass, "
            "so it is not the operator of an irreducible configuration") from err
    if A.gauge == "neumann":
        x *= d
    v = x / float(spec.grid.cell_volume * x.sum())
    residual = _accepted(spec, v, float(np.abs(A.matrix @ v).max()), _inf_norm(A.matrix))
    state = State(spec.grid, v.reshape(spec.n_species, -1), t=0.0, gauge=A.gauge)
    return StationaryState(state=state, residual=residual,
                           normalization="total", constraint_value=1.0)


def solve_stationary(spec: ProblemSpec, u0: State) -> StationaryState:
    """The stationary state with u0's weighted mass, for any admissible problem:
    the long-time limit of the trajectory started at u0.

    A linear state is the null vector times the data's weighted mass w . u0;
    a nonlinear continuation starts at u0, or halfway between u0 and the
    constant state of its mass where u0 is not positive.  The state passes
    the acceptance rule; data without mass raise DegenerateDataError.
    """
    mass = weighted_mass(u0, spec)  # which rejects a state in another gauge
    w = _block_weights(spec, 1)[0]
    u = u0.fields.ravel()
    if not mass > 0.0:
        raise DegenerateDataError("initial data has no mass to match")
    transports = tuple(_transports(spec))
    _require_solvable(spec, transports)
    if spec.is_linear:
        x, norm_f, norm_j = _continuation(spec, transports, np.ones(u.size),
                                          _block_matrix(spec, transports))
        ratio = mass / float(w @ x)
        with np.errstate(over="ignore"):  # an infinite entry fails the acceptance rule
            u = x * ratio
        norm_f *= ratio
    else:
        if not u.min() > 0.0:
            u = 0.5 * (u + mass / w.sum())
        u, norm_f, norm_j = _continuation(spec, transports, u)
    residual = _accepted(spec, u, norm_f, norm_j)
    state = State(spec.grid, u.reshape(spec.n_species, -1), t=0.0, gauge="physical")
    return StationaryState(state=state, residual=residual,
                           normalization="mass_matched", constraint_value=mass)


def _linearization(spec: ProblemSpec, transports, u: np.ndarray, matrix=None):
    """(J, F(u) - J u) at the flat state u; a linear problem's ``matrix`` is J, and 0 the rest."""
    if matrix is not None:
        return matrix, np.zeros_like(u)
    fields = u.reshape(spec.n_species, -1)
    slopes, excess = np.ones_like(fields), np.zeros_like(fields)
    for i, sp in enumerate(spec.species):
        if sp.reaction.kind != "linear":
            p = sp.reaction.exponent
            slopes[i] = p * fields[i] ** (p - 1.0)
            excess[i] = (1.0 - p) * fields[i] ** p  # r(u) - r'(u) u
    coupling = spec.alphas[:, None] * spec.coupling.lam
    return _block_matrix(spec, transports, slopes), (coupling @ excess).ravel()


def _continuation(spec: ProblemSpec, transports, u: np.ndarray,
                  matrix=None) -> tuple[np.ndarray, float, float]:
    """The stationary state with the weighted mass of the positive flat state u,
    with ||F||_inf and ||J||_inf at that state.

    ``matrix`` is the block operator of a linear problem, None for a
    nonlinear one; the steps are those of the module docstring.
    """
    eps = np.finfo(float).eps
    w = _block_weights(spec, 1)[0]
    mass = float(w @ u)
    cells = _cells_1d(spec)
    jacobian, excess = _linearization(spec, transports, u, matrix)
    norm_j = _inf_norm(jacobian)
    residual = jacobian @ u + excess
    norm_f = float(np.abs(residual).max())
    tau = _FIRST_STEP / norm_j if matrix is None else math.inf
    factored, out, update = None, np.empty((1, u.size)), math.inf
    for _ in range(_MAX_STEPS):
        tau = min(tau, _CONDITION_CAP / norm_j)
        if factored is None or matrix is None:
            factored = _Factored(_implicit_matrix(jacobian, tau), w, tau, cells)
        if matrix is None:
            residual -= (w @ residual) / (w @ w) * w
            finite = factored.solve((tau * residual)[None], out, project=False)
            step = out[0]
        else:
            finite = factored.solve(u[None], out)
            step = out[0] - u
        if not finite:
            raise SolverError("stationary iteration produced non-finite values")
        x = u + step
        # a non-positive entry is halved instead, and the next tau halves too
        clipped = not x.min() > 0.0
        if clipped:
            x = np.where(x > 0.0, x, 0.5 * u)
        x *= mass / float(w @ x)
        update, previous = float(np.abs(x - u).max()), update
        u = x
        if matrix is None:
            jacobian, excess = _linearization(spec, transports, u)
            norm_j = _inf_norm(jacobian)
        residual = jacobian @ u + excess
        norm_f, norm_was = float(np.abs(residual).max()), norm_f
        top = float(u.max())
        if norm_f <= _STALL * norm_j * top and (update <= 4.0 * eps * top or update >= previous):
            return u, norm_f, norm_j
        tau *= 0.5 if clipped else (norm_was / norm_f if norm_f > 0.0 else math.inf)
    raise NonConvergenceError(
        f"stationary iteration did not converge in {_MAX_STEPS} steps: residual "
        f"||F(u)||_inf = {norm_f:.3e}, last update {update:.3e}", residual=norm_f)


def adjoint_null_check(A: SystemOperator) -> float:
    """Max-norm of the conservation row vector applied to A.

    The row vector with value cell_volume/alpha_i on block i (divided by the
    gauge factors for a Neumann-gauge operator) is a left null vector of any
    correctly assembled operator, so values near round-off certify discrete
    mass conservation.
    """
    r = A.matrix.T @ _left_null_vector(A)
    return float(np.abs(r).max())


def boltzmann_profile(spec, species: int = 0) -> np.ndarray:
    """Normalized cell samples of exp(-psi/sigma) for one species.

    This is the exact single-species stationary density: the flux vanishes on
    it face by face, and here it is normalized to unit discrete integral.
    """
    prof = np.exp(-_samples(spec)[0][species] / spec.species[species].sigma)
    return prof / (spec.grid.cell_volume * prof.sum())
