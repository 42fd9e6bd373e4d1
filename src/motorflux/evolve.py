"""Time integration: implicit Euler for linear problems, IMEX for nonlinear ones.

The implicit step solves (I - dt*A) u+ = u.  Since A is Metzler with
volume-weighted zero column sums, I - dt*A is a nonsingular M-matrix for any
dt > 0: its inverse is entrywise nonnegative, so nonnegative states stay
nonnegative and cellwise ordering of two states is preserved.  The left null
vector of A makes the weighted total mass exact up to solver round-off.

Nonlinear reactions are split off explicitly:

    stage 1   v_i = u_i + dt * alpha_i * sum_j lam[i,j] * r_j(u_j)
    stage 2   (I - dt * T_i) u+_i = v_i          (per-species transport)

Stage 1 keeps v >= 0 provided dt <= dt_max = min_i 1/(alpha_i*|lam[i,i]|*L_i),
where L_i bounds the slope of r_i on [0, max(u_i)]: the only negative
contribution to v_i is -dt*alpha_i*|lam[i,i]|*r_i(u_i) >= -u_i under that
bound.  Stage 1 conserves the weighted mass identically because the columns
of lam sum to zero; stage 2 conserves it like any implicit transport step.

Every implicit solve goes through one stepper per step size: it factors
K = I - dt*M once by sparse LU (SuperLU) and reuses the factors for every
step of that size.  M is the assembled block operator of a linear problem,
or one species' transport operator under IMEX.  An exact solve inherits the
M-matrix guarantees up to round-off; ``lin_tol`` bounds the normwise
backward error of each solve,

    ||b - K x||_inf <= lin_tol * (||K||_inf * ||x||_inf + ||b||_inf),

and a solve that misses it raises SolverError.

`run_batch` advances any number of trajectories of one (problem, dt) in
lockstep: every factorization solves all of them in one multi-RHS call, one
column per trajectory, and each column is checked against its own bound.
`run` is its batch of one.  The pair checks in `verify` step both of their
trajectories this way, so a failure in either one raises at the first failing
step of the pair, with ``.time`` set to that step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .discretize import SystemOperator, TransportOperator, assemble_system, assemble_transport
from .errors import (
    ConfigError,
    InvariantViolationError,
    MotorfluxError,
    SolverError,
    StepSizeError,
)
from .model import (
    ProblemSpec,
    State,
    eval_reaction,
    initial_state,
    reaction_lipschitz,
    validate,
)

__all__ = [
    "StepConfig",
    "SnapshotDiagnostics",
    "Trajectory",
    "step_linear_implicit",
    "step_imex",
    "imex_dt_max",
    "run",
    "run_batch",
]

#: slack for "nonnegative" state checks; round-off below this is tolerated
_NEG_SLACK = 1e-13


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping parameters.

    ``lin_tol`` bounds the normwise backward error of every implicit solve
    (see the module docstring); 0 accepts only exact residuals.
    """

    dt: float
    t_end: float
    stride: int = 1
    lin_tol: float = 1e-12

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ConfigError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if not (self.lin_tol >= 0.0 and math.isfinite(self.lin_tol)):
            raise ConfigError(f"lin_tol must be nonnegative and finite, got {self.lin_tol}")
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")


@dataclass(frozen=True)
class SnapshotDiagnostics:
    time: float
    weighted_mass: float
    species_min: tuple[float, ...]
    species_l1: tuple[float, ...]


@dataclass(frozen=True)
class Trajectory:
    """Recorded snapshots of one run, with per-snapshot diagnostics."""

    states: tuple[State, ...]
    diagnostics: tuple[SnapshotDiagnostics, ...]

    def __post_init__(self):
        if len(self.states) != len(self.diagnostics):
            raise ValueError("one diagnostics record per snapshot required")
        times = [s.t for s in self.states]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(s.t for s in self.states)

    @property
    def final(self) -> State:
        return self.states[-1]


def _diagnose(state: State, spec: ProblemSpec) -> SnapshotDiagnostics:
    vol = state.grid.cell_volume
    l1 = vol * np.abs(state.fields).sum(axis=1)
    mass = float(np.sum(vol * state.fields.sum(axis=1) / spec.alphas))
    return SnapshotDiagnostics(
        time=state.t,
        weighted_mass=mass,
        species_min=tuple(float(v) for v in state.fields.min(axis=1)),
        species_l1=tuple(float(v) for v in l1),
    )


# ---------------------------------------------------------------------------
# the implicit stepper


class _Factored:
    """K = I - dt*M factored once; every solve is checked against ``tol``."""

    def __init__(self, matrix: sparse.csr_array, dt: float, tol: float):
        # the residual uses this CSC K; keeping a CSR copy too cost imex1d +11 MB peak RSS
        self._k = sparse.csc_array(sparse.eye_array(matrix.shape[0], format="csr") - dt * matrix)
        self._k_norm = float(abs(self._k).sum(axis=1).max())
        self._tol = tol
        # minimum-degree ordering on K^T+K and no supernodes keep the factors
        # near band size; SuperLU's defaults cost +23-43 MB at 131,072 unknowns
        self._lu = splu(self._k, permc_spec="MMD_AT_PLUS_A", panel_size=1, relax=1)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """Solve K x = b_j for every row b_j of the C-contiguous ``b``; rows of the result."""
        # b.T is a Fortran-ordered view: one RHS column per trajectory, no copy
        x = self._lu.solve(b.T).T
        for b_j, x_j in zip(b, x):
            # each column keeps its own bound: a max over the batch would let
            # one trajectory's scale hide another's miss.  Normwise backward
            # error, since a plain ||r||/||b|| reads 2.6e-9 from round-off
            # alone at 65,536 cells
            residual = float(np.abs(b_j - self._k @ x_j).max())
            bound = self._tol * (self._k_norm * float(np.abs(x_j).max())
                                 + float(np.abs(b_j).max()))
            if not residual <= bound:
                raise SolverError(
                    f"linear solve missed lin_tol={self._tol:g}: "
                    f"residual {residual:.3e} > bound {bound:.3e}",
                    residual=residual,
                )
        return x


class _Stepper:
    """Steps of one size dt: the explicit reaction stage if any, then implicit solves.

    A step maps a batch array of shape (blocks, trajectories, block size) to
    the next one, with one block per matrix: the whole state of a trajectory
    for a linear problem's block operator, one species per transport operator
    under IMEX, where ``reactions`` supplies the reaction stage.  Factoring
    per species rather than one block-diagonal matrix keeps peak memory lower.
    """

    def __init__(self, matrices, dt: float, lin_tol: float,
                 reactions: ProblemSpec | None = None):
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self._dt = dt
        self._reactions = reactions
        self._factors = [_Factored(m, dt, lin_tol) for m in matrices]

    def step(self, u: np.ndarray) -> np.ndarray:
        if self._reactions is not None:
            # the bound of the batch is the smallest bound of its trajectories
            dt_max = min(_dt_max(self._reactions, peaks) for peaks in u.max(axis=2).T)
            if self._dt > dt_max:
                raise StepSizeError(
                    f"dt={self._dt:g} exceeds the positivity bound dt_max={dt_max:g}",
                    dt_max=dt_max,
                )
            u = _reaction_stage(u, self._reactions, self._dt)
        out = np.stack([f.solve(block) for f, block in zip(self._factors, u)])
        # States are built only for snapshots, so their finiteness check does
        # not see every step; a residual of inf passes a bound of inf
        if not np.isfinite(out).all():
            raise SolverError("implicit solve produced non-finite values")
        return out

    def step_state(self, state: State, t: float) -> State:
        """One step of a single state, for the public one-step functions."""
        u = self.step(_batch((state,), len(self._factors)))
        return state.with_fields(u[:, 0].reshape(state.fields.shape), t=t)


def _batch(states, blocks: int) -> np.ndarray:
    """Stack states into a (blocks, trajectories, block size) batch array."""
    return np.stack([s.fields.reshape(blocks, -1) for s in states], axis=1)


def _require_physical(state: State, who: str) -> None:
    if state.gauge != "physical":
        raise ValueError(f"{who} expects a physical-gauge state")
    low = float(state.fields.min()) if state.fields.size else 0.0
    if low < -_NEG_SLACK:
        raise ValueError(f"state must be nonnegative; min value {low!r}")


# ---------------------------------------------------------------------------
# steps


def step_linear_implicit(state: State, A: SystemOperator, dt: float, *,
                         lin_tol: float = 1e-12) -> State:
    """One implicit Euler step of the assembled linear system.

    Positivity and weighted-mass conservation hold for any dt > 0 by the
    M-matrix structure of I - dt*A.
    """
    _require_physical(state, "step_linear_implicit")
    return _Stepper((A.matrix,), dt, lin_tol).step_state(state, state.t + dt)


def imex_dt_max(state: State, spec: ProblemSpec) -> float:
    """Largest admissible IMEX step for this state: min_i 1/(alpha_i*|lam_ii|*L_i).

    L_i is the Lipschitz bound of r_i on [0, max(u_i)]; for a power law p it
    is p * max(u_i)**(p-1).  Species with lam_ii = 0 impose no bound.
    """
    return _dt_max(spec, state.fields.max(axis=1))


def _dt_max(spec: ProblemSpec, peaks: np.ndarray) -> float:
    """imex_dt_max for the per-species maxima ``peaks`` of one state."""
    bound = math.inf
    lam = spec.coupling.lam
    for i, sp in enumerate(spec.species):
        rate = sp.alpha * abs(lam[i, i])
        if rate == 0.0:
            continue
        lip = reaction_lipschitz(sp.reaction, max(float(peaks[i]), 0.0))
        if lip == 0.0:
            continue
        bound = min(bound, 1.0 / (rate * lip))
    return bound


def _reaction_stage(u: np.ndarray, spec: ProblemSpec, dt: float) -> np.ndarray:
    """Explicit reaction stage of a (species, trajectories, cells) batch."""
    clipped = np.maximum(u, 0.0)  # round-off negatives within _NEG_SLACK
    rates = np.stack([
        np.asarray(eval_reaction(sp.reaction, clipped[i]))
        for i, sp in enumerate(spec.species)
    ])
    # one matmul over the whole batch; each column equals its own trajectory's
    mixed = (spec.coupling.lam @ rates.reshape(spec.n_species, -1)).reshape(rates.shape)
    out = u + dt * (spec.alphas[:, None, None] * mixed)
    low = float(out.min())  # one check over every trajectory of the batch
    if low < -_NEG_SLACK:
        raise InvariantViolationError(
            f"explicit reaction stage produced {low!r} < -{_NEG_SLACK:g} "
            "despite the step-size bound"
        )
    return out


def step_imex(state: State, spec: ProblemSpec,
              operators: tuple[TransportOperator, ...], dt: float, *,
              lin_tol: float = 1e-12) -> State:
    """One IMEX step: explicit reactions, then implicit per-species transport."""
    _require_physical(state, "step_imex")
    if len(operators) != spec.n_species:
        raise ValueError("need one transport operator per species")
    matrices = tuple(op.matrix for op in operators)
    return _Stepper(matrices, dt, lin_tol, reactions=spec).step_state(state, state.t + dt)


# ---------------------------------------------------------------------------
# trajectory driver


def run(spec: ProblemSpec, cfg: StepConfig, initial: State | None = None) -> Trajectory:
    """Advance the problem to t_end, recording every ``stride``-th step and the end.

    Linear problems use the assembled block operator; any nonlinear reaction
    switches the run to IMEX splitting.  ``initial`` overrides the sampled
    initial data (used by the verification checks).  This is `run_batch`
    with one trajectory.
    """
    return run_batch(spec, cfg, (initial,))[0]


def run_batch(spec: ProblemSpec, cfg: StepConfig, initials) -> tuple[Trajectory, ...]:
    """Advance one trajectory per entry of ``initials`` in lockstep, as `run` does.

    An entry of None stands for the sampled initial data.  All trajectories
    share each factorization and each solve call.  A failure in any of them
    raises at the first failing step, with ``.time`` set to that step.
    """
    report = validate(spec)
    if not report.ok:
        raise ConfigError("invalid problem: " + "; ".join(report.violations))
    states = tuple(initial_state(spec) if s is None else s for s in initials)
    if not states:
        raise ValueError("run_batch needs at least one initial state")
    for state in states:
        _require_physical(state, "run")
        if state.fields.shape != (spec.n_species, spec.grid.size):
            raise ValueError("initial state does not match the problem layout")

    snapshots = [[s] for s in states]
    diags = [[_diagnose(s, spec)] for s in states]
    if cfg.t_end <= 0.0:
        return tuple(Trajectory(tuple(s), tuple(d)) for s, d in zip(snapshots, diags))

    n_full = int(math.floor(cfg.t_end / cfg.dt + 1e-9))
    remainder = cfg.t_end - n_full * cfg.dt
    n_steps = n_full + (remainder > 1e-12 * cfg.dt)

    if spec.is_linear:
        matrices, reactions = (assemble_system(spec).matrix,), None
    else:
        matrices = tuple(
            assemble_transport(spec.grid, sp.sigma, sp.potential, species=i).matrix
            for i, sp in enumerate(spec.species)
        )
        reactions = spec

    u = _batch(states, len(matrices))
    stepper = None
    for k in range(1, n_steps + 1):
        full = k <= n_full
        if k in (1, n_full + 1):  # factor for cfg.dt, and again for a remainder step
            stepper = None  # release the previous factors first
            stepper = _Stepper(matrices, cfg.dt if full else remainder, cfg.lin_tol, reactions)
        t_next = k * cfg.dt if full else cfg.t_end
        try:
            u = stepper.step(u)
        except MotorfluxError as err:
            err.time = t_next
            raise
        if k % cfg.stride == 0 or k == n_steps:
            for j, state in enumerate(states):
                snap = state.with_fields(u[:, j].reshape(state.fields.shape), t=t_next)
                snapshots[j].append(snap)
                diags[j].append(_diagnose(snap, spec))
    return tuple(Trajectory(tuple(s), tuple(d)) for s, d in zip(snapshots, diags))
