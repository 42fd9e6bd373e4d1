"""Time integration: implicit Euler for linear problems, IMEX for nonlinear ones.

The implicit step solves (I - dt*A) u+ = u.  Since A is Metzler with
volume-weighted zero column sums, I - dt*A is a nonsingular M-matrix for any
dt > 0: its inverse is entrywise nonnegative, so nonnegative states stay
nonnegative and cellwise ordering of two states is preserved.  The left null
vector of A conserves the weighted total mass; the stepper projects every
solve back onto it (below), so the mass is exact to round-off.

Nonlinear reactions are split off explicitly:

    stage 1   v_i = u_i + sum_j c[i,j] * r_j(u_j)    c[i,j] = dt * (alpha_i * lam[i,j])
    stage 2   (I - dt * T_i) u+_i = v_i              (per-species transport)

The stepper scales c once per step size, so stage 1 is one matrix product
over the whole batch and one addition.  The powers r(s) = s**2 and s**3
are products s*s and s*s*s, not libm pow (`motorflux.model.eval_power`).

Stage 1 keeps v >= 0 provided dt <= dt_max = min_i 1/(alpha_i*|lam[i,i]|*L_i),
where L_i bounds the slope of r_i on [0, max(u_i)]: the only negative
contribution to v_i is -dt*alpha_i*|lam[i,i]|*r_i(u_i) >= -u_i under that
bound.  Stage 1 conserves the weighted mass identically because the columns
of lam sum to zero; stage 2 conserves it like any implicit transport step.

Every implicit solve goes through one stepper per step size: it factors
K = I - dt*M once and reuses the factors for every step of that size.  M is
the assembled block operator of a linear problem, or one species' transport
operator under IMEX.

How K is factored depends only on K.  The Scharfetter-Gummel fluxes satisfy
detailed balance, K[i+1,i]/K[i,i+1] = exp(-s) on every face, so a 1-D
transport block is tridiagonal with positive products K[i+1,i]*K[i,i+1].
The diagonal scale S with s_{i+1}/s_i = sqrt(K[i+1,i]/K[i,i+1]) (log s
centred on its range) makes S^-1 K S symmetric positive definite: it is
similar to K, whose eigenvalues are >= 1.  LAPACK pttrf factors it as
L D L^T, and each solve is x = s * pttrs(b/s), without pivoting.  That takes
about 0.17 ms per right-hand side at 16,384 cells against 0.45 ms for
SuperLU (2-vCPU x86-64 host, one BLAS thread).  The scaling costs no
stability however wide the span of psi/sigma: the error of the symmetric
solve maps back through S, which turns the entries of S^-1 K S back into
those of K, so only neighbour ratios of s enter.  Every other K goes to
sparse LU (SuperLU): 2-D blocks, the coupled block operator of a linear
problem, a scale beyond 2^(+-256), and a K that pttrf finds not positive
definite.

An exact solve inherits the M-matrix guarantees up to round-off; ``lin_tol``
bounds the normwise backward error of each solve,

    ||b - K x||_inf <= lin_tol * (||K||_inf * ||x||_inf + ||b||_inf),

and a solve that misses it raises SolverError.  The bound is taken lazily:
the residual is first held against lin_tol * ||K||_inf * ||x||_inf, and
only when it exceeds that is ||b||_inf taken and the full bound tested.  For
lin_tol >= 0 rounding is monotone, so the lazy bound is never above the full
one and the two accept the same solves; error messages report the full
bound.  A NaN in b reaches the residual, which then fails both.  The max|x|
that the bound takes also checks finiteness: a NaN propagates through it and
an inf shows, so a non-finite solution raises SolverError after the step's
last solve, without a separate pass over the state.

Conservative projection.  Rounding in K (its weighted column sums miss 1 by
up to 2.6e-9 relative at 65,536 cells) and inside the solve each drift the
weighted mass by about 1e-10 over 40 steps.  So every checked solution
column is scaled by (w.b)/(w.x), where w holds the conservation weights
cell_volume/alpha_i of the block (w^T M = 0): uniform per species under
IMEX, the block weights for a linear problem.  Since w is constant on each
species segment, w.v is a weighted sum of numpy's pairwise segment sums: no
BLAS call, whose threads would wake twice per column, and a batch column gets
the same value as its run alone.  A positive factor keeps positivity and
ordering within round-off, where an additive shift could push a zero cell
negative.  The projection cannot hide a broken solve: since
w.b - w.x = w.(b - Kx) + (w^T K - w^T).x, a correct solve has

    |w.b - w.x| <= ||w||_1 * bound + |w^T K - w^T| . |x|,

with ``bound`` the column's own backward-error bound and |w^T K - w^T| the
rounding defect of K's weighted column sums, taken once per factorization.
The guard, too, tries ||w||_1 times the lazy bound first and takes the full
bound and the defect term before it raises.
A column beyond that, or one whose factor is not positive and finite (w.x = 0
while w.b != 0), raises SolverError.  Columns with w.b = w.x, such as
all-zero blocks, are left as they are.

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
from scipy.linalg.lapack import dpttrf, dpttrs
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
    eval_power,
    initial_state,
    reaction_lipschitz,
    validate,
)

__all__ = [
    "MAX_STEPS",
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

#: most time steps one run may take (t_end/dt): a larger count is a config
#: error, so an absurd t_end or a tiny dt fails at once instead of running for days
MAX_STEPS = 1_000_000


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping parameters.

    ``lin_tol`` bounds the normwise backward error of every implicit solve
    (see the module docstring); 0 accepts only exact residuals.  ``t_end/dt``
    may not exceed MAX_STEPS.
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
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ConfigError(
                f"t_end/dt = {self.t_end / self.dt:.6g} steps exceed the cap of {MAX_STEPS}"
            )
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


#: columns per chunk when collecting the diagonals of K
_DIA_CHUNK = 16384


def _offsets(k: sparse.csc_array) -> np.ndarray:
    """The offsets j - i of the diagonals that hold stored entries of ``k``, ascending."""
    n = k.shape[1]
    seen = np.zeros(2 * n - 1, dtype=bool)  # offset + n - 1 for offsets in (-n, n)
    for start in range(0, n, _DIA_CHUNK):
        stop = min(start + _DIA_CHUNK, n)
        cols = np.repeat(np.arange(start, stop), np.diff(k.indptr[start:stop + 1]))
        seen[cols - k.indices[k.indptr[start]:k.indptr[stop]] + (n - 1)] = True
    return np.flatnonzero(seen) - (n - 1)


def _diagonals(k: sparse.csc_array) -> sparse.dia_array:
    """``k`` in DIA format, one diagonal at a time.

    The assembled operators have a few full diagonals (3 per species in 1-D,
    5 in 2-D, plus the coupling blocks), so a DIA matvec reads no indices.
    scipy's own conversion holds about five times the result in temporaries;
    marking the offsets chunk by chunk holds about one and sorts nothing.
    """
    n = k.shape[1]
    offsets = _offsets(k)
    data = np.zeros((len(offsets), n))
    for row, off in zip(data, offsets):
        # DIA keeps entry (i, i + off) in column i + off
        row[max(off, 0):n + min(off, 0)] = k.diagonal(off)
    return sparse.dia_array((data, offsets), shape=k.shape)


#: log s is centred and capped at 256*ln 2, so s and 1/s stay within 2^(+-256):
#: b/s and s*y cannot overflow for any |b| below 1e231, and the rounding of the
#: neighbour ratios s_{i+1}/s_i (a few ulps times |log s|) stays below 1e-13
_LOG_SCALE_CAP = 256 * math.log(2.0)


class _SymmetrizedTridiagonal:
    """LAPACK pttrf factors of S^-1 K S for a tridiagonal K, solved like SuperLU.

    When K[i+1,i]*K[i,i+1] > 0 for every i, the diagonal scale with
    s_{i+1}/s_i = sqrt(K[i+1,i]/K[i,i+1]) makes S^-1 K S symmetric: its
    diagonal is diag(K) and its off-diagonal sign(K[i+1,i])*sqrt(K[i+1,i]*K[i,i+1]).
    Then K x = b is x = s * y with (S^-1 K S) y = b/s, and pttrs solves that
    without pivoting.  `factor` returns None for any other matrix, for a scale
    beyond _LOG_SCALE_CAP and when pttrf finds S^-1 K S not positive definite.
    """

    def __init__(self, d: np.ndarray, e: np.ndarray, scale: np.ndarray):
        self._d, self._e = d, e
        self._scale = scale
        self._inverse_scale = 1.0 / scale

    @classmethod
    def factor(cls, k: sparse.csc_array) -> _SymmetrizedTridiagonal | None:
        if _offsets(k).tolist() != [-1, 0, 1]:
            return None
        lower, upper = k.diagonal(-1), k.diagonal(1)
        product = lower * upper
        if not (np.all(product > 0.0) and np.all(product < math.inf)):
            return None
        log_scale = np.zeros(k.shape[0])
        np.cumsum(0.5 * np.log(lower / upper), out=log_scale[1:])
        log_scale -= 0.5 * (log_scale.max() + log_scale.min())
        if not log_scale.max() <= _LOG_SCALE_CAP:  # also False for NaN
            return None
        d, e, info = dpttrf(k.diagonal(), np.copysign(np.sqrt(product), lower))
        if info != 0:
            return None
        return cls(d, e, np.exp(log_scale))

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x = s * pttrs(b/s) for each column of the Fortran-ordered (n, k) ``b``."""
        # scaling the C-ordered rows keeps y Fortran-ordered, so pttrs solves in place
        y = (b.T * self._inverse_scale).T
        y, _ = dpttrs(self._d, self._e, y, overwrite_b=1)
        y *= self._scale[:, None]
        return y


def _segments(w: np.ndarray) -> tuple[tuple[int, int, float], ...]:
    """(start, stop, weight) over the runs of equal entries of ``w``."""
    edges = [0, *(np.flatnonzero(np.diff(w)) + 1).tolist(), len(w)]
    return tuple((a, b, float(w[a])) for a, b in zip(edges, edges[1:]))


class _Factored:
    """K = I - dt*M factored once; every solve is checked against ``tol``
    and projected onto the conservation weights ``w`` (w^T M = 0)."""

    def __init__(self, matrix: sparse.csr_array, w: np.ndarray, dt: float, tol: float):
        k = sparse.csc_array(sparse.eye_array(matrix.shape[0], format="csr") - dt * matrix)
        self._k_norm = float(abs(k).sum(axis=1).max())
        self._tol = tol
        self._w_norm = float(np.abs(w).sum())
        self._segments = _segments(w)
        self._defect = np.abs(k.T @ w - w)
        # minimum-degree ordering on K^T+K and no supernodes keep SuperLU's
        # factors near band size; its defaults cost +23-43 MB at 131,072 unknowns
        self._solver = (_SymmetrizedTridiagonal.factor(k)
                        or splu(k, permc_spec="MMD_AT_PLUS_A", panel_size=1, relax=1))
        # the residual matvec runs on DIA, which halves its time.  The copy is
        # made after SuperLU's factorization, so it adds nothing to its peak memory
        self._k = _diagonals(k)

    def solve(self, b: np.ndarray, out: np.ndarray) -> bool:
        """Solve K x = b_j for every row b_j of the C-contiguous ``b`` into the rows of ``out``.

        Returns whether every solution is finite; the caller raises after the
        last block, so a later block's residual failure still takes precedence.
        """
        # b.T is a Fortran-ordered view: one RHS column per trajectory, no copy
        x = self._solver.solve(b.T).T
        finite = True
        for b_j, x_j, out_j in zip(b, x, out):
            # each column keeps its own bound: a max over the batch would let
            # one trajectory's scale hide another's miss.  Normwise backward
            # error, since a plain ||r||/||b|| reads 2.6e-9 from round-off
            # alone at 65,536 cells.  max|a| is max(a.max(), -a.min()): no
            # abs temporaries, and a NaN still propagates
            r = self._k @ x_j
            r -= b_j
            residual = max(float(r.max()), -float(r.min()))
            x_max = max(float(x_j.max()), -float(x_j.min()))
            # the lazy bound: max|b_j| is a pass over b_j, taken only when needed
            bound = self._tol * (self._k_norm * x_max)
            if not residual <= bound:
                bound = self._full_bound(x_max, b_j)
                if not residual <= bound:
                    raise SolverError(
                        f"linear solve missed lin_tol={self._tol:g}: "
                        f"residual {residual:.3e} > bound {bound:.3e}",
                        residual=residual,
                    )
            # an inf entry can make the residual and the bound inf, which passes
            if not math.isfinite(x_max):
                finite = False
                continue
            self._project(b_j, x_j, bound, out_j, x_max)
        return finite

    def _full_bound(self, x_max: float, b_j: np.ndarray) -> float:
        """tol * (||K||_inf * max|x_j| + max|b_j|), the column's backward-error bound."""
        return self._tol * (self._k_norm * x_max + max(float(b_j.max()), -float(b_j.min())))

    def _weighted_sum(self, v: np.ndarray) -> float:
        """w.v as weighted segment sums of v.

        numpy's pairwise sums use no BLAS, whose ddot wakes its threads at this
        size, and give each column the same result in a batch as alone.
        """
        return sum(weight * float(v[start:stop].sum())
                   for start, stop, weight in self._segments)

    def _project(self, b_j: np.ndarray, x_j: np.ndarray, bound: float,
                 out_j: np.ndarray, x_max: float | None = None) -> None:
        """Write x_j * (w.b_j)/(w.x_j) to out_j, after the guard of the module docstring.

        ``bound`` is the column's backward-error bound.  Given ``x_max`` =
        max|x_j|, it may be the lazy bound, and the guard takes the full bound
        before it raises.
        """
        wb = self._weighted_sum(b_j)
        wx = self._weighted_sum(x_j)
        if wb == wx:  # nothing to correct; all-zero blocks would give 0/0
            out_j[...] = x_j
            return
        gap = abs(wb - wx)
        limit = self._w_norm * bound
        # the full bound and the defect term each cost a pass, so they are
        # taken only when needed
        if not gap <= limit:
            if x_max is not None:
                bound = self._full_bound(x_max, b_j)
            limit = self._w_norm * bound + float(np.dot(self._defect, np.abs(x_j)))
            if not gap <= limit:
                raise SolverError(
                    f"conservative projection: weighted mass of the solve is off "
                    f"by {gap:.3e} > bound {limit:.3e}",
                    residual=gap,
                )
        factor = wb / wx if wx != 0.0 else math.inf
        if not 0.0 < factor < math.inf:
            raise SolverError(
                f"conservative projection: cannot scale weighted mass {wx!r} "
                f"to {wb!r}"
            )
        np.multiply(x_j, factor, out=out_j)


class _Stepper:
    """Steps of one size dt: the explicit reaction stage if any, then implicit solves.

    A step maps a batch array of shape (blocks, trajectories, block size) to
    the next one, with one block per matrix: the whole state of a trajectory
    for a linear problem's block operator, one species per transport operator
    under IMEX, where ``reactions`` supplies the reaction stage.  Factoring
    per species rather than one block-diagonal matrix keeps peak memory lower.

    The stepper owns its step arrays and reuses them.  In a fresh process,
    new arrays every step cost about 240 page faults per two-trajectory step
    at 3 x 16,384 cells, and a CLI ``verify-contraction`` run of that size
    took 2.7 s instead of 2.2 s (2-vCPU host).  A step writes into one of two
    output arrays in turn, so the array it returns stays valid through the
    next step and is overwritten by the one after.
    """

    def __init__(self, matrices, weights, dt: float, lin_tol: float,
                 reactions: ProblemSpec | None = None):
        if not dt > 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        self._dt = dt
        self._reactions = reactions
        # the reaction stage's coupling, dt*alpha_i*lam[i,j], scaled once per step size
        self._coeff = (None if reactions is None
                       else dt * (reactions.alphas[:, None] * reactions.coupling.lam))
        self._factors = [_Factored(m, w, dt, lin_tol) for m, w in zip(matrices, weights)]
        self._arrays = None

    def _buffers(self, shape) -> list[np.ndarray]:
        """[output, other output] and, under IMEX, [reaction rates, reaction
        stage]: allocated once per shape, the outputs swapped every call."""
        if self._arrays is None or self._arrays[0].shape != shape:
            count = 2 if self._reactions is None else 4
            self._arrays = [np.empty(shape) for _ in range(count)]
        self._arrays[:2] = self._arrays[1::-1]
        return self._arrays

    def step(self, u: np.ndarray) -> np.ndarray:
        arrays = self._buffers(u.shape)
        out = arrays[0]
        if self._reactions is not None:
            # the bound of the batch is the smallest bound of its trajectories
            dt_max = min(_dt_max(self._reactions, peaks) for peaks in u.max(axis=2).T)
            if self._dt > dt_max:
                raise StepSizeError(
                    f"dt={self._dt:g} exceeds the positivity bound dt_max={dt_max:g}",
                    dt_max=dt_max,
                )
            u = _reaction_stage(u, self._reactions, self._coeff, arrays[2], arrays[3])
        # States are built only for snapshots, so their finiteness check does
        # not see every step
        finite = [f.solve(block, out_i) for f, block, out_i in zip(self._factors, u, out)]
        if not all(finite):
            raise SolverError("implicit solve produced non-finite values")
        return out

    def step_state(self, state: State, t: float) -> State:
        """One step of a single state, for the public one-step functions."""
        u = self.step(_batch((state,), len(self._factors)))
        return state.with_fields(u[:, 0].reshape(state.fields.shape), t=t)


def _block_weights(spec: ProblemSpec, blocks: int) -> tuple[np.ndarray, ...]:
    """Conservation weights cell_volume/alpha_i over each of ``blocks`` stepper blocks."""
    w = np.repeat(spec.grid.cell_volume / spec.alphas, spec.grid.size)
    return tuple(w.reshape(blocks, -1))


def _require_physical_operator(op, who: str) -> None:
    # the conservation weights of a Neumann-gauge operator differ
    if op.gauge != "physical":
        raise ValueError(f"{who} expects physical-gauge operators")


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
    _require_physical_operator(A, "step_linear_implicit")
    weights = _block_weights(A.spec, 1)
    return _Stepper((A.matrix,), weights, dt, lin_tol).step_state(state, state.t + dt)


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


def _reaction_stage(u: np.ndarray, spec: ProblemSpec, coeff: np.ndarray,
                    rates: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Explicit reaction stage of a (species, trajectories, cells) batch.

    Computes u + coeff @ r(u), with coeff = dt*(alphas[:, None]*lam), into
    ``out``, with ``rates`` as working storage; both are C-contiguous and
    shaped like u.  The clip makes every argument of r nonnegative.
    """
    np.maximum(u, 0.0, out=rates)  # round-off negatives within _NEG_SLACK
    for i, sp in enumerate(spec.species):
        if sp.reaction.kind != "linear":
            # out[i] is free until the matmul writes it
            eval_power(rates[i], sp.reaction.exponent, rates[i], out[i])
    # one matmul over the whole batch; each column equals its own trajectory's
    np.matmul(coeff, rates.reshape(spec.n_species, -1),
              out=out.reshape(spec.n_species, -1))
    out += u
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
    for op in operators:
        _require_physical_operator(op, "step_imex")
    matrices = tuple(op.matrix for op in operators)
    weights = _block_weights(spec, spec.n_species)
    return _Stepper(matrices, weights, dt, lin_tol, spec).step_state(state, state.t + dt)


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

    weights = _block_weights(spec, len(matrices))
    u = _batch(states, len(matrices))
    stepper = None
    for k in range(1, n_steps + 1):
        full = k <= n_full
        if k in (1, n_full + 1):  # factor for cfg.dt, and again for a remainder step
            stepper = None  # release the previous factors first
            stepper = _Stepper(matrices, weights, cfg.dt if full else remainder,
                               cfg.lin_tol, reactions)
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
