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
operator under IMEX.  K is formed on the DIA diagonals of M: -dt*m off the
main diagonal and 1 - dt*m on it, the roundings of a CSR difference
eye - dt*M.  The 1-D factorizations read K's diagonals, SuperLU takes
K.tocsc(), and the residual matvec reads K itself.  `run_batch` hands the
stepper a generator of freshly assembled operators, and the stepper forms
every K before it factors any, so no M is held while K is factored.  A
remainder step, with its own dt, assembles M again.

How K is factored depends only on K and on whether the grid is 1-D; there
are three kinds.  The Scharfetter-Gummel fluxes satisfy detailed balance,
K[i+1,i]/K[i,i+1] = exp(-s) on every face, so a 1-D transport block is
tridiagonal with positive products K[i+1,i]*K[i,i+1].  The diagonal scale S
with s_{i+1}/s_i = sqrt(K[i+1,i]/K[i,i+1]) (log s centred on its range)
makes S^-1 K S symmetric positive definite: it is similar to K, whose
eigenvalues are >= 1.  LAPACK pttrf factors it as L D L^T, and each solve
is x = s * pttrs(b/s), without pivoting.  That takes about 0.17 ms per
right-hand side at 16,384 cells against 0.45 ms for SuperLU (2-vCPU x86-64
host, one BLAS thread).  The scaling costs no stability however wide the
span of psi/sigma: the error of the symmetric solve maps back through S,
which turns the entries of S^-1 K S back into those of K, so only neighbour
ratios of s enter.

Every other 1-D K is a band: the coupled block operator of a linear
problem, a transport block whose scale exceeds 2^(+-256), and one that
pttrf finds not positive definite.  Ordered cell by cell, p = c*S + s for S
species, its transport entries sit at offsets +-S and its coupling entries
within +-(S-1).  Scaled by the conservation weights, entry (i, j) times
w_i/w_j, every column of K sums to exactly 1, as w^T K = w^T says, and every
off-diagonal entry stays <= 0: the scaled K is strictly column diagonally
dominant with a margin of 1 in every column.  Gaussian elimination keeps
that dominance in every Schur complement, so partial pivoting never swaps a
row, and the LU factors of LAPACK gbtrf keep the band.  Each solve is two
BLAS tbsv sweeps and one scaling pass, about 2.1 ms per right-hand side at
2 x 65,536 cells against 3.6 ms for SuperLU; gbtrs would sweep L as one BLAS
dger call per column.  The pivots are checked: a zero pivot raises ScalingError, and so
does a row swap once the identity of K is found lost in rounding (below);
any other row swap raises SolverError.  2-D blocks go to sparse LU
(SuperLU).

An exact solve inherits the M-matrix guarantees up to round-off; the fixed
gate LIN_TOL = 1e-12 bounds the normwise backward error of each solve,

    ||b - K x||_inf <= LIN_TOL * (||K||_inf * ||x||_inf + ||b||_inf),

and a solve that misses it raises SolverError.  The bound is taken lazily:
the residual is first held against LIN_TOL * ||K||_inf * ||x||_inf, and
only when it exceeds that is ||b||_inf taken and the full bound tested.
Rounding is monotone, so the lazy bound is never above the full one and the
two accept the same solves; error messages report the full bound.  A NaN in
b reaches the residual, which then fails both.  The max|x| that the bound
takes also checks finiteness: a NaN propagates through it and an inf shows,
so a non-finite solution raises SolverError after the step's last solve,
without a separate pass over the state.  A column that meets the lazy bound
and the lazy guard (below) is checked and projected inline, in the loop of
`_Factored.solve`; the full bound, the rescale and the guard's fallback
are calls taken only on a miss, since a call costs about as much as a
small column's arithmetic.

Near underflow the bound falls below the spacing of subnormal numbers, and
b/s of the symmetrized solve can underflow.  So a column that misses the
bound with max|b_j| < 1/2 is solved once more for the exact multiple b_j*2^k,
max|b_j|*2^k in [1/2, 1) and k <= 1023 (2^k finite), checked against the same
bound, projected in that scale and divided by 2^k; a column that meets the
bound is solved once.

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
A defect as large as w itself means that the identity of K is lost in
rounding beside dt*M; such a K raises ScalingError when it is formed.
The guard, too, tries ||w||_1 times the lazy bound first and takes the full
bound and the defect term before it raises.
A column beyond that, or one whose factor is not positive and finite (w.x = 0
while w.b != 0), raises SolverError.  Columns with w.b = w.x, such as
all-zero blocks, are left as they are.

`run_batch` is the one stepping loop.  It advances any number of
trajectories of one (problem, dt) in lockstep: every factorization solves all
of them in one multi-RHS call, one column per trajectory, and each column is
checked against its own bound.  It is a generator that yields each snapshot
as it is reached, one State per trajectory, so a caller reduces it and drops
it, and no command holds a whole trajectory: `simulate` writes each snapshot
at once, the checks in `verify` keep scalar series.  The trajectories
start at the common time t0 of their initial states, and step k ends at
t0 + k*dt.  A failure in any trajectory raises at the first failing step,
with ``.time`` set to that step.  `run` collects the snapshots of one
trajectory into a `Trajectory`.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.linalg.blas import dtbsv
from scipy.linalg.lapack import dgbtrf, dpttrf, dpttrs
from scipy.sparse.linalg import splu

from .discretize import _transports, assemble_system
from .errors import (
    ConfigError,
    InvariantViolationError,
    MotorfluxError,
    ScalingError,
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
    "LIN_TOL",
    "MAX_STEPS",
    "StepConfig",
    "Trajectory",
    "imex_dt_max",
    "run",
    "run_batch",
]

#: slack for "nonnegative" state checks; round-off below this is tolerated
_NEG_SLACK = 1e-13

#: most time steps one run may take (t_end/dt): a larger count is a config
#: error, so an absurd t_end or a tiny dt fails at once instead of running for days
MAX_STEPS = 1_000_000

#: normwise backward-error bound of every implicit solve (module docstring);
#: `_Factored` reads it when it is built
LIN_TOL = 1e-12


@dataclass(frozen=True)
class StepConfig:
    """Time-stepping parameters; ``t_end/dt`` may not exceed MAX_STEPS.
    Every implicit solve meets the fixed bound LIN_TOL."""

    dt: float
    t_end: float
    stride: int = 1

    def __post_init__(self):
        if not (self.dt > 0.0 and math.isfinite(self.dt)):
            raise ConfigError(f"dt must be positive and finite, got {self.dt}")
        if not (self.t_end >= 0.0 and math.isfinite(self.t_end)):
            raise ConfigError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if not self.t_end / self.dt <= MAX_STEPS:
            raise ConfigError(
                f"t_end/dt = {self.t_end / self.dt:.6g} steps exceed the cap of {MAX_STEPS}"
            )
        if self.stride < 1:
            raise ConfigError(f"stride must be >= 1, got {self.stride}")


@dataclass(frozen=True)
class Trajectory:
    """Recorded snapshots of one run."""

    states: tuple[State, ...]

    def __post_init__(self):
        times = [s.t for s in self.states]
        if any(b <= a for a, b in zip(times, times[1:])):
            raise ValueError("snapshot times must be strictly increasing")

    @property
    def times(self) -> tuple[float, ...]:
        return tuple(s.t for s in self.states)

    @property
    def final(self) -> State:
        return self.states[-1]


# ---------------------------------------------------------------------------
# the implicit stepper


#: log s is centred and capped at 256*ln 2, so s and 1/s stay within 2^(+-256):
#: b/s and s*y cannot overflow for any |b| below 1e231, and the rounding of the
#: neighbour ratios s_{i+1}/s_i (a few ulps times |log s|) stays below 1e-13.
#: b/s of a tiny b can underflow; the rescale of `_Factored.solve` covers that
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
    def factor(cls, k: sparse.dia_array) -> _SymmetrizedTridiagonal | None:
        if k.offsets.tolist() != [-1, 0, 1]:
            return None
        lower, upper = k.diagonal(-1), k.diagonal(1)
        with np.errstate(over="ignore"):  # an infinite product is rejected below
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


class _CellMajorBand:
    """LAPACK gbtrf factors of a 1-D block K, interleaved by cell and weight-scaled.

    K is species-major (index s*cells + c).  With r_s the weight of species s
    over the largest weight and p = c*S + s, K' = R K R^-1 in cell-major order
    is the band of half-width S of the module docstring, factored without a
    row swap.  The unit-lower L and U = diag(u) U1, U1 unit upper, are kept
    as compact Fortran copies of S + 1 rows each: a unit sweep is about twice
    as fast as one that divides by the diagonal, and views into gbtrf's array
    would make every sweep stride 3S + 1 rows per column.  A solve is the two
    tbsv sweeps and a product by 1/u between strided per-species copies.
    """

    def __init__(self, lower: np.ndarray, upper: np.ndarray, inverse_pivots: np.ndarray,
                 ratio: np.ndarray):
        self._lower, self._upper = lower, upper
        self._inverse_pivots = inverse_pivots
        self._ratio = ratio
        self._z = np.empty(lower.shape[1])  # the interleaved column
        self._x = None  # the solutions, reused while the batch size is unchanged
        # made with _x: (b slice, z view, ratio) per species, x views per column
        self._pieces = self._x_parts = None

    @classmethod
    def factor(cls, k: sparse.dia_array, w: np.ndarray, cells: int) -> _CellMajorBand:
        """Raise RuntimeError on a zero pivot and SolverError on a row swap."""
        n = k.shape[0]
        species = n // cells
        ratio = w[::cells] / w.max()
        # gbtrf's layout: entry (p, q) in row 2S + p - q, above it S rows for fill
        band = np.zeros((3 * species + 1, n), order="F")
        for off, row in zip(k.offsets.tolist(), k.data):
            # off = (s' - s)*cells + (c' - c) for column (s', c') and row (s, c),
            # |c' - c| <= 1; round() takes +-1 at 2 cells as transport, as it is
            d_species = round(off / cells)
            d_cell = off - d_species * cells
            for col in range(species):
                s = col - d_species
                if 0 <= s < species:
                    np.multiply(row[col * cells:(col + 1) * cells], ratio[s] / ratio[col],
                                out=band[2 * species - d_cell * species - d_species, col::species])
        lu, rows, info = dgbtrf(band, species, species, overwrite_ab=1)
        if info > 0:
            raise RuntimeError(f"band pivot {info} is exactly zero")
        swapped = np.flatnonzero(rows != np.arange(n, dtype=rows.dtype))
        if swapped.size:
            raise SolverError(f"the band LU of K = I - dt*M swapped row {int(swapped[0])} "
                              "although K is column diagonally dominant")
        upper = np.asfortranarray(lu[species:2 * species + 1])
        pivots = lu[2 * species]  # U's diagonal, which the copy's divisions leave alone
        for m in range(1, species + 1):  # row i of U over u_i: entry (i, i + m)
            upper[species - m, m:] /= pivots[:-m]
        return cls(np.asfortranarray(lu[2 * species:]), upper, 1.0 / pivots, ratio)

    def solve(self, b: np.ndarray) -> np.ndarray:
        """x for each column of the Fortran-ordered (n, m) ``b``, valid until the next solve."""
        if self._x is None or self._x.shape[0] != b.shape[1]:
            # per-species strided views, built once per batch width: a transposed
            # view would loop over S inside
            self._x = np.empty(b.shape[::-1])
            species = len(self._ratio)
            cells = b.shape[0] // species
            parts = [slice(s * cells, (s + 1) * cells) for s in range(species)]
            self._pieces = [(part, self._z[s::species], r)
                            for s, (part, r) in enumerate(zip(parts, self._ratio.tolist()))]
            self._x_parts = [[x_j[part] for part in parts] for x_j in self._x]
        pieces, z, species = self._pieces, self._z, len(self._pieces)
        for b_j, x_js in zip(b.T, self._x_parts):
            for part, z_s, r in pieces:
                np.multiply(b_j[part], r, out=z_s)
            dtbsv(species, self._lower, z, lower=1, diag=1, overwrite_x=1)
            z *= self._inverse_pivots
            dtbsv(species, self._upper, z, diag=1, overwrite_x=1)
            for (_part, z_s, r), x_s in zip(pieces, x_js):
                np.divide(z_s, r, out=x_s)
        return self._x.T


def _segments(w: np.ndarray) -> tuple[tuple[slice, float], ...]:
    """(slice, weight) over the runs of equal entries of ``w``."""
    edges = [0, *(np.flatnonzero(np.diff(w)) + 1).tolist(), len(w)]
    return tuple((slice(a, b), float(w[a])) for a, b in zip(edges, edges[1:]))


def _implicit_matrix(matrix: sparse.sparray, dt: float) -> sparse.dia_array:
    """K = I - dt*M on the diagonals of M, as the module docstring says."""
    m = sparse.dia_array(matrix)
    offsets = np.union1d(m.offsets, 0)
    data = np.zeros((len(offsets), m.shape[0]))
    data[np.searchsorted(offsets, m.offsets), :m.data.shape[1]] = m.data
    data *= -dt
    data[np.searchsorted(offsets, 0)] += 1.0
    return sparse.dia_array((data, offsets), shape=m.shape)


def _diagonals(k: sparse.sparray):
    """(rows, cols, values) of each stored diagonal of the square matrix k, in
    stored order: values[j] is the entry (rows.start + j, cols.start + j).  A
    DIA matrix is read in place; another format is converted."""
    k = sparse.dia_array(k)
    n, width = k.shape[0], k.data.shape[1]
    for off, row in zip(k.offsets.tolist(), k.data):
        cols = slice(max(off, 0), min(n + min(off, 0), width))
        yield slice(cols.start - off, cols.stop - off), cols, row[cols]


def _inf_norm(k: sparse.sparray) -> float:
    """||k||_inf with the row sums added in the stored order of the diagonals,
    the order of abs(k).sum(axis=1), without its copy of k."""
    row_sums, magnitude = np.zeros(k.shape[0]), np.empty(k.shape[0])
    for rows, _cols, values in _diagonals(k):
        row_sums[rows] += np.abs(values, out=magnitude[rows])
    return float(row_sums.max())


def _column_defect_and_norm(k: sparse.dia_array, w: np.ndarray) -> tuple[np.ndarray, float]:
    """|w^T K - w^T| and `_inf_norm` of K in one pass; its temporaries are
    freed before K is factored."""
    n = len(w)
    wk, row_sums, magnitude = np.zeros(n), np.zeros(n), np.empty(n)
    for rows, cols, values in _diagonals(k):
        wk[cols] += w[rows] * values
        row_sums[rows] += np.abs(values, out=magnitude[rows])
    return np.abs(wk - w), float(row_sums.max())


class _Factored:
    """K = I - dt*M factored once; every solve is checked against LIN_TOL
    and projected onto the conservation weights ``w`` (w^T M = 0).

    ``k`` is the DIA matrix of `_implicit_matrix`; ``cells`` is the cell count
    of each species on a 1-D grid and None on a 2-D one; ``dt`` only names the
    step size in an error message.
    """

    def __init__(self, k: sparse.dia_array, w: np.ndarray, dt: float, cells: int | None):
        self._tol = LIN_TOL
        self._w_norm = float(np.abs(w).sum())
        self._segments = _segments(w)
        self._defect, self._k_norm = _column_defect_and_norm(k, w)
        try:
            self._solver = (_SymmetrizedTridiagonal.factor(k)
                            or (_CellMajorBand.factor(k, w, cells) if cells
                                # minimum-degree ordering on K^T+K and no supernodes
                                # keep SuperLU's factors near band size
                                else splu(k.tocsc(), permc_spec="MMD_AT_PLUS_A",
                                          panel_size=1, relax=1)))
        except RuntimeError as err:  # a nonsingular M-matrix in exact arithmetic
            raise ScalingError(f"K = I - dt*M is singular in double precision ({err}): the "
                               f"identity is lost in rounding at ||K||_inf = {self._k_norm:.3e}"
                               ) from err
        except SolverError:  # a row swap: first see whether the identity is lost
            self._require_identity(w, dt)
            raise
        self._require_identity(w, dt)
        # the residual matvec runs on the same DIA matrix, which reads no indices
        self._k = k

    def _require_identity(self, w: np.ndarray, dt: float) -> None:
        # w^T K = w^T in exact arithmetic; a column sum off by w itself has lost
        # the identity, and the projection would then scale by a meaningless factor
        lost = np.flatnonzero(self._defect >= w)
        if lost.size:
            c = int(lost[0])
            raise ScalingError(
                f"K = I - dt*M loses the identity in rounding: the weighted sum of column {c} "
                f"of K is off by {self._defect[c]:.3e}, as much as its weight {w[c]:.3e} "
                f"(dt = {dt!r}, ||K||_inf = {self._k_norm:.3e})")

    def solve(self, b: np.ndarray, out: np.ndarray, project: bool = True) -> bool:
        """Solve K x = b_j for every row b_j of the C-contiguous ``b`` into the rows of ``out``.

        Returns whether every solution is finite; the caller raises after the
        last block, so a later block's residual failure still takes precedence.
        Without ``project`` each checked x_j is written as it is: a right-hand
        side without weighted mass, such as a Newton increment, has no mass
        to scale onto.  A column that misses its bound may be solved once
        more for b_j*2^k (module docstring).
        """
        # b.T is a Fortran-ordered view: one RHS column per trajectory, no copy
        x = self._solver.solve(b.T).T
        k, tol, k_norm = self._k, self._tol, self._k_norm
        w_norm, segments = self._w_norm, self._segments
        finite = True
        for b_j, x_j, out_j in zip(b, x, out):
            # `_checked` and `_project` inline, as long as their lazy bounds hold
            r = k @ x_j
            r -= b_j
            residual = max(float(r.max()), -float(r.min()))
            x_max = max(float(x_j.max()), -float(x_j.min()))
            bound = tol * (k_norm * x_max)
            if not residual <= bound:
                finite = self._missed(b_j, x_j, out_j, residual, x_max, project) and finite
            elif not math.isfinite(x_max):  # an inf entry can make both inf, which passes
                finite = False
            elif not project:
                out_j[...] = x_j
            else:
                wb = wx = 0.0
                for part, weight in segments:
                    wb += weight * float(b_j[part].sum())
                    wx += weight * float(x_j[part].sum())
                if wb == wx:  # nothing to correct; all-zero blocks would give 0/0
                    out_j[...] = x_j
                elif wx != 0.0 and abs(wb - wx) <= w_norm * bound and 0.0 < wb / wx < math.inf:
                    np.multiply(x_j, wb / wx, out=out_j)
                else:
                    self._project(b_j, x_j, bound, out_j, x_max)
        return finite

    def _missed(self, b_j: np.ndarray, x_j: np.ndarray, out_j: np.ndarray, residual: float,
                x_max: float, project: bool) -> bool:
        """The column of `solve` whose residual missed the lazy bound: the full
        bound, the rescale, then the checks.  Returns whether x_j is finite."""
        bound = self._full_bound(x_max, b_j)
        # on a miss, k lifts max|b_j|*2^k into [1/2, 1) and keeps 2^k finite
        shift = 0 if residual <= bound else min(-math.frexp(np.abs(b_j).max())[1], 1023)
        if shift > 0:
            b_j = np.ldexp(b_j, shift)
            x_j = self._solver.solve(b_j[:, None])[:, 0]
            residual, bound, x_max = self._checked(b_j, x_j)
        if not residual <= bound:
            raise SolverError(
                f"linear solve missed LIN_TOL={self._tol:g}: "
                f"residual {residual:.3e} > bound {bound:.3e}",
                residual=residual,
            )
        if not math.isfinite(x_max):
            return False
        if project:
            self._project(b_j, x_j, bound, out_j, x_max)
        else:
            out_j[...] = x_j
        if shift > 0:
            np.ldexp(out_j, -shift, out=out_j)
        return True

    def _checked(self, b_j: np.ndarray, x_j: np.ndarray) -> tuple[float, float, float]:
        """(max|b_j - K x_j|, the lazy bound or, above it, the full bound, max|x_j|)."""
        # each column keeps its own bound: a max over the batch would let
        # one trajectory's scale hide another's miss.  Normwise backward
        # error, since a plain ||r||/||b|| reads 2.6e-9 from round-off
        # alone at 65,536 cells.  max|a| is max(a.max(), -a.min()): no abs
        # temporaries, and a NaN still propagates
        r = self._k @ x_j
        r -= b_j
        residual = max(float(r.max()), -float(r.min()))
        x_max = max(float(x_j.max()), -float(x_j.min()))
        # the lazy bound: max|b_j| is a pass over b_j, taken only when needed
        bound = self._tol * (self._k_norm * x_max)
        if not residual <= bound:
            bound = self._full_bound(x_max, b_j)
        return residual, bound, x_max

    def _full_bound(self, x_max: float, b_j: np.ndarray) -> float:
        """LIN_TOL * (||K||_inf * max|x_j| + max|b_j|), the column's backward-error bound."""
        return self._tol * (self._k_norm * x_max + max(float(b_j.max()), -float(b_j.min())))

    def _weighted_sum(self, v: np.ndarray) -> float:
        """w.v as weighted segment sums of v.

        numpy's pairwise sums use no BLAS, whose ddot wakes its threads at this
        size, and give each column the same result in a batch as alone.
        """
        total = 0.0
        for part, weight in self._segments:
            total += weight * float(v[part].sum())
        return total

    def _project(self, b_j: np.ndarray, x_j: np.ndarray, bound: float,
                 out_j: np.ndarray, x_max: float) -> None:
        """Write x_j * (w.b_j)/(w.x_j) to out_j, after the guard of the module docstring.

        ``bound`` is the column's lazy or full backward-error bound and
        ``x_max`` = max|x_j|; the guard takes the full bound before it raises.
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
            limit = (self._w_norm * self._full_bound(x_max, b_j)
                     + float(np.dot(self._defect, np.abs(x_j))))
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

    def __init__(self, matrices, weights, cells: int | None, dt: float,
                 reactions: ProblemSpec | None = None):
        self._dt = dt
        self._reactions = reactions
        # the reaction stage's coupling, dt*alpha_i*lam[i,j], scaled once per step size
        self._coeff = (None if reactions is None
                       else dt * (reactions.alphas[:, None] * reactions.coupling.lam))
        # every K is formed before any is factored: handed a generator of
        # freshly assembled matrices, as `run_batch` does, the stepper holds
        # no M while K is factored
        ks = [_implicit_matrix(m, dt) for m in matrices]
        self._factors = [_Factored(k, w, dt, cells) for k, w in zip(ks, weights)]
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


def _block_weights(spec: ProblemSpec, blocks: int) -> tuple[np.ndarray, ...]:
    """Conservation weights cell_volume/alpha_i over each of ``blocks`` stepper blocks."""
    w = np.repeat(spec.grid.cell_volume / spec.alphas, spec.grid.size)
    return tuple(w.reshape(blocks, -1))


def _cells_1d(spec: ProblemSpec) -> int | None:
    """The cells per species that `_Factored` takes: the grid size in 1-D, None in 2-D."""
    return spec.grid.size if spec.grid.dim == 1 else None


def _batch(states, blocks: int) -> np.ndarray:
    """Stack states into a (blocks, trajectories, block size) batch array."""
    return np.stack([s.fields.reshape(blocks, -1) for s in states], axis=1)


def _require_physical(state: State) -> None:
    if state.gauge != "physical":
        raise ValueError("run expects a physical-gauge state")
    low = float(state.fields.min()) if state.fields.size else 0.0
    if low < -_NEG_SLACK:
        raise ValueError(f"state must be nonnegative; min value {low!r}")


# ---------------------------------------------------------------------------
# the IMEX step-size bound and reaction stage


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
        rate = sp.alpha * abs(float(lam[i, i]))
        if rate == 0.0:
            continue
        rate *= reaction_lipschitz(sp.reaction, max(float(peaks[i]), 0.0))
        if rate > 0.0:  # a product that underflows bounds nothing, like a zero one
            bound = min(bound, 1.0 / rate)
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


# ---------------------------------------------------------------------------
# trajectory driver


def run(spec: ProblemSpec, cfg: StepConfig, initial: State | None = None) -> Trajectory:
    """Advance the problem to t_end, recording every ``stride``-th step and the end.

    Linear problems use the assembled block operator; any nonlinear reaction
    switches the run to IMEX splitting.  ``initial`` overrides the sampled
    initial data, and the run continues from its time.  This collects the
    snapshots that `run_batch` yields for one trajectory.
    """
    return Trajectory(tuple(state for (state,) in run_batch(spec, cfg, (initial,))))


def _operators(spec: ProblemSpec):
    """Yield M of each stepper block, assembled anew on every call: the block
    operator of a linear problem, or each species' transport operator."""
    if spec.is_linear:
        yield assemble_system(spec).matrix
    else:
        for op in _transports(spec):
            yield op.matrix


def _step_count(cfg: StepConfig) -> tuple[int, int]:
    """(steps of cfg.dt, all steps): a last, shorter step reaches t_end when
    cfg.dt does not divide it."""
    n_full = int(math.floor(cfg.t_end / cfg.dt + 1e-9))
    return n_full, n_full + (cfg.t_end - n_full * cfg.dt > 1e-12 * cfg.dt)


def run_batch(spec: ProblemSpec, cfg: StepConfig,
              initials) -> Iterator[tuple[State, ...]]:
    """Advance one trajectory per entry of ``initials`` in lockstep, as `run` does.

    A generator: it yields a tuple with one State per trajectory at their
    common initial time t0, after every ``stride``-th step and after the last
    step.  Step k ends at t0 + k*dt and the last step at t0 + t_end; where t0
    dwarfs dt so that two snapshot times round to one, ValueError is raised
    before the first yield.  An entry of None stands for the sampled initial
    data, at t0 = 0.  All
    trajectories share each factorization and each solve call.  A failure in
    any of them raises at the first failing step, with ``.time`` set to that step.
    """
    report = validate(spec)
    if not report.ok:
        raise ConfigError("invalid problem: " + "; ".join(report.violations))
    states = tuple(initial_state(spec) if s is None else s for s in initials)
    if not states:
        raise ValueError("run_batch needs at least one initial state")
    for state in states:
        _require_physical(state)
        if state.fields.shape != (spec.n_species, spec.grid.size):
            raise ValueError("initial state does not match the problem layout")
    t0 = states[0].t
    if any(state.t != t0 for state in states):
        raise ValueError("the initial states of a batch must share their time")
    n_full, n_steps = _step_count(cfg)
    # the yielded steps and their times, by the loop's formula below
    ks = np.minimum(np.arange(0, n_steps + cfg.stride, cfg.stride), n_steps)
    times = t0 + np.where(ks <= n_full, ks * cfg.dt, cfg.t_end)
    repeated = np.flatnonzero(np.diff(times) <= 0.0)
    if repeated.size:
        raise ValueError(f"a run from t0 = {t0!r} with dt = {cfg.dt!r} stamps two snapshots "
                         f"with the time {times[repeated[0] + 1].item()!r}: t0 + k*dt rounds to "
                         "the same double")
    yield states

    blocks = 1 if spec.is_linear else spec.n_species
    reactions = None if spec.is_linear else spec
    weights = _block_weights(spec, blocks)
    u = _batch(states, blocks)
    stepper = None
    for k in range(1, n_steps + 1):
        full = k <= n_full
        if k in (1, n_full + 1):  # factor for cfg.dt, and again for a remainder step
            stepper = None  # release the previous factors first
            stepper = _Stepper(_operators(spec), weights, _cells_1d(spec),
                               cfg.dt if full else cfg.t_end - n_full * cfg.dt, reactions)
        t_next = t0 + (k * cfg.dt if full else cfg.t_end)
        try:
            u = stepper.step(u)
        except MotorfluxError as err:
            err.time = t_next
            raise
        if k % cfg.stride == 0 or k == n_steps:
            yield tuple(state.with_fields(u[:, j].reshape(state.fields.shape), t=t_next)
                        for j, state in enumerate(states))
