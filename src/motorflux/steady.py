"""Stationary states of the coupled system.

Three routes are covered:

  * `solve_null_vector` finds the positive null vector of an assembled linear
    block operator by one direct solve.  For an irreducible configuration -A
    is a singular irreducible M-matrix, so every proper principal submatrix
    is a nonsingular M-matrix with an entrywise positive inverse.  Pinning
    x[0] = 1 and dropping row and column 0 leaves
    A[1:,1:] x[1:] = -A[1:,0], whose solution is strictly positive; one
    correction with the same factorization spreads the round-off residual
    over all rows instead of the dropped one.
  * `reversible_pair` solves for the constant equilibrium (a, b) of the
    two-species reversible reaction: r_A(a) = r_B(b) with the weighted mass
    a/alpha + b/beta pinned to the conserved value.
  * `project_onto_ray` picks from the ray {c*v : c > 0} the unique member
    sharing the initial data's conserved weighted mass, which is the
    long-time limit of the evolution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .discretize import SystemOperator, _gauge_factors
from .errors import DegenerateDataError, IrreducibilityError, NonConvergenceError, ScalingError
from .model import (
    ReactionSpec,
    State,
    _samples,
    _strongly_connected,
    eval_reaction,
    reaction_inverse,
)
from .verify import weighted_mass

__all__ = [
    "StationaryState",
    "StationaryRay",
    "solve_null_vector",
    "adjoint_null_check",
    "reversible_pair",
    "project_onto_ray",
    "boltzmann_profile",
    "NORMALIZATIONS",
]

#: 'total' pins sum_i integral(v_i) = 1; 'alpha_weighted' pins
#: sum_i (1/alpha_i) integral(v_i) = 1.  Both constraints are legitimate and
#: differ only by the scale of the result, so the choice is always explicit.
NORMALIZATIONS = ("total", "alpha_weighted")

@dataclass(frozen=True)
class StationaryState:
    """A stationary state with its residual and normalization record."""

    state: State
    residual: float
    normalization: str
    constraint_value: float


@dataclass(frozen=True)
class StationaryRay:
    """The one-parameter family {c * v : c > 0} of stationary states."""

    base: StationaryState

    def member(self, c: float) -> State:
        if not c > 0.0:
            raise ValueError(f"ray members need c > 0, got {c}")
        return self.base.state.with_fields(c * self.base.state.fields)


def _weights(A: SystemOperator) -> np.ndarray:
    """Left conservation vector: cell_volume/alpha_i repeated over block i."""
    vol = A.spec.grid.cell_volume
    return np.repeat(vol / A.spec.alphas, A.cells)


def _left_null_vector(A: SystemOperator) -> np.ndarray:
    """The conservation vector in A's gauge; D A D^-1 is annihilated by w D^-1."""
    w = _weights(A)
    if A.gauge == "neumann":
        w = w / _gauge_factors(A.spec).ravel()
    return w


def solve_null_vector(A: SystemOperator, tol: float = 1e-13, *,
                      normalization: str = "total") -> StationaryState:
    """Positive null vector of A by one sparse LU solve of the reduced system.

    Fixes x[0] = 1 and solves A[1:,1:] y = -A[1:,0].  The residual r = A x is
    then projected off the left null vector w (so that A d = r is solvable)
    and removed with one more solve on the same factorization.  The result is
    scaled to the requested integral constraint and must satisfy
    ||A v||_inf <= tol * ||A||_inf, or NonConvergenceError is raised.  A
    coupling graph that is not strongly connected, a singular reduced matrix
    or a result that is not strictly positive raise IrreducibilityError;
    ScalingError when transport weights are lost in rounding beside the rates,
    or the reverse.
    """
    if normalization not in NORMALIZATIONS:
        raise ValueError(f"unknown normalization {normalization!r}")
    spec = A.spec
    if not _strongly_connected(spec.coupling.lam):
        raise IrreducibilityError(
            "coupling graph is not strongly connected; the configuration is "
            "not irreducible and its stationary states are not one ray"
        )
    matrix = sparse.csc_array(A.matrix)
    nd = matrix.shape[0]
    norm_a = float(np.abs(matrix).sum(axis=1).max())
    try:
        # no supernodes: at 8,191 unknowns SuperLU's relaxed supernodes add
        # about 3 MB to the peak and save no time
        lu = splu(matrix[1:, 1:], panel_size=1, relax=1)
    except RuntimeError as err:
        # nonsingular in exact arithmetic, since the coupling is strongly connected
        lost = _lost_scale(A)
        if lost:
            raise ScalingError(
                f"reduced stationary system is singular ({err}) although the coupling graph is "
                f"strongly connected: {lost}"
            ) from err
        raise IrreducibilityError(
            f"reduced stationary system is singular ({err}); the configuration "
            "is not irreducible"
        ) from err

    x = np.empty(nd)
    x[0] = 1.0
    x[1:] = lu.solve(-matrix[1:, [0]].toarray().ravel())
    r = matrix @ x
    w = _left_null_vector(A)
    r -= (w @ r) / (w @ w) * w
    x[1:] -= lu.solve(r[1:])

    if normalization == "total":
        scale = float(spec.grid.cell_volume * x.sum())
    else:
        scale = float(_weights(A) @ x)
    v = x / scale
    if not v.min() > 0.0:
        # strictly positive in exact arithmetic, since the coupling is strongly connected
        lost = _lost_scale(A)
        if lost:
            raise ScalingError(
                "computed null vector is not strictly positive although the coupling graph is "
                f"strongly connected: {lost}"
            )
        raise IrreducibilityError(
            "computed null vector is not strictly positive; the configuration "
            "is not irreducible"
        )
    residual = float(np.abs(matrix @ v).max())
    if not residual <= tol * norm_a:  # a NaN tol fails too
        raise NonConvergenceError(
            f"stationary residual {residual:.3e} exceeds tol*||A||={tol * norm_a:.3e}",
            residual=residual,
        )
    state = State(spec.grid, v.reshape(A.n, A.cells), t=0.0, gauge="physical")
    return StationaryState(state=state, residual=residual,
                           normalization=normalization, constraint_value=1.0)


def _lost_scale(A: SystemOperator) -> str | None:
    """Why A's transport weights or coupling rates are lost in rounding, or None.

    Either the smallest transport weight sigma/h^2 vanishes beside the
    largest coupling rate, or a species' rate alpha_i*|lam_ii| vanishes
    beside its own transport diagonal; the first is named first.
    """
    spec = A.spec
    eps = np.finfo(float).eps
    weight = min(sp.sigma for sp in spec.species) / max(spec.grid.h) ** 2
    rates = spec.alphas * np.abs(np.diag(spec.coupling.lam))
    if weight <= eps * rates.max():
        return (f"the smallest transport weight sigma/h^2 = {weight:.3e} is lost in rounding "
                f"beside the largest coupling rate alpha_i*|lam_ii| = {rates.max():.3e}")
    diagonals = [float(np.abs(t.matrix.diagonal()).max()) for t in A.transports]
    return next((f"the coupling rate alpha_{i}*|lam_{i}{i}| = {r:.3e} of species {i} is lost "
                 f"in rounding beside its transport diagonal {d:.3e}"
                 for i, (r, d) in enumerate(zip(rates, diagonals), start=1)
                 if 0 < r <= eps * d), None)


def adjoint_null_check(A: SystemOperator) -> float:
    """Max-norm of the conservation row vector applied to A.

    The row vector with value cell_volume/alpha_i on block i (divided by the
    gauge factors for a Neumann-gauge operator) is a left null vector of any
    correctly assembled operator, so values near round-off certify discrete
    mass conservation.
    """
    r = A.matrix.T @ _left_null_vector(A)
    return float(np.abs(r).max())


def reversible_pair(mass: float, r_a: ReactionSpec, r_b: ReactionSpec,
                    alpha: float = 1.0, beta: float = 1.0,
                    volume: float = 1.0) -> tuple[float, float]:
    """Constant equilibrium (a, b) of the two-species reversible reaction.

    Solves a/alpha + b/beta = mass/volume with b = r_B^-1(r_A(a)) by bisection
    on the strictly increasing g(a) = a/alpha + b(a)/beta - mass/volume, to
    |g| <= 1e-12.  ``mass`` is the conserved quantity
    integral(u0/alpha + v0/beta); ``volume`` is the domain measure.
    """
    if not mass > 0.0:
        raise DegenerateDataError(f"mass must be positive, got {mass}")
    if not (alpha > 0.0 and beta > 0.0 and volume > 0.0):
        raise ValueError("alpha, beta and volume must be positive")
    target = mass / volume

    def g(a: float) -> float:
        b = reaction_inverse(r_b, eval_reaction(r_a, a))
        return a / alpha + b / beta - target

    hi = 1.0
    for _ in range(200):
        if g(hi) > 0.0:
            break
        hi *= 2.0
    else:
        raise NonConvergenceError("failed to bracket the equilibrium", residual=g(hi))
    lo = 0.0
    a = 0.5 * hi
    for _ in range(500):
        val = g(a)
        if abs(val) <= 1e-12:
            break
        if val > 0.0:
            hi = a
        else:
            lo = a
        nxt = 0.5 * (lo + hi)
        if nxt == a:
            break
        a = nxt
    val = g(a)
    if abs(val) > 1e-12:
        raise NonConvergenceError(
            f"bisection stalled with |g(a)|={abs(val):.3e} > 1e-12", residual=val
        )
    b = reaction_inverse(r_b, eval_reaction(r_a, a))
    return float(a), float(b)


def project_onto_ray(u0: State, ray: StationaryRay, spec) -> tuple[float, StationaryState]:
    """The member of the stationary ray sharing u0's conserved weighted mass.

    Returns (c, c*v); by mass conservation and the contraction property this
    is the long-time limit of the trajectory started at u0.
    """
    m0 = weighted_mass(u0, spec)
    mv = weighted_mass(ray.base.state, spec)
    if m0 <= 0.0:
        raise DegenerateDataError("initial data has no mass to match")
    c = m0 / mv
    scaled = ray.base.state.with_fields(c * ray.base.state.fields)
    return c, StationaryState(
        state=scaled,
        residual=c * ray.base.residual,
        normalization="mass_matched",
        constraint_value=m0,
    )


def boltzmann_profile(spec, species: int = 0) -> np.ndarray:
    """Normalized cell samples of exp(-psi/sigma) for one species.

    This is the exact single-species stationary density: the flux vanishes on
    it face by face, and here it is normalized to unit discrete integral.
    """
    prof = np.exp(-_samples(spec)[0][species] / spec.species[species].sigma)
    return prof / (spec.grid.cell_volume * prof.sum())
