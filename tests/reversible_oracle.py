"""The closed form of the two-species reversible reaction: the test oracle for
the stationary solver on u^p <-> v with zero potentials.

With zero potentials and coupling [[-k, k], [k, -k]] every stationary state
is constant, (a, b) with r_A(a) = r_B(b) and the weighted mass a/alpha +
b/beta fixed; `reversible_pair` finds it by bisection, independently of the
continuation in `motorflux.steady`.
"""

import numpy as np

from motorflux import ReactionSpec, eval_reaction
from motorflux.errors import DegenerateDataError, NonConvergenceError, OutOfDomainError


def reaction_inverse(r: ReactionSpec, y):
    """Inverse reaction map: the value s with r(s) = y, for y >= 0."""
    arr = np.asarray(y, dtype=float)
    if arr.size and arr.min() < 0.0:
        raise OutOfDomainError("reaction inverse is only defined for nonnegative values")
    if r.kind == "linear":
        out = arr.copy()
    else:
        out = np.power(arr, 1.0 / r.exponent)
    return float(out) if np.isscalar(y) or arr.ndim == 0 else out


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
