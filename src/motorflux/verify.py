"""Executable checks for the structural invariants of the discrete flow.

Monitored quantities:

  * weighted mass  sum_i (1/alpha_i) integral(u_i)  - conserved in time,
  * weighted L1 distance  sum_i (1/alpha_i) ||u_i - w_i||_L1  - the metric in
    which the flow is a contraction.

Each check steps its trajectories with `run_batch`, reduces every snapshot
to scalars, and returns one `CheckReport`.  The gates are module constants,
read when a check is called; no check takes a tolerance.

  * `check_contraction` gates that the distance between two runs never
    increases from one snapshot to the next by more than
    MONOTONE_SLACK * (1 + initial distance).  Constancy for a one-signed
    difference and strict decrease for a sign-changing one are properties of
    the flow that its ``series["distance"]`` shows, not gates.
  * `check_comparison` gates that two ordered runs stay ordered cell by cell
    and nonnegative, within COMPARISON_TOL.
  * `check_convergence` gates that the distance to a stationary target, a
    Lyapunov function of the flow, never increases (MONOTONE_SLACK, as
    above) and ends at most CONVERGENCE_THRESHOLD.
  * `oracle_compare` gates that the implicit stepper's error against the
    dense matrix exponential `oracle_expm` at t = ORACLE_T, over the step
    sizes ORACLE_DTS, fits an order of at least 0.9.

Slacks are absolute, scaled by initial magnitudes, so that round-off can
never fail a true statement.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .discretize import SystemOperator, assemble_system
from .errors import OracleScopeError
# `run` here is the stepping generator, the name that perfbench/spans.py
# traces; `motorflux.run` is the library call that collects it into a Trajectory
from .evolve import StepConfig, run_batch as run
from .model import ProblemSpec, State, initial_state

__all__ = [
    "CheckReport",
    "weighted_mass",
    "weighted_l1_norm",
    "weighted_l1_distance",
    "check_contraction",
    "check_comparison",
    "check_convergence",
    "oracle_expm",
    "oracle_compare",
    "report_to_json",
    "write_reports_ndjson",
]

#: dense-oracle size cap (total unknowns)
ORACLE_SIZE_CAP = 512
#: relative slack factor for monotonicity assertions
MONOTONE_SLACK = 1e-10
#: step sizes of the oracle fit, coarsest first
ORACLE_DTS = (0.1, 0.05, 0.025)
#: time at which the oracle fit compares
ORACLE_T = 1.0
#: weighted L1 distance to the stationary target that a converged run reaches
CONVERGENCE_THRESHOLD = 1e-6
#: largest order gap or negative value that two compared runs may show
COMPARISON_TOL = 1e-12


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one check: pass flag, worst violation, monitored series."""

    name: str
    passed: bool
    worst: float
    argmax_time: float
    tolerance: float
    series: dict[str, tuple] = field(default_factory=dict)
    notes: str = ""


def _weighted_sum(rows: np.ndarray, vol: float, alphas=None):
    """vol * sum_c rows[i, c] for each species i, or with ``alphas`` sum_i of those / alphas[i],
    taken at the 2^k that brings max|rows| into [1/2, 1): exact times 2^j, inf past 1.8e308."""
    k = np.frexp(max(float(rows.max()), -float(rows.min())))[1]  # 0 for 0, inf and NaN
    with np.errstate(over="ignore"):
        terms = vol * np.ldexp(rows, -k).sum(axis=1)
        return np.ldexp(terms if alphas is None else np.sum(terms / alphas), k)


def weighted_mass(state: State, spec: ProblemSpec) -> float:
    """sum_i (1/alpha_i) * cell_volume * sum_cells u_i, in the physical gauge."""
    if state.gauge != "physical":
        raise ValueError("weighted_mass expects a physical-gauge state")
    return float(_weighted_sum(state.fields, state.grid.cell_volume, spec.alphas))


def weighted_l1_norm(state: State, spec: ProblemSpec) -> float:
    return float(_weighted_sum(np.abs(state.fields), state.grid.cell_volume, spec.alphas))


def weighted_l1_distance(a: State, b: State, spec: ProblemSpec) -> float:
    """Weighted L1 distance between two states on the same grid."""
    if a.fields.shape != b.fields.shape or a.grid != b.grid:
        raise ValueError("states live on different grids or species counts")
    return float(_weighted_sum(np.abs(a.fields - b.fields), a.grid.cell_volume, spec.alphas))


def _largest_increase(times, values) -> tuple[float, float]:
    """The largest rise of ``values`` from one snapshot to the next, and the
    time at which it ends: (0.0, times[0]) when the series never rises.  The
    first NaN rise, such as inf - inf, is the worst: it fails every gate."""
    worst, argmax = 0.0, times[0]
    for t, before, after in zip(times[1:], values, values[1:]):
        rise = after - before
        if not rise <= worst:
            worst, argmax = rise, t
            if rise != rise:
                break
    return worst, argmax


def check_contraction(spec: ProblemSpec, u0_a: State, u0_b: State,
                      cfg: StepConfig) -> CheckReport:
    """Assert the weighted L1 distance of two runs never increases."""
    times, norms = [], []
    for a, b in run(spec, cfg, (u0_a, u0_b)):
        times.append(a.t)
        norms.append(weighted_l1_distance(a, b, spec))

    slack = MONOTONE_SLACK * (1.0 + norms[0])
    worst, argmax = _largest_increase(times, norms)
    return CheckReport(
        name="contraction",
        passed=worst <= slack,
        worst=worst,
        argmax_time=argmax,
        tolerance=slack,
        series={"times": tuple(times), "distance": tuple(norms)},
    )


def check_comparison(spec: ProblemSpec, u0_low: State, u0_high: State,
                     cfg: StepConfig) -> CheckReport:
    """Assert cellwise ordering of two ordered runs, plus nonnegativity of both,
    within COMPARISON_TOL.

    A pair that is not ordered at t=0 is rejected outright; that is invalid
    input, not a failed check.
    """
    if np.any(u0_low.fields > u0_high.fields):
        raise ValueError("u0_low must be cellwise <= u0_high")
    times = []
    worst = 0.0
    argmax = u0_low.t
    for lo, hi in run(spec, cfg, (u0_low, u0_high)):
        times.append(lo.t)
        order_gap = float((lo.fields - hi.fields).max())
        neg = -min(float(lo.fields.min()), float(hi.fields.min()))
        bad = max(order_gap, neg, 0.0)
        if bad > worst:
            worst = bad
            argmax = lo.t
    return CheckReport(
        name="comparison",
        passed=worst <= COMPARISON_TOL,
        worst=worst,
        argmax_time=argmax,
        tolerance=COMPARISON_TOL,
        series={"times": tuple(times)},
    )


def check_convergence(spec: ProblemSpec, u0: State, cfg: StepConfig, target) -> CheckReport:
    """Assert the distance to a stationary target decays below CONVERGENCE_THRESHOLD.

    The distance must also be nonincreasing along the way: the target is a
    fixed point, so its distance to the trajectory is a Lyapunov function.
    ``target`` is a `StationaryState`; its ``state`` field is used.
    """
    times, dists = [], []
    for (state,) in run(spec, cfg, (u0,)):
        times.append(state.t)
        dists.append(weighted_l1_distance(state, target.state, spec))

    slack = MONOTONE_SLACK * (1.0 + dists[0])
    worst_inc, argmax = _largest_increase(times, dists)
    final, threshold = dists[-1], CONVERGENCE_THRESHOLD
    passed = worst_inc <= slack and final <= threshold
    worst = max(worst_inc, final - threshold if final > threshold else 0.0)
    return CheckReport(
        name="convergence",
        passed=passed,
        worst=worst,
        argmax_time=argmax if worst_inc >= final - threshold else times[-1],
        tolerance=threshold,
        series={"times": tuple(times), "distance": tuple(dists)},
        notes=f"final distance {final!r}",
    )


def oracle_expm(A: SystemOperator, t: float, u0: State) -> State:
    """Dense matrix-exponential reference: exp(t*A) applied to u0.

    Independent of the time stepper; capped at ORACLE_SIZE_CAP unknowns.
    """
    nd = A.matrix.shape[0]
    if nd > ORACLE_SIZE_CAP:
        raise OracleScopeError(
            f"{nd} unknowns exceed the dense-oracle cap of {ORACLE_SIZE_CAP}"
        )
    if t < 0.0:
        raise ValueError("oracle_expm needs t >= 0")
    dense = A.matrix.toarray()
    propagated = expm(t * dense) @ u0.fields.ravel()
    if not np.isfinite(propagated).all():
        raise OracleScopeError(
            f"exp(t*A) u0 is not finite at t={t!r}: the dense oracle overflows "
            "double precision for this operator"
        )
    return u0.with_fields(propagated.reshape(u0.fields.shape), t=u0.t + t)


def oracle_compare(spec: ProblemSpec) -> CheckReport:
    """Fit the temporal order of the implicit stepper against the dense oracle.

    Runs the stepper to time t = ORACLE_T once per step size of ORACLE_DTS,
    measures weighted L1 errors against exp(t*A) u0, and passes when the
    fitted order is at least 0.9.
    """
    t = ORACLE_T
    A = assemble_system(spec)
    u0 = initial_state(spec)
    ref = oracle_expm(A, t, u0)
    ref_norm = weighted_l1_norm(ref, spec)

    errors = []
    for dt in ORACLE_DTS:
        # stride = the step count: only the final state is yielded after u0
        for (final,) in run(spec, StepConfig(dt=dt, t_end=t, stride=round(t / dt)), (u0,)):
            pass
        errors.append(weighted_l1_distance(final, ref, spec))

    if max(errors) <= 1e-13 * max(ref_norm, 1.0):
        # degenerate fixtures (zero or stationary data): nothing to fit
        return CheckReport(
            name="oracle",
            passed=True,
            worst=0.0,
            argmax_time=t,
            tolerance=0.9,
            series={"dt": ORACLE_DTS, "error": tuple(errors)},
            notes="errors at round-off; order not identifiable",
        )
    order = float(np.polyfit(np.log(ORACLE_DTS), np.log(errors), 1)[0])
    rel = errors[-1] / ref_norm if ref_norm > 0.0 else errors[-1]
    return CheckReport(
        name="oracle",
        passed=order >= 0.9,
        worst=max(0.0, 0.9 - order),
        argmax_time=t,
        tolerance=0.9,
        series={"dt": ORACLE_DTS, "error": tuple(errors)},
        notes=f"fitted order {order!r}; relative error at dt={ORACLE_DTS[-1]} is {rel!r}",
    )


def report_to_json(report: CheckReport) -> dict:
    """JSON-ready dictionary for one check report."""
    return {
        "name": report.name,
        "pass": report.passed,
        "worst": report.worst,
        "argmax_time": report.argmax_time,
        "tolerance": report.tolerance,
        "series": {k: list(v) for k, v in report.series.items()},
        "notes": report.notes,
    }


def write_reports_ndjson(reports, path) -> None:
    """Write check reports as NDJSON, one object per line."""
    with open(path, "w", encoding="ascii") as fh:
        for rep in reports:
            fh.write(json.dumps(report_to_json(rep), sort_keys=True) + "\n")
