"""Executable checks for the structural invariants of the discrete flow.

Monitored quantities:

  * weighted mass  sum_i (1/alpha_i) integral(u_i)  - conserved in time,
  * weighted L1 distance  sum_i (1/alpha_i) ||u_i - w_i||_L1  - the metric in
    which the flow is a contraction.

`check_contraction` asserts the distance between two runs never increases;
for one-signed differences it must stay constant (the difference keeps its
sign by order preservation, so its norm equals its conserved mass gap), and
for sign-changing differences it decreases strictly.  `check_comparison`
asserts cellwise ordering and nonnegativity.  `check_convergence` monitors
the distance to a stationary target, which is a Lyapunov function of the
flow.  `oracle_expm` provides an independent dense matrix-exponential
reference for small linear systems, used by `oracle_compare` to confirm the
first-order accuracy of the implicit stepper.

All slack tolerances are absolute, scaled by initial magnitudes, so that
round-off can never fail a true statement.
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
    "DifferenceSeries",
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
#: smallest difference magnitude that counts as a genuine sign
SIGN_THRESHOLD = 1e-8
#: relative slack factor for monotonicity assertions
MONOTONE_SLACK = 1e-10
#: step sizes of the oracle fit, coarsest first
ORACLE_DTS = (0.1, 0.05, 0.025)
#: time at which the oracle fit compares
ORACLE_T = 1.0
#: weighted L1 distance to the stationary target that a converged run reaches
CONVERGENCE_THRESHOLD = 1e-6


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


@dataclass(frozen=True)
class DifferenceSeries:
    """Weighted L1 norm of the difference of two runs, with sign flags."""

    times: tuple[float, ...]
    norms: tuple[float, ...]
    sign_change: tuple[tuple[bool, ...], ...]  # per time, per species

    def __post_init__(self):
        if not (len(self.times) == len(self.norms) == len(self.sign_change)):
            raise ValueError("inconsistent series lengths")
        if any(v < 0.0 for v in self.norms):
            raise ValueError("norms must be nonnegative")


def weighted_mass(state: State, spec: ProblemSpec) -> float:
    """sum_i (1/alpha_i) * cell_volume * sum_cells u_i, in the physical gauge."""
    if state.gauge != "physical":
        raise ValueError("weighted_mass is defined on physical-gauge states")
    vol = state.grid.cell_volume
    return float(np.sum(vol * state.fields.sum(axis=1) / spec.alphas))


def weighted_l1_norm(state: State, spec: ProblemSpec) -> float:
    vol = state.grid.cell_volume
    return float(np.sum(vol * np.abs(state.fields).sum(axis=1) / spec.alphas))


def weighted_l1_distance(a: State, b: State, spec: ProblemSpec) -> float:
    """Weighted L1 distance between two states on the same grid."""
    if a.fields.shape != b.fields.shape or a.grid != b.grid:
        raise ValueError("states live on different grids or species counts")
    vol = a.grid.cell_volume
    diff = np.abs(a.fields - b.fields).sum(axis=1)
    return float(np.sum(vol * diff / spec.alphas))


def _sign_flags(diff: np.ndarray) -> tuple[bool, ...]:
    return tuple(
        bool((row.min() < -SIGN_THRESHOLD) and (row.max() > SIGN_THRESHOLD))
        for row in diff
    )


def _largest_increase(times, values) -> tuple[float, float]:
    """The largest rise of ``values`` from one snapshot to the next, and the
    time at which it ends: (0.0, times[0]) when the series never rises."""
    worst, argmax = 0.0, times[0]
    for t, before, after in zip(times[1:], values, values[1:]):
        if after - before > worst:
            worst, argmax = after - before, t
    return worst, argmax


def check_contraction(spec: ProblemSpec, u0_a: State, u0_b: State,
                      cfg: StepConfig) -> tuple[CheckReport, DifferenceSeries]:
    """Assert the weighted L1 distance of two runs never increases."""
    times, norms, flags = [], [], []
    for a, b in run(spec, cfg, (u0_a, u0_b)):
        times.append(a.t)
        norms.append(weighted_l1_distance(a, b, spec))
        flags.append(_sign_flags(a.fields - b.fields))
    series = DifferenceSeries(tuple(times), tuple(norms), tuple(flags))

    slack = MONOTONE_SLACK * (1.0 + norms[0])
    worst, argmax = _largest_increase(times, norms)
    report = CheckReport(
        name="contraction",
        passed=worst <= slack,
        worst=worst,
        argmax_time=argmax,
        tolerance=slack,
        series={"times": tuple(times), "distance": tuple(norms)},
    )
    return report, series


def check_comparison(spec: ProblemSpec, u0_low: State, u0_high: State,
                     cfg: StepConfig, tol: float = 1e-12) -> CheckReport:
    """Assert cellwise ordering of two ordered runs, plus nonnegativity of both.

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
        passed=worst <= tol,
        worst=worst,
        argmax_time=argmax,
        tolerance=tol,
        series={"times": tuple(times)},
    )


def check_convergence(spec: ProblemSpec, u0: State, cfg: StepConfig,
                      target, threshold: float = CONVERGENCE_THRESHOLD) -> CheckReport:
    """Assert the distance to a stationary target decays below ``threshold``.

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
    final = dists[-1]
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
