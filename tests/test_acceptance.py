"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; a failing assertion marks the criterion failed.
"""

import numpy as np
import pytest
from scipy.linalg import null_space

import motorflux as mf
from motorflux import (
    CouplingMatrix,
    Grid,
    PotentialSpec,
    ProblemSpec,
    SpeciesSpec,
    State,
    StepConfig,
)

from conftest import (
    random_problem,
    reversible_problem,
    sawtooth_motor,
    smooth_state,
    symmetric_motor,
)
from reversible_oracle import reversible_pair


def report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def ordered_pair(spec, rng):
    low = smooth_state(spec, rng)
    high = low.with_fields(low.fields * (1.0 + rng.uniform(0.0, 0.5, low.fields.shape)))
    return low, high


def test_criterion_1_conservation():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for case in range(10):
        spec = random_problem(rng, n=[1, 2, 3][case % 3], cells=64)
        traj = mf.run(spec, StepConfig(dt=1e-3, t_end=1.0, stride=100))
        masses = [mf.weighted_mass(state, spec) for state in traj.states]
        drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
        worst = max(worst, drift)
        assert drift <= 1e-11, f"case {case}: mass drift {drift:.3e} over 1000 steps"
    report("1 conservation", f"worst relative drift {worst:.3e} over 10 specs x 1000 steps")


def test_criterion_2_positivity_and_comparison():
    rng = np.random.default_rng(1002)
    worst = 0.0
    for case in range(20):
        linear = case % 2 == 0
        spec = random_problem(rng, n=2, cells=48, linear=linear)
        low, high = ordered_pair(spec, rng)
        if linear:
            cfg = StepConfig(dt=0.02, t_end=0.5, stride=5)
        else:
            dt = 0.4 * mf.imex_dt_max(high, spec)
            cfg = StepConfig(dt=dt, t_end=25 * dt, stride=5)
        rep = mf.check_comparison(spec, low, high, cfg, tol=1e-12)
        worst = max(worst, rep.worst)
        assert rep.passed, f"case {case}: worst violation {rep.worst:.3e}"
    report("2 positivity+comparison", f"worst violation {worst:.3e} over 20 ordered pairs")


def test_criterion_3_weak_and_strict_contraction():
    rng = np.random.default_rng(1003)
    worst_inc = 0.0
    for case in range(20):
        linear = case % 3 != 2
        spec = random_problem(rng, n=2, cells=48, linear=linear)
        a = smooth_state(spec, rng)
        b = smooth_state(spec, rng)
        if linear:
            cfg = StepConfig(dt=0.02, t_end=0.5, stride=5)
        else:
            dt = 0.4 * min(mf.imex_dt_max(a, spec), mf.imex_dt_max(b, spec))
            cfg = StepConfig(dt=dt, t_end=25 * dt, stride=5)
        rep, _series = mf.check_contraction(spec, a, b, cfg)
        worst_inc = max(worst_inc, rep.worst)
        assert rep.passed, f"case {case}: increase {rep.worst:.3e}"

    worst_ratio = 0.0
    for case in range(10):
        spec = sawtooth_motor(64)
        u0 = smooth_state(spec, rng)
        wiggle = 0.3 * np.cos(2.0 * np.pi * (1 + case % 3) * spec.grid.centers()
                              + rng.uniform(0.0, np.pi))
        other = u0.with_fields(np.maximum(u0.fields + wiggle, 0.0))
        rep, series = mf.check_contraction(spec, u0, other,
                                           StepConfig(dt=0.02, t_end=1.0, stride=10))
        assert rep.passed
        assert any(series.sign_change[0]), "fixture must start with a sign change"
        ratio = series.norms[-1] / series.norms[0]
        worst_ratio = max(worst_ratio, ratio)
        assert ratio < 0.99, f"case {case}: ratio {ratio:.4f} at t=1"
    report("3 contraction", f"worst increase {worst_inc:.3e}; "
                            f"worst strict ratio {worst_ratio:.4f} at t=1")


def test_criterion_4_equality_case():
    rng = np.random.default_rng(1004)
    worst = 0.0
    for case in range(10):
        spec = random_problem(rng, n=2, cells=48, linear=case % 5 != 4)
        low, high = ordered_pair(spec, rng)
        if spec.is_linear:
            cfg = StepConfig(dt=0.02, t_end=5.0, stride=10)
        else:
            dt = 0.4 * mf.imex_dt_max(high, spec)
            cfg = StepConfig(dt=dt, t_end=5.0, stride=10)
        _rep, series = mf.check_contraction(spec, high, low, cfg)
        spread = max(abs(v - series.norms[0]) for v in series.norms)
        worst = max(worst, spread)
        assert spread <= 1e-10, f"case {case}: series moved by {spread:.3e}"
    report("4 equality case", f"worst |series - series(0)| = {worst:.3e} up to t=5")


def test_criterion_5_stationary_solver():
    # (a) symmetric zero-potential motor
    spec = symmetric_motor(64)
    ss = mf.solve_null_vector(mf.assemble_system(spec), tol=1e-13)
    dev_a = np.abs(ss.state.fields - 0.5).max()
    assert dev_a <= 1e-10

    # (b) single-species Boltzmann profile
    grid = Grid.interval(0.0, 1.0, 64)
    single = ProblemSpec(
        grid=grid,
        species=(SpeciesSpec(0.8, 1.0, PotentialSpec("sawtooth_smoothed", amplitude=0.6)),),
        coupling=CouplingMatrix([[0.0]]),
        initial=(PotentialSpec("linear", offset=1.0),),
    )
    ssb = mf.solve_null_vector(mf.assemble_system(single), tol=1e-13)
    dev_b = np.abs(ssb.state.fields[0] - mf.boltzmann_profile(single)).max()
    assert dev_b <= 1e-10

    # (c) random three-species spec: residual and strict positivity
    rng = np.random.default_rng(1005)
    spec3 = random_problem(rng, n=3, cells=64)
    A3 = mf.assemble_system(spec3)
    ss3 = mf.solve_null_vector(A3, tol=1e-12)
    residual = float(np.abs(A3.matrix @ ss3.state.fields.ravel()).max())
    assert residual <= 1e-10
    assert ss3.state.fields.min() > 0.0

    # (d) simple-eigenvalue witness: the dense null space is one ray and
    # its positive, normalized basis vector is the solver's result
    dense = null_space(A3.matrix.toarray())
    assert dense.shape[1] == 1
    ref = dense[:, 0] * np.sign(dense[:, 0].sum())
    assert ref.min() > 0.0
    ref = ref / (spec3.grid.cell_volume * ref.sum())
    dist_d = mf.weighted_l1_distance(
        State(spec3.grid, ref.reshape(ss3.state.fields.shape)), ss3.state, spec3)
    assert dist_d <= 1e-8
    report("5 stationary solver",
           f"motor dev {dev_a:.2e}; boltzmann dev {dev_b:.2e}; "
           f"residual {residual:.2e}; dense null-space distance {dist_d:.2e}")


def test_criterion_6_stabilization():
    rng = np.random.default_rng(1006)
    # linear motor with distinct sawtooth potentials
    spec = sawtooth_motor(64)
    u0 = smooth_state(spec, rng)
    target = mf.solve_stationary(spec, u0)
    rep = mf.check_convergence(spec, u0, StepConfig(dt=0.05, t_end=50.0, stride=50),
                               target, threshold=1e-6)
    final_lin = rep.series["distance"][-1]
    assert rep.passed, f"linear motor: final distance {final_lin:.3e}"

    # reversible reaction u^2 <-> v with conserved mass 2 converges to (1, 1)
    rev = reversible_problem(cells=64, p=2.0, mass_each=1.0)
    u0r = mf.initial_state(rev)
    mass = mf.weighted_mass(u0r, rev)
    assert mass == pytest.approx(2.0, rel=1e-12)
    a, b = reversible_pair(mass, rev.species[0].reaction, rev.species[1].reaction,
                           volume=rev.grid.volume)
    assert (a, b) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))
    target_state = State(rev.grid, np.stack([np.full(64, a), np.full(64, b)]))
    solved = mf.solve_stationary(rev, u0r).state
    assert np.abs(solved.fields - target_state.fields).max() <= 1e-12
    traj = mf.run(rev, StepConfig(dt=0.05, t_end=50.0, stride=100))
    final_rev = mf.weighted_l1_distance(traj.final, target_state, rev)
    assert final_rev <= 1e-6
    dists = [mf.weighted_l1_distance(s, target_state, rev) for s in traj.states]
    increases = max(dists[k] - dists[k - 1] for k in range(1, len(dists)))
    assert increases <= 1e-10 * (1.0 + dists[0])
    report("6 stabilization", f"linear final {final_lin:.3e}; reversible final {final_rev:.3e}")


def test_criterion_7_oracle_agreement():
    grid = Grid.interval(0.0, 1.0, 8)
    spec = ProblemSpec(
        grid=grid,
        species=(SpeciesSpec(1.0, 1.0, PotentialSpec("sawtooth_smoothed", amplitude=0.5)),
                 SpeciesSpec(0.8, 1.0, PotentialSpec("cosine", amplitude=0.5))),
        coupling=CouplingMatrix([[-1.0, 1.0], [1.0, -1.0]]),
        initial=(PotentialSpec("cosine", amplitude=0.4, offset=1.0),
                 PotentialSpec("cosine", amplitude=0.3, offset=0.8, period=0.5)),
    )
    rep = mf.oracle_compare(spec, StepConfig(dt=0.1, t_end=1.0),
                            dts=(0.1, 0.05, 0.025))
    assert rep.passed
    order = float(rep.notes.split("fitted order ")[1].split(";")[0])
    assert order >= 0.9
    ref = mf.oracle_expm(mf.assemble_system(spec), 1.0, mf.initial_state(spec))
    rel = rep.series["error"][-1] / mf.weighted_l1_norm(ref, spec)
    assert rel <= 5e-3
    report("7 oracle agreement", f"fitted order {order:.3f}; rel error at dt=0.025 {rel:.3e}")


def test_criterion_8_gauge_coherence():
    spec = sawtooth_motor(48)
    A = mf.assemble_system(spec)
    v = mf.solve_null_vector(A, tol=1e-13).state
    An = mf.conjugate_to_neumann(A, spec)
    w = mf.solve_null_vector(An, tol=1e-13).state
    pts = spec.grid.centers()
    dv = np.stack([
        v.fields[i] * np.exp(
            np.asarray(mf.eval_potential(sp.potential, pts, spec.grid)) / sp.sigma)
        for i, sp in enumerate(spec.species)
    ])
    dv /= spec.grid.cell_volume * dv.sum()  # match the solver normalization
    dev = np.abs(dv - w.fields).max()
    assert dev <= 1e-9

    u = smooth_state(spec, np.random.default_rng(1008))
    back = mf.gauge_transform(mf.gauge_transform(u, spec, "to_neumann"),
                              spec, "to_physical")
    rel = np.abs(back.fields - u.fields).max() / np.abs(u.fields).max()
    assert rel <= 1e-14
    report("8 gauge coherence", f"null-vector dev {dev:.3e}; round trip {rel:.3e}")


def test_criterion_9_spatial_consistency():
    sigma = 0.8
    pot = PotentialSpec("cosine", amplitude=0.7, period=1.0)

    def u_smooth(x):
        return 0.5 + 0.25 * np.cos(np.pi * x)

    def lu_exact(x):
        up = -0.25 * np.pi * np.sin(np.pi * x)
        upp = -0.25 * np.pi ** 2 * np.cos(np.pi * x)
        psip = -0.7 * 2.0 * np.pi * np.sin(2.0 * np.pi * x)
        psipp = -0.7 * (2.0 * np.pi) ** 2 * np.cos(2.0 * np.pi * x)
        return sigma * upp + up * psip + u_smooth(x) * psipp

    errs, hs = [], []
    for n in (32, 64, 128, 256):
        g = Grid.interval(0.0, 1.0, n)
        T = mf.assemble_transport(g, sigma, pot)
        xs = g.centers()
        err = np.abs((T.matrix @ u_smooth(xs) - lu_exact(xs))[1:-1]).max()
        errs.append(err)
        hs.append(g.h[0])
    slope = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    assert slope >= 1.8
    report("9 spatial consistency", f"measured order {slope:.3f} over N=32..256")


def test_criterion_10_cli_determinism(tmp_path):
    from motorflux.cli import main

    config = tmp_path / "motor.ini"
    config.write_text("""\
[domain]
lo = 0.0
hi = 1.0
cells = 64

[species.1]
sigma = 1.0
alpha = 1.0
potential.kind = sawtooth_smoothed
potential.params = amplitude=0.5, period=1.0
initial.kind = cosine
initial.params = amplitude=0.4, offset=1.0

[species.2]
sigma = 0.8
alpha = 1.0
potential.kind = sawtooth_smoothed
potential.params = amplitude=0.5, period=1.0, phase=0.3
initial.kind = cosine
initial.params = amplitude=0.3, offset=0.8, period=0.5

[coupling]
row.1 = -1.0, 1.0
row.2 = 1.0, -1.0

[time]
dt = 0.01
t_end = 1.0
stride = 10
""")
    n_files = 0
    for command, sub in (("simulate", "sim"), ("steady", "st")):
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{sub}_{tag}"
            assert main([command, "--config", str(config), "--out", str(out)]) == 0
            outs.append(out)
        files_a = sorted(p for p in outs[0].iterdir())
        files_b = sorted(p for p in outs[1].iterdir())
        assert [p.name for p in files_a] == [p.name for p in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()
        n_files += len(files_a)
    report("10 determinism", f"{n_files} files byte-identical across repeated runs")
