import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse.linalg import SuperLU, splu

from motorflux import (
    Grid,
    PotentialSpec,
    ProblemSpec,
    ReactionSpec,
    SpeciesSpec,
    CouplingMatrix,
    State,
    StepConfig,
    assemble_system,
    assemble_transport,
    boltzmann_profile,
    eval_reaction,
    imex_dt_max,
    initial_state,
    oracle_expm,
    run,
    run_batch,
    weighted_l1_distance,
    weighted_mass,
)
import motorflux.evolve
from motorflux.cli import MASS_DRIFT_TOL
from motorflux.discretize import _block_matrix
from motorflux.evolve import (
    LIN_TOL,
    MAX_STEPS,
    _CellMajorBand,
    _Factored,
    _implicit_matrix,
    _inf_norm,
    _Stepper,
    _SymmetrizedTridiagonal,
)
from motorflux.errors import ConfigError, ScalingError, SolverError, StepSizeError

from conftest import (
    ZERO,
    one_step,
    random_problem,
    reversible_problem,
    sawtooth_motor,
    smooth_state,
    symmetric_motor,
)
from coo_assembly import coo_system


def transports_for(spec):
    return tuple(
        assemble_transport(spec.grid, sp.sigma, sp.potential, species=i)
        for i, sp in enumerate(spec.species)
    )


def _symmetric_motor_2d(cells: int) -> ProblemSpec:
    """`symmetric_motor` on a cells x cells square."""
    spec = symmetric_motor(cells)
    return ProblemSpec(grid=Grid.box((0.0, 0.0), (1.0, 1.0), (cells, cells)),
                       species=spec.species, coupling=spec.coupling, initial=spec.initial)


def _one_problem_per_factor_kind() -> tuple[ProblemSpec, ...]:
    """A 1-D IMEX problem (pttrs), a 1-D linear one (the band) and a 2-D linear
    one (SuperLU), each admissible at dt = 0.1."""
    return reversible_problem(cells=8, p=2.0), symmetric_motor(8), _symmetric_motor_2d(4)


def _factor(matrix, w, dt, cells=None, tol=LIN_TOL):
    """The stepper's factorization of K = I - dt*M for one block M; ``cells``
    per species on a 1-D grid, None on a 2-D one.  ``tol`` stands in for
    LIN_TOL, which `_Factored` reads when it is built."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(motorflux.evolve, "LIN_TOL", tol)
        return _Factored(_implicit_matrix(matrix, dt), w, dt, cells)


class TestStepConfig:
    def test_rejects_bad_values(self):
        with pytest.raises(ConfigError):
            StepConfig(dt=0.0, t_end=1.0)
        with pytest.raises(ConfigError):
            StepConfig(dt=0.1, t_end=-1.0)
        with pytest.raises(ConfigError):
            StepConfig(dt=0.1, t_end=1.0, stride=0)

    def test_step_count_cap(self):
        StepConfig(dt=1.0, t_end=float(MAX_STEPS))
        with pytest.raises(ConfigError, match="cap"):
            StepConfig(dt=1.0, t_end=MAX_STEPS + 1.0)

    @pytest.mark.parametrize("field", ["dt", "t_end"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_rejects_non_finite_values(self, field, value):
        kwargs = {"dt": 0.1, "t_end": 1.0, field: value}
        with pytest.raises(ConfigError, match=field):
            StepConfig(**kwargs)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_lin_tol_is_no_field(self, value):
        # every solve meets the fixed LIN_TOL; no run sets its own bound
        with pytest.raises(TypeError, match="lin_tol"):
            StepConfig(dt=0.1, t_end=1.0, lin_tol=value)


class TestLinearStep:
    def test_constant_state_is_fixed(self):
        g = Grid.interval(0.0, 1.0, 16)
        spec = ProblemSpec(grid=g, species=(SpeciesSpec(1.0, 1.0, ZERO),),
                           coupling=CouplingMatrix([[0.0]]),
                           initial=(PotentialSpec("linear", offset=1.0),))
        u = initial_state(spec)
        out = one_step(spec, u, 0.1)
        assert np.abs(out.fields - u.fields).max() <= 1e-14

    def test_mass_preserved_over_100_steps(self, rng):
        spec = random_problem(rng, n=3, cells=32)
        traj = run(spec, StepConfig(dt=0.01, t_end=1.0, stride=100))
        assert traj.times == (0.0, 1.0)
        m0 = weighted_mass(traj.states[0], spec)
        assert abs(weighted_mass(traj.final, spec) - m0) / m0 <= 1e-11

    def test_positivity_preserved(self, rng):
        spec = random_problem(rng, n=2, cells=32)
        u = initial_state(spec)
        for dt in (0.01, 0.1, 1.0, 10.0):
            out = one_step(spec, u, dt)
            assert out.fields.min() >= -1e-13

    def test_first_order_against_exponential(self, rng):
        spec = random_problem(rng, n=2, cells=2)
        A = assemble_system(spec)
        u0 = initial_state(spec)
        t = 0.4
        ref = oracle_expm(A, t, u0)
        errs = []
        for dt in (0.1, 0.05, 0.025):
            traj = run(spec, StepConfig(dt=dt, t_end=t), u0)
            assert len(traj.times) == round(t / dt) + 1  # no remainder step
            errs.append(weighted_l1_distance(traj.final, ref, spec))
        order = np.polyfit(np.log([0.1, 0.05, 0.025]), np.log(errs), 1)[0]
        assert order >= 0.9

    def test_negative_state_rejected(self):
        spec = symmetric_motor(8)
        bad = State(spec.grid, -np.ones((2, 8)))
        with pytest.raises(ValueError, match="nonnegative"):
            one_step(spec, bad, 0.1)
        # the conservation weights of a Neumann-gauge state differ
        neumann = State(spec.grid, np.ones((2, 8)), gauge="neumann")
        with pytest.raises(ValueError, match="physical-gauge state"):
            one_step(spec, neumann, 0.1)

    def test_comparison_preserved_by_m_matrix(self, rng):
        spec = random_problem(rng, n=2, cells=32)
        low = smooth_state(spec, rng)
        high = low.with_fields(low.fields + rng.uniform(0.0, 0.5, low.fields.shape))
        for low, high in run_batch(spec, StepConfig(dt=0.05, t_end=1.0), (low, high)):
            assert (low.fields <= high.fields + 1e-12).all()


class TestImexStep:
    def test_reversible_constant_pair_is_fixed_point(self):
        spec = reversible_problem(cells=24, p=2.0)
        # (a, b) = (1, 1) balances u^2 <-> v
        u = State(spec.grid, np.ones((2, spec.grid.size)))
        out = one_step(spec, u, 0.1)
        assert np.abs(out.fields - u.fields).max() <= 1e-13

    def test_zero_state_stays_zero(self):
        spec = reversible_problem(cells=16)
        u = State(spec.grid, np.zeros((2, spec.grid.size)))
        out = one_step(spec, u, 0.1)
        assert np.array_equal(out.fields, np.zeros_like(out.fields))

    def test_reaction_stage_conserves_mass(self, rng):
        spec = random_problem(rng, n=2, cells=32, linear=False)
        u = smooth_state(spec, rng)
        m0 = weighted_mass(u, spec)
        dt = 0.5 * imex_dt_max(u, spec)
        out = one_step(spec, u, dt)
        assert abs(weighted_mass(out, spec) - m0) <= 1e-13 * max(1.0, m0)

    @staticmethod
    def _stage_inputs(rng):
        """A 3-species power-law batch of two trajectories, its dt and its rates r(u)."""
        spec = random_problem(rng, n=3, cells=40, linear=False)
        u = np.stack([smooth_state(spec, rng).fields for _ in range(2)], axis=1)
        u[1, 0, 3] = -1e-14  # a round-off negative, clipped before r
        dt = 0.5 * min(imex_dt_max(State(spec.grid, u[:, j]), spec) for j in range(2))
        rates = np.stack([eval_reaction(sp.reaction, np.maximum(u[i], 0.0))
                          for i, sp in enumerate(spec.species)])
        return spec, u, dt, rates

    @staticmethod
    def _stage(spec, u, dt):
        coeff = motorflux.evolve._Stepper((), (), None, dt, spec)._coeff
        return motorflux.evolve._reaction_stage(u, spec, coeff, np.empty_like(u),
                                                np.empty_like(u))

    def test_fused_reaction_stage_equals_reference(self, rng):
        spec, u, dt, rates = self._stage_inputs(rng)
        coeff = dt * (spec.alphas[:, None] * spec.coupling.lam)
        reference = u + (coeff @ rates.reshape(3, -1)).reshape(u.shape)
        assert self._stage(spec, u, dt).tobytes() == reference.tobytes()

    def test_fused_reaction_stage_near_unscaled_formula(self, rng):
        # u + dt*(alphas*(lam @ r(u))) rounds in another order: each entry may
        # differ by a few ulps of the terms it sums, never more
        spec, u, dt, rates = self._stage_inputs(rng)
        mixed = (spec.coupling.lam @ rates.reshape(3, -1)).reshape(u.shape)
        unscaled = u + dt * (spec.alphas[:, None, None] * mixed)
        scale = np.abs(u) + dt * spec.alphas[:, None, None] * (
            np.abs(spec.coupling.lam) @ rates.reshape(3, -1)).reshape(u.shape)
        fused = self._stage(spec, u, dt)
        assert np.all(np.abs(fused - unscaled) <= 4.0 * np.finfo(float).eps * scale)

    def test_dt_bound_value_and_error(self):
        spec = reversible_problem(cells=16, p=2.0)
        u = State(spec.grid, np.full((2, spec.grid.size), 2.0))
        # L = p * max(u)^(p-1) = 2*2 = 4, alpha=|lam_ii|=1 -> dt_max = 0.25
        assert imex_dt_max(u, spec) == pytest.approx(0.25)
        with pytest.raises(StepSizeError) as exc_info:
            one_step(spec, u, 0.3)
        assert exc_info.value.dt_max == pytest.approx(0.25)

    def test_positivity_under_bound(self, rng):
        spec = random_problem(rng, n=2, cells=32, linear=False)
        u = smooth_state(spec, rng)
        for _ in range(50):
            u = one_step(spec, u, 0.5 * imex_dt_max(u, spec))
            assert u.fields.min() >= -1e-13


class TestSharedStepper:
    def test_two_imex_steps_equal_two_step_run(self):
        spec = reversible_problem(cells=32, p=2.0)
        traj = run(spec, StepConfig(dt=0.05, t_end=0.1))
        strided = run(spec, StepConfig(dt=0.05, t_end=0.1, stride=2))
        assert strided.times == (0.0, traj.final.t)
        assert strided.final.fields.tobytes() == traj.final.fields.tobytes()
        # a stepper factored for each step gives the same bytes as one shared
        manual = one_step(spec, one_step(spec, initial_state(spec), 0.05), 0.05)
        assert manual.fields.tobytes() == traj.final.fields.tobytes()

    def test_2d_step_matches_dense_solve(self, rng):
        spec = random_problem(rng, n=2, cells=12, dim=2)
        A = assemble_system(spec)
        u = initial_state(spec)
        dt = 0.5
        out = one_step(spec, u, dt)
        dense = np.eye(A.matrix.shape[0]) - dt * A.matrix.toarray()
        ref = np.linalg.solve(dense, u.fields.ravel())
        err = np.abs(out.fields.ravel() - ref).max() / np.abs(ref).max()
        assert err <= 1e-12
        assert out.fields.min() >= -1e-13


class TestRun:
    def test_t_end_zero_returns_initial_only(self):
        spec = symmetric_motor(16)
        traj = run(spec, StepConfig(dt=0.1, t_end=0.0))
        assert len(traj.states) == 1
        assert traj.times == (0.0,)

    def test_snapshot_counting(self):
        spec = symmetric_motor(16)
        traj = run(spec, StepConfig(dt=0.01, t_end=1.0, stride=10))
        assert len(traj.states) == 11
        assert traj.times[-1] == pytest.approx(1.0)

    def test_partial_final_step(self):
        spec = symmetric_motor(16)
        traj = run(spec, StepConfig(dt=0.1, t_end=0.25, stride=1))
        assert traj.times == pytest.approx((0.0, 0.1, 0.2, 0.25))
        # the remainder step is one step of t_end - 2*dt from the state at 0.2
        manual = one_step(spec, traj.states[2], 0.25 - 2 * 0.1)
        assert np.array_equal(traj.final.fields, manual.fields)

    def test_final_state_always_recorded(self):
        spec = symmetric_motor(16)
        traj = run(spec, StepConfig(dt=0.01, t_end=0.05, stride=10))
        assert traj.times[-1] == pytest.approx(0.05)

    def test_zero_potential_motor_reaches_constant_state(self):
        spec = symmetric_motor(64)
        traj = run(spec, StepConfig(dt=0.05, t_end=50.0, stride=200))
        m0 = weighted_mass(traj.states[0], spec)
        c = m0 / (2.0 * spec.grid.volume)
        assert np.abs(traj.final.fields - c).max() <= 1e-8

    def test_deterministic_and_composable(self, rng):
        spec = random_problem(rng, n=2, cells=32)
        cfg = StepConfig(dt=0.05, t_end=0.1, stride=1)
        t1 = run(spec, cfg)
        t2 = run(spec, StepConfig(dt=0.05, t_end=0.1, stride=2))
        assert t2.times == (0.0, t1.final.t)
        assert np.array_equal(t1.final.fields, t2.final.fields)
        assert np.array_equal(t1.final.fields, run(spec, cfg).final.fields)
        manual = one_step(spec, one_step(spec, initial_state(spec), 0.05), 0.05)
        assert np.array_equal(t1.final.fields, manual.fields)

    def test_invalid_spec_rejected(self):
        spec = symmetric_motor(8)
        bad = ProblemSpec(grid=spec.grid, species=spec.species,
                          coupling=CouplingMatrix([[-1.0, 0.5], [1.0, -0.5]]),
                          initial=(PotentialSpec("linear", slope=1.0, offset=-2.0),
                                   spec.initial[1]))
        with pytest.raises(ConfigError):
            run(bad, StepConfig(dt=0.1, t_end=1.0))

    def test_imex_run_dispatch_and_positivity(self):
        spec = reversible_problem(cells=32, p=2.0)
        traj = run(spec, StepConfig(dt=0.05, t_end=2.0, stride=5))
        for state in traj.states:
            assert state.fields.min() >= -1e-13
        m = [weighted_mass(state, spec) for state in traj.states]
        assert max(abs(x - m[0]) for x in m) / m[0] <= 1e-11

    def test_step_error_carries_failing_time(self):
        spec = reversible_problem(cells=16, p=3.0, mass_each=1.5)
        with pytest.raises(StepSizeError) as exc_info:
            run(spec, StepConfig(dt=0.5, t_end=2.0))
        assert exc_info.value.time == pytest.approx(0.5)
        later = initial_state(spec).with_fields(initial_state(spec).fields, t=1.0)
        with pytest.raises(StepSizeError) as exc_info:
            run(spec, StepConfig(dt=0.5, t_end=2.0), later)
        assert exc_info.value.time == pytest.approx(1.5)

    @pytest.mark.parametrize("linear", [True, False])
    def test_a_run_continues_from_its_initial_time(self, linear):
        spec = symmetric_motor(16) if linear else reversible_problem(cells=16, p=2.0)
        first = run(spec, StepConfig(dt=0.1, t_end=0.2))
        second = run(spec, StepConfig(dt=0.1, t_end=0.2), first.final)
        whole = run(spec, StepConfig(dt=0.1, t_end=0.4))
        assert second.times == pytest.approx(whole.times[2:])
        assert second.final.fields.tobytes() == whole.final.fields.tobytes()

    def test_2d_run_conserves_mass(self, rng):
        spec = random_problem(rng, n=2, cells=12, dim=2)
        traj = run(spec, StepConfig(dt=0.02, t_end=0.2))
        m = [weighted_mass(state, spec) for state in traj.states]
        assert max(abs(x - m[0]) for x in m) / m[0] <= 1e-10
        assert min(state.fields.min() for state in traj.states) >= -1e-11

    def test_2d_solver_failure_raises(self, rng, monkeypatch):
        # LIN_TOL = 0 accepts only an exact residual, which round-off never gives
        monkeypatch.setattr(motorflux.evolve, "LIN_TOL", 0.0)
        spec = random_problem(rng, n=2, cells=16, dim=2)
        with pytest.raises(SolverError) as exc_info:
            run(spec, StepConfig(dt=0.05, t_end=0.2))
        assert exc_info.value.time == pytest.approx(0.05)
        assert exc_info.value.residual > 0.0


class TestRunBatch:
    """Lockstep trajectories equal independent runs byte for byte."""

    @pytest.mark.parametrize("kind", ["imex_1d_3_species", "linear_1d", "linear_2d"])
    def test_batch_equals_independent_runs(self, rng, kind):
        if kind == "imex_1d_3_species":
            spec = random_problem(rng, n=3, cells=33, linear=False)
            cfg = StepConfig(dt=0.01, t_end=0.075, stride=3)
        elif kind == "linear_1d":
            spec = random_problem(rng, n=2, cells=31)
            cfg = StepConfig(dt=0.05, t_end=0.37, stride=3)
        else:
            spec = random_problem(rng, n=2, cells=9, dim=2)
            cfg = StepConfig(dt=0.05, t_end=0.37, stride=3)
        assert spec.is_linear == (kind != "imex_1d_3_species")
        initials = (None, smooth_state(spec, rng), smooth_state(spec, rng))
        snapshots = list(run_batch(spec, cfg, initials))
        assert all(len(snap) == 3 for snap in snapshots)
        for states, initial in zip(zip(*snapshots), initials):
            alone = run(spec, cfg, initial)
            # 7 full steps and a remainder step; snapshots after steps 3, 6 and 8
            assert tuple(s.t for s in states) == alone.times
            assert alone.times[-1] == cfg.t_end and len(alone.times) == 4
            for a, b in zip(states, alone.states):
                assert a.fields.tobytes() == b.fields.tobytes()

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            list(run_batch(symmetric_motor(8), StepConfig(dt=0.1, t_end=0.2), ()))

    def test_initial_times_must_agree(self):
        spec = symmetric_motor(8)
        later = initial_state(spec).with_fields(initial_state(spec).fields, t=0.5)
        with pytest.raises(ValueError, match="share their time"):
            list(run_batch(spec, StepConfig(dt=0.1, t_end=0.2), (None, later)))

    @pytest.mark.parametrize("stride", [1, 2])
    def test_repeated_snapshot_times_raise_before_the_first_step(self, stride):
        # t0 + 1.0 rounds to t0 = 1e17, the spacing of doubles there being 16
        spec = symmetric_motor(8)
        late = initial_state(spec).with_fields(initial_state(spec).fields, t=1e17)
        with pytest.raises(ValueError, match=r"t0 = 1e\+17 with dt = 1\.0 .* time 1e\+17"):
            next(run_batch(spec, StepConfig(dt=1.0, t_end=2.0, stride=stride), (late,)))

    def test_step_size_error_from_second_trajectory(self):
        spec = reversible_problem(cells=16, p=3.0)
        cfg = StepConfig(dt=0.1, t_end=1.0)
        low = initial_state(spec)
        high = State(spec.grid, np.full((2, spec.grid.size), 2.0))
        run(spec, cfg, low)  # the first trajectory alone is admissible
        with pytest.raises(StepSizeError) as exc_info:
            list(run_batch(spec, cfg, (low, high)))
        # L = p * max(u)^(p-1) = 3*4 = 12 with alpha = |lam_ii| = 1
        assert exc_info.value.dt_max == pytest.approx(1.0 / 12.0)
        assert exc_info.value.time == pytest.approx(0.1)

    def test_pair_solver_failure_raises(self, rng, monkeypatch):
        monkeypatch.setattr(motorflux.evolve, "LIN_TOL", 0.0)
        spec = random_problem(rng, n=2, cells=32)
        cfg = StepConfig(dt=0.05, t_end=0.2)
        with pytest.raises(SolverError) as exc_info:
            list(run_batch(spec, cfg, (None, smooth_state(spec, rng))))
        assert exc_info.value.time == pytest.approx(0.05)
        assert exc_info.value.residual > 0.0

    def test_non_finite_solve_raises(self, monkeypatch):
        # one infinite entry makes the residual inf, not nan, and the bound inf:
        # the backward-error check passes it
        def one_infinite_entry(x):
            x[0, 0] = np.inf

        _tamper_solves(monkeypatch, one_infinite_entry)
        for spec in _one_problem_per_factor_kind():
            with pytest.raises(SolverError, match="non-finite") as exc_info:
                list(run_batch(spec, StepConfig(dt=0.1, t_end=0.3), (None, None)))
            assert exc_info.value.time == pytest.approx(0.1)

    def test_each_trajectory_keeps_its_own_bound(self, monkeypatch):
        # a 1e-6 relative error in the small trajectory's solve misses its own
        # bound but would pass a bound taken over the batch, whose scale is 1e8
        def perturb_first_column(x):
            x[:, 0] *= 1.0 + 1e-6

        _tamper_solves(monkeypatch, perturb_first_column)
        for spec in _one_problem_per_factor_kind():
            small = initial_state(spec)
            large = small.with_fields(1e8 * small.fields)
            # under IMEX the large state bounds dt by 1/(p*max u) = 3.3e-9
            dt = 0.1 if spec.is_linear else 1e-9
            with pytest.raises(SolverError, match="LIN_TOL"):
                list(run_batch(spec, StepConfig(dt=dt, t_end=dt), (small, large)))


def _product_form_errors(cells: int, sigma: float, amplitude: float, alpha: float, lam,
                         c0, dt: float, steps: int) -> list[tuple[float, float]]:
    """(entrywise relative error, bound) of each implicit step from product-form data.

    Every species has the same sigma, cosine potential on [0, 4] and alpha,
    so the transport T annihilates the Boltzmann profile B of all of them,
    and the data c0_i*B(x) stay B(x)*c_k with c_{k+1} = (I - dt*alpha*lam)^-1 c_k.
    The bound 64*eps*k*(1 + dt*||A||_inf) after k steps is a conditioning
    bound, not a measured one.
    """
    n = len(c0)
    potential = PotentialSpec("cosine", amplitude=amplitude)
    spec = ProblemSpec(grid=Grid.interval(0.0, 4.0, cells),
                       species=(SpeciesSpec(sigma, alpha, potential),) * n,
                       coupling=CouplingMatrix(lam), initial=(ZERO,) * n)
    profile = boltzmann_profile(spec)
    c = np.asarray(c0, dtype=float)
    step = np.eye(n) - dt * alpha * np.asarray(lam)
    unit = 64.0 * np.finfo(float).eps * (1.0 + dt * _inf_norm(assemble_system(spec).matrix))
    u0 = State(spec.grid, np.outer(c, profile))
    errors = []
    for k, (state,) in enumerate(run_batch(spec, StepConfig(dt=dt, t_end=steps * dt), (u0,))):
        if k:
            c = np.linalg.solve(step, c)
            exact = np.outer(c, profile)
            errors.append((float((np.abs(state.fields - exact) / exact).max()), k * unit))
    return errors


@st.composite
def _product_form_cases(draw) -> dict:
    """1-4 species on 16-4,096 cells, psi/sigma spans up to 80, dt from 1e-3 to 100."""
    n = draw(st.integers(1, 4))
    sigma = 10.0 ** draw(st.floats(-1.0, 1.0))
    lam = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n * n, max_size=n * n)))
    lam = lam.reshape(n, n) * (1.0 - np.eye(n))
    lam -= np.diag(lam.sum(axis=0))
    return dict(cells=draw(st.integers(16, 4096)), sigma=sigma,
                amplitude=draw(st.floats(0.0, 40.0)) * sigma,
                alpha=10.0 ** draw(st.floats(-1.0, 1.0)), lam=lam,
                c0=draw(st.lists(st.floats(0.1, 10.0), min_size=n, max_size=n)),
                dt=10.0 ** draw(st.floats(-3.0, 2.0)), steps=draw(st.integers(1, 5)))


class TestProductFormOracle:
    """Implicit steps from product-form data against their exact trajectory."""

    def test_four_species_at_65536_cells(self):
        lam = [[-1.0, 0.5, 0.0, 2.0], [1.0, -1.5, 0.3, 0.0],
               [0.0, 1.0, -0.3, 1.0], [0.0, 0.0, 0.0, -3.0]]
        errors = _product_form_errors(65536, 1.0, 0.5, 1.0, lam, [1.0, 2.0, 3.0, 4.0],
                                      dt=1.0, steps=5)
        assert len(errors) == 5
        assert all(error <= bound for error, bound in errors), errors

    @settings(max_examples=20, deadline=None)
    @given(case=_product_form_cases())
    def test_random_problems(self, case):
        errors = _product_form_errors(**case)
        assert len(errors) == case["steps"]
        assert all(error <= bound for error, bound in errors), errors


class TestOperatorRelease:
    """K = I - dt*M is formed first; M is assembled anew for the remainder step."""

    @staticmethod
    def _dead_at_each_factorization(monkeypatch, factorization, spec):
        refs, dead = [], []
        assemble = motorflux.evolve.assemble_system
        factorize = getattr(motorflux.evolve, factorization)

        def recorded(spec):
            op = assemble(spec)
            refs.extend((weakref.ref(op.matrix), weakref.ref(op.matrix.data)))
            return op

        def checked(*args, **kwargs):
            dead.append([ref() is None for ref in refs])
            return factorize(*args, **kwargs)

        monkeypatch.setattr(motorflux.evolve, "assemble_system", recorded)
        monkeypatch.setattr(motorflux.evolve, factorization, checked)
        run(spec, StepConfig(dt=0.1, t_end=0.25))  # two full steps, a remainder
        return dead

    def test_m_is_dead_when_superlu_factors(self, monkeypatch):
        dead = self._dead_at_each_factorization(monkeypatch, "splu", _symmetric_motor_2d(4))
        assert dead == [[True] * 2, [True] * 4]

    def test_m_is_dead_when_the_band_factors(self, monkeypatch):
        dead = self._dead_at_each_factorization(monkeypatch, "dgbtrf", symmetric_motor(16))
        assert dead == [[True] * 2, [True] * 4]


@pytest.mark.parametrize("dim", [1, 2])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_k_norm_equals_the_absolute_row_sums(rng, dim, n):
    # ||K||_inf, and the ||J||_inf of the stationary solver, are read off the
    # diagonals in the loop that forms w^T K, in the order of abs(k).sum(axis=1)
    spec = random_problem(rng, n=n, cells=48 if dim == 1 else 12, dim=dim)
    w = np.repeat(spec.grid.cell_volume / spec.alphas, spec.grid.size)
    slopes = rng.uniform(0.0, 3.0, (n, spec.grid.size))  # a nonlinear Jacobian's r'(u)
    jacobian = _block_matrix(spec, transports_for(spec), slopes)
    assert _inf_norm(jacobian) == float(abs(jacobian).sum(axis=1).max())
    for matrix, weights in [(assemble_system(spec).matrix, w),
                            *zip((op.matrix for op in transports_for(spec)), w.reshape(n, -1))]:
        assert _inf_norm(matrix) == float(abs(matrix).sum(axis=1).max())
        for dt in (1e-3, 1.0, 1e4):
            k = _implicit_matrix(matrix, dt)
            factored = _Factored(k, weights, dt, spec.grid.size if dim == 1 else None)
            assert factored._k_norm == float(abs(k).sum(axis=1).max())


class TestConservativeProjection:
    def test_mass_drift_at_65536_cells(self):
        # the rounding of K = I - dt*M and of the LU solve drift this run's
        # weighted mass by about 1.7e-10 without the projection
        spec = sawtooth_motor(65536)
        traj = run(spec, StepConfig(dt=1e-3, t_end=0.04, stride=8))
        masses = [weighted_mass(state, spec) for state in traj.states]
        drift = max(abs(m - masses[0]) for m in masses) / masses[0]
        assert drift <= MASS_DRIFT_TOL
        assert min(state.fields.min() for state in traj.states) >= 0.0

    @pytest.mark.parametrize("spec", [symmetric_motor(8), reversible_problem(cells=8, p=2.0),
                                      _symmetric_motor_2d(4)],
                             ids=["linear", "imex", "linear_2d"])
    def test_solve_off_by_1e_6_still_raises(self, monkeypatch, spec):
        # a scaled column is what the projection undoes, so the check must see it first
        def perturb_one_column(x):
            x[:, 0] *= 1.0 + 1e-6

        _tamper_solves(monkeypatch, perturb_one_column)
        with pytest.raises(SolverError) as exc_info:
            list(run_batch(spec, StepConfig(dt=0.05, t_end=0.1), (None, None)))
        assert exc_info.value.time == pytest.approx(0.05)

    def test_zero_weighted_mass_solution_raises(self, monkeypatch):
        # with LIN_TOL = 1 a zero column passes the backward-error check
        def zero_first_column(x):
            x[:, 0] = 0.0

        _tamper_solves(monkeypatch, zero_first_column)
        monkeypatch.setattr(motorflux.evolve, "LIN_TOL", 1.0)
        for spec in _one_problem_per_factor_kind():
            with pytest.raises(SolverError, match="projection"):
                run(spec, StepConfig(dt=0.1, t_end=0.1))

    def test_guard_rejects_mass_change_beyond_bound(self):
        # K = I has no rounding defect, so the guard allows ||w||_1 = 1 times
        # the full bound tol * (max|x| + max|b|); the mass is off by 1e-3
        n = 4
        b, x, out = np.ones(n), np.full(n, 1.0 + 1e-3), np.empty(n)
        factored = _factor(sparse.csr_array((n, n)), np.full(n, 0.25), 0.1, tol=1e-3)
        factored._project(b, x, 1e-3 * (1.0 + 1e-3), out, 1.0 + 1e-3)
        assert np.dot(np.full(n, 0.25), out) == pytest.approx(1.0, rel=1e-15)
        factored = _factor(sparse.csr_array((n, n)), np.full(n, 0.25), 0.1, tol=4e-4)
        with pytest.raises(SolverError, match="projection"):  # full bound 8.0e-4
            factored._project(b, x, 4e-4 * (1.0 + 1e-3), out, 1.0 + 1e-3)

    def test_k_matches_csr_difference(self, rng):
        # K = I - dt*M on the DIA data rounds like the CSR eye - dt*M of the
        # COO assembly, and SuperLU gets the same CSC arrays
        for dim, cells in ((1, 30), (2, 7)):
            spec = random_problem(rng, n=3, cells=cells, dim=dim)
            matrix = assemble_system(spec).matrix
            w = np.repeat(spec.grid.cell_volume / spec.alphas, spec.grid.size)
            for dt in (1e-3, 0.1, 10.0):
                factored = _factor(matrix, w, dt)
                expected = sparse.csc_array(sparse.eye_array(matrix.shape[0], format="csr")
                                            - dt * coo_system(spec))
                ours = factored._k.tocsc()
                assert np.array_equal(ours.indptr, expected.indptr)
                assert np.array_equal(ours.indices, expected.indices)
                assert ours.data.tobytes() == expected.data.tobytes()

    def test_all_zero_block_is_left_alone(self):
        spec = reversible_problem(cells=8, p=2.0)
        zero = State(spec.grid, np.zeros((2, 8)))
        traj = run(spec, StepConfig(dt=0.1, t_end=0.2))
        alone = run(spec, StepConfig(dt=0.1, t_end=0.2), zero)
        assert np.array_equal(alone.final.fields, zero.fields)
        assert traj.final.fields.min() > 0.0


class TestLazyBound:
    """The residual check and the projection guard try tol*||K||*max|x| first;
    they accept and reject exactly the columns the full bound does."""

    # a large tolerance keeps the band between the two bounds wide
    TOL = 0.5

    def identity(self, x=None):
        """K = I on 4 cells (||K|| = 1, no rounding defect), whose solve returns ``x``."""
        factored = _factor(sparse.csr_array((4, 4)), np.full(4, 0.25), 0.1, tol=self.TOL)
        if x is not None:
            class Fixed:
                def solve(self, b):
                    return x.T
            factored._solver = Fixed()
        return factored

    def full_bound(self, x, b):
        return self.TOL * (1.0 * np.abs(x).max() + np.abs(b).max())

    def test_residual_between_lazy_and_full_bound_is_accepted(self):
        b = np.ones((1, 4))
        x = b.copy()
        x[0, 0] += 1.5  # residual 1.5: lazy bound 1.25, full bound 1.75
        assert self.identity(x).solve(b, np.empty_like(b))

        x[0, 0] = 1.0 + 2.5  # beyond the full bound 2.25
        with pytest.raises(SolverError, match="LIN_TOL") as exc_info:
            self.identity(x).solve(b, np.empty_like(b))
        assert f"bound {self.full_bound(x, b):.3e}" in str(exc_info.value)

    def test_residual_check_accepts_what_the_full_bound_accepts(self):
        b = np.ones((1, 4))
        for d in np.linspace(0.0, 3.0, 301):
            x = b.copy()
            x[0, 0] += d
            accepted = float(np.abs(x - b).max()) <= self.full_bound(x, b)
            try:
                self.identity(x).solve(b, np.empty_like(b))
            except SolverError:
                assert not accepted, d
            else:
                assert accepted, d

    def test_nan_in_b_is_rejected(self):
        # the NaN reaches the residual, whatever the solve returns
        b = np.ones((1, 4))
        b[0, 2] = np.nan
        for factored in (self.identity(), self.identity(np.ones((1, 4)))):
            with pytest.raises(SolverError, match="bound nan"):
                factored.solve(b, np.empty_like(b))

    def test_projection_guard_falls_back_to_the_full_bound(self):
        factored = self.identity()
        b, out = np.ones(4), np.empty(4)
        x = np.full(4, 1.0 + 1.5)  # weighted mass off by 1.5: lazy 1.25, full 1.75
        x_max = float(x.max())
        lazy = self.TOL * (1.0 * x_max)
        factored._project(b, x, lazy, out, x_max)
        assert np.dot(np.full(4, 0.25), out) == pytest.approx(1.0, rel=1e-15)

        x = np.full(4, 1.0 + 2.5)  # beyond the full bound 2.25
        x_max = float(x.max())
        with pytest.raises(SolverError, match="projection") as exc_info:
            factored._project(b, x, self.TOL * (1.0 * x_max), out, x_max)
        assert f"bound {self.full_bound(x, b):.3e}" in str(exc_info.value)

    def test_projection_guard_accepts_what_the_full_bound_accepts(self):
        factored = self.identity()
        b, out = np.ones(4), np.empty(4)
        for e in np.linspace(0.0, 3.0, 301):
            x = np.full(4, 1.0 + e)
            x_max = float(x.max())
            gap = abs(factored._weighted_sum(b) - factored._weighted_sum(x))
            accepted = gap <= factored._w_norm * self.full_bound(x, b)
            try:
                factored._project(b, x, self.TOL * (1.0 * x_max), out, x_max)
            except SolverError:
                assert not accepted, e
            else:
                assert accepted, e


def test_a_column_that_meets_its_bound_is_still_guarded():
    """`_Factored.solve` projects inside its own loop, so the guard must run
    there too.  K = I and a solve off by 1% meet the bound 0.5*max|x|; read
    with weights 400 times the conserved ones, the weighted mass is off by 4,
    beyond the guard's full bound 1.005."""
    factored = _factor(sparse.csr_array((4, 4)), np.full(4, 0.25), 0.1, tol=0.5)

    class OffByOnePercent:
        def solve(self, b):
            return 1.01 * b

    factored._solver = OffByOnePercent()
    factored._segments = ((slice(0, 4), 100.0),)
    b = np.ones((1, 4))
    with pytest.raises(SolverError, match="projection: weighted mass of the solve is off by "
                                          "4.000e[+]00 > bound 1.005e[+]00"):
        factored.solve(b, np.empty_like(b))


def _tiny_problems() -> tuple[ProblemSpec, ...]:
    """A 1-D linear problem with a potential (the band), a 1-D IMEX problem with
    a linear power law (pttrs) and a 2-D linear one (SuperLU)."""
    return sawtooth_motor(8), reversible_problem(cells=8, p=1.0), _symmetric_motor_2d(4)


class _Counted:
    """A factorization's solver or its K, counting its solve calls or its
    residual matvecs K x, one per check of a solved column."""

    def __init__(self, inner, calls: list):
        self._inner, self._calls = inner, calls

    def solve(self, b):
        self._calls.append(None)
        return self._inner.solve(b)

    def __matmul__(self, x):
        self._calls.append(None)
        return self._inner @ x


def _count_solves_and_checks(monkeypatch) -> tuple[list, list]:
    """One entry per solve call of every later factorization, and one per
    residual check of a solved column."""
    solves, checks, init = [], [], _Factored.__init__

    def counted(self, *args):
        init(self, *args)
        self._solver, self._k = _Counted(self._solver, solves), _Counted(self._k, checks)

    monkeypatch.setattr(_Factored, "__init__", counted)
    return solves, checks


class TestUnderflowRescale:
    """A column that misses LIN_TOL with max|b| below 1/2 is solved once more as
    the exact multiple b*2^k, against the same bound."""

    CFG = StepConfig(dt=0.1, t_end=0.5)

    @pytest.mark.parametrize("spec", _tiny_problems(), ids=["band", "pttrs", "superlu"])
    @pytest.mark.parametrize("shift", [1040, 1060])
    def test_subnormal_data_step_as_the_scaled_run(self, monkeypatch, spec, shift):
        # data near 1e-313 and 1e-319 missed the bound in subnormal rounding (exit 4)
        u0 = initial_state(spec)
        scaled = np.ldexp(run(spec, self.CFG, u0).final.fields, -shift)
        solves, checks = _count_solves_and_checks(monkeypatch)
        tiny = run(spec, self.CFG, u0.with_fields(np.ldexp(u0.fields, -shift))).final.fields
        blocks = 1 if spec.is_linear else spec.n_species
        assert len(solves) > 5 * blocks and len(checks) > 5 * blocks  # the rescale ran
        # each of the 5 steps rounds to the spacing 2^-1074 of subnormal numbers
        assert np.abs(tiny - scaled).max() <= 5 * 2.0 ** -1074

    def test_deep_well_data_near_1e_280_step_exactly_as_the_scaled_run(self, monkeypatch):
        # psi/sigma spans 350: pttrs solves for b/s with s up to 2^126, and b/s
        # of data near 1e-280 underflowed (exit 4); the rescaled solves are the
        # exact power-of-two image of the unscaled run's
        sp = SpeciesSpec(1.0, 1.0, PotentialSpec("linear", slope=350.0),
                         ReactionSpec("power", exponent=1.0))
        spec = ProblemSpec(grid=Grid.interval(0.0, 1.0, 64), species=(sp, sp),
                           coupling=CouplingMatrix([[-1.0, 1.0], [1.0, -1.0]]),
                           initial=(PotentialSpec("cosine", amplitude=0.4, offset=1.0),) * 2)
        u0 = initial_state(spec)
        scaled = np.ldexp(run(spec, self.CFG, u0).final.fields, -930)
        solves, checks = _count_solves_and_checks(monkeypatch)
        tiny = run(spec, self.CFG, u0.with_fields(np.ldexp(u0.fields, -930))).final.fields
        assert len(solves) > 5 * 2 and len(checks) > 5 * 2
        assert np.array_equal(tiny, scaled)

    @pytest.mark.parametrize("spec", _tiny_problems(), ids=["band", "pttrs", "superlu"])
    def test_normal_data_check_each_column_once(self, monkeypatch, spec):
        solves, checks = _count_solves_and_checks(monkeypatch)
        run(spec, self.CFG)
        # one column per run: one solve and one check per block and step
        assert len(solves) == len(checks) == 5 * (1 if spec.is_linear else spec.n_species)

    @pytest.mark.parametrize("spec", _tiny_problems(), ids=["band", "pttrs", "superlu"])
    def test_a_wrong_solve_of_tiny_data_still_raises(self, monkeypatch, spec):
        def double(x):
            x *= 2.0

        _tamper_solves(monkeypatch, double)
        u0 = initial_state(spec)
        with pytest.raises(SolverError, match="LIN_TOL") as exc_info:
            run(spec, self.CFG, u0.with_fields(np.ldexp(u0.fields, -1050)))
        # the second check, in the scale of b*2^k, raised: its bound is normal
        bound = float(str(exc_info.value).rsplit("bound ", 1)[1])
        assert bound >= np.finfo(float).tiny
        assert exc_info.value.time == pytest.approx(0.1)


def _potential_with_span(rng, span: float, sigma: float) -> PotentialSpec:
    """A random piecewise-linear potential whose psi/sigma spans exactly ``span``."""
    v = rng.random(9)
    v = span * sigma * (v - v.min()) / (v.max() - v.min())
    return PotentialSpec("tabulated", table_x=tuple(np.linspace(0.0, 1.0, 9)),
                         table_v=tuple(v))


class TestTridiagonalSolve:
    """1-D transport blocks are solved by pttrs on a symmetrized K, other 1-D
    blocks by the band, 2-D blocks by SuperLU."""

    @pytest.mark.parametrize("span", [0.0, 5.0, 60.0, 300.0])
    def test_agrees_with_superlu_and_dense(self, rng, span):
        for _ in range(3):
            cells = int(rng.integers(64, 300))
            grid = Grid.interval(0.0, 1.0, cells)
            sigma = float(rng.uniform(0.5, 1.5))
            matrix = assemble_transport(grid, sigma, _potential_with_span(rng, span, sigma)).matrix
            dt = float(10.0 ** rng.uniform(-5.0, -1.0))
            factored = _factor(matrix, np.full(cells, grid.cell_volume), dt)
            assert isinstance(factored._solver, _SymmetrizedTridiagonal)

            k = sparse.csc_array(sparse.eye_array(cells) - dt * matrix)
            b = rng.random((3, cells))
            x = factored._solver.solve(b.T).T
            dense = k.toarray()
            k_norm = np.abs(dense).sum(axis=1).max()
            for x_j, b_j in zip(x, b):
                residual = np.abs(k @ x_j - b_j).max()
                assert residual <= 1e-12 * (k_norm * np.abs(x_j).max() + np.abs(b_j).max())
            # a backward-stable solve is within cells * eps * cond(K) of the exact one
            bound = cells * np.finfo(float).eps * np.linalg.cond(dense, np.inf)
            for reference in (splu(k).solve(b.T).T, np.linalg.solve(dense, b.T).T):
                assert np.abs(x - reference).max() <= bound * np.abs(reference).max()

    def test_other_blocks_keep_superlu(self, rng):
        spec_2d = random_problem(rng, n=1, cells=8, dim=2)
        factored = _factor(transports_for(spec_2d)[0].matrix, np.ones(64), 0.01)
        assert isinstance(factored._solver, SuperLU)
        b = rng.random((1, 64))
        out = np.empty_like(b)
        assert factored.solve(b, out)  # still checked and finite

    def test_other_1d_blocks_take_the_band(self, rng):
        coupled = symmetric_motor(16)
        grid = Grid.interval(0.0, 1.0, 64)
        # psi/sigma spans 1000: the centred log-scale would reach 250 > 256 ln 2
        steep = assemble_transport(grid, 1.0, PotentialSpec("linear", slope=1000.0)).matrix
        for matrix, w, cells in [(assemble_system(coupled).matrix, np.ones(32), 16),
                                 (steep, np.ones(64), 64)]:
            factored = _factor(matrix, w, 0.01, cells)
            assert isinstance(factored._solver, _CellMajorBand)
            b = rng.random((1, len(w)))
            out = np.empty_like(b)
            assert factored.solve(b, out)  # still checked and finite

    def test_factor_refuses_other_tridiagonals(self):
        def tridiagonal(lower, diag, upper, n=8):
            return sparse.diags_array(
                [np.full(n - 1, lower), np.full(n, diag), np.full(n - 1, upper)],
                offsets=[-1, 0, 1])

        # off-diagonal products of mixed sign, zero, and a K that is not positive definite
        assert _SymmetrizedTridiagonal.factor(tridiagonal(1.0, 3.0, -1.0)) is None
        assert _SymmetrizedTridiagonal.factor(tridiagonal(0.0, 3.0, -1.0)) is None
        assert _SymmetrizedTridiagonal.factor(tridiagonal(-1.0, 0.5, -1.0)) is None
        assert _SymmetrizedTridiagonal.factor(tridiagonal(-1.0, 3.0, -2.0)) is not None

    def test_1d_imex_never_calls_superlu(self, rng, monkeypatch):
        # a silent fallback would keep every result and lose the speed
        def refuse(*args, **kwargs):
            raise AssertionError("a 1-D transport block was factored by SuperLU")

        monkeypatch.setattr(motorflux.evolve, "splu", refuse)
        spec = random_problem(rng, n=3, cells=64, linear=False)
        cfg = StepConfig(dt=0.01, t_end=0.035, stride=2)  # full steps and a remainder
        list(run_batch(spec, cfg, (None, smooth_state(spec, rng))))

    def test_1d_linear_never_calls_superlu(self, rng, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a 1-D block operator was factored by SuperLU")

        monkeypatch.setattr(motorflux.evolve, "splu", refuse)
        for n in (1, 2, 3):
            spec = random_problem(rng, n=n, cells=64)
            cfg = StepConfig(dt=0.01, t_end=0.035, stride=2)
            list(run_batch(spec, cfg, (None, smooth_state(spec, rng))))

    def test_factor_kinds_of_the_tamper_problems(self):
        # the tamper tests reach every factor kind through these problems
        kinds = []
        for spec in _one_problem_per_factor_kind():
            blocks = 1 if spec.is_linear else spec.n_species
            stepper = _Stepper(motorflux.evolve._operators(spec),
                               motorflux.evolve._block_weights(spec, blocks),
                               motorflux.evolve._cells_1d(spec), 0.1,
                               None if spec.is_linear else spec)
            kinds.append({type(f._solver) for f in stepper._factors})
        assert kinds == [{_SymmetrizedTridiagonal}, {_CellMajorBand}, {SuperLU}]


def _random_linear_1d(rng) -> ProblemSpec:
    """A random 1-D linear problem: 1-4 species, alphas up to 1e3 apart, zero
    coupling entries, psi/sigma spans up to 600, 2-80 cells."""
    n = int(rng.integers(1, 5))
    lam = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            if i != j and rng.random() < 0.7:
                lam[i, j] = 10.0 ** rng.uniform(-2.0, 2.0)
        lam[j, j] = -lam[:, j].sum()
    species = []
    for _ in range(n):
        sigma = float(10.0 ** rng.uniform(-1.0, 0.5))
        potential = _potential_with_span(rng, float(rng.uniform(0.0, 600.0)), sigma)
        species.append(SpeciesSpec(sigma, float(10.0 ** rng.uniform(0.0, 3.0)), potential))
    return ProblemSpec(grid=Grid.interval(0.0, 1.0, int(rng.integers(2, 81))),
                       species=tuple(species), coupling=CouplingMatrix(lam),
                       initial=(PotentialSpec("linear", offset=1.0),) * n)


class TestCellMajorBand:
    """The weight-scaled K of a 1-D block is factored without a row swap."""

    def test_random_problems_keep_identity_pivots(self, monkeypatch):
        rng = np.random.default_rng(15)
        gbtrf = motorflux.evolve.dgbtrf
        pivots = []

        def recorded(*args, **kwargs):
            lu, piv, info = gbtrf(*args, **kwargs)
            pivots.append(piv)
            return lu, piv, info

        monkeypatch.setattr(motorflux.evolve, "dgbtrf", recorded)
        eps = np.finfo(float).eps
        for _ in range(200):
            spec = _random_linear_1d(rng)
            dt = float(10.0 ** rng.uniform(-8.0, 4.0))
            k = _implicit_matrix(assemble_system(spec).matrix, dt)
            w = np.repeat(spec.grid.cell_volume / spec.alphas, spec.grid.size)
            band = _CellMajorBand.factor(k, w, spec.grid.size)
            assert np.array_equal(pivots[-1], np.arange(k.shape[0]))
            b = rng.random((k.shape[0], 3)) * 10.0 ** rng.uniform(-3.0, 3.0, 3)
            x = band.solve(np.asfortranarray(b)).copy()
            dense = k.toarray()
            k_norm = np.abs(dense).sum(axis=1).max()
            for x_j, b_j in zip(x.T, b.T):
                residual = np.abs(dense @ x_j - b_j).max()
                assert residual <= 1e-14 * (k_norm * np.abs(x_j).max() + np.abs(b_j).max())
            reference = np.linalg.solve(dense, b)
            bound = spec.grid.size * eps * np.linalg.cond(dense, np.inf)
            assert np.abs(x - reference).max() <= bound * np.abs(reference).max()
        assert len(pivots) == 200

    def test_zero_pivot_is_a_scaling_error(self, monkeypatch):
        gbtrf = motorflux.evolve.dgbtrf
        monkeypatch.setattr(motorflux.evolve, "dgbtrf",
                            lambda *args, **kwargs: (*gbtrf(*args, **kwargs)[:2], 5))
        with pytest.raises(ScalingError, match="singular.*band pivot 5 is exactly zero"):
            _factor(assemble_system(symmetric_motor(8)).matrix, np.ones(16), 0.1, 8)

    def test_row_swap_is_a_solver_error(self, monkeypatch):
        gbtrf = motorflux.evolve.dgbtrf

        def swapped(*args, **kwargs):
            lu, piv, info = gbtrf(*args, **kwargs)
            piv[3] = 4
            return lu, piv, info

        monkeypatch.setattr(motorflux.evolve, "dgbtrf", swapped)
        with pytest.raises(SolverError, match="swapped row 3"):
            _factor(assemble_system(symmetric_motor(8)).matrix, np.ones(16), 0.1, 8)
        # where the identity is lost in rounding, that is named instead
        with pytest.raises(ScalingError, match="loses the identity"):
            _factor(assemble_system(symmetric_motor(8)).matrix, np.ones(16), 1e30, 8)


def _tamper_solves(monkeypatch, tamper):
    """Pass every solve result of the stepper's factorizations through ``tamper``.

    That covers SuperLU's solves, the pttrs solves of tridiagonal blocks and
    the band sweeps.  pttrs returns y of x = s * y; scaling a column, zeroing
    it or setting an entry to inf acts on x as it does on y.
    """
    factorize = motorflux.evolve.splu
    pttrs = motorflux.evolve.dpttrs
    band_solve = _CellMajorBand.solve

    class Tampered:
        def __init__(self, *args, **kwargs):
            self._lu = factorize(*args, **kwargs)

        def solve(self, b):
            x = self._lu.solve(b)
            tamper(x)
            return x

    def tampered_pttrs(*args, **kwargs):
        y, info = pttrs(*args, **kwargs)
        tamper(y)
        return y, info

    def tampered_band_solve(self, b):
        x = band_solve(self, b)
        tamper(x)
        return x

    monkeypatch.setattr(motorflux.evolve, "splu", Tampered)
    monkeypatch.setattr(motorflux.evolve, "dpttrs", tampered_pttrs)
    monkeypatch.setattr(_CellMajorBand, "solve", tampered_band_solve)
