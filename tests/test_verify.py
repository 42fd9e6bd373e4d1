import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import motorflux.verify
from motorflux import (
    CouplingMatrix,
    Grid,
    PotentialSpec,
    ProblemSpec,
    SpeciesSpec,
    State,
    StepConfig,
    assemble_system,
    boltzmann_profile,
    check_comparison,
    check_contraction,
    check_convergence,
    initial_state,
    oracle_compare,
    oracle_expm,
    run_batch,
    solve_null_vector,
    solve_stationary,
    weighted_l1_distance,
    weighted_l1_norm,
    weighted_mass,
)
from motorflux.errors import ConfigError, OracleScopeError
from motorflux.verify import report_to_json, write_reports_ndjson

from conftest import (
    changes_sign,
    random_problem,
    reversible_problem,
    sawtooth_motor,
    smooth_state,
    symmetric_motor,
)


class TestNorms:
    def test_weighted_mass_zero_field(self):
        spec = symmetric_motor(16)
        zero = State(spec.grid, np.zeros((2, 16)))
        assert weighted_mass(zero, spec) == 0.0

    def test_weighted_mass_arithmetic(self):
        from motorflux import (CouplingMatrix, Grid, PotentialSpec, ProblemSpec,
                               SpeciesSpec)
        grid = Grid.interval(0.0, 1.0, 10)
        zero = PotentialSpec("zero")
        spec = ProblemSpec(
            grid=grid,
            species=(SpeciesSpec(1.0, 1.0, zero), SpeciesSpec(1.0, 2.0, zero)),
            coupling=CouplingMatrix([[-1.0, 1.0], [1.0, -1.0]]),
            initial=(PotentialSpec("linear", offset=1.0),) * 2,
        )
        u = State(grid, np.stack([np.ones(10), 2.0 * np.ones(10)]))
        assert weighted_mass(u, spec) == pytest.approx(2.0, rel=1e-14)

    def test_gauge_guard(self):
        spec = symmetric_motor(8)
        w = State(spec.grid, np.ones((2, 8)), gauge="neumann")
        with pytest.raises(ValueError):
            weighted_mass(w, spec)

    def test_distance_identity_and_symmetry(self, rng):
        spec = random_problem(rng, n=2, cells=16)
        a = smooth_state(spec, rng)
        b = smooth_state(spec, rng)
        assert weighted_l1_distance(a, a, spec) == 0.0
        assert weighted_l1_distance(a, b, spec) == weighted_l1_distance(b, a, spec)

    def test_distance_shape_mismatch(self, rng):
        spec = random_problem(rng, n=2, cells=16)
        a = smooth_state(spec, rng)
        bad = State(spec.grid, np.ones((3, 16)))
        with pytest.raises(ValueError):
            weighted_l1_distance(a, bad, spec)

    def test_triangle_inequality_random_triples(self, rng):
        spec = random_problem(rng, n=2, cells=16)
        for _ in range(200):
            a, b, c = (smooth_state(spec, rng) for _ in range(3))
            dab = weighted_l1_distance(a, b, spec)
            dbc = weighted_l1_distance(b, c, spec)
            dac = weighted_l1_distance(a, c, spec)
            assert dac <= dab + dbc + 1e-15

    @settings(max_examples=8, deadline=None)
    @given(n=st.integers(min_value=1, max_value=3),
           seed=st.integers(min_value=0, max_value=2**32 - 1))
    def test_sums_scale_exactly_by_powers_of_two(self, n, seed):
        """Data in [1/2, 1) times 2^j give exactly 2^j times each sum for every j
        in [-1020, 1020]: none overflows or loses digits to subnormal terms."""
        rng = np.random.default_rng(seed)
        spec = random_problem(rng, n=n, cells=1000)
        a, b = (0.5 + 0.5 * rng.random((n, 1000)) for _ in range(2))

        def sums(j):
            sa, sb = (State(spec.grid, np.ldexp(v, j)) for v in (a, b))
            return (weighted_mass(sa, spec), weighted_l1_norm(sa, spec),
                    weighted_l1_distance(sa, sb, spec))

        ref = sums(0)
        for j in range(-1020, 1021):
            assert sums(j) == tuple(np.ldexp(ref, j)), j

    @settings(max_examples=50, deadline=None)
    @given(shift=st.floats(min_value=0.0, max_value=2.0))
    def test_one_signed_difference_equals_mass_gap(self, shift):
        spec = symmetric_motor(16)
        a = initial_state(spec)
        b = a.with_fields(a.fields + shift)
        gap = abs(weighted_mass(a, spec) - weighted_mass(b, spec))
        assert weighted_l1_distance(a, b, spec) == pytest.approx(gap, abs=1e-13)


class TestContraction:
    def test_identical_data_gives_zero_series(self):
        spec = symmetric_motor(32)
        u0 = initial_state(spec)
        report = check_contraction(spec, u0, u0, StepConfig(dt=0.05, t_end=0.5))
        assert report.passed
        assert all(v == 0.0 for v in report.series["distance"])

    def test_ordered_data_gives_constant_series(self, rng):
        spec = sawtooth_motor(48)
        u0 = smooth_state(spec, rng)
        hi = u0.with_fields(u0.fields + 0.3)
        cfg = StepConfig(dt=0.02, t_end=2.0, stride=5)
        report = check_contraction(spec, hi, u0, cfg)
        assert report.passed
        spread = max(report.series["distance"]) - min(report.series["distance"])
        assert spread <= 1e-10
        assert not any(any(changes_sign(a.fields - b.fields))
                       for a, b in run_batch(spec, cfg, (hi, u0)))

    def test_sign_changing_difference_contracts_strictly(self, rng):
        spec = sawtooth_motor(64)
        u0 = smooth_state(spec, rng)
        wiggle = 0.3 * np.cos(2 * np.pi * spec.grid.centers())
        other = u0.with_fields(np.maximum(u0.fields + wiggle, 0.0))
        report = check_contraction(spec, u0, other, StepConfig(dt=0.02, t_end=1.0, stride=5))
        assert report.passed
        assert any(changes_sign(u0.fields - other.fields))
        assert report.series["distance"][-1] < 0.99 * report.series["distance"][0]

    def test_nonlinear_pair_contracts(self, rng):
        spec = reversible_problem(cells=32, p=2.0)
        u0 = smooth_state(spec, rng)
        other = smooth_state(spec, rng)
        report = check_contraction(spec, u0, other, StepConfig(dt=0.02, t_end=1.0, stride=5))
        assert report.passed


#: one coupling for every product-form case: strongly connected, not symmetric
PRODUCT_LAM = [[-1.0, 0.5, 0.2], [0.7, -0.5, 0.8], [0.3, 0.0, -1.0]]


def _product_form_distances(c0, c0_other) -> list[float]:
    """The exact distances of c0*B(x) and c0_other*B(x) over 20 steps of 0.1,
    once `check_contraction` has passed and matched each of them.

    Every species has sigma 0.5, alpha 2 and the same cosine potential on
    [0, 4], so the transport annihilates the normalized Boltzmann profile B
    of each and the difference stays B(x)*d_k, d_k = (I - dt*alpha*lam)^-k d_0.
    B has unit integral, so the exact weighted L1 distance is
    sum_i |d_k,i|/alpha.  The bound is that of `TestProductFormOracle`,
    (k + 1)*64*eps*(1 + dt*||A||_inf) relative to each state, here times the
    two weighted masses.
    """
    alpha, lam, dt, steps = 2.0, np.asarray(PRODUCT_LAM), 0.1, 20
    species = SpeciesSpec(0.5, alpha, PotentialSpec("cosine", amplitude=1.0))
    spec = ProblemSpec(grid=Grid.interval(0.0, 4.0, 64), species=(species,) * 3,
                       coupling=CouplingMatrix(PRODUCT_LAM),
                       initial=(PotentialSpec("zero"),) * 3)
    profile = boltzmann_profile(spec)
    a = State(spec.grid, np.outer(c0, profile))
    b = State(spec.grid, np.outer(c0_other, profile))
    report = check_contraction(spec, a, b, StepConfig(dt=dt, t_end=steps * dt))
    assert report.passed
    unit = 64.0 * np.finfo(float).eps * (
        1.0 + dt * float(abs(assemble_system(spec).matrix).sum(axis=1).max()))
    masses = (np.sum(c0) + np.sum(c0_other)) / alpha
    step = np.eye(3) - dt * alpha * lam
    d = np.subtract(c0, c0_other, dtype=float)
    exact = []
    for k, got in enumerate(report.series["distance"]):
        if k:
            d = np.linalg.solve(step, d)
        exact.append(float(np.abs(d).sum() / alpha))
        assert abs(got - exact[-1]) <= (k + 1) * unit * masses, (k, got, exact[-1])
    assert len(exact) == steps + 1
    return exact


class TestProductFormContraction:
    """`check_contraction`'s distance series against its closed form."""

    def test_one_signed_difference_keeps_its_distance(self):
        # the equality case: a nonnegative difference stays nonnegative and
        # its distance is its conserved weighted mass
        exact = _product_form_distances([1.0, 2.0, 3.0], [0.5, 1.5, 1.0])
        assert max(exact) - min(exact) <= 1e-15 * exact[0]

    def test_sign_changing_difference_decreases_strictly(self):
        # a difference of zero weighted mass changes sign at every step
        exact = _product_form_distances([1.0, 2.0, 3.0], [3.0, 1.0, 2.0])
        assert all(after < before for before, after in zip(exact, exact[1:]))
        assert exact[-1] < 0.5 * exact[0]


class TestNaNRise:
    def test_a_nan_rise_is_the_worst(self):
        worst, at = motorflux.verify._largest_increase((0.0, 0.1, 0.2, 0.3),
                                                        (1.0, np.inf, np.inf, 2.0))
        assert np.isnan(worst) and at == 0.2

    def test_an_infinite_distance_series_fails_the_contraction_gate(self, monkeypatch):
        # inf - inf is NaN: a series of inf distances may not pass as constant
        spec = symmetric_motor(8)
        u0 = initial_state(spec)
        monkeypatch.setattr(motorflux.verify, "weighted_l1_distance", lambda a, b, s: np.inf)
        report = check_contraction(spec, u0, u0, StepConfig(dt=0.1, t_end=0.2))
        assert not report.passed and np.isnan(report.worst)


class TestGatesAreConstants:
    """Each gate is a module constant that its function reads when called."""

    @pytest.mark.parametrize("call", [
        lambda spec, u0, cfg: solve_null_vector(assemble_system(spec), tol=1e-13),
        lambda spec, u0, cfg: solve_stationary(spec, u0, tol=1e-13),
        lambda spec, u0, cfg: check_convergence(spec, u0, cfg, None, threshold=1e-6),
        lambda spec, u0, cfg: check_comparison(spec, u0, u0, cfg, tol=1e-12),
    ], ids=["solve_null_vector", "solve_stationary", "check_convergence", "check_comparison"])
    def test_tolerance_arguments_raise_type_error(self, call):
        spec = symmetric_motor(8)
        with pytest.raises(TypeError, match="unexpected keyword argument"):
            call(spec, initial_state(spec), StepConfig(dt=0.1, t_end=0.2))

    def test_comparison_gate_is_read_when_called(self, monkeypatch):
        spec = sawtooth_motor(16)
        u0 = initial_state(spec)
        zero = State(spec.grid, np.zeros_like(u0.fields))
        cfg = StepConfig(dt=0.05, t_end=0.2)
        assert check_comparison(spec, zero, u0, cfg).tolerance == 1e-12
        monkeypatch.setattr(motorflux.verify, "COMPARISON_TOL", -1.0)
        report = check_comparison(spec, zero, u0, cfg)
        assert not report.passed
        assert report.tolerance == -1.0


class TestComparison:
    def test_zero_lower_trajectory(self):
        spec = sawtooth_motor(32)
        u0 = initial_state(spec)
        zero = State(spec.grid, np.zeros_like(u0.fields))
        report = check_comparison(spec, zero, u0, StepConfig(dt=0.05, t_end=1.0, stride=4))
        assert report.passed

    def test_stationary_dome(self, rng):
        spec = sawtooth_motor(48)
        v = solve_null_vector(assemble_system(spec)).state
        dome = v.with_fields(5.0 * v.fields)
        below = dome.with_fields(dome.fields * rng.uniform(0.2, 1.0, dome.fields.shape))
        report = check_comparison(spec, below, dome, StepConfig(dt=0.05, t_end=1.0, stride=4))
        assert report.passed

    def test_unordered_pair_rejected(self):
        # the first species and cell where the pair breaks its order, located
        spec = symmetric_motor(16)
        u0 = initial_state(spec)
        low = u0.fields.copy()
        low[1, 5] += 1.0
        with pytest.raises(ConfigError) as exc_info:
            check_comparison(spec, u0.with_fields(low), u0, StepConfig(dt=0.1, t_end=0.2))
        assert str(exc_info.value) == (
            "verify-comparison needs initial2 >= initial in every cell; species 2 breaks "
            f"the order at cell 5 (centre {spec.grid.centers()[5].item()!r}): "
            f"initial {low[1, 5].item()!r} > initial2 {u0.fields[1, 5].item()!r}")

    def test_nonlinear_ordered_pair(self, rng):
        spec = reversible_problem(cells=32, p=2.0)
        low = smooth_state(spec, rng)
        high = low.with_fields(low.fields * (1.0 + rng.uniform(0.0, 0.5, low.fields.shape)))
        report = check_comparison(spec, low, high, StepConfig(dt=0.02, t_end=1.0, stride=10))
        assert report.passed

    def test_a_crossing_that_heals_fails_at_its_snapshot(self, monkeypatch):
        # the pair crosses by 0.25 in one cell at t = 0.1 and is ordered again after
        spec = symmetric_motor(4)
        low = initial_state(spec)
        high = low.with_fields(low.fields + 1.0)
        crossed = low.fields.copy()
        crossed[1, 2] = high.fields[1, 2] + 0.25

        def pairs(spec, cfg, states):
            yield low, high
            yield low.with_fields(crossed, t=0.1), high.with_fields(high.fields, t=0.1)
            yield low.with_fields(low.fields, t=0.2), high.with_fields(high.fields, t=0.2)

        monkeypatch.setattr(motorflux.verify, "run", pairs)
        report = check_comparison(spec, low, high, StepConfig(dt=0.1, t_end=0.2))
        assert not report.passed
        assert report.worst == float(crossed[1, 2] - high.fields[1, 2])
        assert report.argmax_time == 0.1
        assert report.series["times"] == (0.0, 0.1, 0.2)

    @pytest.mark.parametrize("gaps, worst, argmax_time", [
        ((0.0, 0.25, 0.25, 0.0), 0.25, 0.6),  # a tie: the first snapshot of the worst gap
        ((0.0, 0.0, 0.0, 0.0), 0.0, 0.5),     # no positive gap: the first snapshot
    ])
    def test_worst_gap_is_found_at_its_first_snapshot(self, monkeypatch, gaps, worst,
                                                      argmax_time):
        spec = symmetric_motor(4)
        low = State(spec.grid, np.ones((2, 4)), t=0.5)
        high = low.with_fields(low.fields + 1.0)

        def pairs(spec, cfg, states):
            for k, gap in enumerate(gaps):
                t = 0.5 + 0.1 * k
                yield low.with_fields(low.fields + gap, t=t), low.with_fields(low.fields, t=t)

        monkeypatch.setattr(motorflux.verify, "run", pairs)
        report = check_comparison(spec, low, high, StepConfig(dt=0.1, t_end=0.3))
        assert report.worst == worst
        assert report.argmax_time == argmax_time
        assert report.series["times"] == tuple(0.5 + 0.1 * k for k in range(len(gaps)))


class TestConvergence:
    def test_starting_at_target_stays_there(self):
        spec = sawtooth_motor(32)
        target = solve_stationary(spec, initial_state(spec))
        report = check_convergence(spec, target.state, StepConfig(dt=0.1, t_end=1.0), target)
        assert report.passed
        assert max(report.series["distance"]) <= 1e-10

    def test_linear_motor_converges(self, rng):
        spec = sawtooth_motor(64)
        u0 = smooth_state(spec, rng)
        target = solve_stationary(spec, u0)
        report = check_convergence(spec, u0, StepConfig(dt=0.05, t_end=50.0, stride=100), target)
        assert report.passed

    def test_threshold_failure_reported(self, rng, monkeypatch):
        spec = sawtooth_motor(32)
        u0 = smooth_state(spec, rng)
        target = solve_stationary(spec, u0)
        monkeypatch.setattr(motorflux.verify, "CONVERGENCE_THRESHOLD", 1e-12)
        report = check_convergence(spec, u0, StepConfig(dt=0.05, t_end=0.1), target)
        assert not report.passed
        assert report.worst > 0.0


class TestOracle:
    def test_time_zero_is_identity(self, rng):
        spec = random_problem(rng, n=2, cells=8)
        A = assemble_system(spec)
        u0 = initial_state(spec)
        out = oracle_expm(A, 0.0, u0)
        assert np.array_equal(out.fields, u0.fields)

    def test_mass_commutes_with_exponential(self, rng):
        spec = random_problem(rng, n=2, cells=16)
        A = assemble_system(spec)
        u0 = initial_state(spec)
        out = oracle_expm(A, 1.5, u0)
        m0 = weighted_mass(u0, spec)
        assert abs(weighted_mass(out, spec) - m0) <= 1e-11 * max(1.0, m0)

    def test_semigroup_property(self, rng):
        spec = random_problem(rng, n=2, cells=2)
        A = assemble_system(spec)
        u0 = initial_state(spec)
        one_shot = oracle_expm(A, 0.7, u0)
        two_step = oracle_expm(A, 0.4, oracle_expm(A, 0.3, u0))
        assert np.abs(one_shot.fields - two_step.fields).max() <= 1e-9

    def test_size_cap(self, rng):
        spec = random_problem(rng, n=3, cells=256)
        A = assemble_system(spec)
        with pytest.raises(OracleScopeError):
            oracle_expm(A, 1.0, initial_state(spec))

    def test_fitted_order_in_range(self, rng):
        spec = random_problem(rng, n=2, cells=8)
        report = oracle_compare(spec)
        assert report.passed
        order = float(report.notes.split("fitted order ")[1].split(";")[0])
        assert 0.9 <= order <= 1.2

    def test_stationary_start_matches_oracle(self):
        from motorflux import run
        spec = sawtooth_motor(8)
        A = assemble_system(spec)
        base = solve_null_vector(A)
        traj = run(spec, StepConfig(dt=0.1, t_end=1.0), initial=base.state)
        ref = oracle_expm(A, 1.0, base.state)
        assert weighted_l1_distance(traj.final, ref, spec) <= 1e-10

    def test_zero_data_trivial_pass(self):
        from motorflux import CouplingMatrix, PotentialSpec, ProblemSpec, SpeciesSpec
        spec0 = symmetric_motor(8)
        spec = ProblemSpec(grid=spec0.grid, species=spec0.species,
                           coupling=spec0.coupling,
                           initial=(PotentialSpec("zero"), PotentialSpec("zero")))
        report = oracle_compare(spec)
        assert report.passed
        assert max(report.series["error"]) == 0.0

    @pytest.mark.parametrize("start", ["zero", "null vector"])
    def test_errors_at_round_off_pass_unfitted(self, monkeypatch, start):
        spec = sawtooth_motor(8)
        base = solve_null_vector(assemble_system(spec)).state
        fields = np.zeros_like(base.fields) if start == "zero" else base.fields
        monkeypatch.setattr(motorflux.verify, "initial_state",
                            lambda spec: base.with_fields(fields))
        report = oracle_compare(spec)
        assert report.passed
        assert report.worst == 0.0
        assert report.notes == "errors at round-off; order not identifiable"


class TestReportSerialization:
    def test_ndjson_roundtrip(self, tmp_path, rng):
        spec = symmetric_motor(16)
        u0 = initial_state(spec)
        report = check_contraction(spec, u0, smooth_state(spec, rng),
                                   StepConfig(dt=0.1, t_end=0.5))
        path = tmp_path / "reports.ndjson"
        write_reports_ndjson([report], path)
        lines = path.read_text().strip().split("\n")
        assert len(lines) == 1
        obj = json.loads(lines[0])
        assert obj["name"] == "contraction"
        assert obj["pass"] is True
        assert obj["series"]["distance"][0] == report.series["distance"][0]
        assert set(obj) == {"name", "pass", "worst", "argmax_time", "tolerance",
                            "series", "notes"}

    def test_report_json_fields(self):
        spec = symmetric_motor(8)
        u0 = initial_state(spec)
        report = check_contraction(spec, u0, u0, StepConfig(dt=0.1, t_end=0.2))
        obj = report_to_json(report)
        assert obj["pass"] and obj["worst"] == 0.0
