import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motorflux import (
    State,
    StepConfig,
    assemble_system,
    check_comparison,
    check_contraction,
    check_convergence,
    initial_state,
    oracle_compare,
    oracle_expm,
    solve_null_vector,
    solve_stationary,
    weighted_l1_distance,
    weighted_mass,
)
from motorflux.errors import OracleScopeError
from motorflux.verify import report_to_json, write_reports_ndjson

from conftest import (
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
        report, series = check_contraction(spec, u0, u0, StepConfig(dt=0.05, t_end=0.5))
        assert report.passed
        assert all(v == 0.0 for v in series.norms)

    def test_ordered_data_gives_constant_series(self, rng):
        spec = sawtooth_motor(48)
        u0 = smooth_state(spec, rng)
        hi = u0.with_fields(u0.fields + 0.3)
        report, series = check_contraction(spec, hi, u0, StepConfig(dt=0.02, t_end=2.0, stride=5))
        assert report.passed
        spread = max(series.norms) - min(series.norms)
        assert spread <= 1e-10
        assert not any(any(flags) for flags in series.sign_change)

    def test_sign_changing_difference_contracts_strictly(self, rng):
        spec = sawtooth_motor(64)
        u0 = smooth_state(spec, rng)
        wiggle = 0.3 * np.cos(2 * np.pi * spec.grid.centers())
        other = u0.with_fields(np.maximum(u0.fields + wiggle, 0.0))
        report, series = check_contraction(spec, u0, other, StepConfig(dt=0.02, t_end=1.0, stride=5))
        assert report.passed
        assert any(series.sign_change[0])
        assert series.norms[-1] < 0.99 * series.norms[0]

    def test_nonlinear_pair_contracts(self, rng):
        spec = reversible_problem(cells=32, p=2.0)
        u0 = smooth_state(spec, rng)
        other = smooth_state(spec, rng)
        report, _series = check_contraction(spec, u0, other, StepConfig(dt=0.02, t_end=1.0, stride=5))
        assert report.passed


class TestComparison:
    def test_zero_lower_trajectory(self):
        spec = sawtooth_motor(32)
        u0 = initial_state(spec)
        zero = State(spec.grid, np.zeros_like(u0.fields))
        report = check_comparison(spec, zero, u0, StepConfig(dt=0.05, t_end=1.0, stride=4))
        assert report.passed

    def test_stationary_dome(self, rng):
        spec = sawtooth_motor(48)
        v = solve_null_vector(assemble_system(spec), tol=1e-13).state
        dome = v.with_fields(5.0 * v.fields)
        below = dome.with_fields(dome.fields * rng.uniform(0.2, 1.0, dome.fields.shape))
        report = check_comparison(spec, below, dome, StepConfig(dt=0.05, t_end=1.0, stride=4))
        assert report.passed

    def test_unordered_pair_rejected(self):
        spec = symmetric_motor(16)
        u0 = initial_state(spec)
        with pytest.raises(ValueError):
            check_comparison(spec, u0.with_fields(u0.fields + 1.0), u0,
                             StepConfig(dt=0.1, t_end=0.2))

    def test_nonlinear_ordered_pair(self, rng):
        spec = reversible_problem(cells=32, p=2.0)
        low = smooth_state(spec, rng)
        high = low.with_fields(low.fields * (1.0 + rng.uniform(0.0, 0.5, low.fields.shape)))
        report = check_comparison(spec, low, high, StepConfig(dt=0.02, t_end=1.0, stride=10))
        assert report.passed


class TestConvergence:
    def test_starting_at_target_stays_there(self):
        spec = sawtooth_motor(32)
        target = solve_stationary(spec, initial_state(spec))
        report = check_convergence(spec, target.state, StepConfig(dt=0.1, t_end=1.0),
                                   target, threshold=1e-9)
        assert report.passed
        assert max(report.series["distance"]) <= 1e-10

    def test_linear_motor_converges(self, rng):
        spec = sawtooth_motor(64)
        u0 = smooth_state(spec, rng)
        target = solve_stationary(spec, u0)
        report = check_convergence(spec, u0, StepConfig(dt=0.05, t_end=50.0, stride=100),
                                   target, threshold=1e-6)
        assert report.passed

    def test_threshold_failure_reported(self, rng):
        spec = sawtooth_motor(32)
        u0 = smooth_state(spec, rng)
        target = solve_stationary(spec, u0)
        report = check_convergence(spec, u0, StepConfig(dt=0.05, t_end=0.1),
                                   target, threshold=1e-12)
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
        base = solve_null_vector(A, tol=1e-13)
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


class TestReportSerialization:
    def test_ndjson_roundtrip(self, tmp_path, rng):
        spec = symmetric_motor(16)
        u0 = initial_state(spec)
        report, _ = check_contraction(spec, u0, smooth_state(spec, rng),
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
        report, _ = check_contraction(spec, u0, u0, StepConfig(dt=0.1, t_end=0.2))
        obj = report_to_json(report)
        assert obj["pass"] and obj["worst"] == 0.0
