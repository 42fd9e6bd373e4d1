from dataclasses import replace

from hypothesis import given, settings, strategies as st
import numpy as np
import pytest
from scipy import sparse
from scipy.linalg import null_space

from motorflux import (
    CouplingMatrix,
    Grid,
    PotentialSpec,
    ProblemSpec,
    ReactionSpec,
    SpeciesSpec,
    State,
    StepConfig,
    adjoint_null_check,
    assemble_system,
    boltzmann_profile,
    conjugate_to_neumann,
    eval_reaction,
    gauge_transform,
    initial_state,
    run,
    solve_null_vector,
    solve_stationary,
    weighted_l1_distance,
    weighted_l1_norm,
    weighted_mass,
)
import motorflux.steady
from motorflux.errors import (
    DegenerateDataError,
    IrreducibilityError,
    NonConvergenceError,
    ScalingError,
    SolverError,
)
from motorflux.evolve import _Factored

from conftest import (
    imex3_problem,
    one_step,
    random_problem,
    sawtooth_motor,
    smooth_state,
    symmetric_motor,
)
from reversible_oracle import reversible_pair

#: frozen root of a/2 + a^3 = 1 (50-digit bisection-independent root find)
A_CUBIC = 0.8351223484813665
B_CUBIC = 0.5824388257593167


def _tamper_factored_solves(monkeypatch, tamper):
    """Pass the output of every `_Factored.solve` through ``tamper``, which
    returns the flag that the solve returns: whether every column is finite."""
    solve = _Factored.solve

    def tampered(self, b, out, project=True):
        solve(self, b, out, project)
        return tamper(out)

    monkeypatch.setattr(_Factored, "solve", tampered)


def wl1(spec, fields_a, fields_b):
    a = State(spec.grid, fields_a)
    b = State(spec.grid, fields_b)
    return weighted_l1_distance(a, b, spec)


class TestNullVector:
    def test_symmetric_motor_constants(self):
        spec = symmetric_motor(64)
        ss = solve_null_vector(assemble_system(spec))
        assert np.abs(ss.state.fields - 0.5).max() <= 1e-10
        assert ss.normalization == "total"

    def test_single_species_matches_boltzmann_quadrature(self):
        grid = Grid.interval(0.0, 1.0, 64)
        pot = PotentialSpec("sawtooth_smoothed", amplitude=0.6)
        spec = ProblemSpec(grid=grid,
                           species=(SpeciesSpec(0.8, 1.0, pot),),
                           coupling=CouplingMatrix([[0.0]]),
                           initial=(PotentialSpec("linear", offset=1.0),))
        ss = solve_null_vector(assemble_system(spec))
        assert np.abs(ss.state.fields[0] - boltzmann_profile(spec)).max() <= 1e-10

    def test_residual_contract_random_spec(self, rng):
        spec = random_problem(rng, n=3, cells=64)
        A = assemble_system(spec)
        ss = solve_null_vector(A)
        norm_a = float(np.abs(A.matrix).sum(axis=1).max())
        assert ss.residual <= 1e-10 * norm_a
        assert ss.state.fields.min() > 0.0

    def test_residual_contract_2d_default_tol(self, rng):
        # without the correction solve the dropped row keeps the whole
        # round-off residual, several times tol*||A|| at this size
        spec = random_problem(rng, n=2, cells=128, dim=2)
        A = assemble_system(spec)
        ss = solve_null_vector(A)
        norm_a = float(np.abs(A.matrix).sum(axis=1).max())
        assert np.abs(A.matrix @ ss.state.fields.ravel()).max() <= 1e-13 * norm_a
        assert ss.state.fields.min() > 0.0

    def test_normalizations(self, rng):
        # one normalization: total integral 1, recorded as such
        spec = random_problem(rng, n=2, cells=32)
        ss = solve_null_vector(assemble_system(spec))
        assert spec.grid.cell_volume * ss.state.fields.sum() == pytest.approx(1.0, abs=1e-12)
        assert (ss.normalization, ss.constraint_value) == ("total", 1.0)

    def test_matches_dense_null_space(self):
        spec = sawtooth_motor(48)
        A = assemble_system(spec)
        base = solve_null_vector(A)
        dense = null_space(A.matrix.toarray())
        assert dense.shape[1] == 1
        ref = dense[:, 0] * np.sign(dense[:, 0].sum())
        assert ref.min() > 0.0
        ref = ref / (spec.grid.cell_volume * ref.sum())
        assert wl1(spec, ref.reshape(base.state.fields.shape), base.state.fields) <= 1e-8

    @pytest.mark.xfail(strict=True,
                       reason="ROADMAP open item 1: in deep wells the residual gate passes "
                              "states far from the null vector (off by 0.41 of its maximum)")
    def test_deep_wells_give_the_product_form(self):
        """Two species with one potential, sigma and alpha: the null vector is
        pi (x) B exactly, pi = (1/3, 2/3) the null vector of lam and B the
        Boltzmann profile.  The gate passes at residual 1.1e-11, but cell ratios
        to the exact state run from 0.585 to 14.8."""
        sp = SpeciesSpec(0.1, 1.0, PotentialSpec("sawtooth_smoothed", amplitude=2.0, period=1.0))
        spec = ProblemSpec(grid=Grid.interval(0.0, 4.0, 1000), species=(sp, sp),
                           coupling=CouplingMatrix([[-1.0, 0.5], [1.0, -0.5]]),
                           initial=(PotentialSpec("linear", offset=1.0),) * 2)
        fields = solve_null_vector(assemble_system(spec)).state.fields
        exact = np.outer([1.0 / 3.0, 2.0 / 3.0], boltzmann_profile(spec))
        assert np.all(np.abs(fields - exact) <= 1e-11 * exact)

    @pytest.mark.xfail(strict=True, raises=AssertionError,
                       reason="ROADMAP open item 1: the acceptance rule bounds the backward "
                              "error, and the tail of a deep well is off by 226 decades")
    def test_deep_well_tail_matches_the_closed_form(self):
        """One species in the potential 600 x: the exact state falls to
        2.2e-258 at the last cell, where both solvers read 1.0e-32.  The
        backward error is 3.7e-15 and the L1 error 5.4e-15, so the state is
        accepted."""
        spec = ProblemSpec(grid=Grid.interval(0.0, 1.0, 1000),
                           species=(SpeciesSpec(1.0, 1.0, PotentialSpec("linear", slope=600.0)),),
                           coupling=CouplingMatrix([[0.0]]),
                           initial=(PotentialSpec("linear", offset=1.0),))
        exact = boltzmann_profile(spec)
        ss = solve_stationary(spec, initial_state(spec))
        for fields in (solve_null_vector(assemble_system(spec)).state.fields[0],
                       ss.state.fields[0] / ss.constraint_value):
            assert np.all(np.abs(fields - exact) <= 1e-11 * exact)

    def test_stationary_under_evolver(self):
        spec = sawtooth_motor(48)
        v = solve_null_vector(assemble_system(spec)).state
        for dt in (0.01, 0.1, 1.0):
            stepped = one_step(spec, v, dt)
            assert wl1(spec, stepped.fields, v.fields) <= 1e-11

    def test_gauge_consistent_null_vector(self):
        spec = sawtooth_motor(48)
        A = assemble_system(spec)
        v = solve_null_vector(A).state
        An = conjugate_to_neumann(A, spec)
        w = solve_null_vector(An).state
        # D*v and w span the same direction; compare after matching scale
        from motorflux.model import eval_potential
        pts = spec.grid.centers()
        dv = np.stack([
            v.fields[i] * np.exp(
                np.asarray(eval_potential(sp.potential, pts, spec.grid)) / sp.sigma)
            for i, sp in enumerate(spec.species)
        ])
        dv /= spec.grid.cell_volume * dv.sum()
        assert np.abs(dv - w.fields).max() <= 1e-9

    def test_neumann_result_keeps_its_gauge(self):
        spec = sawtooth_motor(16)
        w = solve_null_vector(conjugate_to_neumann(assemble_system(spec), spec)).state
        assert w.gauge == "neumann"
        with pytest.raises(ValueError, match="physical-gauge state"):
            run(spec, StepConfig(dt=0.1, t_end=1.0), w)

    def test_residual_contract_failure(self, monkeypatch):
        spec = sawtooth_motor(32)
        A = assemble_system(spec)
        monkeypatch.setattr(motorflux.steady, "STATIONARY_TOL", 0.0)
        with pytest.raises(NonConvergenceError):
            solve_null_vector(A)

    def test_nan_tol_fails_residual_contract(self, monkeypatch):
        # residual > nan*||A|| is false, so the check must not be written that way
        A = assemble_system(sawtooth_motor(32))
        monkeypatch.setattr(motorflux.steady, "STATIONARY_TOL", float("nan"))
        with pytest.raises(NonConvergenceError):
            solve_null_vector(A)

    @pytest.mark.parametrize("lam", [[[0.0, 0.0], [0.0, 0.0]],
                                     [[-1.0, 0.0], [1.0, 0.0]]])
    def test_reducible_coupling_raises(self, lam):
        spec = replace(sawtooth_motor(32), coupling=CouplingMatrix(lam))
        with pytest.raises(IrreducibilityError):
            solve_null_vector(assemble_system(spec))

    def test_singular_reduced_system_raises(self):
        spec = sawtooth_motor(16)
        A = assemble_system(spec)
        # cut cell 1 of species 1 off from everything: A no longer conserves
        # the weighted mass, and I - tau*A loses its identity
        m = A.matrix.tolil()
        m[1, :] = 0.0
        m[:, 1] = 0.0
        broken = replace(A, matrix=sparse.csr_array(m))
        with pytest.raises(IrreducibilityError):
            solve_null_vector(broken)


    def test_zero_entry_raises(self, monkeypatch):
        """The continuation halves an entry that a step would make non-positive,
        so a solve can zero an entry only through the weighted-mass rescale:
        with the rest of each solve scaled to 2^1023, the rescale by about
        2^-1024 takes the halved cell 0 below the smallest subnormal.  The
        residual gate still holds, since the well at cell 0 makes the exact
        null vector about 1e-24 of its maximum there.  The coupling graph is
        strongly connected, so the zero is an underflow that names its
        species and cell."""
        spec = ProblemSpec(
            grid=Grid.interval(0.0, 1.0, 16),
            species=(SpeciesSpec(1.0, 1.0, PotentialSpec("tabulated", table_x=(0.0, 0.1, 1.0),
                                                         table_v=(80.0, 0.0, 0.0))),),
            coupling=CouplingMatrix([[0.0]]),
            initial=(PotentialSpec("linear", offset=1.0),))
        assert solve_null_vector(assemble_system(spec)).state.fields.min() > 0.0

        def zero_cell_0(out):
            out *= 2.0 ** 1023 / out.max()
            out[:, 0] = 0.0
            return True

        _tamper_factored_solves(monkeypatch, zero_cell_0)
        with pytest.raises(ScalingError, match="species 1 underflows to 0.0 at cell 0,"):
            solve_null_vector(assemble_system(spec))


def test_non_finite_solve_raises(monkeypatch):
    # a linear problem solves for the state, a nonlinear one for the increment
    def one_infinite_entry(out):
        out[:, 0] = np.inf
        return False

    _tamper_factored_solves(monkeypatch, one_infinite_entry)
    for solve in (lambda: solve_null_vector(assemble_system(sawtooth_motor(16))),
                  lambda: solve_stationary(imex3_problem(16), initial_state(imex3_problem(16)))):
        with pytest.raises(SolverError, match="stationary iteration produced non-finite values"):
            solve()


def relative_distance(spec, a: State, b: State) -> float:
    return weighted_l1_distance(a, b, spec) / weighted_l1_norm(b, spec)


class TestStationaryState:
    def test_equal_masses_reach_one_state(self, rng):
        # L1 contraction leaves one stationary state per weighted mass
        spec = imex3_problem(64)
        u0 = initial_state(spec)
        other = smooth_state(spec, rng)
        other = other.with_fields(other.fields * (weighted_mass(u0, spec)
                                                  / weighted_mass(other, spec)))
        a = solve_stationary(spec, u0).state
        b = solve_stationary(spec, other).state
        assert np.abs(a.fields - u0.fields).max() >= 0.1
        assert relative_distance(spec, a, b) <= 1e-10

    @pytest.mark.parametrize("cells", [64, 256])
    def test_agrees_with_a_long_imex_run(self, cells):
        # the IMEX map fixes exactly the states with F(u) = 0, so a long run
        # from the same data is an independent witness
        spec = imex3_problem(cells)
        ss = solve_stationary(spec, initial_state(spec))
        final = run(spec, StepConfig(dt=0.01, t_end=20.0, stride=2000)).final
        assert relative_distance(spec, final, ss.state) <= 1e-8
        assert weighted_mass(ss.state, spec) == pytest.approx(ss.constraint_value, rel=1e-14)
        assert ss.normalization == "mass_matched"

    def test_2d_nonlinear(self):
        spec = imex3_problem(24, dim=2)
        ss = solve_stationary(spec, initial_state(spec))
        assert ss.state.fields.min() > 0.0
        assert weighted_mass(ss.state, spec) == pytest.approx(ss.constraint_value, rel=1e-14)

    def test_linear_matches_the_ray_projection(self, rng):
        # the null vector scaled to u0's weighted mass
        spec = random_problem(rng, n=3, cells=64)
        u0 = smooth_state(spec, rng)
        base = solve_null_vector(assemble_system(spec)).state
        target = base.with_fields(base.fields * (weighted_mass(u0, spec)
                                                 / weighted_mass(base, spec)))
        assert relative_distance(spec, solve_stationary(spec, u0).state, target) <= 1e-12

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(-40, 40))
    def test_linear_states_are_one_vector_times_their_mass(self, seed, k):
        """Data of any shape give the same state per unit mass, within 4 ulps,
        and data times 2^k give exactly 2^k times the state."""
        rng = np.random.default_rng(seed)
        spec = random_problem(rng, n=int(rng.integers(1, 4)), cells=32)
        u0, other = smooth_state(spec, rng), smooth_state(spec, rng)
        a, b = solve_stationary(spec, u0), solve_stationary(spec, other)
        per_mass = a.state.fields / a.constraint_value, b.state.fields / b.constraint_value
        ulp = np.spacing(np.maximum(*per_mass))
        assert np.all(np.abs(per_mass[0] - per_mass[1]) <= 4.0 * ulp)
        scaled = solve_stationary(spec, u0.with_fields(np.ldexp(u0.fields, k)))
        assert np.array_equal(scaled.state.fields, np.ldexp(a.state.fields, k))

    def test_reversible_pair_closed_form(self):
        spec = replace(symmetric_motor(32), species=(
            SpeciesSpec(1.0, 2.0, PotentialSpec("zero"), ReactionSpec("power", exponent=3.0)),
            SpeciesSpec(1.0, 1.0, PotentialSpec("zero"))))
        u0 = initial_state(spec)
        a, b = reversible_pair(weighted_mass(u0, spec), spec.species[0].reaction,
                               spec.species[1].reaction, alpha=2.0, beta=1.0)
        fields = solve_stationary(spec, u0).state.fields
        assert np.abs(fields[0] - a).max() <= 1e-12
        assert np.abs(fields[1] - b).max() <= 1e-12

    def test_data_with_zeros(self):
        # a zero entry moves the start, not the result
        spec = imex3_problem(32)
        u0 = initial_state(spec)
        zeros = u0.fields.copy()
        zeros[0] += zeros[1]  # every alpha is 1
        zeros[1] = 0.0
        start = u0.with_fields(zeros)
        assert weighted_mass(start, spec) == pytest.approx(weighted_mass(u0, spec), rel=1e-14)
        assert relative_distance(spec, solve_stationary(spec, start).state,
                                 solve_stationary(spec, u0).state) <= 1e-10

    def test_step_cap_names_the_residual(self, monkeypatch):
        monkeypatch.setattr(motorflux.steady, "_MAX_STEPS", 1)
        spec = imex3_problem(32)
        with pytest.raises(NonConvergenceError, match="did not converge in 1 steps: residual"):
            solve_stationary(spec, initial_state(spec))

    def test_gate_failure(self, monkeypatch):
        spec = imex3_problem(32)
        monkeypatch.setattr(motorflux.steady, "STATIONARY_TOL", 0.0)
        with pytest.raises(NonConvergenceError, match="exceeds its bound"):
            solve_stationary(spec, initial_state(spec))

    def test_zero_mass_rejected(self):
        spec = imex3_problem(16)
        with pytest.raises(DegenerateDataError):
            solve_stationary(spec, State(spec.grid, np.zeros((3, 16))))

    def test_neumann_gauge_data_rejected(self):
        spec = sawtooth_motor(32)
        u0 = gauge_transform(initial_state(spec), spec, "to_neumann")
        with pytest.raises(ValueError, match="expects a physical-gauge state"):
            solve_stationary(spec, u0)

    def test_state_beyond_the_largest_double_raises(self):
        """Data of 1e307 in the potential 50 x: the exact state peaks near
        5e308 at the first cell, beyond the largest double."""
        spec = ProblemSpec(grid=Grid.interval(0.0, 1.0, 64),
                           species=(SpeciesSpec(1.0, 1.0, PotentialSpec("linear", slope=50.0)),),
                           coupling=CouplingMatrix([[0.0]]),
                           initial=(PotentialSpec("linear", offset=1.0),))
        u0 = State(spec.grid, np.full((1, 64), 1e307))
        with pytest.raises(ScalingError, match="species 1 overflows to inf at cell 0, where "
                                               "the exact state is finite"):
            solve_stationary(spec, u0)

    def test_reducible_coupling_raises(self):
        spec = replace(imex3_problem(16), coupling=CouplingMatrix(
            [[-1.0, 0.0, 0.0], [0.5, -1.0, 0.0], [0.5, 1.0, 0.0]]))
        with pytest.raises(IrreducibilityError, match="not irreducible"):
            solve_stationary(spec, initial_state(spec))


class TestAdjointCheck:
    def test_valid_assembly_small(self, rng):
        for n in (1, 2, 3):
            spec = random_problem(rng, n=n, cells=24)
            assert adjoint_null_check(assemble_system(spec)) <= 1e-12

    def test_neumann_gauge_operator(self):
        spec = sawtooth_motor(48)
        An = conjugate_to_neumann(assemble_system(spec), spec)
        assert adjoint_null_check(An) <= 1e-12

    def test_pure_transport(self):
        grid = Grid.interval(0.0, 1.0, 32)
        spec = ProblemSpec(grid=grid,
                           species=(SpeciesSpec(1.0, 1.0, PotentialSpec("cosine", amplitude=0.5)),),
                           coupling=CouplingMatrix([[0.0]]),
                           initial=(PotentialSpec("linear", offset=1.0),))
        assert adjoint_null_check(assemble_system(spec)) <= 1e-13

    def test_detects_corrupted_column(self):
        import dataclasses

        from scipy import sparse
        spec = symmetric_motor(16)
        A = assemble_system(spec)
        corrupted = sparse.lil_array(A.matrix.copy())
        corrupted[3, 3] += 1e-3
        A_bad = dataclasses.replace(A, matrix=sparse.csr_array(corrupted))
        got = adjoint_null_check(A_bad)
        expected = 1e-3 * spec.grid.cell_volume / spec.species[0].alpha
        assert got == pytest.approx(expected, rel=1e-6)


class TestReversiblePair:
    def test_square_reaction_mass_two(self):
        a, b = reversible_pair(2.0, ReactionSpec("power", exponent=2.0),
                               ReactionSpec("linear"))
        assert a == pytest.approx(1.0, abs=1e-12)
        assert b == pytest.approx(1.0, abs=1e-12)

    def test_identity_reactions(self):
        a, b = reversible_pair(2.0, ReactionSpec("linear"), ReactionSpec("linear"))
        assert (a, b) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))

    def test_cubic_frozen_value(self):
        a, b = reversible_pair(1.0, ReactionSpec("power", exponent=3.0),
                               ReactionSpec("linear"), alpha=2.0, beta=1.0)
        assert a == pytest.approx(A_CUBIC, abs=1e-12)
        assert b == pytest.approx(B_CUBIC, abs=1e-11)

    def test_detailed_balance(self, rng):
        for _ in range(10):
            p = float(rng.choice([1.0, 1.5, 2.0, 3.0]))
            m = float(rng.choice([1.0, 2.0, 3.0]))
            r_a = ReactionSpec("power", exponent=p)
            r_b = ReactionSpec("power", exponent=m)
            a, b = reversible_pair(float(rng.uniform(0.5, 4.0)), r_a, r_b,
                                   alpha=float(rng.uniform(0.5, 2.0)),
                                   beta=float(rng.uniform(0.5, 2.0)))
            assert abs(eval_reaction(r_a, a) - eval_reaction(r_b, b)) <= 1e-12 * max(
                1.0, eval_reaction(r_a, a))

    def test_volume_scaling(self):
        # total mass 4 on a domain of measure 2 is the same as mass 2 on measure 1
        a, b = reversible_pair(4.0, ReactionSpec("power", exponent=2.0),
                               ReactionSpec("linear"), volume=2.0)
        assert a == pytest.approx(1.0, abs=1e-12)

    def test_zero_mass_rejected(self):
        with pytest.raises(DegenerateDataError):
            reversible_pair(0.0, ReactionSpec("linear"), ReactionSpec("linear"))


class TestRayProjection:
    """For linear reactions the stationary states form the ray {c*v : c > 0};
    `solve_stationary` picks the member with the initial data's weighted mass."""

    def test_identity_and_linearity(self):
        spec = sawtooth_motor(32)
        base = solve_null_vector(assemble_system(spec)).state
        same = solve_stationary(spec, base)
        assert same.constraint_value == pytest.approx(weighted_mass(base, spec), rel=1e-15)
        assert np.allclose(same.state.fields, base.fields, rtol=1e-12)
        tripled = solve_stationary(spec, base.with_fields(3.0 * base.fields))
        assert tripled.constraint_value == pytest.approx(3.0 * same.constraint_value, rel=1e-12)
        assert np.allclose(tripled.state.fields, 3.0 * base.fields, rtol=1e-12)

    def test_zero_mass_rejected(self):
        spec = sawtooth_motor(16)
        zero = State(spec.grid, np.zeros((2, spec.grid.size)))
        with pytest.raises(DegenerateDataError):
            solve_stationary(spec, zero)

    def test_long_run_lands_on_projection(self, rng):
        spec = sawtooth_motor(64)
        u0 = smooth_state(spec, rng)
        target = solve_stationary(spec, u0)
        traj = run(spec, StepConfig(dt=0.05, t_end=50.0, stride=500), initial=u0)
        assert weighted_l1_distance(traj.final, target.state, spec) <= 1e-6
