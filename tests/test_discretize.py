from dataclasses import replace

import numpy as np
import pytest

from motorflux import (
    Grid,
    PotentialSpec,
    ProblemSpec,
    SpeciesSpec,
    CouplingMatrix,
    ReactionSpec,
    assemble_system,
    assemble_transport,
    bernoulli,
    conjugate_to_neumann,
    eval_potential,
    gauge_transform,
    initial_state,
)
from motorflux.errors import ScalingError, UnsupportedConfigurationError

from conftest import ZERO, random_problem, symmetric_motor
from coo_assembly import coo_system, coo_transport

#: frozen reference: 1/(e-1) evaluated at 50 digits
B_AT_ONE = 0.5819767068693264


def offdiag_min(matrix) -> float:
    dense = matrix.toarray().copy()
    np.fill_diagonal(dense, 0.0)
    return float(dense.min())


def weighted_colsum_rel(op) -> float:
    # uniform volumes: the volume factor cancels against the entry scale
    dense = op.matrix.toarray()
    return float(np.abs(dense.sum(axis=0)).max() / np.abs(dense).max())


def _branchwise(arr):
    """B(x) on each of its three branches alone: the reference for `bernoulli`."""
    out = np.empty_like(arr)
    small = np.abs(arr) <= 1e-5
    big = arr > 700.0
    mid = ~(small | big)
    xs = arr[small]
    out[small] = 1.0 - xs / 2.0 + xs * xs / 12.0 - xs ** 4 / 720.0
    out[big] = arr[big] * np.exp(-arr[big])
    out[mid] = arr[mid] / np.expm1(arr[mid])
    return out


class TestBernoulli:
    def test_removable_singularity(self):
        assert bernoulli(0.0) == 1.0

    @pytest.mark.parametrize("x", [0.1, 1.0, 10.0])
    def test_reflection_identity(self, x):
        assert bernoulli(-x) - bernoulli(x) == pytest.approx(x, rel=1e-14)

    def test_frozen_value_at_one(self):
        assert bernoulli(1.0) == pytest.approx(B_AT_ONE, rel=1e-12)

    def test_matches_direct_formula_across_range(self):
        xs = np.concatenate([
            -np.logspace(-8, np.log10(50.0), 200),
            np.logspace(-8, np.log10(50.0), 200),
        ])
        ref = xs / np.expm1(xs)
        assert np.max(np.abs(bernoulli(xs) - ref) / np.abs(ref)) <= 1e-12

    def test_asymptotics(self):
        assert bernoulli(800.0) == 0.0
        assert bernoulli(-800.0) == pytest.approx(800.0, rel=1e-15)
        assert bernoulli(710.0) == pytest.approx(710.0 * np.exp(-710.0), rel=1e-12)

    @pytest.mark.parametrize("x,expected", [
        (0.0, 1.0), (-0.0, 1.0),
        (1e-5, 1.0 - 5e-6 + 1e-10 / 12.0), (-1e-5, 1.0 + 5e-6 + 1e-10 / 12.0),
        (np.nextafter(1e-5, 1.0), 1e-5 / np.expm1(1e-5)),  # the first x past the Taylor cutoff
        (700.0, 700.0 * np.exp(-700.0)), (700.0001, 700.0001 * np.exp(-700.0001)),
        (-745.0, 745.0), (1e300, 0.0), (-1e300, 1e300),
    ])
    def test_edges(self, x, expected):
        assert bernoulli(x) == pytest.approx(expected, rel=1e-14, abs=0.0)
        # bit for bit the branchwise evaluation, alone and among other entries
        xs = np.array([x, 1e-6, -3.0, 800.0, x])
        assert bernoulli(xs).tobytes() == _branchwise(xs).tobytes()
        assert bernoulli(x) == _branchwise(np.array([x]))[0]

    def test_random_values_match_branchwise(self, rng):
        xs = np.concatenate([rng.uniform(-s, s, 4096) for s in (1e-7, 1e-5, 1e-3, 1.0, 30.0, 800.0)])
        assert bernoulli(xs).tobytes() == _branchwise(xs).tobytes()

    def test_vectorized(self):
        xs = np.array([0.0, 1.0, -1.0])
        out = bernoulli(xs)
        assert out.shape == (3,)
        assert out[0] == 1.0


class TestTransportAssembly:
    def test_zero_potential_is_neumann_laplacian(self):
        g = Grid.interval(0.0, 1.0, 4)
        T = assemble_transport(g, 1.0, ZERO)
        h2 = g.h[0] ** 2
        expected = np.array([
            [-1.0, 1.0, 0.0, 0.0],
            [1.0, -2.0, 1.0, 0.0],
            [0.0, 1.0, -2.0, 1.0],
            [0.0, 0.0, 1.0, -1.0],
        ]) / h2
        assert np.array_equal(T.matrix.toarray(), expected)

    def test_boltzmann_profile_annihilated_linear_potential(self):
        g = Grid.interval(0.0, 1.0, 32)
        sigma = 0.7
        pot = PotentialSpec("linear", slope=sigma * 1.5)  # slope sigma*s0 per cell
        T = assemble_transport(g, sigma, pot)
        psi = eval_potential(pot, g.centers(), g)
        boltz = np.exp(-psi / sigma)
        scale = np.abs(T.matrix.toarray()).max() * boltz.max()
        assert np.abs(T.matrix @ boltz).max() <= 1e-12 * scale

    @pytest.mark.parametrize("pot", [
        PotentialSpec("cosine", amplitude=0.8, period=0.5),
        PotentialSpec("sawtooth_smoothed", amplitude=0.6),
        PotentialSpec("tabulated", table_x=(0.0, 0.3, 1.0), table_v=(0.0, 0.9, 0.1)),
    ])
    def test_boltzmann_exactness_general_potentials(self, pot):
        g = Grid.interval(0.0, 1.0, 48)
        T = assemble_transport(g, 1.1, pot)
        boltz = np.exp(-np.asarray(eval_potential(pot, g.centers(), g)) / 1.1)
        scale = np.abs(T.matrix.toarray()).max() * boltz.max()
        assert np.abs(T.matrix @ boltz).max() <= 1e-11 * scale

    def test_metzler_and_conservation(self, rng):
        for _ in range(5):
            spec = random_problem(rng, n=1, cells=40)
            T = assemble_transport(spec.grid, spec.species[0].sigma,
                                   spec.species[0].potential)
            assert offdiag_min(T.matrix) >= -1e-15
            assert weighted_colsum_rel(T) <= 1e-12

    def test_2d_tensor_structure(self):
        g = Grid.box((0.0, 0.0), (1.0, 1.0), (5, 4))
        pot = PotentialSpec("cosine", amplitude=0.5, axis=0)
        T = assemble_transport(g, 1.0, pot)
        dense = T.matrix.toarray()
        # five-point stencil: at most 4 off-diagonal entries per row
        off = dense.copy()
        np.fill_diagonal(off, 0.0)
        assert ((off != 0).sum(axis=1) <= 4).all()
        assert offdiag_min(T.matrix) >= -1e-15
        assert weighted_colsum_rel(T) <= 1e-12
        boltz = np.exp(-np.asarray(eval_potential(pot, g.centers(), g)))
        scale = np.abs(dense).max() * boltz.max()
        assert np.abs(T.matrix @ boltz).max() <= 1e-11 * scale


class TestSystemAssembly:
    def test_single_species_equals_transport(self):
        g = Grid.interval(0.0, 1.0, 16)
        spec = ProblemSpec(
            grid=g,
            species=(SpeciesSpec(1.0, 1.0, ZERO),),
            coupling=CouplingMatrix([[0.0]]),
            initial=(PotentialSpec("linear", offset=1.0),),
        )
        A = assemble_system(spec)
        T = assemble_transport(g, 1.0, ZERO)
        assert np.array_equal(A.matrix.toarray(), T.matrix.toarray())

    def test_two_species_small_grid_coupling_block(self):
        g = Grid.interval(0.0, 1.0, 2)
        spec = ProblemSpec(
            grid=g,
            species=(SpeciesSpec(1.0, 1.0, ZERO), SpeciesSpec(1.0, 1.0, ZERO)),
            coupling=CouplingMatrix([[-1.0, 1.0], [1.0, -1.0]]),
            initial=(PotentialSpec("linear", offset=1.0),) * 2,
        )
        A = assemble_system(spec)
        dense = A.matrix.toarray()
        assert dense.shape == (4, 4)
        T = assemble_transport(g, 1.0, ZERO).matrix.toarray()
        coupling_part = dense - np.block([[T, np.zeros((2, 2))],
                                          [np.zeros((2, 2)), T]])
        assert np.array_equal(coupling_part,
                              np.array([[-1.0, 0.0, 1.0, 0.0],
                                        [0.0, -1.0, 0.0, 1.0],
                                        [1.0, 0.0, -1.0, 0.0],
                                        [0.0, 1.0, 0.0, -1.0]]))

    def test_left_null_vector_random_spec(self, rng):
        from motorflux import adjoint_null_check
        spec = random_problem(rng, n=3, cells=16)
        A = assemble_system(spec)
        assert adjoint_null_check(A) <= 1e-12

    def test_full_matrix_metzler(self, rng):
        spec = random_problem(rng, n=3, cells=12)
        A = assemble_system(spec)
        assert offdiag_min(A.matrix) >= -1e-15

    def test_generator_produces_no_net_mass(self, rng):
        # weighted total of A@u vanishes relative to ||A@u||_1 for any state u
        spec = random_problem(rng, n=2, cells=32)
        A = assemble_system(spec)
        vol = spec.grid.cell_volume
        weights = np.repeat(vol / spec.alphas, spec.grid.size)
        for _ in range(5):
            u = rng.uniform(0.0, 2.0, A.matrix.shape[0])
            au = A.matrix @ u
            assert abs(weights @ au) <= 1e-12 * np.abs(au).sum()

    def test_matches_coo_assembly(self, rng):
        # the DIA operators equal the COO assembly entry for entry
        for dim, cells in ((1, 37), (2, 6)):
            for n in (1, 2, 3):
                spec = random_problem(rng, n=n, cells=cells, dim=dim)
                if dim == 2:  # unequal axes, so the two strides differ
                    spec = replace(spec, grid=Grid.box((0.0, -1.0), (1.0, 2.0), (7, 5)))
                A = assemble_system(spec)
                assert A.matrix.format == "dia"
                assert np.array_equal(A.matrix.toarray(), coo_system(spec).toarray())
                for sp, T in zip(spec.species, A.transports):
                    assert T.matrix.format == "dia"
                    expected = coo_transport(spec.grid, sp.sigma, sp.potential).toarray()
                    assert np.array_equal(T.matrix.toarray(), expected)

    def test_nonlinear_rejected(self):
        spec = symmetric_motor(8)
        species = (SpeciesSpec(1.0, 1.0, ZERO, ReactionSpec("power", exponent=2.0)),
                   spec.species[1])
        nl = ProblemSpec(grid=spec.grid, species=species,
                         coupling=spec.coupling, initial=spec.initial)
        with pytest.raises(UnsupportedConfigurationError):
            assemble_system(nl)


class TestGauge:
    def one_species_spec(self, pot, sigma=1.0, cells=16):
        g = Grid.interval(0.0, 1.0, cells)
        return ProblemSpec(
            grid=g,
            species=(SpeciesSpec(sigma, 1.0, pot),),
            coupling=CouplingMatrix([[0.0]]),
            initial=(PotentialSpec("linear", offset=1.0),),
        )

    def test_zero_potential_is_identity(self):
        spec = self.one_species_spec(ZERO)
        A = assemble_system(spec)
        An = conjugate_to_neumann(A, spec)
        assert np.array_equal(A.matrix.toarray(), An.matrix.toarray())
        s = initial_state(spec)
        assert np.array_equal(gauge_transform(s, spec, "to_neumann").fields, s.fields)

    def test_spectrum_preserved(self, rng):
        spec = random_problem(rng, n=2, cells=8)
        A = assemble_system(spec)
        An = conjugate_to_neumann(A, spec)
        ev_a = np.sort_complex(np.linalg.eigvals(A.matrix.toarray()))
        ev_n = np.sort_complex(np.linalg.eigvals(An.matrix.toarray()))
        assert np.abs(ev_a - ev_n).max() <= 1e-9

    def test_constant_null_vector_after_conjugation(self):
        pot = PotentialSpec("cosine", amplitude=0.9)
        spec = self.one_species_spec(pot, sigma=0.8, cells=32)
        An = conjugate_to_neumann(assemble_system(spec), spec)
        ones = np.ones(spec.grid.size)
        scale = np.abs(An.matrix.toarray()).max()
        assert np.abs(An.matrix @ ones).max() <= 1e-11 * scale

    def test_roundtrip_exact(self):
        pot = PotentialSpec("sawtooth_smoothed", amplitude=0.5)
        spec = self.one_species_spec(pot)
        s = initial_state(spec)
        back = gauge_transform(gauge_transform(s, spec, "to_neumann"), spec, "to_physical")
        rel = np.abs(back.fields - s.fields).max() / np.abs(s.fields).max()
        assert rel <= 1e-14

    def test_unit_state_maps_to_exponential(self):
        sigma = 0.9
        pot = PotentialSpec("linear", slope=sigma)  # psi = sigma*x, so w = e^x
        spec = self.one_species_spec(pot, sigma=sigma)
        s = initial_state(spec)
        w = gauge_transform(s, spec, "to_neumann")
        assert np.allclose(w.fields[0], np.exp(spec.grid.centers()), rtol=1e-14)

    def test_overflow_guarded(self):
        pot = PotentialSpec("linear", slope=2000.0)
        spec = self.one_species_spec(pot)
        with pytest.raises(ScalingError):
            gauge_transform(initial_state(spec), spec, "to_neumann")
        with pytest.raises(ScalingError):
            conjugate_to_neumann(assemble_system(spec), spec)

    def test_gauge_mismatch_rejected(self):
        spec = self.one_species_spec(ZERO)
        s = initial_state(spec)
        with pytest.raises(ValueError):
            gauge_transform(s, spec, "to_physical")
