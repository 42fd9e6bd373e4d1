import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motorflux import (
    CouplingMatrix,
    Grid,
    PotentialSpec,
    ProblemSpec,
    ReactionSpec,
    SpeciesSpec,
    State,
    eval_potential,
    eval_reaction,
    initial_state,
    reaction_lipschitz,
    validate,
)
from motorflux.errors import OutOfDomainError, UnsupportedConfigurationError
import motorflux.evolve
import motorflux.model
from motorflux.model import MAX_2D_BLOCK_ENTRIES, MAX_UNKNOWNS, eval_power

from conftest import ZERO, symmetric_motor
from reversible_oracle import reaction_inverse


class TestGrid:
    def test_interval_basics(self):
        g = Grid.interval(0.0, 2.0, 8)
        assert g.dim == 1
        assert g.h == (0.25,)
        assert g.size == 8
        assert g.volume == 2.0
        assert np.allclose(g.axis_centers(0), 0.125 + 0.25 * np.arange(8))
        assert len(g.axis_faces(0)) == 9

    def test_box_basics(self):
        g = Grid.box((0.0, -1.0), (1.0, 1.0), (4, 8))
        assert g.dim == 2
        assert g.size == 32
        assert g.cell_volume == pytest.approx(0.25 * 0.25)
        assert g.centers().shape == (32, 2)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_cell_volumes_sum_to_domain_volume(self, dim):
        if dim == 1:
            g = Grid.interval(-0.3, 1.7, 97)
        else:
            g = Grid.box((0.0, 0.2), (1.1, 0.9), (13, 29))
        assert abs(g.size * g.cell_volume - g.volume) <= 1e-12 * g.volume

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            Grid.interval(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            Grid.interval(1.0, 0.0, 4)
        with pytest.raises(ValueError):
            Grid((0.0,), (1.0,), (4, 4))


class TestPotentials:
    def test_zero_everywhere(self):
        g = Grid.interval(0.0, 1.0, 4)
        assert eval_potential(ZERO, 0.3, g) == 0.0
        assert np.all(eval_potential(ZERO, g.centers(), g) == 0.0)

    def test_linear_slope(self):
        g = Grid.interval(0.0, 1.0, 4)
        pot = PotentialSpec("linear", slope=2.0)
        assert eval_potential(pot, 0.5, g) == 1.0

    def test_cosine_at_origin(self):
        g = Grid.interval(0.0, 1.0, 4)
        pot = PotentialSpec("cosine", amplitude=1.0, period=1.0)
        assert eval_potential(pot, 0.0, g) == 1.0

    def test_tabulated_interpolates(self):
        g = Grid.interval(0.0, 1.0, 4)
        pot = PotentialSpec("tabulated", table_x=(0.0, 0.5, 1.0), table_v=(0.0, 1.0, 0.0))
        assert eval_potential(pot, 0.25, g) == pytest.approx(0.5)
        assert eval_potential(pot, 0.75, g) == pytest.approx(0.5)

    def test_sawtooth_is_finite_and_periodic(self):
        g = Grid.interval(0.0, 2.0, 16)
        pot = PotentialSpec("sawtooth_smoothed", amplitude=0.7, period=1.0)
        vals = eval_potential(pot, g.centers(), g)
        assert np.all(np.isfinite(vals))
        assert eval_potential(pot, 0.25, g) == pytest.approx(
            eval_potential(pot, 1.25, g), abs=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(terms=st.integers(1, 1024),
           amplitude=st.floats(-5.0, 5.0).filter(lambda a: a == 0.0 or abs(a) >= 1e-3),
           period=st.floats(0.5, 4.0),
           phase=st.floats(-1.0, 1.0),
           points=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=16))
    def test_sawtooth_kernel_matches_term_by_term_sum(self, terms, amplitude, period, phase,
                                                      points):
        # the power recurrence against one np.sin per term; the reference
        # rounds k*arg before each sine, so the bound grows with the terms
        s = np.array(points)
        pot = PotentialSpec("sawtooth_smoothed", amplitude=amplitude, period=period,
                            phase=phase, terms=terms)
        arg = 2.0 * np.pi * (s - phase) / period
        series = sum((-1.0) ** (k + 1) * np.sin(k * arg) / k for k in range(1, terms + 1))
        reference = amplitude * (2.0 / np.pi) * series
        error = np.abs(motorflux.model._profile(pot, s) - reference).max()
        assert error <= 1e-14 * terms * abs(amplitude)

    def test_out_of_domain_rejected(self):
        g = Grid.interval(0.0, 1.0, 4)
        with pytest.raises(OutOfDomainError):
            eval_potential(ZERO, 1.5, g)
        g2 = Grid.box((0.0, 0.0), (1.0, 1.0), (4, 4))
        with pytest.raises(OutOfDomainError):
            eval_potential(ZERO, np.array([0.5, -0.1]), g2)

    def test_2d_follows_axis(self):
        g = Grid.box((0.0, 0.0), (1.0, 1.0), (4, 4))
        pot = PotentialSpec("linear", slope=1.0, axis=1)
        assert eval_potential(pot, np.array([0.2, 0.7]), g) == pytest.approx(0.7)

    def test_unknown_kind_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            PotentialSpec("quadratic")

    @pytest.mark.parametrize("xs", [(0.0, 1.0, 0.5), (1.0, 0.0), (0.0, 0.0, 1.0),
                                    (0.0, math.nan, 1.0)])
    def test_tabulated_xs_must_increase_strictly(self, xs):
        # np.interp reads unsorted abscissae without a word: (0, 1, 0.5) with
        # values (0, 1, 5) jumps to 5 over the right half, (1, 0) is constant
        with pytest.raises(UnsupportedConfigurationError, match="strictly increasing xs"):
            PotentialSpec("tabulated", table_x=xs, table_v=(0.0, 1.0, 5.0)[:len(xs)])

    def test_sawtooth_terms_are_capped(self):
        # only constructed, never evaluated: a billion terms would loop for about an
        # hour, and no term at all made a constant profile without a word
        assert PotentialSpec("sawtooth_smoothed", terms=1024).terms == 1024
        for terms in (1025, 10 ** 9, 0):
            with pytest.raises(UnsupportedConfigurationError,
                               match=f"1 <= terms <= 1024, got {terms}"):
                PotentialSpec("sawtooth_smoothed", terms=terms)
        # range() takes no float, and True is no count of terms
        for terms in (2.5, 2.0, True, np.int64(2)):
            with pytest.raises(UnsupportedConfigurationError,
                               match=re.escape(f"needs an integer terms, got {terms!r}")):
                PotentialSpec("sawtooth_smoothed", terms=terms)


class TestReactions:
    def test_linear_is_identity(self):
        assert eval_reaction(ReactionSpec("linear"), 3.5) == 3.5

    def test_power_vanishes_at_zero(self):
        assert eval_reaction(ReactionSpec("power", exponent=2.0), 0.0) == 0.0

    def test_square(self):
        assert eval_reaction(ReactionSpec("power", exponent=2.0), 3.0) == 9.0

    def test_negative_argument_rejected(self):
        with pytest.raises(OutOfDomainError):
            eval_reaction(ReactionSpec("linear"), -0.1)

    def test_inverse_roundtrip(self):
        r = ReactionSpec("power", exponent=3.0)
        assert reaction_inverse(r, eval_reaction(r, 1.7)) == pytest.approx(1.7)

    def test_lipschitz_bounds(self):
        assert reaction_lipschitz(ReactionSpec("linear"), 5.0) == 1.0
        assert reaction_lipschitz(ReactionSpec("power", exponent=2.0), 3.0) == 6.0
        assert reaction_lipschitz(ReactionSpec("power", exponent=2.0), 0.0) == 0.0

    @given(
        exponent=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
        s1=st.floats(min_value=0.0, max_value=50.0),
        s2=st.floats(min_value=0.0, max_value=50.0),
    )
    def test_monotone_nondecreasing(self, exponent, s1, s2):
        r = ReactionSpec("power", exponent=exponent)
        lo, hi = min(s1, s2), max(s1, s2)
        assert eval_reaction(r, lo) <= eval_reaction(r, hi)


def _ulps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distance in units in the last place between nonnegative doubles."""
    return np.abs(a.view(np.int64) - b.view(np.int64))


class TestEvalPower:
    """Integer exponents up to 3 are products; the result stays that of libm pow."""

    @staticmethod
    def samples(rng) -> np.ndarray:
        tiny = np.finfo(float).tiny
        edges = [0.0, 5e-324, 1e-310, tiny, 1e-110, 1e-100, 1.0, 2.0, 1e100, 5.6e102]
        return np.concatenate([
            edges,
            rng.random(20000) * 10.0,
            np.exp(rng.uniform(-230.0, 230.0, 20000)),  # cubes stay finite
            tiny * rng.random(1000),  # subnormals
        ])

    @pytest.mark.parametrize("exponent", [1.0, 2.0, 3.0, 1.5, 2.5])
    def test_within_2_ulp_of_np_power(self, rng, exponent):
        x = self.samples(rng)
        out, scratch = np.empty_like(x), np.empty_like(x)
        got = eval_power(x, exponent, out, scratch)
        assert got is out
        with np.errstate(under="ignore"):
            reference = np.power(x, exponent)
        assert _ulps(got, reference).max() <= 2
        assert got[0] == 0.0

    def test_in_place_and_overflow(self, rng):
        x = np.concatenate([self.samples(rng), [1e103, 1e200, np.inf]])
        with np.errstate(over="ignore", under="ignore"):
            reference = np.power(x, 3.0)
            y = x.copy()
            eval_power(y, 3.0, y, np.empty_like(y))  # out may be x itself
        assert _ulps(y, reference).max() <= 2
        assert np.all(np.isinf(y[-3:]))

    @pytest.mark.parametrize("exponent", [2.0, 3.0])
    def test_monotone(self, exponent):
        # consecutive doubles, where a rounding could step backwards
        x = np.concatenate([1.0 + np.arange(5000) * np.finfo(float).eps,
                            np.nextafter(0.7, 1.0) + np.arange(5000) * 1e-16,
                            np.linspace(0.0, 100.0, 5000)])
        x.sort()
        out = np.empty_like(x)
        assert np.all(np.diff(eval_power(x, exponent, out, out)) >= 0.0)

    def test_shared_with_eval_reaction_and_the_stepper(self, rng, monkeypatch):
        assert motorflux.evolve.eval_power is eval_power
        calls = []

        def spy(x, exponent, out, scratch):
            calls.append(exponent)
            return eval_power(x, exponent, out, scratch)

        monkeypatch.setattr(motorflux.model, "eval_power", spy)
        x = self.samples(rng)
        got = eval_reaction(ReactionSpec("power", exponent=3.0), x)
        assert calls == [3.0]
        assert got.tobytes() == eval_power(x, 3.0, np.empty_like(x), np.empty_like(x)).tobytes()
        assert eval_reaction(ReactionSpec("power", exponent=3.0), 1.5) == 1.5 * 1.5 * 1.5


class TestValidate:
    def test_admissible_spec_passes(self):
        report = validate(symmetric_motor(16))
        assert report.ok
        assert report.violations == ()
        assert report.warnings == ()

    def test_column_sum_violation_names_h2(self):
        spec = symmetric_motor(16)
        bad = ProblemSpec(grid=spec.grid, species=spec.species,
                          coupling=CouplingMatrix([[-1.0, 0.0], [1.0, -1.0]]),
                          initial=spec.initial)
        report = validate(bad)
        assert not report.ok
        assert any("H2" in v and "column 2" in v for v in report.violations)
        # a plain float repr, not numpy 2's np.float64(...)
        assert "H2: column 2 sums to -1.0 (must be 0)" in report.violations

    @pytest.mark.parametrize("k", [-900, -40, 0, 40, 900])
    def test_column_sums_are_judged_at_their_own_scale(self, k):
        # each column is (-3333.3, 1111.1, 2222.2) in some order: it sums to -4.5e-13
        # in doubles, above 1e-14 but 7e-17 of the column's sum of |entries|; the
        # coupling times 2^k gets the verdict of the coupling, and so does a bad one
        spec = symmetric_motor(16)
        rows = np.ldexp([[-3333.3, 2222.2, 1111.1],
                         [1111.1, -3333.3, 2222.2],
                         [2222.2, 1111.1, -3333.3]], k)
        three = ProblemSpec(grid=spec.grid, species=spec.species[:1] * 3,
                            coupling=CouplingMatrix(rows), initial=spec.initial[:1] * 3)
        assert validate(three).ok
        bad = replace(spec, coupling=CouplingMatrix(np.ldexp([[-1.0, 0.0], [1.0, -1.0]], k)))
        assert validate(bad).violations == (f"H2: column 2 sums to {-2.0 ** k!r} (must be 0)",)

    def test_low_power_violation(self):
        spec = symmetric_motor(16)
        species = (SpeciesSpec(1.0, 1.0, ZERO, ReactionSpec("power", exponent=0.5)),
                   spec.species[1])
        report = validate(ProblemSpec(grid=spec.grid, species=species,
                                      coupling=spec.coupling, initial=spec.initial))
        assert any("H3" in v and "not admissible" in v for v in report.violations)

    @pytest.mark.parametrize("exponent", [math.nan, math.inf])
    def test_non_finite_power_violation(self, exponent):
        spec = symmetric_motor(16)
        species = (SpeciesSpec(1.0, 1.0, ZERO, ReactionSpec("power", exponent=exponent)),
                   spec.species[1])
        report = validate(ProblemSpec(grid=spec.grid, species=species,
                                      coupling=spec.coupling, initial=spec.initial))
        assert (f"H3: species 1 reaction not admissible (p={exponent}, must be finite and >= 1)"
                in report.violations)

    def test_negative_sigma_and_alpha(self):
        spec = symmetric_motor(16)
        species = (SpeciesSpec(-1.0, 0.0, ZERO), spec.species[1])
        report = validate(ProblemSpec(grid=spec.grid, species=species,
                                      coupling=spec.coupling, initial=spec.initial))
        assert sum(v.startswith("H1") for v in report.violations) == 2

    def test_metzler_violation(self):
        spec = symmetric_motor(16)
        report = validate(ProblemSpec(
            grid=spec.grid, species=spec.species,
            coupling=CouplingMatrix([[1.0, -1.0], [-1.0, 1.0]]),
            initial=spec.initial))
        assert any("H2" in v and "diagonal" in v for v in report.violations)
        assert any("H2" in v and "off-diagonal" in v for v in report.violations)

    def test_negative_initial_data(self):
        spec = symmetric_motor(16)
        bad_init = (PotentialSpec("linear", slope=1.0, offset=-0.25), spec.initial[1])
        report = validate(ProblemSpec(grid=spec.grid, species=spec.species,
                                      coupling=spec.coupling, initial=bad_init))
        assert any("H4" in v and "negative" in v for v in report.violations)
        assert "H4: species 1 initial data negative (min -0.21875)" in report.violations

    def test_idempotent(self):
        spec = symmetric_motor(16)
        assert validate(spec) == validate(spec)

    def test_report_is_kept_per_instance(self, monkeypatch):
        checked = []
        check = motorflux.model._check
        monkeypatch.setattr(motorflux.model, "_check",
                            lambda spec: checked.append(spec) or check(spec))
        spec = symmetric_motor(16)
        assert validate(spec) is validate(spec)
        assert checked == [spec]
        # a replaced copy is a new problem and is checked anew
        bad = replace(spec, coupling=CouplingMatrix([[-1.0, 0.0], [1.0, -1.0]]))
        assert any("column 2" in v for v in validate(bad).violations)
        assert validate(spec).ok
        assert len(checked) == 2

    @pytest.mark.parametrize("cells,ok", [
        ((MAX_UNKNOWNS // 2,), True),
        ((MAX_UNKNOWNS // 2 + 1,), False),
        ((10**6, 10**7), False),  # 1e13 cells: np.prod of the cells wraps in int64
    ])
    def test_unknowns_cap(self, cells, ok):
        spec = symmetric_motor(16)  # two species
        grid = Grid((0.0,) * len(cells), (1.0,) * len(cells), cells)
        report = validate(ProblemSpec(grid=grid, species=spec.species,
                                      coupling=spec.coupling, initial=spec.initial))
        assert report.ok == ok
        if not ok:
            assert report.violations == (
                f"grid: 2 species x {math.prod(cells)} cells = {2 * math.prod(cells)} "
                f"unknowns exceed the cap of {MAX_UNKNOWNS}",
            )

    @pytest.mark.parametrize("n, cells, ok", [
        (2, (128, 128), True),  # the largest 2-D problem of the other tests
        (1, (1024, 1024), True), (2, (512, 512), True), (4, (256, 256), True),
        (8, (128, 128), True),  # each at the cap
        (1, (2048, 2048), False), (2, (1024, 512), False), (5, (256, 256), False),
    ])
    def test_2d_cap(self, profile_calls, n, cells, ok):
        cycle = np.eye(n, k=-1) + np.eye(n, k=n - 1) - np.eye(n)  # [[0.0]] for one species
        spec = ProblemSpec(grid=Grid((0.0, 0.0), (1.0, 1.0), cells),
                           species=(SpeciesSpec(1.0, 1.0, ZERO),) * n,
                           coupling=CouplingMatrix(cycle),
                           initial=(PotentialSpec("cosine", amplitude=0.4, offset=1.0),) * n)
        report = validate(spec)
        assert report.ok == ok
        if not ok:  # rejected before any profile is sampled on the grid
            assert report.violations == (
                f"grid: 2-D, {n} species x {math.prod(cells)} cells: species x unknowns = "
                f"{n * n * math.prod(cells)} exceed the 2-D cap of {MAX_2D_BLOCK_ENTRIES}",
            )
            assert not profile_calls

    def test_disconnected_coupling_warns(self):
        spec = symmetric_motor(16)
        report = validate(ProblemSpec(
            grid=spec.grid, species=spec.species,
            coupling=CouplingMatrix([[-1.0, 0.0], [1.0, 0.0]]),
            initial=spec.initial))
        assert report.ok
        assert any("strongly connected" in w for w in report.warnings)

    def test_column_sums_recomputed_below_tolerance(self, rng):
        from conftest import random_coupling
        for n in (2, 3, 5):
            c = random_coupling(rng, n)
            assert np.abs(c.column_sums()).max() <= 1e-14


class TestCouplingMatrix:
    def test_pickled_spec_equals_and_hashes_like_the_original(self):
        spec = symmetric_motor(8)
        copy = pickle.loads(pickle.dumps(spec))
        assert copy == spec
        assert hash(copy) == hash(spec)

    def test_signed_zeros_compare_and_hash_equal(self):
        plus = CouplingMatrix([[0.0, 0.0], [0.0, 0.0]])
        minus = CouplingMatrix([[-0.0, 0.0], [0.0, -0.0]])
        assert plus == minus
        assert hash(plus) == hash(minus)

    def test_shape_and_entries_decide(self):
        lam = [[-1.0, 1.0], [1.0, -1.0]]
        assert CouplingMatrix(lam) == CouplingMatrix(np.array(lam))
        assert CouplingMatrix(lam) != CouplingMatrix([[-1.0, 2.0], [1.0, -2.0]])
        assert CouplingMatrix([[0.0]]) != CouplingMatrix(np.zeros((2, 2)))
        assert CouplingMatrix([[np.nan]]) != CouplingMatrix([[np.nan]])
        assert CouplingMatrix(lam) != lam


class TestState:
    def test_shape_checked(self):
        g = Grid.interval(0.0, 1.0, 8)
        with pytest.raises(ValueError):
            State(g, np.zeros((2, 5)))

    def test_fields_read_only(self):
        g = Grid.interval(0.0, 1.0, 8)
        s = State(g, np.ones((1, 8)))
        with pytest.raises(ValueError):
            s.fields[0, 0] = 2.0

    def test_nonfinite_fields_rejected(self):
        g = Grid.interval(0.0, 1.0, 8)
        bad = np.ones((1, 8))
        bad[0, 3] = np.nan
        with pytest.raises(ValueError):
            State(g, bad)

    def test_initial_state_samples_centers(self):
        spec = symmetric_motor(16)
        s = initial_state(spec)
        assert s.t == 0.0
        assert s.gauge == "physical"
        xs = spec.grid.centers()
        expected = 0.4 * np.cos(2 * np.pi * xs) + 1.0
        assert np.allclose(s.fields[0], expected, rtol=0, atol=1e-15)
