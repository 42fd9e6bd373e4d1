"""Shared fixture builders for the test suite."""

import importlib.util
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import motorflux.model

from motorflux import (
    CouplingMatrix,
    Grid,
    PotentialSpec,
    ProblemSpec,
    ReactionSpec,
    SpeciesSpec,
    State,
    StepConfig,
    run_batch,
)

ZERO = PotentialSpec("zero")


def one_step(spec, state, dt, **kwargs) -> State:
    """One step of ``state`` by the one stepping loop: `run_batch` to t_end = dt."""
    *_, (out,) = run_batch(spec, StepConfig(dt=dt, t_end=dt, **kwargs), (state,))
    return out


def random_potential(rng) -> PotentialSpec:
    kind = ["zero", "linear", "cosine", "sawtooth_smoothed"][int(rng.integers(4))]
    if kind == "zero":
        return ZERO
    if kind == "linear":
        return PotentialSpec("linear", slope=float(rng.uniform(-1.0, 1.0)))
    if kind == "cosine":
        return PotentialSpec("cosine", amplitude=float(rng.uniform(0.2, 0.8)),
                             period=float(rng.choice([0.5, 1.0])),
                             phase=float(rng.uniform(0.0, 1.0)))
    return PotentialSpec("sawtooth_smoothed", amplitude=float(rng.uniform(0.2, 0.6)),
                         period=1.0, phase=float(rng.uniform(0.0, 1.0)))


def random_initial(rng) -> PotentialSpec:
    offset = float(rng.uniform(0.6, 1.4))
    return PotentialSpec("cosine",
                         amplitude=float(rng.uniform(0.0, 0.5 * offset)),
                         period=float(rng.choice([0.5, 1.0])),
                         offset=offset,
                         phase=float(rng.uniform(0.0, 1.0)))


def random_coupling(rng, n: int) -> CouplingMatrix:
    lam = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            if i != j:
                lam[i, j] = rng.uniform(0.3, 1.2)
        lam[j, j] = -lam[:, j].sum()  # columns sum to zero exactly in floats
    return CouplingMatrix(lam)


def random_problem(rng, n: int = 2, cells: int = 64, linear: bool = True,
                   dim: int = 1) -> ProblemSpec:
    """Admissible random problem with mixed potentials and positive initial data."""
    if dim == 1:
        grid = Grid.interval(0.0, 1.0, cells)
    else:
        grid = Grid.box((0.0, 0.0), (1.0, 1.0), (cells, cells))
    species = []
    for i in range(n):
        if linear or i % 2 == 1:
            reaction = ReactionSpec("linear")
        else:
            reaction = ReactionSpec("power", exponent=float(rng.choice([2.0, 3.0])))
        species.append(SpeciesSpec(
            sigma=float(rng.uniform(0.5, 1.5)),
            alpha=float(rng.uniform(0.5, 2.0)),
            potential=random_potential(rng),
            reaction=reaction,
        ))
    return ProblemSpec(
        grid=grid,
        species=tuple(species),
        coupling=random_coupling(rng, n),
        initial=tuple(random_initial(rng) for _ in range(n)),
    )


def symmetric_motor(cells: int = 64) -> ProblemSpec:
    """Two identical zero-potential species with unit exchange coupling."""
    grid = Grid.interval(0.0, 1.0, cells)
    sp = SpeciesSpec(1.0, 1.0, ZERO)
    return ProblemSpec(
        grid=grid,
        species=(sp, sp),
        coupling=CouplingMatrix([[-1.0, 1.0], [1.0, -1.0]]),
        initial=(PotentialSpec("cosine", amplitude=0.4, offset=1.0),
                 PotentialSpec("cosine", amplitude=0.3, offset=1.0, period=0.5)),
    )


def sawtooth_motor(cells: int = 64) -> ProblemSpec:
    """Two-species transport with distinct smoothed-sawtooth potentials."""
    grid = Grid.interval(0.0, 1.0, cells)
    return ProblemSpec(
        grid=grid,
        species=(
            SpeciesSpec(1.0, 1.0, PotentialSpec("sawtooth_smoothed", amplitude=0.5)),
            SpeciesSpec(0.8, 1.0, PotentialSpec("sawtooth_smoothed", amplitude=0.5,
                                                phase=0.3)),
        ),
        coupling=CouplingMatrix([[-1.0, 1.0], [1.0, -1.0]]),
        initial=(PotentialSpec("cosine", amplitude=0.4, offset=1.0),
                 PotentialSpec("cosine", amplitude=0.3, offset=0.8, period=0.5)),
    )


def reversible_problem(cells: int = 32, p: float = 2.0, mass_each: float = 1.0) -> ProblemSpec:
    """Two-species reversible reaction u^p <-> v with zero potentials."""
    grid = Grid.interval(0.0, 1.0, cells)
    return ProblemSpec(
        grid=grid,
        species=(
            SpeciesSpec(1.0, 1.0, ZERO, ReactionSpec("power", exponent=p)),
            SpeciesSpec(1.0, 1.0, ZERO, ReactionSpec("linear")),
        ),
        coupling=CouplingMatrix([[-1.0, 1.0], [1.0, -1.0]]),
        initial=(PotentialSpec("cosine", amplitude=0.5 * mass_each, offset=mass_each),
                 PotentialSpec("cosine", amplitude=0.3 * mass_each, offset=mass_each,
                               period=0.5)),
    )


def imex3_problem(cells: int = 64, dim: int = 1) -> ProblemSpec:
    """Three species with powers 2, 1 and 3 under a full 3x3 coupling, as the
    CLI's IMEX3_CONFIG; on a cells x cells square for dim = 2."""
    grid = (Grid.interval(0.0, 1.0, cells) if dim == 1
            else Grid.box((0.0, 0.0), (1.0, 1.0), (cells, cells)))
    return ProblemSpec(
        grid=grid,
        species=(SpeciesSpec(1.0, 1.0, ZERO, ReactionSpec("power", exponent=2.0)),
                 SpeciesSpec(0.8, 1.0, ZERO),
                 SpeciesSpec(0.6, 1.0, ZERO, ReactionSpec("power", exponent=3.0))),
        coupling=CouplingMatrix([[-1.0, 0.5, 0.25], [0.5, -1.0, 0.75], [0.5, 0.5, -1.0]]),
        initial=(PotentialSpec("cosine", amplitude=0.3, offset=1.0),
                 PotentialSpec("cosine", amplitude=0.2, offset=1.0, phase=0.3),
                 PotentialSpec("cosine", amplitude=0.4, offset=1.0, phase=0.6)),
    )


def smooth_state(spec: ProblemSpec, rng, floor: float = 0.1) -> State:
    """Random positive smooth state on the grid of ``spec``."""
    pts = spec.grid.centers()
    coord = pts if spec.grid.dim == 1 else pts[:, 0]
    rows = []
    for _ in range(spec.n_species):
        vals = np.full_like(coord, float(rng.uniform(floor + 0.2, 1.5)))
        for k in range(1, 4):
            vals += rng.uniform(-0.1, 0.1) * np.cos(2.0 * np.pi * k * coord
                                                    + rng.uniform(0.0, np.pi))
        rows.append(np.maximum(vals, floor))
    return State(spec.grid, np.stack(rows), t=0.0, gauge="physical")


def changes_sign(diff: np.ndarray) -> tuple[bool, ...]:
    """Per species: does the difference of two states take both signs beyond 1e-8?"""
    return tuple(bool(row.min() < -1e-8 and row.max() > 1e-8) for row in diff)


@pytest.fixture
def rng():
    return np.random.default_rng(20250811)


@pytest.fixture
def profile_calls(monkeypatch):
    """Count the calls of `motorflux.model._profile`, keyed by (profile kind, point count)."""
    calls = Counter()
    profile = motorflux.model._profile

    def counted(pot, s):
        calls[pot.kind, s.size] += 1
        return profile(pot, s)

    monkeypatch.setattr(motorflux.model, "_profile", counted)
    return calls


@pytest.fixture
def perfbench_workloads(monkeypatch):
    """The module ``perfbench/workloads.py``, read without writing bytecode under perfbench/."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(module_spec)
    monkeypatch.setitem(sys.modules, module_spec.name, workloads)  # for its dataclasses
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    module_spec.loader.exec_module(workloads)
    return workloads
