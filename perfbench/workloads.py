"""Workload definitions: seeded INI configs and the command sequence of one round.

Every config is generated from the workload seed; the program sees only the
generated files.  The seed varies the initial-data amplitudes and phases
(within the admissible range: amplitude < offset keeps the data positive) and
the ``--seed`` handed to the ``verify-*`` commands.  Grids, potentials,
couplings and time steps are fixed per workload, so a seed never turns a
failing command into a passing one or the other way round.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path

#: fixed drift potentials per species index (sawtooth ratchets with distinct phases)
_POTENTIAL_PHASES = (0.0, 0.3, 0.6)
_SIGMAS = (1.0, 0.8, 0.6)

#: Metzler 2x2 and 3x3 couplings with zero column sums
COUPLING_2 = ((-1.0, 1.0), (1.0, -1.0))
COUPLING_3 = ((-1.0, 0.5, 0.25), (0.5, -1.0, 0.75), (0.5, 0.5, -1.0))


@dataclass(frozen=True)
class Problem:
    """One generated config: grid, reactions per species, time stepping."""

    name: str
    cells: tuple[int, ...]
    reactions: tuple[float, ...]        # 1.0 = linear, p > 1 = power law
    coupling: tuple[tuple[float, ...], ...]
    dt: float
    t_end: float
    stride: int
    amplitudes: tuple[float, ...]
    phases: tuple[float, ...]

    @property
    def species(self) -> int:
        return len(self.reactions)

    @property
    def unknowns(self) -> int:
        return self.species * math.prod(self.cells)

    @property
    def steps(self) -> int:
        """Time steps of one trajectory (full steps plus a remainder step)."""
        return math.ceil(self.t_end / self.dt - 1e-9)

    def ini(self) -> str:
        dim = len(self.cells)
        lines = [
            "[domain]",
            "lo = " + ", ".join(["0.0"] * dim),
            "hi = " + ", ".join(["1.0"] * dim),
            "cells = " + ", ".join(str(c) for c in self.cells),
            "",
        ]
        for i, p in enumerate(self.reactions):
            lines += [
                f"[species.{i + 1}]",
                f"sigma = {_SIGMAS[i]!r}",
                "alpha = 1.0",
                "potential.kind = sawtooth_smoothed",
                f"potential.params = amplitude=0.5, period=1.0, phase={_POTENTIAL_PHASES[i]!r}",
            ]
            if p != 1.0:
                lines += ["reaction.kind = power", f"reaction.params = exponent={p!r}"]
            lines += [
                "initial.kind = cosine",
                f"initial.params = amplitude={self.amplitudes[i]!r}, offset=1.0, "
                f"period=1.0, phase={self.phases[i]!r}",
                "",
            ]
        lines.append("[coupling]")
        for i, row in enumerate(self.coupling):
            lines.append(f"row.{i + 1} = " + ", ".join(repr(v) for v in row))
        lines += [
            "",
            "[time]",
            f"dt = {self.dt!r}",
            f"t_end = {self.t_end!r}",
            f"stride = {self.stride}",
            "",
        ]
        return "\n".join(lines)


@dataclass(frozen=True)
class Command:
    """One CLI invocation of a round."""

    verb: str                  # simulate | steady | verify-* | oracle-compare
    problem: Problem
    seed: int | None = None    # --seed for the verify-* commands

    @property
    def label(self) -> str:
        return f"{self.verb}:{self.problem.name}"

    @property
    def trajectories(self) -> int:
        """Trajectories the command advances (0 for the stationary solver)."""
        return {"simulate": 1, "steady": 0, "verify-contraction": 2,
                "verify-comparison": 2, "verify-convergence": 1}.get(self.verb, 0)

    @property
    def cell_steps(self) -> int:
        """Species x cells x time steps the command advances."""
        p = self.problem
        if self.verb == "oracle-compare":
            # the oracle check steps to t=1 with dt = 0.1, 0.05 and 0.025
            return p.unknowns * (10 + 20 + 40)
        return self.trajectories * p.unknowns * p.steps


@dataclass(frozen=True)
class Workload:
    """A named command sequence; why each exists is in README.md."""

    name: str
    commands: tuple[Command, ...]

    @property
    def problems(self) -> tuple[Problem, ...]:
        seen: dict[str, Problem] = {}
        for c in self.commands:
            seen.setdefault(c.problem.name, c.problem)
        return tuple(seen.values())

    @property
    def cell_steps(self) -> int:
        return sum(c.cell_steps for c in self.commands)


def _problem(rng: random.Random, name, cells, reactions, coupling, dt, t_end, stride):
    n = len(reactions)
    return Problem(
        name=name, cells=tuple(cells), reactions=tuple(reactions),
        coupling=coupling, dt=dt, t_end=t_end, stride=stride,
        amplitudes=tuple(round(rng.uniform(0.1, 0.6), 6) for _ in range(n)),
        phases=tuple(round(rng.uniform(0.0, 1.0), 6) for _ in range(n)),
    )


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload ``name`` for ``seed``; ``tiny`` shrinks grids for smoke tests."""
    rng = random.Random(f"{name}:{seed}")

    def n(cells):
        return cells if not tiny else max(8, cells // 256)

    if name == "snap1d":
        p = _problem(rng, "snap", [n(65536)], [1.0, 1.0], COUPLING_2, 1e-3, 0.04, 8)
        return Workload(name, (Command("simulate", p),))
    if name == "imex1d":
        p = _problem(rng, "imex", [n(16384)], [2.0, 1.0, 3.0], COUPLING_3, 2e-3, 1.0, 250)
        vseed = rng.randrange(2**31)
        return Workload(name, (Command("simulate", p),
                               Command("verify-contraction", p, vseed),
                               Command("verify-comparison", p, vseed)))
    if name == "stationary1d":
        small = _problem(rng, "stat512", [n(512)], [1.0, 1.0], COUPLING_2, 0.05, 50.0, 100)
        large = _problem(rng, "stat4096", [n(4096)], [1.0, 1.0], COUPLING_2, 0.05, 50.0, 100)
        oracle = _problem(rng, "oracle128", [n(128)], [1.0, 1.0], COUPLING_2, 0.05, 1.0, 20)
        vseed = rng.randrange(2**31)
        return Workload(name, (Command("steady", small),
                               Command("verify-convergence", small, vseed),
                               Command("steady", large),
                               Command("oracle-compare", oracle)))
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("snap1d", "imex1d", "stationary1d")


def write_configs(workload: Workload, directory: Path) -> dict[str, Path]:
    """Write one INI file per problem; returns problem name -> path."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for p in workload.problems:
        path = directory / f"{p.name}.ini"
        path.write_text(p.ini(), encoding="ascii")
        paths[p.name] = path
    return paths
