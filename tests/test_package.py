import contextlib
import importlib
import io
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from motorflux import (
    CouplingMatrix,
    Grid,
    PotentialSpec,
    ProblemSpec,
    ReactionSpec,
    SpeciesSpec,
    State,
    StepConfig,
    Trajectory,
    assemble_system,
    assemble_transport,
    conjugate_to_neumann,
    eval_potential,
    gauge_transform,
    initial_state,
    oracle_expm,
    reaction_lipschitz,
    run,
    run_batch,
)
import motorflux.errors
from motorflux.errors import (
    ConfigError,
    InvariantViolationError,
    MotorfluxError,
    OutOfDomainError,
    SolverError,
    UnsupportedConfigurationError,
)

#: every concrete error type of the package
ERROR_TYPES = [c for c in vars(motorflux.errors).values()
               if isinstance(c, type) and issubclass(c, MotorfluxError) and c is not MotorfluxError]


@pytest.mark.parametrize("name", ["motorflux", "motorflux.discretize", "motorflux.evolve",
                                  "motorflux.model", "motorflux.steady", "motorflux.verify"])
def test_every_exported_name_exists_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []


@pytest.mark.parametrize("cls", ERROR_TYPES, ids=lambda c: c.__name__)
def test_each_exit_code_has_one_base_class(cls):
    # a library caller's `except ConfigError` sees every error that the command
    # line reports with exit 2, and `except SolverError` every one with exit 4
    base = {2: ConfigError, 3: InvariantViolationError, 4: SolverError}[cls.exit_code]
    assert issubclass(cls, base)
    declared = "exit_code" in vars(cls) or "label" in vars(cls)
    assert declared == (cls is base)


def test_readme_library_example_runs():
    # the README's one python block: a long run lands on solve_stationary's target
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    source = readme.split("## Library example\n")[1].split("```python\n")[1].split("```")[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(source, "README.md", "exec"), {})
    assert float(out.getvalue()) <= 1e-10


def test_readme_constants_match_the_modules():
    # every `motorflux.<module>.<NAME> = <value>` that README quotes is the
    # module's value: the fixed gates and bounds are documented nowhere else
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    quoted = re.findall(r"`[^`]*?motorflux\.(\w+)\.([A-Z][A-Z0-9_]*) = ([^`]+)`", readme)
    names = {name for _, name, _ in quoted}
    assert {"LIN_TOL", "STATIONARY_TOL", "CONVERGENCE_THRESHOLD", "ORACLE_T",
            "COMPARISON_TOL"} <= names, names
    for module, name, value in quoted:
        assert getattr(importlib.import_module(f"motorflux.{module}"), name) == float(value), \
            (module, name, value)


def test_readme_cli_synopsis_matches_the_parser():
    # one synopsis line per command, in the parser's order, each naming every
    # flag of the one parser, in brackets exactly when the flag is optional
    from motorflux.cli import _build_parser
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n")[1].split("```sh\n")[1].split("```")[0]
    parser = _build_parser()
    commands = next(a.choices for a in parser._actions if a.dest == "command")
    flags = [(a.option_strings[-1], a.required) for a in parser._actions
             if a.option_strings and a.dest != "help"]
    lines = [line.split(maxsplit=2) for line in block.splitlines()]
    assert [words[:2] for words in lines] == [["motorflux", name] for name in commands]
    for _, name, usage in lines:
        named = re.findall(r"(\[?)(--[\w-]+)", usage)
        assert [(flag, not bracket) for bracket, flag in named] == flags, name


GRID = Grid.interval(0.0, 1.0, 8)
ZERO = PotentialSpec("zero")
#: two zero-potential species with unit exchange on GRID
MOTOR = ProblemSpec(grid=GRID, species=(SpeciesSpec(1.0, 1.0, ZERO),) * 2,
                    coupling=CouplingMatrix([[-1.0, 1.0], [1.0, -1.0]]),
                    initial=(PotentialSpec("linear", offset=1.0),) * 2)
STEP = StepConfig(dt=0.1, t_end=0.1)


@pytest.mark.parametrize("call, error, message", [
    pytest.param(lambda: assemble_transport(GRID, 0.0, ZERO),
                 ValueError, "sigma must be positive, got 0.0", id="transport-sigma"),
    pytest.param(lambda: conjugate_to_neumann(MOTOR, MOTOR),
                 TypeError, "cannot conjugate object of type ProblemSpec",
                 id="conjugate-non-operator"),
    pytest.param(lambda: conjugate_to_neumann(
                     conjugate_to_neumann(assemble_system(MOTOR), MOTOR), MOTOR),
                 ValueError, "operator is already in the Neumann gauge", id="conjugate-neumann"),
    pytest.param(lambda: gauge_transform(initial_state(MOTOR), MOTOR, "sideways"),
                 ValueError, "unknown direction 'sideways'", id="gauge-direction"),
    pytest.param(lambda: oracle_expm(assemble_system(MOTOR), -1.0, initial_state(MOTOR)),
                 ValueError, "oracle_expm needs t >= 0", id="oracle-negative-t"),
    pytest.param(lambda: Grid((0.0,) * 3, (1.0,) * 3, (2,) * 3),
                 ValueError, "only 1-D intervals and 2-D rectangles are supported",
                 id="grid-3-axes"),
    pytest.param(lambda: ReactionSpec("exponential"),
                 UnsupportedConfigurationError, "unknown reaction kind 'exponential'",
                 id="reaction-kind"),
    pytest.param(lambda: CouplingMatrix([[-1.0, 1.0]]),
                 ValueError, "coupling matrix must be square", id="coupling-not-square"),
    pytest.param(lambda: State(GRID, np.ones((2, 8)), gauge="log"),
                 ValueError, "unknown gauge 'log'", id="state-gauge"),
    pytest.param(lambda: eval_potential(ZERO, np.zeros((3, 3)),
                                        Grid((0.0, 0.0), (1.0, 1.0), (4, 4))),
                 ValueError, "2-D evaluation needs coordinates with last dimension 2",
                 id="potential-2d-points"),
    pytest.param(lambda: reaction_lipschitz(ReactionSpec("linear"), -1.0),
                 OutOfDomainError, "s_max must be nonnegative", id="lipschitz-negative"),
    pytest.param(lambda: run(replace(MOTOR, coupling=CouplingMatrix(-np.eye(3))), STEP),
                 ConfigError, "H2: coupling matrix is 3x3, expected 2x2", id="coupling-size"),
    pytest.param(lambda: run(replace(MOTOR, initial=MOTOR.initial[:1]), STEP),
                 ConfigError, "H4: 1 initial profiles for 2 species", id="initial-count"),
    pytest.param(lambda: Trajectory((initial_state(MOTOR),) * 2),
                 ValueError, "snapshot times must be strictly increasing", id="trajectory-times"),
    pytest.param(lambda: list(run_batch(MOTOR, STEP, (State(GRID, np.ones((1, 8))),))),
                 ValueError, "initial state does not match the problem layout",
                 id="batch-layout"),
])
def test_library_input_checks_raise(call, error, message):
    """Input checks of the library that no config reaches raise their own
    exception type and message."""
    with pytest.raises(error) as exc_info:
        call()
    assert message in str(exc_info.value)
