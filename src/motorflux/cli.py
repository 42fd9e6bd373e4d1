"""Command-line front end: config ingestion, experiment orchestration, output.

Config files are INI-style with strict keys: any unknown key or section is a
hard error.  ``_KEYS`` lists every key with its section, type, default and
echo format.  `parse_config` and `format_effective_config` both walk it, so
the effective config that every command prints parses back to the same run.

All emitted files are byte-deterministic: floats are written with their
shortest round-trip decimal representation, exactly as Python's ``repr``
writes them, and JSON keys are sorted.  The snapshot CSVs get that text from
orjson's C float writer, one call per chunk of rows (``_csv_rows``).

Exit codes: 0 pass, 2 config error, 3 invariant failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from . import verify
from .discretize import assemble_system
from .errors import ConfigError, MotorfluxError, UnsupportedConfigurationError
# `run` here is the stepping generator, the name that perfbench/spans.py
# traces; `motorflux.run` is the library call that collects it into a Trajectory
from .evolve import StepConfig, _step_count, run_batch as run
from .model import (
    CouplingMatrix,
    Grid,
    PotentialSpec,
    ProblemSpec,
    ReactionSpec,
    SpeciesSpec,
    State,
    initial_state,
    validate,
)
from .steady import solve_null_vector, solve_stationary

EXIT_OK = 0
EXIT_INVARIANT = 3

#: mass column of the simulate manifest must be constant to this relative drift
MASS_DRIFT_TOL = 1e-11

#: most values `simulate` may write, snapshots times unknowns (species times
#: cells): 2**28 values are 5 to 10 GB of CSV.  A larger run is a config error
#: before the output directory is made, as a step count above MAX_STEPS is
MAX_OUTPUT_VALUES = 2**28


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration."""

    problem: ProblemSpec
    step: StepConfig
    out_dir: str
    initial2: tuple[PotentialSpec, ...] | None
    seed: int = 0
    #: `validate` warnings on the problem; every command prints them to stderr
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# value types: how a value is read from its config text and written back


def _as_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as err:
        raise ConfigError(f"cannot parse {what}: {text!r}") from err


def _as_floats(text: str, what: str) -> tuple[float, ...]:
    """Numbers separated by commas or whitespace."""
    try:
        return tuple(float(tok) for tok in text.replace(",", " ").split())
    except ValueError as err:
        raise ConfigError(f"cannot parse {what}: {text!r}") from err


def _exact_int(value: float, what: str, low: int, high: float = float("inf")) -> int:
    """An integer in [low, high]; 2.5 is an error, not a truncation to 2."""
    if not (low <= value <= high and value.is_integer()):
        limits = f">= {low}" if high == float("inf") else f"in [{low}, {high}]"
        raise ConfigError(f"{what} must be an integer {limits}, got {value!r}")
    return int(value)


class _Type(NamedTuple):
    """``read(text, what)`` parses a value, raising a ConfigError that names
    ``what``; ``write(value)`` gives the text that reads back to it."""

    read: Callable[[str, str], object]
    write: Callable[[object], str] = repr


def _int(low: int, high: float = float("inf")) -> _Type:
    return _Type(lambda text, what: _exact_int(_as_float(text, what), what, low, high), str)


def _floats(sep: str) -> _Type:
    return _Type(_as_floats, lambda values: sep.join(repr(float(v)) for v in values))


_FLOAT = _Type(_as_float)
_FLOATS = _floats(", ")


class _Kinds(NamedTuple):
    """A ``kind`` key and its ``params`` key, read as ``cls(kind, **params)``.

    ``kinds`` maps each kind to its parameter names in echo order; ``params``
    are comma-separated name=value entries, and list values separate their
    numbers with whitespace (``xs=0 0.5 1, values=1 0.25 1``).
    """

    cls: type
    kinds: dict[str, tuple[str, ...]]

    def read(self, kind: str, text: str, what: str):
        if kind not in self.kinds:
            raise ConfigError(
                f"{what}: unknown kind {kind!r}; expected one of {sorted(self.kinds)}"
            )
        args = {}
        for entry in filter(None, (e.strip() for e in text.split(","))):
            name, eq, value = (s.strip() for s in entry.partition("="))
            if not eq:
                raise ConfigError(f"{what}.params: expected name=value, got {entry!r}")
            if name not in self.kinds[kind]:
                raise ConfigError(f"{what}: unknown parameter {name!r} for kind {kind!r}")
            field, type_ = _PARAMS[name]
            if field in args:
                raise ConfigError(f"{what}.params: duplicate parameter {name!r}")
            args[field] = type_.read(value, f"{what}.params.{name}")
        try:
            return self.cls(kind, **args)
        except UnsupportedConfigurationError as err:
            raise ConfigError(f"{what}: {err}") from err

    def write(self, spec) -> tuple[str, str]:
        """The texts of the kind key and of the params key."""
        return spec.kind, ", ".join(
            f"{name}={_PARAMS[name][1].write(getattr(spec, _PARAMS[name][0]))}"
            for name in self.kinds[spec.kind])


#: every kind parameter: its field of PotentialSpec or ReactionSpec, and its type
_PARAMS = {
    "slope": ("slope", _FLOAT),
    "amplitude": ("amplitude", _FLOAT),
    "period": ("period", _FLOAT),
    "phase": ("phase", _FLOAT),
    "offset": ("offset", _FLOAT),
    "axis": ("axis", _int(0, 1)),  # the coordinate of a 2-D grid that a profile follows
    "terms": ("terms", _int(1)),
    "xs": ("table_x", _floats(" ")),
    "values": ("table_v", _floats(" ")),
    "exponent": ("exponent", _FLOAT),
}

_POTENTIAL_PARAMS = _Kinds(PotentialSpec, {
    "zero": (),
    "linear": ("slope", "offset", "axis"),
    "cosine": ("amplitude", "period", "phase", "offset", "axis"),
    "sawtooth_smoothed": ("amplitude", "period", "phase", "offset", "axis", "terms"),
    "tabulated": ("xs", "values", "axis"),
})
_REACTION_PARAMS = _Kinds(ReactionSpec, {"linear": (), "power": ("exponent",)})


# ---------------------------------------------------------------------------
# the config table

#: default of a key that must be given
_REQUIRED = object()


class _Key(NamedTuple):
    """One config key.

    ``{i}`` in ``section`` or ``name`` stands for the species number: such a
    section, or key, repeats once per species.  ``default`` is the text read
    when the key is absent, ``_REQUIRED``, or None for a key that may be
    absent and then reads as None.  ``get(cfg, i)`` is the key's value in a
    RunConfig (``i`` counts species from 0).  A `_Kinds` key stands for the
    two keys ``name.kind`` and ``name.params``.
    """

    section: str
    name: str
    type: _Type | _Kinds
    default: object
    get: Callable[[RunConfig, int], object]


#: every config key, in echo order
_KEYS = (
    _Key("domain", "lo", _FLOATS, _REQUIRED, lambda c, i: c.problem.grid.lo),
    _Key("domain", "hi", _FLOATS, _REQUIRED, lambda c, i: c.problem.grid.hi),
    _Key("domain", "cells", _Type(
        lambda text, what: tuple(_exact_int(v, what, 1) for v in _as_floats(text, what)),
        lambda cells: ", ".join(map(str, cells))), _REQUIRED, lambda c, i: c.problem.grid.cells),
    _Key("species.{i}", "sigma", _FLOAT, _REQUIRED, lambda c, i: c.problem.species[i].sigma),
    _Key("species.{i}", "alpha", _FLOAT, _REQUIRED, lambda c, i: c.problem.species[i].alpha),
    _Key("species.{i}", "potential", _POTENTIAL_PARAMS, "zero",
         lambda c, i: c.problem.species[i].potential),
    _Key("species.{i}", "reaction", _REACTION_PARAMS, "linear",
         lambda c, i: c.problem.species[i].reaction),
    _Key("species.{i}", "initial", _POTENTIAL_PARAMS, "zero", lambda c, i: c.problem.initial[i]),
    # the second datum of the pair checks, given for every species or for none
    _Key("species.{i}", "initial2", _POTENTIAL_PARAMS, None,
         lambda c, i: None if c.initial2 is None else c.initial2[i]),
    _Key("coupling", "row.{i}", _FLOATS, _REQUIRED, lambda c, i: c.problem.coupling.lam[i]),
    _Key("time", "dt", _FLOAT, _REQUIRED, lambda c, i: c.step.dt),
    _Key("time", "t_end", _FLOAT, _REQUIRED, lambda c, i: c.step.t_end),
    _Key("time", "stride", _int(1), "1", lambda c, i: c.step.stride),
    _Key("output", "dir", _Type(lambda text, what: text, str), "out", lambda c, i: c.out_dir),
)


def _layout(n: int) -> dict[str, list[tuple[str, _Key, int]]]:
    """The sections of an n-species config in echo order, each with its keys
    as (name, table row, species index)."""
    layout: dict[str, list[tuple[str, _Key, int]]] = {}
    for key in _KEYS:
        for i in range(n) if "{i}" in key.section + key.name else (0,):
            layout.setdefault(key.section.format(i=i + 1), []).append(
                (key.name.format(i=i + 1), key, i))
    return layout


def _ini_keys(name: str, key: _Key) -> tuple[str, ...]:
    return (f"{name}.kind", f"{name}.params") if isinstance(key.type, _Kinds) else (name,)


def _text(parser: configparser.ConfigParser, section: str, name: str, default):
    if parser.has_option(section, name):
        return parser.get(section, name)
    if default is _REQUIRED:
        raise ConfigError(f"[{section}]: missing required key {name!r}")
    return default


def _read(parser: configparser.ConfigParser, section: str, name: str, key: _Key):
    what = f"[{section}] {name}"
    if not isinstance(key.type, _Kinds):
        return key.type.read(_text(parser, section, name, key.default), what)
    # params without their kind are an error, not read against the default kind
    given = parser.has_option(section, f"{name}.params")
    kind = _text(parser, section, f"{name}.kind", _REQUIRED if given else key.default)
    if kind is None:
        return None
    return key.type.read(kind, _text(parser, section, f"{name}.params", ""), what)


def parse_config(path) -> RunConfig:
    """Parse and validate a config file; any violation is a ConfigError."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        delimiters=("=",), inline_comment_prefixes=("#",),
        interpolation=None, strict=True,
    )
    parser.optionxform = str
    try:
        with open(path, encoding="utf-8") as fh:
            parser.read_file(fh)
    except configparser.Error as err:
        raise ConfigError(f"config parse error: {err}") from err
    except UnicodeDecodeError as err:
        raise ConfigError(f"config file {str(path)!r} is not valid UTF-8 "
                          f"(byte {err.start}: {err.reason})") from err

    species_sections = sorted(s for s in parser.sections() if s.startswith("species."))
    n = len(species_sections)
    if not n:
        raise ConfigError("no [species.N] sections found")
    if set(species_sections) != {f"species.{i}" for i in range(1, n + 1)}:
        raise ConfigError(
            f"species sections must be species.1 .. species.{n}; got {species_sections}"
        )
    layout = _layout(n)
    for section in parser.sections():
        if section not in layout:
            raise ConfigError(f"unknown section [{section}] with keys {parser.options(section)}")
        known = {ini for name, key, _i in layout[section] for ini in _ini_keys(name, key)}
        for name in parser.options(section):
            if name not in known:
                raise ConfigError(f"[{section}]: unknown key {name!r}")
    values = {section: {name: _read(parser, section, name, key) for name, key, _i in keys}
              for section, keys in layout.items()}

    domain = values["domain"]
    try:
        grid = Grid(domain["lo"], domain["hi"], domain["cells"])
    except ValueError as err:
        raise ConfigError(f"[domain]: {err}") from err
    species = [values[f"species.{i}"] for i in range(1, n + 1)]
    rows = values["coupling"]
    for name, row in rows.items():
        if len(row) != n:
            raise ConfigError(f"[coupling] {name}: expected {n} entries, got {len(row)}")
    initial2 = tuple(sp["initial2"] for sp in species)
    if None in initial2 and any(initial2):
        raise ConfigError("initial2 must be given for every species or for none")
    problem = ProblemSpec(
        grid=grid,
        species=tuple(SpeciesSpec(sp["sigma"], sp["alpha"], sp["potential"], sp["reaction"])
                      for sp in species),
        coupling=CouplingMatrix(np.array(list(rows.values()))),
        initial=tuple(sp["initial"] for sp in species),
    )
    report = validate(problem)
    if not report.ok:
        raise ConfigError("invalid problem: " + "; ".join(report.violations))
    return RunConfig(
        problem=problem,
        step=StepConfig(**values["time"]),
        out_dir=values["output"]["dir"],
        initial2=None if None in initial2 else initial2,
        warnings=report.warnings,
    )


def format_effective_config(cfg: RunConfig) -> str:
    """The config text of ``cfg`` with every default filled in; it parses back to ``cfg``."""
    lines = []
    for section, keys in _layout(cfg.problem.n_species).items():
        lines.append(f"[{section}]")
        for name, key, i in keys:
            value = key.get(cfg, i)
            if value is None:
                continue
            if isinstance(key.type, _Kinds):
                kind, params = key.type.write(value)
                lines += [f"{name}.kind = {kind}", f"{name}.params = {params}"]
            else:
                lines.append(f"{name} = {key.type.write(value)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# output writers


#: rows formatted per write, so the writer's buffers stay near 1 MB at any grid size
_CSV_CHUNK_ROWS = 4096


def _csv_rows(block: np.ndarray) -> bytes:
    """The CSV rows of a C-contiguous 2-D float64 block, each float as ``repr`` writes it.

    One orjson call formats the whole block as a flat JSON list; every
    row's last comma and the closing bracket become newlines.  orjson writes
    the same shortest round-trip digits as ``repr``, and the same positional
    notation for 0.0, -0.0 and 1e-4 <= |x| < 1e16.  It writes other
    magnitudes in another exponent style and non-finite values as ``null``,
    so those are spliced in from ``repr``.
    """
    import orjson

    values = block.ravel()
    text = np.frombuffer(orjson.dumps(values, option=orjson.OPT_SERIALIZE_NUMPY),
                         dtype=np.uint8).copy()
    text[-1] = ord(",")  # the closing bracket ends the last row, like a comma
    ends = np.flatnonzero(text == ord(","))
    text[ends[block.shape[1] - 1::block.shape[1]]] = ord("\n")
    mag = np.abs(values)
    odd = np.flatnonzero(~((mag >= 1e-4) & (mag < 1e16)) & (mag != 0.0))
    pieces, start = [], 1
    for i in odd.tolist():
        begin = ends[i - 1] + 1 if i else 1  # value i is text[begin:ends[i]]
        pieces += [text[start:begin].tobytes(), repr(float(values[i])).encode("ascii")]
        start = ends[i]
    pieces.append(text[start:].tobytes())
    return b"".join(pieces)


def _write_state_csv(path, state: State) -> None:
    """Write one row per cell: its centre, then the value of each species."""
    grid = state.grid
    names = ["x", "y"][:grid.dim] + [f"u{i + 1}" for i in range(state.n_species)]
    pts = grid.centers().reshape(grid.size, grid.dim)
    with open(path, "wb") as fh:
        fh.write((",".join(names) + "\n").encode("ascii"))
        for k in range(0, grid.size, _CSV_CHUNK_ROWS):
            rows = slice(k, k + _CSV_CHUNK_ROWS)
            fh.write(_csv_rows(np.hstack((pts[rows], state.fields[:, rows].T))))


def _json_line(obj: dict) -> str:
    return json.dumps(obj, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# commands


def _output_dir(cfg: RunConfig) -> Path:
    """The output directory, created with its parents; a path that cannot be
    a directory (an existing file, a path under a file) is a config error."""
    out = Path(cfg.out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as err:
        raise ConfigError(f"cannot use output directory {str(out)!r}: {err.strerror}") from err
    return out


def cmd_simulate(cfg: RunConfig) -> int:
    """Write each snapshot and its manifest line as the run reaches it.

    A run that fails leaves the snapshots before the failing step on disk,
    each with its manifest line.
    """
    spec = cfg.problem
    _n_full, n_steps = _step_count(cfg.step)
    values = (1 + -(-n_steps // cfg.step.stride)) * spec.n_species * spec.grid.size
    if values > MAX_OUTPUT_VALUES:
        raise ConfigError(f"simulate would write {values} values, snapshots times unknowns, "
                          f"more than the cap of {MAX_OUTPUT_VALUES}")
    out = _output_dir(cfg)
    times, masses = [], []
    with open(out / "manifest.ndjson", "w", encoding="ascii") as fh:
        for k, (state,) in enumerate(run(spec, cfg.step, (None,))):
            _write_state_csv(out / f"snapshot_{k}_t{state.t!r}.csv", state)
            times.append(state.t)
            masses.append(verify.weighted_mass(state, spec))
            fh.write(_json_line({
                "index": k,
                "time": state.t,
                "mass": masses[-1],
                "l1": verify._weighted_sum(np.abs(state.fields), state.grid.cell_volume).tolist(),
                "min": state.fields.min(axis=1).tolist(),
            }))
            fh.flush()
    scale = max(abs(masses[0]), 1e-300)
    drifts = [abs(m - masses[0]) / scale for m in masses]
    worst = int(np.argmax(drifts))  # the first NaN, if any: it fails the gate too
    if not drifts[worst] <= MASS_DRIFT_TOL:
        print(f"mass drift {drifts[worst]:.3e} exceeds {MASS_DRIFT_TOL:g} at snapshot "
              f"{worst} (t={times[worst]!r})", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_steady(cfg: RunConfig) -> int:
    """Write the stationary state: the null vector of total integral 1 with
    linear reactions, the state with the initial data's weighted mass with
    nonlinear ones."""
    out = _output_dir(cfg)
    spec = cfg.problem
    if spec.is_linear:
        ss = solve_null_vector(assemble_system(spec))
    else:
        ss = solve_stationary(spec, initial_state(spec))
    _write_state_csv(out / "stationary.csv", ss.state)
    with open(out / "steady.ndjson", "w", encoding="ascii") as fh:
        fh.write(_json_line({
            "residual": ss.residual,
            "normalization": ss.normalization,
            "constraint_value": ss.constraint_value,
        }))
    return EXIT_OK


def _second_state(cfg: RunConfig, mode: str) -> State:
    """Second initial datum for pair checks: configured, or synthesized from --seed.

    For comparison checks the synthesized datum dominates the configured one,
    so the pair is ordered by construction.
    """
    spec = cfg.problem
    if cfg.initial2 is not None:
        probe = ProblemSpec(grid=spec.grid, species=spec.species,
                            coupling=spec.coupling, initial=cfg.initial2)
        rep = validate(probe)
        if not rep.ok:
            raise ConfigError("invalid initial2 data: " + "; ".join(rep.violations))
        return initial_state(probe)
    base = initial_state(spec)
    rng = np.random.default_rng(cfg.seed)
    pts = spec.grid.centers()
    coord = pts if spec.grid.dim == 1 else pts[:, 0]
    span = spec.grid.hi[0] - spec.grid.lo[0]
    rows = []
    for i in range(spec.n_species):
        bump = np.zeros_like(coord)
        for k in range(1, 4):
            bump += rng.uniform(-1.0, 1.0) * np.cos(
                2.0 * np.pi * k * (coord - spec.grid.lo[0]) / span
            )
        if mode == "comparison":
            rows.append(base.fields[i] * (1.0 + 0.25 * (1.0 + bump / 3.0)))
        else:
            rows.append(base.fields[i] * np.exp(0.4 * bump / 3.0))
    return State(spec.grid, np.stack(rows), t=0.0, gauge="physical")


def cmd_verify(cfg: RunConfig, check: str) -> int:
    spec = cfg.problem
    u0 = initial_state(spec)
    second = _second_state(cfg, check) if check in ("contraction", "comparison") else None
    out = _output_dir(cfg)

    if check == "contraction":
        report = verify.check_contraction(spec, u0, second, cfg.step)
    elif check == "comparison":
        report = verify.check_comparison(spec, u0, second, cfg.step)
    elif check == "convergence":
        report = verify.check_convergence(spec, u0, cfg.step, solve_stationary(spec, u0))
    else:  # argparse admits no other check
        report = verify.oracle_compare(spec)

    verify.write_reports_ndjson([report], out / f"check_{check}.ndjson")
    if not report.passed:
        print(f"check {check} failed: worst violation {report.worst!r} "
              f"at t={report.argmax_time!r}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    """One parser: the command is a positional choice, and every command takes
    the same three options."""
    commands = {
        "simulate": "run the time evolution and write snapshots",
        "steady": "compute a stationary state",
        "verify-contraction": "check that the weighted L1 distance of two runs never grows",
        "verify-comparison": "check cellwise ordering and nonnegativity",
        "verify-convergence": "check decay towards the stationary target",
        "oracle-compare": "compare the stepper against the dense exponential",
    }
    parser = argparse.ArgumentParser(
        prog="motorflux",
        description="Structure-preserving solver and verification harness for\n"
                    "coupled drift-diffusion-reaction systems",
        epilog="commands:\n" + "\n".join(f"  {name:<20}{text}" for name, text in commands.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("command", choices=commands, metavar="command",
                        help="one of the commands listed below")
    parser.add_argument("--config", required=True, help="path to the config file")
    parser.add_argument("--out", default=None, help="override the output directory")
    parser.add_argument("--seed", type=int, default=0, help="seed for synthesized random fixtures")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        if args.seed < 0:
            raise ConfigError(f"--seed must be an integer >= 0, got {args.seed}")
        cfg = replace(cfg, seed=args.seed)
        for text in cfg.warnings:
            print(f"warning: {text}", file=sys.stderr)
        print(format_effective_config(cfg))
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "steady":
            return cmd_steady(cfg)
        if args.command == "oracle-compare":
            return cmd_verify(cfg, "oracle")
        return cmd_verify(cfg, args.command.removeprefix("verify-"))
    except MotorfluxError as err:  # each error type names its own exit code
        at = "" if err.time is None else f" (at t = {err.time!r})"
        print(f"{err.label}: {err}{at}", file=sys.stderr)
        return err.exit_code


if __name__ == "__main__":
    sys.exit(main())
