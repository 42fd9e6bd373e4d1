"""Command-line front end: config ingestion, experiment orchestration, output.

Config files are INI-style with strict keys (any unknown key or section is a
hard error).  Layout:

    [domain]            lo, hi, cells        (comma-separated per axis)
    [species.1] ...     sigma, alpha, potential.kind, potential.params,
                        reaction.kind, reaction.params, initial.kind,
                        initial.params, and optionally initial2.kind/params
                        (second datum for the pair checks)
    [coupling]          row.1 .. row.n
    [time]              dt, t_end, stride, lin_tol
    [output]            dir
    [steady]            mode, normalization, tol          (optional; tol is
                        the residual bound ||A v|| <= tol*||A||)
    [verify]            threshold, oracle_t               (optional)

``*.params`` values are comma-separated name=value entries; list-valued
parameters (tabulated profiles) separate numbers with whitespace, e.g.
``xs=0 0.5 1, values=1 0.25 1``.

All emitted files are byte-deterministic: floats are written with their
shortest round-trip decimal representation and JSON keys are sorted.

Exit codes: 0 pass, 2 config error, 3 invariant failure, 4 solver failure.
"""

from __future__ import annotations

import argparse
import configparser
import json
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import verify
from .discretize import assemble_system
from .errors import (
    ConfigError,
    DegenerateDataError,
    InvariantViolationError,
    IrreducibilityError,
    MotorfluxError,
    OracleScopeError,
    OutOfDomainError,
    ScalingError,
    SolverError,
    StepSizeError,
    UnsupportedConfigurationError,
)
from .evolve import MAX_STEPS, StepConfig, run
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
from .steady import StationaryRay, project_onto_ray, reversible_pair, solve_null_vector

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INVARIANT = 3
EXIT_SOLVER = 4

#: mass column of the simulate manifest must be constant to this relative drift
MASS_DRIFT_TOL = 1e-11

_DOMAIN_KEYS = {"lo", "hi", "cells"}
_SPECIES_KEYS = {
    "sigma", "alpha",
    "potential.kind", "potential.params",
    "reaction.kind", "reaction.params",
    "initial.kind", "initial.params",
    "initial2.kind", "initial2.params",
}
_TIME_KEYS = {"dt", "t_end", "stride", "lin_tol"}
_OUTPUT_KEYS = {"dir"}
_STEADY_KEYS = {"mode", "normalization", "tol"}
_VERIFY_KEYS = {"threshold", "oracle_t"}

_POTENTIAL_PARAMS = {
    "zero": set(),
    "linear": {"slope", "offset", "axis"},
    "cosine": {"amplitude", "period", "phase", "offset", "axis"},
    "sawtooth_smoothed": {"amplitude", "period", "phase", "offset", "terms", "axis"},
    "tabulated": {"xs", "values", "axis"},
}
_REACTION_PARAMS = {"linear": set(), "power": {"exponent"}}


@dataclass(frozen=True)
class RunConfig:
    """Parsed and validated run configuration."""

    problem: ProblemSpec
    step: StepConfig
    out_dir: str
    steady_mode: str = "null_vector"
    steady_normalization: str = "total"
    steady_tol: float = 1e-13
    verify_threshold: float = 1e-6
    oracle_t: float = 1.0
    initial2: tuple[PotentialSpec, ...] | None = None
    seed: int = 0
    #: `validate` warnings on the problem; every command prints them to stderr
    warnings: tuple[str, ...] = ()


# ---------------------------------------------------------------------------
# parsing


def _parse_floats(text: str, what: str) -> list[float]:
    try:
        return [float(tok) for tok in text.replace(",", " ").split()]
    except ValueError as err:
        raise ConfigError(f"cannot parse {what}: {text!r}") from err


def _parse_params(text: str, what: str) -> dict[str, list[float]]:
    params: dict[str, list[float]] = {}
    for entry in text.split(","):
        entry = entry.strip()
        if not entry:
            continue
        if "=" not in entry:
            raise ConfigError(f"{what}: expected name=value, got {entry!r}")
        name, _, value = entry.partition("=")
        name = name.strip()
        if name in params:
            raise ConfigError(f"{what}: duplicate parameter {name!r}")
        params[name] = _parse_floats(value, f"{what}.{name}")
    return params


def _build_profile(kind: str, params: dict[str, list[float]], what: str) -> PotentialSpec:
    if kind not in _POTENTIAL_PARAMS:
        raise ConfigError(
            f"{what}: unknown kind {kind!r}; expected one of "
            f"{sorted(_POTENTIAL_PARAMS)}"
        )
    allowed = _POTENTIAL_PARAMS[kind]
    for name in params:
        if name not in allowed:
            raise ConfigError(f"{what}: unknown parameter {name!r} for kind {kind!r}")
    kwargs = {}
    for name, vals in params.items():
        if name == "xs":
            kwargs["table_x"] = tuple(vals)
        elif name == "values":
            kwargs["table_v"] = tuple(vals)
        else:
            if len(vals) != 1:
                raise ConfigError(f"{what}: parameter {name!r} expects one value")
            if name == "terms":
                kwargs[name] = _exact_int(vals[0], f"{what} terms", 1)
            elif name == "axis":  # 0 or 1: the axis of a 2-D grid
                kwargs[name] = _exact_int(vals[0], f"{what} axis", 0, 1)
            else:
                kwargs[name] = vals[0]
    try:
        return PotentialSpec(kind, **kwargs)
    except UnsupportedConfigurationError as err:
        raise ConfigError(f"{what}: {err}") from err


def _build_reaction(kind: str, params: dict[str, list[float]], what: str) -> ReactionSpec:
    if kind not in _REACTION_PARAMS:
        raise ConfigError(
            f"{what}: unknown kind {kind!r}; expected one of {sorted(_REACTION_PARAMS)}"
        )
    for name in params:
        if name not in _REACTION_PARAMS[kind]:
            raise ConfigError(f"{what}: unknown parameter {name!r} for kind {kind!r}")
    exponent = params.get("exponent", [1.0])[0]
    return ReactionSpec(kind, exponent=exponent)


def _known_section_keys(parser: configparser.ConfigParser, section: str,
                        allowed: set[str]) -> None:
    for key in parser.options(section):
        if key not in allowed:
            raise ConfigError(f"[{section}]: unknown key {key!r}")


def _get(parser, section, key, default=None):
    if parser.has_option(section, key):
        return parser.get(section, key)
    if default is None:
        raise ConfigError(f"[{section}]: missing required key {key!r}")
    return default


def _as_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError as err:
        raise ConfigError(f"cannot parse {what}: {text!r}") from err


def _as_nonnegative(text: str, what: str) -> float:
    value = _as_float(text, what)
    if not 0.0 <= value < float("inf"):
        raise ConfigError(f"{what} must be finite and >= 0, got {text!r}")
    return value


def _as_oracle_time(text: str, what: str) -> float:
    """A positive multiple of the coarsest oracle step, within oracle_compare's 1e-9,
    that the finest oracle step reaches within MAX_STEPS steps."""
    value = _as_float(text, what)
    coarsest = verify.ORACLE_DTS[0]
    if not (0.0 < value < float("inf") and round(value / coarsest) >= 1
            and verify._divides(coarsest, value)):
        raise ConfigError(
            f"{what} must be a finite positive multiple of {coarsest!r}, got {text!r}"
        )
    if not value / verify.ORACLE_DTS[-1] <= MAX_STEPS:
        raise ConfigError(
            f"{what} = {text!r} needs more than {MAX_STEPS} steps of {verify.ORACLE_DTS[-1]!r}"
        )
    return value


def _exact_int(value: float, what: str, low: int, high: float = float("inf")) -> int:
    """An integer in [low, high]; 2.5 is an error, not a truncation to 2."""
    if not (low <= value <= high and value.is_integer()):
        limits = f">= {low}" if high == float("inf") else f"in [{low}, {high}]"
        raise ConfigError(f"{what} must be an integer {limits}, got {value!r}")
    return int(value)


def _as_count(text: str, what: str) -> int:
    return _exact_int(_as_float(text, what), what, 1)


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

    sections = set(parser.sections())
    species_sections = sorted(s for s in sections if s.startswith("species."))
    known = {"domain", "coupling", "time", "output", "steady", "verify"}
    for s in sections:
        if s not in known and s not in species_sections:
            raise ConfigError(f"unknown section [{s}]")
    for required in ("domain", "coupling", "time"):
        if required not in sections:
            raise ConfigError(f"missing required section [{required}]")
    if not species_sections:
        raise ConfigError("no [species.N] sections found")

    # domain
    _known_section_keys(parser, "domain", _DOMAIN_KEYS)
    lo = _parse_floats(_get(parser, "domain", "lo"), "[domain] lo")
    hi = _parse_floats(_get(parser, "domain", "hi"), "[domain] hi")
    cells = [_exact_int(v, "[domain] cells", 1)
             for v in _parse_floats(_get(parser, "domain", "cells"), "[domain] cells")]
    try:
        grid = Grid(tuple(lo), tuple(hi), tuple(cells))
    except ValueError as err:
        raise ConfigError(f"[domain]: {err}") from err

    # species
    n = len(species_sections)
    expected = {f"species.{i}" for i in range(1, n + 1)}
    if set(species_sections) != expected:
        raise ConfigError(
            f"species sections must be species.1 .. species.{n}; got {species_sections}"
        )
    species = []
    initial = []
    initial2 = []
    any_initial2 = False
    for i in range(1, n + 1):
        sec = f"species.{i}"
        _known_section_keys(parser, sec, _SPECIES_KEYS)
        sigma = _as_float(_get(parser, sec, "sigma"), f"[{sec}] sigma")
        alpha = _as_float(_get(parser, sec, "alpha"), f"[{sec}] alpha")
        pot = _build_profile(
            _get(parser, sec, "potential.kind", "zero"),
            _parse_params(_get(parser, sec, "potential.params", ""), f"[{sec}] potential.params"),
            f"[{sec}] potential",
        )
        reac = _build_reaction(
            _get(parser, sec, "reaction.kind", "linear"),
            _parse_params(_get(parser, sec, "reaction.params", ""), f"[{sec}] reaction.params"),
            f"[{sec}] reaction",
        )
        init = _build_profile(
            _get(parser, sec, "initial.kind", "zero"),
            _parse_params(_get(parser, sec, "initial.params", ""), f"[{sec}] initial.params"),
            f"[{sec}] initial",
        )
        species.append(SpeciesSpec(sigma=sigma, alpha=alpha, potential=pot, reaction=reac))
        initial.append(init)
        if parser.has_option(sec, "initial2.kind"):
            any_initial2 = True
            initial2.append(_build_profile(
                parser.get(sec, "initial2.kind"),
                _parse_params(_get(parser, sec, "initial2.params", ""),
                              f"[{sec}] initial2.params"),
                f"[{sec}] initial2",
            ))
        else:
            initial2.append(None)
    if any_initial2 and any(p is None for p in initial2):
        raise ConfigError("initial2 must be given for every species or for none")

    # coupling
    _known_section_keys(parser, "coupling", {f"row.{i}" for i in range(1, n + 1)})
    rows = []
    for i in range(1, n + 1):
        row = _parse_floats(_get(parser, "coupling", f"row.{i}"), f"[coupling] row.{i}")
        if len(row) != n:
            raise ConfigError(f"[coupling] row.{i}: expected {n} entries, got {len(row)}")
        rows.append(row)
    coupling = CouplingMatrix(np.array(rows))

    problem = ProblemSpec(grid=grid, species=tuple(species), coupling=coupling,
                          initial=tuple(initial))
    report = validate(problem)
    if not report.ok:
        raise ConfigError("invalid problem: " + "; ".join(report.violations))

    # time
    _known_section_keys(parser, "time", _TIME_KEYS)
    step = StepConfig(
        dt=_as_float(_get(parser, "time", "dt"), "[time] dt"),
        t_end=_as_float(_get(parser, "time", "t_end"), "[time] t_end"),
        stride=_as_count(_get(parser, "time", "stride", "1"), "[time] stride"),
        lin_tol=_as_float(_get(parser, "time", "lin_tol", "1e-12"), "[time] lin_tol"),
    )

    out_dir = "out"
    if "output" in sections:
        _known_section_keys(parser, "output", _OUTPUT_KEYS)
        out_dir = _get(parser, "output", "dir", "out")

    steady_mode, steady_norm, steady_tol = "null_vector", "total", 1e-13
    if "steady" in sections:
        _known_section_keys(parser, "steady", _STEADY_KEYS)
        steady_mode = _get(parser, "steady", "mode", "null_vector")
        if steady_mode not in ("null_vector", "reversible"):
            raise ConfigError(f"[steady] mode must be null_vector or reversible, got {steady_mode!r}")
        steady_norm = _get(parser, "steady", "normalization", "total")
        if steady_norm not in ("total", "alpha_weighted"):
            raise ConfigError(f"[steady] normalization must be total or alpha_weighted, got {steady_norm!r}")
        steady_tol = _as_nonnegative(_get(parser, "steady", "tol", "1e-13"), "[steady] tol")

    verify_threshold, oracle_t = 1e-6, 1.0
    if "verify" in sections:
        _known_section_keys(parser, "verify", _VERIFY_KEYS)
        verify_threshold = _as_nonnegative(_get(parser, "verify", "threshold", "1e-6"),
                                           "[verify] threshold")
        oracle_t = _as_oracle_time(_get(parser, "verify", "oracle_t", "1.0"),
                                   "[verify] oracle_t")

    return RunConfig(
        problem=problem,
        step=step,
        out_dir=out_dir,
        steady_mode=steady_mode,
        steady_normalization=steady_norm,
        steady_tol=steady_tol,
        verify_threshold=verify_threshold,
        oracle_t=oracle_t,
        initial2=tuple(initial2) if any_initial2 else None,
        warnings=report.warnings,
    )


def format_effective_config(cfg: RunConfig) -> str:
    """Echo of the configuration with every default filled in."""
    spec = cfg.problem
    lines = ["[domain]"]
    lines.append(f"lo = {', '.join(repr(v) for v in spec.grid.lo)}")
    lines.append(f"hi = {', '.join(repr(v) for v in spec.grid.hi)}")
    lines.append(f"cells = {', '.join(str(v) for v in spec.grid.cells)}")
    for i, (sp, init) in enumerate(zip(spec.species, spec.initial), start=1):
        lines.append(f"[species.{i}]")
        lines.append(f"sigma = {sp.sigma!r}")
        lines.append(f"alpha = {sp.alpha!r}")
        lines.append(f"potential.kind = {sp.potential.kind}")
        lines.append(f"potential.params = {_profile_params(sp.potential)}")
        lines.append(f"reaction.kind = {sp.reaction.kind}")
        lines.append(f"reaction.params = exponent={sp.reaction.exponent!r}")
        lines.append(f"initial.kind = {init.kind}")
        lines.append(f"initial.params = {_profile_params(init)}")
    lines.append("[coupling]")
    for i, row in enumerate(spec.coupling.lam, start=1):
        lines.append(f"row.{i} = {', '.join(repr(float(v)) for v in row)}")
    lines.append("[time]")
    lines.append(f"dt = {cfg.step.dt!r}")
    lines.append(f"t_end = {cfg.step.t_end!r}")
    lines.append(f"stride = {cfg.step.stride}")
    lines.append(f"lin_tol = {cfg.step.lin_tol!r}")
    lines.append("[output]")
    lines.append(f"dir = {cfg.out_dir}")
    lines.append("[steady]")
    lines.append(f"mode = {cfg.steady_mode}")
    lines.append(f"normalization = {cfg.steady_normalization}")
    lines.append(f"tol = {cfg.steady_tol!r}")
    lines.append("[verify]")
    lines.append(f"threshold = {cfg.verify_threshold!r}")
    lines.append(f"oracle_t = {cfg.oracle_t!r}")
    return "\n".join(lines)


def _profile_params(p: PotentialSpec) -> str:
    if p.kind == "zero":
        return ""
    if p.kind == "linear":
        return f"slope={p.slope!r}, offset={p.offset!r}, axis={p.axis}"
    if p.kind == "tabulated":
        xs = " ".join(repr(v) for v in p.table_x)
        vs = " ".join(repr(v) for v in p.table_v)
        return f"xs={xs}, values={vs}, axis={p.axis}"
    base = (f"amplitude={p.amplitude!r}, period={p.period!r}, "
            f"phase={p.phase!r}, offset={p.offset!r}, axis={p.axis}")
    if p.kind == "sawtooth_smoothed":
        base += f", terms={p.terms}"
    return base


# ---------------------------------------------------------------------------
# output writers


#: rows formatted per write, so the writer's buffers stay near 1 MB at any grid size
_CSV_CHUNK_ROWS = 4096


def _row_templates(grid: Grid, n_species: int) -> list[str]:
    """The rows of each CSV chunk with the cell centres written in.

    Every row holds its coordinates and one ``%r`` slot per species, so a
    chunk of a state is ``template % values``.  A float repr never contains
    ``%``.  The states of one run share the templates: a few large strings,
    not one string per row, which would fragment the small-object heap.
    """
    pts = grid.centers().reshape(grid.size, grid.dim)
    # %r of a Python float is its repr: the shortest round-trip decimal
    row = "%r," * grid.dim + ",".join(["%%r"] * n_species) + "\n"
    return [(row * len(chunk)) % tuple(chunk.ravel().tolist())
            for chunk in (pts[k:k + _CSV_CHUNK_ROWS]
                          for k in range(0, grid.size, _CSV_CHUNK_ROWS))]


def _write_state_csv(path, state: State, templates: list[str] | None = None) -> None:
    """Write one row per cell; ``templates`` are ``_row_templates`` of the
    state's grid and species count, built here when not given."""
    if templates is None:
        templates = _row_templates(state.grid, state.n_species)
    names = [f"u{i + 1}" for i in range(state.n_species)]
    coords = ["x", "y"][:state.grid.dim]
    with open(path, "w", encoding="ascii") as fh:
        fh.write(",".join(coords + names) + "\n")
        for k, template in zip(range(0, state.grid.size, _CSV_CHUNK_ROWS), templates):
            values = state.fields[:, k:k + _CSV_CHUNK_ROWS].T.ravel().tolist()
            fh.write(template % tuple(values))


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
    out = _output_dir(cfg)
    traj = run(cfg.problem, cfg.step)
    # after run() returns, so the templates stay out of the solver's peak memory
    templates = _row_templates(cfg.problem.grid, cfg.problem.n_species)
    with open(out / "manifest.ndjson", "w", encoding="ascii") as fh:
        for k, (state, diag) in enumerate(zip(traj.states, traj.diagnostics)):
            _write_state_csv(out / f"snapshot_{k}_t{state.t!r}.csv", state, templates)
            fh.write(_json_line({
                "index": k,
                "time": diag.time,
                "mass": diag.weighted_mass,
                "l1": list(diag.species_l1),
                "min": list(diag.species_min),
            }))
    masses = [d.weighted_mass for d in traj.diagnostics]
    scale = max(abs(masses[0]), 1e-300)
    drifts = [abs(m - masses[0]) / scale for m in masses]
    worst = max(range(len(drifts)), key=drifts.__getitem__)
    if drifts[worst] > MASS_DRIFT_TOL:
        print(f"mass drift {drifts[worst]:.3e} exceeds {MASS_DRIFT_TOL:g} at snapshot "
              f"{worst} (t={traj.times[worst]!r})", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def cmd_steady(cfg: RunConfig) -> int:
    out = _output_dir(cfg)
    spec = cfg.problem
    if cfg.steady_mode == "reversible":
        _require_reversible_form(spec, "[steady] mode = reversible")
        u0 = initial_state(spec)
        mass = verify.weighted_mass(u0, spec)
        a, b = reversible_pair(mass, spec.species[0].reaction, spec.species[1].reaction,
                               alpha=spec.species[0].alpha, beta=spec.species[1].alpha,
                               volume=spec.grid.volume)
        residual = (a / spec.species[0].alpha + b / spec.species[1].alpha
                    - mass / spec.grid.volume)
        with open(out / "reversible.ndjson", "w", encoding="ascii") as fh:
            fh.write(_json_line({"a": a, "b": b, "mass_residual": residual}))
        print(f"a={a!r} b={b!r}")
        return EXIT_OK
    A = assemble_system(spec)
    ss = solve_null_vector(A, tol=cfg.steady_tol,
                           normalization=cfg.steady_normalization)
    _write_state_csv(out / "stationary.csv", ss.state)
    with open(out / "steady.ndjson", "w", encoding="ascii") as fh:
        fh.write(_json_line({
            "residual": ss.residual,
            "normalization": ss.normalization,
            "constraint_value": ss.constraint_value,
        }))
    return EXIT_OK


def _require_reversible_form(spec: ProblemSpec, who: str) -> None:
    """The two-species reversible form that `reversible_pair` solves; ``who``
    names what needs it in the error message."""
    lam = spec.coupling.lam
    if spec.n_species != 2:
        raise ConfigError(f"{who} needs exactly two species, got {spec.n_species}")
    k = lam[1, 0]
    if not (k > 0.0 and lam[0, 1] == k and lam[0, 0] == -k and lam[1, 1] == -k):
        raise ConfigError(
            f"{who} needs coupling [[-k, k], [k, -k]] with k > 0"
        )
    if any(sp.potential.kind != "zero" for sp in spec.species):
        raise ConfigError(f"{who} needs zero potentials (pure diffusion)")


def _second_state(cfg: RunConfig, mode: str) -> State:
    """Second initial datum for pair checks: configured, or synthesized from --seed.

    For comparison checks the synthesized datum dominates the configured one,
    so the pair is ordered by construction.
    """
    spec = cfg.problem
    base = initial_state(spec)
    if cfg.initial2 is not None:
        probe = ProblemSpec(grid=spec.grid, species=spec.species,
                            coupling=spec.coupling, initial=cfg.initial2)
        rep = validate(probe)
        if not rep.ok:
            raise ConfigError("invalid initial2 data: " + "; ".join(rep.violations))
        return initial_state(probe)
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
    out = _output_dir(cfg)
    spec = cfg.problem
    u0 = initial_state(spec)

    if check == "contraction":
        report, _series = verify.check_contraction(spec, u0, _second_state(cfg, check), cfg.step)
    elif check == "comparison":
        report = verify.check_comparison(spec, u0, _second_state(cfg, check), cfg.step)
    elif check == "convergence":
        target = _convergence_target(cfg, u0)
        report = verify.check_convergence(spec, u0, cfg.step, target,
                                          threshold=cfg.verify_threshold)
    elif check == "oracle":
        report = verify.oracle_compare(spec, cfg.step, cfg.oracle_t)
    else:
        raise ConfigError(f"unknown check {check!r}")

    verify.write_reports_ndjson([report], out / f"check_{check}.ndjson")
    if not report.passed:
        print(f"check {check} failed: worst violation {report.worst!r} "
              f"at t={report.argmax_time!r}", file=sys.stderr)
        return EXIT_INVARIANT
    return EXIT_OK


def _convergence_target(cfg: RunConfig, u0: State):
    spec = cfg.problem
    if spec.is_linear:
        A = assemble_system(spec)
        base = solve_null_vector(A, tol=cfg.steady_tol,
                                 normalization=cfg.steady_normalization)
        _c, target = project_onto_ray(u0, StationaryRay(base), spec)
        return target
    # the reversible pair's constant state is the only nonlinear target computed
    _require_reversible_form(spec, "verify-convergence with nonlinear reactions")
    mass = verify.weighted_mass(u0, spec)
    a, b = reversible_pair(mass, spec.species[0].reaction, spec.species[1].reaction,
                           alpha=spec.species[0].alpha, beta=spec.species[1].alpha,
                           volume=spec.grid.volume)
    fields = np.stack([np.full(spec.grid.size, a), np.full(spec.grid.size, b)])
    from .steady import StationaryState
    return StationaryState(
        state=State(spec.grid, fields, 0.0, "physical"),
        residual=0.0, normalization="mass_matched", constraint_value=mass,
    )


# ---------------------------------------------------------------------------
# entry point


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="motorflux",
        description="Structure-preserving solver and verification harness for "
                    "coupled drift-diffusion-reaction systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {
        "simulate": "run the time evolution and write snapshots",
        "steady": "compute a stationary state",
        "verify-contraction": "check that the weighted L1 distance of two runs never grows",
        "verify-comparison": "check cellwise ordering and nonnegativity",
        "verify-convergence": "check decay towards the stationary target",
        "oracle-compare": "compare the stepper against the dense exponential",
    }
    for name, help_text in commands.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the config file")
        p.add_argument("--out", default=None, help="override the output directory")
        p.add_argument("--tol", type=float, default=None,
                       help="override lin_tol, the bound on the backward error "
                            "of each implicit solve (and, for 'steady', the "
                            "stationary residual bound ||A v|| <= tol*||A||)")
        p.add_argument("--seed", type=int, default=0,
                       help="seed for synthesized random fixtures")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = parse_config(args.config)
        if args.out is not None:
            cfg = replace(cfg, out_dir=args.out)
        if args.tol is not None:
            cfg = replace(cfg, step=replace(cfg.step, lin_tol=args.tol),
                          steady_tol=args.tol)
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
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except (StepSizeError, ScalingError, OracleScopeError, OutOfDomainError,
            UnsupportedConfigurationError, DegenerateDataError) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except InvariantViolationError as err:
        print(f"invariant failure: {err}", file=sys.stderr)
        return EXIT_INVARIANT
    except (SolverError, IrreducibilityError) as err:
        print(f"solver failure: {err}", file=sys.stderr)
        return EXIT_SOLVER
    except MotorfluxError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
