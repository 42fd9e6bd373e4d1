"""Spans around the calls into each motorflux layer, recorded from outside the program.

Each traced name is a module attribute that a caller looks up at call time
(``motorflux.cli.run`` is what ``cmd_simulate`` calls), so replacing the
attribute puts a span around exactly those calls.  A name that a later
version of the program removes or renames is recorded as absent and skipped.

Spans are kept in memory: name, layer, start, end, parent, error flag.  A
span's self time is its duration minus the time its child spans cover.
The program runs single-threaded (``MOTORFLUX_THREADS`` unset), so one stack
gives every span its parent.
"""

from __future__ import annotations

import functools
import importlib
import math
import time
from dataclasses import dataclass, field

LAYERS = ("cli", "model", "discretize", "evolve", "steady", "verify")

#: (module, attribute, layer).  The span name is "<layer>.<attribute>".
TRACED = (
    ("motorflux.cli", "main", "cli"),
    ("motorflux.cli", "parse_config", "cli"),
    ("motorflux.cli", "_write_state_csv", "cli"),
    ("motorflux.cli", "validate", "model"),
    ("motorflux.cli", "initial_state", "model"),
    ("motorflux.evolve", "validate", "model"),
    ("motorflux.evolve", "initial_state", "model"),
    ("motorflux.verify", "initial_state", "model"),
    ("motorflux.cli", "assemble_system", "discretize"),
    ("motorflux.evolve", "assemble_system", "discretize"),
    ("motorflux.evolve", "assemble_transport", "discretize"),
    ("motorflux.verify", "assemble_system", "discretize"),
    ("motorflux.cli", "run", "evolve"),
    ("motorflux.verify", "run", "evolve"),
    ("motorflux.cli", "solve_null_vector", "steady"),
    ("motorflux.cli", "project_onto_ray", "steady"),
    ("motorflux.verify", "check_contraction", "verify"),
    ("motorflux.verify", "check_comparison", "verify"),
    ("motorflux.verify", "check_convergence", "verify"),
    ("motorflux.verify", "oracle_compare", "verify"),
    ("motorflux.verify", "oracle_expm", "verify"),
    ("motorflux.verify", "write_reports_ndjson", "verify"),
)

#: factorization whose solves are the stationary solver's sweeps
SWEEP_FACTORIZATION = ("motorflux.steady", "splu")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    end: float = 0.0
    error: bool = False
    child_time: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.child_time


@dataclass
class Tracer:
    """Installs the wrappers, records spans and counts, and removes them again.

    The wrappers exist only between ``install`` and ``uninstall``, so untraced
    rounds run the program unchanged.
    """

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=dict)
    absent: list[str] = field(default_factory=list)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[object, str, object]] = field(default_factory=list)

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    # -- installation -----------------------------------------------------

    def install(self, traced=TRACED, sweep=SWEEP_FACTORIZATION) -> None:
        """Start a fresh recording: wrap every traced name that exists."""
        self.spans, self.counts, self.absent, self._stack = [], {}, [], []
        for module_name, attr, layer in traced:
            target = self._lookup(module_name, attr)
            if target is not None:
                self._replace(target, attr, self._wrap(getattr(target, attr),
                                                       f"{layer}.{attr}", layer))
        target = self._lookup(*sweep)
        if target is not None:
            self._replace(target, sweep[1], self._wrap_factorization(getattr(target, sweep[1])))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._saved):
            setattr(target, attr, original)
        self._saved.clear()

    def _lookup(self, module_name: str, attr: str):
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            module = None
        if module is None or not callable(getattr(module, attr, None)):
            self.absent.append(f"{module_name}.{attr}")
            return None
        return module

    def _replace(self, target, attr, wrapper) -> None:
        self._saved.append((target, attr, getattr(target, attr)))
        setattr(target, attr, wrapper)

    # -- wrappers ---------------------------------------------------------

    def _wrap(self, fn, name: str, layer: str):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer._stack[-1] if tracer._stack else None
            span = Span(name, layer, time.perf_counter(), parent)
            tracer.spans.append(span)
            tracer._stack.append(len(tracer.spans) - 1)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                if parent is not None:
                    tracer.spans[parent].child_time += span.duration
            tracer._observe(name, args, result)
            return result

        return traced

    def _wrap_factorization(self, factorize):
        tracer = self

        class _CountingFactor:
            def __init__(self, lu):
                self._lu = lu

            def solve(self, *args, **kwargs):
                tracer.count("steady.sweeps")
                return self._lu.solve(*args, **kwargs)

            def __getattr__(self, attr):
                return getattr(self._lu, attr)

        @functools.wraps(factorize)
        def counted(*args, **kwargs):
            return _CountingFactor(factorize(*args, **kwargs))

        return counted

    def _observe(self, name: str, args, result) -> None:
        """Work counts read from the arguments and results at a layer boundary."""
        if name.startswith("discretize."):
            nnz = getattr(getattr(result, "matrix", None), "nnz", None)
            if nnz is not None:
                self.count("discretize.nnz", nnz)
        elif name == "evolve.run" and len(args) >= 2:
            spec, cfg = args[0], args[1]
            steps = _steps(cfg)
            unknowns = _unknowns(spec)
            if steps is not None and unknowns is not None:
                self.count("evolve.steps", steps)
                self.counts["evolve.unknowns"] = max(self.counts.get("evolve.unknowns", 0),
                                                     unknowns)
            if self._stack and self.spans[self._stack[-1]].layer == "verify":
                self.count("verify.trajectories")

    # -- summaries --------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer, summed over all spans."""
        out = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            out[span.layer] = out.get(span.layer, 0.0) + span.self_time
        return out

    def total(self, name: str, self_only: bool = False) -> float:
        return sum(s.self_time if self_only else s.duration
                   for s in self.spans if s.name == name)

    def root_time(self) -> float:
        return sum(s.duration for s in self.spans if s.parent is None)

    def failures(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name and s.error)


def _steps(cfg) -> int | None:
    dt, t_end = getattr(cfg, "dt", None), getattr(cfg, "t_end", None)
    if not dt or t_end is None:
        return None
    return max(0, math.ceil(t_end / dt - 1e-9))


def _unknowns(spec) -> int | None:
    size = getattr(getattr(spec, "grid", None), "size", None)
    n = getattr(spec, "n_species", None)
    return None if size is None or n is None else size * n
