"""motorflux benchmark: times CLI workloads end to end and per layer, and checks every output.

Usage (from the repository root):

    python3 perfbench/run.py --workload snap1d --seed 1 --seconds 34 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 34

One run drives ``motorflux.cli.main`` in this single-threaded process on
configs generated from ``--seed``.  It repeats rounds of the workload's
command sequence until ``--seconds`` would be exceeded (at least two rounds,
so outputs can be compared byte for byte).  With ``--trace 0`` it reports the
end-to-end metrics; with ``--trace 1`` it alternates untraced and traced
rounds and reports the per-layer metrics of the traced ones.  ``--workload
all`` runs every workload both ways in child processes and prints one table.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads, metrics and the failures the program
shows at its baseline.
"""

import os
import sys

# Pin the environment before numpy is imported: one BLAS/OpenMP thread and
# no motorflux worker threads, so timings and outputs do not depend on the host.
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = "1"
os.environ.pop("MOTORFLUX_THREADS", None)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

#: child processes that each time one more set-up sample
SETUP_PROBES = 6
#: the host gauge's median time on the host this benchmark was sized on
#: (2 vCPUs of a shared Xeon machine); README.md, "Host speed", says why
REF_GAUGE_S = 0.25
#: how strongly round times follow the gauge: regressing log round wall on
#: log gauge over ten-run sets gave 0.3 to 1.2, median about one half
GAUGE_EXPONENT = 0.5
#: a run never starts a round after this many seconds, so it ends well within 180 s
HARD_STOP_S = 120.0
MIN_ROUNDS = 2

END_TO_END = ("wall_ref_s", "cell_steps_per_ref_s", "peak_rss_mb", "setup_s")
UNITS = {
    "wall_ref_s": "s", "cell_steps_per_ref_s": "1/s", "peak_rss_mb": "MB", "setup_s": "s",
    "cli.self_s": "s", "cli.parse_config_s": "s", "cli.bytes_written": "bytes",
    "cli.files_written": "count", "model.validate_s": "s", "model.initial_state_s": "s",
    "discretize.assemble_s": "s", "discretize.nnz": "count",
    "evolve.self_s": "s", "evolve.steps": "count", "evolve.step_ms": "ms",
    "evolve.unknowns": "count",
    "steady.solve_pct": "%", "steady.sweeps": "count", "steady.failures": "count",
    "verify.self_pct": "%", "verify.trajectories": "count", "verify.oracle_pct": "%",
    "trace.wall_s": "s", "trace.overhead_s": "s", "trace.uncovered_s": "s",
}
PER_LAYER = tuple(k for k in UNITS if k not in END_TO_END)


class SetupError(RuntimeError):
    """The checkout does not hold a motorflux source tree this benchmark can run."""


@dataclass
class CommandResult:
    label: str
    exit_code: object
    errors: list[str]
    differs: bool = False    # outputs differ from the first round of the run

    @property
    def failed(self) -> bool:
        return self.exit_code != 0 or bool(self.errors)


@dataclass
class Round:
    wall: float
    gauge: float      # host gauge timed just before the round
    traced: bool
    commands: list[CommandResult] = field(default_factory=list)
    layer: dict[str, float] = field(default_factory=dict)


# ---------------------------------------------------------------------------
# host speed


class HostGauge:
    """Fixed work that does not use motorflux, timed to gauge the host's speed.

    The shared host this benchmark runs on changes speed by tens of percent
    over minutes.  The gauge is timed after the set-up samples and before
    every round, and a run's times are scaled by ``REF_GAUGE_S`` over the mean
    gauge time of the run, to the power ``GAUGE_EXPONENT``.  The work mirrors the workloads' hot paths:
    float-to-text formatting, a large sparse direct solve and many small
    solves on one factorization.
    """

    def __init__(self):
        import numpy as np
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        def tridiagonal(n):
            return sp.diags([-np.ones(n - 1), 2.5 * np.ones(n), -np.ones(n - 1)],
                            [-1, 0, 1], format="csc")

        # small sizes keep the gauge's memory (about 7 MB) well below the workloads'
        self._spsolve = spla.spsolve
        self._values = np.linspace(0.1, 2.0, 40000)
        self._rhs = np.linspace(0.1, 2.0, 10000)
        self._big = tridiagonal(self._rhs.size)
        self._small = spla.splu(tridiagonal(512))
        self._start = np.linspace(0.1, 2.0, 512)

    def __call__(self) -> float:
        start = time.perf_counter()
        for v in self._values:
            f"{float(v)!r},{float(2 * v)!r}\n"
        y = self._rhs
        for _ in range(12):
            y = self._spsolve(self._big, y)
        z = self._start
        for _ in range(3000):
            z = self._small.solve(z)
            z /= z.sum()
        return time.perf_counter() - start


# ---------------------------------------------------------------------------
# set-up


def import_motorflux():
    """Import motorflux from this checkout's src/; returns (cli module, seconds)."""
    if not (SRC / "motorflux" / "__init__.py").is_file():
        raise SetupError(f"no motorflux package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import motorflux.cli
    elapsed = time.perf_counter() - start
    if Path(motorflux.__file__).resolve().parent != (SRC / "motorflux").resolve():
        raise SetupError(f"motorflux was imported from {motorflux.__file__}, not {SRC}")
    return motorflux.cli, elapsed


def setup_samples(cli, configs: list[Path], import_s: float, probes: int,
                  gauge: HostGauge) -> tuple[list[float], list[float]]:
    """Set-up time: this process's import plus parsing, then ``probes`` fresh interpreters.

    Returns the samples and the host gauge time taken after them.
    """
    start = time.perf_counter()
    for path in configs:
        cli.parse_config(path)
    samples = [import_s + time.perf_counter() - start]
    for _ in range(probes):
        done = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(SRC), *map(str, configs)],
            capture_output=True, text=True, timeout=60, check=False,
        )
        if done.returncode != 0:
            raise SetupError(f"set-up probe failed: {done.stderr.strip()[-400:]}")
        samples.append(float(done.stdout.split()[-1]))
    return samples, [gauge()]


# ---------------------------------------------------------------------------
# rounds


def call_main(cli, argv: list[str]) -> tuple[object, str]:
    """Run one CLI command in-process; returns (exit code, captured stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is a program defect; record it and go on
            code = f"exception {type(exc).__name__}: {exc}"
    return code, err.getvalue().strip()


def run_round(cli, workload, configs, directory: Path, tracer: spans.Tracer,
              traced: bool, reference: dict, gauge_s: float = 0.0) -> Round:
    directory.mkdir(parents=True)
    outs = [directory / f"{i}-{c.verb}-{c.problem.name}" for i, c in enumerate(workload.commands)]
    if traced:
        tracer.install()
    results = []
    try:
        start = time.perf_counter()
        for cmd, out in zip(workload.commands, outs):
            argv = [cmd.verb, "--config", str(configs[cmd.problem.name]), "--out", str(out)]
            if cmd.seed is not None:
                argv += ["--seed", str(cmd.seed)]
            results.append(call_main(cli, argv))
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()

    rnd = Round(wall=wall, gauge=gauge_s, traced=traced)
    written = files = 0
    for cmd, out, (code, stderr) in zip(workload.commands, outs, results):
        errors = checks.check_outputs(cmd.verb, out, math.prod(cmd.problem.cells))
        if code != 0:
            errors.insert(0, f"exit {code}" + (f" ({stderr.splitlines()[-1]})" if stderr else ""))
        digests = checks.digest(out) if out.is_dir() else {}
        written += sum(size for _, size in digests.values())
        files += len(digests)
        differs = reference.setdefault(cmd.label, digests) != digests
        if differs:
            errors.append("outputs differ from the first round with the same seed")
        rnd.commands.append(CommandResult(cmd.label, code, errors, differs))
    shutil.rmtree(directory)
    if traced:
        rnd.layer = layer_metrics(tracer, wall, written, files)
    return rnd


def layer_metrics(tracer: spans.Tracer, wall: float, written: int, files: int) -> dict:
    self_s = tracer.self_times()
    steps = tracer.counts.get("evolve.steps", 0)
    pct = 100.0 / wall
    return {
        "cli.self_s": self_s["cli"],
        "cli.parse_config_s": tracer.total("cli.parse_config", self_only=True),
        "cli.bytes_written": written,
        "cli.files_written": files,
        "model.validate_s": tracer.total("model.validate"),
        "model.initial_state_s": tracer.total("model.initial_state"),
        "discretize.assemble_s": self_s["discretize"],
        "discretize.nnz": tracer.counts.get("discretize.nnz", 0),
        "evolve.self_s": self_s["evolve"],
        "evolve.steps": steps,
        "evolve.step_ms": 1e3 * self_s["evolve"] / steps if steps else 0.0,
        "evolve.unknowns": tracer.counts.get("evolve.unknowns", 0),
        "steady.solve_pct": pct * tracer.total("steady.solve_null_vector"),
        "steady.sweeps": tracer.counts.get("steady.sweeps", 0),
        "steady.failures": tracer.failures("steady.solve_null_vector"),
        "verify.self_pct": pct * self_s["verify"],
        "verify.trajectories": tracer.counts.get("verify.trajectories", 0),
        "verify.oracle_pct": pct * tracer.total("verify.oracle_expm"),
        "trace.wall_s": wall,
        "trace.uncovered_s": wall - tracer.root_time(),
        # self seconds of every layer, for the report only: a layer that a
        # workload never calls reads 0 there, so the gated metrics use shares
        **{f"{layer}.layer_self_s": t for layer, t in self_s.items()},
    }


def warm_up(cli, name: str, seed: int, work: Path) -> None:
    """One untimed, unchecked round of the workload at tiny grid sizes.

    It runs every code path of a round once, so lazy imports and first-call
    costs fall outside the timed rounds.
    """
    tiny = workloads.build(name, seed, tiny=True)
    configs = workloads.write_configs(tiny, work / "configs")
    run_round(cli, tiny, configs, work / "round", spans.Tracer(), False, {})
    shutil.rmtree(work)


def run_rounds(cli, workload, configs, seconds: float, trace: bool, work: Path,
               gauge: HostGauge):
    """Rounds until the next would end after ``seconds``; odd rounds traced if ``trace``."""
    tracer = spans.Tracer()
    rounds: list[Round] = []
    reference: dict = {}
    start = time.perf_counter()
    while True:
        traced = trace and len(rounds) % 2 == 1
        rounds.append(run_round(cli, workload, configs, work / f"round{len(rounds)}",
                                tracer, traced, reference, gauge()))
        elapsed = time.perf_counter() - start
        typical = statistics.median(r.wall for r in rounds)
        if elapsed > HARD_STOP_S:
            break
        if len(rounds) >= MIN_ROUNDS and elapsed + typical > seconds:
            break
    return rounds, tracer.absent


# ---------------------------------------------------------------------------
# reporting


def problem_sizes(workload, configs) -> dict:
    """Unknowns and assembled nonzeros of each generated problem (outside timing)."""
    import motorflux

    sizes = {}
    for p in workload.problems:
        spec = motorflux.cli.parse_config(configs[p.name]).problem
        try:
            if spec.is_linear:
                nnz = int(motorflux.assemble_system(spec).matrix.nnz)
            else:
                nnz = sum(int(motorflux.assemble_transport(spec.grid, sp.sigma,
                                                           sp.potential).matrix.nnz)
                          for sp in spec.species)
        except (AttributeError, TypeError):  # assembly API changed: size unknown
            nnz = None
        sizes[p.name] = {"cells": list(p.cells), "species": p.species,
                         "unknowns": p.unknowns, "nnz": nnz, "steps": p.steps}
    return sizes


def environment(workload, configs, rounds, setup, absent) -> dict:
    import numpy
    import scipy

    src_lines = sum(len(path.read_text().splitlines())
                    for path in sorted((SRC / "motorflux").rglob("*.py")))
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "MOTORFLUX_THREADS": os.environ.get("MOTORFLUX_THREADS"),
        "src_lines": src_lines,
        "problems": problem_sizes(workload, configs),
        "rounds": len(rounds),
        "traced_rounds": sum(r.traced for r in rounds),
        "round_walls_s": [r.wall for r in rounds],
        "gauge_s": [r.gauge for r in rounds],
        "ref_gauge_s": REF_GAUGE_S,
        "gauge_exponent": GAUGE_EXPONENT,
        "setup_samples_s": setup[0],
        "setup_gauge_s": setup[1],
        "absent_traced_names": absent,
    }


def metric(name: str, value: float) -> dict:
    return {"value": value, "unit": UNITS[name]}


def summarize(workload, rounds, setup, trace: bool) -> dict:
    attempted = sum(len(r.commands) for r in rounds)
    failed = sum(c.failed for r in rounds for c in r.commands)
    # A reported failure (nonzero exit) is counted in ``failed``; ``correct``
    # turns false when the program is wrong without saying so: an exit 0
    # whose outputs break a gate, or outputs that differ between rounds.
    correct = not any((c.exit_code == 0 and c.errors) or c.differs
                      for r in rounds for c in r.commands)
    if not trace:
        wall = statistics.median(r.wall for r in rounds)
        setup_raw = statistics.median(setup[0])
        gauge = statistics.fmean([*setup[1], *(r.gauge for r in rounds)])
        speed = (REF_GAUGE_S / gauge) ** GAUGE_EXPONENT
        values = {
            "wall_s": wall,
            "cell_steps_per_s": workload.cell_steps / wall,
            "wall_ref_s": wall * speed,
            "cell_steps_per_ref_s": workload.cell_steps / (wall * speed),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "setup_s": setup_raw * speed,
            "setup_raw_s": setup_raw,
            "gauge_s": gauge,
        }
    else:
        traced = [r.layer for r in rounds if r.traced]
        values = {k: statistics.median(t[k] for t in traced) for k in traced[0]}
        values["trace.overhead_s"] = (statistics.median(r.wall for r in rounds if r.traced)
                                      - statistics.median(r.wall for r in rounds if not r.traced))
    return {"correct": correct, "attempted": attempted, "failed": failed, "values": values}


def print_report(name, seed, trace, rounds, summary) -> None:
    values = summary["values"]
    print(f"perfbench workload={name} seed={seed} trace={int(trace)} rounds={len(rounds)}")
    if not trace:
        print(f"  wall_s                {values['wall_s']:.4f} s  (median of {len(rounds)} rounds;"
              f" mean host gauge {values['gauge_s']:.4f} s, reference {REF_GAUGE_S} s)")
        print(f"  cell_steps_per_s      {values['cell_steps_per_s']:.4g} 1/s")
        print(f"  wall_ref_s            {values['wall_ref_s']:.4f} s  (at reference host speed)")
        print(f"  cell_steps_per_ref_s  {values['cell_steps_per_ref_s']:.4g} 1/s")
        print(f"  failed_frac           {summary['failed'] / summary['attempted']:.4g}"
              f"  ({summary['failed']} failed of {summary['attempted']} commands)")
        print(f"  peak_rss_mb           {values['peak_rss_mb']:.1f} MB")
        print(f"  setup_s               {values['setup_s']:.4f} s  (median of "
              f"{SETUP_PROBES + 1} set-ups at reference host speed; "
              f"{values['setup_raw_s']:.4f} s as measured)")
    else:
        n = sum(r.traced for r in rounds)
        print(f"  per-layer medians over {n} traced rounds "
              f"({len(rounds) - n} untraced rounds for the overhead)")
        for key in PER_LAYER:
            print(f"  {key:22s} {values[key]:.6g} {UNITS[key]}")
        layers = {k.split(".")[0]: v for k, v in values.items() if k.endswith(".layer_self_s")}
        print("  layer self times (s): "
              + ", ".join(f"{layer} {t:.4f}" for layer, t in layers.items())
              + f"; sum {sum(layers.values()):.4f} of traced wall {values['trace.wall_s']:.4f},"
              f" uncovered {values['trace.uncovered_s']:.4f}")
    seen = set()
    for r in rounds:
        for c in r.commands:
            if c.failed and c.label not in seen:
                seen.add(c.label)
                print(f"  FAILED {c.label}: {'; '.join(c.errors)}")


def run_workload(name: str, seed: int, seconds: float, trace: bool, tiny: bool) -> dict:
    cli, import_s = import_motorflux()
    gauge = HostGauge()
    workload = workloads.build(name, seed, tiny=tiny)
    work = WORK / f"{name}-s{seed}-t{int(trace)}-p{os.getpid()}"
    if work.exists():
        shutil.rmtree(work)
    try:
        configs = workloads.write_configs(workload, work / "configs")
        # set-up is an end-to-end metric; a traced run only records its own
        setup = setup_samples(cli, list(configs.values()), import_s,
                              0 if trace else SETUP_PROBES, gauge)
        warm_up(cli, name, seed, work / "warmup")
        rounds, absent = run_rounds(cli, workload, configs, seconds, trace, work, gauge)
        summary = summarize(workload, rounds, setup, trace)
        print_report(name, seed, trace, rounds, summary)
        print("perfbench-env " + json.dumps(environment(workload, configs, rounds, setup, absent),
                                            sort_keys=True))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    wanted = PER_LAYER if trace else END_TO_END
    return {
        "correct": summary["correct"],
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {k: metric(k, summary["values"][k]) for k in wanted},
    }


def run_all(seed: int, seconds: float, tiny: bool) -> dict:
    """Every workload, untraced then traced, each in its own process."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        for trace in (0, 1):
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            if tiny:
                argv.append("--tiny")
            done = subprocess.run(argv, capture_output=True, text=True, timeout=180, check=False)
            lines = done.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0 or not lines:
                raise SetupError(f"{name} trace={trace} exited {done.returncode}: "
                                 f"{done.stderr.strip()[-400:]}")
            result = json.loads(lines[-1])
            total["correct"] = total["correct"] and result["correct"]
            if not trace:
                total["attempted"] += result["attempted"]
                total["failed"] += result["failed"]
            for key, value in result["metrics"].items():
                total["metrics"][f"{name}.{key}"] = value
    return total


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every grid (smoke tests only; not a benchmark size)")
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            result = run_all(args.seed, args.seconds, args.tiny)
        else:
            result = run_workload(args.workload, args.seed, args.seconds,
                                  bool(args.trace), args.tiny)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
