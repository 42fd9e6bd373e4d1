"""Smoke tests of the benchmark harness at tiny sizes.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import run as bench  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600, check=False)


def test_every_metric_is_printed_for_every_workload():
    done = _run("--workload", "all", "--seed", "3", "--seconds", "0.1", "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = _spec()
    expected = {f"{w}.{m['name']}": m["unit"]
                for w in workloads.NAMES
                for m in spec["end_to_end"] + spec["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name in [m["name"] for m in spec["end_to_end"]] + ["failed_frac"]:
        assert f"  {name} " in done.stdout
    assert {w["name"] for w in spec["workloads"]} == set(workloads.NAMES)


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_single_workload_prints_exactly_its_metrics(trace, key):
    done = _run("--workload", "stationary1d", "--seed", "5", "--seconds", "0.1",
                "--trace", str(trace), "--tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert list(result["metrics"]) == [m["name"] for m in _spec()[key]]
    assert result["attempted"] >= 8 and result["correct"] is True
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def _tampering_main(real_main, tamper):
    def main(argv):
        code = real_main(argv)
        tamper(Path(argv[argv.index("--out") + 1]))
        return code
    return main


def _round_with(tamper, workload_name, tmp_path, monkeypatch):
    cli, _ = bench.import_motorflux()
    workload = workloads.build(workload_name, seed=1, tiny=True)
    configs = workloads.write_configs(workload, tmp_path / "configs")
    monkeypatch.setattr(cli, "main", _tampering_main(cli.main, tamper))
    rnd = bench.run_round(cli, workload, configs, tmp_path / "round", spans.Tracer(),
                          traced=False, reference={})
    return workload, rnd


def _raise_mass(out: Path):
    manifest = out / "manifest.ndjson"
    if manifest.is_file():
        lines = [json.loads(line) for line in manifest.read_text().splitlines()]
        lines[-1]["mass"] *= 1.0 + 1e-6
        manifest.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in lines))


def _flip_pass(out: Path):
    for path in out.glob("check_*.ndjson"):
        path.write_text(path.read_text().replace('"pass": true', '"pass": false'))


def test_tampered_manifest_counts_as_failed(tmp_path, monkeypatch):
    workload, rnd = _round_with(_raise_mass, "snap1d", tmp_path, monkeypatch)
    [cmd] = rnd.commands
    assert cmd.exit_code == 0 and cmd.failed
    assert any("mass drift" in e for e in cmd.errors)
    summary = bench.summarize(workload, [rnd], ([1.0], [bench.REF_GAUGE_S]), trace=False)
    assert summary["failed"] == summary["attempted"] == 1
    assert summary["correct"] is False


def test_tampered_check_file_counts_as_failed(tmp_path, monkeypatch):
    workload, rnd = _round_with(_flip_pass, "imex1d", tmp_path, monkeypatch)
    failed = {c.label for c in rnd.commands if c.failed}
    assert failed == {"verify-contraction:imex", "verify-comparison:imex"}
    assert all(c.exit_code == 0 for c in rnd.commands)


def test_untampered_outputs_pass_their_checks(tmp_path, monkeypatch):
    _, rnd = _round_with(lambda out: None, "stationary1d", tmp_path, monkeypatch)
    assert [c.errors for c in rnd.commands] == [[], [], [], []]


def test_missing_traced_names_are_recorded_absent():
    import motorflux.cli

    original = motorflux.cli.main
    tracer = spans.Tracer()
    tracer.install(traced=(("motorflux.cli", "main", "cli"),
                           ("motorflux.steady", "no_such_solver", "steady"),
                           ("motorflux._no_such_module", "pmap", "evolve")),
                   sweep=("motorflux.steady", "no_such_factorization"))
    try:
        assert tracer.absent == ["motorflux.steady.no_such_solver",
                                 "motorflux._no_such_module.pmap",
                                 "motorflux.steady.no_such_factorization"]
        assert motorflux.cli.main is not original
    finally:
        tracer.uninstall()
    assert motorflux.cli.main is original


def test_configs_follow_the_seed():
    for name in workloads.NAMES:
        a, b = workloads.build(name, 7), workloads.build(name, 7)
        c = workloads.build(name, 8)
        assert [p.ini() for p in a.problems] == [p.ini() for p in b.problems]
        assert [p.ini() for p in a.problems] != [p.ini() for p in c.problems]
        assert a.commands == b.commands


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    done = _run("--workload", "snap1d", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
    assert not (tmp_path / ".perfbench_work").exists()
