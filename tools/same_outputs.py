"""Compare the CLI outputs of two motorflux source trees, command by command.

    python3 tools/same_outputs.py PARENT_SRC CHANGE_SRC [CONFIG ...]

PARENT_SRC and CHANGE_SRC are directories that hold the ``motorflux``
package (a checkout's ``src/``).  The script runs every command of the
benchmark workloads ``snap1d``, ``imex1d`` and ``stationary1d`` at seeds 1
and 2, with the configs that ``perfbench/workloads.py`` generates, and all
six commands on each extra CONFIG file.  Every run is a fresh interpreter
with the tree on PYTHONPATH.  It prints each difference in exit code, stdout
or stderr (with the output directory masked) or the bytes of an output file.
It also prints each ``.ndjson`` output of either tree that holds a
non-finite JSON number (``Infinity``, ``-Infinity`` or ``NaN``), even where
both trees agree, since a gate that reads such a number can pass vacuously.
It exits 1 if there is any such line, 0 if there is none.  For an output file
that differs only in its numbers (both hold the same count of them) it prints
the largest absolute and relative change of a number.  It ends with the
line count of ``motorflux/*.py`` in each tree, which sets no exit status.
It reads ``perfbench/workloads.py`` and writes nothing under ``perfbench/``.
"""

from __future__ import annotations

import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMANDS = ("simulate", "steady", "verify-contraction", "verify-comparison",
            "verify-convergence", "oracle-compare")
SEEDS = (1, 2)

sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
import workloads  # noqa: E402  (perfbench/workloads.py, read only)


def runs(work: Path, configs: list[str]):
    """(label, argv without --out) of every command to compare."""
    for name in workloads.NAMES:
        for seed in SEEDS:
            workload = workloads.build(name, seed)
            paths = workloads.write_configs(workload, work / f"{name}-{seed}")
            for i, cmd in enumerate(workload.commands):
                argv = [cmd.verb, "--config", str(paths[cmd.problem.name])]
                if cmd.seed is not None:
                    argv += ["--seed", str(cmd.seed)]
                yield f"{name} seed {seed} #{i} {cmd.label}", argv
    for config in configs:
        for verb in COMMANDS:
            yield f"{config} {verb}", [verb, "--config", str(Path(config).resolve())]


def run(src: Path, argv: list[str], out: Path) -> dict:
    """Exit code, masked stdout and stderr, and the bytes of every output file."""
    env = dict(os.environ, PYTHONPATH=str(src.resolve()))
    done = subprocess.run([sys.executable, "-m", "motorflux.cli", *argv, "--out", str(out)],
                          capture_output=True, text=True, env=env, check=False)
    files = {str(p.relative_to(out)): p.read_bytes()
             for p in sorted(out.rglob("*")) if p.is_file()} if out.is_dir() else {}
    return {"exit code": done.returncode,
            "stdout": done.stdout.replace(str(out), "<OUT>"),
            "stderr": done.stderr.replace(str(out), "<OUT>"),
            "files": files}


def largest_change(a: bytes, b: bytes) -> str:
    """The largest absolute and relative change between the numbers of two
    texts, or "" if either is not ASCII or their counts of numbers differ."""
    # a decimal number that is not part of a name such as ``species_1``
    number = re.compile(r"(?<![\w.])[-+]?(?:(?:\d+\.?\d*|\.\d+)(?:e[-+]?\d+)?(?![\w.])"
                        r"|(?:inf(?:inity)?|nan)\b)", re.I)
    try:
        x, y = ([float(t) for t in number.findall(text.decode("ascii"))] for text in (a, b))
    except UnicodeDecodeError:
        return ""
    pairs = [(p, q) for p, q in zip(x, y) if p != q and not (math.isnan(p) and math.isnan(q))]
    if len(x) != len(y) or not pairs:
        return ""
    absolute = max(abs(p - q) for p, q in pairs)
    relative = max(abs(p - q) / max(abs(p), abs(q)) for p, q in pairs)
    return f", largest change {absolute:.3e} absolute, {relative:.3e} relative"


#: a non-finite number as Python's json writes it, outside any string
NON_FINITE = re.compile(rb"(?<=[\[:,\s])-?(?:Infinity|NaN)(?=[\],}\s])")


def non_finite(tree: str, result: dict) -> list[str]:
    """A line for each .ndjson output of one tree that holds a non-finite number."""
    return [f"file {name} of the {tree} tree holds {match.group().decode()}"
            for name, data in result["files"].items()
            if name.endswith(".ndjson") and (match := NON_FINITE.search(data))]


def differences(a: dict, b: dict) -> list[str]:
    found = [f"{key} differs" for key in ("exit code", "stdout", "stderr") if a[key] != b[key]]
    for name in sorted(a["files"].keys() | b["files"].keys()):
        if a["files"].get(name) != b["files"].get(name):
            found.append(f"file {name} differs{largest_change(a['files'][name], b['files'][name])}"
                         if name in a["files"] and name in b["files"]
                         else f"file {name} only in one tree")
    return found


def line_count(src: Path) -> int:
    """Lines of the ``motorflux`` package's modules in one tree, as ``wc -l`` counts them."""
    return sum(path.read_bytes().count(b"\n") for path in (src / "motorflux").glob("*.py"))


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) < 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    parent, change, configs = Path(args[0]), Path(args[1]), args[2:]
    count = failed = flagged = 0
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        work = Path(tmp)
        for label, cmd in runs(work, configs):
            count += 1
            a = run(parent, cmd, work / f"parent-{count}")
            b = run(change, cmd, work / f"change-{count}")
            found = differences(a, b)
            bad = non_finite("parent", a) + non_finite("change", b)
            failed += bool(found)
            flagged += bool(bad)
            print(f"{'DIFF' if found else 'same'}  exit {a['exit code']}/{b['exit code']}  "
                  f"{label}" + "".join(f"\n      {text}" for text in found + bad), flush=True)
    print(f"{count} commands, {failed} with differences, {flagged} with non-finite JSON")
    print(f"motorflux/*.py: {line_count(parent)} lines in the parent tree, "
          f"{line_count(change)} in the change tree")
    return 1 if failed or flagged else 0


if __name__ == "__main__":
    sys.exit(main())
