"""Independent checks of the files one CLI command wrote.

The checks read only the output files and never trust the exit code, so a
command that exits 0 with a broken output still counts as failed.  The gates
are the program's own, unchanged: weighted-mass drift <= 1e-11 relative,
minima >= -1e-13, ``"pass": true`` in every check report.  Byte-identity of
outputs across rounds is checked by comparing the digests from ``digest``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

MASS_DRIFT_TOL = 1e-11
MIN_TOL = -1e-13
#: stationary profile is scaled so that cell_volume * sum(v) == 1 ('total')
NORMALIZATION_TOL = 1e-10


def digest(directory: Path) -> dict[str, tuple[str, int]]:
    """File name -> (sha256, size) for every file the command wrote."""
    out = {}
    for path in sorted(directory.iterdir()):
        data = path.read_bytes()
        out[path.name] = (hashlib.sha256(data).hexdigest(), len(data))
    return out


def _check_simulate(directory: Path, cells: int) -> list[str]:
    manifest = directory / "manifest.ndjson"
    if not manifest.is_file():
        return ["manifest.ndjson missing"]
    errors = []
    records = [json.loads(line) for line in manifest.read_text().splitlines() if line]
    if not records:
        return ["manifest.ndjson is empty"]
    if [r["index"] for r in records] != list(range(len(records))):
        errors.append("manifest indices are not 0..k")
    masses = [r["mass"] for r in records]
    drift = max(abs(m - masses[0]) for m in masses) / max(abs(masses[0]), 1e-300)
    if not drift <= MASS_DRIFT_TOL:
        errors.append(f"mass drift {drift:.3e} > {MASS_DRIFT_TOL:g}")
    low = min(min(r["min"]) for r in records)
    if not low >= MIN_TOL:
        errors.append(f"minimum {low!r} < {MIN_TOL:g}")
    snapshots = sorted(directory.glob("snapshot_*.csv"))
    if len(snapshots) != len(records):
        errors.append(f"{len(snapshots)} snapshot files for {len(records)} manifest records")
    for snap in snapshots:
        with open(snap, "rb") as fh:
            rows = sum(chunk.count(b"\n") for chunk in iter(lambda: fh.read(1 << 20), b""))
        if rows != cells + 1:
            errors.append(f"{snap.name}: {rows} lines, expected {cells + 1}")
            break
    return errors


def _check_steady(directory: Path, cells: int) -> list[str]:
    summary = directory / "steady.ndjson"
    profile = directory / "stationary.csv"
    if not summary.is_file() or not profile.is_file():
        return ["steady.ndjson or stationary.csv missing"]
    lines = profile.read_text().splitlines()
    values = [float(v) for line in lines[1:] for v in line.split(",")[1:]]
    if len(lines) != cells + 1 or not values:
        return [f"stationary.csv has {len(lines)} lines, expected {cells + 1}"]
    errors = []
    if min(values) <= 0.0:
        errors.append(f"stationary profile not strictly positive (min {min(values)!r})")
    total = sum(values) / cells
    if abs(total - 1.0) > NORMALIZATION_TOL:
        errors.append(f"stationary profile integrates to {total!r}, expected 1")
    record = json.loads(summary.read_text())
    if record.get("normalization") != "total":
        errors.append(f"normalization {record.get('normalization')!r}, expected 'total'")
    return errors


def _check_reports(directory: Path) -> list[str]:
    reports = sorted(directory.glob("check_*.ndjson"))
    if not reports:
        return ["no check_*.ndjson written"]
    errors = []
    for path in reports:
        for line in path.read_text().splitlines():
            if line and json.loads(line).get("pass") is not True:
                errors.append(f"{path.name}: \"pass\" is not true")
    return errors


def check_outputs(verb: str, directory: Path, cells: int) -> list[str]:
    """Violations found in the outputs of one command (empty when correct)."""
    if not directory.is_dir():
        return ["no output directory"]
    try:
        if verb == "simulate":
            return _check_simulate(directory, cells)
        if verb == "steady":
            return _check_steady(directory, cells)
        return _check_reports(directory)
    except (OSError, ValueError, KeyError, TypeError) as err:
        return [f"unreadable output: {err!r}"]
