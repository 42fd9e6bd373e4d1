import contextlib
import dataclasses
import gc
import importlib.util
import io
import json
import math
import re
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, event, example, given, settings, strategies as st

from motorflux import Grid, State, weighted_mass
import motorflux.cli
from motorflux.cli import _write_state_csv, format_effective_config, main, parse_config
import motorflux.evolve
from motorflux.evolve import run_batch
from motorflux.model import MAX_2D_BLOCK_ENTRIES, MAX_UNKNOWNS
import motorflux.errors
from motorflux.errors import (
    ConfigError,
    MotorfluxError,
    NonConvergenceError,
    SolverError,
    StepSizeError,
)

from reversible_oracle import reversible_pair

MOTOR_CONFIG = """\
[domain]
lo = 0.0
hi = 1.0
cells = 64

[species.1]
sigma = 1.0
alpha = 1.0
potential.kind = zero
initial.kind = cosine
initial.params = amplitude=0.4, offset=1.0, period=1.0

[species.2]
sigma = 1.0
alpha = 1.0
potential.kind = zero
initial.kind = cosine
initial.params = amplitude=0.3, offset=1.0, period=0.5

[coupling]
row.1 = -1.0, 1.0
row.2 = 1.0, -1.0

[time]
dt = 0.01
t_end = 1.0
stride = 10
"""

SAWTOOTH_SINGLE = """\
[domain]
lo = 0.0
hi = 1.0
cells = 64

[species.1]
sigma = 0.8
alpha = 1.0
potential.kind = sawtooth_smoothed
potential.params = amplitude=0.6, period=1.0
initial.kind = linear
initial.params = offset=1.0

[coupling]
row.1 = 0.0

[time]
dt = 0.05
t_end = 0.5
"""

SAWTOOTH_MOTOR_CONFIG = """\
[domain]
lo = 0.0
hi = 1.0
cells = 64

[species.1]
sigma = 1.0
alpha = 1.0
potential.kind = sawtooth_smoothed
potential.params = amplitude=0.5, period=1.0
initial.kind = linear
initial.params = offset=1.0

[species.2]
sigma = 0.8
alpha = 1.5
potential.kind = sawtooth_smoothed
potential.params = amplitude=0.5, period=1.0, phase=0.3
initial.kind = linear
initial.params = offset=1.0

[coupling]
row.1 = -1.0, 2.0
row.2 = 1.0, -2.0

[time]
dt = 0.05
t_end = 0.5
"""

REVERSIBLE_CONFIG = """\
[domain]
lo = 0.0
hi = 1.0
cells = 32

[species.1]
sigma = 1.0
alpha = 1.0
potential.kind = zero
reaction.kind = power
reaction.params = exponent=2.0
initial.kind = cosine
initial.params = amplitude=0.5, offset=1.0

[species.2]
sigma = 1.0
alpha = 1.0
potential.kind = zero
reaction.kind = linear
initial.kind = cosine
initial.params = amplitude=0.3, offset=1.0, period=0.5

[coupling]
row.1 = -1.0, 1.0
row.2 = 1.0, -1.0

[time]
dt = 0.05
t_end = 50.0
stride = 100
"""


#: strongly connected, but species 2 is fed only through lam_23 = 1e-17, far
#: below the O(1) rates beside it; its stationary ratio u2/u3 is 1e-17
LAMBDA23_CONFIG = """\
[domain]
lo = 0.0
hi = 1.0
cells = 2

[species.1]
sigma = 1.0
alpha = 1.0
initial.kind = linear
initial.params = offset=1.0

[species.2]
sigma = 1.0
alpha = 1.0
initial.kind = linear
initial.params = offset=1.0

[species.3]
sigma = 1.0
alpha = 1.0
initial.kind = linear
initial.params = offset=1.0

[coupling]
row.1 = -2.0, 1.0, 1.0
row.2 = 0.0, -1.0, 1e-17
row.3 = 2.0, 0.0, -1.0

[time]
dt = 0.05
t_end = 40.0
stride = 100
"""


#: found by the property test: its data have zeros and an entry of 1e-234;
#: halving the whole continuation step to keep that entry positive shrank
#: the step to nothing, and a stop on the update alone took that for
#: convergence with a residual of 1.5
VANISHING_STEP_CONFIG = """\
[domain]
lo = -3.0
hi = 2.0
cells = 3
[species.1]
sigma = 1.0
alpha = 1.0
potential.kind = cosine
initial.kind = tabulated
initial.params = xs=0.0 1.25 1.5 1.75 2.0, values=0.03125 0.0 0.0 0.0 0.0
reaction.kind = power
reaction.params = exponent=2.0
[species.2]
sigma = 1.0
alpha = 1.0
potential.kind = cosine
initial.kind = cosine
initial.params = amplitude=0.0, offset=1.0
reaction.kind = power
reaction.params = exponent=2.0
[species.3]
sigma = 1.0
alpha = 1.0
potential.kind = linear
initial.kind = tabulated
initial.params = xs=0.0 0.25 0.5, values=1.0 0.0 2.8226965093797884e-234
[species.4]
sigma = 1.0
alpha = 1.0
potential.kind = cosine
initial.kind = cosine
initial.params = amplitude=0.0, offset=1.0
[coupling]
row.1 = -1.0, 0.0, 0.0, 1.0
row.2 = 1.0, -1.0, 0.0, 0.0
row.3 = 0.0, 1.0, -1.0, 0.0
row.4 = 0.0, 0.0, 1.0, -1.0
[time]
dt = 0.1
t_end = 1.0
"""


#: nonlinear data near 1e-300: the continuation increments were subnormal,
#: and their absolute rounding missed the relative backward-error bound
TINY_DATA_CONFIG = """\
[domain]
lo = 0.0
hi = 1.0
cells = 4
[species.1]
sigma = 1.0
alpha = 1.0
potential.kind = cosine
reaction.kind = power
reaction.params = exponent=1.0
[species.2]
sigma = 1.0
alpha = 1.0
potential.kind = linear
initial.kind = tabulated
initial.params = xs=0.0 0.25, values=0.0 1e-300
[coupling]
row.1 = -1.0, 1.0
row.2 = 1.0, -1.0
[time]
dt = 0.1
t_end = 1.0
"""
#: with u1**2 in 2-D: u2 = u1**2 of the exact state, about 1e-600, underflows;
#: the continuation left u2 = 4.6e-316 in every cell
TINY_DATA_2D_CONFIG = (TINY_DATA_CONFIG.replace("lo = 0.0", "lo = 0.0, 0.0")
                       .replace("hi = 1.0", "hi = 1.0, 1.0").replace("cells = 4", "cells = 2, 2")
                       .replace("exponent=1.0", "exponent=2.0"))
#: u2 = u1**2 of the exact stationary state, about 5e-618, underflows; the
#: continuation leaves zeros in u2 (in every cell in 2-D, in two cells in 1-D)
UNDERFLOW_2D_CONFIG = """\
[domain]
lo = 0.0, 0.0
hi = 1.0, 1.0
cells = 2, 2
[species.1]
sigma = 1.0
alpha = 1.0
reaction.kind = power
reaction.params = exponent=2.0
initial.kind = tabulated
initial.params = xs=0.0 0.25, values=0.0 2.225073858507203e-309
[species.2]
sigma = 1.0
alpha = 1.0
[coupling]
row.1 = -1.0, 1.0
row.2 = 1.0, -1.0
[time]
dt = 0.1
t_end = 1.0
"""
UNDERFLOW_1D_CONFIG = (UNDERFLOW_2D_CONFIG.replace("lo = 0.0, 0.0", "lo = 0.0")
                       .replace("hi = 1.0, 1.0", "hi = 1.0").replace("cells = 2, 2", "cells = 4")
                       .replace("[species.2]\nsigma = 1.0\nalpha = 1.0\n",
                                "[species.2]\nsigma = 1.0\nalpha = 1.0\npotential.kind = linear\n"
                                "potential.params = slope=1.0\n"))
#: without species 2's potential the continuation leaves the subnormal
#: u2 = 5e-324 in every cell, where the exact state is about 4e-618
UNDERFLOW_SUBNORMAL_CONFIG = UNDERFLOW_1D_CONFIG.replace(
    "potential.kind = linear\npotential.params = slope=1.0\n", "")
#: what `steady` and `verify-convergence` print for a stationary state that
#: underflows to zero or to a subnormal number
UNDERFLOW_MESSAGE = re.compile(
    r"config error: the stationary state is not resolved in double precision although the "
    r"coupling graph is strongly connected: species (\d+) underflows to (0\.0|[\d.]+e-3\d\d) "
    r"at cell \d+")

#: found by the stepping property test: species 2 gains about 4e-313 from
#: species 1 in one step, and its solve missed the relative LIN_TOL bound in
#: the absolute rounding of subnormal numbers (exit 4)
STEPPING_UNDERFLOW_CONFIG = """\
[domain]
lo = 0.0
hi = 1.5
cells = 2
[species.1]
sigma = 1.0
alpha = 1.0
reaction.kind = power
reaction.params = exponent=1.0
initial.kind = cosine
initial.params = amplitude=1.0, offset=2.0
[species.2]
sigma = 1.0
alpha = 1.0
[species.3]
sigma = 1.0
alpha = 1.0
[coupling]
row.1 = -2.2250738585e-313, 0.0, 0.0
row.2 = 2.2250738585e-313, 0.0, 0.0
row.3 = 0.0, 0.0, 0.0
[time]
dt = 1.0
t_end = 1.0
"""
#: a linear problem whose data lie between 1e-314 and 3e-314
TINY_LINEAR_CONFIG = """\
[domain]
lo = 0.0
hi = 1.0
cells = 8
[species.1]
sigma = 1.0
alpha = 1.0
potential.kind = cosine
potential.params = amplitude=0.5
initial.kind = tabulated
initial.params = xs=0.0 1.0, values=1e-314 3e-314
[species.2]
sigma = 1.0
alpha = 1.0
initial.kind = tabulated
initial.params = xs=0.0 1.0, values=2e-314 1e-314
[coupling]
row.1 = -1.0, 1.0
row.2 = 1.0, -1.0
[time]
dt = 0.1
t_end = 1.0
"""
TINY_LINEAR_2D_CONFIG = (TINY_LINEAR_CONFIG.replace("lo = 0.0", "lo = 0.0, 0.0")
                         .replace("hi = 1.0", "hi = 1.0, 1.0").replace("cells = 8", "cells = 8, 4"))
TINY_LINEAR_32_CONFIG = TINY_LINEAR_2D_CONFIG.replace("cells = 8, 4", "cells = 32, 32")
TINY_CUBIC_32_CONFIG = TINY_LINEAR_32_CONFIG.replace(
    "[species.2]\n", "[species.2]\nreaction.kind = power\nreaction.params = exponent=3.0\n")


_COMMANDS = ("simulate", "steady", "verify-contraction", "verify-comparison",
             "verify-convergence", "oracle-compare")


def write_config(tmp_path, text, name="run.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


MINIMAL_CONFIG = """\
[domain]
lo = 0.0
hi = 1.0
cells = 16

[species.1]
sigma = 1.0
alpha = 1.0
potential.kind = zero
initial.kind = linear
initial.params = offset=1.0

[coupling]
row.1 = 0.0

[time]
dt = 0.1
t_end = 1.0
"""


class TestParseConfig:
    def test_minimal_zero_potential_defaults(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, MINIMAL_CONFIG))
        assert cfg.problem.n_species == 1
        assert cfg.problem.species[0].potential.kind == "zero"
        assert cfg.problem.species[0].reaction.kind == "linear"  # default
        assert cfg.step.stride == 1          # documented default
        assert cfg.out_dir == "out"

    def test_minimal_single_species(self, tmp_path):
        cfg = parse_config(write_config(tmp_path, SAWTOOTH_SINGLE))
        assert cfg.problem.n_species == 1
        assert cfg.step.stride == 1
        assert cfg.out_dir == "out"

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            parse_config(tmp_path / "nope.ini")

    def test_non_utf8_file_exits_2(self, tmp_path, capsys):
        path = tmp_path / "bin.ini"
        path.write_bytes(b"\xff\xfe")
        with pytest.raises(ConfigError, match="UTF-8"):
            parse_config(path)
        assert main(["simulate", "--config", str(path), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "bin.ini" in err and "Traceback" not in err

    def test_unknown_key_is_hard_error(self, tmp_path):
        text = MOTOR_CONFIG.replace("sigma = 1.0", "sigmma = 1.0", 1)
        with pytest.raises(ConfigError, match="sigmma"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_section_is_hard_error(self, tmp_path):
        with pytest.raises(ConfigError, match="extras"):
            parse_config(write_config(tmp_path, MOTOR_CONFIG + "\n[extras]\nfoo = 1\n"))

    def test_column_sum_violation_names_hypothesis(self, tmp_path):
        text = MOTOR_CONFIG.replace("row.1 = -1.0, 1.0", "row.1 = -0.9, 1.0")
        with pytest.raises(ConfigError, match="H2"):
            parse_config(write_config(tmp_path, text))

    def test_unknown_param_rejected(self, tmp_path):
        text = MOTOR_CONFIG.replace("amplitude=0.4", "amplitudde=0.4")
        with pytest.raises(ConfigError, match="amplitudde"):
            parse_config(write_config(tmp_path, text))

    def test_parse_error_reports_line(self, tmp_path):
        with pytest.raises(ConfigError, match="line"):
            parse_config(write_config(tmp_path, "[domain]\nlo 0.0\n"))

    @pytest.mark.parametrize("edits,message", [
        ([("lo = 0.0", "lo = 0.0 zero")], "cannot parse [domain] lo: '0.0 zero'"),
        ([("offset=1.0, period=1.0", "offset 1.0, period=1.0")],
         "[species.1] initial.params: expected name=value, got 'offset 1.0'"),
        ([("period=1.0", "amplitude=0.5")],
         "[species.1] initial.params: duplicate parameter 'amplitude'"),
        ([("initial.kind = cosine\ninitial.params = amplitude=0.4, offset=1.0, period=1.0",
           "initial.kind = tabulated\ninitial.params = xs=0.0 0.5 1.0, values=1.0 2.0")],
         "[species.1] initial: tabulated potential needs matching tables of length >= 2"),
        ([("[species.", "[kind.")], "no [species.N] sections found"),
        ([("[species.2]", "[species.3]")],
         "species sections must be species.1 .. species.2; got ['species.1', 'species.3']"),
        ([("row.1 = -1.0, 1.0", "row.1 = -1.0, 1.0, 0.0")],
         "[coupling] row.1: expected 2 entries, got 3"),
        ([("\n\n[species.2]", "\ninitial2.kind = linear\ninitial2.params = offset=-1.0\n\n"
                               "[species.2]"),
          ("\n\n[coupling]", "\ninitial2.kind = linear\ninitial2.params = offset=1.0\n\n"
                              "[coupling]")],
         "invalid initial2 data: H4: species 1 initial data negative (min -1.0)"),
        ([("potential.kind = zero\ninitial.kind = cosine\ninitial.params = amplitude=0.4",
           "potential.kind = wobble\ninitial.kind = cosine\ninitial.params = amplitude=0.4")],
         "[species.1] potential: unknown kind 'wobble'; expected one of "
         "['cosine', 'linear', 'sawtooth_smoothed', 'tabulated', 'zero']"),
        ([("initial.kind = cosine\ninitial.params = amplitude=0.4, offset=1.0, period=1.0",
           "initial.kind = linear\ninitial.params = slope=1e308, offset=1e308")],
         "invalid problem: H4: species 1 initial data not finite"),
        # a NaN exponent ended in exit 4, an infinite one in a step-size error
        ([("potential.kind = zero", "potential.kind = zero\nreaction.kind = power\n"
                                    "reaction.params = exponent=nan")],
         "invalid problem: H3: species 1 reaction not admissible (p=nan, must be finite and >= 1)"),
        ([("potential.kind = zero", "potential.kind = zero\nreaction.kind = power\n"
                                    "reaction.params = exponent=inf")],
         "invalid problem: H3: species 1 reaction not admissible (p=inf, must be finite and >= 1)"),
        # np.interp reads unsorted xs without a word: these ran to exit 0
        ([("potential.kind = zero",
           "potential.kind = tabulated\npotential.params = xs=0 1 0.5, values=0 1 5")],
         "[species.1] potential: tabulated potential needs strictly increasing xs, "
         "got (0.0, 1.0, 0.5)"),
        ([("potential.kind = zero",
           "potential.kind = tabulated\npotential.params = xs=1 0, values=0 1")],
         "[species.1] potential: tabulated potential needs strictly increasing xs, got (1.0, 0.0)"),
        ([("potential.kind = zero",
           "potential.kind = tabulated\npotential.params = xs=0 nan 1, values=0 1 5")],
         "[species.1] potential: tabulated potential needs strictly increasing xs, "
         "got (0.0, nan, 1.0)"),
        # 1025 terms evaluate at once where they are accepted
        ([("potential.kind = zero",
           "potential.kind = sawtooth_smoothed\npotential.params = terms=1025")],
         "[species.1] potential: sawtooth_smoothed potential needs 1 <= terms <= 1024, got 1025"),
    ], ids=["number-list", "params-entry", "duplicate-param", "table-lengths",
            "no-species", "species-gap", "row-length", "negative-initial2",
            "potential-kind", "non-finite-initial", "exponent-nan", "exponent-inf",
            "xs-unsorted", "xs-decreasing", "xs-nan", "terms-cap"])
    def test_malformed_config_exits_2(self, tmp_path, capsys, edits, message):
        text = MOTOR_CONFIG
        for old, new in edits:
            assert old in text
            text = text.replace(old, new)
        code = main(["verify-contraction", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: {message}" in err, err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    def test_tabulated_profile_parses(self, tmp_path):
        text = SAWTOOTH_SINGLE.replace(
            "potential.kind = sawtooth_smoothed\n"
            "potential.params = amplitude=0.6, period=1.0",
            "potential.kind = tabulated\n"
            "potential.params = xs=0 0.5 1, values=0 1 0")
        cfg = parse_config(write_config(tmp_path, text))
        assert cfg.problem.species[0].potential.table_x == (0.0, 0.5, 1.0)


class TestSimulate:
    def test_t_end_zero_single_snapshot(self, tmp_path, capsys):
        text = SAWTOOTH_SINGLE.replace("t_end = 0.5", "t_end = 0.0")
        code = main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        csvs = sorted((tmp_path / "o").glob("snapshot_*.csv"))
        assert len(csvs) == 1
        manifest = (tmp_path / "o" / "manifest.ndjson").read_text().strip().split("\n")
        assert len(manifest) == 1
        assert json.loads(manifest[0])["time"] == 0.0

    def test_snapshot_count_and_mass_column(self, tmp_path):
        code = main(["simulate", "--config", write_config(tmp_path, MOTOR_CONFIG),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        csvs = list((tmp_path / "o").glob("snapshot_*.csv"))
        assert len(csvs) == 11
        records = [json.loads(line) for line in
                   (tmp_path / "o" / "manifest.ndjson").read_text().strip().split("\n")]
        masses = [r["mass"] for r in records]
        assert max(abs(m - masses[0]) for m in masses) <= 1e-11 * abs(masses[0])

    def test_manifest_describes_each_snapshot(self, tmp_path):
        # the CSV floats round-trip, so the manifest is recomputed from them
        main(["simulate", "--config", write_config(tmp_path, MOTOR_CONFIG),
              "--out", str(tmp_path / "o")])
        spec = parse_config(write_config(tmp_path, MOTOR_CONFIG)).problem
        records = [json.loads(line) for line in
                   (tmp_path / "o" / "manifest.ndjson").read_text().splitlines()]
        assert [r["index"] for r in records] == list(range(11))
        for r in records:
            table = np.loadtxt(tmp_path / "o" / f"snapshot_{r['index']}_t{r['time']!r}.csv",
                               delimiter=",", skiprows=1)
            state = State(spec.grid, table[:, 1:].T, t=r["time"])
            mass = weighted_mass(state, spec)
            assert abs(r["mass"] - mass) <= 1e-13 * max(1.0, abs(mass))
            l1 = spec.grid.cell_volume * np.abs(state.fields).sum(axis=1)
            assert r["l1"] == pytest.approx(l1.tolist(), rel=1e-13)
            assert r["min"] == state.fields.min(axis=1).tolist()

    def test_csv_schema(self, tmp_path):
        main(["simulate", "--config", write_config(tmp_path, MOTOR_CONFIG),
              "--out", str(tmp_path / "o")])
        first = (tmp_path / "o" / "snapshot_0_t0.0.csv").read_text().split("\n")
        assert first[0] == "x,u1,u2"
        row = first[1].split(",")
        assert len(row) == 3
        assert float(row[0]) == pytest.approx(1.0 / 128.0)

    def test_determinism_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, MOTOR_CONFIG)
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "a")])
        main(["simulate", "--config", cfg, "--out", str(tmp_path / "b")])
        files_a = sorted((tmp_path / "a").iterdir())
        files_b = sorted((tmp_path / "b").iterdir())
        assert [f.name for f in files_a] == [f.name for f in files_b]
        for fa, fb in zip(files_a, files_b):
            assert fa.read_bytes() == fb.read_bytes()

    def test_config_error_exit_code(self, tmp_path):
        text = MOTOR_CONFIG.replace("row.1 = -1.0, 1.0", "row.1 = -0.9, 1.0")
        code = main(["simulate", "--config", write_config(tmp_path, text)])
        assert code == 2

    @pytest.mark.parametrize("line", [
        "dt = nan", "dt = inf", "t_end = nan", "t_end = inf",
        # LIN_TOL is fixed: lin_tol is an unknown key, whatever its value
        "lin_tol = nan", "lin_tol = inf", "lin_tol = -1e-12",
        "lin_tol = 1e-12", "lin_tol = 0", "lin_tol = 1e300",
        "stride = 2.5", "stride = inf", "stride = nan", "stride = 0",
        "t_end = 1e300", "dt = 1e-300",
    ])
    def test_bad_time_values_exit_2(self, tmp_path, capsys, line):
        key = line.split(" = ")[0]
        text = "\n".join(ln for ln in MOTOR_CONFIG.split("\n")
                         if not ln.startswith(key + " =")) + line + "\n"
        code = main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("old,new,key", [
        ("cells = 64", "cells = 16.7", "cells"),
        ("potential.kind = zero",
         "potential.kind = sawtooth_smoothed\npotential.params = terms=2.5", "terms"),
        ("potential.kind = zero", "potential.kind = cosine\npotential.params = axis=0.5", "axis"),
        ("potential.kind = zero", "potential.kind = cosine\npotential.params = axis=2", "axis"),
    ])
    def test_non_integer_counts_exit_2(self, tmp_path, capsys, old, new, key):
        text = MOTOR_CONFIG.replace(old, new, 1)
        code = main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert key in err and "integer" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("cells", ["1e12", str(MAX_UNKNOWNS // 2 + 1)])
    def test_too_many_unknowns_exit_2(self, tmp_path, capsys, cells):
        # two species: half the cap plus one cell is one unknown too many
        text = MOTOR_CONFIG.replace("cells = 64", f"cells = {cells}", 1)
        code = main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"exceed the cap of {MAX_UNKNOWNS}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_2d_cap_exits_2_before_sampling(self, tmp_path, capsys, profile_calls, command):
        # one species at 2048^2 is within MAX_UNKNOWNS, but SuperLU's factors would
        # outgrow memory: validate stops it before any profile is sampled
        text = (MINIMAL_CONFIG.replace("lo = 0.0", "lo = 0.0, 0.0")
                .replace("hi = 1.0", "hi = 1.0, 1.0").replace("cells = 16", "cells = 2048, 2048"))
        assert main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == (
            "config error: invalid problem: grid: 2-D, 1 species x 4194304 cells: species x "
            f"unknowns = 4194304 exceed the 2-D cap of {MAX_2D_BLOCK_ENTRIES}\n")
        assert not profile_calls
        assert not (tmp_path / "o").exists()

    def test_mass_failure_names_snapshot(self, tmp_path, capsys, monkeypatch):
        def leaky_run(spec, cfg, initials):
            for k, (state,) in enumerate(run_batch(spec, cfg, initials)):
                yield (state.with_fields(state.fields * (1.0 + 1e-9)) if k == 4 else state,)

        monkeypatch.setattr(motorflux.cli, "run", leaky_run)
        code = main(["simulate", "--config", write_config(tmp_path, MOTOR_CONFIG),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "exceeds 1e-11 at snapshot 4 (t=0.4)" in err

    def test_output_cap_reproducer_exits_2(self, tmp_path, capsys):
        # 1,000,001 snapshots of 65,536 values: terabytes of CSV
        text = (SAWTOOTH_SINGLE.replace("cells = 64", "cells = 65536")
                .replace("dt = 0.05", "dt = 1e-6").replace("t_end = 0.5", "t_end = 1.0"))
        code = main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "65536065536 values" in err
        assert f"the cap of {motorflux.cli.MAX_OUTPUT_VALUES}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("cap,code", [(11 * 128, 0), (11 * 128 - 1, 2)])
    def test_output_cap_counts_snapshots_times_unknowns(self, tmp_path, monkeypatch, cap, code):
        # 100 steps at stride 10 are 11 snapshots of 2 species x 64 cells
        monkeypatch.setattr(motorflux.cli, "MAX_OUTPUT_VALUES", cap)
        assert main(["simulate", "--config", write_config(tmp_path, MOTOR_CONFIG),
                     "--out", str(tmp_path / "o")]) == code
        assert (tmp_path / "o").exists() == (code == 0)

    def test_each_snapshot_is_on_disk_before_the_next_step(self, tmp_path, monkeypatch):
        out = tmp_path / "o"
        seen = []
        step = motorflux.evolve._Stepper.step

        def observed(stepper, u):
            lines = (out / "manifest.ndjson").read_text().splitlines()
            last = json.loads(lines[-1])
            csv = out / f"snapshot_{last['index']}_t{last['time']!r}.csv"
            seen.append((len(lines), last["index"], len(csv.read_text().splitlines()),
                         len(list(out.glob("snapshot_*.csv")))))
            return step(stepper, u)

        monkeypatch.setattr(motorflux.evolve._Stepper, "step", observed)
        assert main(["simulate", "--config", write_config(tmp_path, SAWTOOTH_SINGLE),
                     "--out", str(out)]) == 0
        # step k+1 starts after snapshot k, its 64 rows and its manifest line are written
        assert seen == [(k + 1, k, 65, k + 1) for k in range(10)]

    def test_failure_keeps_the_snapshots_before_it(self, tmp_path, capsys, monkeypatch):
        config = write_config(tmp_path, SAWTOOTH_SINGLE)
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "whole")]) == 0
        capsys.readouterr()
        calls = []
        step = motorflux.evolve._Stepper.step

        def failing(stepper, u):
            calls.append(None)
            if len(calls) == 4:
                raise SolverError("injected failure")
            return step(stepper, u)

        monkeypatch.setattr(motorflux.evolve._Stepper, "step", failing)
        assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 4
        assert capsys.readouterr().err == "solver failure: injected failure (at t = 0.2)\n"
        # snapshots 0-3 and their manifest lines, as the whole run wrote them
        whole = (tmp_path / "whole" / "manifest.ndjson").read_text().splitlines(keepends=True)
        assert (tmp_path / "o" / "manifest.ndjson").read_text() == "".join(whole[:4])
        kept = sorted(f.name for f in (tmp_path / "o").glob("snapshot_*.csv"))
        assert len(kept) == 4
        for name in kept:
            assert (tmp_path / "o" / name).read_bytes() == (tmp_path / "whole" / name).read_bytes()

    def test_non_finite_tol_flag_exits_2(self, tmp_path, capsys):
        # no flag or key sets a tolerance: LIN_TOL and the check gates are fixed
        with pytest.raises(SystemExit) as exit_:
            main(["simulate", "--config", write_config(tmp_path, MOTOR_CONFIG),
                  "--out", str(tmp_path / "o"), "--tol", "nan"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --tol nan" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_help_names_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        for name, text in [
            ("simulate", "run the time evolution and write snapshots"),
            ("steady", "compute a stationary state"),
            ("verify-contraction", "check that the weighted L1 distance of two runs never grows"),
            ("verify-comparison", "check cellwise ordering and nonnegativity"),
            ("verify-convergence", "check decay towards the stationary target"),
            ("oracle-compare", "compare the stepper against the dense exponential"),
        ]:
            assert re.search(rf"^  {name} +{text}$", out, re.MULTILINE), (name, out)

    @pytest.mark.parametrize("argv, message", [
        (["simulated", "--config", "run.ini"], "argument command: invalid choice: 'simulated'"),
        (["steady"], "the following arguments are required: --config"),
        ([], "the following arguments are required: command, --config"),
    ], ids=["unknown-command", "missing-config", "nothing"])
    def test_bad_arguments_exit_2(self, capsys, argv, message):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "steady"])
    @pytest.mark.parametrize("old,new,hypothesis", [
        ("row.2 = 1.0, -1.0", "row.2 = nan, -1.0", "H2"),
        ("alpha = 1.0", "alpha = inf", "H1"),
        ("sigma = 1.0", "sigma = inf", "H1"),
        ("alpha = 1.0", "alpha = 1e-320", "H1"),  # 1/alpha, the mass weight, overflows
        ("potential.kind = zero", "potential.kind = cosine\npotential.params = period=0.0", "H3"),
    ])
    def test_non_finite_problem_values_exit_2(self, tmp_path, capsys, command,
                                              old, new, hypothesis):
        text = MOTOR_CONFIG.replace(old, new, 1)
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert hypothesis in err and "finite" in err
        assert "Traceback" not in err


MOTOR_8 = MOTOR_CONFIG.replace("cells = 64", "cells = 8").replace("t_end = 1.0", "t_end = 0.1")

#: each removed key's section and the command that read it
_KEY_COMMANDS = {
    "normalization": ("steady", "steady"),
    "tol": ("steady", "steady"),
    "threshold": ("verify", "verify-convergence"),
    "oracle_t": ("verify", "oracle-compare"),
}

_SMALL_VALUES = st.one_of(
    st.floats(min_value=-10.0, max_value=10.0),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-320, 1e400]),
    st.integers(min_value=-5, max_value=30).map(lambda k: k * 0.1),
    st.integers(min_value=1, max_value=30).map(lambda k: k * 0.1 + 0.03),
)
#: wild draws per number (None: every other number).  Finite draws stay within
#: 10, or dt at 0.01 and up, unless the number is an amplitude: cells, terms
#: and t_end/dt have no cap below MAX_UNKNOWNS and MAX_STEPS, so a huge count
#: allocates or loops for as long as it asks
_WILD_NUMBERS = {
    None: _SMALL_VALUES,
    "amplitude": st.one_of(_SMALL_VALUES, st.sampled_from([1e100, 1e200, 1e308, -1e308]),
                           st.floats(min_value=-1e308, max_value=1e308)),
    "dt": st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-320, -1.0]),
                    st.floats(min_value=0.01, max_value=10.0)),
}
_WILD_TEXTS = {"dir": ["out"]}

#: admissible potential parameters; an initial profile also gets the offset it needs
_PARAM_VALUES = {
    "slope": st.floats(-2.0, 2.0), "amplitude": st.floats(-2.0, 2.0),
    "period": st.floats(0.1, 5.0), "phase": st.floats(-1.0, 1.0),
    "offset": st.floats(-2.0, 2.0), "axis": st.integers(0, 1), "terms": st.integers(1, 8),
}


def _numbers(draw, values, count: int) -> str:
    return ", ".join(repr(v) for v in draw(st.lists(values, min_size=count, max_size=count)))


def _profile_params(draw, kind: str, bound: float, nonnegative: bool) -> dict[str, str]:
    """Admissible params of a potential (or, ``nonnegative``, initial) profile
    on a domain within [-bound, bound]."""
    names = motorflux.cli._POTENTIAL_PARAMS.kinds[kind]
    params = {name: repr(draw(_PARAM_VALUES[name])) for name in names
              if name in _PARAM_VALUES and draw(st.booleans())}
    if kind == "tabulated":
        xs = sorted(draw(st.lists(st.integers(-60, 60), min_size=2, max_size=5, unique=True)))
        params["xs"] = " ".join(repr(k / 4) for k in xs)
        params["values"] = _numbers(draw, st.floats(0.0 if nonnegative else -5.0, 5.0),
                                    len(xs)).replace(",", "")
    elif nonnegative and kind != "zero":
        size = draw(st.floats(-2.0, 2.0))
        # the offset per unit of |slope| or |amplitude| that keeps the profile
        # >= 0; a truncated sawtooth series stays within 1.2 of its offset
        per_unit = {"linear": bound, "cosine": 1.0, "sawtooth_smoothed": 2.0}[kind]
        params["slope" if kind == "linear" else "amplitude"] = repr(size)
        params["offset"] = repr(per_unit * abs(size) + draw(st.floats(0.1, 2.0)))
    return params


def _wild_params(draw, kinds: dict) -> tuple[str, dict[str, str]]:
    kind = draw(st.sampled_from(sorted(kinds) + ["bogus"]))
    names = draw(st.lists(st.sampled_from(list(kinds.get(kind, ())) + ["bogus"]), unique=True))
    return kind, {name: _numbers(draw, _WILD_NUMBERS.get(name, _SMALL_VALUES),
                                 draw(st.integers(1, 2))).replace(",", "")
                  for name in names}


@st.composite
def table_configs(draw, fuzz: bool = False, stepping: bool = False):
    """A config text drawn key by key from `motorflux.cli._KEYS`.

    Every value is admissible unless ``fuzz`` is set; then a few table keys
    get wild values, and a required key may be left out.  Keys with a default
    are left out at random either way.  1-3 species, 1-D or 2-D, every
    potential kind, and ``initial2`` for every species or for none.

    ``stepping`` draws larger problems for the stepping commands: 1-4
    species, up to 1,024 unknowns in 1-D and 12 x 12 cells in 2-D, dt from
    1e-3 to 1e3 for linear reactions and from 1e-4 to 10 for nonlinear ones
    (on both sides of the IMEX step bound), at most 8 steps and no
    ``initial2``.  psi/sigma spans up to 200 either way.
    """
    n, dim = draw(st.integers(1, 4 if stepping else 3)), draw(st.integers(1, 2))
    lo = draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim))
    hi = [a + draw(st.floats(0.5, 10.0)) for a in lo]
    bound = max(map(abs, lo + hi))
    lam = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=n * n, max_size=n * n)))
    lam = lam.reshape(n, n) * (1.0 - np.eye(n))
    lam -= np.diag(lam.sum(axis=0))
    with_initial2 = not stepping and draw(st.booleans())
    most_cells = 10 if not stepping else 1024 // n if dim == 1 else 12
    drawn = {"nonlinear": False}  # what the time keys depend on
    wild = draw(st.sets(st.sampled_from([key.name for key in motorflux.cli._KEYS]),
                        max_size=4)) if fuzz else set()

    def step_size() -> str:
        if not stepping:
            drawn["dt"] = draw(st.floats(0.01, 1.0))
        else:
            exponents = st.floats(-4.0, 1.0) if drawn["nonlinear"] else st.floats(-3.0, 3.0)
            drawn["dt"] = 10.0 ** draw(exponents)
        return repr(drawn["dt"])

    def admissible(key, i: int):
        """The text of a scalar key, or (kind, params) of a kind key."""
        if key.name == "reaction":
            if draw(st.booleans()):
                return "linear", {}
            drawn["nonlinear"] = True
            return "power", {"exponent": repr(draw(st.floats(1.0, 4.0)))}
        if isinstance(key.type, motorflux.cli._Kinds):
            kind = draw(st.sampled_from(sorted(key.type.kinds)))
            return kind, _profile_params(draw, kind, bound, nonnegative=key.name != "potential")
        return {
            "lo": lambda: ", ".join(map(repr, lo)),
            "hi": lambda: ", ".join(map(repr, hi)),
            "cells": lambda: ", ".join(map(str, draw(st.lists(
                st.integers(2, most_cells), min_size=dim, max_size=dim)))),
            "row.{i}": lambda: ", ".join(repr(float(v)) for v in lam[i]),
            "sigma": lambda: repr(draw(st.floats(0.1, 10.0))),
            "alpha": lambda: repr(draw(st.floats(0.1, 10.0))),
            "dt": step_size,
            "t_end": lambda: repr(draw(st.floats(0.0, 10.0)) if not stepping
                                  else drawn["dt"] * draw(st.floats(0.0, 8.0))),
            "stride": lambda: str(draw(st.integers(1, 50))),
            "dir": lambda: draw(st.sampled_from(["out", "runs/a", "o-1"])),
        }[key.name]()  # a new table key needs its draw here

    lines = []
    for section, keys in motorflux.cli._layout(n).items():
        lines.append(f"[{section}]")
        for name, key, i in keys:
            if key.name == "initial2" and not with_initial2:
                continue
            if key.default is motorflux.cli._REQUIRED or key.name == "initial2":
                # a wild required key is left out one time in ten
                present = key.name not in wild or draw(st.integers(0, 9)) > 0
            else:
                present = draw(st.booleans())
            if not present:
                continue
            kinds = isinstance(key.type, motorflux.cli._Kinds)
            if key.name not in wild:
                value = admissible(key, i)
            elif kinds:
                value = _wild_params(draw, key.type.kinds)
            elif key.name in _WILD_TEXTS:
                value = draw(st.sampled_from(_WILD_TEXTS[key.name]))
            else:
                value = _numbers(draw, _WILD_NUMBERS.get(key.name, _SMALL_VALUES),
                                 draw(st.integers(1, 3)))
            if kinds:
                kind, params = value
                lines += [f"{name}.kind = {kind}", f"{name}.params = "
                          + ", ".join(f"{k}={v}" for k, v in params.items())]
            else:
                lines.append(f"{name} = {value}")
    return "\n".join(lines) + "\n"


class TestSectionValues:
    @pytest.mark.parametrize("key,value", [
        ("normalization", "total"), ("normalization", "alpha_weighted"),
        ("tol", "nan"), ("tol", "inf"), ("tol", "-1e-13"), ("tol", "1e-10"),
        ("threshold", "nan"), ("threshold", "inf"), ("threshold", "-1e-6"), ("threshold", "0"),
        ("oracle_t", "0.33"), ("oracle_t", "-1"), ("oracle_t", "inf"),
        ("oracle_t", "nan"), ("oracle_t", "0"), ("oracle_t", "0.01"),
        ("oracle_t", "1e12"), ("oracle_t", "0.3"), ("oracle_t", "2.0"),
    ])
    def test_bad_values_exit_2(self, tmp_path, capsys, key, value):
        """The check gates are constants: a removed key's section is unknown, so
        the key exits 2 and is named, whatever its value, before the output
        directory is made."""
        section, command = _KEY_COMMANDS[key]
        text = MOTOR_8 + f"\n[{section}]\n{key} = {value}\n"
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"config error: unknown section [{section}] with keys ['{key}']" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o").exists()

    @settings(max_examples=150, deadline=None)
    @given(command=st.sampled_from(_COMMANDS), text=table_configs(fuzz=True))
    def test_fuzz_exit_codes(self, command, text):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(text)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
        assert code in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(
        command=st.sampled_from(["verify-contraction", "verify-comparison"]),
        seed=st.one_of(st.integers(max_value=-1), st.integers(min_value=0, max_value=2**80)),
    )
    def test_fuzz_seed_exit_codes(self, command, seed):
        out, err = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(MOTOR_8)
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--config", str(path), "--out", str(Path(tmp) / "o"),
                             "--seed", str(seed)])
        if seed < 0:
            assert code == 2
            assert "--seed" in err.getvalue()
        else:
            assert code in (0, 3, 4)
        assert "Traceback" not in err.getvalue()


def _assert_same_config(got, want):
    for field in dataclasses.fields(want):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "problem":
            assert np.array_equal(a.coupling.lam, b.coupling.lam)
            assert (a.grid, a.species, a.initial) == (b.grid, b.species, b.initial)
        else:
            assert a == b, field.name


@st.composite
def stationary_configs(draw):
    """An admissible 1-D or 2-D config text with a strongly connected coupling.

    1-4 species with linear and power reactions, at most 1,024 unknowns in
    1-D and 12 x 12 cells in 2-D, and the domain, sigma, alpha and profile
    spans of `table_configs`; a 2-D profile follows either axis.  A cycle
    through every species, each rate at least 0.01, keeps the coupling graph
    strongly connected; the other rates are 0 or drawn up to 3.
    """
    n, dim = draw(st.integers(1, 4)), draw(st.integers(1, 2))
    lo = draw(st.lists(st.floats(-5.0, 5.0), min_size=dim, max_size=dim))
    hi = [a + draw(st.floats(0.5, 10.0)) for a in lo]
    bound = max(map(abs, lo + hi))
    most_cells = 1024 // n if dim == 1 else 12
    lam = np.zeros((n, n))
    for j in range(n):
        for i in range(n):
            if i == (j + 1) % n and i != j:
                lam[i, j] = draw(st.floats(0.01, 3.0))
            elif i != j:
                lam[i, j] = draw(st.one_of(st.just(0.0), st.floats(0.0, 3.0)))
    lam -= np.diag(lam.sum(axis=0))
    cells = draw(st.lists(st.integers(2, most_cells), min_size=dim, max_size=dim))
    lines = ["[domain]", "lo = " + ", ".join(map(repr, lo)), "hi = " + ", ".join(map(repr, hi)),
             "cells = " + ", ".join(map(str, cells))]
    kinds = sorted(motorflux.cli._POTENTIAL_PARAMS.kinds)
    for i in range(n):
        lines += [f"[species.{i + 1}]", f"sigma = {draw(st.floats(0.1, 10.0))!r}",
                  f"alpha = {draw(st.floats(0.1, 10.0))!r}"]
        for key, nonnegative in (("potential", False), ("initial", True)):
            kind = draw(st.sampled_from(kinds))
            params = _profile_params(draw, kind, bound, nonnegative)
            lines += [f"{key}.kind = {kind}",
                      f"{key}.params = " + ", ".join(f"{k}={v}" for k, v in params.items())]
        if draw(st.booleans()):
            lines += ["reaction.kind = power",
                      f"reaction.params = exponent={draw(st.floats(1.0, 4.0))!r}"]
    lines += ["[coupling]"] + [f"row.{i + 1} = " + ", ".join(repr(float(v)) for v in lam[i])
                               for i in range(n)]
    lines += ["[time]", "dt = 0.1", "t_end = 1.0"]
    return "\n".join(lines) + "\n"


def _stationary_gate(spec, fields) -> tuple[float, float]:
    """(||F(u)||_inf, ||J(u)||_inf * max(u)) of the right-hand side
    F(u) = T u + (alpha lam (x) I) r(u) and its Jacobian J, from the public
    assembly and reaction functions."""
    coupling = spec.alphas[:, None] * spec.coupling.lam
    slopes = np.stack([np.ones_like(u) if sp.reaction.kind == "linear"
                       else sp.reaction.exponent * u ** (sp.reaction.exponent - 1.0)
                       for sp, u in zip(spec.species, fields)])
    rates = np.stack([motorflux.eval_reaction(sp.reaction, u)
                      for sp, u in zip(spec.species, fields)])
    transports = [motorflux.assemble_transport(spec.grid, sp.sigma, sp.potential).matrix
                  for sp in spec.species]
    rhs = np.stack([t @ u for t, u in zip(transports, fields)]) + coupling @ rates
    rows = (np.stack([abs(t).sum(axis=1) for t in transports])
            + np.abs(coupling) @ slopes)
    return float(np.abs(rhs).max()), float(rows.max()) * float(fields.max())


class TestStationaryProperty:
    @settings(max_examples=40, deadline=None)
    @example(text=LAMBDA23_CONFIG)
    @example(text=VANISHING_STEP_CONFIG)
    @example(text=TINY_DATA_CONFIG)
    @example(text=TINY_DATA_2D_CONFIG)
    @example(text=UNDERFLOW_1D_CONFIG)
    @example(text=UNDERFLOW_2D_CONFIG)
    @example(text=UNDERFLOW_SUBNORMAL_CONFIG)
    @given(text=stationary_configs())
    def test_steady_meets_its_gate(self, text):
        """steady runs on every admissible, strongly connected problem, or
        names the species whose stationary values underflow with exit 2."""
        err = io.StringIO()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(text)
            spec = parse_config(path).problem
            # nonlinear steady matches the initial data's weighted mass; data
            # without mass exit 2 ("no mass to match")
            assume(spec.is_linear or weighted_mass(motorflux.initial_state(spec), spec) > 0.0)
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = main(["steady", "--config", str(path), "--out", str(Path(tmp) / "o")])
            if code == 2:
                assert UNDERFLOW_MESSAGE.search(err.getvalue()), err.getvalue()
                return
            assert code == 0, err.getvalue()
            table = np.loadtxt(Path(tmp) / "o" / "stationary.csv", delimiter=",", skiprows=1,
                               ndmin=2)
        fields = table[:, spec.grid.dim:].T
        assert fields.min() >= np.finfo(float).tiny
        residual, scale = _stationary_gate(spec, fields)
        assert residual <= 1e-13 * scale

    @pytest.mark.parametrize("text, underflow", [
        (TINY_DATA_CONFIG, None), (TINY_DATA_2D_CONFIG, ("2", "4.60578904e-316")),
        # linear data near 1e-314: the stop test compared subnormal numbers (exit 4)
        (TINY_LINEAR_CONFIG, ("1", "1.053695494e-314")),
        (TINY_LINEAR_2D_CONFIG, ("1", "1.053695494e-314")),
        (TINY_LINEAR_32_CONFIG, ("1", "1.01737797e-314")),
    ], ids=["1d", "2d", "linear-1d", "linear-8x4", "linear-32x32"])
    def test_verify_convergence_on_tiny_data(self, tmp_path, capsys, text, underflow):
        """Data near 1e-300 reach the end of the continuation (no exit 4); in
        2-D the square of u1 underflows, and u2 is named.  The stationary
        states of the linear data near 1e-314 are subnormal: exit 2, naming u1."""
        code = main(["verify-convergence", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == (0 if underflow is None else 2), err
        if underflow is not None:
            match = UNDERFLOW_MESSAGE.search(err)
            assert match and match.group(1, 2) == underflow, err

    @pytest.mark.xfail(strict=True, raises=NonConvergenceError,
                       reason="the continuation stalls in this deep-well linear problem; "
                              "ROADMAP open item 1 (subtraction-free elimination) mends it")
    def test_deep_well_draw_of_hypothesis_seed_3(self, tmp_path):
        """The draw of `test_steady_meets_its_gate` under --hypothesis-seed=3:
        steady stops after 200 steps at a residual of 7e-11 (exit 4)."""
        text = ("[domain]\nlo = 0.0\nhi = 2.0\ncells = 307\n"
                + "".join(f"[species.{i}]\nsigma = 0.109375\nalpha = 1.0\n"
                          f"potential.kind = cosine\npotential.params = {params}\n"
                          "initial.kind = cosine\ninitial.params = amplitude=0.0, offset=1.0\n"
                          for i, params in ((1, "period=0.125"), (2, "")))
                + "[coupling]\nrow.1 = -0.01, 1.0\nrow.2 = 0.01, -1.0\n"
                "[time]\ndt = 0.1\nt_end = 1.0\n")
        cfg = dataclasses.replace(parse_config(write_config(tmp_path, text)),
                                  out_dir=str(tmp_path / "o"))
        # main would turn the error into exit 4; the command raises it
        assert motorflux.cli.cmd_steady(cfg) == 0
        table = np.loadtxt(tmp_path / "o" / "stationary.csv", delimiter=",", skiprows=1)
        residual, scale = _stationary_gate(cfg.problem, table[:, 1:].T)
        assert residual <= 1e-13 * scale

    def test_short_domain_meets_the_scale_free_gate(self, tmp_path, capsys):
        """On [0, 1e-3] the null vector of total integral 1 peaks at 2,743 with
        a backward error ||A v||/(||A|| max v) of 2e-16.  A gate of
        1e-13*||A||_inf without max v rejected it (exit 4)."""
        text = ("[domain]\nlo = 0.0\nhi = 1e-3\ncells = 256\n"
                "[species.1]\nsigma = 1.0\nalpha = 1.0\npotential.kind = cosine\n"
                "potential.params = amplitude=3.0, period=1e-3\n"
                "initial.kind = linear\ninitial.params = offset=1.0\n"
                "[species.2]\nsigma = 0.5\nalpha = 2.0\n"
                "initial.kind = linear\ninitial.params = offset=1.0\n"
                "[coupling]\nrow.1 = -1.0, 2.0\nrow.2 = 1.0, -2.0\n"
                "[time]\ndt = 0.1\nt_end = 1.0\n")
        path = write_config(tmp_path, text)
        code = main(["steady", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 0, capsys.readouterr().err
        table = np.loadtxt(tmp_path / "o" / "stationary.csv", delimiter=",", skiprows=1)
        residual, scale = _stationary_gate(parse_config(path).problem, table[:, 1:].T)
        assert residual <= 1e-13 * scale

    @pytest.mark.parametrize("command", ["steady", "verify-convergence"])
    @pytest.mark.parametrize("text", [UNDERFLOW_1D_CONFIG, UNDERFLOW_2D_CONFIG,
                                      UNDERFLOW_SUBNORMAL_CONFIG],
                             ids=["1d", "2d", "1d-subnormal"])
    def test_underflowing_state_exits_2(self, tmp_path, capsys, command, text):
        """The coupling graph is strongly connected, so the exact state is
        strictly positive: zeros or subnormal values that underflow leaves are
        a scale error."""
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        match = UNDERFLOW_MESSAGE.search(err)
        assert match and match[1] == "2", err
        assert not (tmp_path / "o" / "stationary.csv").exists()


class TestSteppingProperty:
    @settings(max_examples=30, deadline=None)
    @example(text=STEPPING_UNDERFLOW_CONFIG)
    @given(text=table_configs(stepping=True))
    def test_stepping_commands_run_or_name_the_step_bound(self, text):
        """simulate and the pair checks pass on every admissible problem, or
        refuse an IMEX step above its positivity bound with exit 2."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(text)
            cfg = parse_config(path)
            if not cfg.problem.is_linear:
                bound = motorflux.imex_dt_max(motorflux.initial_state(cfg.problem), cfg.problem)
                event(f"IMEX dt {'above' if cfg.step.dt > bound else 'within'} the first bound")
            for command in ("simulate", "verify-contraction", "verify-comparison"):
                err = io.StringIO()
                with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                    code = main([command, "--config", str(path), "--out", str(Path(tmp) / "o")])
                if code == 2:
                    assert "exceeds the positivity bound" in err.getvalue(), err.getvalue()
                else:
                    assert code == 0, (command, err.getvalue())

    @pytest.mark.parametrize("command", ["simulate", "verify-contraction", "verify-comparison"])
    @pytest.mark.parametrize("text", [
        STEPPING_UNDERFLOW_CONFIG.replace("exponent=1.0", "exponent=2.0"), TINY_LINEAR_CONFIG,
        TINY_LINEAR_2D_CONFIG, TINY_LINEAR_32_CONFIG, TINY_CUBIC_32_CONFIG,
    ], ids=["imex-square", "linear-1d", "linear-8x4", "linear-32x32", "cubic-32x32"])
    def test_data_near_underflow_step(self, tmp_path, capsys, command, text):
        """Solves of data below 1e-311 meet LIN_TOL once rescaled by a power of
        two, in 1-D and 2-D, linear and IMEX; simulate's mass drift gate holds."""
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 0, err
        assert "Traceback" not in err


class TestConfigTable:
    @settings(max_examples=100, deadline=None)
    @given(text=table_configs())
    def test_echo_parses_back(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "run.ini"
            path.write_text(text)
            cfg = parse_config(path)
            echo = format_effective_config(cfg)
            path.write_text(echo)
            again = parse_config(path)
        _assert_same_config(again, cfg)
        assert format_effective_config(again) == echo

    def test_readme_example_parses_back(self, tmp_path):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        cfg = parse_config(write_config(tmp_path, readme.split("```ini\n")[1].split("```")[0]))
        echo = format_effective_config(cfg)
        again = parse_config(write_config(tmp_path, echo, "echo.ini"))
        _assert_same_config(again, cfg)
        assert format_effective_config(again) == echo

    @pytest.mark.parametrize("name", ["snap1d", "imex1d", "stationary1d"])
    def test_benchmark_configs_parse_back(self, tmp_path, monkeypatch, name):
        """The configs that perfbench/workloads.py writes parse, and their echo parses back."""
        path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
        module_spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
        workloads = importlib.util.module_from_spec(module_spec)
        monkeypatch.setitem(sys.modules, module_spec.name, workloads)  # for its dataclasses
        module_spec.loader.exec_module(workloads)
        configs = workloads.write_configs(workloads.build(name, seed=1, tiny=True), tmp_path)
        assert configs
        for config in configs.values():
            cfg = parse_config(config)
            echo = format_effective_config(cfg)
            again = parse_config(write_config(tmp_path, echo, "echo.ini"))
            _assert_same_config(again, cfg)
            assert format_effective_config(again) == echo


class TestUnusableArguments:
    @pytest.mark.parametrize("command", _COMMANDS)
    @pytest.mark.parametrize("under_file", [False, True])
    def test_output_path_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys,
                                                           command, under_file):
        afile = tmp_path / "afile"
        afile.write_text("kept")
        out = afile / "sub" if under_file else afile
        code = main([command, "--config", write_config(tmp_path, MOTOR_8), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"output directory {str(out)!r}" in err and "Traceback" not in err
        assert afile.read_text() == "kept"

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_negative_seed_exits_2(self, tmp_path, capsys, command):
        code = main([command, "--config", write_config(tmp_path, MOTOR_8),
                     "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert code == 2
        assert "--seed must be an integer >= 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


def _per_cell_csv(state) -> str:
    """The snapshot CSV written one cell at a time: the byte-level reference."""
    grid = state.grid
    names = [f"u{i + 1}" for i in range(state.n_species)]
    pts = grid.centers()
    lines = [("x," if grid.dim == 1 else "x,y,") + ",".join(names)]
    for c in range(grid.size):
        coords = ([float(pts[c])] if grid.dim == 1
                  else [float(pts[c, 0]), float(pts[c, 1])])
        vals = [float(state.fields[i, c]) for i in range(state.n_species)]
        lines.append(",".join(repr(v) for v in coords + vals))
    return "\n".join(lines) + "\n"


class TestTexts:
    """``_csv_rows`` must write ``repr`` of every float, so that a change in
    orjson's float writer fails here instead of changing the snapshot files."""

    @staticmethod
    def check(values):
        values = np.ascontiguousarray(values, dtype=np.float64)
        for cols in (1, 2, 5):  # every length below is a multiple of 10
            block = values.reshape(-1, cols)
            expected = "".join(",".join(map(repr, row)) + "\n" for row in block.tolist())
            assert bytes(motorflux.cli._csv_rows(block)) == expected.encode("ascii")

    def test_random_bit_patterns(self):
        rng = np.random.default_rng(11)
        self.check(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64))

    def test_random_magnitudes_of_both_signs(self):
        rng = np.random.default_rng(12)
        self.check(rng.choice([-1.0, 1.0], 100_000) * 10.0 ** rng.uniform(-6, 18, 100_000))

    def test_powers_of_ten_and_neighbours(self):
        powers = 10.0 ** np.arange(-4, 16)
        powers = np.concatenate([powers, -powers])
        self.check(np.concatenate([powers, np.nextafter(powers, 0.0),
                                   np.nextafter(powers, 2.0 * powers)]))

    def test_edge_values(self):
        self.check([np.nextafter(1e-4, 0.0), 1e-4, np.nextafter(1e16, 0.0), 1e16,
                    0.0, -0.0, 5e-324, -5e-324, np.finfo(float).max, -np.finfo(float).max,
                    np.inf, -np.inf, np.nan, 2.0**53, 2.0**53 + 2, -(2.0**53 + 2),
                    2.0**63, 123456789012345.6, 0.1, 1.0 / 3.0])


class TestStateCsv:
    @pytest.mark.parametrize("grid", [
        Grid.interval(-0.3, 1.7, 20_000),                 # not a multiple of 4,096 rows
        Grid.box((0.0, -1.0), (0.1, 2.0), (130, 70)),
        Grid.interval(0.0, 1.0, 1000),                    # below one chunk
        Grid.box((0.0, 0.0), (1.0, 3.0), (20, 30)),
        Grid.box((0.0, 1e15), (2e-3, 3e16), (40, 50)),    # coordinates repr writes in e-notation
    ])
    def test_bytes_match_per_cell_writer(self, tmp_path, grid):
        rng = np.random.default_rng(7)
        for n in (1, 3):
            for k in range(3):
                fields = rng.uniform(0.0, 2.0, (n, grid.size)) ** 7
                fields[0, :5] = [0.0, -0.0, 1.0, 1e-300, 1e300]
                fields[0, 5:12] = [9.999999999999999e-05, 1e-4, 9999999999999998.0, 1e16,
                                   2.0**53 + 2, 1e-5, np.finfo(float).max]
                fields[-1, -3:] = [5e-324, 0.1, 123456789.0]
                state = State(grid, fields, t=0.1 * k)
                _write_state_csv(tmp_path / "state.csv", state)
                assert (tmp_path / "state.csv").read_bytes() == _per_cell_csv(state).encode()

    def test_each_snapshot_costs_one_dumps_call_per_chunk(self, tmp_path, monkeypatch):
        import orjson

        sizes = []
        dumps = orjson.dumps

        def counted_dumps(values, *args, **kwargs):
            sizes.append(values.size)
            return dumps(values, *args, **kwargs)

        monkeypatch.setattr(orjson, "dumps", counted_dumps)
        text = MOTOR_CONFIG.replace("cells = 64", "cells = 10000").replace("t_end = 1.0", "t_end = 0.5")
        code = main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert len(list((tmp_path / "o").glob("snapshot_*.csv"))) == 6
        # x, u1 and u2 of 10,000 cells, in chunks of 4,096 rows
        assert sizes == [3 * 4096, 3 * 4096, 3 * 1808] * 6


class TestSteady:
    def test_symmetric_motor_constants(self, tmp_path):
        code = main(["steady", "--config", write_config(tmp_path, MOTOR_CONFIG),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        lines = (tmp_path / "s" / "stationary.csv").read_text().strip().split("\n")
        assert lines[0] == "x,u1,u2"
        for line in lines[1:]:
            _x, u1, u2 = (float(v) for v in line.split(","))
            assert u1 == pytest.approx(0.5, abs=1e-10)
            assert u2 == pytest.approx(0.5, abs=1e-10)
        summary = json.loads((tmp_path / "s" / "steady.ndjson").read_text())
        assert summary["normalization"] == "total"

    def test_boltzmann_profile_csv(self, tmp_path):
        code = main(["steady", "--config", write_config(tmp_path, SAWTOOTH_SINGLE),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        import motorflux as mf
        cfg = parse_config(write_config(tmp_path, SAWTOOTH_SINGLE))
        expected = mf.boltzmann_profile(cfg.problem)
        lines = (tmp_path / "s" / "stationary.csv").read_text().strip().split("\n")[1:]
        got = np.array([float(line.split(",")[1]) for line in lines])
        assert np.abs(got - expected).max() <= 1e-10

    def test_reversible_pair_output(self, tmp_path, capsys):
        # the state of weighted mass 2 is the constant pair (1, 1) of the closed form
        code = main(["steady", "--config", write_config(tmp_path, REVERSIBLE_CONFIG),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        assert "a=" not in capsys.readouterr().out
        assert sorted(p.name for p in (tmp_path / "s").iterdir()) == ["stationary.csv",
                                                                      "steady.ndjson"]
        spec = parse_config(write_config(tmp_path, REVERSIBLE_CONFIG)).problem
        a, b = reversible_pair(weighted_mass(motorflux.initial_state(spec), spec),
                               spec.species[0].reaction, spec.species[1].reaction)
        assert (a, b) == (pytest.approx(1.0, abs=1e-12), pytest.approx(1.0, abs=1e-12))
        table = np.loadtxt(tmp_path / "s" / "stationary.csv", delimiter=",", skiprows=1)
        assert np.abs(table[:, 1] - a).max() <= 1e-12
        assert np.abs(table[:, 2] - b).max() <= 1e-12
        rec = json.loads((tmp_path / "s" / "steady.ndjson").read_text())
        assert rec["normalization"] == "mass_matched"
        assert rec["constraint_value"] == pytest.approx(2.0, rel=1e-12)

    @pytest.mark.parametrize("rows", [("0.0, 0.0", "0.0, 0.0"),
                                      ("-1.0, 0.0", "1.0, 0.0")])
    def test_reducible_coupling_exits_4(self, tmp_path, capsys, rows):
        text = MOTOR_CONFIG.replace("row.1 = -1.0, 1.0", f"row.1 = {rows[0]}")
        text = text.replace("row.2 = 1.0, -1.0", f"row.2 = {rows[1]}")
        code = main(["steady", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "s")])
        assert code == 4
        err = capsys.readouterr().err
        assert "not irreducible" in err
        assert "Traceback" not in err
        assert not (tmp_path / "s" / "stationary.csv").exists()

    @pytest.mark.parametrize("command", ["steady", "verify-convergence"])
    def test_badly_scaled_domain_exits_2(self, tmp_path, capsys, command):
        # sigma/h^2 is about 5e-38 here, lost in rounding beside the unit coupling rates
        text = (MOTOR_CONFIG.replace("lo = 0.0", "lo = -3e20").replace("hi = 1.0", "hi = 1e21")
                .replace("cells = 64", "cells = 300"))
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert "coupling graph is strongly connected" in err
        assert "sigma/h^2 = 5.325e-38" in err and "alpha_i*|lam_ii| = 1.000e+00" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["steady", "verify-convergence"])
    def test_coupling_rate_lost_beside_transport_exits_2(self, tmp_path, capsys, command):
        # species 2's rate 1e-60 vanishes beside its diagonal 2*sigma/h^2 = 128
        text = (MOTOR_8.replace("row.1 = -1.0, 1.0", "row.1 = -1.0, 1e-60")
                .replace("row.2 = 1.0, -1.0", "row.2 = 1.0, -1e-60"))
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert "coupling graph is strongly connected" in err
        assert "alpha_2*|lam_22| = 1.000e-60 of species 2" in err
        assert "transport diagonal 1.280e+02" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["steady", "verify-convergence"])
    def test_lost_coupling_rate_with_a_nonpositive_null_vector_exits_2(self, tmp_path, capsys,
                                                                       command):
        # the rate 1e-12 of species 2 is lost beside its diagonal 2*sigma/h^2 =
        # 131072, so species 1, fed only at that rate, is not resolved: a pinned
        # LU solve gave it a nonpositive entry
        text = (MOTOR_CONFIG.replace("cells = 64", "cells = 256")
                .replace("row.1 = -1.0, 1.0", "row.1 = -1.0, 1e-12")
                .replace("row.2 = 1.0, -1.0", "row.2 = 1.0, -1e-12"))
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert "stationary state is not resolved in double precision" in err
        assert "coupling graph is strongly connected" in err
        assert "alpha_2*|lam_22| = 1.000e-12 of species 2" in err
        assert "transport diagonal 1.311e+05" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["steady", "verify-convergence"])
    def test_off_diagonal_rate_far_below_the_others(self, tmp_path, capsys, command):
        # species 2 is fed only at lam_23 = 1e-17; a pinned LU lost that component
        # in rounding and exited 4, "not irreducible"
        code = main([command, "--config", write_config(tmp_path, LAMBDA23_CONFIG),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        assert "Traceback" not in capsys.readouterr().err
        if command == "steady":
            table = np.loadtxt(tmp_path / "s" / "stationary.csv", delimiter=",", skiprows=1)
            # species 2 balances lam_23 * u3 against |lam_22| * u2 cell by cell
            assert np.abs(table[:, 2] / table[:, 3] / 1e-17 - 1.0).max() <= 1e-6

    @pytest.mark.parametrize("command", ["steady", "verify-convergence"])
    @pytest.mark.parametrize("config", ["imex3", "2d"])
    def test_nonlinear_problems_run(self, tmp_path, command, config):
        text = IMEX3_CONFIG.replace("t_end = 0.1", "t_end = 20.0\nstride = 500")
        if config == "2d":
            text = (text.replace("lo = 0.0", "lo = 0.0, 0.0").replace("hi = 1.0", "hi = 1.0, 1.0")
                    .replace("cells = 32", "cells = 24, 24"))
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        if command == "steady":
            spec = parse_config(write_config(tmp_path, text)).problem
            rec = json.loads((tmp_path / "s" / "steady.ndjson").read_text())
            assert rec["normalization"] == "mass_matched"
            assert rec["constraint_value"] == weighted_mass(motorflux.initial_state(spec), spec)
            table = np.loadtxt(tmp_path / "s" / "stationary.csv", delimiter=",", skiprows=1)
            residual, scale = _stationary_gate(spec, table[:, spec.grid.dim:].T)
            assert residual <= 1e-13 * scale

    @pytest.mark.parametrize("domain", [
        ("0.0", "1.0", "4096"),
        ("0.0", "1.0", "65536"),
        ("0.0, 0.0", "1.0, 1.0", "128, 128"),
    ])
    def test_supported_sizes(self, tmp_path, domain):
        import motorflux as mf
        lo, hi, cells = domain
        text = (SAWTOOTH_MOTOR_CONFIG.replace("lo = 0.0", f"lo = {lo}")
                .replace("hi = 1.0", f"hi = {hi}")
                .replace("cells = 64", f"cells = {cells}"))
        if "," in cells:
            text = text.replace("phase=0.3", "phase=0.3, axis=1")
        cfg = write_config(tmp_path, text)
        code = main(["steady", "--config", cfg, "--out", str(tmp_path / "s")])
        assert code == 0
        spec = parse_config(cfg).problem
        dim = spec.grid.dim
        table = np.loadtxt(tmp_path / "s" / "stationary.csv", delimiter=",", skiprows=1)
        v = table[:, dim:].T.ravel()
        assert v.min() > 0.0
        matrix = mf.assemble_system(spec).matrix
        norm_a = float(np.abs(matrix).sum(axis=1).max())
        assert np.abs(matrix @ v).max() <= 1e-13 * norm_a
        rec = json.loads((tmp_path / "s" / "steady.ndjson").read_text())
        assert set(rec) == {"residual", "normalization", "constraint_value"}


class TestVerifyCommands:
    def test_contraction_identical_second_datum(self, tmp_path):
        text = MOTOR_CONFIG.replace(
            "initial.kind = cosine\ninitial.params = amplitude=0.4, offset=1.0, period=1.0",
            "initial.kind = cosine\ninitial.params = amplitude=0.4, offset=1.0, period=1.0\n"
            "initial2.kind = cosine\ninitial2.params = amplitude=0.4, offset=1.0, period=1.0",
        ).replace(
            "initial.kind = cosine\ninitial.params = amplitude=0.3, offset=1.0, period=0.5",
            "initial.kind = cosine\ninitial.params = amplitude=0.3, offset=1.0, period=0.5\n"
            "initial2.kind = cosine\ninitial2.params = amplitude=0.3, offset=1.0, period=0.5",
        )
        code = main(["verify-contraction", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "v")])
        assert code == 0
        rec = json.loads((tmp_path / "v" / "check_contraction.ndjson").read_text())
        assert rec["pass"] is True
        assert all(v == 0.0 for v in rec["series"]["distance"])

    def test_pair_check_holds_a_bounded_number_of_states(self, tmp_path, monkeypatch):
        # at stride 1 a check that kept its trajectories would hold two more
        # States at every step
        live = []
        step = motorflux.evolve._Stepper.step

        def counted(stepper, u):
            live.append(sum(isinstance(obj, State) for obj in gc.get_objects()))
            return step(stepper, u)

        monkeypatch.setattr(motorflux.evolve._Stepper, "step", counted)
        text = MOTOR_CONFIG.replace("t_end = 1.0", "t_end = 0.3").replace("stride = 10",
                                                                          "stride = 1")
        code = main(["verify-contraction", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "v")])
        assert code == 0
        assert len(live) == 30
        assert max(live) - min(live) <= 2, live

    def test_partial_initial2_rejected(self, tmp_path):
        text = MOTOR_CONFIG.replace(
            "initial.kind = cosine\ninitial.params = amplitude=0.4, offset=1.0, period=1.0",
            "initial.kind = cosine\ninitial.params = amplitude=0.4, offset=1.0, period=1.0\n"
            "initial2.kind = zero",
            1,
        )
        code = main(["verify-contraction", "--config", write_config(tmp_path, text)])
        assert code == 2

    def test_contraction_synthesized_datum(self, tmp_path):
        code = main(["verify-contraction", "--config", write_config(tmp_path, MOTOR_CONFIG),
                     "--out", str(tmp_path / "v"), "--seed", "3"])
        assert code == 0

    def test_comparison_synthesized_datum(self, tmp_path):
        code = main(["verify-comparison", "--config", write_config(tmp_path, MOTOR_CONFIG),
                     "--out", str(tmp_path / "v"), "--seed", "3"])
        assert code == 0
        rec = json.loads((tmp_path / "v" / "check_comparison.ndjson").read_text())
        assert rec["pass"] is True

    def test_convergence_linear(self, tmp_path):
        text = MOTOR_CONFIG.replace("t_end = 1.0", "t_end = 30.0")
        code = main(["verify-convergence", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "v")])
        assert code == 0

    def test_convergence_reversible(self, tmp_path):
        code = main(["verify-convergence", "--config", write_config(tmp_path, REVERSIBLE_CONFIG),
                     "--out", str(tmp_path / "v")])
        assert code == 0

    def test_failed_check_exit_code(self, tmp_path):
        # one step of 0.1 stays far from the stationary state
        text = MOTOR_CONFIG.replace("t_end = 1.0", "t_end = 0.1")
        code = main(["verify-convergence", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "v")])
        assert code == 3
        rec = json.loads((tmp_path / "v" / "check_convergence.ndjson").read_text())
        assert rec["pass"] is False

    def test_oracle_compare(self, tmp_path):
        text = MOTOR_CONFIG.replace("cells = 64", "cells = 8")
        code = main(["oracle-compare", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "v")])
        assert code == 0
        rec = json.loads((tmp_path / "v" / "check_oracle.ndjson").read_text())
        assert rec["pass"] is True
        assert rec["series"]["dt"] == [0.1, 0.05, 0.025]

    def test_effective_config_echoed(self, tmp_path, capsys):
        main(["simulate", "--config", write_config(tmp_path, SAWTOOTH_SINGLE),
              "--out", str(tmp_path / "o")])
        out = capsys.readouterr().out
        assert "[time]" in out
        assert "stride = 1" in out      # default filled in
        assert "lin_tol" not in out  # the solve bound is fixed, not a key
        assert "[steady]" not in out and "[verify]" not in out


TWO_D_CONFIG = """\
[domain]
lo = 0.0, 0.0
hi = 1.0, 1.0
cells = 10, 8

[species.1]
sigma = 1.0
alpha = 1.0
potential.kind = cosine
potential.params = amplitude=0.5, axis=0
initial.kind = cosine
initial.params = amplitude=0.3, offset=1.0, axis=1

[coupling]
row.1 = 0.0

[time]
dt = 0.02
t_end = 0.1
"""


class TestEdgeCases:
    def test_2d_simulate_csv_schema(self, tmp_path):
        code = main(["simulate", "--config", write_config(tmp_path, TWO_D_CONFIG),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        lines = (tmp_path / "o" / "snapshot_0_t0.0.csv").read_text().strip().split("\n")
        assert lines[0] == "x,y,u1"
        assert len(lines) == 1 + 10 * 8
        x0, y0, _u = (float(v) for v in lines[1].split(","))
        assert (x0, y0) == (pytest.approx(0.05), pytest.approx(1.0 / 16.0))

    def test_2d_lin_tol_miss_exits_4(self, tmp_path, capsys, monkeypatch):
        # LIN_TOL = 0 accepts only an exact residual, which round-off never gives
        monkeypatch.setattr(motorflux.evolve, "LIN_TOL", 0.0)
        code = main(["simulate", "--config", write_config(tmp_path, TWO_D_CONFIG),
                     "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "solver failure" in err and "LIN_TOL" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "steady"])
    def test_subnormal_domain_width_exits_2(self, tmp_path, capsys, command):
        # a width of 1e-318 is subnormal: 7 cell volumes round away from it, and
        # the last face 7*h overshoots hi by more than 1e-12 times the width,
        # which rounds to 0, so the potential is sampled outside the domain
        text = MINIMAL_CONFIG.replace("hi = 1.0", "hi = 1e-318").replace("cells = 16", "cells = 7")
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "grid: cell volumes do not sum to the domain volume" in err, err
        assert "H3: species 1 potential not evaluable on the domain closure" in err, err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["steady", "verify-convergence"])
    def test_subnormal_sigma_exits_2(self, tmp_path, capsys, command):
        # drawn by test_fuzz_exit_codes: with ||J||_inf near 1e-317 the step
        # tau = 1e12/||J||_inf overflowed, and K = I - tau*J held NaN (exit 4
        # after a RuntimeWarning)
        text = MINIMAL_CONFIG.replace("sigma = 1.0", "sigma = 1e-320")
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        err = capsys.readouterr().err
        assert code == 2, err
        assert ("config error: the stationary state is not resolved in double precision although "
                "the coupling graph is strongly connected: the largest transport diagonal "
                "5.120e-318 is too small for a step of tau*||J||_inf = 1e+12") in err, err

    def test_pair_step_size_error_from_second_datum_exits_2(self, tmp_path, capsys):
        # only the second datum (max 2) breaks dt <= 1/(p*max^(p-1)) = 0.25 at dt = 0.3
        text = REVERSIBLE_CONFIG.replace("dt = 0.05", "dt = 0.3").replace(
            "t_end = 50.0", "t_end = 1.5")
        text = "\n".join(
            ln + ("\ninitial2.kind = linear\ninitial2.params = offset=2.0"
                  if ln.startswith("initial.params") else "")
            for ln in text.split("\n"))
        path = write_config(tmp_path, text)
        assert main(["simulate", "--config", path, "--out", str(tmp_path / "s")]) == 0
        code = main(["verify-contraction", "--config", path, "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "dt_max" in err and "Traceback" not in err

    def test_pair_lin_tol_miss_exits_4(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(motorflux.evolve, "LIN_TOL", 0.0)
        code = main(["verify-comparison", "--config",
                     write_config(tmp_path, SAWTOOTH_MOTOR_CONFIG), "--out", str(tmp_path / "o")])
        assert code == 4
        err = capsys.readouterr().err
        assert "solver failure" in err and "LIN_TOL" in err
        assert err.endswith(" (at t = 0.05)\n"), err  # the first step fails
        assert "Traceback" not in err

    def test_step_size_error_maps_to_config_exit(self, tmp_path):
        text = REVERSIBLE_CONFIG.replace("dt = 0.05", "dt = 5.0")
        code = main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    @pytest.mark.parametrize("changes,code", [
        # the Lipschitz bound 3*u**2 of u**3 overflows at u = 1e200, so dt_max = 0
        ({"exponent=2.0": "exponent=3.0", "amplitude=0.5, offset=1.0": "offset=1e200"}, 2),
        # alpha*|lam_11|*L underflows to a subnormal, whose inverse overflows
        ({"row.1 = -1.0, 1.0": "row.1 = -1e-320, 1.0",
          "row.2 = 1.0, -1.0": "row.2 = 1e-320, -1.0"}, 0),
    ])
    def test_extreme_imex_step_bounds(self, tmp_path, capsys, changes, code):
        text = REVERSIBLE_CONFIG.replace("t_end = 50.0", "t_end = 0.5")
        for old, new in changes.items():
            text = text.replace(old, new, 1)
        assert main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")]) == code
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("lo,hi,message", [
        ("0.0", "inf", "the domain volume must be finite"),
        ("-1e308", "1e308", "the domain volume must be finite"),
        # sigma/h^2 is about 1e222, so I - dt*M rounds to a singular matrix
        ("-1e-110", "0.0", "K = I - dt*M is singular in double precision"),
    ])
    @pytest.mark.parametrize("command", ["simulate", "verify-contraction"])
    def test_extreme_domains_exit_2(self, tmp_path, capsys, command, lo, hi, message):
        text = MINIMAL_CONFIG.replace("lo = 0.0", f"lo = {lo}").replace("hi = 1.0", f"hi = {hi}")
        assert main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "verify-contraction"])
    def test_identity_lost_in_rounding_exits_2(self, tmp_path, capsys, command):
        # dt*M reaches 1e37 on this domain, where the 1 of I - dt*M is lost
        text = (MOTOR_CONFIG.replace("lo = 0.0", "lo = -3e20").replace("hi = 1.0", "hi = 1e21")
                .replace("cells = 64", "cells = 300").replace("dt = 0.01", "dt = 1e37")
                .replace("t_end = 1.0", "t_end = 1e38"))
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "K = I - dt*M loses the identity in rounding" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["simulate", "oracle-compare"])
    def test_problem_is_validated_once(self, tmp_path, monkeypatch, command):
        checked = []
        check = motorflux.model._check
        monkeypatch.setattr(motorflux.model, "_check",
                            lambda spec: checked.append(spec) or check(spec))
        code = main([command, "--config", write_config(tmp_path, MOTOR_8),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert len(checked) == 1

    def test_simulate_samples_each_profile_once(self, tmp_path, profile_calls):
        # each potential at the 64 centres and the 65 faces, each initial profile
        # at the centres; a second command samples anew
        config = write_config(tmp_path, SAWTOOTH_MOTOR_CONFIG)
        for runs in (1, 2):
            assert main(["simulate", "--config", config, "--out", str(tmp_path / "o")]) == 0
            assert profile_calls == {("sawtooth_smoothed", 64): 2 * runs,
                                     ("sawtooth_smoothed", 65): 2 * runs,
                                     ("linear", 64): 2 * runs}

    def test_pair_check_samples_each_profile_once(self, tmp_path, profile_calls):
        text = IMEX3_CONFIG.replace("alpha = 1.0\n", "alpha = 1.0\n"
                                    "potential.kind = sawtooth_smoothed\n"
                                    "potential.params = amplitude=0.5, period=1.0\n")
        code = main(["verify-contraction", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert profile_calls == {("sawtooth_smoothed", 32): 3, ("sawtooth_smoothed", 33): 3,
                                 ("cosine", 32): 3}

    def test_oracle_scope_error_maps_to_config_exit(self, tmp_path):
        big = MOTOR_CONFIG.replace("cells = 64", "cells = 512")
        code = main(["oracle-compare", "--config", write_config(tmp_path, big),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_unordered_initial2_comparison_exits_2(self, tmp_path, capsys):
        text = MOTOR_8.replace(
            "initial.params = amplitude=0.4, offset=1.0, period=1.0",
            "initial.params = amplitude=0.4, offset=1.0, period=1.0\n"
            "initial2.kind = cosine\ninitial2.params = amplitude=0.4, offset=0.5, period=1.0",
        ).replace(
            "initial.params = amplitude=0.3, offset=1.0, period=0.5",
            "initial.params = amplitude=0.3, offset=1.0, period=0.5\n"
            "initial2.kind = cosine\ninitial2.params = amplitude=0.3, offset=1.0, period=0.5",
        )
        code = main(["verify-comparison", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "initial2 >= initial" in err and "species 1 breaks the order at cell 0" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_overflowing_flux_weights_exit_2(self, tmp_path, capsys, command):
        text = MOTOR_8.replace("potential.kind = zero",
                               "potential.kind = cosine\npotential.params = amplitude=1e308", 1)
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "species 1: the Scharfetter-Gummel weight of cell" in err
        assert "Traceback" not in err

    def test_overflowing_oracle_exits_2(self, tmp_path, capsys):
        text = MOTOR_8.replace("potential.kind = zero",
                               "potential.kind = cosine\npotential.params = amplitude=1e100", 1)
        code = main(["oracle-compare", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "exp(t*A) u0 is not finite" in err and "Traceback" not in err

    def test_tol_flag_overrides_solver_tolerances(self, tmp_path, capsys):
        """No flag overrides a solver tolerance: steady rejects --tol before the
        output directory is made, and the fixed stationary gate alone holds the
        residual under the bound the flag once set."""
        cfg = write_config(tmp_path, MOTOR_CONFIG)
        with pytest.raises(SystemExit) as exit_:
            main(["steady", "--config", cfg, "--out", str(tmp_path / "t"), "--tol", "1e-10"])
        assert exit_.value.code == 2
        assert "unrecognized arguments: --tol 1e-10" in capsys.readouterr().err
        assert not (tmp_path / "t").exists()
        code = main(["steady", "--config", cfg, "--out", str(tmp_path / "s")])
        assert code == 0
        rec = json.loads((tmp_path / "s" / "steady.ndjson").read_text())
        assert rec["residual"] <= 1e-10

    def test_reversible_form_requirements(self, tmp_path):
        # the reversible form [[-k, k], [k, -k]] at k = 2 has the closed form of
        # k = 1; asymmetric rates, which the closed form does not cover, balance
        # r_1(a) = a^2 against 2 * r_2(b) = 2b
        for rows, balance in ((("-2.0, 2.0", "2.0, -2.0"), 1.0), (("-1.0, 2.0", "1.0, -2.0"), 2.0)):
            text = REVERSIBLE_CONFIG.replace("row.1 = -1.0, 1.0", f"row.1 = {rows[0]}")
            text = text.replace("row.2 = 1.0, -1.0", f"row.2 = {rows[1]}")
            out = tmp_path / f"s{balance}"
            code = main(["steady", "--config", write_config(tmp_path, text), "--out", str(out)])
            assert code == 0
            table = np.loadtxt(out / "stationary.csv", delimiter=",", skiprows=1)
            a, b = table[:, 1], table[:, 2]
            assert np.ptp(a) <= 1e-12 and np.ptp(b) <= 1e-12
            assert a[0] ** 2 == pytest.approx(balance * b[0], rel=1e-12)
            assert (a + b).mean() == pytest.approx(2.0, rel=1e-12)


#: two species near the largest double: per-cell values near 1e307, sums past it
NEAR_OVERFLOW_CONFIG = """\
[domain]
lo = 0.0
hi = 1.0
cells = 256

[species.1]
sigma = 1.0
alpha = 1.0
potential.kind = cosine
potential.params = amplitude=2.0
initial.kind = cosine
initial.params = amplitude=0.5e307, offset=1e307

[species.2]
sigma = 1.0
alpha = 1.0
potential.kind = cosine
potential.params = amplitude=2.0
initial.kind = cosine
initial.params = amplitude=0.3e307, offset=1e307, phase=0.2

[coupling]
row.1 = -1.0, 2.0
row.2 = 1.0, -2.0

[time]
dt = 0.1
t_end = 1.0
stride = 5
"""

#: 65,536 cells of data near 1e304: every projection sum of a solve passes 1.8e308
LARGE_COLUMNS_CONFIG = (NEAR_OVERFLOW_CONFIG.replace("cells = 256", "cells = 65536")
                        .replace("e307", "e304").replace("dt = 0.1", "dt = 1e-8")
                        .replace("t_end = 1.0", "t_end = 2e-8").replace("stride = 5", "stride = 1"))

#: a domain of length 1e300 with cosine data of offset 1e10: a weighted mass near 1e310
HUGE_DOMAIN_CONFIG = """\
[domain]
lo = 0.0
hi = 1e300
cells = 4

[species.1]
sigma = 1.0
alpha = 1.0
initial.kind = cosine
initial.params = amplitude=0.5e10, offset=1e10, period=1e300

[species.2]
sigma = 1.0
alpha = 1.0
initial.kind = cosine
initial.params = amplitude=0.3e10, offset=1e10, period=1e300

[coupling]
row.1 = -1.0, 2.0
row.2 = 1.0, -2.0

[time]
dt = 0.1
t_end = 0.2
"""


class TestLargeData:
    """Weighted sums are taken at an exact power of two, and so are solves
    whose bound or projection sums would overflow: data near the largest
    double run, or exit 2, and never write inf or a warning."""

    @pytest.mark.parametrize("command", ["simulate", "verify-contraction", "verify-comparison",
                                         "oracle-compare"])
    def test_near_overflow_runs(self, tmp_path, capsys, command):
        out = tmp_path / "o"
        code = main([command, "--config", write_config(tmp_path, NEAR_OVERFLOW_CONFIG),
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        if command == "simulate":
            masses = [json.loads(line)["mass"]
                      for line in (out / "manifest.ndjson").read_text().splitlines()]
            assert masses[0] == pytest.approx(2e307, rel=1e-15)
            assert max(abs(m - masses[0]) for m in masses) <= 1e-15 * masses[0]

    def test_large_columns_are_projected_at_their_scale(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["simulate", "--config", write_config(tmp_path, LARGE_COLUMNS_CONFIG),
                     "--out", str(out)])
        assert code == 0
        assert capsys.readouterr().err == ""
        for line in (out / "manifest.ndjson").read_text().splitlines():
            rec = json.loads(line)
            assert math.isfinite(rec["mass"]) and all(map(math.isfinite, rec["l1"])), rec
            assert rec["mass"] == pytest.approx(2e304, rel=1e-15)

    @pytest.mark.parametrize("command", _COMMANDS)
    def test_unrepresentable_initial_mass_exits_2(self, tmp_path, capsys, command):
        code = main([command, "--config", write_config(tmp_path, HUGE_DOMAIN_CONFIG),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "H4: the initial weighted mass" in err and "exceeds the largest double" in err
        assert "Traceback" not in err and "Warning" not in err

    @pytest.mark.parametrize("command", ["steady", "verify-convergence"])
    def test_long_domain_loses_the_transport_weight(self, tmp_path, capsys, command):
        # data of order 1e-10 keep the weighted mass finite, near 2e290, while
        # sigma/h^2 underflows; h^2 itself would raise as a Python float power
        text = HUGE_DOMAIN_CONFIG.replace("e10", "e-10")
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "the smallest transport weight sigma/h^2 = 0.000e+00 is lost in rounding" in err
        assert "Traceback" not in err


IMEX3_CONFIG = """\
[domain]
lo = 0.0
hi = 1.0
cells = 32

[species.1]
sigma = 1.0
alpha = 1.0
reaction.kind = power
reaction.params = exponent=2.0
initial.kind = cosine
initial.params = amplitude=0.3, offset=1.0

[species.2]
sigma = 0.8
alpha = 1.0
initial.kind = cosine
initial.params = amplitude=0.2, offset=1.0, phase=0.3

[species.3]
sigma = 0.6
alpha = 1.0
reaction.kind = power
reaction.params = exponent=3.0
initial.kind = cosine
initial.params = amplitude=0.4, offset=1.0, phase=0.6

[coupling]
row.1 = -1.0, 0.5, 0.25
row.2 = 0.5, -1.0, 0.75
row.3 = 0.5, 0.5, -1.0

[time]
dt = 0.01
t_end = 0.1
"""


def _readme_exit_codes() -> dict[str, int]:
    """README's documented exit codes, {label: code}, from its "Exit codes" line."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    line = " ".join(readme.split("* Exit codes: ")[1].split(".")[0].split())
    return {label: int(code) for code, label in re.findall(r"`(\d)` ([a-z ]+)", line)}


#: the stderr label of every concrete error type; README gives each label's code
_ERROR_LABELS = {
    "ConfigError": "config error", "OutOfDomainError": "config error",
    "UnsupportedConfigurationError": "config error", "ScalingError": "config error",
    "StepSizeError": "config error", "DegenerateDataError": "config error",
    "OracleScopeError": "config error", "InvariantViolationError": "invariant failure",
    "SolverError": "solver failure", "NonConvergenceError": "solver failure",
    "IrreducibilityError": "solver failure",
}


class TestMessages:
    @pytest.mark.parametrize("cls", [
        c for c in vars(motorflux.errors).values()
        if isinstance(c, type) and issubclass(c, MotorfluxError) and c is not MotorfluxError
    ], ids=lambda c: c.__name__)
    def test_error_types_carry_the_documented_exit_codes(self, tmp_path, capsys, monkeypatch,
                                                         cls):
        label = _ERROR_LABELS[cls.__name__]  # a new error type needs its label here
        code = _readme_exit_codes()[label]
        assert (cls.exit_code, cls.label) == (code, label)

        def failing(cfg):
            raise cls("boom", 1.0) if cls is StepSizeError else cls("boom")

        monkeypatch.setattr(motorflux.cli, "cmd_simulate", failing)
        assert main(["simulate", "--config", write_config(tmp_path, MINIMAL_CONFIG),
                     "--out", str(tmp_path / "o")]) == code
        assert capsys.readouterr().err == f"{label}: boom\n"

    @pytest.mark.parametrize("command, code", [
        ("simulate", 0), ("steady", 4), ("verify-contraction", 0),
        ("verify-comparison", 0), ("verify-convergence", 4), ("oracle-compare", 0),
    ])
    def test_validation_warnings_reach_stderr(self, tmp_path, capsys, command, code):
        # species 1 only feeds species 2: admissible, not strongly connected
        text = MOTOR_CONFIG.replace("row.1 = -1.0, 1.0", "row.1 = -1.0, 0.0")
        text = text.replace("row.2 = 1.0, -1.0", "row.2 = 1.0, 0.0")
        assert main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")]) == code
        err = capsys.readouterr().err
        assert err.count("warning: coupling graph is not strongly connected") == 1

    def test_no_warning_for_an_irreducible_coupling(self, tmp_path, capsys):
        assert main(["simulate", "--config", write_config(tmp_path, MOTOR_CONFIG),
                     "--out", str(tmp_path / "o")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("command", ["oracle-compare"])
    def test_linear_only_commands_name_the_block_operator(self, tmp_path, capsys, command):
        code = main([command, "--config", write_config(tmp_path, IMEX3_CONFIG),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "assemble_system requires linear reactions" in err
        assert "per-species transport operators" in err
        assert "matrix-free" not in err
