import contextlib
import io
import json
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from motorflux import Grid, State
import motorflux.cli
from motorflux.cli import _write_state_csv, main, parse_config
from motorflux.evolve import Trajectory, _diagnose, run
from motorflux.model import MAX_UNKNOWNS
from motorflux.errors import ConfigError

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

[steady]
mode = reversible
"""


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
        assert cfg.step.lin_tol == 1e-12     # documented default
        assert cfg.out_dir == "out"
        assert cfg.steady_mode == "null_vector"

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
        "lin_tol = nan", "lin_tol = inf", "lin_tol = -1e-12",
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

    def test_mass_failure_names_snapshot(self, tmp_path, capsys, monkeypatch):
        def leaky_run(spec, cfg):
            traj = run(spec, cfg)
            states = list(traj.states)
            states[4] = states[4].with_fields(states[4].fields * (1.0 + 1e-9))
            diags = [_diagnose(state, spec) for state in states]
            return Trajectory(tuple(states), tuple(diags))

        monkeypatch.setattr(motorflux.cli, "run", leaky_run)
        code = main(["simulate", "--config", write_config(tmp_path, MOTOR_CONFIG),
                     "--out", str(tmp_path / "o")])
        assert code == 3
        err = capsys.readouterr().err
        assert "exceeds 1e-11 at snapshot 4 (t=0.4)" in err

    def test_non_finite_tol_flag_exits_2(self, tmp_path, capsys):
        code = main(["simulate", "--config", write_config(tmp_path, MOTOR_CONFIG),
                     "--out", str(tmp_path / "o"), "--tol", "nan"])
        assert code == 2
        assert "lin_tol" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["simulate", "steady"])
    @pytest.mark.parametrize("old,new,hypothesis", [
        ("row.2 = 1.0, -1.0", "row.2 = nan, -1.0", "H2"),
        ("alpha = 1.0", "alpha = inf", "H1"),
        ("sigma = 1.0", "sigma = inf", "H1"),
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

#: each key's section and the command that reads it
_KEY_COMMANDS = {
    "tol": ("steady", "steady"),
    "threshold": ("verify", "verify-convergence"),
    "oracle_t": ("verify", "oracle-compare"),
}

#: keys that replace a line of MOTOR_8 instead, all read by simulate
_REPLACED_KEYS = {
    "cells": ("cells = 8", "cells = {}"),
    "t_end": ("t_end = 0.1", "t_end = {}"),
    "terms": ("potential.kind = zero",
              "potential.kind = sawtooth_smoothed\npotential.params = terms={}"),
}


class TestSectionValues:
    @pytest.mark.parametrize("key,value", [
        ("tol", "nan"), ("tol", "inf"), ("tol", "-1e-13"),
        ("threshold", "nan"), ("threshold", "inf"), ("threshold", "-1e-6"),
        ("oracle_t", "0.33"), ("oracle_t", "-1"), ("oracle_t", "inf"),
        ("oracle_t", "nan"), ("oracle_t", "0"), ("oracle_t", "0.01"),
        ("oracle_t", "1e12"),
    ])
    def test_bad_values_exit_2(self, tmp_path, capsys, key, value):
        section, command = _KEY_COMMANDS[key]
        text = MOTOR_8 + f"\n[{section}]\n{key} = {value}\n"
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"[{section}] {key}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("key,value", [
        ("tol", "1e-10"), ("threshold", "0"), ("oracle_t", "0.3"), ("oracle_t", "2.0"),
    ])
    def test_admissible_values_run(self, tmp_path, key, value):
        section, command = _KEY_COMMANDS[key]
        text = MOTOR_8 + f"\n[{section}]\n{key} = {value}\n"
        code = main([command, "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code in (0, 3)
        if key == "oracle_t":
            assert code == 0

    @settings(max_examples=150, deadline=None)
    @given(
        key=st.sampled_from(sorted(_KEY_COMMANDS) + sorted(_REPLACED_KEYS)),
        value=st.one_of(
            st.floats(min_value=-10.0, max_value=10.0),
            st.sampled_from([math.nan, math.inf, -math.inf, 0.0, -0.0, 1e-320, 1e400]),
            st.integers(min_value=-5, max_value=30).map(lambda k: k * 0.1),
            st.integers(min_value=1, max_value=30).map(lambda k: k * 0.1 + 0.03),
        ),
    )
    def test_fuzz_exit_codes(self, key, value):
        # finite draws stay within 10: cells and terms have no upper cap, so a
        # huge value allocates or loops for as long as it asks
        if key in _KEY_COMMANDS:
            section, command = _KEY_COMMANDS[key]
            text = MOTOR_8 + f"\n[{section}]\n{key} = {value!r}\n"
        else:
            old, new = _REPLACED_KEYS[key]
            text, command = MOTOR_8.replace(old, new.format(repr(value)), 1), "simulate"
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


_COMMANDS = ("simulate", "steady", "verify-contraction", "verify-comparison",
             "verify-convergence", "oracle-compare")


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


class TestStateCsv:
    @pytest.mark.parametrize("grid", [
        Grid.interval(-0.3, 1.7, 20_000),                 # not a multiple of 4,096 rows
        Grid.box((0.0, -1.0), (0.1, 2.0), (130, 70)),
        Grid.interval(0.0, 1.0, 1000),                    # below one chunk
        Grid.box((0.0, 0.0), (1.0, 3.0), (20, 30)),
    ])
    def test_bytes_match_per_cell_writer(self, tmp_path, grid):
        rng = np.random.default_rng(7)
        for n in (1, 3):
            templates = motorflux.cli._row_templates(grid, n)
            for k in range(3):
                fields = rng.uniform(0.0, 2.0, (n, grid.size)) ** 7
                fields[0, :5] = [0.0, -0.0, 1.0, 1e-300, 1e300]
                fields[-1, -3:] = [5e-324, 0.1, 123456789.0]
                state = State(grid, fields, t=0.1 * k)
                expected = _per_cell_csv(state).encode("ascii")
                _write_state_csv(tmp_path / "shared.csv", state, templates)
                assert (tmp_path / "shared.csv").read_bytes() == expected
                _write_state_csv(tmp_path / "own.csv", state)
                assert (tmp_path / "own.csv").read_bytes() == expected

    def test_simulate_formats_coordinates_once(self, tmp_path, monkeypatch):
        calls = {"templates": 0, "writes": 0}
        row_templates, write_state_csv = motorflux.cli._row_templates, _write_state_csv

        def counted_templates(*args):
            calls["templates"] += 1
            return row_templates(*args)

        def counted_write(*args):
            calls["writes"] += 1
            return write_state_csv(*args)

        monkeypatch.setattr(motorflux.cli, "_row_templates", counted_templates)
        monkeypatch.setattr(motorflux.cli, "_write_state_csv", counted_write)
        text = MOTOR_CONFIG.replace("t_end = 1.0", "t_end = 0.5")
        code = main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 0
        assert len(list((tmp_path / "o").glob("snapshot_*.csv"))) == 6
        assert calls == {"templates": 1, "writes": 6}


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

    def test_alpha_weighted_normalization(self, tmp_path):
        text = MOTOR_CONFIG + "\n[steady]\nnormalization = alpha_weighted\n"
        code = main(["steady", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        rec = json.loads((tmp_path / "s" / "steady.ndjson").read_text())
        assert rec["normalization"] == "alpha_weighted"

    def test_reversible_pair_output(self, tmp_path, capsys):
        code = main(["steady", "--config", write_config(tmp_path, REVERSIBLE_CONFIG),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        out = capsys.readouterr().out
        assert "a=1.0" in out and "b=1.0" in out
        rec = json.loads((tmp_path / "s" / "reversible.ndjson").read_text())
        assert rec["a"] == pytest.approx(1.0, abs=1e-12)
        assert abs(rec["mass_residual"]) <= 1e-12


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
        text = MOTOR_CONFIG + "\n[verify]\nthreshold = 1e-15\n"
        text = text.replace("t_end = 1.0", "t_end = 0.1")
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
        assert "lin_tol = 1e-12" in out


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
lin_tol = 1e-13
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

    def test_2d_lin_tol_miss_exits_4(self, tmp_path, capsys):
        code = main(["simulate", "--config", write_config(tmp_path, TWO_D_CONFIG),
                     "--out", str(tmp_path / "o"), "--tol", "0"])
        assert code == 4
        err = capsys.readouterr().err
        assert "solver failure" in err and "lin_tol" in err
        assert "Traceback" not in err

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

    def test_pair_lin_tol_miss_exits_4(self, tmp_path, capsys):
        code = main(["verify-comparison", "--config", write_config(tmp_path, SAWTOOTH_MOTOR_CONFIG),
                     "--out", str(tmp_path / "o"), "--tol", "0"])
        assert code == 4
        err = capsys.readouterr().err
        assert "solver failure" in err and "lin_tol" in err
        assert "Traceback" not in err

    def test_step_size_error_maps_to_config_exit(self, tmp_path):
        text = REVERSIBLE_CONFIG.replace("dt = 0.05", "dt = 5.0")
        code = main(["simulate", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_oracle_scope_error_maps_to_config_exit(self, tmp_path):
        big = MOTOR_CONFIG.replace("cells = 64", "cells = 512")
        code = main(["oracle-compare", "--config", write_config(tmp_path, big),
                     "--out", str(tmp_path / "o")])
        assert code == 2

    def test_tol_flag_overrides_solver_tolerances(self, tmp_path):
        cfg = write_config(tmp_path, MOTOR_CONFIG)
        code = main(["steady", "--config", cfg, "--out", str(tmp_path / "s"),
                     "--tol", "1e-10"])
        assert code == 0
        rec = json.loads((tmp_path / "s" / "steady.ndjson").read_text())
        assert rec["residual"] <= 1e-10

    def test_reversible_form_requirements(self, tmp_path):
        # coupling [[-2, 2], [2, -2]] is a valid reversible form with k=2
        text = REVERSIBLE_CONFIG.replace("row.1 = -1.0, 1.0", "row.1 = -2.0, 2.0")
        text = text.replace("row.2 = 1.0, -1.0", "row.2 = 2.0, -2.0")
        code = main(["steady", "--config", write_config(tmp_path, text),
                     "--out", str(tmp_path / "s")])
        assert code == 0
        # asymmetric exchange rates have no constant-pair family
        asym = REVERSIBLE_CONFIG.replace("row.1 = -1.0, 1.0", "row.1 = -1.0, 2.0")
        asym = asym.replace("row.2 = 1.0, -1.0", "row.2 = 1.0, -2.0")
        code = main(["steady", "--config", write_config(tmp_path, asym),
                     "--out", str(tmp_path / "s")])
        assert code == 2


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

class TestMessages:
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

    @pytest.mark.parametrize("command", ["steady", "oracle-compare"])
    def test_linear_only_commands_name_the_block_operator(self, tmp_path, capsys, command):
        code = main([command, "--config", write_config(tmp_path, IMEX3_CONFIG),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert "assemble_system requires linear reactions" in err
        assert "per-species transport operators" in err
        assert "matrix-free" not in err

    def test_nonlinear_convergence_names_its_requirement(self, tmp_path, capsys):
        code = main(["verify-convergence", "--config", write_config(tmp_path, IMEX3_CONFIG),
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err
        assert ("verify-convergence with nonlinear reactions needs exactly two species, "
                "got 3") in err
        assert "reversible mode" not in err
