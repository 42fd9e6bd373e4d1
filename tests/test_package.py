import contextlib
import importlib
import io
import re
from pathlib import Path

import pytest


@pytest.mark.parametrize("name", ["motorflux", "motorflux.discretize", "motorflux.evolve",
                                  "motorflux.model", "motorflux.steady", "motorflux.verify"])
def test_every_exported_name_exists_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []


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
