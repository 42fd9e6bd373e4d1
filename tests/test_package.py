import importlib

import pytest


@pytest.mark.parametrize("name", ["motorflux", "motorflux.discretize", "motorflux.evolve",
                                  "motorflux.model", "motorflux.steady", "motorflux.verify"])
def test_every_exported_name_exists_once(name):
    module = importlib.import_module(name)
    exported = module.__all__
    assert sorted(n for n in set(exported) if exported.count(n) > 1) == []
    assert [n for n in exported if not hasattr(module, n)] == []
