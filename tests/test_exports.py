"""Every exported name resolves, so no stale export outlives its object."""

import pytest

import tsvar
from tsvar import cli, econ, solver, timescale, variational


@pytest.mark.parametrize("module", [tsvar, timescale, variational, solver, econ, cli],
                         ids=lambda module: module.__name__)
def test_every_name_in_all_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []


def test_the_package_exports_its_modules_names():
    modules = (timescale, variational, solver, econ, cli)
    union = [name for module in modules for name in module.__all__]
    assert len(union) == len(set(union))
    assert sorted(tsvar.__all__) == sorted(union + ["__version__"])
