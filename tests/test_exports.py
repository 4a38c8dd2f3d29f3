"""Every name a spinnet module exports resolves, so no export outlives
the code it named."""

import importlib
import pkgutil

import pytest

import spinnet

MODULES = ["spinnet"] + sorted(
    f"spinnet.{m.name}" for m in pkgutil.iter_modules(spinnet.__path__))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    assert [n for n in exported if not hasattr(module, n)] == []
    assert len(set(exported)) == len(exported)
