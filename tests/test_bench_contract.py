"""The library names the benchmark under spinbench/ relies on.

spinbench/tracing.py wraps functions by (module, attribute) and
SqrtRational methods by name, and the benchmark's workers read a few
more names.  Deleting or renaming one of them would break the benchmark
without failing any other test, so this module checks them all.  The
tracer's file is only read.
"""

import importlib
import types
from pathlib import Path

import pytest

import spinnet
from spinnet import wigner
from spinnet.exactnum import SqrtRational

TRACING = Path(__file__).resolve().parents[1] / "spinbench" / "tracing.py"


def _load_tracing():
    # executed from its source text, so no bytecode is written beside it
    module = types.ModuleType("_spinbench_tracing")
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), vars(module))
    return module


tracing = _load_tracing()


@pytest.mark.parametrize("module, attr", tracing.FUNCTIONS,
                         ids=[".".join(f) for f in tracing.FUNCTIONS])
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"spinnet.{module}"),
                            attr))


def test_traced_sqrt_rational_methods_exist():
    assert set(tracing.SQRT_METHODS) <= set(vars(SqrtRational))


def test_names_the_workers_read_exist():
    assert callable(spinnet.kernel_backend)
    assert callable(wigner.sixj_value_twice)
    assert callable(wigner._sixj_cached.cache_clear)
