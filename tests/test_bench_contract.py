"""The library names and tables the benchmark under spinbench/ relies on.

spinbench/tracing.py wraps functions by (module, attribute) and
SqrtRational methods by name, and the benchmark's workers read a few
more names.  Deleting or renaming one of them would break the benchmark
without failing any other test, so this module checks them all.
spinbench/workloads.py states the ten symbols, the ten point triads and
the five symbols again, to check results independently of the library;
those literals are compared with the library's tables here.  The
benchmark's files are only read.
"""

import ast
import importlib
import types
from pathlib import Path

import pytest

import spinnet
import spinnet.cli
from spinnet import errors, identities, labeling, symmetry, wigner
from spinnet.exactnum import SqrtRational

SPINBENCH = Path(__file__).resolve().parents[1] / "spinbench"
TRACING = SPINBENCH / "tracing.py"


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
    assert callable(wigner._sixj_orbit.cache_clear)
    # read by workloads.py, make_reference.py and worker.py
    assert callable(identities.iter_be_grid)
    assert callable(identities.BEInstance.from_twice)
    assert isinstance(identities.FIVE_SYMBOLS, tuple)
    assert callable(wigner.sixj_value)
    assert callable(wigner.SixJ.from_twice)
    assert callable(spinnet.Spin)
    assert issubclass(errors.TriadViolation, Exception)
    assert issubclass(errors.UnrealizableQuadrangle, Exception)
    assert callable(labeling.DesarguesSpinLabeling.quadrangle_symbols)
    assert callable(labeling.SimplexSpinLabeling.tetrahedron_symbols)
    assert callable(symmetry.RegularizationReport.to_json_dict)
    assert callable(spinnet.cli.build_parser)


def _workload_literals():
    # read from the source text, so nothing under spinbench/ is imported
    tree = ast.parse((SPINBENCH / "workloads.py").read_text())
    return {target.id: ast.literal_eval(node.value)
            for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets
            if isinstance(target, ast.Name)
            and target.id in ("SYMBOLS", "POINT_TRIADS", "FIVE_SYMBOLS")}


def test_workload_tables_match_the_library():
    tables = _workload_literals()
    assert tables["SYMBOLS"] == labeling.SYMBOLS
    # slot order matters within a symbol: it fixes the value's phase
    assert tables["FIVE_SYMBOLS"] == tuple(
        "".join(names) for names in identities.FIVE_SYMBOLS)
    assert len(tables["POINT_TRIADS"]) == len(labeling.POINT_TRIADS)
    assert set(map(frozenset, tables["POINT_TRIADS"])) == {
        frozenset(names) for _, names in labeling.POINT_TRIADS}
