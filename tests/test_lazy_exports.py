"""What `import spinnet` loads: no submodule until a name is used, and
then only the submodules that name needs; and what each CLI command
loads.  None of them loads dataclasses or inspect: the record classes
load dataclasses only when its API is called on them.  Each check runs
in a fresh interpreter, so no import made earlier in the test session
hides a load.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from spinnet.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# the package's exports as the eager __init__ listed them
EXPORTS = [
    "BEInstance", "CanonicalQuadruple", "ConfigurationSignature",
    "DesarguesSpinLabeling", "ExactCheckResult", "IncidenceStructure",
    "RegularizationReport", "SimplexSpinLabeling", "SimplicialComplex4",
    "SixJ", "SixJSymmetryElement", "Spin", "SqrtRational", "be_check",
    "build_desargues", "build_quadrangle", "canonicalize_quadruple",
    "classical_group", "cross_section", "errors", "factorial", "isomorphic",
    "iter_regularized_enumeration", "kernel_backend", "label_desargues",
    "network_amplitude", "orthogonality_check", "pachner_14_check",
    "pachner_23_check", "phase_from_twice", "plane_dual", "regge_transform",
    "regularization_bounds", "regularized_enumeration", "running_range",
    "sixj_value", "space_dual_desargues", "symmetry_group", "symmetry_orbit",
    "transfer_labeling", "validate_configuration",
]


def run(*parts: str):
    """Run the code parts in a fresh interpreter; the JSON it prints last."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    code = "\n".join(map(textwrap.dedent, parts))
    res = subprocess.run([sys.executable, "-c", code],
                         env=env, capture_output=True, text=True, timeout=60)
    assert res.returncode == 0, res.stderr
    return json.loads(res.stdout.splitlines()[-1])


LOADED = """
print(json.dumps(sorted(m for m in sys.modules
                        if m.startswith("spinnet."))))
"""


# stdlib modules that the record classes once loaded at import, through
# dataclasses; each entry point loads what a bare interpreter loads
HEAVY = ["dataclasses", "inspect"]
HEAVY_LOADED = f"""
print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
"""


@pytest.fixture(scope="module")
def heavy_at_start():
    return run("import json, sys", HEAVY_LOADED)


def test_import_loads_no_submodule():
    assert run("import json, sys, spinnet", LOADED) == []


def test_a_6j_value_loads_four_submodules():
    assert run("""
        import json, sys, spinnet
        spinnet.sixj_value(spinnet.SixJ.from_twice((2,) * 6))
        """, LOADED) == ["spinnet.errors", "spinnet.exactnum",
                          "spinnet.kernel", "spinnet.wigner"]


def test_a_6j_value_loads_no_dataclasses(heavy_at_start):
    assert run("""
        import json, sys, spinnet
        spinnet.sixj_value(spinnet.SixJ.from_twice((2,) * 6))
        """, HEAVY_LOADED) == heavy_at_start


def test_the_dataclass_api_works_when_first_called_on_an_instance():
    # replace, read first on an instance, builds the record's
    # __dataclass_fields__ and re-runs __post_init__
    assert run("""
        import dataclasses, json, sys
        from spinnet import SixJ, Spin
        s = SixJ.from_twice((2,) * 6)
        moved = dataclasses.replace(s, x=Spin(0))
        try:
            dataclasses.replace(s, a=Spin(20))
        except Exception as exc:
            error = type(exc).__name__
        print(json.dumps([moved.twice_tuple(), dataclasses.astuple(s)[0].twice,
                          [f.name for f in dataclasses.fields(SixJ)], error]))
        """) == [[2, 2, 0, 2, 2, 2], 2, list("abxcdy"), "InvalidTriads"]


def test_each_export_is_its_submodules_object():
    # the package attribute is read first, so each name takes the lazy path
    assert run("""
        import importlib, json, spinnet
        wrong = []
        for name in spinnet.__all__:
            value = getattr(spinnet, name)
            module, _, attr = spinnet._EXPORTS[name].partition(".")
            home = importlib.import_module("spinnet." + module)
            if value is not (home if name == module
                             else getattr(home, attr or name)):
                wrong.append(name)
            elif name not in vars(spinnet):
                wrong.append(name + " (not cached)")
        print(json.dumps([spinnet.__all__, wrong]))
        """) == [EXPORTS, []]


def test_star_import_and_dir():
    assert run("""
        import json, spinnet
        namespace = {}
        exec("from spinnet import *", namespace)
        print(json.dumps([sorted(set(spinnet.__all__) - set(namespace)),
                          sorted(set(spinnet.__all__) - set(dir(spinnet)))]))
        """) == [[], []]


def test_an_unknown_name_raises_attribute_error():
    assert run("""
        import json, spinnet
        try:
            spinnet.no_such_name
        except AttributeError as exc:
            print(json.dumps(str(exc)))
        """) == "module 'spinnet' has no attribute 'no_such_name'"


def test_the_cli_loads_what_it_imports(heavy_at_start):
    loaded = run("import json, sys, spinnet.cli", LOADED)
    assert {"spinnet.identities", "spinnet.wigner", "spinnet.kernel",
            "spinnet.exactnum"} <= set(loaded)
    assert run("import json, sys, spinnet.cli",
               HEAVY_LOADED) == heavy_at_start


# the modules the CLI loads only when a command that uses them runs
DEFERRED = ["spinnet.labeling", "spinnet.projective", "spinnet.symmetry"]


def run_cli(argv):
    """(exit code, stdout, deferred modules loaded, HEAVY modules loaded)
    of one fresh command."""
    return run(f"""
        import contextlib, io, json, sys
        import spinnet.cli
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            try:
                code = spinnet.cli.main({list(argv)!r})
            except SystemExit as exc:
                code = exc.code
        print(json.dumps([code, out.getvalue(),
                          [m for m in {DEFERRED!r} if m in sys.modules],
                          [m for m in {HEAVY!r} if m in sys.modules]]))
        """)


ONES = "a=1,b=1,c=1,d=1,e=1,f=1,p=1,q=1,r=1,x=1"


# (argv, the deferred modules it loads); labeling imports projective and
# symmetry itself
COMMAND_LOADS = [
    (("verify-orth", "--all", "--max-twice", "1"), []),
    (("verify-be", "--all", "--max-twice", "1"), []),
    (("verify-pachner", "--move", "23", "--all", "--max-twice", "1"), []),
    (("verify-pachner", "--move", "14", "--all", "--max-twice", "1"), []),
    (("sixj", "1", "1", "1", "1", "1", "1"), []),
    (("label", "--spins", ONES), DEFERRED),
    (("enumerate", "1", "1", "1", "1", "--others", "e=1,f=1,p=1,q=1,r=1"),
     DEFERRED),
    (("orbit", "1", "1", "1", "1", "1", "1"), ["spinnet.symmetry"]),
    (("regularize", "1", "1", "1", "1"), ["spinnet.symmetry"]),
    (("export", "simplex"), ["spinnet.projective"]),
]


@pytest.mark.parametrize("argv, loads", COMMAND_LOADS,
                         ids=[" ".join(argv) for argv, _ in COMMAND_LOADS])
def test_each_command_loads_what_it_runs(argv, loads, heavy_at_start):
    code, _, loaded, heavy = run_cli(argv)
    assert (code, loaded) == (0, loads)
    assert heavy == heavy_at_start


@pytest.mark.parametrize("argv", [("--help",), ("export", "--help"),
                                  ("label", "--help")],
                         ids=" ".join)
def test_help_text_reads_no_deferred_module(capsys, monkeypatch, argv):
    # the choices of export and the symbol list of label come from
    # cli._STRUCTURES and identities.SYMBOLS; a fresh interpreter, which
    # loads no deferred module, prints what this session's parser prints
    monkeypatch.setenv("COLUMNS", "80")
    code, text, loaded, _ = run_cli(argv)
    with pytest.raises(SystemExit):
        main(list(argv))
    assert (code, text, loaded) == (0, capsys.readouterr().out, [])
    assert {"--help": "{sixj,orbit,verify-orth,",
            "export": "{desargues,quadrangle,quadrilateral,simplex,"
                      "cross-section}",
            "label": "a,b,c,d,e,f,p,q,r,x"}[argv[0]] in text
