"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q spinbench/test_smoke.py

Every workload must report every metric BENCHMARK.json names, with its
unit, in both modes; a corrupted reference must fail the correctness
gate; and the benchmark must refuse to run without the sources.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SCRATCH = HERE / "results" / "smoke"


def run(workload, trace=0, *extra, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "spinbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "0.5", "--trace", str(trace), "--tiny",
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(proc) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_with_its_unit(workload, trace):
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = result(proc)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert ({k: v["unit"] for k, v in res["metrics"].items()}
            == {m["name"]: m["unit"] for m in spec})
    for metric in res["metrics"].values():
        assert isinstance(metric["value"], (int, float))


def corrupt(ref: dict, workload: str) -> None:
    if workload == "pentagon_grid":
        ref["pentagon_grid"]["2"]["digest"] = "0" * 16
    elif workload == "sixj_cold":
        ref["sixj_pool"] = [["0" * 8] * len(row) for row in ref["sixj_pool"]]
    elif workload == "network_sample":
        ref["quadruples"] = {k: "0" * 8 for k in ref["quadruples"]}
    else:
        ref["cli_orth_grid"]["2"]["digest"] = "0" * 16


@pytest.mark.parametrize("workload", WORKLOADS)
def test_corrupted_reference_fails_the_gate(workload):
    ref = json.loads((HERE / "reference.json").read_text())
    corrupt(ref, workload)
    SCRATCH.mkdir(parents=True, exist_ok=True)
    path = SCRATCH / f"corrupt-{workload}.json"
    path.write_text(json.dumps(ref))
    proc = run(workload, 0, "--reference", str(path))
    assert proc.returncode == 1, proc.stderr
    res = result(proc)
    assert not res["correct"] and res["failed"] >= 1


def test_refuses_to_run_without_the_sources():
    bare = SCRATCH / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / "spinbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = run(WORKLOADS[0], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0
    assert not proc.stdout.strip()
