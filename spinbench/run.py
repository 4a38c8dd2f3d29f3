#!/usr/bin/env python3
"""spinnet benchmark: one seeded workload, measured end to end or traced.

    python3 spinbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Workloads (see workloads.py):
pentagon_grid, sixj_cold, network_sample, cli_orth_grid.

--trace 0 measures the end-to-end metrics with tracing off: the timed
passes in one fresh interpreter, and set-up and (for a library workload)
time to the first result as medians over PROBES more fresh interpreters.
Times are scaled to a fixed machine speed by calibration blocks measured
between chunks of work (speed.py); the unscaled figures are in the
results file.  --trace 1 runs a warm-up, an untraced and a traced pass
and reports the per-layer metrics from the spans.  Every output is
checked exactly against reference.json; a mismatch makes the run fail.

The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  The full result, with run metadata, is
also written to spinbench/results/.  Exit code 0 when every output was
correct, 1 when not, 2 when the repository or the reference is missing.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
PROBES = 15
TIME_LIMIT_S = 170.0


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("SPINNET_")}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


def src_digest() -> str:
    """Digest of the package sources, which identifies the code measured."""
    h = hashlib.sha256()
    for path in sorted((SRC / "spinnet").rglob("*")):
        if path.suffix in (".py", ".pyx") and path.is_file():
            h.update(path.relative_to(SRC).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return res.stdout.strip() or "unknown"


def run_worker(args, deadline: float, probe: bool = False) -> dict:
    """One worker.py process; its last stdout line is its result."""
    cmd = [sys.executable, str(HERE / "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--reference", str(args.reference),
           "--spans", str(spans_path(args))]
    if probe:
        cmd.append("--probe")
    if args.tiny:
        cmd.append("--tiny")
    # a session of its own, so a timeout also stops the CLI it runs
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT,
                            env=child_env(), start_new_session=True)
    try:
        out, _ = proc.communicate(
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise SystemExit(f"{args.workload}: worker exceeded the time limit")
    if proc.returncode != 0 or not out.strip():
        raise SystemExit(f"{args.workload}: worker exited with "
                         f"{proc.returncode}")
    return json.loads(out.decode().strip().splitlines()[-1])


def stem(args) -> str:
    return (f"{args.workload}-seed{args.seed}-trace{args.trace}"
            + ("-tiny" if args.tiny else ""))


def spans_path(args) -> Path:
    return RESULTS / f"{stem(args)}.spans"


def end_to_end(main: dict, probes: list[dict]) -> dict:
    """The end-to-end metrics; set-up and first result are probe medians."""
    first = (main["first_record_s"] if "first_record_s" in main else
             statistics.median(p["first_record_s"] for p in probes))
    return {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "items_per_s": (main["items_per_s"], "1/s"),
        "item_p50_ms": (main["item_p50_ms"], "ms"),
        "item_tail_ms": (main["item_tail_ms"], "ms"),
        "first_record_s": (first, "s"),
        "peak_rss_mb": (main["peak_rss_mb"], "MB"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="smallest inputs, for the smoke test")
    ap.add_argument("--reference", type=Path, default=HERE / "reference.json",
                    help="reference outputs to check against")
    args = ap.parse_args(argv)

    if not (SRC / "spinnet" / "__init__.py").is_file():
        print(f"spinbench: no spinnet sources under {SRC}", file=sys.stderr)
        return 2
    if not args.reference.is_file():
        print(f"spinbench: no reference file {args.reference}",
              file=sys.stderr)
        return 2
    args.reference = args.reference.resolve()
    RESULTS.mkdir(exist_ok=True)
    # imports read bytecode, as from an installed package, even where the
    # environment stops Python from writing it
    for tree in (SRC / "spinnet", HERE):
        compileall.compile_dir(tree, quiet=1)
    deadline = time.monotonic() + TIME_LIMIT_S

    # half the set-up probes run before the measured worker and half after,
    # so their median spans the whole run rather than one stretch of it
    before = 0 if args.trace else PROBES // 2
    after = 0 if args.trace else PROBES - before
    probes = [run_worker(args, deadline, probe=True) for _ in range(before)]
    main_run = run_worker(args, deadline)
    probes += [run_worker(args, deadline, probe=True) for _ in range(after)]
    if args.trace:
        metrics = main_run["layers"]
    else:
        metrics = end_to_end(main_run, probes)

    attempted, failed = main_run["attempted"], main_run["failed"]
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "tiny": args.tiny,
        "sizes": main_run["sizes"], "passes": main_run["passes"],
        "timed_wall_s": main_run["wall_s"],
        "tail_percentile": main_run["tail_percentile"],
        "latency_samples": main_run["samples"],
        "error_rate": failed / attempted,
        "python": platform.python_version(),
        "kernel_backend": main_run["kernel_backend"],
        "git_sha": git_sha(), "src_digest": src_digest(),
        "nproc": os.cpu_count(), "probes": len(probes),
        "nominal_calibration_ns": speed.NOMINAL_NS,
        "raw": {**main_run["raw"],
                **({"probes": [p["raw"] for p in probes]} if probes else {})},
    }
    if "accepted" in main_run:
        meta["accepted_draws"] = main_run["accepted"]
    if "exit_codes" in main_run:
        meta["cli_exit_codes"] = main_run["exit_codes"]
    result = {
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    (RESULTS / f"{stem(args)}.json").write_text(
        json.dumps({"meta": meta, **result}, indent=2) + "\n")

    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:>16.6g} {unit}")
    if not args.trace:
        print(f"item_tail_ms is p{meta['tail_percentile']:g} over "
              f"{meta['sizes']['items_per_pass']} items a pass "
              f"({meta['latency_samples']} timings in {meta['passes']} "
              "passes)")
    print(f"error_rate {meta['error_rate']:g} ({failed} of {attempted})")
    print("meta " + json.dumps(meta, sort_keys=True))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
