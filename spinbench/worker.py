"""One measured workload run in a fresh interpreter; prints one JSON line.

Started by run.py with PYTHONPATH pointing at the checkout's src/, so
the value cache starts empty and peak memory belongs to this workload.

    worker.py --workload W --seed N --seconds S --trace 0|1
              --reference PATH --spans PATH [--probe] [--tiny]

--probe only imports spinnet, does the one-time builds and, for a
library workload, the first item, then reports setup_s and
first_record_s.  Times are scaled to the calibration speed (speed.py);
the unscaled figures are reported under "raw".
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from pathlib import Path

import speed
import workloads
from tracing import Tracer, layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MAX_TRACEBACKS = 3


def load_spinnet():
    import spinnet

    src = (ROOT / "src").resolve()
    if src not in Path(spinnet.__file__).resolve().parents:
        raise SystemExit(f"spinnet imported from {spinnet.__file__}, "
                         f"not from {src}")
    return spinnet


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def latency_summary(passes, keys, per_pass: int, scale: float) -> dict:
    """Median and tail latency in ms over the items of a pass.

    passes holds one sequence of latencies per pass, in seconds after
    multiplying by scale, and keys the matching item keys.  An item's
    latency is the median over the passes that ran it, so a stretch of the
    run where the host was slower than the calibration showed does not
    become the tail.
    """
    by_key: dict = {}
    for lat, ks in zip(passes, keys):
        for v, k in zip(lat, ks):
            by_key.setdefault(k, []).append(v)
    lat = sorted(statistics.median(v) for v in by_key.values())
    p_tail = workloads.tail_percentile(per_pass)
    return {"item_p50_ms": workloads.percentile(lat, 50.0) * scale * 1e3,
            "item_tail_ms": workloads.percentile(lat, p_tail) * scale * 1e3,
            "tail_percentile": p_tail,
            "samples": sum(len(p) for p in passes)}


class PassRunner:
    """Runs timed passes of a library workload and keeps the totals.

    Each item is timed alone.  A calibration block runs after every
    speed.CHUNK_NS of items, and each item's latency is also kept scaled
    by the calibrations on either side of its chunk.
    """

    def __init__(self, wl):
        self.wl = wl
        self.raw_ns: list[array] = []
        self.scaled_ns: list[array] = []
        self.keys: list[list] = []
        self.first_pass_rss_mb = None
        self.items = 0
        self.failed = 0
        self.wall = 0.0
        self.passes = 0
        self.accepted = 0
        self._tracebacks = 0

    def run(self, k: int, clear: bool = True) -> float:
        """One pass over the items of pass k; returns its scaled busy time."""
        wl = self.wl
        items = wl.pass_items(k)
        if clear:
            workloads.clear_value_caches()
        results = []
        raw, scaled = array("q"), array("d")
        clock = time.perf_counter_ns
        t_start = clock()
        cals, bounds = [speed.calibrate()], [0]
        chunk_start = clock()
        for item in items:
            t0 = clock()
            try:
                res = wl.run_item(item)
            except Exception:
                res = None
                self._report(item)
            t1 = clock()
            raw.append(t1 - t0)
            results.append(res)
            if t1 - chunk_start > speed.CHUNK_NS:
                cals.append(speed.calibrate())
                bounds.append(len(raw))
                chunk_start = clock()
        cals.append(speed.calibrate())
        bounds.append(len(raw))
        for f, a, b in zip(speed.chunk_factors(cals), bounds, bounds[1:]):
            scaled.extend(v * f for v in raw[a:b])
        self.wall += (clock() - t_start) / 1e9
        self.raw_ns.append(raw)
        self.scaled_ns.append(scaled)
        self.keys.append([wl.item_key(j, it) for j, it in enumerate(items)])
        if self.first_pass_rss_mb is None:
            # later passes repeat the same work; only the benchmark's own
            # latency arrays grow after the first
            self.first_pass_rss_mb = peak_rss_mb()
        self.items += len(items)
        self.passes += 1
        self.failed += wl.check_pass(items, results)
        if isinstance(wl, workloads.NetworkSample):
            self.accepted += wl.accepted(results)
        return sum(scaled) / 1e9

    def _report(self, item):
        if self._tracebacks < MAX_TRACEBACKS:
            self._tracebacks += 1
            print(f"item {item!r} raised:", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)


def probe_library(wl) -> dict:
    """Set-up and time to the first result, in a fresh interpreter."""
    before = speed.calibrate(3)
    t0 = time.perf_counter()
    spinnet = load_spinnet()
    wl.setup(spinnet)
    setup_s = time.perf_counter() - t0
    items = wl.pass_items(0)
    workloads.clear_value_caches()
    wl.run_item(items[0])
    first_s = time.perf_counter() - t0
    f = speed.factor(before, speed.calibrate(3))
    return {"setup_s": setup_s * f, "first_record_s": first_s * f,
            "raw": {"setup_s": setup_s, "first_record_s": first_s},
            "kernel_backend": spinnet.kernel_backend()}


def run_library(args, reference) -> dict:
    wl = workloads.LIBRARY[args.workload](args.seed, args.tiny, reference)
    if args.probe:
        return probe_library(wl)
    spinnet = load_spinnet()
    wl.setup(spinnet)
    runner = PassRunner(wl)
    out = {"kernel_backend": spinnet.kernel_backend(), "sizes": wl.sizes()}
    if args.trace:
        # the first pass warms the process; the second is the untraced base
        runner.run(0)
        untraced = runner.run(0)
        workloads.clear_value_caches()
        tracer = Tracer()
        tracer.install(spinnet)
        try:
            wl.setup(spinnet)
            traced = runner.run(0, clear=False)
        finally:
            tracer.uninstall()
        tracer.write(args.spans)
        out["layers"] = layer_metrics(tracer)
        out["layers"]["trace.overhead_ratio"] = (traced / untraced, "ratio")
        out["layers"]["cli.records"] = (0, "count")
        out["layers"]["cli.bytes_out"] = (0, "bytes")
    else:
        while runner.wall < args.seconds:
            runner.run(runner.passes)
    per_pass = len(wl.pass_items(0))
    raw = latency_summary(runner.raw_ns, runner.keys, per_pass, 1e-9)
    raw["items_per_s"] = runner.items / (sum(map(sum, runner.raw_ns)) / 1e9)
    out.update(latency_summary(runner.scaled_ns, runner.keys, per_pass, 1e-9))
    out.update({
        "attempted": runner.items, "failed": runner.failed,
        "passes": runner.passes, "wall_s": runner.wall,
        "items_per_s": runner.items / (sum(map(sum, runner.scaled_ns)) / 1e9),
        "peak_rss_mb": runner.first_pass_rss_mb, "raw": raw,
    })
    if isinstance(wl, workloads.NetworkSample):
        out["accepted"] = runner.accepted
    return out


def invoke_cli(mode: str, path: Path, cli_args: list[str]) -> dict:
    """Run cli_child.py to completion, timing each stdout line."""
    argv = [sys.executable, str(HERE / "cli_child.py"), mode, str(path)]
    launch = time.monotonic_ns()
    proc = subprocess.Popen(argv + cli_args, stdout=subprocess.PIPE, cwd=ROOT)
    arrivals = array("q")
    h = hashlib.sha256()
    nbytes = 0
    last = b""
    clock = time.monotonic_ns
    with proc.stdout:
        for line in proc.stdout:
            arrivals.append(clock())
            h.update(line)
            nbytes += len(line)
            last = line
    _, status, usage = os.wait4(proc.pid, 0)
    end = time.monotonic_ns()
    proc.returncode = os.waitstatus_to_exitcode(status)
    h.update(f"exit={proc.returncode}".encode())
    try:
        summary = json.loads(last)
    except ValueError:
        summary = {}
    records = list(arrivals[:-1])
    res = {"raw_arrivals": [(t - launch) / 1e9 for t in records],
           "raw_wall": (end - launch) / 1e9, "records": len(records),
           "digest": h.hexdigest()[:16], "bytes": nbytes,
           "exit": proc.returncode, "summary": summary,
           "rss_mb": usage.ru_maxrss / 1024.0}
    if mode == "timed":
        samples = json.loads(path.read_text())
        *scaled, wall = speed.scaled_times(launch, samples, records + [end])
        res.update({"arrivals": scaled, "wall": wall})
    return res


def cli_failures(res: dict, ref: dict) -> int:
    failures = 0
    if res["digest"] != ref["digest"] or res["exit"] != 0:
        failures += 1
    summary = res["summary"]
    if summary.get("instances") != ref["records"]:
        failures += 1
    failures += summary.get("failures", 1)
    failures += max(0, ref["records"] - res["records"])
    return failures


def probe_cli() -> dict:
    before = speed.calibrate(3)
    t0 = time.perf_counter()
    spinnet = load_spinnet()
    import spinnet.cli

    spinnet.cli.build_parser()
    setup_s = time.perf_counter() - t0
    f = speed.factor(before, speed.calibrate(3))
    return {"setup_s": setup_s * f, "raw": {"setup_s": setup_s},
            "kernel_backend": spinnet.kernel_backend()}


def cli_summary(runs: list[dict], per_pass: int, prefix: str = "") -> dict:
    """End-to-end CLI figures; a record's latency is its arrival time."""
    arrivals = [r[prefix + "arrivals"] for r in runs]
    res = latency_summary(arrivals, [range(len(a)) for a in arrivals],
                          per_pass, 1.0)
    res["items_per_s"] = (sum(r["records"] for r in runs)
                          / sum(r[prefix + "wall"] for r in runs))
    res["first_record_s"] = statistics.median(
        r[prefix + "arrivals"][0] if r["records"] else r[prefix + "wall"]
        for r in runs)
    return res


def run_cli(args, reference) -> dict:
    if args.probe:
        return probe_cli()
    ref = reference["cli_orth_grid"][str(workloads.cli_max_twice(args.tiny))]
    cli_args = workloads.cli_argv(args.tiny)
    samples = Path(args.spans).with_suffix(".samples")
    out = {"sizes": {"max_twice": workloads.cli_max_twice(args.tiny),
                     "items_per_pass": ref["records"]}}
    runs = []
    if args.trace:
        runs.append(invoke_cli("timed", samples, cli_args))
        traced = invoke_cli("traced", Path(args.spans), cli_args)
        layers = layer_metrics(Tracer.read(args.spans))
        layers["trace.overhead_ratio"] = (
            traced["raw_wall"] / runs[0]["raw_wall"], "ratio")
        layers["cli.records"] = (traced["records"], "count")
        layers["cli.bytes_out"] = (traced["bytes"], "bytes")
        out["layers"] = layers
        checked = runs + [traced]
    else:
        while sum(r["raw_wall"] for r in runs) < args.seconds:
            runs.append(invoke_cli("timed", samples, cli_args))
        checked = runs
    out.update(cli_summary(runs, ref["records"]))
    out.update({
        "attempted": ref["records"] * len(checked),
        "failed": sum(cli_failures(r, ref) for r in checked),
        "passes": len(checked),
        "wall_s": sum(r["raw_wall"] for r in checked),
        "peak_rss_mb": max(r["rss_mb"] for r in runs),
        "exit_codes": [r["exit"] for r in checked],
        "kernel_backend": load_spinnet().kernel_backend(),
        "raw": cli_summary(runs, ref["records"], "raw_"),
    })
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--reference", required=True)
    ap.add_argument("--spans", required=True)
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()
    reference = json.loads(Path(args.reference).read_text())
    if args.workload == workloads.CLI_NAME:
        result = run_cli(args, reference)
    else:
        result = run_library(args, reference)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
