#!/usr/bin/env python3
"""Record the reference outputs that the benchmark's correctness gate uses.

    PYTHONPATH=src python3 spinbench/make_reference.py

Run once at a commit whose outputs are trusted; it writes
spinbench/reference.json.  A later commit must reproduce these outputs
exactly, so do not regenerate the file to make a failing run pass.
"""

from __future__ import annotations

import json
import random
import sys
from itertools import product
from pathlib import Path

import spinnet
from spinnet.errors import TriadViolation, UnrealizableQuadrangle
from spinnet.identities import FIVE_SYMBOLS as LIB_FIVE_SYMBOLS
from spinnet.identities import BEInstance, be_check, iter_be_grid
from spinnet.labeling import label_desargues
from spinnet.symmetry import canonicalize_quadruple, regularization_bounds
from spinnet.wigner import sixj_value_twice

import workloads as wl
from worker import invoke_cli

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "results"


def check(ok: bool, what) -> None:
    """Refuse to record a reference from outputs that are wrong."""
    if not ok:
        raise SystemExit(f"make_reference: check failed: {what}")


def pentagon(max_twice: int) -> dict:
    lines = []
    for t in iter_be_grid(max_twice):
        res = be_check(BEInstance.from_twice(t))
        check(res.equal, t)
        lines.append(f"{','.join(map(str, t))}:{res.lhs}={res.rhs}")
    lines.sort()
    return {"instances": len(lines), "digest": wl.digest(lines)}


def cli(tiny: bool) -> dict:
    RESULTS.mkdir(exist_ok=True)
    res = invoke_cli("timed", RESULTS / "reference.samples", wl.cli_argv(tiny))
    summary = res["summary"]
    check(res["exit"] == 0 and summary["failures"] == 0, summary)
    return {"records": res["records"], "digest": res["digest"]}


def small_sixj() -> dict:
    """Value of every valid symbol with entries up to the network's spins."""
    values = {}
    rng = range(wl.NetworkSample.MAX_TWICE + 1)
    for t in product(rng, repeat=6):
        if wl.symbol_ok(t):
            text = str(sixj_value_twice(t))
            # one value per symmetry orbit: the key must not merge values
            check(values.setdefault(wl.orbit_key(t), text) == text, t)
    return dict(sorted(values.items()))


def quadruples() -> dict:
    out = {}
    rng = range(wl.NetworkSample.MAX_TWICE + 1)
    for t in product(rng, repeat=4):
        try:
            q = canonicalize_quadruple(*(spinnet.Spin(v) for v in t))
        except UnrealizableQuadrangle:
            continue
        text = json.dumps(regularization_bounds(q).to_json_dict(),
                          sort_keys=True)
        out[",".join(map(str, t))] = wl.short_digest(text)
    return out


def check_labeling_rule(draws: int = 20000) -> None:
    """The benchmark's triad and symbol tables agree with the library's."""
    check(tuple("".join(s) for s in LIB_FIVE_SYMBOLS) == wl.FIVE_SYMBOLS,
          "the five symbols differ from the library's")
    sample = wl.NetworkSample(0, False, {"small_sixj": {}})
    rng = random.Random("check-labeling-rule")
    spins = [spinnet.Spin(v) for v in range(sample.MAX_TWICE + 1)]
    for _ in range(draws):
        draw = tuple(rng.randrange(len(spins)) for _ in wl.SYMBOLS)
        try:
            label_desargues({n: spins[t] for n, t in zip(wl.SYMBOLS, draw)})
            accepted = True
        except TriadViolation:
            accepted = False
        check(accepted == sample.expected_accept(draw), draw)


def main() -> int:
    check_labeling_rule()
    pool = wl.sixj_pool(wl.SixjCold.STRATA, wl.SixjCold.CANDIDATES,
                        wl.SixjCold.MAX_TWICE)
    reference = {
        "pentagon_grid": {str(m): pentagon(m) for m in (2, 4)},
        "cli_orth_grid": {str(wl.cli_max_twice(tiny)): cli(tiny)
                          for tiny in (True, False)},
        "sixj_pool": [[wl.short_digest(str(sixj_value_twice(t))) for t in row]
                      for row in pool],
        "small_sixj": small_sixj(),
        "quadruples": quadruples(),
    }
    (HERE / "reference.json").write_text(
        json.dumps(reference, separators=(",", ":")) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
