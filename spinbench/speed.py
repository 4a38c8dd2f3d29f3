"""Machine-speed calibration, so times from a noisy shared machine compare.

The speed of a shared host drifts by 20-40% over seconds to minutes,
far more than the changes the benchmark must resolve.  A fixed block of
pure-Python work (integer gcd steps, tuples, a dict and str formatting,
the operations spinnet's exact arithmetic is made of) runs about every
CHUNK_NS in the measured process.  Each measured interval is scaled by
NOMINAL_NS over the block's time around it, which reports it at the
speed where the block takes NOMINAL_NS; the blocks' own time is left
out.  Block times are smoothed by a running median of three, so one
block that the host happened to preempt does not skew its neighbours.

The block uses builtins only, so running it before `import spinnet`
loads nothing spinnet would load, and it runs with the garbage
collector off, so the size of spinnet's heap does not change its time.
"""

from __future__ import annotations

import bisect
import gc
import statistics
import time

NOMINAL_NS = 2_000_000
CHUNK_NS = 100_000_000


def _block() -> int:
    acc = 0
    seen = {}
    for i in range(1, 2500):
        a, b = i * 7919 % 1009, i * 104729 % 997 + 1
        while b:
            a, b = b, a % b
        key = (i % 53, a)
        seen[key] = seen.get(key, 0) + 1
        acc += len(str(i * i))
    return acc + len(seen)


def calibrate(blocks: int = 1) -> float:
    """Median time of a few calibration blocks, in nanoseconds."""
    clock = time.perf_counter_ns
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(blocks):
            t0 = clock()
            _block()
            times.append(clock() - t0)
    finally:
        if enabled:
            gc.enable()
    return statistics.median(times)


def factor(before_ns: float, after_ns: float) -> float:
    """Scale for a time measured between two calibrations."""
    return NOMINAL_NS / ((before_ns + after_ns) / 2)


def smooth(cals: list[float]) -> list[float]:
    """Running median of three (two at the ends)."""
    n = len(cals)
    return [statistics.median(cals[max(0, i - 1):min(n, i + 2)])
            for i in range(n)]


def chunk_factors(cals: list[float]) -> list[float]:
    """Scale of each chunk of work between consecutive calibrations."""
    s = smooth(cals)
    return [factor(s[i], s[i + 1]) for i in range(len(s) - 1)]


def scaled_times(start_ns: int, samples: list[tuple[int, float]],
                 times_ns: list[int]) -> list[float]:
    """Scaled seconds from start_ns to each of the ascending times_ns.

    samples are (block start, block time) pairs from the measured
    process, ascending; the time inside blocks is not counted.
    """
    cals = smooth([c for _, c in samples])
    # interval k runs from the end of block k-1 (or start_ns) to the start
    # of block k; the last one runs on from the end of the last block
    starts = [start_ns] + [t + c for (t, c) in samples]
    scales = ([NOMINAL_NS / cals[0]]
              + [factor(cals[k - 1], cals[k]) for k in range(1, len(cals))]
              + [NOMINAL_NS / cals[-1]])
    done = [0.0]
    for k, (t, _) in enumerate(samples):
        done.append(done[-1] + max(0, t - starts[k]) * scales[k])
    out = []
    for when in times_ns:
        k = max(0, bisect.bisect_right(starts, when) - 1)
        # a time that falls inside block k counts from the block's end
        inside = max(0, when - starts[k])
        if k < len(samples):
            inside = min(inside, samples[k][0] - starts[k])
        out.append((done[k] + inside * scales[k]) / 1e9)
    return out
