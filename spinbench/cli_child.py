"""Run the spinnet CLI as the benchmark's measured child process.

    cli_child.py timed SAMPLES_PATH CLI_ARGS...
    cli_child.py traced SPANS_PATH CLI_ARGS...

Stdout and the exit code are the CLI's own.  "timed" runs a calibration
block (speed.py) on a timer signal every CHUNK_NS, and at start and end,
and writes the (start, duration) samples to SAMPLES_PATH as JSON.
"traced" installs the span tracer instead, without the timer, so no
calibration time falls inside a span, and writes the spans to SPANS_PATH.
"""

import json
import signal
import sys
import time

import speed
from tracing import Tracer


def sample(samples) -> None:
    samples.append((time.monotonic_ns(), speed.calibrate()))


def main() -> int:
    mode, path, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    samples = []
    if mode == "timed":
        sample(samples)
        signal.signal(signal.SIGALRM, lambda signum, frame: sample(samples))
        interval = speed.CHUNK_NS / 1e9
        signal.setitimer(signal.ITIMER_REAL, interval, interval)
    import spinnet
    import spinnet.cli

    tracer = Tracer()
    if mode == "traced":
        tracer.install(spinnet)
    try:
        code = spinnet.cli.main(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        tracer.uninstall()
        sys.stdout.flush()
    if mode == "timed":
        sample(samples)
        with open(path, "w") as fh:
            json.dump(samples, fh)
    else:
        tracer.write(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
