"""In-memory span tracer installed from the benchmark's own files.

Wrappers go on the names callers look up: every attribute of a loaded
spinnet module that is the traced function is replaced, and SqrtRational
operators are replaced on the class.  Each call records a span (kind,
start, end, parent, tag, failed) in flat arrays, so a few million spans
stay cheap.  The spans are written out when the run ends, and the layer
metrics are computed from them: a layer's self time is its spans'
duration minus the time their direct children cover, and its busy time
is the duration of its spans that are not nested in a span of the same
layer.
"""

from __future__ import annotations

import json
import statistics
import sys
import time
from array import array

# (module, attribute) pairs wrapped by install(), named "<layer>.<attribute>"
FUNCTIONS = (
    ("kernel", "sixj_raw"),
    ("wigner", "_sixj_cached"),
    ("exactnum", "square_free_split"),
    ("identities", "be_check"),
    ("identities", "orthogonality_check"),
    ("identities", "pachner_23_check"),
    ("identities", "pachner_14_check"),
    ("symmetry", "canonicalize_quadruple"),
    ("symmetry", "regularization_bounds"),
    ("projective", "build_desargues"),
    ("projective", "space_dual_desargues"),
    ("labeling", "label_desargues"),
    ("labeling", "transfer_labeling"),
    ("labeling", "network_amplitude"),
    ("cli", "main"),
)
SQRT_OPS = ("__add__", "__sub__", "__mul__", "__rmul__", "__truediv__",
            "__neg__")
SQRT_METHODS = ("__init__",) + SQRT_OPS
LARGE_TWICE = 800


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.kind = array("i")
        self.tag = array("i")
        self.failed = array("b")
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, tag_of=None):
        """fn wrapped to record one span per call."""
        nid = len(self.names)
        self.names.append(name)
        start, end, parent = self.start, self.end, self.parent
        kind, tag, failed = self.kind, self.tag, self.failed
        stack = self._stack
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(start)
            start.append(0)
            end.append(0)
            parent.append(stack[-1])
            kind.append(nid)
            tag.append(0 if tag_of is None else tag_of(args))
            failed.append(0)
            stack.append(i)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                failed[i] = 1
                raise
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()

        traced.__wrapped__ = fn
        return traced

    def install(self, spinnet) -> None:
        """Wrap the traced functions wherever spinnet modules bind them."""
        modules = [m for n, m in sys.modules.items()
                   if n == "spinnet" or n.startswith("spinnet.")]
        for mod_name, attr in FUNCTIONS:
            mod = sys.modules.get(f"spinnet.{mod_name}")
            if mod is None:
                continue
            original = getattr(mod, attr)
            tag_of = (lambda args: max(args)) if mod_name == "kernel" else None
            wrapped = self.wrap(f"{mod_name}.{attr}", original, tag_of)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._patch(m, key, wrapped)
        cls = spinnet.exactnum.SqrtRational
        for meth in SQRT_METHODS:
            self._patch(cls, meth, self.wrap(
                f"exactnum.SqrtRational.{meth}", vars(cls)[meth]))

    def _patch(self, owner, key, value) -> None:
        self._patches.append((owner, key, getattr(owner, key)))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches.clear()

    def write(self, path) -> None:
        """Spans as a JSON header line followed by the raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.start),
                      "arrays": [["start", "q"], ["end", "q"],
                                 ["parent", "i"], ["kind", "i"],
                                 ["tag", "i"], ["failed", "b"]]}
            fh.write(json.dumps(header).encode() + b"\n")
            for name, _code in header["arrays"]:
                getattr(self, name).tofile(fh)

    @classmethod
    def read(cls, path) -> "Tracer":
        tracer = cls()
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
            tracer.names = header["names"]
            for name, _code in header["arrays"]:
                getattr(tracer, name).fromfile(fh, header["count"])
        return tracer


def layer_metrics(tr: Tracer) -> dict:
    """Per-layer counts and times from the recorded spans.

    Metrics of a layer the workload never calls read 0.
    """
    n = len(tr.start)
    start, end, parent, tag = tr.start, tr.end, tr.parent, tr.tag
    kinds = [tr.names[k] for k in tr.kind]
    dur = [end[i] - start[i] for i in range(n)]
    child = [0] * n
    for i in range(n):
        if parent[i] >= 0:
            child[parent[i]] += dur[i]

    count: dict[str, int] = {}
    total_ns: dict[str, int] = {}
    failed: dict[str, int] = {}
    layer_busy: dict[str, int] = {}
    layer_self: dict[str, int] = {}
    kernel_durs = []
    large = []
    for i in range(n):
        name = kinds[i]
        layer = name.split(".", 1)[0]
        d = dur[i]
        count[name] = count.get(name, 0) + 1
        total_ns[name] = total_ns.get(name, 0) + d
        layer_self[layer] = layer_self.get(layer, 0) + d - child[i]
        p = parent[i]
        if p < 0 or kinds[p].split(".", 1)[0] != layer:
            layer_busy[layer] = layer_busy.get(layer, 0) + d
        if tr.failed[i]:
            failed[name] = failed.get(name, 0) + 1
        if layer == "kernel":
            kernel_durs.append(d)
            # kernel spans carry the symbol's largest twice-value
            if tag[i] >= LARGE_TWICE:
                large.append(d)

    def c(name):
        return count.get(name, 0)

    def secs(table, key):
        return table.get(key, 0) / 1e9

    kernel_calls = c("kernel.sixj_raw")
    kernel_busy = secs(layer_busy, "kernel")
    lookups = c("wigner._sixj_cached")
    misses = sum(1 for i in range(n) if kinds[i] == "kernel.sixj_raw"
                 and parent[i] >= 0
                 and kinds[parent[i]] == "wigner._sixj_cached")
    ops = sum(c(f"exactnum.SqrtRational.{op}") for op in SQRT_OPS)
    checks = sum(v for k, v in count.items() if k.startswith("identities."))
    ident_busy = secs(layer_busy, "identities")
    attempts = c("labeling.label_desargues")
    accepted = attempts - failed.get("labeling.label_desargues", 0)
    return {
        "kernel.calls": (kernel_calls, "count"),
        "kernel.busy_s": (kernel_busy, "s"),
        "kernel.evals_per_s": (kernel_calls / kernel_busy
                               if kernel_busy else 0.0, "1/s"),
        "kernel.call_p50_us": (statistics.median(kernel_durs) / 1e3
                               if kernel_durs else 0.0, "us"),
        "kernel.large_s_per_symbol": (sum(large) / len(large) / 1e9
                                      if large else 0.0, "s"),
        "wigner.lookups": (lookups, "count"),
        "wigner.hit_ratio": ((lookups - misses) / lookups
                             if lookups else 0.0, "ratio"),
        "wigner.self_s": (secs(layer_self, "wigner"), "s"),
        "exactnum.sqrt_rational_ops": (ops, "count"),
        "exactnum.busy_s": (secs(layer_busy, "exactnum"), "s"),
        "exactnum.square_free_split.calls": (
            c("exactnum.square_free_split"), "count"),
        "exactnum.square_free_split.busy_s": (
            secs(total_ns, "exactnum.square_free_split"), "s"),
        "identities.checks": (checks, "count"),
        "identities.self_s": (secs(layer_self, "identities"), "s"),
        "identities.checks_per_s": (checks / ident_busy
                                    if ident_busy else 0.0, "1/s"),
        "symmetry.calls": (sum(v for k, v in count.items()
                               if k.startswith("symmetry.")), "count"),
        "symmetry.busy_s": (secs(layer_busy, "symmetry"), "s"),
        "projective.builds": (sum(v for k, v in count.items()
                                  if k.startswith("projective.")), "count"),
        "projective.busy_s": (secs(layer_busy, "projective"), "s"),
        "labeling.attempts": (attempts, "count"),
        "labeling.accepted": (accepted, "count"),
        "labeling.accept_ratio": (accepted / attempts
                                  if attempts else 0.0, "ratio"),
        "labeling.self_s": (secs(layer_self, "labeling"), "s"),
        "labeling.transfer_s": (secs(total_ns, "labeling.transfer_labeling"),
                                "s"),
        "labeling.amplitude_s": (secs(total_ns, "labeling.network_amplitude"),
                                 "s"),
        "cli.self_s": (secs(layer_self, "cli"), "s"),
    }
