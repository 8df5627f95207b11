"""Outside-in span recorder for the traced benchmark run.

The program has no tracing of its own, so the recorder replaces each traced
public function with a wrapper at *every* ``mixbounds`` module attribute that
binds it.  Modules import functions by name (``from .chains import
classify``), so wrapping only the defining module would miss the nested calls
that bounds, flows and the CLI make; wrapping every binding sees them all.

Each call becomes a span (name, start, end, parent span, request id, error
class), kept in memory and written out once at the end.  A span's self time
is its duration minus the durations of its direct children and minus the
recorder's own bookkeeping inside it.  Work counters are derived only from
arguments and return values.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

#: traced functions, by layer (the modules of src/mixbounds)
LAYERS = {
    "chains": ("build_chain", "classify", "time_reversal", "multiply", "lazy"),
    "spectral": ("eigendecompose", "lambda_constants", "conductance"),
    "mixing": ("discrete_mixing_time", "continuous_mixing_time", "matrix_exponential"),
    "flows": ("build_canonical_flow", "validate_flow", "edge_congestion", "state_congestion", "spread_flow"),
    "bounds": ("full_report", "spectral_bounds_reversible", "comparison_reversible", "conductance_bounds",
               "nonreversible_bounds", "comparison_general"),
    "serialize": ("load_chain",),
    "cli": ("run_cli",),
}

#: functions whose redundancy (distinct argument tuples / calls) is reported
DISTINCT = ("chains.classify", "spectral.eigendecompose", "mixing.discrete_mixing_time",
            "mixing.continuous_mixing_time", "mixing.matrix_exponential")

TRACED = [f"{layer}.{fn}" for layer, fns in LAYERS.items() for fn in fns]


def _fingerprint(value):
    """Hashable stand-in for an argument: chains and arrays by content."""
    P = getattr(value, "P", None)
    if isinstance(P, np.ndarray):
        value = P
    if isinstance(value, np.ndarray):
        return (value.shape, hashlib.sha1(np.ascontiguousarray(value).tobytes()).hexdigest())
    return repr(value)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent, request, start, end, error, bookkeeping_s]
        self.request = None
        self._stack: list[int] = []
        self._keys: dict[str, set] = defaultdict(set)
        self.counters = {"mixing.discrete_steps": 0, "spectral.cuts": 0,
                         "flows.paths_built": 0, "flows.paths_spread": 0}
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------

    def install(self) -> None:
        """Wrap every traced function at each mixbounds module attribute bound to it."""
        modules = [m for n, m in sorted(sys.modules.items()) if n == "mixbounds" or n.startswith("mixbounds.")]
        originals = {}
        for layer, fns in LAYERS.items():
            mod = sys.modules[f"mixbounds.{layer}"]
            for fn in fns:
                original = getattr(mod, fn)
                originals[id(original)] = self._wrap(f"{layer}.{fn}", original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                wrapper = originals.get(id(value))
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()

    def _wrap(self, name: str, fn):
        signature = inspect.signature(fn) if name in DISTINCT else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            entered = clock()
            sid = len(self.spans)
            span = [name, self._stack[-1] if self._stack else None, self.request, 0.0, 0.0, None, 0.0]
            self.spans.append(span)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                self._keys[name].add(tuple(_fingerprint(v) for v in bound.arguments.values()))
            self._stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                self._close(span, entered, start, clock(), type(exc).__name__)
                raise
            end = clock()
            self._count(name, args, result)
            self._close(span, entered, start, end, None)
            return result

        return wrapper

    def _close(self, span: list, entered: float, start: float, end: float, error: str | None) -> None:
        """Finish a span and charge this wrapper's bookkeeping to its parent."""
        self._stack.pop()
        span[3], span[4], span[5] = start, end, error
        if span[1] is not None:
            self.spans[span[1]][6] += (start - entered) + (time.perf_counter() - end)

    def _count(self, name: str, args, result) -> None:
        if name == "mixing.discrete_mixing_time":
            self.counters["mixing.discrete_steps"] += int(result.time)
        elif name == "spectral.conductance":
            # computed from the input size: the number of cuts enumerated
            self.counters["spectral.cuts"] += 2 ** (args[0].n - 1) - 1
        elif name == "flows.build_canonical_flow":
            self.counters["flows.paths_built"] += len(result.paths)
        elif name == "flows.spread_flow":
            self.counters["flows.paths_spread"] += len(result.paths)

    # -- results ---------------------------------------------------------

    def self_times(self) -> list[float]:
        child_s = [0.0] * len(self.spans)
        for span in self.spans:
            if span[1] is not None:
                child_s[span[1]] += span[4] - span[3]
        return [s[4] - s[3] - child_s[i] - s[6] for i, s in enumerate(self.spans)]

    def metrics(self) -> dict[str, float]:
        calls = defaultdict(int)
        errors = defaultdict(int)
        self_s = defaultdict(float)
        for span, own in zip(self.spans, self.self_times()):
            calls[span[0]] += 1
            errors[span[0]] += span[5] is not None
            self_s[span[0]] += own
        out: dict[str, float] = {}
        for name in TRACED:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.self_s"] = self_s[name]
            out[f"{name}.errors"] = errors[name]
        for name in DISTINCT:
            out[f"{name}.distinct_ratio"] = len(self._keys[name]) / calls[name] if calls[name] else 0.0
        out.update(self.counters)
        return out

    def write(self, path) -> None:
        own = self.self_times()
        rows = [{"id": i, "name": s[0], "parent": s[1], "request": s[2], "start": s[3], "end": s[4],
                 "self_s": own[i], "error": s[5]} for i, s in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump({"spans": rows}, fh)
