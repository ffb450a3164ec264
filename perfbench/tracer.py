"""Spans around calls into mtsine's layers, recorded from outside the package.

The tracer wraps each named function in every ``mtsine`` module
namespace that holds it (``adaptive`` and ``cli`` import ``dft``,
``generate`` and others by name), so calls are caught whichever module
makes them. A span is (name, start, end, parent, operation); it lives in
memory until the run writes the trace out. A function that the package
no longer has is listed as absent, not treated as an error. Some
wrappers also record counts computed from the call's inputs.
"""

import functools
import statistics
import sys
import time

import numpy as np

PACKAGE = "mtsine"


def _useful_ratio(y, k_profile, *args, **kwargs):
    # share of the m * max K shift differences the numpy path forms that some bin uses
    k = np.asarray(k_profile)
    return {"useful_ratio": float(k.sum()) / (k.size * float(k.max()))}


def _taps(values, weights, *args, **kwargs):
    return {"taps": float(np.size(weights) * np.size(values))}


def _distinct_halfwidths(values, half_bins, *args, **kwargs):
    return {"distinct_halfwidths": float(np.unique(half_bins).size)}


# (module, function, count computed from the call's inputs or None)
TARGETS = [
    ("estimator", "dft", None),
    ("estimator", "sinusoidal_estimate_fast", None),
    ("_kernels", "combine_shifts", None),
    ("_kernels", "variable_k_combine", _useful_ratio),
    ("_kernels", "smooth_circular", _taps),
    ("_kernels", "smooth_variable", _distinct_halfwidths),
    ("_kernels", "ar_recurse", None),
    ("adaptive", "log_multitaper", None),
    ("adaptive", "w_opt", None),
    ("adaptive", "two_stage_log_estimate", None),
    ("synth", "generate", None),
    ("synth", "true_spectrum", None),
    ("tapers", "sinusoidal_family", None),
    ("tapers", "minimum_bias_family", None),
    ("tapers", "slepian_family", None),
    ("tapers", "spectral_window", None),
    ("metrics", "convergence_table", None),
    ("metrics", "bias_table", None),
    ("metrics", "concentration_table", None),
    ("quadratic", "table4_experiment", None),
    ("cli", "cmd_synth", None),
    ("cli", "cmd_estimate", None),
    ("cli", "cmd_adaptive", None),
    ("cli", "cmd_compare", None),
    ("cli", "cmd_tapers", None),
    ("cli", "cmd_tables", None),
]


class Tracer:
    """Installs wrappers for one operation at a time and keeps the spans."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation]
        self.counts = {}  # operation -> name -> quantity -> list of values
        self.absent = []
        self._stack = []
        self._patched = []
        self._op = None
        self._wrappers = {}
        for module, func, counter in TARGETS:
            mod = sys.modules.get(f"{PACKAGE}.{module}")
            fn = getattr(mod, func, None)
            if fn is None:
                self.absent.append(f"{module}.{func}")
            else:
                self._wrappers[fn] = self._wrap(f"{module}.{func}", fn, counter)

    def _wrap(self, name, fn, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                counts = self.counts.setdefault(self._op, {}).setdefault(name, {})
                for quantity, value in counter(*args, **kwargs).items():
                    counts.setdefault(quantity, []).append(value)
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            span = [name, time.perf_counter(), None, parent, self._op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()

        return traced

    def begin(self, op):
        """Wrap the targets in every loaded package module, for operation ``op``."""
        self._op = op
        for modname, mod in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(mod).items()):
                wrapper = self._wrappers.get(value) if callable(value) else None
                if wrapper is not None:
                    setattr(mod, attr, wrapper)
                    self._patched.append((mod, attr, value))

    def end(self):
        for mod, attr, value in reversed(self._patched):
            setattr(mod, attr, value)
        self._patched.clear()
        self._op = None

    def per_op(self, ops):
        """Per operation: name -> {"s", "self_s", "calls", computed counts (ratios averaged)}."""
        table = {op: {} for op in ops}
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, parent, op), inner in zip(self.spans, child):
            if op not in table:
                continue
            row = table[op].setdefault(name, {"s": 0.0, "self_s": 0.0, "calls": 0})
            row["s"] += end - start
            row["self_s"] += end - start - inner
            row["calls"] += 1
        for op in ops:
            for name, counts in self.counts.get(op, {}).items():
                row = table[op][name]
                for quantity, values in counts.items():
                    combine = statistics.fmean if quantity.endswith("_ratio") else sum
                    row[quantity] = combine(values)
        return table

    def dump(self):
        return {"absent": self.absent, "spans": self.spans}
