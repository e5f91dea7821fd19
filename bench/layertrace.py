"""Layer tracing from outside the library.

`Tracer.install()` replaces the public functions of each layer module with
wrappers that record a span (name, start, end, parent, op id) per call, and
`Tracer.restore()` puts every original object back. Spans stay in memory
until the run ends. Self time is a span's duration minus the durations of its
direct children, so `gp.gp_sample` does not count the `gp.gp_predict` it
calls and `bridges.lm_inverse` does not count its `bridges.inverse_arrays`.

Layers are the package modules. `gaussian`, `matrixops` and `errors` have no
entry point of their own, so their time is self time of the layer calling
them. Of `cli`, only `oracle_rows` is a layer entry point.
"""

import functools
import gzip
import inspect
import json
import time

import numpy as np

from laplace_match import bridges, cli, diagnostics, distributions, gp, pipeline, transforms

LAYERS = {
    "pipeline": pipeline,
    "gp": gp,
    "bridges": bridges,
    "transforms": transforms,
    "distributions": distributions,
    "diagnostics": diagnostics,
}
CLI_ENTRY_POINTS = ("oracle_rows",)
KERNEL_CLASSES = (gp.Kernel, gp.Sum, gp.Product)
KERNEL_SPAN = "gp.kernel"


def _rows(a):
    """Leading batch size of a (..., K) array."""
    a = np.asarray(a)
    return int(a.size // a.shape[-1]) if a.ndim else 1


def _mc_kl_samples(args, kwargs):
    bound = inspect.signature(diagnostics.mc_kl).bind(*args, **kwargs)
    bound.apply_defaults()
    return int(bound.arguments["n"])


# Work counters recorded at layer boundaries: span name -> fn(tracer, args,
# kwargs, result) adding to tracer.counters.
_COUNTERS = {
    "gp.chol_with_jitter": lambda t, a, k, r: t.peak("gp.jitter_max", r[1]),
    "gp.kernel": lambda t, a, k, r: t.add("gp.kernel.entries", np.size(r)),
    "gp.build_inducing_set": lambda t, a, k, r: t.add(
        "gp.build_inducing_set.iterations", r.iterations
    ),
    "bridges.forward_arrays": lambda t, a, k, r: (
        t.add("bridges.forward_arrays.points", np.size(r[0])),
        t.add_points(np.size(r[0])),
    ),
    "bridges.inverse_arrays": lambda t, a, k, r: t.add_points(
        np.size(a[2] if len(a) > 2 else k["mu"])
    ),
    "bridges.dirichlet_softmax_forward_arrays": lambda t, a, k, r: t.add_points(_rows(r[0])),
    "bridges.dirichlet_softmax_inverse_arrays": lambda t, a, k, r: t.add_points(_rows(r)),
    "bridges.lm_forward": lambda t, a, k, r: t.add_points(1),
    "bridges.lm_inverse": lambda t, a, k, r: t.add_points(1),
    "transforms.transform_samples": lambda t, a, k, r: t.add(
        "transforms.transform_samples.values", np.size(r)
    ),
    "diagnostics.mc_kl": lambda t, a, k, r: t.add(
        "diagnostics.mc_kl.samples", _mc_kl_samples(a, k)
    ),
    "cli.oracle_rows": lambda t, a, k, r: (
        t.add("cli.oracle_rows.rows", len(r)),
        t.add("cli.oracle_rows.skipped", sum(row[5].startswith("skipped") for row in r)),
    ),
}


def entry_points():
    """(owner, attribute, span name) for every wrapped callable."""
    out = []
    for layer, module in LAYERS.items():
        for attr, obj in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ == module.__name__:
                out.append((module, attr, f"{layer}.{attr}"))
    for attr in CLI_ENTRY_POINTS:
        out.append((cli, attr, f"cli.{attr}"))
    for cls in KERNEL_CLASSES:
        out.append((cls, "__call__", KERNEL_SPAN))
    return out


class Tracer:
    """In-memory span recorder over wrapped layer entry points."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id]
        self.counters = {}
        self.active = False
        self.op_id = None
        self._stack = []
        self._saved = []

    def add(self, key, value):
        self.counters[key] = self.counters.get(key, 0) + value

    def add_points(self, count):
        """Parameter sets through a bridge, counted at the outermost bridge
        call only (lm_inverse calls inverse_arrays for the scalar rows)."""
        stack = self._stack
        if not (stack and self.spans[stack[-1]][0].startswith("bridges.")):
            self.add("bridges.points", count)

    def peak(self, key, value):
        self.counters[key] = max(self.counters.get(key, 0.0), float(value))

    def _wrap(self, name, fn):
        tracer = self
        count = _COUNTERS.get(name)
        outermost_only = name == KERNEL_SPAN

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            if outermost_only and stack and tracer.spans[stack[-1]][0] == name:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.op_id]
            tracer.spans.append(span)
            stack.append(index)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                stack.pop()
            if count is not None:
                count(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self):
        """Wrap every entry point; `restore()` must follow in a finally."""
        for owner, attr, name in entry_points():
            original = vars(owner)[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def self_times(self):
        """{span name: (total self seconds, calls)}."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for i, (name, start, end, parent, op) in enumerate(self.spans):
            total, calls = out.get(name, (0.0, 0))
            out[name] = (total + (end - start) - child[i], calls + 1)
        return out

    def write_spans(self, path):
        """Write the spans as gzip JSON lines: name, start, end, parent, op."""
        with gzip.open(path, "wt") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
