"""One workload in one fresh process: set up, run a closed loop, report.

    python3 bench/worker.py --workload NAME --seed N --seconds T --trace 0|1
        [--t0 MONOTONIC] [--setup-only] [--tiny] [--spans PATH]

`bench/run.py` starts this once per workload run, so set-up time and peak
memory belong to that workload. Set-up is the import, the input generation
and one untimed warm-up op, timed from `--t0` (the parent's
`time.monotonic()` when it started this process). The loop then runs the
workload's ops, one call at a time (a closed loop with one
client), until `--seconds` have passed, stopping at the end of a block (see
`workloads.BLOCK_OPS`). With `--trace 1`, blocks alternate between untraced
and traced, and the traced ones give the per-layer numbers.
The last line of standard output is one JSON object with the measurements.
"""

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import laplace_match  # noqa: E402
import workloads  # noqa: E402
from layertrace import Tracer, entry_points  # noqa: E402

# Declared times are scaled to a fixed machine speed: the speed at which
# `SpeedReference` (NumPy, LAPACK and interpreter work, no laplace_match code)
# takes REFERENCE_S seconds. On a shared 2-vCPU VM (Xeon, OpenBLAS) the same op
# cycle took 1.2 to 2.2 s within minutes, with CPU time equal to wall time and
# no steal; timing the reference between blocks of the same run cancels most
# of that swing. The raw wall times stay in the record under "wall".
REFERENCE_S = 0.006


class SpeedReference:
    """A fixed kernel timed repeatedly; `scale()` turns wall seconds into
    seconds at the reference speed."""

    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((150, 150))
        self._spd = a @ a.T + 150.0 * np.eye(150)
        self._x = rng.standard_normal(200_000)
        self.samples = []

    def measure(self):
        t0 = time.perf_counter()
        np.linalg.eigh(self._spd)
        np.linalg.cholesky(self._spd)
        float(np.exp(self._x).sum())
        acc = 0
        for i in range(30_000):
            acc += i * i
        self.samples.append(time.perf_counter() - t0)

    def scale(self):
        return REFERENCE_S / statistics.median(self.samples)


# setup_s is measured by run.py, across fresh processes
E2E_UNITS = {
    "op_s.p50": "s",
    "op_s.p90": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
    "heldout_mnll": "nats",
}

# Per-layer metrics read from the trace: name -> kind. "self" is a span's self
# seconds per op, "calls" its calls per op, "counter" a tracer counter per op.
# The other per-layer metrics are computed in `per_layer`.
SPAN_METRICS = {
    "gp.gp_fit.s": "self",
    "gp.chol_with_jitter.s": "self",
    "gp.chol_with_jitter.calls": "calls",
    "gp.gp_predict.s": "self",
    "gp.gp_predict.calls": "calls",
    "gp.gp_sample.s": "self",
    "gp.kernel.s": "self",
    "gp.kernel.entries": "counter",
    "gp.median_lengthscale.s": "self",
    "gp.kmeanspp.s": "self",
    "gp.build_inducing_set.s": "self",
    "gp.build_inducing_set.iterations": "counter",
    "bridges.forward_arrays.s": "self",
    "bridges.forward_arrays.points": "counter",
    "bridges.inverse_arrays.s": "self",
    "bridges.inverse_arrays.calls": "calls",
    "bridges.lm_forward.s": "self",
    "bridges.lm_forward.calls": "calls",
    "bridges.lm_inverse.s": "self",
    "bridges.lm_inverse.calls": "calls",
    "bridges.dirichlet_softmax_forward_arrays.s": "self",
    "transforms.transform_samples.s": "self",
    "transforms.transform_samples.values": "counter",
    "transforms.numeric_laplace.s": "self",
    "transforms.numeric_laplace.calls": "calls",
    "transforms.push_forward.s": "self",
    "distributions.conjugate_update.s": "self",
    "distributions.conjugate_update.calls": "calls",
    "distributions.sample.s": "self",
    "diagnostics.mc_kl.s": "self",
    "diagnostics.mc_kl.samples": "counter",
    "cli.oracle_rows.s": "self",
    "cli.oracle_rows.rows": "counter",
    "cli.oracle_rows.skipped": "counter",
}


def _unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    return "count"


LAYER_UNITS = {
    "pipeline.lm_s": "s",
    "pipeline.fit_s": "s",
    "pipeline.predict_s": "s",
    "pipeline.rest_s": "s",
    "pipeline.latent_rows": "count",
    "pipeline.query_rows": "count",
    "pipeline.ef_fail_frac": "ratio",
    **{name: _unit(name) for name in SPAN_METRICS},
    "gp.jitter_max": "abs",
    "bridges.points_per_s": "1/s",
    "trace_overhead": "ratio",
}


def quantile(values, q):
    """The value at rank floor(q * n) of the sorted values (the upper median
    for q = 0.5), and how many values lie beyond it."""
    s = sorted(values)
    i = min(len(s) - 1, int(q * len(s)))
    return s[i], len(s) - 1 - i


def _timed_op(slot, tracer=None, op_id=None):
    """Run one op; returns (wall seconds of the call, OpResult)."""
    if tracer is not None:
        tracer.op_id = op_id
        tracer.active = True
    t0 = time.perf_counter()
    try:
        out = slot.call()
        error = None
    except workloads.ERRORS as exc:
        error = exc
    dt = time.perf_counter() - t0
    if tracer is not None:
        tracer.active = False
    if error is not None:
        return dt, slot.failed(error)
    try:
        res = slot.check(out)
    except workloads.ERRORS as exc:
        return dt, slot.failed(exc)
    if not res.ok:
        res.error = f"{slot.label}: output check failed"
    return dt, res


def _counts(results):
    failed = sum(not r.ok for r in results)
    errors = sorted({r.error for r in results if r.error})
    return {"attempted": len(results), "failed": failed, "errors": errors[:5]}


def blocks(name, slots):
    """The cycle's blocks, in order and without end."""
    size = workloads.BLOCK_OPS[name]
    while True:
        for i in range(0, len(slots), size):
            yield slots[i:i + size]


def untraced_run(name, slots, seconds):
    times, results = [], []
    reference = SpeedReference()
    start = time.perf_counter()
    for block in blocks(name, slots):
        reference.measure()
        for slot in block:
            dt, res = _timed_op(slot)
            times.append(dt)
            results.append(res)
        if time.perf_counter() - start >= seconds:
            break
    reference.measure()
    wall = time.perf_counter() - start - sum(reference.samples)
    p50, _ = quantile(times, 0.5)
    p90, beyond = quantile(times, 0.9)
    points_per_s = sum(r.points for r in results) / wall
    scale = reference.scale()
    mnlls = [r.mnll for r in results if r.mnll is not None]
    counts = _counts(results)
    metrics = {
        "op_s.p50": p50 * scale,
        "op_s.p90": p90 * scale,
        "points_per_s": points_per_s / scale,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "fail_frac": counts["failed"] / len(results),
    }
    if mnlls:
        metrics["heldout_mnll"] = sum(mnlls) / len(mnlls)
    extra = {
        "op_s.samples": len(times),
        "op_s.p90_beyond": beyond,
        "blocks": len(times) // workloads.BLOCK_OPS[name],
        "wall": {"op_s.p50": p50, "op_s.p90": p90, "points_per_s": points_per_s, "run_s": wall},
        "reference_s": reference.samples,
    }
    return metrics, counts, extra


def traced_run(name, slots, seconds, spans_path):
    """Traced and untraced blocks in a checkerboard over the cycle, so that
    both see every block position; per-layer numbers come from the traced
    ops, trace_overhead from the two sets of op times. The first block pays
    each op's first-call costs, so it runs untraced and enters neither set."""
    originals = {(owner, attr): vars(owner)[attr] for owner, attr, _ in entry_points()}
    tracer = Tracer()
    plain_times, traced_times, traced_results, results = [], [], [], []
    per_cycle = workloads.BLOCKS[name]
    start = time.perf_counter()
    tracer.install()
    try:
        for b, block in enumerate(blocks(name, slots)):
            traced = (b % per_cycle + b // per_cycle) % 2 == 1
            for slot in block:
                op_id = len(traced_times) if traced else None
                dt, res = _timed_op(slot, tracer if traced else None, op_id)
                results.append(res)
                if traced:
                    traced_times.append(dt)
                    traced_results.append(res)
                elif b > 0:
                    plain_times.append(dt)
            if plain_times and traced_times and time.perf_counter() - start >= seconds:
                break
    finally:
        tracer.restore()
    restored = all(vars(owner)[attr] is obj for (owner, attr), obj in originals.items())
    if spans_path:
        tracer.write_spans(spans_path)
    metrics, shares = per_layer(tracer, traced_times, traced_results)
    metrics["trace_overhead"] = quantile(traced_times, 0.5)[0] / quantile(plain_times, 0.5)[0]
    counts = _counts(results)
    extra = {
        "traced_ops": len(traced_times),
        "untraced_ops": len(plain_times),
        "spans": len(tracer.spans),
        "layer_share": shares["layer"],
        "span_share": shares["span"],
        "wrappers_restored": restored,
    }
    return metrics, counts, extra


def per_layer(tracer, times, results):
    """Per-op layer metrics from the traced ops, plus the share of op wall
    time that each span name and each layer (its spans summed) took as self
    time."""
    ops = len(times)
    selfs = tracer.self_times()
    metrics = {}
    for name, kind in SPAN_METRICS.items():
        span = name.rpartition(".")[0]
        if kind == "self":
            metrics[name] = selfs.get(span, (0.0, 0))[0] / ops
        elif kind == "calls":
            metrics[name] = selfs.get(span, (0.0, 0))[1] / ops
        else:
            metrics[name] = tracer.counters.get(name, 0) / ops
    metrics["gp.jitter_max"] = float(tracer.counters.get("gp.jitter_max", 0.0))
    bridge_s = sum(s for name, (s, _) in selfs.items() if name.startswith("bridges."))
    points = tracer.counters.get("bridges.points", 0)
    metrics["bridges.points_per_s"] = points / bridge_s if bridge_s > 0 else 0.0
    stages = {"lm_s": "lm_seconds", "fit_s": "fit_seconds", "predict_s": "predict_seconds"}
    staged = 0.0
    for key, timing in stages.items():
        total = sum(r.timings.get(timing, 0.0) for r in results)
        metrics[f"pipeline.{key}"] = total / ops
        staged += total
    pipeline_s = sum(t for t, r in zip(times, results) if r.timings)
    metrics["pipeline.rest_s"] = (pipeline_s - staged) / ops
    metrics["pipeline.latent_rows"] = sum(r.latent_rows for r in results) / ops
    metrics["pipeline.query_rows"] = sum(r.query_rows for r in results) / ops
    query_points = sum(r.query_points for r in results)
    metrics["pipeline.ef_fail_frac"] = (
        sum(r.ef_fail for r in results) / query_points if query_points else 0.0
    )
    total = sum(times)
    shares = {"span": {name: s / total for name, (s, _) in selfs.items()}, "layer": {}}
    for name, (s, _) in selfs.items():
        layer = name.split(".")[0]
        shares["layer"][layer] = shares["layer"].get(layer, 0.0) + s / total
    shares["layer"]["outside_layers"] = 1.0 - sum(shares["layer"].values())
    return metrics, shares


def library_versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--t0", type=float, default=None)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)
    t0 = time.monotonic() if args.t0 is None else args.t0

    if not Path(laplace_match.__file__).resolve().is_relative_to(SRC):
        sys.stderr.write(f"laplace_match imported from outside {SRC}\n")
        return 2
    if args.workload not in workloads.NAMES:
        sys.stderr.write(f"unknown workload {args.workload!r}\n")
        return 2
    slots = workloads.build(args.workload, args.seed, tiny=args.tiny)
    warm = slots[0].run()
    setup_s = time.monotonic() - t0
    reference = SpeedReference()
    for _ in range(5):
        reference.measure()
    record = {"setup_s": setup_s * reference.scale(), "setup_wall_s": setup_s,
              "warmup_ok": warm.ok}
    if not args.setup_only:
        run = traced_run if args.trace else untraced_run
        extra_args = (args.spans,) if args.trace else ()
        metrics, counts, extra = run(args.workload, slots, args.seconds, *extra_args)
        units = LAYER_UNITS if args.trace else E2E_UNITS
        metrics = {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}
        record.update(metrics=metrics, **counts, extra=extra, provenance=library_versions())
    sys.stdout.write(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
