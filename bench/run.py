"""Benchmark of the laplace_match library: closed-loop workloads, end-to-end
and per-layer metrics.

    python3 bench/run.py --workload NAME --seed N --seconds T --trace 0|1 [--out FILE]
    python3 bench/run.py --all [--seed N] [--seconds T] [--trace 0|1] [--out FILE]
    python3 bench/run.py --compare BASE.json NEW.json
    python3 bench/run.py --selftest

Workloads, metrics and bounds are declared in BENCHMARK.json at the repository
root. Each workload run starts fresh worker processes (`bench/worker.py`),
with the BLAS thread count fixed to the number of usable CPUs: two that only
set up, and one that sets up and then runs the workload's ops one at a time
for `--seconds`. `setup_s` is the median set-up time of the three. Declared
times and rates are scaled to a fixed machine speed, measured by a reference
kernel timed inside the same run (see `worker.SpeedReference`); the raw wall
values are printed and recorded as `wall.*`. With `--trace 1` the worker
wraps each layer's public functions and reports the per-layer metrics
(unscaled) instead of the end-to-end ones.

The output names every metric with its unit, then prints the full record
(provenance, extra counts) as one JSON line, and ends with one JSON line
holding `correct`, `attempted`, `failed` and the declared metrics. The exit
code is 1 when any op failed its output check. `--out` writes the full record
for `--compare`, which prints base, new and ratio per workload and metric and
flags a change beyond the metric's declared bound.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"
SETUP_RUNS = 3
DEADLINE_S = 170.0  # a run must end within 180 seconds


class BenchError(Exception):
    """A run that could not produce a result."""


def load_spec():
    with open(ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def nproc():
    return len(os.sched_getaffinity(0))


def worker_env():
    env = dict(os.environ)
    threads = str(nproc())
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONHASHSEED"] = "0"
    return env


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def start_worker(name, seed, seconds, trace, deadline, setup_only=False, tiny=False,
                 spans=None):
    """Run one worker process to completion; returns its JSON record."""
    cmd = [sys.executable, str(WORKER), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if tiny:
        cmd.append("--tiny")
    if spans:
        cmd += ["--spans", str(spans)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"{name}: no time left for another worker")
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=worker_env(),
                              timeout=timeout, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{name}: worker did not finish in {timeout:.0f} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{name}: worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(name, seed, seconds, trace, tiny=False, deadline=None):
    """One workload in fresh processes; returns its record."""
    deadline = deadline or time.monotonic() + DEADLINE_S
    setups, setup_walls = [], []
    if not trace:
        for _ in range(SETUP_RUNS - 1):
            rec = start_worker(name, seed, seconds, 0, deadline, setup_only=True, tiny=tiny)
            setups.append(rec["setup_s"])
            setup_walls.append(rec["setup_wall_s"])
    spans = None
    if trace:
        RESULTS.mkdir(exist_ok=True)
        size = "-tiny" if tiny else ""
        spans = RESULTS / f"spans-{name}{size}-seed{seed}.jsonl.gz"
    rec = start_worker(name, seed, seconds, trace, deadline, tiny=tiny, spans=spans)
    metrics = rec["metrics"]
    extra = dict(rec["extra"])
    if not trace:
        setups.append(rec["setup_s"])
        setup_walls.append(rec["setup_wall_s"])
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        extra["setup_s.samples"] = setups
        extra["wall"]["setup_s"] = statistics.median(setup_walls)
    if spans:
        extra["spans_file"] = str(spans.relative_to(ROOT))
    correct = rec["failed"] == 0 and rec["warmup_ok"]
    if trace:
        correct = correct and extra["wrappers_restored"]
    return {
        "correct": bool(correct),
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "errors": rec["errors"],
        "metrics": metrics,
        "extra": extra,
        "provenance": rec["provenance"],
    }


def provenance(seed, seconds, trace, worker_prov, ops):
    env = worker_env()
    return {
        "commit": git_commit(),
        **worker_prov,
        "nproc": nproc(),
        "cpu": cpu_model(),
        "blas_threads": {v: env[v] for v in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                                             "MKL_NUM_THREADS")},
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "ops": ops,
        "loop": "closed, one client",
    }


def build_record(records, seed, seconds, trace):
    worker_prov = next(iter(records.values()))["provenance"]
    ops = {name: rec["attempted"] for name, rec in records.items()}
    workloads = {}
    for name, rec in records.items():
        workloads[name] = {k: v for k, v in rec.items() if k != "provenance"}
    return {
        "provenance": provenance(seed, seconds, trace, worker_prov, ops),
        "workloads": workloads,
    }


def print_report(record):
    for name, rec in record["workloads"].items():
        for metric, m in rec["metrics"].items():
            print(f"{name:13s} {metric:44s} {m['value']:<14.6g} {m['unit']}")
        extra = rec["extra"]
        if "op_s.samples" in extra:
            print(f"{name:13s} {'op_s.samples':44s} {extra['op_s.samples']:<14d} count")
            print(f"{name:13s} {'op_s.p90_beyond':44s} {extra['op_s.p90_beyond']:<14d} count")
        for metric, value in extra.get("wall", {}).items():
            unit = "1/s" if metric == "points_per_s" else "s"
            print(f"{name:13s} {'wall.' + metric:44s} {value:<14.6g} {unit}")
        for layer, share in extra.get("layer_share", {}).items():
            print(f"{name:13s} {'share.' + layer:44s} {share:<14.4f} ratio")
        status = "ok" if rec["correct"] else "FAILED " + "; ".join(rec["errors"])
        print(f"{name:13s} checks: {rec['attempted']} ops, {rec['failed']} failed: {status}")


def result_line(rec, names):
    """The closing JSON object: only the declared metrics of this mode."""
    missing = [n for n in names if n not in rec["metrics"]]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    return json.dumps({
        "correct": rec["correct"],
        "attempted": rec["attempted"],
        "failed": rec["failed"],
        "metrics": {n: rec["metrics"][n] for n in names},
    })


def compare(base_path, new_path, spec):
    """Print base, new, ratio and bound verdict per workload and metric;
    returns the number of metrics worse than their bound."""
    with open(base_path) as f:
        base = json.load(f)
    with open(new_path) as f:
        new = json.load(f)
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    worse = 0
    print(f"{'workload':13s} {'metric':44s} {'base':>12s} {'new':>12s} {'ratio':>8s}  verdict")
    for name, brec in base["workloads"].items():
        nrec = new["workloads"].get(name)
        if nrec is None:
            continue
        for metric, bm in brec["metrics"].items():
            if metric not in nrec["metrics"]:
                continue
            b, n = bm["value"], nrec["metrics"][metric]["value"]
            ratio = n / b if b else float("nan")
            spec_m = declared.get(metric)
            verdict = "-"
            if spec_m is not None and "bound" in spec_m and b:
                change = (n - b) / b if spec_m["better"] == "lower" else (b - n) / b
                verdict = "WORSE than bound" if change > spec_m["bound"] else "within bound"
                worse += change > spec_m["bound"]
            print(f"{name:13s} {metric:44s} {b:12.5g} {n:12.5g} {ratio:8.3f}  {verdict}")
    return worse


def selftest(spec):
    """Tiny-size check: every declared metric is emitted with its unit, and
    the traced run restores every wrapped attribute."""
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    pipelines = {"dense_scalar", "multi_latent", "inducing"}
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        plain = run_workload(name, 0, 0.0, 0, tiny=True)
        traced = run_workload(name, 0, 0.0, 1, tiny=True)
        expect = dict(e2e, fail_frac="ratio")
        if name in pipelines:
            expect["heldout_mnll"] = "nats"
        for rec, wanted, mode in ((plain, expect, "untraced"), (traced, layer, "traced")):
            got = {k: m["unit"] for k, m in rec["metrics"].items()}
            for metric, unit in wanted.items():
                if got.get(metric) != unit:
                    problems.append(f"{name} {mode}: {metric} missing or not in {unit}")
            if not rec["correct"]:
                problems.append(f"{name} {mode}: output checks failed {rec['errors']}")
        if name not in pipelines and "heldout_mnll" in plain["metrics"]:
            problems.append(f"{name}: heldout_mnll reported without held-out data")
        if not traced["extra"]["wrappers_restored"]:
            problems.append(f"{name}: wrapped attributes not restored after tracing")
        print(f"selftest {name}: {plain['attempted']} + {traced['attempted']} ops")
    for p in problems:
        print("selftest FAIL", p)
    print("selftest", "failed" if problems else "ok")
    return not problems


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload")
    mode.add_argument("--all", action="store_true")
    mode.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"))
    mode.add_argument("--selftest", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "laplace_match" / "__init__.py").is_file():
        sys.stderr.write(f"no laplace_match sources under {ROOT / 'src'}\n")
        return 2
    spec = load_spec()
    if args.compare:
        return 1 if compare(*args.compare, spec) else 0
    if args.selftest:
        return 0 if selftest(spec) else 1
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    names = [w["name"] for w in spec["workloads"]] if args.all else [args.workload]
    unknown = set(names) - {w["name"] for w in spec["workloads"]}
    if unknown:
        sys.stderr.write(f"unknown workload {sorted(unknown)}\n")
        return 2
    declared = [m["name"] for m in spec["per_layer" if args.trace else "end_to_end"]]
    try:
        records = {n: run_workload(n, args.seed, seconds, args.trace) for n in names}
        record = build_record(records, args.seed, seconds, args.trace)
        print_report(record)
        print(json.dumps(record))
        if args.out:
            Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
        if args.all:
            print(json.dumps({
                "correct": all(r["correct"] for r in records.values()),
                "attempted": sum(r["attempted"] for r in records.values()),
                "failed": sum(r["failed"] for r in records.values()),
            }))
        else:
            print(result_line(records[names[0]], declared))
    except BenchError as exc:
        sys.stderr.write(f"benchmark error: {exc}\n")
        return 1
    return 0 if all(r["correct"] for r in records.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
