"""Command-line front end: dataset ingestion, experiment execution, bridge
conversions, sweep reports, and plot-ready data emission.

Subcommands:
    bridge        one-shot parameter conversion through a named bridge
    experiment    run the LM+GP pipeline on a dataset file, write a report
    distances     distribution-distance sweep, wide plus long-format output
    oracle-check  closed forms vs the numeric Laplace oracle, pass/fail table
    gen           synthetic dataset generators (all experiments self-contained)

Exit codes: 0 success, 1 check failure, 2 usage or data error. Output files
are written atomically (temp file then rename). `LAPLACE_MATCH_SEED` sets the
default seed; `--config FILE` supplies defaults as a JSON record, explicit
flags win.
"""

import argparse
import json
import os
import re
import sys
import tempfile
import time

import numpy as np

from . import bridges, diagnostics, distributions, gp, matrixops, pipeline, transforms
from .diagnostics import oracle_rows
from .errors import LaplaceMatchError, OutOfSupport
from .gaussian import GaussianApprox
from .pipeline import gen_binary, gen_categorical, gen_counts, gen_covariance

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_CHECK = 1
EXIT_USAGE = 2

_KINDS = ("binary", "counts", "categorical", "covariance")
_KIND_FAMILY = {
    "binary": "beta",
    "counts": "gamma",
    "categorical": "dirichlet",
    "covariance": "inverse_wishart",
}
# the target column of the x1..xd,<column> dataset files
_POINT_COLUMN = {"binary": "label", "counts": "count"}
_BASIS_ALIASES = {
    **{tag: tag for tag in transforms.BASIS_TAGS},
    "standard": "identity",
    "softmax": "softmax_inverse",
    "logm": "matrix_log",
    "sqrtm": "matrix_sqrt",
}


class UsageError(Exception):
    """Bad flags, unreadable config, or malformed data; maps to exit 2."""


# ---------------------------------------------------------------------------
# small shared helpers


def _default_seed():
    raw = os.environ.get("LAPLACE_MATCH_SEED")
    if raw is None:
        return 0
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"LAPLACE_MATCH_SEED must be an integer, got {raw!r}")


def atomic_write(path, text):
    """Write `text` to `path` via a temp file and os.replace."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp.", suffix=".part")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _dump_json(record):
    return json.dumps(record, sort_keys=True, indent=2, default=_json_default) + "\n"


def _fmt(value):
    """Lossless cell formatting for delimiter-separated output."""
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    if isinstance(value, np.integer):
        return str(int(value))
    return str(value)


def _write_dsv(path, header, rows):
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(c) for c in row) for row in rows)
    atomic_write(path, "\n".join(lines) + "\n")


def _family_arg(name):
    fam = name.replace("-", "_")
    if fam not in distributions.FAMILIES:
        raise UsageError(f"unknown family {name!r}")
    return fam


def _basis_arg(name):
    tag = _BASIS_ALIASES.get(name.replace("-", "_"))
    if tag is None:
        raise UsageError(f"unknown basis {name!r}")
    return tag


def _parse_vector(text, flag):
    try:
        vec = [float(v) for v in text.split(",")]
    except ValueError:
        raise UsageError(f"{flag} expects comma-separated numbers, got {text!r}")
    return np.asarray(vec)


def _parse_matrix(text, flag):
    """Rows separated by ';', entries by ','; must be square."""
    rows = [r for r in text.split(";") if r.strip()]
    try:
        M = np.asarray([[float(v) for v in r.split(",")] for r in rows])
    except ValueError:
        raise UsageError(f"{flag} expects 'a,b;c,d' style numbers, got {text!r}")
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise UsageError(f"{flag} must be a square matrix, got shape {M.shape}")
    return M


def _load_config(args):
    """Fill unset (None) flag values from the --config JSON record, whose
    keys are the command's optional flags."""
    path = getattr(args, "config", None)
    if path is None:
        return
    keys = set(vars(args)) - {"command", "func", "config", "kind"}
    try:
        with open(path) as fh:
            record = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"config {path} is not valid JSON: {exc}")
    if not isinstance(record, dict):
        raise UsageError(f"config {path} must hold a JSON object")
    for key, value in record.items():
        dest = key.replace("-", "_")
        if dest not in keys:
            raise UsageError(f"config {path}: unknown key {key!r}")
        if getattr(args, dest, None) is None:
            setattr(args, dest, value)


# ---------------------------------------------------------------------------
# dataset files

# All formats are comma-separated with a one-line header:
#   binary       x1,...,xd,label       label in {0, 1}
#   counts       x1,...,xd,count       count a non-negative integer
#   categorical  t,c,class,count       one row per (group, class)
#   covariance   t,i,j,value           full symmetric storage per timestep


def _read_rows(path, expected=None):
    try:
        with open(path) as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read dataset {path}: {exc}")
    if not lines:
        raise UsageError(f"{path}:1: empty file, expected a header line")
    header = [c.strip() for c in lines[0].split(",")]
    if expected is not None and header != list(expected):
        raise UsageError(
            f"{path}:1: expected header {','.join(expected)!r}, got {lines[0]!r}"
        )
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cells = [c.strip() for c in line.split(",")]
        if len(cells) != len(header):
            raise UsageError(
                f"{path}:{lineno}: expected {len(header)} columns, got {len(cells)}"
            )
        rows.append((lineno, cells))
    return header, rows


def _cell_float(path, lineno, cell, column):
    try:
        return float(cell)
    except ValueError:
        raise UsageError(f"{path}:{lineno}: column {column!r} is not a number: {cell!r}")


def _cell_int(path, lineno, cell, column):
    value = _cell_float(path, lineno, cell, column)
    if value != int(value):
        raise UsageError(f"{path}:{lineno}: column {column!r} must be an integer: {cell!r}")
    return int(value)


def read_points(path, kind):
    """Read a binary-label or count dataset (x1,...,xd,label or count);
    returns pipeline.Dataset."""
    column = _POINT_COLUMN[kind]
    header, rows = _read_rows(path)
    if len(header) < 2 or header[-1] != column:
        raise UsageError(f"{path}:1: {kind} header must end in {column!r}")
    X, y = [], []
    for lineno, cells in rows:
        X.append([_cell_float(path, lineno, c, h) for c, h in zip(cells[:-1], header)])
        value = _cell_int(path, lineno, cells[-1], column)
        if kind == "binary" and value not in (0, 1):
            raise UsageError(f"{path}:{lineno}: label must be 0 or 1, got {value}")
        if value < 0:
            raise UsageError(f"{path}:{lineno}: count must be non-negative, got {value}")
        y.append(value)
    return pipeline.Dataset(np.asarray(X), np.asarray(y, dtype=float))


def read_categorical(path):
    """Read a categorical count table; returns (Dataset, class labels).

    Rows are grouped by (t, c); every group must list each class exactly
    once. Inputs are the (t, c) pairs, targets the per-group count vectors.
    """
    _, rows = _read_rows(path, expected=("t", "c", "class", "count"))
    groups = {}
    order = []
    lines = {}
    classes = set()
    for lineno, cells in rows:
        t = _cell_float(path, lineno, cells[0], "t")
        c = _cell_int(path, lineno, cells[1], "c")
        cls = _cell_int(path, lineno, cells[2], "class")
        count = _cell_int(path, lineno, cells[3], "count")
        if count < 0:
            raise UsageError(f"{path}:{lineno}: count must be non-negative, got {count}")
        key = (t, c)
        if key not in groups:
            groups[key] = {}
            order.append(key)
        if cls in groups[key]:
            first = lines[(key, cls)]
            raise UsageError(
                f"{path}:{lineno}: duplicate class {cls} for group t={t}, c={c} "
                f"(first at line {first})"
            )
        groups[key][cls] = count
        lines[(key, cls)] = lineno
        classes.add(cls)
    if not order:
        raise UsageError(f"{path}: no data rows")
    labels = sorted(classes)
    if len(labels) < 2:
        raise UsageError(f"{path}: need at least two classes, got {labels}")
    X, Y = [], []
    for key in sorted(order):
        row = groups[key]
        missing = [cls for cls in labels if cls not in row]
        if missing:
            raise UsageError(
                f"{path}: group t={key[0]}, c={key[1]} is missing class "
                f"{missing[0]} (every group must list every class)"
            )
        X.append([key[0], float(key[1])])
        Y.append([row[cls] for cls in labels])
    return pipeline.Dataset(np.asarray(X), np.asarray(Y, dtype=float)), labels


def read_covariance(path):
    """Read an SPD matrix series; returns pipeline.Dataset.

    Full symmetric storage is required: all p*p entries per timestep, with
    value(i,j) == value(j,i) exactly. Each matrix must be symmetric positive
    definite.
    """
    _, rows = _read_rows(path, expected=("t", "i", "j", "value"))
    series = {}
    order = []
    lines = {}
    for lineno, cells in rows:
        t = _cell_float(path, lineno, cells[0], "t")
        i = _cell_int(path, lineno, cells[1], "i")
        j = _cell_int(path, lineno, cells[2], "j")
        value = _cell_float(path, lineno, cells[3], "value")
        if i < 0 or j < 0:
            raise UsageError(f"{path}:{lineno}: indices must be non-negative")
        if t not in series:
            series[t] = {}
            order.append(t)
        if (i, j) in series[t]:
            raise UsageError(
                f"{path}:{lineno}: duplicate entry ({i},{j}) at t={t} "
                f"(first at line {lines[(t, i, j)]})"
            )
        series[t][(i, j)] = value
        lines[(t, i, j)] = lineno
    if not order:
        raise UsageError(f"{path}: no data rows")
    p = max(max(i, j) for t in series for i, j in series[t]) + 1
    ts = sorted(order)
    mats = []
    for t in ts:
        entries = series[t]
        for i in range(p):
            for j in range(p):
                if (i, j) not in entries:
                    raise UsageError(
                        f"{path}: matrix at t={t} is missing entry ({i},{j}); "
                        f"full symmetric storage is required"
                    )
        M = np.empty((p, p))
        for (i, j), value in entries.items():
            if i >= p or j >= p:
                raise UsageError(
                    f"{path}:{lines[(t, i, j)]}: index ({i},{j}) out of range for p={p}"
                )
            M[i, j] = value
        mismatch = np.argwhere(M != M.T)
        if mismatch.size:
            i, j = (int(v) for v in mismatch[0])
            raise UsageError(
                f"{path}:{lines[(t, i, j)]}: matrix at t={t} is not symmetric: "
                f"value({i},{j}) != value({j},{i})"
            )
        try:
            np.linalg.cholesky(M)
        except np.linalg.LinAlgError:
            raise UsageError(
                f"{path}: matrix at t={t} is not symmetric positive definite"
            )
        mats.append(M)
    X = np.asarray(ts)[:, None]
    return pipeline.Dataset(X, np.stack(mats))


# ---------------------------------------------------------------------------
# bridge command


def _bridge_params(args, family):
    """Assemble EFParams for a forward conversion from the parameter flags."""

    def need(flag, value):
        if value is None:
            raise UsageError(f"{family} forward needs {flag}")
        return value

    if family == "exponential":
        return distributions.exponential(need("--lambda", args.lam))
    if family == "gamma":
        alpha = float(need("--alpha", args.alpha))
        return distributions.gamma(alpha, need("--lambda", args.lam))
    if family == "inverse_gamma":
        alpha = float(need("--alpha", args.alpha))
        return distributions.inverse_gamma(alpha, need("--lambda", args.lam))
    if family == "chi_squared":
        return distributions.chi_squared(need("--k", args.k))
    if family == "beta":
        alpha = float(need("--alpha", args.alpha))
        return distributions.beta(alpha, need("--beta", args.beta))
    if family == "dirichlet":
        alpha = _parse_vector(need("--alpha", args.alpha), "--alpha")
        return distributions.dirichlet(alpha)
    scale = _parse_matrix(need("--scale", args.scale), "--scale")
    dof = need("--dof", args.dof)
    if family == "wishart":
        return distributions.wishart(dof, scale)
    return distributions.inverse_wishart(dof, scale)


def _bridge_gauss(args, tag):
    """The Gaussian input of an inverse conversion, in the bridge arrays'
    coordinates: a matrix --mu becomes its vech, a scalar matrix --sigma s
    the vech covariance of s times the identity on the p x p entries (s on
    the diagonal entries, s/2 off them), and a simplex --sigma without ';'
    a diagonal covariance."""
    if args.mu is None or args.sigma is None:
        raise UsageError("inverse direction needs --mu and --sigma")
    if tag in ("matrix_log", "matrix_sqrt"):
        M = _parse_matrix(args.mu, "--mu")
        try:
            mean = matrixops.vech(transforms._checked_symmetric(M, "--mu"))
        except OutOfSupport as exc:
            raise UsageError(f"{exc}, got {args.mu!r}")
        if ";" in args.sigma or "," in args.sigma:
            return GaussianApprox(mean, _parse_matrix(args.sigma, "--sigma"))
        s = float(args.sigma)
        pairs = matrixops.vech_pairs(M.shape[0])
        return GaussianApprox(mean, np.diag([s if i == j else 0.5 * s for i, j in pairs]))
    if tag == "softmax_inverse":
        mean = _parse_vector(args.mu, "--mu")
        if ";" in args.sigma:
            return GaussianApprox(mean, _parse_matrix(args.sigma, "--sigma"))
        return GaussianApprox(mean, np.diag(_parse_vector(args.sigma, "--sigma")))
    return float(args.mu), float(args.sigma)


def cmd_bridge(args):
    family = _family_arg(args.family)
    tag = _basis_arg(args.basis)
    record = {"family": family, "basis": tag, "direction": args.direction}
    if args.direction == "forward":
        params = _bridge_params(args, family)
        gauss = bridges.lm_forward(params, tag)
        if gauss.mean.size == 1:
            # + 0.0 folds IEEE -0.0 into 0.0 for the printed record
            record["mu"] = gauss.mu + 0.0
            record["var"] = gauss.var + 0.0
        else:
            record["gaussian"] = gauss.to_record()
    else:
        gauss = _bridge_gauss(args, tag)
        params = bridges.lm_inverse(gauss, family, tag, structured_sigma=tag == "matrix_sqrt")
        record["params"] = params.to_record()
    sys.stdout.write(_dump_json(record))
    return EXIT_OK


# ---------------------------------------------------------------------------
# experiment command

def _kernel_from_args(args):
    if args.kernel is None:
        if args.lengthscale is not None or args.variance is not None:
            raise UsageError("--lengthscale/--variance need --kernel")
        return None
    name = args.kernel.lower()
    variance = 1.0 if args.variance is None else float(args.variance)
    lengthscale = 1.0 if args.lengthscale is None else float(args.lengthscale)
    if name == "rbf":
        return gp.RBF(lengthscale=lengthscale, variance=variance)
    if name in ("rq", "rational_quadratic"):
        alpha = 1.0 if args.kernel_alpha is None else float(args.kernel_alpha)
        return gp.RationalQuadratic(
            lengthscale=lengthscale, alpha=alpha, variance=variance
        )
    if name == "linear":
        return gp.Linear(variance=variance)
    raise UsageError(f"unknown kernel {args.kernel!r} (rbf, rq, linear)")


def _read_dataset(kind, path):
    if kind in _POINT_COLUMN:
        return read_points(path, kind), None
    if kind == "categorical":
        return read_categorical(path)
    return read_covariance(path), None


def _experiment_metrics(kind, pred, data, class_labels):
    if kind == "binary":
        labels = data.Y.astype(int)
        return pipeline.classification_metrics(pred.probabilities, labels)
    if kind == "counts":
        variances = np.asarray(pred.summary["std"]) ** 2
        return pipeline.count_metrics(pred.rates, variances, data.Y)
    if kind == "categorical":
        labels = np.argmax(data.Y, axis=1)
        return pipeline.classification_metrics(pred.probabilities, labels)
    # covariance series: report the worst posterior-mean eigenvalue, a
    # support-safety summary with no scalar ground truth to score against
    means = np.asarray(pred.summary["mean"])
    eig_min = min(float(np.linalg.eigvalsh(M)[0]) for M in means)
    return {"min_mean_eigenvalue": eig_min}


def cmd_experiment(args):
    _load_config(args)
    if args.data is None:
        raise UsageError("experiment needs --data")
    if args.out is None:
        raise UsageError("experiment needs --out")
    seed = _default_seed() if args.seed is None else int(args.seed)
    t_start = time.perf_counter()
    data, class_labels = _read_dataset(args.kind, args.data)
    test = None
    if args.test is not None:
        test, test_labels = _read_dataset(args.kind, args.test)
        if args.kind == "categorical" and test_labels != class_labels:
            raise UsageError(
                f"{args.test}: test classes {test_labels} do not match "
                f"training classes {class_labels}"
            )
    config = pipeline.LMGPConfig(
        family=_KIND_FAMILY[args.kind],
        basis=None if args.basis is None else _basis_arg(args.basis),
        kernel=_kernel_from_args(args),
        epsilon_a=None if args.epsilon_a is None else float(args.epsilon_a),
        inducing=None if args.inducing is None else int(args.inducing),
        seed=seed,
        version="v1" if args.pipeline_version is None else args.pipeline_version,
        dirichlet_prior=(
            1.0 if args.dirichlet_prior is None else float(args.dirichlet_prior)
        ),
        draws=1000 if args.draws is None else int(args.draws),
    )
    run = pipeline.lmgp_v2 if config.version == "v2" else pipeline.lmgp_v1
    model, pred = run(data, config)
    timings = dict(pred.timings)
    metrics = {"train": _experiment_metrics(args.kind, pred, data, class_labels)}
    predictions = {"train": pred.to_record()}
    if test is not None:
        pred_test = pipeline.predict(model, pred.basis, config, test.X)
        timings["test_predict_seconds"] = pred_test.timings["predict_seconds"]
        metrics["test"] = _experiment_metrics(args.kind, pred_test, test, class_labels)
        predictions["test"] = pred_test.to_record()
    timings["total_seconds"] = time.perf_counter() - t_start
    report = {
        "command": f"experiment {args.kind}",
        "config": {
            **config.to_record(),
            "data": args.data,
            "test": args.test,
            "out": args.out,
        },
        "classes": class_labels,
        "metrics": metrics,
        "predictions": predictions,
        "timings": timings,
        "version": VERSION,
    }
    atomic_write(args.out, _dump_json(report))
    shown = ", ".join(f"{k}={v:.4f}" for k, v in sorted(metrics["train"].items()))
    sys.stdout.write(f"report written to {args.out} ({shown})\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# distances command

def _grid_from_json(text, family):
    """Grid override: inline JSON or a path to a JSON file of param records."""
    try:
        parsed = json.loads(text)
    except json.JSONDecodeError:
        try:
            with open(text) as fh:
                parsed = json.load(fh)
        except OSError as exc:
            raise UsageError(f"--grid is neither JSON nor a readable file: {exc}")
        except json.JSONDecodeError as exc:
            raise UsageError(f"grid file {text} is not valid JSON: {exc}")
    if isinstance(parsed, dict):
        parsed = [parsed]
    if not isinstance(parsed, list):
        raise UsageError("--grid must be a JSON list of parameter records")
    grid = []
    for rec in parsed:
        if not isinstance(rec, dict):
            raise UsageError("--grid entries must be JSON objects")
        rec = dict(rec)
        rec.setdefault("family", family)
        try:
            grid.append(distributions.from_record(rec))
        except LaplaceMatchError as exc:
            raise UsageError(f"bad grid entry {rec!r}: {exc}")
    return grid


def _long_out_path(out):
    root, ext = os.path.splitext(out)
    return f"{root}_long{ext or '.csv'}"


def cmd_distances(args):
    _load_config(args)
    if args.family is None:
        raise UsageError("distances needs --family")
    if args.out is None:
        raise UsageError("distances needs --out")
    family = _family_arg(args.family)
    seed = _default_seed() if args.seed is None else int(args.seed)
    if args.bases is None:
        # CLI sweeps default to the bridge rows; identity is opt-in.
        bases = transforms.FAMILY_BASES[family][1:]
    else:
        bases = tuple(_basis_arg(b) for b in args.bases.split(","))
    metrics = (
        diagnostics.METRICS if args.metrics is None else tuple(args.metrics.split(","))
    )
    grid = None if args.grid is None else _grid_from_json(args.grid, family)
    report = diagnostics.distance_sweep(
        family,
        grid=grid,
        bases=bases,
        metrics=metrics,
        n=None if args.n is None else int(args.n),
        mmd_points=2000 if args.mmd_points is None else int(args.mmd_points),
        seed=seed,
        jobs=1 if args.jobs is None else int(args.jobs),
    )
    header, lines = report.wide_table()
    _write_dsv(args.out, header, lines)
    long_out = _long_out_path(args.out) if args.long_out is None else args.long_out
    long_rows = [
        [
            row["grid_index"],
            row["basis"],
            row["metric"],
            "" if row["value"] is None else row["value"],
            "" if row["se"] is None else row["se"],
        ]
        for row in report.long_rows()
    ]
    _write_dsv(long_out, ("grid_index", "basis", "metric", "value", "se"), long_rows)
    sys.stdout.write(
        f"{len(report.grid_records)} grid points x {len(bases)} bases -> "
        f"{args.out}, {long_out}\n"
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# oracle-check command


def cmd_oracle_check(args):
    if args.families is None:
        families = list(distributions.FAMILIES)
    else:
        families = [
            _family_arg(f) for f in args.families.split(",") if f.strip()
        ]
    bases = None
    if args.bases is not None:
        bases = [_basis_arg(b) for b in args.bases.split(",") if b.strip()]
    rows = oracle_rows(
        families,
        bases=bases,
        tol=float(args.tol),
        rt_tol=float(args.rt_tol),
        corrupt_inverse=args.corrupt_inverse,
    )
    header = ("family", "basis", "grid", "forward_dev", "round_trip_dev", "status")
    widths = [16, 16, 4, 12, 14, 0]
    out = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for family, tag, gi, fwd, rt, status in rows:
        cells = (
            family,
            tag,
            str(gi),
            "-" if fwd is None else f"{fwd:.3e}",
            "-" if rt is None else f"{rt:.3e}",
            status,
        )
        out.append("  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip())
    failures = sum(1 for r in rows if r[5].startswith("FAIL"))
    out.append(f"{len(rows)} rows, {failures} failures")
    sys.stdout.write("\n".join(out) + "\n")
    if args.out is not None:
        dsv = [
            (
                family,
                tag,
                gi,
                "" if fwd is None else fwd,
                "" if rt is None else rt,
                status,
            )
            for family, tag, gi, fwd, rt, status in rows
        ]
        _write_dsv(args.out, header, dsv)
    return EXIT_CHECK if failures else EXIT_OK


# ---------------------------------------------------------------------------
# gen command


def cmd_gen(args):
    if args.out is None:
        raise UsageError("gen needs --out")
    seed = _default_seed() if args.seed is None else int(args.seed)
    if args.kind in _POINT_COLUMN:
        dims = {} if args.d is None else {"d": args.d}
        if args.kind == "binary":
            X, y = gen_binary(
                n=args.n, separation=args.separation, noise=args.noise, seed=seed, **dims
            )
        else:
            X, y = gen_counts(n=args.n, seed=seed, **dims)
        header = [f"x{i + 1}" for i in range(X.shape[1])] + [_POINT_COLUMN[args.kind]]
        rows = [list(x) + [int(v)] for x, v in zip(X, y)]
    elif args.kind == "categorical":
        out_rows, _ = gen_categorical(
            timesteps=args.timesteps, groups=args.groups, classes=args.classes,
            total=args.total, seed=seed,
        )
        header = ["t", "c", "class", "count"]
        rows = out_rows
    else:
        ts, mats = gen_covariance(
            timesteps=args.timesteps, p=args.p, dof=args.dof, seed=seed
        )
        header = ["t", "i", "j", "value"]
        rows = [
            [float(t), i, j, float(M[i, j])]
            for t, M in zip(ts, mats)
            for i in range(args.p)
            for j in range(args.p)
        ]
    _write_dsv(args.out, header, rows)
    sys.stdout.write(f"{len(rows)} rows written to {args.out}\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser wiring


def build_parser():
    parser = argparse.ArgumentParser(
        prog="laplace-match",
        description="Laplace Matching: closed-form Gaussian bridges for "
        "exponential families, with a latent-GP pipeline.",
    )
    parser.add_argument("--version", action="version", version=VERSION)
    sub = parser.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bridge", help="convert parameters through one bridge")
    b.add_argument("family")
    b.add_argument("basis")
    b.add_argument("direction", choices=("forward", "inverse"))
    b.add_argument("--alpha", help="shape (scalar, or comma list for dirichlet)")
    b.add_argument("--lambda", dest="lam", type=float, help="rate")
    b.add_argument("--beta", type=float, help="beta family second shape")
    b.add_argument("--k", type=float, help="chi-squared degrees of freedom")
    b.add_argument("--dof", type=float, help="wishart-family degrees of freedom")
    b.add_argument("--scale", help="scale matrix, 'a,b;c,d' rows")
    b.add_argument("--mu", help="gaussian mean (scalar, comma list, or rows)")
    b.add_argument("--sigma", help="gaussian (co)variance (scalar, diag, or rows)")
    b.set_defaults(func=cmd_bridge)

    e = sub.add_parser("experiment", help="run the LM+GP pipeline on a dataset")
    e.add_argument("kind", choices=_KINDS)
    e.add_argument("--data", help="training dataset path")
    e.add_argument("--test", help="held-out dataset path")
    e.add_argument("--out", help="report path (JSON)")
    e.add_argument("--basis", help="basis override (default per family)")
    e.add_argument("--kernel", help="rbf, rq, or linear (default: rbf, median lengthscale)")
    e.add_argument("--lengthscale", type=float)
    e.add_argument("--variance", type=float)
    e.add_argument("--kernel-alpha", type=float, help="rational-quadratic alpha")
    e.add_argument("--epsilon-a", type=float, help="pseudo-count (default 0.01)")
    e.add_argument("--seed", type=int)
    e.add_argument("--inducing", type=int, help="inducing input count")
    e.add_argument("--draws", type=int, help="posterior draws (default 1000)")
    e.add_argument(
        "--pipeline-version", choices=("v1", "v2"), help="pipeline variant (default v1)"
    )
    e.add_argument("--dirichlet-prior", type=float)
    e.add_argument("--config", help="JSON config file; explicit flags win")
    e.set_defaults(func=cmd_experiment)

    d = sub.add_parser("distances", help="KL/MMD sweep over a parameter grid")
    d.add_argument("--family")
    d.add_argument("--bases", help="comma list (default: transformed bases)")
    d.add_argument("--metrics", help="comma list of kl,mmd (default both)")
    d.add_argument("--grid", help="JSON list of parameter records, inline or a file")
    d.add_argument("--n", type=int, help="Monte Carlo sample count")
    d.add_argument("--mmd-points", type=int)
    d.add_argument("--seed", type=int)
    d.add_argument("--jobs", type=int)
    d.add_argument("--out", help="wide table path")
    d.add_argument("--long-out", help="long-format path (default: <out>_long)")
    d.add_argument("--config", help="JSON config file; explicit flags win")
    d.set_defaults(func=cmd_distances)

    o = sub.add_parser(
        "oracle-check", help="closed forms vs the numeric Laplace oracle"
    )
    o.add_argument("--families", help="comma list (default: all)")
    o.add_argument("--bases", help="comma list (default: all per family)")
    o.add_argument("--tol", default=1e-6, type=float)
    o.add_argument("--rt-tol", default=1e-9, type=float)
    o.add_argument(
        "--corrupt-inverse",
        action="store_true",
        help="swap in a wrong gamma-sqrt inverse to show the check failing",
    )
    o.add_argument("--out", help="also write the table as DSV")
    o.set_defaults(func=cmd_oracle_check)

    g = sub.add_parser("gen", help="synthetic dataset generators")
    g.add_argument("kind", choices=_KINDS)
    g.add_argument("--out")
    g.add_argument("--seed", type=int)
    g.add_argument("--n", type=int, default=100, help="points (binary, counts)")
    g.add_argument("--d", type=int, help="input dimension (binary: 2, counts: 1)")
    g.add_argument("--separation", type=float, default=4.0)
    g.add_argument("--noise", type=float, default=0.5)
    g.add_argument("--timesteps", type=int, default=6)
    g.add_argument("--groups", type=int, default=1)
    g.add_argument("--classes", type=int, default=4)
    g.add_argument("--total", type=int, default=50, help="multinomial total per group")
    g.add_argument("--p", type=int, default=2, help="matrix dimension")
    g.add_argument("--dof", type=float, default=8.0)
    g.set_defaults(func=cmd_gen)
    return parser


# A value that starts with a minus sign and a digit or a point
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _join_negative_values(argv):
    """Write `--mu -0.3,0.1` as `--mu=-0.3,0.1` (and so for --sigma):
    argparse reads a value that starts with '-' and is not one plain
    number, such as a comma list, as an option."""
    out = []
    for arg in argv:
        if out and out[-1] in ("--mu", "--sigma") and _NEGATIVE_VALUE.match(arg):
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(_join_negative_values(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help/--version
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except LaplaceMatchError as exc:
        sys.stderr.write(f"error: {type(exc).__name__}: {exc}\n")
        return EXIT_USAGE


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
