"""Benchmark workloads: seeded inputs, one call per op, and output checks.

A workload is a fixed cycle of op slots, made of blocks (see BLOCK_OPS).
`build(name, seed)` generates the inputs of every slot from the seed through
the library's public generators. Each slot makes the one public call of its
op (`slot.call()`, the timed part) and checks the output
(`slot.check(output)`, untimed). A failed check or a raised error marks the
op failed instead of aborting the run.

The sizes are those of the benchmark definition; `tiny=True` shrinks every
size so that the self-test finishes in seconds.
"""

import numpy as np

from laplace_match import bridges, cli, diagnostics, distributions, pipeline
from laplace_match.errors import LaplaceMatchError

NAMES = ("dense_scalar", "multi_latent", "inducing", "catalogue")
# A block is the shortest run of ops with the workload's full mix (sizes,
# families and versions in their ratios); a run stops only at block ends. A
# cycle holds several blocks on distinct inputs, so that one seed's data
# weigh less in a run's numbers.
BLOCK_OPS = {"dense_scalar": 12, "multi_latent": 4, "inducing": 2, "catalogue": 22}
BLOCKS = {"dense_scalar": 4, "multi_latent": 4, "inducing": 8, "catalogue": 1}
DRAWS = 1000  # the CLI default

_SCALAR_FAMILIES = ("exponential", "gamma", "inverse_gamma", "chi_squared", "beta")


class OpResult:
    """Outcome of one op: check status, held-out MNLL and work counts."""

    def __init__(self, ok, points, mnll=None, timings=None, latent_rows=0,
                 query_rows=0, query_points=0, ef_fail=0, error=None):
        self.ok = ok
        self.points = points
        self.mnll = mnll
        self.timings = timings or {}
        self.latent_rows = latent_rows
        self.query_rows = query_rows
        self.query_points = query_points
        self.ef_fail = ef_fail
        self.error = error


ERRORS = (LaplaceMatchError, ValueError, ArithmeticError, np.linalg.LinAlgError)


class Slot:
    """One op of a workload cycle: the timed public call, and the check of
    its output (untimed) that turns it into an OpResult."""

    def __init__(self, label, call, check):
        self.label = label
        self.call = call
        self.check = check

    def run(self):
        try:
            return self.check(self.call())
        except ERRORS as exc:
            return self.failed(exc)

    def failed(self, exc):
        return OpResult(False, 0, error=f"{self.label}: {type(exc).__name__}: {exc}")


def _seeds(rng, count):
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


# ---------------------------------------------------------------------------
# pipeline ops


def _pipeline_slot(label, data, config, X_query, check):
    """One lmgp_v1/lmgp_v2 call (per config.version) at held-out inputs;
    `check(pred)` -> (ok, mnll)."""

    def call():
        # looked up per call, so that a traced run sees the wrapped function
        run = getattr(pipeline, f"lmgp_{config.version}")
        return run(data, config, X_query=X_query)[1]

    def summarize(pred):
        ok, mnll = check(pred)
        width = pred.latent_mean.shape[1] if pred.latent_mean.ndim == 2 else 1
        return OpResult(
            ok,
            data.n,
            mnll=mnll,
            timings=dict(pred.timings),
            latent_rows=width * (config.inducing or data.n),
            query_rows=int(pred.latent_mean.size),
            query_points=len(pred.ef_params),
            ef_fail=sum(p is None for p in pred.ef_params),
        )

    return Slot(label, call, summarize)


def _beta_check(labels):
    def check(pred):
        P = np.asarray(pred.probabilities)
        if not (np.all(np.isfinite(P)) and np.all((P >= 0.0) & (P <= 1.0))):
            return False, None
        m = pipeline.classification_metrics(P, labels)
        return m["accuracy"] >= 0.95, m["mnll"]

    return check


def _gamma_check(targets):
    def check(pred):
        if not np.all(pred.rates > 0.0):
            return False, None
        if not all(np.all(pred.summary[q] > 0.0) for q in ("q05", "q25", "q50", "q75", "q95")):
            return False, None
        variances = np.asarray(pred.summary["std"]) ** 2
        return True, pipeline.count_metrics(pred.rates, variances, targets)["mnll"]

    return check


def _dirichlet_check(labels):
    def check(pred):
        P = np.asarray(pred.probabilities)
        if not (np.all(P >= 0.0) and np.max(np.abs(P.sum(axis=1) - 1.0)) <= 1e-9):
            return False, None
        return True, pipeline.classification_metrics(P, labels)["mnll"]

    return check


def _wishart_check(p):
    def check(pred):
        draws = np.asarray(pred.draws).reshape(-1, p, p)
        if np.max(np.abs(draws - np.swapaxes(draws, -1, -2))) > 1e-8:
            return False, None
        eigs = np.linalg.eigvalsh(draws)
        traces = np.trace(draws, axis1=-2, axis2=-1)
        return bool(np.all(eigs[:, 0] >= -1e-10 * traces)), None

    return check


def _beta_slot(n, n_query, seed, inducing=None):
    rng = np.random.default_rng(seed)
    s_train, s_query, s_config = _seeds(rng, 3)
    X, y = cli.gen_binary(n, seed=s_train)
    Xq, yq = cli.gen_binary(n_query, seed=s_query)
    config = pipeline.LMGPConfig("beta", seed=s_config, inducing=inducing, draws=DRAWS)
    data = pipeline.Dataset(X, y.astype(float))
    return _pipeline_slot(f"beta n={n}", data, config, Xq, _beta_check(yq))


def _gamma_slot(n, n_query, seed, inducing=None):
    """Counts over one sorted input grid; every (n + n_query) / n_query-th
    point is held out."""
    rng = np.random.default_rng(seed)
    s_data, s_config = _seeds(rng, 2)
    X, counts = cli.gen_counts(n + n_query, seed=s_data)
    held = np.zeros(n + n_query, dtype=bool)
    held[np.linspace(0, n + n_query - 1, n_query).round().astype(int)] = True
    config = pipeline.LMGPConfig("gamma", seed=s_config, inducing=inducing, draws=DRAWS)
    data = pipeline.Dataset(X[~held], counts[~held].astype(float))
    check = _gamma_check(counts[held].astype(float))
    return _pipeline_slot(f"gamma n={n}", data, config, X[held], check)


def _dirichlet_slot(timesteps, classes, version, seed):
    """Category counts over time; train on even steps, predict the odd ones."""
    rng = np.random.default_rng(seed)
    s_data, s_config = _seeds(rng, 2)
    rows, _ = cli.gen_categorical(timesteps, classes=classes, seed=s_data)
    Y = np.array([r[3] for r in rows], dtype=float).reshape(timesteps, classes)
    X = np.column_stack([np.arange(float(timesteps)), np.zeros(timesteps)])
    config = pipeline.LMGPConfig("dirichlet", seed=s_config, version=version, draws=DRAWS)
    data = pipeline.Dataset(X[0::2], Y[0::2])
    check = _dirichlet_check(np.argmax(Y[1::2], axis=1))
    return _pipeline_slot(f"dirichlet K={classes} {version}", data, config, X[1::2], check)


def _wishart_slot(timesteps, p, version, seed):
    """Scatter matrices over time; train on even steps, predict the odd ones."""
    rng = np.random.default_rng(seed)
    s_data, s_config = _seeds(rng, 2)
    ts, mats = cli.gen_covariance(timesteps, p=p, seed=s_data)
    M = np.stack(mats)
    config = pipeline.LMGPConfig("inverse_wishart", seed=s_config, version=version, draws=DRAWS)
    data = pipeline.Dataset(ts[0::2], M[0::2])
    return _pipeline_slot(
        f"inverse_wishart p={p} {version}", data, config, ts[1::2], _wishart_check(p)
    )


def dense_scalar(seed, tiny=False):
    """lmgp_v1, beta and gamma alternating, n = 250/500/1000 in ratio 3:2:1,
    n held-out queries per op."""
    sizes = (20, 30, 20, 40, 20, 30) if tiny else (250, 500, 250, 1000, 250, 500)
    seeds = _seeds(np.random.default_rng(seed), BLOCKS["dense_scalar"] * 12)
    make = (_beta_slot, _gamma_slot)
    return [make[i % 2](sizes[i % 6], sizes[i % 6], s) for i, s in enumerate(seeds)]


def multi_latent(seed, tiny=False):
    """Dirichlet (K=4, 250 steps) and inverse Wishart (p=3, 160 steps) ops
    alternating, with v1 and v2 alternating across each kind."""
    t_dir, t_iw = (12, 10) if tiny else (250, 160)
    seeds = iter(_seeds(np.random.default_rng(seed), BLOCKS["multi_latent"] * 4))
    slots = []
    for _ in range(BLOCKS["multi_latent"]):
        slots += [
            _dirichlet_slot(t_dir, 4, "v1", next(seeds)),
            _wishart_slot(t_iw, 3, "v2", next(seeds)),
            _dirichlet_slot(t_dir, 4, "v2", next(seeds)),
            _wishart_slot(t_iw, 3, "v1", next(seeds)),
        ]
    return slots


def inducing(seed, tiny=False):
    """beta and gamma alternating, n=2000 with 100 inducing centres and 500
    held-out queries."""
    n, k, m = (60, 6, 20) if tiny else (2000, 100, 500)
    seeds = _seeds(np.random.default_rng(seed), BLOCKS["inducing"] * 2)
    make = (_beta_slot, _gamma_slot)
    return [make[i % 2](n, m, s, inducing=k) for i, s in enumerate(seeds)]


# ---------------------------------------------------------------------------
# catalogue ops


def catalogue_rows():
    """The (family, basis) pairs that oracle-check covers, in its order."""
    return [
        (family, tag)
        for family in distributions.FAMILIES
        for tag in diagnostics._FAMILY_BASES[family]
    ]


def _rel_dev(a, b):
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.max(np.abs(a - b) / np.maximum(np.abs(b), 1e-300)))


def _scalar_arrays(family, tag, rng, count):
    """Parameter arrays strictly inside the row's validity region."""

    def u(lo, hi):
        return np.exp(rng.uniform(np.log(lo), np.log(hi), size=count))

    if family == "exponential":
        return {"lam": u(0.1, 10.0)}
    if family == "gamma":
        return {"alpha": u(0.6 if tag == "sqrt" else 0.1, 30.0), "lam": u(0.1, 10.0)}
    if family == "inverse_gamma":
        return {"alpha": u(0.1, 30.0), "lam": u(0.1, 10.0)}
    if family == "chi_squared":
        return {"k": u(1.1 if tag == "sqrt" else 0.1, 30.0)}
    return {"alpha": u(0.1, 30.0), "beta": u(0.1, 30.0)}


def _random_spd(rng, p):
    A = rng.standard_normal((p, p))
    return A @ A.T + p * np.eye(p)


def _matrix_params(family, rng, count, low, p=3):
    """Wishart-family parameters with degrees of freedom in [low, low + 20]."""
    dofs = rng.uniform(low, low + 20.0, size=count)
    make = distributions.wishart if family == "wishart" else distributions.inverse_wishart
    return [make(float(d), _random_spd(rng, p)) for d in dofs]


def _identity_params(family, rng, count):
    """Parameters where the standard-basis Laplace approximation exists."""
    if family in ("wishart", "inverse_wishart"):
        return _matrix_params(family, rng, count, low=4.5)  # n > p + 1 at p = 3

    def u(lo, hi):
        return float(np.exp(rng.uniform(np.log(lo), np.log(hi))))

    make = {
        "gamma": lambda: distributions.gamma(u(1.1, 30.0), u(0.1, 10.0)),
        "inverse_gamma": lambda: distributions.inverse_gamma(u(0.1, 30.0), u(0.1, 10.0)),
        "chi_squared": lambda: distributions.chi_squared(u(2.1, 30.0)),
        "beta": lambda: distributions.beta(u(1.1, 30.0), u(1.1, 30.0)),
        "dirichlet": lambda: distributions.dirichlet(
            np.exp(rng.uniform(np.log(1.1), np.log(30.0), 10))
        ),
    }[family]
    return [make() for _ in range(count)]


def _round_trip_inputs(family, tag, rng, sizes):
    """Parameters inside the row's validity region, for one round trip."""
    if tag == "identity":
        # the exponential density has no interior mode for any parameter
        return [] if family == "exponential" else _identity_params(family, rng, sizes["matrix"])
    if family in _SCALAR_FAMILIES:
        return _scalar_arrays(family, tag, rng, sizes["scalar"])
    if family == "dirichlet":
        return np.exp(rng.uniform(np.log(0.2), np.log(30.0), size=(sizes["dirichlet"], 10)))
    # matrix_sqrt needs n > p for the Wishart; matrix_log only n > p - 1
    return _matrix_params(family, rng, sizes["matrix"], low=3.5 if tag == "matrix_sqrt" else 2.5)


def _round_trip(family, tag, params):
    """Forward then inverse through the public bridge API; returns (max
    relative deviation from the inputs, parameter sets). The identity row
    has no inverse, so its deviation is 0 when every forward result is
    finite and inf otherwise."""
    if tag == "identity":
        for theta in params:
            g = bridges.lm_forward(theta, tag)
            if not (np.all(np.isfinite(g.mean)) and np.all(np.isfinite(g.cov_dense()))):
                return float("inf"), len(params)
        return 0.0, len(params)
    if family in _SCALAR_FAMILIES:
        mu, var = bridges.forward_arrays(family, tag, **params)
        back = bridges.inverse_arrays(family, tag, mu, var)
        return max(_rel_dev(back[k], params[k]) for k in params), mu.size
    if family == "dirichlet":
        mu, sigma = bridges.dirichlet_softmax_forward_arrays(params)
        back = bridges.dirichlet_softmax_inverse_arrays(mu, np.diagonal(sigma, axis1=-2, axis2=-1))
        return _rel_dev(back, params), params.shape[0]
    dev = 0.0
    for theta in params:
        g = bridges.lm_forward(theta, tag)
        back = bridges.lm_inverse(g, family, tag, structured_sigma=tag == "matrix_sqrt")
        for name in distributions.param_fields(family):
            dev = max(dev, _rel_dev(getattr(back, name), getattr(theta, name)))
    return dev, len(params)


def _catalogue_slot(family, tag, index, seed, tiny):
    sizes = (
        {"scalar": 200, "dirichlet": 20, "matrix": 3}
        if tiny
        else {"scalar": 200_000, "dirichlet": 20_000, "matrix": 50}
    )
    mc_n = 500 if tiny else (100_000 if family in _SCALAR_FAMILIES else 20_000)
    params = _round_trip_inputs(family, tag, np.random.default_rng(seed), sizes)
    valid = [] if (family, tag) == ("exponential", "identity") else [
        g for g in diagnostics.default_grid(family) if bridges.bridge_valid(g, tag)
    ]
    mc_params = valid[index % len(valid)] if valid else None

    def call():
        dev, points = _round_trip(family, tag, params)
        rows = cli.oracle_rows([family], bases=[tag])
        kl = None if mc_params is None else diagnostics.mc_kl(mc_params, tag, n=mc_n, seed=seed)
        return dev, points, rows, kl

    def check(out):
        dev, points, rows, kl = out
        ok = dev <= 1e-9 and not any(r[5].startswith("FAIL") for r in rows)
        ok = ok and (kl is None or bool(np.all(np.isfinite(kl))))
        return OpResult(bool(ok), points)

    return Slot(f"{family}/{tag}", call, check)


def catalogue(seed, tiny=False):
    """The 22 oracle-check rows in a fixed cycle: round trip, oracle rows and
    one Monte Carlo KL per op."""
    rows = catalogue_rows()
    seeds = _seeds(np.random.default_rng(seed), len(rows))
    return [
        _catalogue_slot(family, tag, i, s, tiny)
        for i, ((family, tag), s) in enumerate(zip(rows, seeds))
    ]


def build(name, seed, tiny=False):
    """The op cycle of workload `name`, generated from `seed`."""
    makers = {
        "dense_scalar": dense_scalar,
        "multi_latent": multi_latent,
        "inducing": inducing,
        "catalogue": catalogue,
    }
    return makers[name](seed, tiny=tiny)
