"""End-to-end latent-GP inference through the parameter bridges.

The LM step is one path for V1, V2 and inducing sets: sites -> prior
fields -> conjugate fold -> bridge. A site is a training input, or with
`inducing=k` a k-means++ cluster carrying its members' summed targets and
member count. The prior fields are the weak pseudo-prior's (V1, inducing,
and V2 without a fitted prior) or, for V2 with a fitted prior GP, the bridge
inverse of its marginals at the sites (one `bridges.inverse_arrays` call).
`distributions.conjugate_fields` folds each site's data into its fields, and
one `bridges.forward_arrays` call, for every family, turns them into Gaussian
pseudo-observations, on which a heteroskedastic GP is fit in the latent
coordinates. With the flat default prior V2 coincides with V1.

Latent layout: scalar families use one GP coordinate per input. The simplex
and matrix families have `width` latent functions per input (K classes, or
p(p+1)/2 matrix coordinates, p = 1 included) under `gp.Coregional(kernel,
B)`, fit on the sites with the bridge covariances as (sites, w, w) block
noise; their marginals are (m, w) means and (m, w, w) blocks.

Prediction computes the GP posterior once, as per-point marginals (a
variance, or a width x width block per query point). `Prediction.draws` are
per-point posterior draws: each point is drawn from its own marginal, so
draws of different points are uncorrelated; every summary reads them one
point at a time, along the draw axis of a C-ordered (draws, m[, width])
array.

Buffers of a prediction: the latent draws are sampled into one (draws,
m[, width]) array, and the sampler's width > 1 product and the summaries
run through small buffers of `_DRAWS_BLOCK` floats. For the scalar and
softmax bases that array, back-transformed in place, is `Prediction.draws`
and the only one of the draws' size; the softmax max and sum over the
classes run a block of draws at a time through buffers of `_DRAWS_BLOCK`
floats. The matrix-log basis exponentiates the vech entries
in that array, summarizes them, and expands draws and summary to p x p
once, so the (draws, m, p, p) stack is the second. The matrix-sqrt basis
expands the draws to p x p, which frees the normals, and squares their
symmetric part, whose own symmetric part is the result: three stacks of
the (draws, m, p, p) size live at once.
`predict` makes another prediction from the model a pipeline run returned,
without refitting it.

`gen_binary`, `gen_counts`, `gen_categorical` and `gen_covariance` make
seeded synthetic datasets of the four data types.
"""

import functools
import time

import numpy as np

from . import bridges, distributions, gp, matrixops, transforms
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    IncompatibleBasis,
    InvalidParams,
    NegativeRate,
    NonConvergence,
)

QUANTILES = (0.05, 0.25, 0.5, 0.75, 0.95)


class Dataset:
    """Observation batch: inputs X (n, d) and family-appropriate targets Y.

    Y per family: beta -> 0/1 labels (n,); gamma -> non-negative integer
    counts (n,); dirichlet -> per-category count vectors (n, K);
    inverse_wishart -> one PSD scatter matrix per input (n, p, p).
    """

    def __init__(self, X, Y):
        self.X = gp._as_inputs(X) if np.size(X) else np.zeros((0, 1))
        if not np.all(np.isfinite(self.X)):
            raise InvalidParams("inputs X must be finite")
        self.Y = np.asarray(Y, dtype=float)
        if self.Y.shape[:1] != (self.X.shape[0],):
            raise DimensionMismatch("X and Y must agree on the point count")

    @property
    def n(self):
        return self.X.shape[0]

    def __repr__(self):
        return f"Dataset(n={self.n}, d={self.X.shape[1]}, y{self.Y.shape[1:]})"


# ---------------------------------------------------------------------------
# synthetic datasets


def _check_size(name, value, least=0):
    if value < least:
        raise InvalidParams(f"{name} must be >= {least}, got {value}")


def gen_binary(n, d=2, separation=4.0, noise=0.5, seed=0):
    """Two Gaussian blobs split along the first coordinate, guaranteed
    separable with margin 0.25; returns (X, labels)."""
    _check_size("n", n)
    _check_size("d", d, 1)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 2, size=n)
    centers = np.zeros((n, d))
    centers[:, 0] = np.where(labels == 1, separation / 2.0, -separation / 2.0)
    X = centers + noise * rng.standard_normal((n, d))
    sign = np.where(labels == 1, 1.0, -1.0)
    for _ in range(1000):
        bad = sign * X[:, 0] < 0.25
        if not np.any(bad):
            break
        X[bad, 0] = centers[bad, 0] + noise * rng.standard_normal(int(np.sum(bad)))
    else:
        raise NonConvergence(
            f"separable resampling did not settle: no margin of 0.25 at "
            f"separation {separation} and noise {noise}"
        )
    return X, labels


def gen_counts(n, d=1, seed=0):
    """Poisson counts with a smooth log-rate over [0, 4]^d; returns (X, counts)."""
    _check_size("n", n)
    _check_size("d", d, 1)
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(0.0, 4.0, size=(n, d)), axis=0)
    rate = np.exp(1.0 + np.sin(X[:, 0]))
    return X, rng.poisson(rate)


def gen_categorical(timesteps, groups=1, classes=4, total=50, seed=0):
    """Multinomial counts from smoothly drifting class logits.

    Returns (rows, class labels) with one row (t, c, class, count) per
    group and class. One multinomial call over the stacked (t, c) rows
    draws what one call per row, in order, would.
    """
    _check_size("timesteps", timesteps)
    _check_size("groups", groups)
    _check_size("classes", classes, 2)
    _check_size("total", total)
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.5, 1.5, size=classes)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=classes)
    offset = rng.uniform(-0.5, 0.5, size=(groups, classes))
    if not timesteps * groups:
        return [], list(range(classes))
    angle = 2.0 * np.pi * np.arange(timesteps) / timesteps
    logits = (amp * np.sin(angle[:, None] + phase))[:, None, :] + offset
    probs = np.exp(logits - np.max(logits, axis=-1, keepdims=True))
    probs /= probs.sum(axis=-1, keepdims=True)
    counts = rng.multinomial(total, probs).tolist()
    rows = [
        (t, c, cls, count)
        for t, step in zip(map(float, range(timesteps)), counts)
        for c, group in enumerate(step)
        for cls, count in enumerate(group)
    ]
    return rows, list(range(classes))


def gen_covariance(timesteps, p=2, dof=8, seed=0):
    """Wishart scatter draws around a smoothly rotating SPD mean; returns
    (ts, matrices). Step t draws sample(wishart(dof, scale_t), seed_t, 1)
    with seed_t from the generator, the scales checked as one stack."""
    _check_size("timesteps", timesteps)
    _check_size("p", p, 1)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((p, p))
    base = base @ base.T + p * np.eye(p)
    ts = np.arange(float(timesteps))
    if not timesteps:
        return ts, []
    theta = 0.5 * np.pi * np.arange(timesteps) / max(timesteps - 1, 1)
    G = np.tile(np.eye(p), (timesteps, 1, 1))
    if p >= 2:
        cos, sin = np.cos(theta), np.sin(theta)
        G[:, :2, :2] = np.moveaxis(np.array([[cos, -sin], [sin, cos]]), -1, 0)
    scale = G @ base @ np.swapaxes(G, 1, 2) / dof
    # wishart() on step 0 raises the dof's errors before any scale's, in step order
    n = distributions.wishart(float(dof), scale[0]).n
    L = np.linalg.cholesky(distributions._check_spd_stack(scale, "V"))
    seeds = [int(rng.integers(2**31)) for _ in range(timesteps)]
    A = [distributions._bartlett_factors(np.random.default_rng(s), n, p, 1) for s in seeds]
    return ts, list(distributions._bartlett(L, np.concatenate(A)))


class LMGPConfig:
    """Pipeline configuration.

    Args:
        family: conjugate family tag (beta, gamma, dirichlet,
            inverse_wishart).
        basis: bridge basis; defaults per family (logit, log,
            softmax_inverse, matrix_log).
        kernel: input-space kernel, evaluated on the (n, d) site inputs.
            Defaults to RBF with the median pairwise-distance lengthscale.
            For the multi-latent families it is the input factor of
            `gp.Coregional(kernel, B)`.
        coord_kernel: latent-coordinate kernel for the multi-latent
            families, evaluated once on the w codes 0 .. w - 1 as a (w, 1)
            column to give the coregionalization matrix B. Defaults to a
            LookupTable of identity plus a uniform 0.5.
        epsilon_a: pseudo-likelihood prior weight (finite, > 0).
        inducing: optional cluster count for the conjugacy-based reduction,
            1 <= inducing <= the number of distinct inputs (pseudo-likelihood
            semantics: the sites keep the pseudo-prior in V2 too).
        seed: drives sampling and clustering; same seed, same outputs.
        version: "v1" or "v2".
        dirichlet_prior: per-category Dirichlet pseudo-count (finite, > 0).
        draws: data-domain sample count per prediction point (>= 1).
    """

    def __init__(self, family, basis=None, kernel=None, coord_kernel=None,
                 epsilon_a=None, inducing=None, seed=0, version="v1",
                 dirichlet_prior=1.0, draws=1000):
        if family not in distributions.CONJUGATE_FAMILIES:
            raise InvalidParams(f"no observation model for family {family!r}")
        self.family = family
        self.basis = basis
        self.kernel = kernel
        self.coord_kernel = coord_kernel
        self.epsilon_a = (
            distributions.DEFAULT_EPSILON_A if epsilon_a is None else float(epsilon_a)
        )
        if not (np.isfinite(self.epsilon_a) and self.epsilon_a > 0.0):
            raise InvalidParams("epsilon_a must be finite and positive")
        self.inducing = None if inducing is None else int(inducing)
        if self.inducing is not None and self.inducing < 1:
            raise InvalidParams("inducing must be >= 1")
        self.seed = int(seed)
        if version not in ("v1", "v2"):
            raise InvalidParams("version must be 'v1' or 'v2'")
        self.version = version
        self.dirichlet_prior = float(dirichlet_prior)
        if not (np.isfinite(self.dirichlet_prior) and self.dirichlet_prior > 0.0):
            raise InvalidParams("dirichlet_prior must be finite and positive")
        self.draws = int(draws)
        if self.draws < 1:
            raise InvalidParams("draws must be >= 1")

    def resolve_basis(self, Y):
        """The configured basis, or the family's first bridge row; K or p
        from the last axis of the targets Y."""
        basis = transforms.FAMILY_BASES[self.family][1] if self.basis is None else self.basis
        return _bridge_basis(self.family, basis, Y.shape[-1])

    def replace(self, **updates):
        return LMGPConfig(**{**vars(self), **updates})

    def to_record(self):
        rec = {
            "family": self.family,
            "basis": None if self.basis is None else str(self.basis),
            "epsilon_a": self.epsilon_a,
            "inducing": self.inducing,
            "seed": self.seed,
            "version": self.version,
            "dirichlet_prior": self.dirichlet_prior,
            "draws": self.draws,
        }
        if self.kernel is not None:
            rec["kernel"] = self.kernel.to_record()
        if self.coord_kernel is not None:
            rec["coord_kernel"] = self.coord_kernel.to_record()
        return rec


class Prediction:
    """Back-transformed posterior summary at the query points.

    `timings` holds wall seconds per stage: lm_seconds (sites, prior fields,
    conjugate fold and bridge), fit_seconds (GP fit), predict_seconds (GP
    posterior, per-point draws and back-transform) and summary_seconds
    (summaries and EF inversion). `diagnostics` says what the fit did: the
    Cholesky jitter, the smallest diagonal entry of the factor (min_pivot)
    and the log-determinant of the factored matrix, the number of sites, the
    latent width, the count of query points whose EF inversion failed
    (ef_failures, the False entries of `ef_ok`), the fitted kernel's
    record (kernel; with the default kernel, its median-heuristic
    lengthscale), and the Lloyd iterations of the k-means++ clustering of
    an inducing run and whether they converged before the cap of 100
    (lloyd_iterations and lloyd_converged; None when the call clustered
    nothing). `ef_fields` holds the EF parameter fields of the query
    points from one masked bridge inverse, and `ef_ok` (m,) where it holds;
    `ef_params`, an EFParams per point or None, is built on first read.
    """

    def __init__(self, family, basis, X, latent_mean, latent_cov, draws,
                 summary, ef_fields, ef_ok, timings, seed, diagnostics,
                 probabilities=None, rates=None):
        self.family = family
        self.basis = basis
        self.X = X
        self.latent_mean = latent_mean
        self.latent_cov = latent_cov
        self.draws = draws
        self.summary = summary
        self.ef_fields = ef_fields
        self.ef_ok = ef_ok
        self.timings = timings
        self.seed = seed
        self.probabilities = probabilities
        self.rates = rates
        self.diagnostics = diagnostics

    @property
    def classes(self):
        """Argmax decision per point; ties resolve to the lowest index."""
        if self.probabilities is None:
            return None
        P = self.probabilities
        if P.ndim == 1:
            P = np.column_stack([1.0 - P, P])
        return np.argmax(P, axis=1)

    @functools.cached_property
    def ef_params(self):
        """EFParams per query point, None where the inversion failed."""
        points = zip(*self.ef_fields.values())
        return tuple(
            distributions.EFParams(self.family, **dict(zip(self.ef_fields, values))) if ok else None
            for values, ok in zip(points, self.ef_ok.tolist())
        )

    def to_record(self):
        rec = {
            "family": self.family,
            "basis": str(self.basis),
            "seed": self.seed,
            "n_query": int(self.X.shape[0]),
            "latent_mean": self.latent_mean.tolist(),
            "summary": {k: np.asarray(v).tolist() for k, v in self.summary.items()},
            "timings": dict(self.timings),
            "diagnostics": dict(self.diagnostics),
            "ef_params": [None if p is None else p.to_record() for p in self.ef_params],
        }
        if self.probabilities is not None:
            rec["probabilities"] = self.probabilities.tolist()
            rec["classes"] = self.classes.tolist()
        if self.rates is not None:
            rec["rates"] = self.rates.tolist()
        return rec


# ---------------------------------------------------------------------------
# latent layout helpers


def _bridge_basis(family, basis, size):
    """`transforms.resolve_basis`, then the bridge row the pipelines fit: a
    basis with no row (identity) raises IncompatibleBasis, and a K or p that
    differs from `size` BasisSizeMismatch, a DimensionMismatch."""
    basis = transforms.resolve_basis(family, basis, size)
    bridges._row_for(family, basis.tag)
    return basis


def _basis_width(basis, family):
    if family in distributions._SCALAR_FAMILIES:
        return 1
    if family == "dirichlet":
        return basis.K
    return basis.p * (basis.p + 1) // 2


def _build_kernel(config, X, width):
    """The input kernel (by default RBF at the median lengthscale of X), or
    for a multi-latent family `gp.Coregional` over it with B from the
    coordinate kernel on the w codes."""
    kernel = config.kernel
    if kernel is None:
        kernel = gp.RBF(lengthscale=gp.median_lengthscale(X))
    if config.family in distributions._SCALAR_FAMILIES:
        return kernel
    kC = config.coord_kernel
    if kC is None:
        kC = gp.LookupTable(np.eye(width) + 0.5)
    return gp.Coregional(kernel, kC(np.arange(width, dtype=float)))


def _marginals(model, X):
    """GP marginals at X: (m,) means and variances, or for a Coregional
    model (m, w) means and (m, w, w) blocks."""
    mean, cov = gp.gp_predict(model, X)
    return (mean.reshape(cov.shape[:2]) if cov.ndim == 3 else mean), cov


# ---------------------------------------------------------------------------
# the LM step: sites -> prior fields -> conjugate fold -> bridge


_NO_LLOYD = {"lloyd_iterations": None, "lloyd_converged": None}


def _sites(data, config):
    """Training sites as (inputs, summed targets, member counts, Lloyd
    diagnostics).

    Without inducing, each training input is a site of one observation and
    the Lloyd diagnostics are None; with inducing=k, each k-means++ cluster
    is one site at its center, and they hold the clustering's iteration
    count and whether it converged before the cap.
    """
    if config.inducing is None:
        return data.X, data.Y, np.ones(data.n), _NO_LLOYD
    k = config.inducing
    # k-means++ cannot fill more clusters than there are distinct inputs;
    # sorted by their columns, equal rows (-0.0 equals 0.0) are adjacent
    X = data.X[np.lexsort(data.X.T)]
    distinct = 1 + int(np.count_nonzero(np.any(X[1:] != X[:-1], axis=1)))
    if k > distinct:
        raise InvalidParams(f"inducing={k} exceeds the {distinct} distinct training inputs")
    centers, assign, iterations, converged = gp.kmeanspp(data.X, k, seed=config.seed)
    total = np.zeros((k,) + data.Y.shape[1:])
    np.add.at(total, assign, data.Y)
    lloyd = {"lloyd_iterations": iterations, "lloyd_converged": converged}
    return centers, total, np.bincount(assign, minlength=k).astype(float), lloyd


def _prior_fields(config, basis, X_sites, prior_model):
    """Conjugate prior parameter fields at the sites.

    The pseudo-prior's fields, which broadcast over the sites, unless V2
    has a fitted prior: then the bridge inverse of its marginals at the
    sites (the pseudo-likelihood semantics of inducing sites keep the
    pseudo-prior).
    """
    fam = config.family
    if prior_model is None or config.inducing is not None:
        theta = distributions.pseudo_prior(
            fam,
            config.epsilon_a,
            K=basis.K if fam == "dirichlet" else None,
            p=basis.p if fam == "inverse_wishart" else None,
            dirichlet_prior=config.dirichlet_prior,
        )
        return {name: getattr(theta, name) for name in distributions.param_fields(fam)}
    return bridges.inverse_arrays(fam, basis.tag, *_marginals(prior_model, X_sites))


# ---------------------------------------------------------------------------
# prediction assembly


def _back_transform(latent, basis, family):
    """Latent draws (count, m[, width]) -> data-domain draws, written into
    `latent` itself for the scalar, softmax and matrix-log bases. The
    matrix-log basis leaves the exponentials' p(p+1)/2 vech entries there,
    which `_predict` summarizes and then expands to p x p; the matrix-sqrt
    basis returns a new (count, m, p, p) stack."""
    if basis.tag == "matrix_log":
        return transforms._expm_vech(latent, basis.p)
    if family == "inverse_wishart":
        latent = matrixops.unvech(latent, basis.p)
    return transforms._inverse_in_place(latent, basis)


_DRAWS_BLOCK = transforms._DRAWS_BLOCK


def _quantile_rule(count, q):
    """np.quantile's "linear" rule over `count` sorted values: the order
    statistics (lo, hi) it reads and the weight t, including numpy's
    weight against its floor index of -1 when the virtual index is the last."""
    virtual = (count - 1) * q
    if virtual >= count - 1:
        return count - 1, count - 1, virtual + 1.0
    lo = int(np.floor(virtual))
    return lo, lo + 1, virtual - lo


def _summarize(draws_data):
    """Mean, std and the QUANTILES over the draw axis, with the floats of
    np.mean, np.std and np.quantile, in buffers of `_DRAWS_BLOCK` floats.

    The mean is one sum. The squared deviations are summed in row blocks of
    one buffer whose first row carries the running sum: numpy adds the rows
    of a C-ordered array in order, as np.std's sum does. A single column, or
    draws not in C order, where numpy's sum runs pairwise along the draws,
    take the squared deviations in one array of the draws' size instead.
    For the quantiles, column blocks are copied transposed into a second
    buffer and sorted along its contiguous axis; only the order statistics
    the quantiles read, and the largest for the NaN rule, are kept. A
    quantile is then numpy's lerp of its two, the upper-branch form for
    t >= 0.5, and NaN where the column's largest value is NaN."""
    count = draws_data.shape[0]
    mean = np.sum(draws_data, axis=0)
    mean /= count
    shape = np.shape(mean)
    cols = draws_data.reshape(count, -1)
    width = cols.shape[1]
    if width > 1 and draws_data.flags.c_contiguous:
        rows = max(_DRAWS_BLOCK // width, 1)
        buf = np.zeros((min(rows, count) + 1, width))
        for lo in range(0, count, rows):
            block = buf[: min(rows, count - lo) + 1]
            np.subtract(cols[lo : lo + rows], mean.reshape(-1), out=block[1:])
            np.square(block[1:], out=block[1:])
            block[0] = np.sum(block, axis=0)
        std = buf[0].reshape(shape)
    else:
        std = np.subtract(draws_data, mean)
        np.square(std, out=std)
        std = np.sum(std, axis=0)
    std /= count
    summary = {"mean": mean, "std": np.sqrt(std)}
    rules = [_quantile_rule(count, q) for q in QUANTILES]
    order = sorted({i for lo, hi, _ in rules for i in (lo, hi)} | {count - 1})
    stats = np.empty((len(order), width))
    step = max(_DRAWS_BLOCK // count, 1)
    buf = np.empty((min(step, width), count))
    for lo in range(0, width, step):
        block = buf[: min(step, width - lo)]
        np.copyto(block, cols[:, lo : lo + step].T)
        block.sort(axis=1)
        stats[:, lo : lo + step] = block[:, order].T
    stat = dict(zip(order, stats.reshape((len(order),) + shape)))
    last = stat[count - 1]
    nan = np.isnan(last)
    for q, (lo, hi, t) in zip(QUANTILES, rules):
        a, b = stat[lo], stat[hi]
        diff = b - a
        out = b - diff * (1.0 - t) if t >= 0.5 else a + diff * t
        if np.any(nan):
            out = np.where(nan, last, out)
        summary[f"q{int(round(q * 100)):02d}"] = out
    return summary


def _sample_marginals(mean, cov, seed, count):
    """Seeded per-point draws, (count, m) or (count, m, w), in C order.

    Each point is drawn from its own marginal: variance (m,) or covariance
    block (m, w, w). Draws of different points are independent. The normals
    are the only array of the draws' size: for w > 1, each block of points
    takes its (count, w) draws times R^T in one buffer of `_DRAWS_BLOCK`
    floats, one BLAS product per point, copied back into the normals.
    """
    z = np.random.default_rng(seed).standard_normal((count,) + mean.shape)
    if mean.ndim == 1:
        z *= np.sqrt(cov)
    else:
        m, w = mean.shape
        root_t = np.swapaxes(gp._psd_root(cov), -1, -2)
        step = max(_DRAWS_BLOCK // (count * w), 1)
        buf = np.empty((min(step, m), count, w))
        for lo in range(0, m, step):
            block = buf[: min(step, m - lo)]
            np.matmul(z[:, lo : lo + step].transpose(1, 0, 2), root_t[lo : lo + step], out=block)
            z[:, lo : lo + step] = block.transpose(1, 0, 2)
    z += mean
    return z


def _predict(model, config, basis, width, X_query, timings, lloyd=_NO_LLOYD):
    fam = config.family
    if model.family not in (None, fam):
        raise IncompatibleBasis(f"the model was fitted for {model.family}, not for {fam}")
    Xq = gp._as_inputs(X_query)
    t0 = time.perf_counter()
    latent_mean, latent_cov = _marginals(model, Xq)
    # the draws' one reference is _back_transform's, which frees them once expanded
    data_draws = _back_transform(
        _sample_marginals(latent_mean, latent_cov, config.seed, config.draws), basis, fam
    )
    t1 = time.perf_counter()
    summary = _summarize(data_draws)
    summary_s = time.perf_counter() - t1
    if basis.tag == "matrix_log":  # summarized on the distinct entries, then expanded once
        summary = {k: matrixops.unvech_stack(v, basis.p) for k, v in summary.items()}
        data_draws = matrixops.unvech_stack(data_draws, basis.p)
    t2 = time.perf_counter()
    timings["predict_seconds"] = t2 - t0 - summary_s  # the expansion is back-transform work
    probabilities = None
    rates = None
    if fam in ("beta", "dirichlet"):
        probabilities = summary["mean"]
    elif fam == "gamma":
        rates = summary["mean"]
    ef_fields, ef_ok = bridges._inverse_masked(fam, basis.tag, latent_mean, latent_cov)
    timings["summary_seconds"] = summary_s + time.perf_counter() - t2
    diagnostics = {
        **model.diagnostics(),
        "sites": model.n,
        "width": width,
        "ef_failures": int(np.count_nonzero(~ef_ok)),
        "kernel": model.kernel.to_record(),
        **lloyd,
    }
    return Prediction(
        family=fam,
        basis=basis,
        X=Xq,
        latent_mean=latent_mean,
        latent_cov=latent_cov,
        draws=data_draws,
        summary=summary,
        ef_fields=ef_fields,
        ef_ok=ef_ok,
        timings=timings,
        seed=config.seed,
        probabilities=probabilities,
        rates=rates,
        diagnostics=diagnostics,
    )


def _as_dataset(data):
    return data if isinstance(data, Dataset) else Dataset(*data)


def _resolved_basis(data, config):
    """The run's basis: resolved against the targets, or for empty data an
    explicit basis against its own K or p (a scalar family's needs none)."""
    if data.n:
        return config.resolve_basis(data.Y)
    if isinstance(config.basis, transforms.BasisTransform):
        return _bridge_basis(config.family, config.basis, config.basis.K or config.basis.p)
    if config.family not in distributions._SCALAR_FAMILIES:
        raise EmptyDataset("empty multi-latent data needs an explicit basis carrying K or p")
    return config.resolve_basis(np.zeros(1))


def _run(data, config, X_query, prior_model):
    data = _as_dataset(data)
    if data.n == 0:
        if config.version != "v2":
            raise EmptyDataset("pipeline needs at least one observation")
        # posterior equals prior when nothing was observed
        basis = _resolved_basis(data, config)
        width = _basis_width(basis, config.family)
        model = prior_model or gp.gp_fit(_build_kernel(config, data.X, width), [], [], [])
        timings, lloyd = {"lm_seconds": 0.0}, _NO_LLOYD
    else:
        distributions.check_observations(config.family, data.Y)
        basis = _resolved_basis(data, config)
        width = _basis_width(basis, config.family)
        kernel = _build_kernel(config, data.X, width)
        timings = {}
        t0 = time.perf_counter()
        X_train, total, count, lloyd = _sites(data, config)
        prior = _prior_fields(config, basis, X_train, prior_model)
        fields = distributions.conjugate_fields(config.family, prior, total, count)
        mu, noise = bridges.forward_arrays(config.family, basis.tag, **fields)
        timings["lm_seconds"] = time.perf_counter() - t0
        t1 = time.perf_counter()
        model = gp.gp_fit(kernel, X_train, mu.ravel(), noise)
        timings["fit_seconds"] = time.perf_counter() - t1
    if model is not prior_model:  # the family this run fitted the model for
        model.family = config.family
    Xq = data.X if X_query is None else X_query
    return model, _predict(model, config, basis, width, Xq, timings, lloyd)


def lmgp_v1(data, config, X_query=None):
    """Pseudo-likelihood pipeline: data -> bridges -> heteroskedastic GP.

    Returns (GPModel, Prediction at X_query, defaulting to the training
    inputs). Deterministic given (data, config).
    """
    if config.version != "v1":
        config = config.replace(version="v1")
    return _run(data, config, X_query, None)


def lmgp_v2(data, config, X_query=None, prior=None):
    """Conjugate-prior pipeline: prior marginals -> parameters -> update.

    `prior` is an optional fitted GPModel supplying prior marginals at the
    training points; without one the flat construction (the bridge image of
    the pseudo-prior) is used, which makes V2 coincide with V1. With zero
    observations the prior itself is returned.
    """
    if config.version != "v2":
        config = config.replace(version="v2")
    return _run(data, config, X_query, prior)


def predict(model, basis, config, X_query):
    """Prediction at X_query from the model that lmgp_v1 or lmgp_v2 returned
    for config, without a refit. `basis` is the basis that run resolved (its
    `Prediction.basis`), so the latent width is the fitted one. Equal to the
    run's Prediction at X_query, except that `timings` holds only the predict
    and summary stages and that `lloyd_iterations` and `lloyd_converged` are
    None: no clustering runs here. A config of another family than the
    model's, or a basis of another family or with no bridge row, raises
    IncompatibleBasis.
    """
    if not isinstance(basis, transforms.BasisTransform):
        raise IncompatibleBasis("predict takes the basis the run resolved, Prediction.basis")
    basis = _bridge_basis(config.family, basis, basis.K or basis.p)
    width = _basis_width(basis, config.family)
    if model.kernel.width != width:
        raise DimensionMismatch(f"basis {basis!r} does not fit the model's latent width")
    return _predict(model, config, basis, width, X_query, {})


# ---------------------------------------------------------------------------
# metrics


def classification_metrics(probabilities, labels):
    """Accuracy, mean negative log-likelihood, and expected calibration error.

    Probabilities are per-point simplex rows (a vector of p(class 1) is
    accepted for the binary case); ECE uses 10 equal-width confidence bins.
    """
    P = np.asarray(probabilities, dtype=float)
    if P.ndim == 1:
        P = np.column_stack([1.0 - P, P])
    labels = np.asarray(labels)
    if P.ndim != 2 or labels.shape != (P.shape[0],):
        raise DimensionMismatch("need (n, K) probabilities and (n,) labels")
    if np.any(P < -1e-9) or np.max(np.abs(np.sum(P, axis=1) - 1.0)) > 1e-6:
        raise InvalidParams("probability rows must lie in the simplex")
    labels = labels.astype(int)
    if np.any(labels < 0) or np.any(labels >= P.shape[1]):
        raise InvalidParams("labels outside the class range")
    n = P.shape[0]
    pred = np.argmax(P, axis=1)
    accuracy = float(np.mean(pred == labels))
    mnll = float(-np.mean(np.log(np.clip(P[np.arange(n), labels], 1e-300, None))))
    conf = np.max(P, axis=1)
    correct = (pred == labels).astype(float)
    bins = np.clip((conf * 10).astype(int), 0, 9)
    ece = 0.0
    for b in range(10):
        mask = bins == b
        if np.any(mask):
            ece += (np.sum(mask) / n) * abs(
                float(np.mean(correct[mask])) - float(np.mean(conf[mask]))
            )
    return {"accuracy": accuracy, "mnll": mnll, "ece": float(ece)}


def count_metrics(rates, variances, targets):
    """RMSE, Poisson mean negative log-likelihood, and 2-sigma coverage."""
    rates = np.asarray(rates, dtype=float)
    variances = np.asarray(variances, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if rates.shape != targets.shape or variances.shape != rates.shape:
        raise DimensionMismatch("rates, variances, and targets must align")
    if np.any(rates <= 0.0):
        raise NegativeRate("predicted rates must be positive")
    if np.any(targets < 0) or np.any(targets != np.round(targets)):
        raise InvalidParams("targets must be non-negative integers")
    rmse = float(np.sqrt(np.mean((rates - targets) ** 2)))
    # log k! once per distinct count
    counts, which = np.unique(targets.ravel(), return_inverse=True)
    log_fact = np.array([distributions._gammaln(k + 1.0) for k in counts])[which]
    mnll = float(-np.mean(targets * np.log(rates) - rates - log_fact.reshape(targets.shape)))
    in2std = float(np.mean(np.abs(targets - rates) <= 2.0 * np.sqrt(variances)))
    return {"rmse": rmse, "mnll": mnll, "in2std": in2std}
