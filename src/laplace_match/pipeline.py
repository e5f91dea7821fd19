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

Latent layout: scalar families use one GP coordinate per input; the simplex
and matrix families expand each input into `width` latent rows (K classes,
or p(p+1)/2 matrix coordinates) tagged by an extra integer input column, and
the bridge covariances enter the GP as block-diagonal noise.

Prediction computes the GP posterior once, as per-point marginals (a
variance, or a width x width block per query point). `Prediction.draws` are
per-point posterior draws: each point is drawn from its own marginal, so
draws of different points are uncorrelated; every summary reads them one
point at a time.
"""

import time

import numpy as np
from scipy.special import gammaln

from . import bridges, distributions, gp, matrixops, transforms
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidParams,
    LaplaceMatchError,
    NegativeRate,
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


class LMGPConfig:
    """Pipeline configuration.

    Args:
        family: conjugate family tag (beta, gamma, dirichlet,
            inverse_wishart).
        basis: bridge basis; defaults per family (logit, log,
            softmax_inverse, matrix_log).
        kernel: input-space kernel. Defaults to RBF with the median
            pairwise-distance lengthscale. For the multi-latent families an
            explicitly supplied kernel must address the data columns via
            dims; the default does.
        coord_kernel: latent-coordinate kernel for multi-latent families;
            defaults to a LookupTable of identity plus a uniform 0.5.
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
        basis = bridges._as_basis(basis, K=Y.shape[-1], p=Y.shape[-1])
        size = basis.K if self.family == "dirichlet" else basis.p
        if self.family in ("dirichlet", "inverse_wishart") and size != Y.shape[-1]:
            raise DimensionMismatch(f"basis {basis!r} does not fit targets of size {Y.shape[-1]}")
        return basis

    def replace(self, **updates):
        kw = {
            "family": self.family,
            "basis": self.basis,
            "kernel": self.kernel,
            "coord_kernel": self.coord_kernel,
            "epsilon_a": self.epsilon_a,
            "inducing": self.inducing,
            "seed": self.seed,
            "version": self.version,
            "dirichlet_prior": self.dirichlet_prior,
            "draws": self.draws,
        }
        kw.update(updates)
        return LMGPConfig(**kw)

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
    """Back-transformed posterior summary at the query points."""

    def __init__(self, family, basis, X, latent_mean, latent_cov, draws,
                 summary, ef_params, timings, seed, probabilities=None,
                 rates=None):
        self.family = family
        self.basis = basis
        self.X = X
        self.latent_mean = latent_mean
        self.latent_cov = latent_cov
        self.draws = draws
        self.summary = summary
        self.ef_params = ef_params
        self.timings = timings
        self.seed = seed
        self.probabilities = probabilities
        self.rates = rates

    @property
    def classes(self):
        """Argmax decision per point; ties resolve to the lowest index."""
        if self.probabilities is None:
            return None
        P = self.probabilities
        if P.ndim == 1:
            P = np.column_stack([1.0 - P, P])
        return np.argmax(P, axis=1)

    def to_record(self):
        rec = {
            "family": self.family,
            "basis": str(self.basis),
            "seed": self.seed,
            "n_query": int(self.X.shape[0]),
            "latent_mean": self.latent_mean.tolist(),
            "summary": {k: np.asarray(v).tolist() for k, v in self.summary.items()},
            "timings": dict(self.timings),
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


def _basis_width(basis, family):
    if family in distributions._SCALAR_FAMILIES:
        return 1
    if family == "dirichlet":
        return basis.K
    return basis.p * (basis.p + 1) // 2


def _joint_inputs(X, width):
    if width == 1:
        return X
    n, d = X.shape
    rows = np.repeat(X, width, axis=0)
    coord = np.tile(np.arange(width, dtype=float), n)
    return np.column_stack([rows, coord])


def _build_kernel(config, X, width):
    d = X.shape[1]
    kT = config.kernel
    if kT is None:
        ls = gp.median_lengthscale(X)
        kT = gp.RBF(lengthscale=ls, dims=tuple(range(d)) if width > 1 else None)
    if width == 1:
        return kT
    kC = config.coord_kernel
    if kC is None:
        kC = gp.LookupTable(np.eye(width) + 0.5, dim=d)
    return gp.Product(kT, kC)


# ---------------------------------------------------------------------------
# the LM step: sites -> prior fields -> conjugate fold -> bridge


def _sites(data, config):
    """Training sites as (inputs, summed targets, member counts).

    Without inducing, each training input is a site of one observation;
    with inducing=k, each k-means++ cluster is one site at its center.
    """
    if config.inducing is None:
        return data.X, data.Y, np.ones(data.n)
    k = config.inducing
    # k-means++ cannot fill more clusters than there are distinct inputs
    distinct = np.unique(data.X, axis=0).shape[0]
    if k > distinct:
        raise InvalidParams(f"inducing={k} exceeds the {distinct} distinct training inputs")
    centers, assign, _ = gp.kmeanspp(data.X, k, seed=config.seed)
    total = np.zeros((k,) + data.Y.shape[1:])
    np.add.at(total, assign, data.Y)
    return centers, total, np.bincount(assign, minlength=k).astype(float)


def _prior_fields(config, basis, width, X_sites, prior_model):
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
    mean, cov = gp.gp_predict(prior_model, _joint_inputs(X_sites, width), width=width)
    if width > 1:
        mean = mean.reshape(-1, width)
    return bridges.inverse_arrays(fam, basis.tag, mean, cov)


# ---------------------------------------------------------------------------
# prediction assembly


def _back_transform(latent, basis, family):
    """Latent draws (count, m, width) -> data-domain draws."""
    if family == "inverse_wishart":
        mats = matrixops.unvech(latent, basis.p)
        return transforms.transform_samples(mats, basis, direction="inverse")
    return transforms.transform_samples(latent, basis, direction="inverse")


def _summarize(draws_data):
    mean = np.mean(draws_data, axis=0)
    std = np.std(draws_data, axis=0)
    qs = np.quantile(draws_data, QUANTILES, axis=0)
    summary = {"mean": mean, "std": std}
    for q, row in zip(QUANTILES, qs):
        summary[f"q{int(round(q * 100)):02d}"] = row
    return summary


def _sample_marginals(mean, cov, seed, count):
    """Seeded per-point draws, (count, m) or (count, m, w).

    Each point is drawn from its own marginal: variance (m,) or covariance
    block (m, w, w). Draws of different points are independent.
    """
    z = np.random.default_rng(seed).standard_normal((count,) + mean.shape)
    if mean.ndim == 1:
        return mean + np.sqrt(cov) * z
    return mean + np.einsum("mij,cmj->cmi", gp._psd_root(cov), z, optimize=True)


_EF_ERRORS = (LaplaceMatchError, ValueError, np.linalg.LinAlgError)


def _params_at(family, fields, i):
    return distributions.from_record({"family": family, **{k: v[i] for k, v in fields.items()}})


def _query_ef_params(family, basis, mean, cov):
    """EF parameters per query point; None where the inverse bridge fails.

    Marginals are (mean (m,), var (m,)) or (mean (m, w), blocks (m, w, w)).
    """
    try:
        fields = bridges.inverse_arrays(family, basis.tag, mean, cov)
        return tuple(_params_at(family, fields, i) for i in range(mean.shape[0]))
    except _EF_ERRORS:
        pass  # per point below, so that only the failing points get None
    out = []
    for i in range(mean.shape[0]):
        try:
            fields = bridges.inverse_arrays(family, basis.tag, mean[i : i + 1], cov[i : i + 1])
            out.append(_params_at(family, fields, 0))
        except _EF_ERRORS:
            out.append(None)
    return tuple(out)


def _predict(model, config, basis, width, X_query, timings):
    fam = config.family
    Xq = gp._as_inputs(X_query)
    m = Xq.shape[0]
    t0 = time.perf_counter()
    latent_mean, latent_cov = gp.gp_predict(model, _joint_inputs(Xq, width), width=width)
    if width > 1:
        latent_mean = latent_mean.reshape(m, width)
    latent_draws = _sample_marginals(latent_mean, latent_cov, config.seed, config.draws)
    data_draws = _back_transform(latent_draws, basis, fam)
    timings["predict_seconds"] = time.perf_counter() - t0
    summary = _summarize(data_draws)
    probabilities = None
    rates = None
    if fam in ("beta", "dirichlet"):
        probabilities = summary["mean"]
    elif fam == "gamma":
        rates = summary["mean"]
    ef_params = _query_ef_params(fam, basis, latent_mean, latent_cov)
    return Prediction(
        family=fam,
        basis=basis,
        X=Xq,
        latent_mean=latent_mean,
        latent_cov=latent_cov,
        draws=data_draws,
        summary=summary,
        ef_params=ef_params,
        timings=timings,
        seed=config.seed,
        probabilities=probabilities,
        rates=rates,
    )


def _run(data, config, X_query, prior_model):
    if not isinstance(data, Dataset):
        data = Dataset(*data)
    if data.n == 0:
        if config.version != "v2":
            raise EmptyDataset("pipeline needs at least one observation")
        # posterior equals prior when nothing was observed
        if config.family not in distributions._SCALAR_FAMILIES and not isinstance(
            config.basis, transforms.BasisTransform
        ):
            raise EmptyDataset(
                "empty multi-latent data needs an explicit basis carrying K or p"
            )
        basis = (
            config.basis
            if isinstance(config.basis, transforms.BasisTransform)
            else config.resolve_basis(np.zeros(1))
        )
        width = _basis_width(basis, config.family)
        model = prior_model or gp.gp_fit(_build_kernel(config, data.X, width), [], [], [])
        Xq = data.X if X_query is None else X_query
        return model, _predict(model, config, basis, width, Xq, {"lm_seconds": 0.0})
    distributions.check_observations(config.family, data.Y)
    basis = config.resolve_basis(data.Y)
    width = _basis_width(basis, config.family)
    kernel = _build_kernel(config, data.X, width)
    timings = {}
    t0 = time.perf_counter()
    X_train, total, count = _sites(data, config)
    prior = _prior_fields(config, basis, width, X_train, prior_model)
    fields = distributions.conjugate_fields(config.family, prior, total, count)
    mu, noise = bridges.forward_arrays(config.family, basis.tag, **fields)
    timings["lm_seconds"] = time.perf_counter() - t0
    t1 = time.perf_counter()
    model = gp.gp_fit(kernel, _joint_inputs(X_train, width), mu.ravel(), noise)
    timings["fit_seconds"] = time.perf_counter() - t1
    Xq = data.X if X_query is None else X_query
    return model, _predict(model, config, basis, width, Xq, timings)


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
    mnll = float(-np.mean(targets * np.log(rates) - rates - gammaln(targets + 1.0)))
    in2std = float(np.mean(np.abs(targets - rates) <= 2.0 * np.sqrt(variances)))
    return {"rmse": rmse, "mnll": mnll, "in2std": in2std}
