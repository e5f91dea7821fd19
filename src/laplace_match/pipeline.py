"""End-to-end latent-GP inference through the parameter bridges.

Two algorithm versions share all plumbing. V1 turns each observation (or
inducing cluster) into a pseudo-likelihood in the data domain, bridges it to
a Gaussian, and fits a heteroskedastic GP on the latent coordinates. V2
starts from prior GP marginals, pulls them back to parameters, folds the
data conjugately, and bridges forward again before refitting; with the flat
default prior the two versions coincide.

Latent layout: scalar families use one GP coordinate per input; the simplex
and matrix families expand each input into `width` latent rows (K classes,
or p(p+1)/2 matrix coordinates) tagged by an extra integer input column, and
the bridge covariances enter the GP as block-diagonal noise.
"""

import time

import numpy as np
from scipy.special import gammaln

from . import bridges, distributions, gp, matrixops, transforms
from .errors import (
    DimensionMismatch,
    EmptyDataset,
    IndexOutOfRange,
    InvalidParams,
    LaplaceMatchError,
    NegativeRate,
)
from .gaussian import GaussianApprox

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
        epsilon_a: pseudo-likelihood prior weight (> 0).
        inducing: optional cluster count for the conjugacy-based reduction
            (pseudo-likelihood semantics, so it applies to V1).
        seed: drives sampling and clustering; same seed, same outputs.
        version: "v1" or "v2".
        dirichlet_prior: per-category Dirichlet pseudo-count.
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
        if self.epsilon_a <= 0.0:
            raise InvalidParams("epsilon_a must be positive")
        self.inducing = None if inducing is None else int(inducing)
        self.seed = int(seed)
        if version not in ("v1", "v2"):
            raise InvalidParams("version must be 'v1' or 'v2'")
        self.version = version
        self.dirichlet_prior = float(dirichlet_prior)
        self.draws = int(draws)
        if self.draws < 1:
            raise InvalidParams("draws must be >= 1")

    def resolve_basis(self, Y):
        return gp._resolve_basis(self.family, self.basis, Y)

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


def _gauss_blocks(g, family):
    """Latent mean vector and covariance block from one bridge Gaussian."""
    if family == "dirichlet":
        return g.mean.copy(), g.cov_dense()
    return g.vech_mean(), g.vech_cov()


def _latent_to_gauss(family, mean_block, cov_block, basis):
    """Wrap a latent marginal as a GaussianApprox for lm_inverse."""
    if family == "dirichlet":
        return GaussianApprox(
            mean=mean_block,
            structure="dense",
            data=cov_block,
            domain="simplex",
            centered=False,
        )
    p = basis.p
    mean_mat = matrixops.unvech(mean_block, p)
    return GaussianApprox(
        mean=mean_mat.ravel(),
        structure="dense",
        data=cov_block,
        domain="symmetric_matrix",
        p=p,
    )


# ---------------------------------------------------------------------------
# pseudo-likelihood construction (the LM step)


def _validate_targets(family, Y):
    if not np.all(np.isfinite(Y)):
        raise InvalidParams("targets Y must be finite")
    if family == "beta":
        if Y.ndim != 1 or (Y.size and not np.all(np.isin(Y, (0.0, 1.0)))):
            raise InvalidParams("beta targets must be 0/1 labels")
    elif family == "gamma":
        if Y.ndim != 1 or np.any(Y < 0) or np.any(Y != np.round(Y)):
            raise InvalidParams("gamma targets must be non-negative integer counts")
    elif family == "dirichlet":
        if Y.ndim != 2 or np.any(Y < 0):
            raise InvalidParams("dirichlet targets must be non-negative count vectors")
    elif family == "inverse_wishart":
        if Y.ndim != 3 or Y.shape[-1] != Y.shape[-2]:
            raise InvalidParams("inverse_wishart targets must be (n, p, p) scatters")
    else:
        raise InvalidParams(f"no observation model for family {family!r}")


def _scalar_pseudo_arrays(family, Y, eps):
    if family == "beta":
        return {"alpha": eps + Y, "beta": eps + 1.0 - Y}
    return {"alpha": eps + Y, "lam": np.full(Y.shape, eps + 1.0)}


def _lm_v1(data, config, basis):
    """Per-point pseudo-likelihoods bridged to latent Gaussians."""
    fam = config.family
    eps = config.epsilon_a
    if fam in distributions._SCALAR_FAMILIES:
        fields = _scalar_pseudo_arrays(fam, data.Y, eps)
        return bridges.forward_arrays(fam, basis.tag, **fields)
    if fam == "dirichlet":
        alpha = config.dirichlet_prior + data.Y
        mu, sigma = bridges.dirichlet_softmax_forward_arrays(alpha)
        return mu.ravel(), [sigma[i] for i in range(data.n)]
    prior = distributions.pseudo_prior(fam, eps, p=data.Y.shape[-1])
    mus = []
    blocks = []
    for i in range(data.n):
        theta = distributions.conjugate_update(prior, data.Y[i])
        g = bridges.lm_forward(theta, basis)
        m, c = _gauss_blocks(g, fam)
        mus.append(m)
        blocks.append(c)
    return np.concatenate(mus), blocks


def _prior_marginals(prior_model, config, data, basis, width):
    """Latent prior (mean, cov-block) per training point."""
    n = data.n
    if prior_model is None:
        theta0 = distributions.pseudo_prior(
            config.family,
            config.epsilon_a,
            K=basis.K if config.family == "dirichlet" else None,
            p=basis.p if config.family == "inverse_wishart" else None,
            dirichlet_prior=config.dirichlet_prior,
        )
        g0 = bridges.lm_forward(theta0, basis)
        if width == 1:
            return np.full(n, g0.mu), np.full(n, g0.var)
        m, c = _gauss_blocks(g0, config.family)
        return np.tile(m, n), [c.copy() for _ in range(n)]
    joint = _joint_inputs(data.X, width)
    if width == 1:
        return gp.gp_predict(prior_model, joint)
    mean, cov = gp.gp_predict(prior_model, joint, want_cov=True)
    blocks = [
        cov[i * width : (i + 1) * width, i * width : (i + 1) * width]
        for i in range(n)
    ]
    return mean, blocks


def _lm_v2(data, config, basis, prior_model):
    """Prior marginals -> lm_inverse -> conjugate update -> lm_forward."""
    fam = config.family
    width = _basis_width(basis, fam)
    m0, c0 = _prior_marginals(prior_model, config, data, basis, width)
    if fam in distributions._SCALAR_FAMILIES:
        fields0 = bridges.inverse_arrays(fam, basis.tag, m0, np.asarray(c0))
        # the conjugate fold, applied across the whole batch at once
        if fam == "beta":
            fields = {
                "alpha": fields0["alpha"] + data.Y,
                "beta": fields0["beta"] + 1.0 - data.Y,
            }
        else:
            fields = {"alpha": fields0["alpha"] + data.Y, "lam": fields0["lam"] + 1.0}
        return bridges.forward_arrays(fam, basis.tag, **fields)
    structured = basis.tag == "matrix_sqrt"
    mus = []
    blocks = []
    for i in range(data.n):
        g0 = _latent_to_gauss(fam, m0[i * width : (i + 1) * width], c0[i], basis)
        theta0 = bridges.lm_inverse(g0, fam, basis, structured_sigma=structured)
        theta = distributions.conjugate_update(theta0, data.Y[i])
        g = bridges.lm_forward(theta, basis)
        m, c = _gauss_blocks(g, fam)
        mus.append(m)
        blocks.append(c)
    return np.concatenate(mus), blocks


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


def _query_ef_params(family, basis, mean, cov_blocks, width, m):
    out = []
    structured = basis.tag == "matrix_sqrt"
    for i in range(m):
        try:
            if width == 1:
                theta = bridges.lm_inverse(
                    (float(mean[i]), float(cov_blocks[i])), family, basis
                )
            else:
                g = _latent_to_gauss(
                    family, mean[i * width : (i + 1) * width], cov_blocks[i], basis
                )
                theta = bridges.lm_inverse(g, family, basis, structured_sigma=structured)
        except (LaplaceMatchError, ValueError, np.linalg.LinAlgError):
            theta = None
        out.append(theta)
    return tuple(out)


def _predict(model, config, basis, width, X_query, timings):
    fam = config.family
    Xq = gp._as_inputs(X_query)
    m = Xq.shape[0]
    joint = _joint_inputs(Xq, width)
    t0 = time.perf_counter()
    if width == 1:
        latent_mean, latent_var = gp.gp_predict(model, joint)
        cov_blocks = latent_var
        latent_cov = latent_var
    else:
        latent_mean, cov = gp.gp_predict(model, joint, want_cov=True)
        cov_blocks = [
            cov[i * width : (i + 1) * width, i * width : (i + 1) * width]
            for i in range(m)
        ]
        latent_cov = np.stack(cov_blocks) if m else np.zeros((0, width, width))
    draws = gp.gp_sample(model, joint, seed=config.seed, count=config.draws)
    latent_draws = draws.reshape(config.draws, m, width) if width > 1 else draws
    data_draws = _back_transform(latent_draws, basis, fam)
    timings["predict_seconds"] = time.perf_counter() - t0
    summary = _summarize(data_draws)
    probabilities = None
    rates = None
    if fam in ("beta", "dirichlet"):
        probabilities = summary["mean"]
    elif fam == "gamma":
        rates = summary["mean"]
    ef_params = _query_ef_params(fam, basis, latent_mean, cov_blocks, width, m)
    shaped_mean = latent_mean.reshape(m, width) if width > 1 else latent_mean
    return Prediction(
        family=fam,
        basis=basis,
        X=Xq,
        latent_mean=shaped_mean,
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
    if data.n:
        _validate_targets(config.family, data.Y)
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
    basis = config.resolve_basis(data.Y)
    width = _basis_width(basis, config.family)
    kernel = _build_kernel(config, data.X, width)
    timings = {}
    t0 = time.perf_counter()
    if config.inducing is not None:
        ind = gp.build_inducing_set(
            data,
            config.inducing,
            config.family,
            seed=config.seed,
            epsilon_a=config.epsilon_a,
            basis=basis,
            dirichlet_prior=config.dirichlet_prior,
        )
        parts = [
            _gauss_blocks(g, config.family) if width > 1 else (g.mu, g.var)
            for g in ind.gauss
        ]
        if width > 1:
            mu_flat = np.concatenate([p[0] for p in parts])
            noise = [p[1] for p in parts]
        else:
            mu_flat = np.array([p[0] for p in parts])
            noise = np.array([p[1] for p in parts])
        timings["lm_seconds"] = time.perf_counter() - t0
        X_train = ind.centers
    else:
        mu_flat, noise = (
            _lm_v1(data, config, basis)
            if config.version == "v1"
            else _lm_v2(data, config, basis, prior_model)
        )
        timings["lm_seconds"] = time.perf_counter() - t0
        X_train = data.X
    t1 = time.perf_counter()
    model = gp.gp_fit(kernel, _joint_inputs(X_train, width), mu_flat, noise)
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
# marginals and metrics


def dirichlet_beta_marginals(params, component):
    """Beta marginal of one Dirichlet component: Beta(a_i, sum_{j!=i} a_j)."""
    if params.family != "dirichlet":
        raise InvalidParams("marginals need dirichlet parameters")
    K = params.alpha.size
    if not 0 <= component < K:
        raise IndexOutOfRange(f"component {component} outside [0, {K})")
    a = float(params.alpha[component])
    return distributions.beta(a, float(np.sum(params.alpha)) - a)


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
