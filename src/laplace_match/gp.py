"""Gaussian process regression on bridge-produced pseudo-observations.

The GP layer consumes heteroskedastic Gaussian observations (mu_i, sigma_i)
of latent function values; sigma may be a scalar, per-point variances, or a
dense/block-diagonal covariance. Noise enters training only; predictions are
for the noise-free latent function. The prior mean is zero.

gp_predict returns per-point marginals: variances, or with `width` w the
w x w covariance block of each query point, without forming the joint
covariance. gp_sample is the joint sampler: its draws keep the cross-point
correlation, at the cost of the full covariance and its eigendecomposition.
The pipelines do not use it; their `Prediction.draws` are per-point posterior
draws with no cross-point correlation.

kmeanspp clusters inputs; the pipeline's inducing sites are its clusters.
The module knows nothing of exponential families or bridges.
"""

import numpy as np

from .errors import DimensionMismatch, EmptyCluster, NotPositiveDefinite

_JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)


def _as_inputs(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 0:
        X = X.reshape(1, 1)
    elif X.ndim == 1:
        X = X[:, None]
    elif X.ndim != 2:
        raise DimensionMismatch("inputs must be (n,) or (n, d)")
    return X


def chol_with_jitter(A):
    """Cholesky with an escalating diagonal jitter ladder.

    Tries no jitter, then 1e-10 .. 1e-6 relative to the mean diagonal.
    Returns (L, jitter_used); raises NotPositiveDefinite when the top rung
    fails.
    """
    A = np.asarray(A, dtype=float)
    scale = float(np.mean(np.diag(A))) if A.size else 1.0
    scale = scale if scale > 0.0 else 1.0
    for level in _JITTER_LADDER:
        try:
            L = np.linalg.cholesky(A + level * scale * np.eye(A.shape[0]))
            return L, level * scale
        except np.linalg.LinAlgError:
            continue
    raise NotPositiveDefinite("matrix stayed non-PD through the jitter ladder")


# ---------------------------------------------------------------------------
# kernels


class Kernel:
    """Base kernel; callable as k(X, Z) on (n, d) inputs.

    `dims` restricts a leaf kernel to selected input columns, so products of
    per-coordinate kernels can share one joint input matrix.
    """

    tag = "kernel"

    def __init__(self, dims=None):
        self.dims = None if dims is None else tuple(np.atleast_1d(dims).tolist())

    def _select(self, X):
        X = _as_inputs(X)
        if self.dims is None:
            return X
        return X[:, list(self.dims)]

    def __call__(self, X, Z=None):
        A = self._select(X)
        B = A if Z is None else self._select(Z)
        return self._eval(A, B)

    def _eval(self, A, B):
        raise NotImplementedError

    def __add__(self, other):
        return Sum(self, other)

    def __mul__(self, other):
        return Product(self, other)

    def params(self):
        """Scalar hyperparameters as {name: value} (leaf kernels only)."""
        return {}

    def to_record(self):
        rec = {"kernel": self.tag, **self.params()}
        if self.dims is not None:
            rec["dims"] = list(self.dims)
        return rec


def _sqdist(A, B):
    a2 = np.sum(A**2, axis=1)
    b2 = np.sum(B**2, axis=1)
    return np.maximum(a2[:, None] + b2[None, :] - 2.0 * A @ B.T, 0.0)


class RBF(Kernel):
    """k(x, z) = variance * exp(-||x - z||^2 / (2 lengthscale^2))."""

    tag = "rbf"

    def __init__(self, lengthscale=1.0, variance=1.0, dims=None):
        super().__init__(dims)
        self.lengthscale = float(lengthscale)
        self.variance = float(variance)
        if self.lengthscale <= 0.0 or self.variance <= 0.0:
            raise ValueError("lengthscale and variance must be positive")

    def _eval(self, A, B):
        return self.variance * np.exp(-0.5 * _sqdist(A, B) / self.lengthscale**2)

    def params(self):
        return {"lengthscale": self.lengthscale, "variance": self.variance}


class RationalQuadratic(Kernel):
    """k(x, z) = variance * (1 + ||x - z||^2 / (2 alpha l^2))^(-alpha)."""

    tag = "rational_quadratic"

    def __init__(self, lengthscale=1.0, alpha=1.0, variance=1.0, dims=None):
        super().__init__(dims)
        self.lengthscale = float(lengthscale)
        self.alpha = float(alpha)
        self.variance = float(variance)
        if min(self.lengthscale, self.alpha, self.variance) <= 0.0:
            raise ValueError("lengthscale, alpha, and variance must be positive")

    def _eval(self, A, B):
        base = 1.0 + _sqdist(A, B) / (2.0 * self.alpha * self.lengthscale**2)
        return self.variance * base ** (-self.alpha)

    def params(self):
        return {
            "lengthscale": self.lengthscale,
            "alpha": self.alpha,
            "variance": self.variance,
        }


class Linear(Kernel):
    """k(x, z) = variance * <x, z> + offset."""

    tag = "linear"

    def __init__(self, variance=1.0, offset=0.0, dims=None):
        super().__init__(dims)
        self.variance = float(variance)
        self.offset = float(offset)
        if self.variance <= 0.0 or self.offset < 0.0:
            raise ValueError("variance must be positive and offset non-negative")

    def _eval(self, A, B):
        return self.variance * (A @ B.T) + self.offset

    def params(self):
        return {"variance": self.variance, "offset": self.offset}


class LookupTable(Kernel):
    """Kernel over integer codes: k(x, z) = table[x[dim], z[dim]].

    The table must be symmetric positive semidefinite; inputs in the selected
    column must be integer codes in range.
    """

    tag = "lookup_table"

    def __init__(self, table, dim=0):
        super().__init__(dims=(dim,))
        table = np.asarray(table, dtype=float)
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise DimensionMismatch("lookup table must be square")
        scale = max(np.max(np.abs(table)), 1e-300)
        if np.max(np.abs(table - table.T)) > 1e-10 * scale:
            raise ValueError("lookup table must be symmetric")
        table = 0.5 * (table + table.T)
        w = np.linalg.eigvalsh(table)
        if np.min(w) < -1e-10 * max(np.max(w), 1e-300):
            raise NotPositiveDefinite("lookup table must be positive semidefinite")
        self.table = table

    def _eval(self, A, B):
        ia = np.rint(A[:, 0]).astype(int)
        ib = np.rint(B[:, 0]).astype(int)
        m = self.table.shape[0]
        if np.any((ia < 0) | (ia >= m)) or np.any((ib < 0) | (ib >= m)):
            raise ValueError(f"lookup codes must lie in [0, {m})")
        return self.table[np.ix_(ia, ib)]

    def to_record(self):
        return {"kernel": self.tag, "dim": self.dims[0], "table": self.table.tolist()}


class Sum(Kernel):
    """Elementwise sum of component kernels."""

    tag = "sum"

    def __init__(self, *terms):
        super().__init__(None)
        self.terms = tuple(terms)
        if len(self.terms) < 2:
            raise ValueError("sum kernel needs at least two terms")

    def __call__(self, X, Z=None):
        out = self.terms[0](X, Z)
        for term in self.terms[1:]:
            out = out + term(X, Z)
        return out

    def to_record(self):
        return {"kernel": "sum", "terms": [t.to_record() for t in self.terms]}


class Product(Kernel):
    """Elementwise product of component kernels."""

    tag = "product"

    def __init__(self, *terms):
        super().__init__(None)
        self.terms = tuple(terms)
        if len(self.terms) < 2:
            raise ValueError("product kernel needs at least two terms")

    def __call__(self, X, Z=None):
        out = self.terms[0](X, Z)
        for term in self.terms[1:]:
            out = out * term(X, Z)
        return out

    def to_record(self):
        return {"kernel": "product", "terms": [t.to_record() for t in self.terms]}


def median_lengthscale(X):
    """Median pairwise distance, the documented default RBF lengthscale."""
    X = _as_inputs(X)
    if X.shape[0] < 2:
        return 1.0
    d2 = _sqdist(X, X)
    vals = np.sqrt(d2[np.triu_indices(X.shape[0], k=1)])
    med = float(np.median(vals))
    return med if med > 0.0 else 1.0


# ---------------------------------------------------------------------------
# GP fit / predict / sample


def _coerce_noise(sigma, n):
    """Accept scalar, (n,) variances, (n, n) covariance, or a list or stack
    of square blocks."""
    if (
        isinstance(sigma, (list, tuple)) and len(sigma) and np.ndim(sigma[0]) == 2
    ) or np.ndim(sigma) == 3:
        blocks = [np.asarray(b, dtype=float) for b in sigma]
        total = sum(b.shape[0] for b in blocks)
        if total != n or any(b.shape[0] != b.shape[1] for b in blocks):
            raise DimensionMismatch("noise blocks must be square and cover n rows")
        out = np.zeros((n, n))
        at = 0
        for b in blocks:
            out[at : at + b.shape[0], at : at + b.shape[0]] = b
            at += b.shape[0]
        return out
    arr = np.asarray(sigma, dtype=float)
    if arr.ndim == 2:
        if arr.shape != (n, n):
            raise DimensionMismatch(f"noise covariance must be ({n}, {n})")
        scale = max(np.max(np.abs(arr)), 1e-300)
        if np.max(np.abs(arr - arr.T)) > 1e-9 * scale:
            raise ValueError("noise covariance must be symmetric")
        return 0.5 * (arr + arr.T)
    arr = np.broadcast_to(arr, (n,)).astype(float)
    if np.any(arr < 0.0):
        raise ValueError("observation noise variances must be non-negative")
    return np.diag(arr)


class GPModel:
    """Fitted GP state; immutable after fit."""

    def __init__(self, kernel, X, mu, noise, jitter, state):
        self.kernel = kernel
        self.X = X
        self.mu = mu
        self.noise = noise
        self.jitter = jitter
        self._state = state

    @property
    def n(self):
        return self.X.shape[0]

    def __repr__(self):
        return f"GPModel(n={self.n}, jitter={self.jitter:g})"


def gp_fit(kernel, X, mu, sigma):
    """Fit a GP to Gaussian pseudo-observations.

    Args:
        kernel: covariance function.
        X: inputs, (n,) or (n, d).
        mu: observed latent means, (n,).
        sigma: observation noise, used in training only. Scalar, per-point
            variances (n,), dense covariance (n, n), or a list of square
            blocks laid out along the diagonal.

    An empty dataset returns the prior. Refitting identical inputs is
    bit-identical; the Cholesky jitter actually used is recorded on the
    model.
    """
    X = _as_inputs(X) if np.size(X) else np.zeros((0, 1))
    mu = np.atleast_1d(np.asarray(mu, dtype=float)) if np.size(mu) else np.zeros(0)
    n = X.shape[0]
    if mu.shape != (n,):
        raise DimensionMismatch(f"mu must have shape ({n},)")
    noise = _coerce_noise(sigma, n) if n else np.zeros((0, 0))
    if n == 0:
        return GPModel(kernel, X, mu, noise, 0.0, {})
    K = kernel(X, X)
    L, jitter = chol_with_jitter(K + noise)
    alpha = np.linalg.solve(L.T, np.linalg.solve(L, mu))
    return GPModel(kernel, X, mu, noise, jitter, {"L": L, "alpha": alpha})


def gp_predict(model, Xstar, want_cov=False, width=1):
    """Posterior of the noise-free latent function at new inputs.

    Returns (mean, variances), or (mean, covariance) with want_cov. With
    width w > 1 (and no want_cov) the query rows are read as consecutive
    groups of w, one group per query point as the multi-latent layout lays
    them out, and the second value is the (m, w, w) stack of the groups'
    covariance blocks; the full covariance is never formed. The
    heteroskedastic noise entered the training factor only; nothing is added
    at query points.
    """
    Xs = _as_inputs(Xstar)
    kernel = model.kernel
    blocked = width > 1 and not want_cov
    if blocked:
        if Xs.shape[0] % width:
            raise DimensionMismatch(f"query rows must form groups of {width}")
        groups = Xs.reshape(-1, width, Xs.shape[1])
        prior = np.zeros((groups.shape[0], width, width))
        for i, g in enumerate(groups):
            prior[i] = kernel(g)
    if model.n == 0:
        mean = np.zeros(Xs.shape[0])
        if blocked:
            return mean, _symmetrize(prior)
        cov = kernel(Xs, Xs)
        if want_cov:
            return mean, _symmetrize(cov)
        return mean, np.maximum(np.diag(cov).copy(), 0.0)
    ks = kernel(Xs, model.X)
    mean = ks @ model._state["alpha"]
    v = np.linalg.solve(model._state["L"], ks.T)
    if blocked:
        vb = v.T.reshape(groups.shape[0], width, model.n)
        return mean, _symmetrize(prior - vb @ np.swapaxes(vb, 1, 2))
    if want_cov:
        return mean, _symmetrize(kernel(Xs, Xs) - v.T @ v)
    var = np.diag(kernel(Xs, Xs)) - np.sum(v**2, axis=0)
    return mean, np.maximum(var, 0.0)


def _symmetrize(cov):
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (cov + np.swapaxes(cov, -1, -2))


def _psd_root(cov):
    """Root R with R R^T = cov, of a matrix or of each matrix in a stack.

    eigh-based: exact zeros stay exact, unlike a jittered Cholesky.
    """
    w, U = np.linalg.eigh(_symmetrize(cov))
    return U * np.sqrt(np.maximum(w, 0.0))[..., None, :]


def gp_sample(model, Xstar, seed=0, count=1):
    """Joint posterior draws at Xstar, shape (count, m); seeded."""
    mean, cov = gp_predict(model, Xstar, want_cov=True)
    root = _psd_root(cov)
    rng = np.random.default_rng(seed)
    return mean + rng.standard_normal((count, mean.size)) @ root.T


# ---------------------------------------------------------------------------
# input clustering


def kmeanspp(X, k, seed=0, max_iter=100):
    """k-means++ seeding plus Lloyd iterations (capped).

    An empty cluster is re-seeded at the point farthest from all centers;
    after five failed repair attempts EmptyCluster is raised. Returns
    (centers, assignments, iterations).
    """
    X = _as_inputs(X)
    n = X.shape[0]
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(np.sum(d2))
        if total <= 0.0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))

    assign = None
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        new_assign = np.argmin(_sqdist(X, centers), axis=1)
        for _ in range(5):
            empty = [j for j in range(k) if not np.any(new_assign == j)]
            if not empty:
                break
            for j in empty:
                far = int(np.argmax(np.min(_sqdist(X, centers), axis=1)))
                centers[j] = X[far]
            new_assign = np.argmin(_sqdist(X, centers), axis=1)
        else:
            raise EmptyCluster("could not repair empty clusters after 5 attempts")
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            centers[j] = np.mean(X[assign == j], axis=0)
    return centers, assign, iterations
