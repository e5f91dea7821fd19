"""Basis transformations and transformed densities.

A basis transformation g maps the support of an exponential-family
distribution to a latent space where the Laplace approximation is taken.
`push_forward` builds the transformed density on working coordinates:

  * scalar families: the latent line (dim 1),
  * Dirichlet: the (K-1)-coordinate chart of the centered hyperplane
    (softmax basis) or of the simplex (identity basis),
  * Wishart / inverse Wishart: half-vectorized symmetric coordinates.

Each TransformedDensity carries two callables. `log_density` is the exact
normalized pushforward (it integrates to one and is what Monte Carlo
diagnostics evaluate). `log_objective` is the function whose mode and
curvature define the matched Gaussian; for matrix bases it drops the
cross-eigenvalue measure factors, which is the convention the closed-form
bridges correspond to. For all other bases the two coincide.
"""

import numpy as np
from scipy.special import gammaln, log_expit, logsumexp, multigammaln

from . import distributions, matrixops
from .errors import (
    DirectionUnavailable,
    IncompatibleBasis,
    NonConvergence,
    NoValidLaplace,
    OutOfSupport,
)
from .gaussian import GaussianApprox

_EPS = np.finfo(float).eps

_SCALAR_POSITIVE = ("exponential", "gamma", "inverse_gamma", "chi_squared")

# The family -> basis catalogue. The identity basis comes first; the rest are
# the closed-form bridge rows, and the first of those is the pipelines'
# default basis.
FAMILY_BASES = {
    "exponential": ("identity", "log", "sqrt"),
    "gamma": ("identity", "log", "sqrt"),
    "inverse_gamma": ("identity", "log", "sqrt"),
    "chi_squared": ("identity", "log", "sqrt"),
    "beta": ("identity", "logit"),
    "dirichlet": ("identity", "softmax_inverse"),
    "wishart": ("identity", "matrix_log", "matrix_sqrt"),
    "inverse_wishart": ("identity", "matrix_log", "matrix_sqrt"),
}

BASIS_TAGS = (
    "identity",
    "log",
    "sqrt",
    "logit",
    "softmax_inverse",
    "matrix_log",
    "matrix_sqrt",
)


class BasisTransform:
    """A named basis map with optional size parameters (K or p)."""

    __slots__ = ("tag", "K", "p")

    def __init__(self, tag, K=None, p=None):
        if tag not in BASIS_TAGS:
            raise ValueError(f"unknown basis tag {tag!r}")
        if tag == "softmax_inverse":
            if K is None or int(K) < 2:
                raise ValueError("softmax_inverse needs K >= 2")
            K = int(K)
        elif K is not None:
            raise ValueError(f"basis {tag!r} takes no K")
        if tag in ("matrix_log", "matrix_sqrt"):
            if p is None or int(p) < 1:
                raise ValueError(f"{tag} needs p >= 1")
            p = int(p)
        elif p is not None:
            raise ValueError(f"basis {tag!r} takes no p")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("BasisTransform is immutable")

    def __eq__(self, other):
        if not isinstance(other, BasisTransform):
            return NotImplemented
        return (self.tag, self.K, self.p) == (other.tag, other.K, other.p)

    def __hash__(self):
        return hash((self.tag, self.K, self.p))

    def __repr__(self):
        if self.tag == "softmax_inverse":
            return f"SoftmaxInverse{{{self.K}}}"
        if self.tag == "matrix_log":
            return f"MatrixLog{{{self.p}}}"
        if self.tag == "matrix_sqrt":
            return f"MatrixSqrt{{{self.p}}}"
        return self.tag.capitalize()


IDENTITY = BasisTransform("identity")
LOG = BasisTransform("log")
SQRT = BasisTransform("sqrt")
LOGIT = BasisTransform("logit")


def softmax_inverse(K):
    return BasisTransform("softmax_inverse", K=K)


def matrix_log(p):
    return BasisTransform("matrix_log", p=p)


def matrix_sqrt(p):
    return BasisTransform("matrix_sqrt", p=p)


def check_basis(family, basis, size):
    """Raise IncompatibleBasis unless `basis` is defined for `family` and its
    K or p, where it has one, equals `size` (the K or p of the parameters or
    of the Gaussian it is applied to)."""
    if basis.tag not in FAMILY_BASES[family]:
        raise IncompatibleBasis(f"basis {basis!r} is not defined for {family}")
    sized = basis.K or basis.p
    if sized is not None and sized != size:
        raise IncompatibleBasis(f"basis {basis!r} does not fit size {size}")


# ---------------------------------------------------------------------------
# sample-level maps


def _batched_funm(X, fn, what):
    """Apply fn to the eigenvalues of symmetric positive definite X (...,p,p)."""
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise OutOfSupport(f"{what} needs square matrices")
    sym_err = np.max(np.abs(X - np.swapaxes(X, -1, -2)))
    if not np.isfinite(sym_err) or sym_err > 1e-8 * max(1.0, np.max(np.abs(X))):
        raise OutOfSupport(f"{what} needs symmetric matrices")
    w, U = np.linalg.eigh(0.5 * (X + np.swapaxes(X, -1, -2)))
    if fn in (np.log, np.sqrt) and np.min(w) <= 0.0:
        raise OutOfSupport(f"{what} needs positive definite matrices")
    Y = (U * fn(w)[..., None, :]) @ np.swapaxes(U, -1, -2)
    return 0.5 * (Y + np.swapaxes(Y, -1, -2))


def transform_samples(samples, basis, direction="forward", pseudo_inverse=False):
    """Map samples through a basis.

    `direction="forward"` maps support points to latent coordinates,
    `"inverse"` maps latent points back to the support. The softmax basis has
    no exact forward map; pass `pseudo_inverse=True` to use the centered
    log map, otherwise DirectionUnavailable is raised. The square-root
    inverse squares its input, so negative latent draws fold onto the
    positive branch.
    """
    if direction not in ("forward", "inverse"):
        raise ValueError("direction must be 'forward' or 'inverse'")
    x = np.asarray(samples, dtype=float)
    tag = basis.tag
    if tag == "identity":
        return x.copy()
    if tag == "log":
        if direction == "forward":
            if np.any(x <= 0.0):
                raise OutOfSupport("log basis needs positive samples")
            return np.log(x)
        return np.exp(x)
    if tag == "sqrt":
        if direction == "forward":
            if np.any(x < 0.0):
                raise OutOfSupport("sqrt basis needs nonnegative samples")
            return np.sqrt(x)
        return np.square(x)
    if tag == "logit":
        if direction == "forward":
            if np.any(x <= 0.0) or np.any(x >= 1.0):
                raise OutOfSupport("logit basis needs samples in (0, 1)")
            return np.log(x) - np.log1p(-x)
        return 0.5 * (1.0 + np.tanh(0.5 * x))
    if tag == "softmax_inverse":
        K = basis.K
        if direction == "forward":
            if not pseudo_inverse:
                raise DirectionUnavailable(
                    "softmax has no exact inverse; pass pseudo_inverse=True "
                    "for the centered log map"
                )
            if x.shape[-1] != K:
                raise OutOfSupport(f"expected simplex points with K={K}")
            if np.any(x <= 0.0):
                raise OutOfSupport("simplex points must be strictly positive")
            if np.max(np.abs(np.sum(x, axis=-1) - 1.0)) > 1e-6:
                raise OutOfSupport("simplex points must sum to one")
            lx = np.log(x)
            return lx - np.mean(lx, axis=-1, keepdims=True)
        if x.shape[-1] == K - 1:
            x = np.concatenate([x, -np.sum(x, axis=-1, keepdims=True)], axis=-1)
        elif x.shape[-1] != K:
            raise OutOfSupport(f"expected latent vectors of length {K} or {K - 1}")
        return np.exp(x - logsumexp(x, axis=-1, keepdims=True))
    if tag == "matrix_log":
        if direction == "forward":
            return _batched_funm(x, np.log, "matrix log")
        return _batched_funm(x, np.exp, "matrix exp")
    if tag == "matrix_sqrt":
        if direction == "forward":
            return _batched_funm(x, np.sqrt, "matrix sqrt")
        return _batched_funm(x, np.square, "matrix square")
    raise ValueError(f"unknown basis tag {tag!r}")


# ---------------------------------------------------------------------------
# transformed densities


class TransformedDensity:
    """A pushforward density on working latent coordinates."""

    __slots__ = (
        "params",
        "basis",
        "dim",
        "_log_density",
        "_log_objective",
        "_in_domain",
        "_boundary_distance",
        "_initial_point",
    )

    def __init__(self, params, basis, dim, log_density, log_objective, in_domain,
                 boundary_distance, initial_point):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "_log_density", log_density)
        object.__setattr__(self, "_log_objective", log_objective)
        object.__setattr__(self, "_in_domain", in_domain)
        object.__setattr__(self, "_boundary_distance", boundary_distance)
        object.__setattr__(self, "_initial_point", initial_point)

    def __setattr__(self, name, value):
        raise AttributeError("TransformedDensity is immutable")

    @property
    def family(self):
        return self.params.family

    def _coerce(self, z):
        z = np.asarray(z, dtype=float)
        if self.dim == 1:
            return z, z.shape
        if z.ndim == 0 or z.shape[-1] != self.dim:
            raise OutOfSupport(f"expected points with last axis {self.dim}")
        return z, z.shape[:-1]

    def log_density(self, z):
        """Exact normalized log pushforward density at z."""
        z, shape = self._coerce(z)
        out = self._log_density(np.atleast_1d(z) if self.dim == 1 else z)
        return out.reshape(shape) if shape else float(out.reshape(-1)[0])

    def log_objective(self, z):
        """Log objective whose Laplace approximation the bridges match."""
        z, shape = self._coerce(z)
        out = self._log_objective(np.atleast_1d(z) if self.dim == 1 else z)
        return out.reshape(shape) if shape else float(out.reshape(-1)[0])

    def in_domain(self, z):
        z, shape = self._coerce(z)
        out = self._in_domain(np.atleast_1d(z) if self.dim == 1 else z)
        return out.reshape(shape) if shape else bool(out.reshape(-1)[0])

    def boundary_distance(self, z):
        """Distance from z to the domain boundary (inf when unbounded)."""
        z, _ = self._coerce(z)
        return float(self._boundary_distance(z))

    def initial_point(self):
        """A point comfortably inside the domain, near the bulk of the mass."""
        return np.atleast_1d(np.asarray(self._initial_point(), dtype=float)).copy()

    def __repr__(self):
        return f"TransformedDensity({self.family}, {self.basis!r}, dim={self.dim})"


def _log_sinhc(t):
    """log(sinh(t)/t) for t >= 0, stable for tiny and large t."""
    t = np.abs(t)
    small = t < 1e-4
    ts = np.where(small, 1.0, t)
    big = ts + np.log1p(-np.exp(-2.0 * ts)) - np.log(2.0 * ts)
    return np.where(small, t * t / 6.0, big)


def _log_divdiff_exp(a, b):
    """log((e^a - e^b) / (a - b)), continuous at a == b."""
    return 0.5 * (a + b) + _log_sinhc(0.5 * (a - b))


def _masked(mask, values):
    out = np.full(mask.shape, -np.inf)
    out[mask] = values
    return out


def _scalar_positive_density(params, tag):
    fam = params.family
    if tag == "identity":

        def logdens(z):
            mask = np.isfinite(z) & (z > 0.0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return _masked(mask, distributions.log_pdf(params, z[mask]))

        in_domain = lambda z: np.isfinite(z) & (z > 0.0)
        boundary = lambda z: float(np.min(z))
    elif tag == "log":
        # substitute x = e^z and add the Jacobian term z in closed form
        if fam == "exponential":
            lam = params.lam
            c = np.log(lam)
            body = lambda z: c + z - lam * np.exp(z)
        elif fam == "gamma":
            a, lam = params.alpha, params.lam
            c = a * np.log(lam) - gammaln(a)
            body = lambda z: c + a * z - lam * np.exp(z)
        elif fam == "inverse_gamma":
            a, lam = params.alpha, params.lam
            c = a * np.log(lam) - gammaln(a)
            body = lambda z: c - a * z - lam * np.exp(-z)
        else:
            k = params.k
            c = -0.5 * k * np.log(2.0) - gammaln(0.5 * k)
            body = lambda z: c + 0.5 * k * z - 0.5 * np.exp(z)

        def logdens(z):
            mask = np.isfinite(z)
            with np.errstate(over="ignore"):
                out = _masked(mask, body(z[mask]))
            return np.where(np.isnan(out), -np.inf, out)

        in_domain = lambda z: np.isfinite(z)
        boundary = lambda z: np.inf
    elif tag == "sqrt":
        # substitute x = z^2 on z > 0 and add log(2z); log z collected once
        log2 = np.log(2.0)
        if fam == "exponential":
            lam = params.lam
            c = np.log(lam) + log2
            body = lambda z: c + np.log(z) - lam * z * z
        elif fam == "gamma":
            a, lam = params.alpha, params.lam
            c = a * np.log(lam) - gammaln(a) + log2
            body = lambda z: c + (2.0 * a - 1.0) * np.log(z) - lam * z * z
        elif fam == "inverse_gamma":
            a, lam = params.alpha, params.lam
            c = a * np.log(lam) - gammaln(a) + log2
            body = lambda z: c - (2.0 * a + 1.0) * np.log(z) - lam / (z * z)
        else:
            k = params.k
            c = (1.0 - 0.5 * k) * np.log(2.0) - gammaln(0.5 * k)
            body = lambda z: c + (k - 1.0) * np.log(z) - 0.5 * z * z

        def logdens(z):
            mask = np.isfinite(z) & (z > 0.0)
            with np.errstate(divide="ignore", over="ignore"):
                return _masked(mask, body(z[mask]))

        in_domain = lambda z: np.isfinite(z) & (z > 0.0)
        boundary = lambda z: float(np.min(z))
    else:
        raise IncompatibleBasis(f"{fam} does not support basis {tag!r}")

    centers = {
        "exponential": lambda: 1.0 / params.lam,
        "gamma": lambda: params.alpha / params.lam,
        "inverse_gamma": lambda: params.lam / (params.alpha + 1.0),
        "chi_squared": lambda: params.k,
    }
    x0 = centers[fam]()
    init = {"identity": x0, "log": np.log(x0), "sqrt": np.sqrt(x0)}[tag]
    return logdens, logdens, in_domain, boundary, lambda: np.array([init])


def _beta_density(params, tag):
    a, b = params.alpha, params.beta
    logB = gammaln(a) + gammaln(b) - gammaln(a + b)
    if tag == "identity":

        def logdens(z):
            mask = np.isfinite(z) & (z > 0.0) & (z < 1.0)
            zv = z[mask]
            with np.errstate(divide="ignore"):
                vals = (a - 1.0) * np.log(zv) + (b - 1.0) * np.log1p(-zv) - logB
            return _masked(mask, vals)

        in_domain = lambda z: np.isfinite(z) & (z > 0.0) & (z < 1.0)
        boundary = lambda z: float(min(np.min(z), np.min(1.0 - z)))
        init = a / (a + b)
    elif tag == "logit":

        def logdens(z):
            mask = np.isfinite(z)
            zv = z[mask]
            return _masked(mask, a * log_expit(zv) + b * log_expit(-zv) - logB)

        in_domain = lambda z: np.isfinite(z)
        boundary = lambda z: np.inf
        init = np.log(a) - np.log(b)
    else:
        raise IncompatibleBasis(f"beta does not support basis {tag!r}")
    return logdens, logdens, in_domain, boundary, lambda: np.array([init])


def _dirichlet_density(params, tag):
    alpha = params.alpha
    K = alpha.size
    logB = np.sum(gammaln(alpha)) - gammaln(np.sum(alpha))

    if tag == "identity":
        # chart u = y_{1:K-1}; the density w.r.t. Lebesgue on the chart is
        # the standard Dirichlet density
        def logdens(u):
            last = 1.0 - np.sum(u, axis=-1)
            mask = np.all(np.isfinite(u), axis=-1) & np.all(u > 0.0, axis=-1) & (last > 0.0)
            uv = u[mask]
            lv = last[mask]
            with np.errstate(divide="ignore"):
                vals = (
                    np.sum((alpha[:-1] - 1.0) * np.log(uv), axis=-1)
                    + (alpha[-1] - 1.0) * np.log(lv)
                    - logB
                )
            return _masked(mask, vals)

        def in_domain(u):
            last = 1.0 - np.sum(u, axis=-1)
            return np.all(np.isfinite(u), axis=-1) & np.all(u > 0.0, axis=-1) & (last > 0.0)

        def boundary(u):
            return float(min(np.min(u), 1.0 - np.sum(u)))

        init = lambda: (alpha / np.sum(alpha))[:-1]
    elif tag == "softmax_inverse":
        # chart u = x_{1:K-1} on the centered hyperplane, x_K = -sum(u);
        # y = softmax(x); density picks up log K + sum_k log y_k
        logK = np.log(K)

        def logdens(u):
            x = np.concatenate([u, -np.sum(u, axis=-1, keepdims=True)], axis=-1)
            logy = x - logsumexp(x, axis=-1, keepdims=True)
            mask = np.all(np.isfinite(u), axis=-1)
            vals = np.sum(alpha * logy, axis=-1) - logB + logK
            return np.where(mask, vals, -np.inf)

        in_domain = lambda u: np.all(np.isfinite(u), axis=-1)
        boundary = lambda u: np.inf
        la = np.log(alpha)
        init = lambda: (la - np.mean(la))[:-1]
    else:
        raise IncompatibleBasis(f"dirichlet does not support basis {tag!r}")
    return logdens, logdens, in_domain, boundary, init


def _matrix_density(params, tag):
    fam = params.family
    p = params.p
    d = p * (p + 1) // 2
    pairs = matrixops.vech_pairs(p)
    cross_pairs = [(i, j) for i, j in pairs if i < j]

    if fam == "wishart":
        n, V = params.n, params.V
        Vinv = np.linalg.inv(V)
        logZ = (
            -0.5 * n * p * np.log(2.0)
            - 0.5 * n * np.linalg.slogdet(V)[1]
            - multigammaln(0.5 * n, p)
        )
    else:
        nu, Psi = params.nu, params.Psi
        logZ = (
            0.5 * nu * np.linalg.slogdet(Psi)[1]
            - 0.5 * nu * p * np.log(2.0)
            - multigammaln(0.5 * nu, p)
        )

    def eig(z):
        Y = matrixops.unvech(z, p)
        w, U = np.linalg.eigh(Y)
        return Y, w, U

    def trace_with(A, w, U, fw):
        # tr(A @ U diag(fw) U^T) without forming the full product
        M = (U * fw[..., None, :]) @ np.swapaxes(U, -1, -2)
        return np.einsum("ij,...ji->...", A, M)

    if tag == "identity":

        def objective(z):
            Y, w, U = eig(z)
            mask = np.all(np.isfinite(w), axis=-1) & (np.min(w, axis=-1) > 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                logdet = np.sum(np.log(np.where(w > 0.0, w, 1.0)), axis=-1)
                if fam == "wishart":
                    vals = (
                        0.5 * (n - p - 1.0) * logdet
                        - 0.5 * np.einsum("ij,...ji->...", Vinv, Y)
                        + logZ
                    )
                else:
                    winv = np.where(w > 0.0, 1.0 / np.where(w > 0.0, w, 1.0), 0.0)
                    vals = (
                        -0.5 * (nu + p + 1.0) * logdet
                        - 0.5 * trace_with(Psi, w, U, winv)
                        + logZ
                    )
            return np.where(mask, vals, -np.inf)

        density = objective
        in_domain = lambda z: np.min(np.linalg.eigvalsh(matrixops.unvech(z, p)), axis=-1) > 0.0
        boundary = lambda z: float(np.min(np.linalg.eigvalsh(matrixops.unvech(z, p))))
        if fam == "wishart":
            X0 = n * V
        else:
            X0 = Psi / (nu + p + 1.0)
        init = lambda: matrixops.vech(X0)
    elif tag == "matrix_log":

        def objective(z):
            Y, w, U = eig(z)
            tr = np.einsum("...ii->...", Y)
            with np.errstate(over="ignore"):
                if fam == "wishart":
                    vals = 0.5 * (n - p + 1.0) * tr - 0.5 * trace_with(Vinv, w, U, np.exp(w)) + logZ
                else:
                    vals = (
                        -0.5 * (nu + p - 1.0) * tr
                        - 0.5 * trace_with(Psi, w, U, np.exp(-w))
                        + logZ
                    )
            return np.where(np.isfinite(vals), vals, -np.inf)

        def density(z):
            base = objective(z)
            _, w, _ = eig(z)
            for i, j in cross_pairs:
                base = base + _log_divdiff_exp(w[..., i], w[..., j])
            return base

        in_domain = lambda z: np.all(np.isfinite(np.atleast_1d(z)), axis=-1)
        boundary = lambda z: np.inf
        if fam == "wishart":
            Y0 = matrixops.spd_funm(n * V, "logm")
        else:
            Y0 = matrixops.spd_funm(Psi / (nu + p + 1.0), "logm")
        init = lambda: matrixops.vech(Y0)
    elif tag == "matrix_sqrt":

        def objective(z):
            Y, w, U = eig(z)
            mask = np.all(np.isfinite(w), axis=-1) & (np.min(w, axis=-1) > 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                logdet = np.sum(np.log(np.where(w > 0.0, w, 1.0)), axis=-1)
                if fam == "wishart":
                    vals = (
                        (n - p) * logdet
                        - 0.5 * np.einsum("ij,...ji->...", Vinv, Y @ Y)
                        + logZ
                        + p * np.log(2.0)
                    )
                else:
                    winv2 = np.where(w > 0.0, 1.0 / np.where(w > 0.0, w * w, 1.0), 0.0)
                    vals = (
                        -(nu + p) * logdet
                        - 0.5 * trace_with(Psi, w, U, winv2)
                        + logZ
                        + p * np.log(2.0)
                    )
            return np.where(mask, vals, -np.inf)

        def density(z):
            base = objective(z)
            _, w, _ = eig(z)
            with np.errstate(divide="ignore", invalid="ignore"):
                for i, j in cross_pairs:
                    s = w[..., i] + w[..., j]
                    base = base + np.where(s > 0.0, np.log(np.where(s > 0.0, s, 1.0)), -np.inf)
            return np.where(np.isnan(base), -np.inf, base)

        in_domain = lambda z: np.min(np.linalg.eigvalsh(matrixops.unvech(z, p)), axis=-1) > 0.0
        boundary = lambda z: float(np.min(np.linalg.eigvalsh(matrixops.unvech(z, p))))
        if fam == "wishart":
            Y0 = matrixops.spd_funm(n * V, "sqrtm")
        else:
            Y0 = matrixops.spd_funm(Psi / (nu + p + 1.0), "sqrtm")
        init = lambda: matrixops.vech(Y0)
    else:
        raise IncompatibleBasis(f"{fam} does not support basis {tag!r}")
    return density, objective, in_domain, boundary, init, d


def push_forward(params, basis):
    """Build the TransformedDensity of `params` under `basis`."""
    fam = params.family
    check_basis(fam, basis, getattr(params, "K", None) or getattr(params, "p", None))

    if fam in _SCALAR_POSITIVE:
        logdens, logobj, in_dom, bdry, init = _scalar_positive_density(params, basis.tag)
        dim = 1
    elif fam == "beta":
        logdens, logobj, in_dom, bdry, init = _beta_density(params, basis.tag)
        dim = 1
    elif fam == "dirichlet":
        logdens, logobj, in_dom, bdry, init = _dirichlet_density(params, basis.tag)
        dim = params.K - 1
    else:
        logdens, logobj, in_dom, bdry, init, dim = _matrix_density(params, basis.tag)

    return TransformedDensity(params, basis, dim, logdens, logobj, in_dom, bdry, init)


# ---------------------------------------------------------------------------
# numeric Laplace oracle


def _objective_fn(density):
    def f(z):
        val = np.asarray(density.log_objective(z)).reshape(-1)[0]
        return float(val) if np.isfinite(val) else -np.inf

    return f


def _fd_gradient(f, z, what="gradient"):
    d = z.size
    g = np.zeros(d)
    for i in range(d):
        h = _EPS ** (1.0 / 3.0) * (1.0 + abs(z[i]))
        for _ in range(60):
            e = np.zeros(d)
            e[i] = h
            fp, fm = f(z + e), f(z - e)
            if np.isfinite(fp) and np.isfinite(fm):
                g[i] = (fp - fm) / (2.0 * h)
                break
            h *= 0.5
        else:
            raise NoValidLaplace(f"{what} not evaluable near the domain boundary")
    return g


def _fd_hessian(f, z, steps=None):
    d = z.size
    H = np.zeros((d, d))
    if steps is None:
        steps = [4.0 * _EPS**0.25 * (1.0 + abs(z[i])) for i in range(d)]
    f0 = f(z)
    for i in range(d):
        h = steps[i]
        for _ in range(40):
            e = np.zeros(d)
            e[i] = h
            fp, fm = f(z + e), f(z - e)
            if np.isfinite(fp) and np.isfinite(fm):
                H[i, i] = (fp - 2.0 * f0 + fm) / (h * h)
                break
            h *= 0.5
        else:
            raise NoValidLaplace("Hessian not evaluable near the domain boundary")
    for i in range(d):
        for j in range(i + 1, d):
            hi, hj = steps[i], steps[j]
            for _ in range(40):
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[i] = hi
                ej[j] = hj
                fpp = f(z + ei + ej)
                fpm = f(z + ei - ej)
                fmp = f(z - ei + ej)
                fmm = f(z - ei - ej)
                if all(np.isfinite(v) for v in (fpp, fpm, fmp, fmm)):
                    H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * hi * hj)
                    break
                hi *= 0.5
                hj *= 0.5
            else:
                raise NoValidLaplace("Hessian not evaluable near the domain boundary")
    return H


def _fd_hessian_refined(f, z):
    """Hessian with curvature-scaled steps and Richardson extrapolation.

    A first pass estimates the per-coordinate curvature; steps are then set
    relative to the local standard deviation rather than the coordinate
    magnitude, and a two-step Richardson combination removes the leading
    truncation error.
    """
    rough = _fd_hessian(f, z)
    diag = np.abs(np.diag(rough))
    sigma = 1.0 / np.sqrt(np.maximum(diag, 1e-12))
    base = [4.0 * _EPS**0.25 * (1.0 + abs(z[i])) for i in range(z.size)]
    # extrapolation removes the h^2 truncation term, so the step can sit
    # well above the bare-roundoff optimum
    steps = np.clip(4.0 * _EPS**0.2 * sigma, 1e-3 * np.asarray(base), 1e3 * np.asarray(base))
    H1 = _fd_hessian(f, z, steps=list(steps))
    H2 = _fd_hessian(f, z, steps=list(0.5 * steps))
    return (4.0 * H2 - H1) / 3.0


def numeric_laplace(density, init=None, tolerance=1e-8, max_iter=500):
    """Laplace approximation of `density.log_objective` by damped Newton.

    Derivatives are central finite differences; the convergence test floors
    the gradient tolerance at the finite-difference noise level. A mode on
    the domain boundary or an indefinite Hessian raises NoValidLaplace.
    """
    f = _objective_fn(density)
    z = np.atleast_1d(np.asarray(
        density.initial_point() if init is None else init, dtype=float
    )).copy()
    if z.shape != (density.dim,):
        raise OutOfSupport(f"init must have shape ({density.dim},)")
    if not np.isfinite(f(z)):
        raise OutOfSupport("init is outside the transformed domain")

    z0_scale = 1.0 + float(np.linalg.norm(z))
    boundary_tol = 1e-8 * z0_scale

    def near_boundary(point):
        return density.boundary_distance(point) <= boundary_tol

    converged = False
    for _ in range(max_iter):
        fval = f(z)
        g = _fd_gradient(f, z)
        noise = 25.0 * _EPS ** (2.0 / 3.0) * (1.0 + abs(fval)) * np.sqrt(z.size)
        if np.linalg.norm(g) <= max(tolerance, noise):
            converged = True
            break
        H = _fd_hessian(f, z)
        eigs = np.linalg.eigvalsh(H)
        if eigs[-1] < 0.0:
            step = -np.linalg.solve(H, g)
        else:
            scale = max(np.max(np.abs(eigs)), 1.0)
            step = g / scale
        t = 1.0
        z_new = None
        while t > 1e-14:
            cand = z + t * step
            if f(cand) > fval:
                z_new = cand
                break
            t *= 0.5
        if z_new is None:
            # no ascent in this direction; accept the point if the gradient
            # is already at the noise scale, otherwise try plain gradient
            if np.linalg.norm(g) <= 1e3 * max(tolerance, noise):
                converged = True
                break
            step = g / max(np.linalg.norm(g), 1.0)
            t = 1.0
            while t > 1e-14:
                cand = z + t * step
                if f(cand) > fval:
                    z_new = cand
                    break
                t *= 0.5
            if z_new is None:
                if near_boundary(z):
                    raise NoValidLaplace("mode lies on the domain boundary")
                raise NonConvergence("line search stalled away from a stationary point")
        if near_boundary(z_new):
            raise NoValidLaplace("mode lies on the domain boundary")
        if np.linalg.norm(z_new - z) <= 1e-12 * (1.0 + np.linalg.norm(z)):
            z = z_new
            converged = True
            break
        z = z_new
    if not converged:
        if near_boundary(z):
            raise NoValidLaplace("mode lies on the domain boundary")
        raise NonConvergence(f"no convergence in {max_iter} iterations")

    H = _fd_hessian_refined(f, z)
    H = 0.5 * (H + H.T)
    eigs = np.linalg.eigvalsh(H)
    if eigs[-1] >= -1e-12 * max(1.0, abs(eigs[0])):
        raise NoValidLaplace("Hessian at the mode is not negative definite")
    cov = np.linalg.inv(-H)
    cov = 0.5 * (cov + cov.T)
    if z.size == 1:
        return GaussianApprox(z, "scalar", float(cov[0, 0]), domain="scalar")
    return GaussianApprox(z, "dense", cov, domain="vector")
