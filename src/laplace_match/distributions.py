"""Exponential-family parameter types, densities, sampling, and conjugate
updates in the standard basis.

Families: Exponential, Gamma, InverseGamma, ChiSquared, Beta, Dirichlet,
Wishart, InverseWishart. All values are immutable after construction and all
operations are pure functions of (inputs, explicit seed).
"""

import math

import numpy as np

from .errors import InvalidParams, NonConjugatePair, OutOfSupport

# Default pseudo-count for pseudo-likelihood construction; overridable
# everywhere it appears.
DEFAULT_EPSILON_A = 0.01

_SCALAR_FAMILIES = ("exponential", "gamma", "inverse_gamma", "chi_squared", "beta")
FAMILIES = _SCALAR_FAMILIES + ("dirichlet", "wishart", "inverse_wishart")
# Families with an observation model (`check_observations`, `conjugate_fields`).
CONJUGATE_FAMILIES = ("beta", "gamma", "dirichlet", "inverse_wishart")

_FIELDS = {
    "exponential": ("lam",),
    "gamma": ("alpha", "lam"),
    "inverse_gamma": ("alpha", "lam"),
    "chi_squared": ("k",),
    "beta": ("alpha", "beta"),
    "dirichlet": ("alpha",),
    "wishart": ("n", "V"),
    "inverse_wishart": ("nu", "Psi"),
}


def _gammaln(x):
    """log Gamma(x) of a parameter x >= 0 by math.lgamma; inf at the pole 0
    (an underflowed half shape) and above about 2.5e305, as in scipy."""
    try:
        return math.lgamma(x)
    except (ValueError, OverflowError):
        return math.inf


def _multigammaln(a, p):
    """Log of the p-variate gamma function, for a > (p - 1) / 2."""
    return 0.25 * p * (p - 1) * math.log(math.pi) + sum(_gammaln(a - 0.5 * j) for j in range(p))


def _betaln(a, b):
    """log B(a, b) as a difference of log-gammas, so its absolute error is a
    few ulps of lgamma(a + b): 1.7e-8 at (1e8, 1), where that is 1.7e9."""
    return _gammaln(a) + _gammaln(b) - _gammaln(a + b)


def _check_positive_scalar(value, name):
    value = float(value)
    if not np.isfinite(value) or value <= 0.0:
        raise InvalidParams(f"{name} must be a strictly positive real, got {value}")
    return value


def _spd_conditioned(w):
    """Per matrix, from its ascending eigenvalues w (..., p): the smallest
    above 1e-10 of the largest, the bound on a scale matrix. NaN fails."""
    return w[..., 0] > 1e-10 * np.maximum(w[..., -1], 1e-300)


def _check_spd(M, name):
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidParams(f"{name} must be a square matrix, got shape {M.shape}")
    return _check_spd_stack(M[None], name)[0]


def _check_spd_stack(M, name):
    """A stack (count, p, p) of scale matrices, symmetrised, after each
    check runs once on it: finite, symmetric to 1e-12 relative, conditioned
    positive definite. The error is that of the first failing matrix."""
    finite = np.isfinite(M).all(axis=(1, 2))
    Mt = np.swapaxes(M, 1, 2)
    scale = np.maximum(np.max(np.abs(M), axis=(1, 2)), 1e-300)
    with np.errstate(invalid="ignore"):  # inf - inf in a matrix that fails
        sym = np.max(np.abs(M - Mt), axis=(1, 2)) <= 1e-12 * scale
        M = 0.5 * (M + Mt)
    w = np.linalg.eigvalsh(M if finite.all() else np.where(finite[:, None, None], M, 1.0))
    ok = finite & sym & _spd_conditioned(w)
    if not ok.all():
        i = np.argmin(ok)
        rules = ("finite", "symmetric to 1e-12 relative", "positive definite")
        raise InvalidParams(f"{name} must be {rules[int(finite[i]) * (1 + int(sym[i]))]}")
    return M


class EFParams:
    """Tagged union of the eight exponential-family parameter records.

    Instances are produced by the per-family constructors below (or
    `from_record`); all parameters are validated on construction and the
    record is immutable afterwards.
    """

    __slots__ = ("family", "lam", "alpha", "beta", "k", "n", "V", "nu", "Psi")

    def __init__(self, family, **fields):
        if family not in _FIELDS:
            raise InvalidParams(f"unknown family {family!r}")
        object.__setattr__(self, "family", family)
        expected = _FIELDS[family]
        if set(fields) != set(expected):
            raise InvalidParams(f"{family} expects fields {expected}, got {tuple(fields)}")
        for name, value in fields.items():
            if name in ("V", "Psi"):
                value = _check_spd(value, name)
                value.setflags(write=False)
            elif name == "alpha" and family == "dirichlet":
                value = np.asarray(value, dtype=float)
                if value.ndim != 1 or value.size < 2:
                    raise InvalidParams("dirichlet alpha must be a vector with K >= 2")
                if not np.all(np.isfinite(value)) or np.any(value <= 0.0):
                    raise InvalidParams("dirichlet alpha entries must be positive")
                value = value.copy()
                value.setflags(write=False)
            else:
                value = _check_positive_scalar(value, name)
            object.__setattr__(self, name, value)
        if family == "wishart" and self.n <= self.V.shape[0] - 1:
            raise InvalidParams(f"wishart needs n > p-1, got n={self.n}, p={self.V.shape[0]}")
        if family == "inverse_wishart" and self.nu <= self.Psi.shape[0] - 1:
            raise InvalidParams(
                f"inverse_wishart needs nu > p-1, got nu={self.nu}, p={self.Psi.shape[0]}"
            )

    def __setattr__(self, name, value):
        raise AttributeError("EFParams is immutable")

    @property
    def p(self):
        """Matrix dimension for the Wishart families."""
        if self.family == "wishart":
            return self.V.shape[0]
        if self.family == "inverse_wishart":
            return self.Psi.shape[0]
        raise AttributeError(f"{self.family} has no matrix dimension")

    @property
    def K(self):
        """Category count for the Dirichlet family."""
        if self.family != "dirichlet":
            raise AttributeError(f"{self.family} has no category count")
        return int(self.alpha.size)

    def __repr__(self):
        parts = []
        for name in _FIELDS[self.family]:
            value = getattr(self, name)
            if isinstance(value, np.ndarray):
                parts.append(f"{name}={np.array2string(value, precision=6)}")
            else:
                parts.append(f"{name}={value:g}")
        return f"EFParams({self.family}, {', '.join(parts)})"

    def __eq__(self, other):
        if not isinstance(other, EFParams) or self.family != other.family:
            return NotImplemented
        for name in _FIELDS[self.family]:
            a, b = getattr(self, name), getattr(other, name)
            if isinstance(a, np.ndarray):
                if not np.array_equal(a, b):
                    return False
            elif a != b:
                return False
        return True

    def to_record(self):
        """Serialize to a JSON-compatible {family, params...} record."""
        rec = {"family": self.family}
        for name in _FIELDS[self.family]:
            value = getattr(self, name)
            rec[name] = value.tolist() if isinstance(value, np.ndarray) else value
        return rec


def param_fields(family):
    """Ordered parameter field names of a family."""
    if family not in _FIELDS:
        raise InvalidParams(f"unknown family {family!r}")
    return _FIELDS[family]


def from_record(rec):
    """Rebuild an EFParams from a `to_record` dictionary."""
    rec = dict(rec)
    family = rec.pop("family", None)
    if family not in _FIELDS:
        raise InvalidParams(f"record has unknown family {family!r}")
    return EFParams(family, **rec)


def exponential(lam):
    return EFParams("exponential", lam=lam)


def gamma(alpha, lam):
    return EFParams("gamma", alpha=alpha, lam=lam)


def inverse_gamma(alpha, lam):
    return EFParams("inverse_gamma", alpha=alpha, lam=lam)


def chi_squared(k):
    return EFParams("chi_squared", k=k)


def beta(alpha, beta_):
    return EFParams("beta", alpha=alpha, beta=beta_)


def dirichlet(alpha):
    return EFParams("dirichlet", alpha=alpha)


def wishart(n, V):
    return EFParams("wishart", n=n, V=V)


def inverse_wishart(nu, Psi):
    return EFParams("inverse_wishart", nu=nu, Psi=Psi)


# ---------------------------------------------------------------------------
# Support handling
# ---------------------------------------------------------------------------


def _simplex_check(x, K):
    x = np.asarray(x, dtype=float)
    if x.shape[-1] != K:
        raise OutOfSupport(f"expected simplex points of length {K}, got {x.shape}")
    if np.any(x <= 0.0) or np.any(np.abs(np.sum(x, axis=-1) - 1.0) > 1e-9):
        raise OutOfSupport("point is not in the open simplex")
    return x


def _spd_check_batch(x, p):
    x = np.asarray(x, dtype=float)
    if x.shape[-2:] != (p, p):
        raise OutOfSupport(f"expected {p}x{p} matrices, got shape {x.shape}")
    if np.max(np.abs(x - np.swapaxes(x, -1, -2))) > 1e-9 * max(np.max(np.abs(x)), 1e-300):
        raise OutOfSupport("matrix point is not symmetric")
    w = np.linalg.eigvalsh(x)
    if np.any(w <= 0.0):
        raise OutOfSupport("matrix point is not positive definite")
    return 0.5 * (x + np.swapaxes(x, -1, -2))


def log_pdf(params, x):
    """Log-density of `params` at `x` (vectorized over leading axes).

    Args:
        params: EFParams.
        x: point strictly inside the family's support; scalar families accept
            arrays, Dirichlet accepts (..., K), Wisharts accept (..., p, p).

    Returns:
        Log-density value(s).

    Raises:
        OutOfSupport: any evaluation point violates the support.
    """
    fam = params.family
    if fam in _SCALAR_FAMILIES:
        x = np.asarray(x, dtype=float)
        if fam == "beta":
            if np.any(x <= 0.0) or np.any(x >= 1.0):
                raise OutOfSupport("beta support is the open unit interval")
        elif np.any(x <= 0.0):
            raise OutOfSupport(f"{fam} support is the positive reals")
    if fam == "exponential":
        return np.log(params.lam) - params.lam * x
    if fam == "gamma":
        a, lam = params.alpha, params.lam
        return a * np.log(lam) - _gammaln(a) + (a - 1.0) * np.log(x) - lam * x
    if fam == "inverse_gamma":
        a, lam = params.alpha, params.lam
        return a * np.log(lam) - _gammaln(a) - (a + 1.0) * np.log(x) - lam / x
    if fam == "chi_squared":
        h = 0.5 * params.k
        return -h * np.log(2.0) - _gammaln(h) + (h - 1.0) * np.log(x) - 0.5 * x
    if fam == "beta":
        a, b = params.alpha, params.beta
        return -_betaln(a, b) + (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x)
    if fam == "dirichlet":
        a = params.alpha
        x = _simplex_check(x, a.size)
        norm = _gammaln(np.sum(a)) - sum(map(_gammaln, a))
        return norm + np.sum((a - 1.0) * np.log(x), axis=-1)
    if fam == "wishart":
        n, V, p = params.n, params.V, params.p
        x = _spd_check_batch(x, p)
        _, logdet_x = np.linalg.slogdet(x)
        _, logdet_v = np.linalg.slogdet(V)
        Vinv = np.linalg.inv(V)
        tr = np.einsum("ij,...ji->...", Vinv, x)
        const = -0.5 * n * p * np.log(2.0) - 0.5 * n * logdet_v - _multigammaln(0.5 * n, p)
        return const + 0.5 * (n - p - 1.0) * logdet_x - 0.5 * tr
    if fam == "inverse_wishart":
        nu, Psi, p = params.nu, params.Psi, params.p
        x = _spd_check_batch(x, p)
        _, logdet_x = np.linalg.slogdet(x)
        _, logdet_psi = np.linalg.slogdet(Psi)
        xinv = np.linalg.inv(x)
        tr = np.einsum("ij,...ji->...", Psi, xinv)
        const = 0.5 * nu * logdet_psi - 0.5 * nu * p * np.log(2.0) - _multigammaln(0.5 * nu, p)
        return const - 0.5 * (nu + p + 1.0) * logdet_x - 0.5 * tr
    raise InvalidParams(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------


def _bartlett_factors(rng, n, p, count):
    """Bartlett factors (count, p, p) of Wishart draws with n dof, drawn
    row by row: sqrt(chi-square(n - i)) at (i, i), then the normals left."""
    A = np.zeros((count, p, p))
    for i in range(p):
        A[:, i, i] = np.sqrt(rng.chisquare(n - i, size=count))
        for j in range(i):
            A[:, i, j] = rng.standard_normal(count)
    return A


def _bartlett(L, A):
    """Wishart draws (L A)(L A)^T, symmetrised, from scale Cholesky factors
    L and Bartlett factors A; stacks broadcast, each product as alone."""
    T = L @ A
    S = T @ np.swapaxes(T, -1, -2)
    return 0.5 * (S + np.swapaxes(S, -1, -2))


def sample(params, seed, count):
    """Deterministic sampler for every family.

    Args:
        params: EFParams.
        seed: 64-bit integer seed (or numpy SeedSequence material).
        count: number of draws, >= 1.

    Returns:
        Array of draws: (count,) for scalar families, (count, K) for the
        Dirichlet, (count, p, p) for the Wishart families.
    """
    count = int(count)
    if count < 1:
        raise InvalidParams("count must be >= 1")
    rng = np.random.default_rng(seed)
    fam = params.family
    if fam == "exponential":
        return rng.exponential(1.0 / params.lam, size=count)
    if fam == "gamma":
        return rng.gamma(params.alpha, 1.0 / params.lam, size=count)
    if fam == "inverse_gamma":
        return 1.0 / rng.gamma(params.alpha, 1.0 / params.lam, size=count)
    if fam == "chi_squared":
        return rng.chisquare(params.k, size=count)
    if fam == "beta":
        return rng.beta(params.alpha, params.beta, size=count)
    if fam == "dirichlet":
        # Normalized independent Gamma draws.
        g = rng.gamma(params.alpha, 1.0, size=(count, params.alpha.size))
        return g / np.sum(g, axis=-1, keepdims=True)
    if fam == "wishart":
        A = _bartlett_factors(rng, params.n, params.p, count)
        return _bartlett(np.linalg.cholesky(params.V), A)
    if fam == "inverse_wishart":
        A = _bartlett_factors(rng, params.nu, params.p, count)
        W = _bartlett(np.linalg.cholesky(np.linalg.inv(params.Psi)), A)
        X = np.linalg.inv(W)
        return 0.5 * (X + np.swapaxes(X, -1, -2))
    raise InvalidParams(f"unknown family {fam!r}")


# ---------------------------------------------------------------------------
# Conjugate updates
# ---------------------------------------------------------------------------


def pseudo_prior(family, epsilon_a=DEFAULT_EPSILON_A, K=None, p=None, dirichlet_prior=1.0):
    """Weak conjugate prior used to build pseudo-likelihoods.

    Beta and Gamma get epsilon_a on each component. Dirichlet gets the
    pseudo-count `dirichlet_prior` on every category (count data can be all
    zero, so the prior must keep alpha positive on its own). InverseWishart
    gets nu = p - 1 + epsilon_a and Psi = epsilon_a*I, the smallest
    epsilon-shifted dof that is still a valid parameter.

    Args:
        family: conjugate family tag.
        epsilon_a: positive prior weight.
        K: category count, required for dirichlet.
        p: matrix dimension, required for inverse_wishart.
        dirichlet_prior: per-category Dirichlet pseudo-count.
    """
    if epsilon_a <= 0.0:
        raise InvalidParams("epsilon_a must be positive")
    if family == "beta":
        return beta(epsilon_a, epsilon_a)
    if family == "gamma":
        return gamma(epsilon_a, epsilon_a)
    if family == "dirichlet":
        if K is None:
            raise InvalidParams("dirichlet pseudo-prior needs K")
        return dirichlet(np.full(int(K), float(dirichlet_prior)))
    if family == "inverse_wishart":
        if p is None:
            raise InvalidParams("inverse_wishart pseudo-prior needs p")
        return inverse_wishart(p - 1.0 + epsilon_a, epsilon_a * np.eye(int(p)))
    raise NonConjugatePair(f"no conjugate observation model for family {family!r}")


def check_observations(family, Y):
    """Raise InvalidParams unless `Y` is a batch of `family` observations.

    One observation per leading index: 0/1 labels (n,) for beta, non-negative
    integer counts (n,) for gamma, non-negative count vectors (n, K) for
    dirichlet, and symmetric PSD scatter matrices (n, p, p) for
    inverse_wishart, each checked against its own largest entry.
    """
    Y = np.asarray(Y, dtype=float)
    if not np.all(np.isfinite(Y)):
        raise InvalidParams("observations must be finite")
    if family == "beta":
        if Y.ndim != 1 or not np.all(np.isin(Y, (0.0, 1.0))):
            raise InvalidParams("beta observations must be 0/1 labels")
    elif family == "gamma":
        if Y.ndim != 1 or np.any(Y < 0) or np.any(Y != np.round(Y)):
            raise InvalidParams("gamma observations must be non-negative integer counts")
    elif family == "dirichlet":
        if Y.ndim != 2 or np.any(Y < 0):
            raise InvalidParams("dirichlet observations must be non-negative count vectors")
    elif family == "inverse_wishart":
        if Y.ndim != 3 or Y.shape[-1] != Y.shape[-2]:
            raise InvalidParams("inverse_wishart observations must be (n, p, p) scatters")
        if Y.size:
            scale = np.maximum(np.max(np.abs(Y), axis=(-2, -1)), 1e-300)
            asym = np.max(np.abs(Y - np.swapaxes(Y, -1, -2)), axis=(-2, -1))
            if np.any(asym > 1e-9 * scale):
                raise InvalidParams("scatter matrices must be symmetric")
            w = np.linalg.eigvalsh(0.5 * (Y + np.swapaxes(Y, -1, -2)))
            if np.any(w[:, 0] < -1e-10 * scale):
                raise InvalidParams("scatter matrices must be positive semidefinite")
    else:
        raise NonConjugatePair(f"no conjugate observation model for family {family!r}")


def conjugate_fields(family, fields, total, count):
    """Fold data into conjugate prior parameter fields, as arrays.

    `total` is the summed sufficient statistic of `count` observations (the
    label or count sum, the summed count vector, or the summed scatter).
    Arrays broadcast, so one call folds every site of a batch. The beta
    failure count is formed first: `beta + count - total` rounds to 0 for an
    all-ones batch once beta is below ~1e-16.
    """
    if family == "beta":
        return {"alpha": fields["alpha"] + total, "beta": fields["beta"] + (count - total)}
    if family == "gamma":
        return {"alpha": fields["alpha"] + total, "lam": fields["lam"] + count}
    if family == "dirichlet":
        return {"alpha": fields["alpha"] + total}
    if family == "inverse_wishart":
        return {"nu": fields["nu"] + count, "Psi": fields["Psi"] + total}
    raise NonConjugatePair(f"no conjugate observation model for family {family!r}")
