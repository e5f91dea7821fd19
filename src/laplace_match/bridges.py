"""Closed-form Laplace bridges between exponential-family parameters and
Gaussians in transformed bases.

Each bridge row is a (family, basis) pair with a forward map
theta -> (mu, Sigma) equal to the Laplace approximation of the transformed
density, and the corresponding inverse. Scalar rows and the matrix log rows
are bijective; the Dirichlet softmax row uses a pseudo-inverse (exact on
bridge images), and the matrix sqrt inverses need `structured_sigma=True`
because a generic covariance underdetermines them.

The identity basis is not a bridge row; `lm_forward` with the identity basis
routes to `standard_laplace`, the Laplace approximation in the original
parametrization, which exists only on part of parameter space.
"""

import numpy as np

from . import distributions, matrixops
from .errors import (
    DomainMismatch,
    IncompatibleBasis,
    NonInvertibleBridge,
    NoValidLaplace,
    OutsideValidityRegion,
)
from .gaussian import GaussianApprox, scalar_gaussian
from .transforms import FAMILY_BASES, BasisTransform


def _as_basis(basis, K=None, p=None):
    if isinstance(basis, BasisTransform):
        return basis
    if isinstance(basis, str):
        if basis == "softmax_inverse":
            return BasisTransform(basis, K=K)
        if basis in ("matrix_log", "matrix_sqrt"):
            return BasisTransform(basis, p=p)
        return BasisTransform(basis)
    raise TypeError("basis must be a BasisTransform or a tag string")


def _basis_for(params, basis):
    """`basis` resolved against the K or p of `params`."""
    return _as_basis(basis, K=getattr(params, "K", None), p=getattr(params, "p", None))


# ---------------------------------------------------------------------------
# scalar rows


def _row(validity, valid, fwd, inv):
    return {"validity": validity, "valid": valid, "fwd": fwd, "inv": inv}


def _inv_check(cond, message):
    if not np.all(cond):
        raise DomainMismatch(message)


def _positive(*fields):
    """Elementwise: every field finite and > 0."""
    ok = True
    for value in fields:
        value = np.asarray(value, dtype=float)
        ok = ok & np.isfinite(value) & (value > 0.0)
    return ok


_SCALAR_ROWS = {
    ("exponential", "log"): _row(
        "all lambda > 0",
        lambda lam: _positive(lam),
        lambda lam: (-np.log(lam), np.ones_like(np.asarray(lam, dtype=float))),
        lambda mu, var: {"lam": np.exp(-mu)},
    ),
    ("exponential", "sqrt"): _row(
        "all lambda > 0",
        lambda lam: _positive(lam),
        lambda lam: (np.sqrt(0.5 / lam), 0.25 / lam),
        lambda mu, var: (
            _inv_check(mu > 0.0, "sqrt image has positive mean"),
            {"lam": 0.5 / (mu * mu)},
        )[1],
    ),
    ("gamma", "log"): _row(
        "all alpha, lambda > 0",
        lambda alpha, lam: _positive(alpha, lam),
        lambda alpha, lam: (np.log(alpha / lam), 1.0 / alpha),
        lambda mu, var: {"alpha": 1.0 / var, "lam": np.exp(-mu) / var},
    ),
    ("gamma", "sqrt"): _row(
        "alpha > 1/2",
        lambda alpha, lam: _positive(alpha, lam) & (np.asarray(alpha, dtype=float) > 0.5),
        lambda alpha, lam: (np.sqrt((alpha - 0.5) / lam), 0.25 / lam),
        lambda mu, var: (
            _inv_check(mu > 0.0, "sqrt image has positive mean"),
            {"lam": 0.25 / var, "alpha": mu * mu / (4.0 * var) + 0.5},
        )[1],
    ),
    ("inverse_gamma", "log"): _row(
        "all alpha, lambda > 0",
        lambda alpha, lam: _positive(alpha, lam),
        lambda alpha, lam: (np.log(lam / alpha), 1.0 / alpha),
        lambda mu, var: {"alpha": 1.0 / var, "lam": np.exp(mu) / var},
    ),
    ("inverse_gamma", "sqrt"): _row(
        "all alpha, lambda > 0",
        lambda alpha, lam: _positive(alpha, lam),
        lambda alpha, lam: (
            np.sqrt(lam / (alpha + 0.5)),
            lam / (4.0 * (alpha + 0.5) ** 2),
        ),
        lambda mu, var: (
            _inv_check(mu * mu > 2.0 * var, "image needs mu^2 > 2 var"),
            {"alpha": mu * mu / (4.0 * var) - 0.5, "lam": mu**4 / (4.0 * var)},
        )[1],
    ),
    ("chi_squared", "log"): _row(
        "all k > 0",
        lambda k: _positive(k),
        lambda k: (np.log(k), 2.0 / k),
        lambda mu, var: {"k": np.exp(mu)},
    ),
    ("chi_squared", "sqrt"): _row(
        "k > 1",
        lambda k: _positive(k) & (np.asarray(k, dtype=float) > 1.0),
        lambda k: (np.sqrt(k - 1.0), np.full(np.shape(np.asarray(k, dtype=float)), 0.5)),
        lambda mu, var: (
            _inv_check(mu > 0.0, "sqrt image has positive mean"),
            {"k": mu * mu + 1.0},
        )[1],
    ),
    ("beta", "logit"): _row(
        "all alpha, beta > 0",
        lambda alpha, beta: _positive(alpha, beta),
        lambda alpha, beta: (
            np.log(alpha / beta),
            (alpha + beta) / (alpha * beta),
        ),
        lambda mu, var: {
            "alpha": (np.exp(mu) + 1.0) / var,
            "beta": (np.exp(-mu) + 1.0) / var,
        },
    ),
}

def _params_arrays(params):
    fields = distributions.param_fields(params.family)
    return {name: getattr(params, name) for name in fields}


# ---------------------------------------------------------------------------
# Dirichlet softmax row


def dirichlet_softmax_forward_arrays(alpha):
    """Batched softmax-basis bridge for Dirichlet: alpha (..., K) -> mu, Sigma."""
    alpha = np.asarray(alpha, dtype=float)
    K = alpha.shape[-1]
    la = np.log(alpha)
    mu = la - np.mean(la, axis=-1, keepdims=True)
    inv = 1.0 / alpha
    s = np.sum(inv, axis=-1, keepdims=True)
    sigma = inv[..., :, None] * np.eye(K)
    pairwise = (inv[..., :, None] + inv[..., None, :]) / K
    sigma = sigma - pairwise + (s[..., None] / (K * K))
    return mu, sigma


def dirichlet_softmax_inverse_arrays(mu, sigma_diag):
    """Pseudo-inverse of the softmax bridge from mean and diagonal of Sigma."""
    mu = np.asarray(mu, dtype=float)
    sigma_diag = np.asarray(sigma_diag, dtype=float)
    K = mu.shape[-1]
    s = np.sum(np.exp(-mu), axis=-1, keepdims=True)
    alpha = (1.0 - 2.0 / K + np.exp(mu) * s / (K * K)) / sigma_diag
    return alpha


# ---------------------------------------------------------------------------
# matrix rows


def _dof_offset(family, tag):
    # latent precision constant c as an offset from the degrees of freedom
    return {
        ("wishart", "identity"): lambda n, p: n - p - 1.0,
        ("wishart", "matrix_log"): lambda n, p: n - p + 1.0,
        ("wishart", "matrix_sqrt"): lambda n, p: n - p,
        ("inverse_wishart", "identity"): lambda nu, p: nu + p + 1.0,
        ("inverse_wishart", "matrix_log"): lambda nu, p: nu + p - 1.0,
        ("inverse_wishart", "matrix_sqrt"): lambda nu, p: nu + p,
    }[(family, tag)]


def _log_divdiff(a, b):
    """(log a - log b) / (a - b) for a, b > 0, stable as a -> b."""
    delta = a - b
    small = np.abs(delta) <= 1e-12 * np.maximum(a, b)
    safe = np.where(small, 1.0, delta)
    return np.where(small, 2.0 / (a + b), np.log1p(np.where(small, 0.0, delta) / b) / safe)


def _pair_offdiag_var(family, tag, li, lj, c):
    """Latent variance of the (i, j) eigen-pair coordinate, i != j."""
    if tag == "identity":
        if family == "wishart":
            return c * li * lj
        return li * lj / c**3
    if tag == "matrix_log":
        dd = _log_divdiff(li, lj)
        return li * lj * dd * dd / c
    # matrix_sqrt
    denom = (np.sqrt(li) + np.sqrt(lj)) ** 2
    if family == "wishart":
        return li * lj / denom
    return li * lj / (c * c * denom)


def _matrix_mode_eigs(family, tag, w, c):
    if family == "wishart":
        scaled = c * w
    else:
        scaled = w / c
    if tag == "identity":
        return scaled
    if tag == "matrix_log":
        return np.log(scaled)
    return np.sqrt(scaled)


def _matrix_forward(params, tag):
    fam = params.family
    p = params.p
    if fam == "wishart":
        dof, scale = params.n, params.V
        if tag == "identity" and not dof > p + 1.0:
            raise NoValidLaplace(f"wishart identity Laplace needs n > p + 1 (got n={dof}, p={p})")
        if tag == "matrix_sqrt" and not dof > p:
            raise OutsideValidityRegion(
                f"wishart sqrt bridge needs n > p (got n={dof}, p={p})"
            )
    else:
        dof, scale = params.nu, params.Psi
    c = _dof_offset(fam, tag)(dof, p)
    w, U = np.linalg.eigh(scale)
    M = (U * _matrix_mode_eigs(fam, tag, w, c)[None, :]) @ U.T
    M = 0.5 * (M + M.T)
    isotropic = (w[-1] - w[0]) <= 1e-12 * w[-1]
    if isotropic:
        var = 2.0 * _pair_offdiag_var(fam, tag, w[0], w[0], c)
        return GaussianApprox(M.reshape(-1), "scaled_identity", var,
                              domain="symmetric_matrix", p=p)
    pairs = matrixops.vech_pairs(p)
    v = np.array(
        [
            (2.0 if i == j else 1.0) * _pair_offdiag_var(fam, tag, w[i], w[j], c)
            for i, j in pairs
        ]
    )
    T = np.column_stack(
        [
            matrixops.vech(
                np.outer(U[:, i], U[:, i])
                if i == j
                else np.outer(U[:, i], U[:, j]) + np.outer(U[:, j], U[:, i])
            )
            for i, j in pairs
        ]
    )
    S = T @ (v[:, None] * T.T)
    return GaussianApprox(M.reshape(-1), "dense", 0.5 * (S + S.T),
                          domain="symmetric_matrix", p=p)


def _rotated_diag_variances(g, U):
    """Variances of (U^T Z U)_ii under the latent covariance of g."""
    if g.structure == "scaled_identity":
        return np.full(g.p, float(g.data))
    S = g.vech_cov()
    pairs = matrixops.vech_pairs(g.p)
    out = np.zeros(g.p)
    for i in range(g.p):
        B = np.outer(U[:, i], U[:, i])
        wvec = np.array([(2.0 if a < b else 1.0) * B[a, b] for a, b in pairs])
        out[i] = float(wvec @ S @ wvec)
    return out


def _matrix_inverse(g, family, tag, structured_sigma):
    if g.domain != "symmetric_matrix":
        raise DomainMismatch("matrix bridge inverse needs a symmetric_matrix Gaussian")
    p = g.p
    M = g.mean_matrix()
    if tag == "matrix_log":
        # diagonal variances read in the eigenbasis of the latent mean, where
        # the bridge covariance is exactly 2/c on diagonal coordinates
        _, U = np.linalg.eigh(M)
        diag_vars = _rotated_diag_variances(g, U)
        c = 2.0 / float(np.mean(diag_vars))
        X = matrixops.spd_funm(M, "expm")
        if family == "wishart":
            n = c + p - 1.0
            return distributions.wishart(n, X / c)
        nu = c - p + 1.0
        if not nu > p - 1.0:
            raise DomainMismatch(
                f"recovered nu={nu} is not above p - 1; covariance too wide"
            )
        return distributions.inverse_wishart(nu, c * X)
    # matrix_sqrt
    if not structured_sigma:
        raise NonInvertibleBridge(
            "the matrix sqrt inverse needs structured_sigma=True: a generic "
            "covariance underdetermines the parameters"
        )
    w, U = np.linalg.eigh(M)
    if np.min(w) <= 0.0:
        raise DomainMismatch("sqrt-basis mean must be positive definite")
    diag_vars = _rotated_diag_variances(g, U)
    c = float(np.mean(w * w / (2.0 * diag_vars)))
    M2 = M @ M
    M2 = 0.5 * (M2 + M2.T)
    if family == "wishart":
        return distributions.wishart(c + p, M2 / c)
    nu = c - p
    if not nu > p - 1.0:
        raise DomainMismatch(f"recovered nu={nu} is not above p - 1; covariance too wide")
    return distributions.inverse_wishart(nu, c * M2)


# ---------------------------------------------------------------------------
# public API


def bridge_rows():
    """All bridge rows as (family, basis tag) pairs, matrix sizes elided."""
    return [
        (family, tag)
        for family in distributions.FAMILIES
        for tag in FAMILY_BASES[family][1:]
    ]


def bridge_table():
    """Machine-readable description of every bridge row."""
    table = []
    for family, tag in bridge_rows():
        if (family, tag) in _SCALAR_ROWS:
            latent = "scalar"
            validity = _SCALAR_ROWS[(family, tag)]["validity"]
        elif tag == "softmax_inverse":
            latent = "centered vector (K)"
            validity = "all alpha > 0"
        else:
            latent = "symmetric matrix (vech)"
            validity = {
                ("wishart", "matrix_log"): "n > p - 1",
                ("wishart", "matrix_sqrt"): "n > p",
                ("inverse_wishart", "matrix_log"): "nu > p - 1",
                ("inverse_wishart", "matrix_sqrt"): "nu > p - 1",
            }[(family, tag)]
        table.append(
            {
                "family": family,
                "basis": tag,
                "latent": latent,
                "validity": validity,
                "bijective": tag != "softmax_inverse",
                "needs_structured_sigma": tag == "matrix_sqrt",
            }
        )
    return table


def bridge_valid(params, basis):
    """Whether `params` lies in the validity region of the bridge row."""
    basis = _basis_for(params, basis)
    if basis.tag == "identity":
        return standard_valid(params)
    if basis.tag not in FAMILY_BASES[params.family][1:]:
        raise IncompatibleBasis(f"no bridge row for ({params.family}, {basis!r})")
    key = (params.family, basis.tag)
    if key in _SCALAR_ROWS:
        arrays = _params_arrays(params)
        return bool(np.all(_SCALAR_ROWS[key]["valid"](**arrays)))
    if key == ("wishart", "matrix_sqrt"):
        return bool(params.n > params.p)
    return True


def standard_valid(params):
    """Whether the standard-basis Laplace approximation exists."""
    fam = params.family
    if fam == "exponential":
        return False
    if fam == "gamma":
        return bool(params.alpha > 1.0)
    if fam == "inverse_gamma":
        return True
    if fam == "chi_squared":
        return bool(params.k > 2.0)
    if fam == "beta":
        return bool(params.alpha > 1.0 and params.beta > 1.0)
    if fam == "dirichlet":
        return bool(np.all(params.alpha > 1.0))
    if fam == "wishart":
        return bool(params.n > params.p + 1.0)
    return True


def standard_laplace(params):
    """Laplace approximation in the original parametrization."""
    fam = params.family
    if fam == "exponential":
        raise NoValidLaplace("the exponential density has no interior mode")
    if fam == "gamma":
        a, lam = params.alpha, params.lam
        if not a > 1.0:
            raise NoValidLaplace(f"gamma identity Laplace needs alpha > 1 (got {a})")
        return scalar_gaussian((a - 1.0) / lam, (a - 1.0) / lam**2)
    if fam == "inverse_gamma":
        a, lam = params.alpha, params.lam
        return scalar_gaussian(lam / (a + 1.0), lam**2 / (a + 1.0) ** 3)
    if fam == "chi_squared":
        k = params.k
        if not k > 2.0:
            raise NoValidLaplace(f"chi-squared identity Laplace needs k > 2 (got {k})")
        return scalar_gaussian(k - 2.0, 2.0 * (k - 2.0))
    if fam == "beta":
        a, b = params.alpha, params.beta
        if not (a > 1.0 and b > 1.0):
            raise NoValidLaplace(
                f"beta identity Laplace needs alpha > 1 and beta > 1 (got {a}, {b})"
            )
        s = a + b - 2.0
        return scalar_gaussian((a - 1.0) / s, (a - 1.0) * (b - 1.0) / s**3)
    if fam == "dirichlet":
        a = params.alpha
        if not np.all(a > 1.0):
            raise NoValidLaplace("dirichlet identity Laplace needs all alpha > 1")
        s = np.sum(a) - a.size
        return GaussianApprox(
            (a - 1.0) / s, "diagonal", (a - 1.0) / s**2, domain="simplex", centered=False
        )
    return _matrix_forward(params, "identity")


def lm_forward(params, basis):
    """Map parameters to the matched Gaussian in the given basis."""
    basis = _basis_for(params, basis)
    fam = params.family
    if basis.tag == "identity":
        return standard_laplace(params)
    if basis.tag not in FAMILY_BASES[fam][1:]:
        raise IncompatibleBasis(f"no bridge row for ({fam}, {basis!r})")
    key = (fam, basis.tag)
    if key in _SCALAR_ROWS:
        mu, var = forward_arrays(fam, basis.tag, **_params_arrays(params))
        return scalar_gaussian(float(mu), float(var))
    if basis.tag == "softmax_inverse":
        if basis.K != params.K:
            raise IncompatibleBasis(
                f"softmax basis has K={basis.K} but the Dirichlet has K={params.K}"
            )
        mu, sigma = dirichlet_softmax_forward_arrays(params.alpha)
        return GaussianApprox(mu, "dense", sigma, domain="simplex", centered=True)
    if basis.p != params.p:
        raise IncompatibleBasis(
            f"matrix basis has p={basis.p} but the distribution has p={params.p}"
        )
    return _matrix_forward(params, basis.tag)


def forward_arrays(family, tag, **arrays):
    """Vectorized scalar bridge forward: parameter arrays -> (mu, var).

    Raises OutsideValidityRegion for fields outside the row's validity
    region, or whose mean or variance is not finite (or the variance not
    positive) in floating point.
    """
    key = (family, tag)
    if key not in _SCALAR_ROWS:
        raise IncompatibleBasis(f"no vectorized scalar bridge row for {key}")
    row = _SCALAR_ROWS[key]
    arrays = {k: np.asarray(v, dtype=float) for k, v in arrays.items()}
    ok = row["valid"](**arrays)
    if not np.all(ok):
        raise OutsideValidityRegion(
            f"({family}, {tag}) bridge needs {row['validity']}: "
            f"{int(np.sum(~ok))} points outside"
        )
    # valid but extreme fields overflow the formula (or underflow a product)
    with np.errstate(all="ignore"):
        mu, var = row["fwd"](**arrays)
    if not (np.isfinite(mu).all() and np.isfinite(var).all() and (var > 0.0).all()):
        raise OutsideValidityRegion(
            f"({family}, {tag}) bridge: the fields map outside finite means and "
            "positive finite variances"
        )
    return mu, var


def inverse_arrays(family, tag, mu, var):
    """Vectorized scalar bridge inverse: (mu, var) arrays -> parameter arrays."""
    key = (family, tag)
    if key not in _SCALAR_ROWS:
        raise IncompatibleBasis(f"no vectorized scalar bridge row for {key}")
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    # array methods, not np.all/np.any: lm_inverse calls this once per scalar
    # Gaussian, where the dispatch overhead of np.all dominates
    if not (np.isfinite(mu).all() and np.isfinite(var).all()):
        raise DomainMismatch("means and variances must be finite")
    if (var <= 0.0).any():
        raise DomainMismatch("variances must be positive")
    # extreme but finite means overflow to inf (or underflow to 0) parameters
    with np.errstate(over="ignore"):
        fields = _SCALAR_ROWS[key]["inv"](mu, var)
    for value in fields.values():
        if not ((value > 0.0).all() and (value < np.inf).all()):
            raise DomainMismatch("the Gaussian maps outside the finite positive parameters")
    return fields


def lm_inverse(g, family, basis, structured_sigma=False):
    """Map a Gaussian back to exponential-family parameters."""
    if isinstance(g, tuple):
        g = scalar_gaussian(*g)
    basis = _as_basis(basis, K=g.mean.size, p=g.p)
    if family not in distributions.FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    if basis.tag == "identity":
        raise NonInvertibleBridge(
            "the identity basis is not a bridge row; the standard-basis "
            "Laplace approximation has no parameter inverse here"
        )
    if basis.tag not in FAMILY_BASES[family][1:]:
        raise IncompatibleBasis(f"no bridge row for ({family}, {basis!r})")
    key = (family, basis.tag)
    if key in _SCALAR_ROWS:
        if g.mean.size != 1:
            raise DomainMismatch("scalar bridge inverse needs a one-dimensional Gaussian")
        fields = inverse_arrays(family, basis.tag, g.mu, g.var)
        return distributions.from_record(
            {"family": family, **{k: float(v) for k, v in fields.items()}}
        )
    if basis.tag == "softmax_inverse":
        if g.domain not in ("simplex", "vector"):
            raise DomainMismatch("softmax inverse needs a simplex-domain Gaussian")
        mu = g.mean
        diag = g.cov_diagonal()
        if np.any(diag <= 0.0):
            raise DomainMismatch("covariance diagonal must be positive")
        alpha = dirichlet_softmax_inverse_arrays(mu, diag)
        if np.any(alpha <= 0.0):
            raise DomainMismatch("Gaussian is too wide to correspond to a Dirichlet")
        return distributions.dirichlet(alpha)
    return _matrix_inverse(g, family, basis.tag, structured_sigma)
