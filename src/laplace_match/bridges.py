"""Closed-form Laplace bridges between exponential-family parameters and
Gaussians in transformed bases.

`_ROWS` is the one table of bridge rows: nine scalar rows, the Dirichlet
softmax row and four Wishart/inverse-Wishart matrix rows. Each row holds its
validity text, a validity predicate over parameter field arrays, a forward
map theta -> (mu, Sigma) over stacked fields, equal to the Laplace
approximation of the transformed density, and the inverse over stacked
latents. `forward_arrays` and `inverse_arrays` serve every row. The latents
are (n,) means and variances for the scalar rows, centered means (n, K) with
covariances (n, K, K) for the softmax row, and for the matrix rows
half-vectorized means (n, d) with vech covariances (n, d, d), d = p(p+1)/2,
from one batched eigendecomposition per call.

`lm_forward` and `lm_inverse` are one-item wrappers that convert EFParams and
GaussianApprox to and from those arrays. A matrix `lm_forward` returns a
dense vech covariance, for isotropic scales too.

Scalar rows and the matrix log rows are bijective; the Dirichlet softmax row
uses a pseudo-inverse (exact on bridge images). The matrix sqrt inverses
read the covariance as the bridge's structured form, which a generic
covariance underdetermines, so `lm_inverse` asks for `structured_sigma=True`.

The identity basis is not a bridge row; `lm_forward` with the identity basis
routes to `standard_laplace`, the Laplace approximation in the original
parametrization, which exists only on part of parameter space.
"""

import numpy as np

from . import distributions, matrixops, transforms
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
    """`basis` resolved against the K or p of `params`; IncompatibleBasis
    where the family has no such basis or the sizes differ."""
    K, p = getattr(params, "K", None), getattr(params, "p", None)
    basis = _as_basis(basis, K=K, p=p)
    transforms.check_basis(params.family, basis, K or p)
    return basis


def _row(validity, valid, fwd, inv):
    return {"validity": validity, "valid": valid, "fwd": fwd, "inv": inv}


def _matrix_row(family, tag, validity, low):
    return _row(
        validity,
        lambda dof, scale: _matrix_valid(dof, scale, low),
        lambda dof, scale: _matrix_forward(family, tag, dof, scale),
        lambda mu, cov: _matrix_inverse(family, tag, mu, cov),
    )


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


def _diagonal(mu, var):
    """The variances of `var`: itself for the scalar rows, else the
    diagonals of its covariance blocks."""
    return var if var.ndim == mu.ndim else np.diagonal(var, axis1=-2, axis2=-1)


# ---------------------------------------------------------------------------
# the bridge rows; validity predicates and forwards take the fields in
# `distributions.param_fields` order


_ROWS = {
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
    ("dirichlet", "softmax_inverse"): _row(
        "all alpha > 0",
        lambda alpha: np.all(_positive(alpha), axis=-1),
        lambda alpha: dirichlet_softmax_forward_arrays(alpha),
        lambda mu, cov: {
            "alpha": dirichlet_softmax_inverse_arrays(mu, np.diagonal(cov, axis1=-2, axis2=-1))
        },
    ),
    ("wishart", "matrix_log"): _matrix_row("wishart", "matrix_log", "n > p - 1", -1.0),
    ("wishart", "matrix_sqrt"): _matrix_row("wishart", "matrix_sqrt", "n > p", 0.0),
    ("inverse_wishart", "matrix_log"): _matrix_row(
        "inverse_wishart", "matrix_log", "nu > p - 1", -1.0
    ),
    ("inverse_wishart", "matrix_sqrt"): _matrix_row(
        "inverse_wishart", "matrix_sqrt", "nu > p - 1", -1.0
    ),
}


def _row_for(family, tag):
    if (family, tag) not in _ROWS:
        raise IncompatibleBasis(f"no bridge row for ({family}, {tag})")
    return _ROWS[(family, tag)]


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
# matrix rows: dof (...,), scale (..., p, p) <-> vech mean (..., d), vech
# covariance (..., d, d)


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


def _sym(X):
    return 0.5 * (X + np.swapaxes(X, -1, -2))


def _matrix_valid(dof, scale, low):
    """Per matrix: dof > p + low, and the scale finite and positive definite."""
    dof = np.asarray(dof, dtype=float)
    scale = np.asarray(scale, dtype=float)
    p = scale.shape[-1]
    finite = np.isfinite(scale).all(axis=(-2, -1))
    w = np.linalg.eigvalsh(_sym(np.where(finite[..., None, None], scale, np.eye(p))))
    return finite & (w[..., 0] > 0.0) & np.isfinite(dof) & (dof > p + low)


def _matrix_forward(family, tag, dof, scale):
    """Stacked matrix bridge (also the Wishart-family identity Laplace):
    the latent mean is U f(w) U^T of the scale's eigenpairs (w, U), and each
    eigen-pair direction u_i u_j^T + u_j u_i^T (u_i u_i^T on the diagonal)
    carries an independent latent variance."""
    p = scale.shape[-1]
    a, b = np.array(matrixops.vech_pairs(p)).T  # the vech pairs, which also index eigen-pairs
    c = _dof_offset(family, tag)(dof, p)[..., None]
    w, U = np.linalg.eigh(_sym(scale))
    Ut = np.swapaxes(U, -1, -2)
    M = _sym((U * _matrix_mode_eigs(family, tag, w, c)[..., None, :]) @ Ut)
    v = np.where(a == b, 2.0, 1.0) * _pair_offdiag_var(family, tag, w[..., a], w[..., b], c)
    Ua, Ub = U[..., a, :], U[..., b, :]
    T = Ua[..., a] * Ub[..., b]
    T = np.where(a == b, T, T + Ua[..., b] * Ub[..., a])
    S = T @ (v[..., :, None] * np.swapaxes(T, -1, -2))
    return M[..., a, b], _sym(S)


def _matrix_inverse(family, tag, mu, cov):
    """Stacked matrix bridge inverse. The bridge covariance of the diagonal
    coordinates of U^T Z U, in the eigenbasis U of the latent mean, fixes the
    constant c: 2/c for the log rows, w_i^2 / (2c) for the sqrt rows."""
    p = int(round((np.sqrt(8.0 * mu.shape[-1] + 1.0) - 1.0) / 2.0))
    if p * (p + 1) // 2 != mu.shape[-1]:
        raise DomainMismatch("matrix rows need vech means of length p(p+1)/2")
    a, b = np.array(matrixops.vech_pairs(p)).T
    M = matrixops.unvech(mu, p)
    w, U = np.linalg.eigh(M)
    W = np.where(a < b, 2.0, 1.0)[:, None] * (U[..., a, :] * U[..., b, :])
    diag_vars = np.sum(W * (cov @ W), axis=-2)
    Ut = np.swapaxes(U, -1, -2)
    if tag == "matrix_log":
        c = (2.0 / np.mean(diag_vars, axis=-1))[..., None, None]
        X = _sym((U * np.exp(w)[..., None, :]) @ Ut)
        dof, scale = (c + p - 1.0, X / c) if family == "wishart" else (c - p + 1.0, c * X)
    else:
        if np.min(w) <= 0.0:
            raise DomainMismatch("sqrt-basis mean must be positive definite")
        c = np.mean(w * w / (2.0 * diag_vars), axis=-1)[..., None, None]
        X = _sym(M @ M)
        dof, scale = (c + p, X / c) if family == "wishart" else (c - p, c * X)
    return dict(zip(distributions.param_fields(family), (dof[..., 0, 0], scale)))


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
    matrix = "symmetric matrix (vech)"
    latents = {
        "softmax_inverse": "centered vector (K)",
        "matrix_log": matrix,
        "matrix_sqrt": matrix,
    }
    return [
        {
            "family": family,
            "basis": tag,
            "latent": latents.get(tag, "scalar"),
            "validity": _ROWS[(family, tag)]["validity"],
            "bijective": tag != "softmax_inverse",
            "needs_structured_sigma": tag == "matrix_sqrt",
        }
        for family, tag in bridge_rows()
    ]


def _fields_of(params):
    return [getattr(params, name) for name in distributions.param_fields(params.family)]


def bridge_valid(params, basis):
    """Whether `params` lies in the validity region of the bridge row."""
    basis = _basis_for(params, basis)
    if basis.tag == "identity":
        return standard_valid(params)
    return bool(np.all(_ROWS[(params.family, basis.tag)]["valid"](*_fields_of(params))))


def standard_valid(params):
    """Whether the standard-basis Laplace approximation exists."""
    try:
        standard_laplace(params)
    except NoValidLaplace:
        return False
    return True


def _matrix_gaussian(mu, cov, p):
    return GaussianApprox(
        matrixops.unvech(mu, p).ravel(), "dense", cov, domain="symmetric_matrix", p=p
    )


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
    dof, scale = _fields_of(params)
    if fam == "wishart" and not dof > params.p + 1.0:
        raise NoValidLaplace(
            f"wishart identity Laplace needs n > p + 1 (got n={dof}, p={params.p})"
        )
    mu, cov = _matrix_forward(fam, "identity", np.asarray(dof), scale)
    return _matrix_gaussian(mu, cov, params.p)


def lm_forward(params, basis):
    """Map parameters to the matched Gaussian in the given basis: a one-item
    `forward_arrays`."""
    basis = _basis_for(params, basis)
    fam = params.family
    if basis.tag == "identity":
        return standard_laplace(params)
    names = distributions.param_fields(fam)
    mu, var = forward_arrays(
        fam, basis.tag, **{name: np.asarray(getattr(params, name))[None] for name in names}
    )
    if basis.p is not None:
        return _matrix_gaussian(mu[0], var[0], basis.p)
    if basis.K is not None:
        return GaussianApprox(mu[0], "dense", var[0], domain="simplex", centered=True)
    return scalar_gaussian(float(mu[0]), float(var[0]))


def forward_arrays(family, tag, **arrays):
    """Bridge forward over stacked parameter fields: arrays -> (mu, var).

    Scalar rows map (n,) fields to (n,) means and variances; the softmax row
    maps alpha (n, K) to centered means (n, K) and covariances (n, K, K); the
    matrix rows map a dof (n,) and a scale (n, p, p) to vech means (n, d) and
    vech covariances (n, d, d).

    Raises OutsideValidityRegion for fields outside the row's validity
    region (for the matrix rows: a dof at or below the bound, or a scale that
    is not finite and positive definite), or whose mean or covariance is not
    finite (or a variance not positive) in floating point.
    """
    row = _row_for(family, tag)
    names = distributions.param_fields(family)
    if set(arrays) != set(names):
        raise TypeError(f"{family} fields are {names}, got {tuple(arrays)}")
    fields = [np.asarray(arrays[name], dtype=float) for name in names]
    ok = row["valid"](*fields)
    if not np.all(ok):
        raise OutsideValidityRegion(
            f"({family}, {tag}) bridge needs {row['validity']}: "
            f"{int(np.sum(~ok))} points outside"
        )
    # valid but extreme fields overflow the formula (or underflow a product)
    with np.errstate(all="ignore"):
        mu, var = row["fwd"](*fields)
    if not (
        np.isfinite(mu).all() and np.isfinite(var).all() and (_diagonal(mu, var) > 0.0).all()
    ):
        raise OutsideValidityRegion(
            f"({family}, {tag}) bridge: the fields map outside finite means and "
            "positive finite variances"
        )
    return mu, var


def inverse_arrays(family, tag, mu, var):
    """Bridge inverse over stacked latents: (mu, var) -> parameter fields.

    `var` holds variances for the scalar rows and covariance blocks for the
    softmax and matrix rows, as `forward_arrays` returns them; the matrix
    sqrt rows read them as the bridge's structured form. Raises
    DomainMismatch for non-finite latents, non-positive variances, or a
    Gaussian that maps outside the row's validity region.
    """
    row = _row_for(family, tag)
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    # array methods, not np.all/np.any: lm_inverse calls this once per
    # Gaussian, where the dispatch overhead of np.all dominates
    if not (np.isfinite(mu).all() and np.isfinite(var).all()):
        raise DomainMismatch("means and variances must be finite")
    if (_diagonal(mu, var) <= 0.0).any():
        raise DomainMismatch("variances must be positive")
    # extreme but finite means overflow to inf (or underflow to 0) parameters
    with np.errstate(all="ignore"):
        fields = row["inv"](mu, var)
    if not row["valid"](*[fields[name] for name in distributions.param_fields(family)]).all():
        raise DomainMismatch(
            f"the Gaussian maps outside the ({family}, {tag}) region {row['validity']}"
        )
    return fields


def lm_inverse(g, family, basis, structured_sigma=False):
    """Map a Gaussian back to exponential-family parameters: a one-item
    `inverse_arrays`."""
    if isinstance(g, tuple):
        g = scalar_gaussian(*g)
    if family not in distributions.FAMILIES:
        raise ValueError(f"unknown family {family!r}")
    basis = _as_basis(basis, K=g.mean.size, p=g.p)
    if basis.tag == "identity":
        raise NonInvertibleBridge(
            "the identity basis is not a bridge row; the standard-basis "
            "Laplace approximation has no parameter inverse here"
        )
    matrix = basis.p is not None
    if matrix and g.domain != "symmetric_matrix":
        raise DomainMismatch("matrix bridge inverse needs a symmetric_matrix Gaussian")
    if basis.K is not None and g.domain not in ("simplex", "vector"):
        raise DomainMismatch("softmax inverse needs a simplex-domain Gaussian")
    transforms.check_basis(family, basis, g.p if matrix else g.mean.size)
    if matrix:
        if basis.tag == "matrix_sqrt" and not structured_sigma:
            raise NonInvertibleBridge(
                "the matrix sqrt inverse needs structured_sigma=True: a generic "
                "covariance underdetermines the parameters"
            )
        mu, var = g.vech_mean()[None], g.vech_cov()[None]
    elif basis.K is not None:
        mu, var = g.mean[None], g.cov_dense()[None]
    elif g.mean.size != 1:
        raise DomainMismatch("scalar bridge inverse needs a one-dimensional Gaussian")
    else:
        mu, var = g.mean, np.array([g.var])
    fields = inverse_arrays(family, basis.tag, mu, var)
    return distributions.from_record({"family": family, **{k: v[0] for k, v in fields.items()}})
