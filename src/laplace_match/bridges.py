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
GaussianApprox, a (mean, cov) record in those same coordinates, to and from
those arrays. They and `bridge_valid` take a tag or a `BasisTransform` and
resolve it with `transforms.resolve_basis`, sized by the parameters
(`lm_forward`, `bridge_valid`) or by the length of the Gaussian's mean
(`lm_inverse`); the array functions take the tag of a row.

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
    DimensionMismatch,
    DomainMismatch,
    IncompatibleBasis,
    InvalidParams,
    NonInvertibleBridge,
    NoValidLaplace,
    OutsideValidityRegion,
)
from .gaussian import GaussianApprox, scalar_gaussian


def _row(validity, valid, fwd, inv, inv_valid=None):
    return dict(validity=validity, valid=valid, fwd=fwd, inv=inv, inv_valid=inv_valid or valid)


def _matrix_row(family, tag, validity, low):
    return _row(
        validity,
        lambda dof, scale: _matrix_valid(dof, scale, low),
        lambda dof, scale: _matrix_forward(family, tag, dof, scale),
        lambda mu, cov: _matrix_inverse(family, tag, mu, cov),
        lambda dof, scale: _matrix_valid(dof, scale, low, conditioned=True),
    )


def _where(cond, value):
    """value where cond holds, else NaN, which the validity predicates reject."""
    return np.where(cond, value, np.nan)


def _positive(*fields):
    """Elementwise: every field finite and > 0, that is 0 < value < inf (NaN
    fails both). Each comparison lands in one reusable mask that is combined
    into the result in place, so a call allocates two masks."""
    shape = np.broadcast(*fields).shape
    ok = np.ones(shape, dtype=bool)
    test = np.empty(shape, dtype=bool)
    for value in fields:
        ok &= np.greater(value, 0.0, out=test)
        ok &= np.less(value, np.inf, out=test)
    return ok


def _within(x, lo, hi):
    """Whether lo < every entry of x < hi, from one min and one max reduction
    instead of an x-sized mask: NaN propagates through both and fails. An
    empty x passes."""
    return not x.size or (lo < x.min() and x.max() < hi)


def _diagonal(mu, var):
    """The variances of `var`: itself for the scalar rows, else the
    diagonals of its covariance blocks."""
    return var if var.ndim == mu.ndim else np.diagonal(var, axis1=-2, axis2=-1)


# ---------------------------------------------------------------------------
# the bridge rows; validity predicates and forwards take the fields in
# `distributions.param_fields` order; `inv_valid`, which checks the inverse's
# images, is the validity predicate, for the matrix rows with EFParams'
# conditioning bound on a scale. A scalar row's forward writes the means
# into out[0] and the variances into out[1], the two halves of one block,
# through ufunc `out=` arguments: a call allocates that one block and next to
# no temporaries, so its time stays linear in n, where fresh arrays of 100k+
# points would land in freshly mapped pages on every call. The softmax row
# keeps the same rule: its (n, K, K) covariance is the one large array it
# allocates, built in place a row at a time (`dirichlet_softmax_forward_arrays`).


_ROWS = {
    ("exponential", "log"): _row(
        "all lambda > 0",
        lambda lam: _positive(lam),
        lambda lam, out: (np.negative(np.log(lam, out=out[0]), out=out[0]), out[1].fill(1.0)),
        lambda mu, var: {"lam": np.exp(-mu)},
    ),
    ("exponential", "sqrt"): _row(
        "all lambda > 0",
        lambda lam: _positive(lam),
        lambda lam, out: (
            np.sqrt(np.divide(0.5, lam, out=out[0]), out=out[0]),
            np.divide(0.25, lam, out=out[1]),
        ),
        lambda mu, var: {"lam": _where(mu > 0.0, 0.5 / (mu * mu))},
    ),
    ("gamma", "log"): _row(
        "all alpha, lambda > 0",
        lambda alpha, lam: _positive(alpha, lam),
        lambda alpha, lam, out: (
            np.log(np.divide(alpha, lam, out=out[0]), out=out[0]),
            np.divide(1.0, alpha, out=out[1]),
        ),
        lambda mu, var: {"alpha": 1.0 / var, "lam": np.exp(-mu) / var},
    ),
    ("gamma", "sqrt"): _row(
        "alpha > 1/2",
        lambda alpha, lam: _positive(alpha, lam) & (np.asarray(alpha, dtype=float) > 0.5),
        lambda alpha, lam, out: (
            np.sqrt(np.divide(np.subtract(alpha, 0.5, out=out[0]), lam, out=out[0]), out=out[0]),
            np.divide(0.25, lam, out=out[1]),
        ),
        lambda mu, var: {"lam": 0.25 / var, "alpha": _where(mu > 0.0, mu * mu / (4.0 * var) + 0.5)},
    ),
    ("inverse_gamma", "log"): _row(
        "all alpha, lambda > 0",
        lambda alpha, lam: _positive(alpha, lam),
        lambda alpha, lam, out: (
            np.log(np.divide(lam, alpha, out=out[0]), out=out[0]),
            np.divide(1.0, alpha, out=out[1]),
        ),
        lambda mu, var: {"alpha": 1.0 / var, "lam": np.exp(mu) / var},
    ),
    ("inverse_gamma", "sqrt"): _row(
        "all alpha, lambda > 0",
        lambda alpha, lam: _positive(alpha, lam),
        lambda alpha, lam, out: (
            # out[0] holds alpha + 1/2 until the mean overwrites it
            np.add(alpha, 0.5, out=out[0]),
            np.divide(lam, np.multiply(4.0, np.square(out[0], out=out[1]), out=out[1]), out=out[1]),
            np.sqrt(np.divide(lam, out[0], out=out[0]), out=out[0]),
        ),
        lambda mu, var: {
            "alpha": _where(mu * mu > 2.0 * var, mu * mu / (4.0 * var) - 0.5),
            "lam": mu**4 / (4.0 * var),
        },
    ),
    ("chi_squared", "log"): _row(
        "all k > 0",
        lambda k: _positive(k),
        lambda k, out: (np.log(k, out=out[0]), np.divide(2.0, k, out=out[1])),
        lambda mu, var: {"k": np.exp(mu)},
    ),
    ("chi_squared", "sqrt"): _row(
        "k > 1",
        lambda k: _positive(k) & (np.asarray(k, dtype=float) > 1.0),
        lambda k, out: (np.sqrt(np.subtract(k, 1.0, out=out[0]), out=out[0]), out[1].fill(0.5)),
        lambda mu, var: {"k": _where(mu > 0.0, mu * mu + 1.0)},
    ),
    ("beta", "logit"): _row(
        "all alpha, beta > 0",
        lambda alpha, beta: _positive(alpha, beta),
        lambda alpha, beta, out: (
            np.log(np.divide(alpha, beta, out=out[0]), out=out[0]),
            np.divide(np.add(alpha, beta, out=out[1]), alpha * beta, out=out[1]),
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
    """Batched softmax-basis bridge for Dirichlet: alpha (..., K) -> mu, Sigma,
    Sigma_ij = diag(1/alpha)_ij - (1/alpha_i + 1/alpha_j)/K + sum(1/alpha)/K^2.

    Sigma is built in its one (..., K, K) output, a row i at a time, with
    (..., K) temporaries only; the floats are those of the three full-size
    terms added in that order."""
    alpha = np.asarray(alpha, dtype=float)
    K = alpha.shape[-1]
    mu = np.log(alpha)
    mu -= np.mean(mu, axis=-1, keepdims=True)
    inv = 1.0 / alpha
    s = np.sum(inv, axis=-1, keepdims=True)
    sigma = np.multiply(inv[..., :, None], np.eye(K))
    pairwise = np.empty_like(inv)
    for i in range(K):
        np.add(inv[..., i, None], inv, out=pairwise)
        pairwise /= K
        sigma[..., i, :] -= pairwise
    sigma += s[..., None] / (K * K)
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


def _matrix_valid(dof, scale, low, conditioned=False):
    """Per matrix: dof > p + low, and the scale finite and positive definite,
    with `conditioned` within `distributions._spd_conditioned` too."""
    dof = np.asarray(dof, dtype=float)
    scale = np.asarray(scale, dtype=float)
    p = scale.shape[-1]
    finite = np.isfinite(scale).all(axis=(-2, -1))
    w = np.linalg.eigvalsh(matrixops.sym(np.where(finite[..., None, None], scale, np.eye(p))))
    spd = distributions._spd_conditioned(w) if conditioned else w[..., 0] > 0.0
    return finite & spd & np.isfinite(dof) & (dof > p + low)


def _matrix_forward(family, tag, dof, scale):
    """Stacked matrix bridge (also the Wishart-family identity Laplace):
    the latent mean is U f(w) U^T of the scale's eigenpairs (w, U), and each
    eigen-pair direction u_i u_j^T + u_j u_i^T (u_i u_i^T on the diagonal)
    carries an independent latent variance."""
    p = scale.shape[-1]
    a, b = np.array(matrixops.vech_pairs(p)).T  # the vech pairs, which also index eigen-pairs
    c = _dof_offset(family, tag)(dof, p)[..., None]
    w, U = np.linalg.eigh(matrixops.sym(scale))
    Ut = np.swapaxes(U, -1, -2)
    M = matrixops.sym((U * _matrix_mode_eigs(family, tag, w, c)[..., None, :]) @ Ut)
    v = np.where(a == b, 2.0, 1.0) * _pair_offdiag_var(family, tag, w[..., a], w[..., b], c)
    Ua, Ub = U[..., a, :], U[..., b, :]
    T = Ua[..., a] * Ub[..., b]
    T = np.where(a == b, T, T + Ua[..., b] * Ub[..., a])
    S = T @ (v[..., :, None] * np.swapaxes(T, -1, -2))
    return M[..., a, b], matrixops.sym(S)


def _matrix_inverse(family, tag, mu, cov):
    """Stacked matrix bridge inverse. The bridge covariance of the diagonal
    coordinates of U^T Z U, in the eigenbasis U of the latent mean, fixes the
    constant c: 2/c for the log rows, w_i^2 / (2c) for the sqrt rows. eigh
    sees a non-finite mean as 0; a sqrt-row mean not positive definite gets
    c = NaN."""
    p = int(round((np.sqrt(8.0 * mu.shape[-1] + 1.0) - 1.0) / 2.0))
    if p * (p + 1) // 2 != mu.shape[-1]:
        raise DomainMismatch("matrix rows need vech means of length p(p+1)/2")
    a, b = np.array(matrixops.vech_pairs(p)).T
    M = matrixops.unvech(np.where(np.isfinite(mu).all(axis=-1, keepdims=True), mu, 0.0), p)
    w, U = np.linalg.eigh(M)
    W = np.where(a < b, 2.0, 1.0)[:, None] * (U[..., a, :] * U[..., b, :])
    diag_vars = np.sum(W * (cov @ W), axis=-2)
    Ut = np.swapaxes(U, -1, -2)
    if tag == "matrix_log":
        c = (2.0 / np.mean(diag_vars, axis=-1))[..., None, None]
        X = matrixops.sym((U * np.exp(w)[..., None, :]) @ Ut)
        dof, scale = (c + p - 1.0, X / c) if family == "wishart" else (c - p + 1.0, c * X)
    else:
        c = _where(w[..., 0] > 0.0, np.mean(w * w / (2.0 * diag_vars), axis=-1))[..., None, None]
        X = matrixops.sym(M @ M)
        dof, scale = (c + p, X / c) if family == "wishart" else (c - p, c * X)
    return dict(zip(distributions.param_fields(family), (dof[..., 0, 0], scale)))


# ---------------------------------------------------------------------------
# public API


def _fields_of(params):
    return [getattr(params, name) for name in distributions.param_fields(params.family)]


def bridge_valid(params, basis):
    """Whether `params` lies in the validity region of the bridge row."""
    basis = transforms.resolve_basis(params.family, basis, transforms._size_of(params))
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
        return GaussianApprox((a - 1.0) / s, np.diag((a - 1.0) / s**2))
    dof, scale = _fields_of(params)
    if fam == "wishart" and not dof > params.p + 1.0:
        raise NoValidLaplace(
            f"wishart identity Laplace needs n > p + 1 (got n={dof}, p={params.p})"
        )
    return GaussianApprox(*_matrix_forward(fam, "identity", np.asarray(dof), scale))


def lm_forward(params, basis):
    """Map parameters to the matched Gaussian in the given basis: a one-item
    `forward_arrays`."""
    basis = transforms.resolve_basis(params.family, basis, transforms._size_of(params))
    fam = params.family
    if basis.tag == "identity":
        return standard_laplace(params)
    names = distributions.param_fields(fam)
    mu, var = forward_arrays(
        fam, basis.tag, **{name: np.asarray(getattr(params, name))[None] for name in names}
    )
    if fam in distributions._SCALAR_FAMILIES:
        return scalar_gaussian(float(mu[0]), float(var[0]))
    return GaussianApprox(mu[0], var[0])


_CHUNK = 1 << 15  # points: a chunk's fields, masks and outputs (1 MiB) stay in L2


def _forward_chunk(row, fields, mu, var, part):
    """Whether the points `part` are valid and map to finite means and
    positive finite variances, written into mu[part] and var[part]."""
    fields = [f[part] if f.size > 1 else f for f in fields]
    if not np.all(row["valid"](*fields)):
        return False
    with np.errstate(all="ignore"):
        row["fwd"](*fields, out=(mu[part], var[part]))
    return _within(mu[part], -np.inf, np.inf) and _within(var[part], 0.0, np.inf)


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
        raise InvalidParams(f"{family} fields are {names}, got {tuple(arrays)}")
    fields = [np.asarray(arrays[name], dtype=float) for name in names]
    scalar = family in distributions._SCALAR_FAMILIES
    if scalar:
        # a chunk at a time, so the time stays linear in n
        block = np.empty((2,) + np.broadcast(*fields).shape)
        mu, var = block[0, ...], block[1, ...]  # arrays, also for 0-d fields
        parts = [slice(s, s + _CHUNK) for s in range(0, len(mu), _CHUNK)] if mu.ndim == 1 else [...]
        if all(_forward_chunk(row, fields, mu, var, part) for part in parts):
            return mu, var
    # the whole call; a scalar row gets here from a failing chunk, to raise
    # the call's first error
    ok = row["valid"](*fields)
    if not np.all(ok):
        raise OutsideValidityRegion(
            f"({family}, {tag}) bridge needs {row['validity']}: "
            f"{int(np.sum(~ok))} points outside"
        )
    if not scalar:
        # valid but extreme fields overflow the formula (or underflow a product)
        with np.errstate(all="ignore"):
            mu, var = row["fwd"](*fields)
    if scalar or not (
        _within(mu, -np.inf, np.inf)
        and _within(_diagonal(mu, var), 0.0, np.inf)
        and _within(var, -np.inf, np.inf)
    ):
        raise OutsideValidityRegion(
            f"({family}, {tag}) bridge: the fields map outside finite means and "
            "positive finite variances"
        )
    return mu, var


def _inverse_masked(family, tag, mu, var):
    """(fields, ok): the bridge inverse of every point, and ok, one flag per
    point, where its latents are finite, its variances positive and its image
    in the row's latent domain and `inv_valid`; other points' fields mean nothing."""
    row = _row_for(family, tag)
    mu = np.asarray(mu, dtype=float)
    var = np.asarray(var, dtype=float)
    ok = np.isfinite(mu) & _positive(_diagonal(mu, var))
    if var.ndim > mu.ndim:  # covariance blocks: one flag per point
        ok = (ok & np.isfinite(var).all(axis=-1)).all(axis=-1)
    # extreme but finite means overflow to inf (or underflow to 0) parameters
    with np.errstate(all="ignore"):
        fields = row["inv"](mu, var)
        ok &= row["inv_valid"](*[fields[name] for name in distributions.param_fields(family)])
    return fields, ok


def inverse_arrays(family, tag, mu, var):
    """Bridge inverse over stacked latents: (mu, var) -> parameter fields.

    `var` holds variances for the scalar rows and covariance blocks for the
    softmax and matrix rows, as `forward_arrays` returns them; the matrix
    sqrt rows read them as the bridge's structured form. DomainMismatch
    unless `_inverse_masked` passes every point: for non-finite latents,
    non-positive variances, or a Gaussian that maps outside the row's region
    or to parameters EFParams rejects.
    """
    fields, ok = _inverse_masked(family, tag, mu, var)
    if not ok.all():
        raise DomainMismatch(
            f"({family}, {tag}) inverse: {ok.size - np.count_nonzero(ok)} of {ok.size} "
            "points have non-finite latents, a non-positive variance, or parameters "
            f"outside the region {_ROWS[(family, tag)]['validity']} or that EFParams rejects"
        )
    return fields


def _record_size(family, d):
    """The K or p of a Gaussian of mean length d for `family`: K = d, p from
    d = p(p+1)/2, None for the scalar families (and an unknown family, which
    `transforms.resolve_basis` rejects). DimensionMismatch for a length that
    no basis of the family has."""
    if family == "dirichlet":
        size, fits = d, d >= 2
    elif family in ("wishart", "inverse_wishart"):
        size = int(round((np.sqrt(8.0 * d + 1.0) - 1.0) / 2.0))
        fits = size * (size + 1) // 2 == d
    else:
        size, fits = None, d == 1 or family not in distributions._SCALAR_FAMILIES
    if not fits:
        raise DimensionMismatch(f"no {family} basis has Gaussians of dimension {d}")
    return size


def lm_inverse(g, family, basis, structured_sigma=False):
    """Map a Gaussian back to exponential-family parameters: a one-item
    `inverse_arrays`. `g` is a GaussianApprox in the row's coordinates, or a
    scalar (mu, var) tuple; its mean length sets the basis's K or p."""
    if isinstance(g, tuple):
        g = scalar_gaussian(*g)
    basis = transforms.resolve_basis(family, basis, _record_size(family, g.mean.size))
    if basis.tag == "identity":
        raise NonInvertibleBridge(
            "the identity basis is not a bridge row; the standard-basis "
            "Laplace approximation has no parameter inverse here"
        )
    if basis.tag == "matrix_sqrt" and not structured_sigma:
        raise NonInvertibleBridge(
            "the matrix sqrt inverse needs structured_sigma=True: a generic "
            "covariance underdetermines the parameters"
        )
    scalar = family in distributions._SCALAR_FAMILIES
    mu, var = (g.mean, g.cov[0]) if scalar else (g.mean[None], g.cov[None])
    fields = inverse_arrays(family, basis.tag, mu, var)
    return distributions.from_record({"family": family, **{k: v[0] for k, v in fields.items()}})
