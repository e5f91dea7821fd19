"""Distribution-distance diagnostics for bridge quality.

`mc_kl` estimates KL(p || q) between the exact transformed density and the
matched Gaussian by Monte Carlo on exact samples; `mmd` is the unbiased
U-statistic maximum mean discrepancy; `distance_sweep` runs both over a
parameter grid across all bases of a family, recording failures instead of
raising; `oracle_rows` checks every closed form against the numeric Laplace
oracle (`transforms.numeric_laplace`) over the default grids; `ess_sample`
is an elliptical slice sampling baseline for latent Gaussian models.
"""

import numpy as np

from . import bridges, distributions, gp, matrixops, transforms
from .errors import (
    DimensionMismatch,
    InvalidParams,
    LaplaceMatchError,
    NonConvergence,
    NotPositiveDefinite,
    NoValidLaplace,
    OutsideValidityRegion,
    SupportMismatch,
)
from .gaussian import GaussianApprox


def _gauss_logpdf(z, mean, cov):
    """Multivariate normal log-density; z has shape (..., d)."""
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = mean.size
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("Gaussian covariance is not positive definite")
    z = np.asarray(z, dtype=float)
    if d == 1 and z.ndim >= 1 and z.shape[-1] != 1:
        z = z[..., None]
    diff = z - mean
    # one solve against every sample at once, not one per sample
    sol = np.linalg.solve(L, diff.reshape(-1, d).T)
    quad = np.sum(sol**2, axis=0).reshape(diff.shape[:-1])
    logdet = 2.0 * np.sum(np.log(np.diag(L)))
    return -0.5 * (quad + logdet + d * np.log(2.0 * np.pi))


def gauss_latent(g, family=None, basis=None):
    """Working-coordinate (mean, covariance) of a GaussianApprox in the bridge
    coordinates of `basis` (a tag or a BasisTransform) for `family`.

    The softmax basis keeps the leading K - 1 coordinates of its centered
    record. The Dirichlet identity basis first conditions its record on the
    simplex hyperplane, which gives the exact chart Laplace. Every other
    record, a numeric-oracle record included, is in working coordinates.
    """
    tag = getattr(basis, "tag", basis)
    S = g.cov_dense()
    if family == "dirichlet" and tag == "identity":
        s1 = S @ np.ones(S.shape[0])
        S = S - np.outer(s1, s1) / float(np.sum(s1))
    elif tag != "softmax_inverse":
        return g.mean.copy(), S
    return g.mean[:-1].copy(), S[:-1, :-1].copy()


def latent_samples(params, basis, n, seed):
    """Exact samples mapped to the working latent coordinates of the basis,
    a tag or a BasisTransform."""
    basis = transforms.resolve_basis(params.family, basis, transforms._size_of(params))
    x = distributions.sample(params, seed, n)
    fam = params.family
    if fam in distributions._SCALAR_FAMILIES:
        return transforms.transform_samples(x, basis, "forward")
    if fam == "dirichlet":
        if basis.tag == "identity":
            return x[..., :-1].copy()
        z = transforms.transform_samples(x, basis, "forward", pseudo_inverse=True)
        return z[..., :-1]
    z = transforms.transform_samples(x, basis, "forward")
    return matrixops.vech(z)


def mc_kl(params, basis=None, gauss=None, n=10**6, seed=0):
    """Monte Carlo estimate of KL(exact transformed density || Gaussian).

    Draws n exact samples, maps them to the working coordinates, and averages
    the log-density ratio. Returns (estimate, standard_error); the jackknife
    standard error of a sample mean is the usual s / sqrt(n). Samples that
    land on the domain boundary after rounding (log-density -inf) are
    dropped, which happens with vanishing probability.

    `params` may be EFParams (with `basis`), a TransformedDensity, or a
    GaussianApprox source for estimator self-checks (KL of a Gaussian
    against `gauss`, zero when they coincide), on the working coordinates
    of `basis` when one is given (`gauss_latent`).
    """
    if isinstance(params, transforms.TransformedDensity):
        params, basis = params.params, params.basis
    if isinstance(params, GaussianApprox):
        if gauss is None:
            gauss = params
        mean_p, cov_p = gauss_latent(params, basis=basis)
        rng = np.random.default_rng(seed)
        L = np.linalg.cholesky(np.atleast_2d(cov_p))
        z = mean_p + rng.standard_normal((n, mean_p.size)) @ L.T
        if mean_p.size == 1:
            z = z[:, 0]
        logp = _gauss_logpdf(z, mean_p, cov_p)
        mean_q, cov_q = gauss_latent(gauss, basis=basis)
        if np.atleast_1d(mean_q).size != mean_p.size:
            raise SupportMismatch("q has a different latent dimension than p")
        diff = logp - _gauss_logpdf(z, mean_q, cov_q)
        return float(np.mean(diff)), float(np.std(diff, ddof=1) / np.sqrt(n))
    if basis is None:
        raise SupportMismatch("EFParams input needs a basis")
    basis = transforms.resolve_basis(params.family, basis, transforms._size_of(params))
    if gauss is None:
        gauss = bridges.lm_forward(params, basis)
    z = latent_samples(params, basis, n, seed)
    density = transforms.push_forward(params, basis)
    logp = np.asarray(density.log_density(z), dtype=float)
    mean, cov = gauss_latent(gauss, params.family, basis)
    if np.atleast_1d(mean).size != (1 if z.ndim == 1 else z.shape[-1]):
        raise SupportMismatch("q has a different latent dimension than p")
    logq = _gauss_logpdf(z, mean, cov)
    diff = logp - logq
    diff = diff[np.isfinite(diff)]
    if diff.size < 2:
        raise NonConvergence("no finite log-ratio samples")
    kl = float(np.mean(diff))
    se = float(np.std(diff, ddof=1) / np.sqrt(diff.size))
    return kl, se


def mmd(x, y, kernel=None):
    """Unbiased U-statistic estimate of squared MMD.

    `kernel` may be a Kernel object, a float RBF bandwidth, or None for an
    RBF whose lengthscale is `gp.median_lengthscale` of the pooled sample.
    The unbiased estimator can be negative; identical sets give a value
    <= 0 up to rounding.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    if y.ndim == 1:
        y = y[:, None]
    if x.shape[1] != y.shape[1]:
        raise DimensionMismatch("sample sets must share a dimension")
    m, n = x.shape[0], y.shape[0]
    if m < 2 or n < 2:
        raise InvalidParams("need at least two points per set")
    if not callable(kernel):
        bandwidth = gp.median_lengthscale(np.vstack([x, y])) if kernel is None else kernel
        kernel = gp.RBF(lengthscale=bandwidth)
    sum_xx = _gram_sum(kernel, x, x, diagonal=False)
    sum_yy = _gram_sum(kernel, y, y, diagonal=False)
    sum_xy = _gram_sum(kernel, x, y, diagonal=True)
    return float(sum_xx / (m * (m - 1)) + sum_yy / (n * (n - 1)) - 2.0 * sum_xy / (m * n))


# Rows per kernel block in `_gram_sum`: 8 MB with its temporary at the
# 2000-point `distance_sweep` default, where the whole Gram matrix took 244 MiB.
_GRAM_ROWS = 256


def _gram_sum(kernel, A, B, diagonal):
    """Sum of kernel(A, B) over blocks of _GRAM_ROWS rows of A; without its
    diagonal k(a_i, b_i) unless `diagonal`."""
    total = 0.0
    for lo in range(0, A.shape[0], _GRAM_ROWS):
        K = kernel(A[lo : lo + _GRAM_ROWS], B)
        total += np.sum(K)
        if not diagonal:
            rows = np.arange(K.shape[0])
            total -= np.sum(K[rows, lo + rows])
    return total


def ess_sample(prior, log_lik, n_samples, burn_in=0, seed=0):
    """Elliptical slice sampling from a posterior with Gaussian prior.

    Args:
        prior: GaussianApprox over the latent points, or a (mean, cov)
            pair; the covariance must be positive definite.
        log_lik: callable mapping a latent vector (d,) to a float
            log-likelihood; -inf is allowed outside the support.
        n_samples: number of kept samples.
        burn_in: initial samples discarded.
        seed: RNG seed; the chain is deterministic given it.

    Returns:
        Array of shape (n_samples, d).
    """
    if isinstance(prior, GaussianApprox):
        mean, cov = prior.mean, prior.cov_dense()
    else:
        mean, cov = prior
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    cov = np.atleast_2d(np.asarray(cov, dtype=float))
    d = mean.size
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise NotPositiveDefinite("prior covariance is not positive definite")
    rng = np.random.default_rng(seed)
    x = mean + L @ rng.standard_normal(d)
    cur = float(log_lik(x))
    if not np.isfinite(cur):
        x = mean.copy()
        cur = float(log_lik(x))
    out = np.empty((n_samples, d))
    kept = 0
    total = n_samples + burn_in
    for it in range(total):
        nu = L @ rng.standard_normal(d)
        log_u = cur + np.log(rng.uniform())
        phi = rng.uniform(0.0, 2.0 * np.pi)
        lo, hi = phi - 2.0 * np.pi, phi
        for _ in range(1000):
            cand = (x - mean) * np.cos(phi) + nu * np.sin(phi) + mean
            val = float(log_lik(cand))
            if val > log_u:
                x = cand
                cur = val
                break
            if phi < 0.0:
                lo = phi
            else:
                hi = phi
            phi = rng.uniform(lo, hi)
        else:
            raise NonConvergence("elliptical slice bracket shrank to nothing")
        if it >= burn_in:
            out[kept] = x
            kept += 1
    return out


# ---------------------------------------------------------------------------
# sweeps


def default_grid(family):
    """The standard ten-point parameter grid per family."""
    V0 = np.array([[0.75, 0.5], [0.5, 1.0]])
    if family == "exponential":
        return [distributions.exponential(float(l)) for l in range(1, 11)]
    if family == "gamma":
        return [distributions.gamma(0.5 + i, 0.5 + 0.5 * i) for i in range(10)]
    if family == "inverse_gamma":
        return [distributions.inverse_gamma(1.0 + i, 0.5 + 0.5 * i) for i in range(10)]
    if family == "chi_squared":
        return [distributions.chi_squared(float(k)) for k in range(1, 11)]
    if family == "beta":
        return [distributions.beta(0.7 + 0.5 * i, 0.8 + 0.25 * i) for i in range(10)]
    if family == "dirichlet":
        return [
            distributions.dirichlet(np.array([1.2, 0.8, 0.6]) * (i + 1))
            for i in range(10)
        ]
    if family == "wishart":
        return [
            distributions.wishart(2.5 * (1 + 0.5 * i), V0 * (1 + 0.25 * i))
            for i in range(10)
        ]
    if family == "inverse_wishart":
        return [
            distributions.inverse_wishart(2.5 * (1 + 0.5 * i), V0 * (1 + 0.25 * i))
            for i in range(10)
        ]
    raise InvalidParams(f"unknown family {family!r}")


# The benchmark (bench/workloads.py) reads the catalogue under this name.
_FAMILY_BASES = transforms.FAMILY_BASES


# ---------------------------------------------------------------------------
# the numeric Laplace oracle


def _rel_dev(a, b):
    """Relative sup-norm deviation of `a` from reference `b`."""
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    scale = max(float(np.max(np.abs(b))), 1e-300)
    return float(np.max(np.abs(a - b))) / scale


def _closed_vs_numeric(params, basis):
    """Max relative deviation of the closed form from the numeric oracle,
    in the working latent coordinates; returns (deviation, closed form)."""
    closed = bridges.lm_forward(params, basis)
    density = transforms.push_forward(params, basis)
    numeric = transforms.numeric_laplace(density)
    mean_c, cov_c = gauss_latent(closed, params.family, basis)
    mean_n, cov_n = gauss_latent(numeric)
    return max(_rel_dev(mean_c, mean_n), _rel_dev(cov_c, cov_n)), closed


# A plausible-looking but wrong Gamma sqrt inverse (alpha = mu^2/(4 sigma^2)
# - 0.5 with lambda = 4/sigma^2) fails to invert the forward map; the rate is
# off by a factor of 16. `corrupt_inverse` swaps it in so the round-trip
# check can be seen catching a bad closed form.
def _corrupt_gamma_sqrt_inverse(gauss):
    mu, var = gauss.mu, gauss.var
    return distributions.gamma(mu**2 / (4.0 * var) - 0.5, 4.0 / var)


def _round_trip_dev(params, basis, gauss, corrupt):
    if basis.tag == "identity":
        return None
    if corrupt and (params.family, basis.tag) == ("gamma", "sqrt"):
        back = _corrupt_gamma_sqrt_inverse(gauss)
    else:
        back = bridges.lm_inverse(
            gauss, params.family, basis, structured_sigma=basis.tag == "matrix_sqrt"
        )
    devs = [
        _rel_dev(getattr(back, name), getattr(params, name))
        for name in distributions.param_fields(params.family)
    ]
    return max(devs)


def oracle_rows(families, bases=None, tol=1e-6, rt_tol=1e-9, corrupt_inverse=False):
    """Closed form vs numeric oracle over the default grids.

    `bases` (tags or BasisTransforms) selects, for each family, those of its
    bases it lists. Returns one row per (family, basis, grid point):
    (family, basis tag, grid_index, forward_dev, round_trip_dev, status).
    Rows outside a bridge's validity region are reported as skipped, not
    failed; `status` is 'pass' or 'FAIL:<reason>'.
    """
    rows = []
    for family in families:
        family_bases = transforms.FAMILY_BASES[family]
        selected = family_bases if bases is None else [
            b for b in bases if getattr(b, "tag", b) in family_bases
        ]
        for named in selected:
            for gi, params in enumerate(default_grid(family)):
                basis = transforms.resolve_basis(family, named, transforms._size_of(params))
                try:
                    fwd_dev, gauss = _closed_vs_numeric(params, basis)
                except LaplaceMatchError as exc:
                    rows.append((family, basis.tag, gi, None, None, f"skipped: {exc}"))
                    continue
                status = "pass"
                if fwd_dev > tol:
                    status = f"FAIL: forward deviation {fwd_dev:.3e} > {tol:g}"
                try:
                    rt_dev = _round_trip_dev(params, basis, gauss, corrupt_inverse)
                except LaplaceMatchError as exc:
                    rt_dev = None
                    status = f"FAIL: round-trip error: {exc}"
                if rt_dev is not None and rt_dev > rt_tol and status == "pass":
                    status = f"FAIL: round-trip deviation {rt_dev:.3e} > {rt_tol:g}"
                rows.append((family, basis.tag, gi, fwd_dev, rt_dev, status))
    return rows


class DistanceReport:
    """Result of a distance sweep: one row per (grid point, basis, metric)."""

    def __init__(self, family, seed, n, metrics, bases, grid_records, rows):
        self.family = family
        self.seed = seed
        self.n = n
        self.metrics = tuple(metrics)
        self.bases = tuple(bases)
        self.grid_records = list(grid_records)
        self.rows = list(rows)

    def long_rows(self):
        """Rows as dicts: grid_index, basis, metric, value, se, status."""
        return [dict(r) for r in self.rows]

    def wide_table(self):
        """One line per grid point; a column per (basis, metric)."""
        header = ["grid_index"] + [
            f"{b}.{m}" for b in self.bases for m in self.metrics
        ]
        cells = {}
        for r in self.rows:
            cells[(r["grid_index"], r["basis"], r["metric"])] = r
        lines = []
        for gi in range(len(self.grid_records)):
            line = [gi]
            for b in self.bases:
                for m in self.metrics:
                    r = cells.get((gi, b, m))
                    if r is None or r["value"] is None:
                        line.append(r["status"] if r is not None else "missing")
                    else:
                        line.append(r["value"])
            lines.append(line)
        return header, lines

    def to_record(self):
        return {
            "family": self.family,
            "seed": self.seed,
            "n": self.n,
            "metrics": list(self.metrics),
            "bases": list(self.bases),
            "grid": self.grid_records,
            "rows": self.long_rows(),
        }


def _sweep_row(family, params, basis, metrics, n, mmd_points, row_seed):
    ss = np.random.SeedSequence(row_seed)
    kl_seed, mmd_seed, gauss_seed = [s.generate_state(1)[0] for s in ss.spawn(3)]
    try:
        gauss = bridges.lm_forward(params, basis)
    except (NoValidLaplace, OutsideValidityRegion) as exc:
        return [
            {"metric": m, "value": None, "se": None, "status": f"invalid: {exc}"}
            for m in metrics
        ]
    out = []
    for metric in metrics:
        try:
            if metric == "kl":
                value, se = mc_kl(params, basis, gauss=gauss, n=n, seed=int(kl_seed))
            else:  # mmd
                m_pts = min(mmd_points, n)
                z = latent_samples(params, basis, m_pts, int(mmd_seed))
                mean, cov = gauss_latent(gauss, family, basis)
                rng = np.random.default_rng(int(gauss_seed))
                L = np.linalg.cholesky(cov)
                g = mean + rng.standard_normal((m_pts, mean.size)) @ L.T
                if z.ndim == 1:
                    g = g[:, 0]
                value, se = mmd(z, g), None
            out.append({"metric": metric, "value": value, "se": se, "status": "ok"})
        except Exception as exc:  # failures are data, not crashes
            out.append(
                {"metric": metric, "value": None, "se": None, "status": f"error: {exc}"}
            )
    return out


METRICS = ("kl", "mmd")


def distance_sweep(
    family,
    grid=None,
    bases=None,
    metrics=METRICS,
    n=None,
    mmd_points=2000,
    seed=0,
    jobs=1,
):
    """Run distance metrics over a parameter grid for every basis of a family.

    Each (grid point, basis) row draws its own reproducible seed stream from
    SeedSequence((seed, row_index)), so results do not depend on execution
    order or on `jobs`. Rows where the bridge is invalid or a metric fails
    are recorded with a status instead of raising; an unknown family or
    metric raises InvalidParams before any work.
    """
    if family not in distributions.FAMILIES:
        raise InvalidParams(f"unknown family {family!r}")
    unknown = [m for m in metrics if m not in METRICS]
    if unknown:
        raise InvalidParams(f"unknown metric {unknown[0]!r} (known: {', '.join(METRICS)})")
    grid = default_grid(family) if grid is None else list(grid)
    bases = transforms.FAMILY_BASES[family] if bases is None else tuple(bases)
    if n is None:
        n = 10**6 if family in distributions._SCALAR_FAMILIES else 10**5
    tasks = []
    for gi, params in enumerate(grid):
        for basis_tag in bases:
            row_index = len(tasks)
            tasks.append((gi, params, basis_tag, (seed, row_index)))

    def run(task):
        gi, params, basis_tag, row_seed = task
        results = _sweep_row(family, params, basis_tag, metrics, n, mmd_points, row_seed)
        return [
            {"grid_index": gi, "basis": basis_tag, **r}
            for r in results
        ]

    if jobs > 1:
        import concurrent.futures  # loads logging: only the threaded sweep pays for it

        with concurrent.futures.ThreadPoolExecutor(max_workers=jobs) as pool:
            chunks = list(pool.map(run, tasks))
    else:
        chunks = [run(t) for t in tasks]
    rows = [r for chunk in chunks for r in chunk]
    return DistanceReport(
        family=family,
        seed=seed,
        n=n,
        metrics=metrics,
        bases=bases,
        grid_records=[p.to_record() for p in grid],
        rows=rows,
    )
