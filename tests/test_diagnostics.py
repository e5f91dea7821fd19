"""Distance estimators, the ESS baseline sampler, and the sweep driver."""

import json
import tracemalloc

import numpy as np
import pytest

from laplace_match import bridges, diagnostics, distributions, gp, matrixops, transforms
from laplace_match.errors import (
    DimensionMismatch,
    InvalidParams,
    LaplaceMatchError,
    NonConvergence,
    NotPositiveDefinite,
    OutsideValidityRegion,
    SupportMismatch,
)
from laplace_match.gaussian import GaussianApprox, scalar_gaussian

V0 = np.array([[0.75, 0.5], [0.5, 1.0]])


def _batch_se(draws, batches=100):
    """Batch-means standard error; chains are autocorrelated so the naive
    iid formula understates the uncertainty."""
    n = (draws.shape[0] // batches) * batches
    bm = draws[:n].reshape(batches, n // batches, -1).mean(axis=1)
    return bm.std(axis=0, ddof=1) / np.sqrt(batches)


class TestMcKl:
    def test_gaussian_self_kl_is_exactly_zero(self):
        g = scalar_gaussian(0.3, 1.7)
        kl, se = diagnostics.mc_kl(g, n=4000, seed=0)
        assert kl == 0.0 and se == 0.0

    def test_gaussian_vs_gaussian_analytic(self):
        p = scalar_gaussian(0.0, 1.0)
        q = scalar_gaussian(1.0, 1.0)
        kl, se = diagnostics.mc_kl(p, gauss=q, n=10**5, seed=1)
        assert abs(kl - 0.5) < 4 * se

    def test_missing_basis_raises(self):
        with pytest.raises(SupportMismatch):
            diagnostics.mc_kl(distributions.exponential(1.0))

    def test_latent_dimension_mismatch(self):
        p = bridges.lm_forward(
            distributions.dirichlet([1.0, 1.0, 1.0]), "softmax_inverse"
        )
        with pytest.raises(SupportMismatch):
            diagnostics.mc_kl(p, "softmax_inverse", gauss=scalar_gaussian(0.0, 1.0), n=100)
        with pytest.raises(SupportMismatch):
            diagnostics.mc_kl(
                distributions.beta(2.0, 2.0), "logit", gauss=p, n=100
            )

    def test_transformed_density_input_matches_params_path(self):
        td = transforms.push_forward(distributions.gamma(4.0, 2.0), "log")
        a = diagnostics.mc_kl(td, n=20000, seed=3)
        b = diagnostics.mc_kl(distributions.gamma(4.0, 2.0), "log", n=20000, seed=3)
        assert a == b

    def test_exponential_anchor_values(self):
        kl_log, _ = diagnostics.mc_kl(distributions.exponential(1.0), "log", n=10**5, seed=0)
        assert abs(kl_log - 0.33) < 0.03
        kl_sqrt, _ = diagnostics.mc_kl(distributions.exponential(1.0), "sqrt", n=10**5, seed=0)
        assert abs(kl_sqrt - 0.12) < 0.02
        # the square-root basis is the better match for the exponential
        assert kl_sqrt < kl_log

    @pytest.mark.parametrize(
        "params,basis",
        [
            (distributions.exponential(3.0), "log"),
            (distributions.gamma(2.5, 1.0), "sqrt"),
            (distributions.inverse_gamma(2.0, 1.5), "sqrt"),
            (distributions.chi_squared(4.0), "log"),
            (distributions.beta(0.7, 0.9), "logit"),
            (distributions.dirichlet([1.2, 0.8, 0.6]), "softmax_inverse"),
            (distributions.wishart(4.0, V0), "matrix_log"),
            (distributions.inverse_wishart(4.0, V0), "matrix_sqrt"),
        ],
        ids=lambda v: v if isinstance(v, str) else v.family,
    )
    def test_kl_non_negative_within_noise(self, params, basis):
        kl, se = diagnostics.mc_kl(params, basis, n=10**4, seed=2)
        assert np.isfinite(kl) and se > 0
        assert kl > -4 * se

    def test_gamma_log_kl_decreases_in_alpha(self):
        # the log-basis match tightens as the gamma grows more Gaussian
        values = []
        for alpha in (1.0, 2.0, 4.0, 8.0):
            values.append(
                diagnostics.mc_kl(distributions.gamma(alpha, 1.0), "log", n=10**6, seed=4)
            )
        for (k0, s0), (k1, s1) in zip(values, values[1:]):
            assert k1 < k0 + 2 * np.hypot(s0, s1)

    def test_transformed_beats_standard_basis(self):
        for params, better in (
            (distributions.gamma(1.5, 1.0), "log"),
            (distributions.beta(2.0, 2.0), "logit"),
        ):
            kl_t, se_t = diagnostics.mc_kl(params, better, n=10**5, seed=5)
            kl_i, se_i = diagnostics.mc_kl(params, "identity", n=10**5, seed=5)
            assert kl_t + 4 * se_t < kl_i

    @staticmethod
    def _per_sample_logpdf(z, mean, cov):
        """The Gaussian log-density with one solve of L per sample (L
        broadcast against an (..., d, 1) right-hand side)."""
        mean = np.atleast_1d(np.asarray(mean, dtype=float))
        d = mean.size
        L = np.linalg.cholesky(np.atleast_2d(np.asarray(cov, dtype=float)))
        z = np.asarray(z, dtype=float)
        if d == 1 and z.ndim >= 1 and z.shape[-1] != 1:
            z = z[..., None]
        sol = np.linalg.solve(L, (z - mean)[..., :, None])[..., 0]
        quad = np.sum(sol**2, axis=-1)
        return -0.5 * (quad + 2.0 * np.sum(np.log(np.diag(L))) + d * np.log(2.0 * np.pi))

    @pytest.mark.parametrize("d", [1, 3, 6])
    def test_one_solve_matches_the_per_sample_solves(self, d):
        rng = np.random.default_rng(d)
        A = rng.normal(size=(d, d))
        cov = A @ A.T + 0.1 * np.eye(d)
        mean = rng.normal(size=d)
        z = mean + 3.0 * rng.normal(size=(600, d))
        shapes = [z, z.reshape(30, 20, d), z[0]] + ([z[:, 0], z[0, 0]] if d == 1 else [])
        for zz in shapes:
            got = diagnostics._gauss_logpdf(zz, mean, cov)
            want = self._per_sample_logpdf(zz, mean, cov)
            assert np.shape(got) == np.shape(want)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))

    @pytest.mark.parametrize(
        "p, q, basis",
        [
            (scalar_gaussian(0.0, 1.0), scalar_gaussian(1.0, 2.0), None),
            (
                bridges.lm_forward(distributions.dirichlet([2.0, 1.0, 1.5]), "softmax_inverse"),
                bridges.lm_forward(distributions.dirichlet([3.0, 1.0, 1.0]), "softmax_inverse"),
                "softmax_inverse",
            ),
            (
                bridges.lm_forward(distributions.wishart(4.0, V0), "matrix_log"),
                bridges.lm_forward(distributions.wishart(6.0, V0), "matrix_log"),
                None,
            ),
        ],
    )
    def test_gaussian_branch_matches_the_per_sample_solves(self, monkeypatch, p, q, basis):
        got = diagnostics.mc_kl(p, basis, gauss=q, n=5000, seed=2)
        monkeypatch.setattr(diagnostics, "_gauss_logpdf", self._per_sample_logpdf)
        want = diagnostics.mc_kl(p, basis, gauss=q, n=5000, seed=2)
        np.testing.assert_allclose(got, want, rtol=1e-12)


class TestHelpers:
    def test_latent_samples_shapes(self):
        z = diagnostics.latent_samples(distributions.beta(2.0, 2.0), "logit", 50, 0)
        assert z.shape == (50,)
        z = diagnostics.latent_samples(
            distributions.dirichlet([1.0, 2.0, 3.0]), "softmax_inverse", 50, 0
        )
        assert z.shape == (50, 2)
        z = diagnostics.latent_samples(distributions.wishart(4.0, V0), "matrix_log", 50, 0)
        assert z.shape == (50, 3)

    def test_gauss_latent_charts(self):
        g = bridges.lm_forward(distributions.dirichlet([2.0, 1.0, 1.5]), "softmax_inverse")
        mean, cov = diagnostics.gauss_latent(g, "dirichlet", "softmax_inverse")
        assert mean.shape == (2,) and cov.shape == (2, 2)
        m = bridges.lm_forward(distributions.wishart(4.0, V0), "matrix_log")
        mean, cov = diagnostics.gauss_latent(m, "wishart", "matrix_log")
        assert mean.shape == (3,) and cov.shape == (3, 3)


def _mmd_from_gram(K, ia, ib):
    Kxx = K[np.ix_(ia, ia)]
    Kyy = K[np.ix_(ib, ib)]
    Kxy = K[np.ix_(ia, ib)]
    m, n = ia.size, ib.size
    return (
        (Kxx.sum() - np.trace(Kxx)) / (m * (m - 1))
        + (Kyy.sum() - np.trace(Kyy)) / (n * (n - 1))
        - 2.0 * Kxy.mean()
    )


class TestMmd:
    def test_identical_sets_nonpositive(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=200)
        assert diagnostics.mmd(x, x) <= 1e-12

    def test_point_masses_brute_force(self):
        x = np.zeros(2)
        y = np.ones(2)
        expected = 1.0 + 1.0 - 2.0 * np.exp(-0.5)
        assert diagnostics.mmd(x, y, kernel=1.0) == pytest.approx(expected, abs=1e-12)

    def test_kernel_object_matches_bandwidth(self):
        rng = np.random.default_rng(1)
        x = rng.normal(size=(80, 2))
        y = rng.normal(size=(80, 2)) + 0.5
        by_float = diagnostics.mmd(x, y, kernel=1.3)
        by_kernel = diagnostics.mmd(x, y, kernel=gp.RBF(lengthscale=1.3, variance=1.0))
        assert by_float == pytest.approx(by_kernel, abs=1e-12)

    def test_same_distribution_within_permutation_noise(self):
        rng = np.random.default_rng(2)
        pooled = rng.normal(size=(1000, 1))
        sq = np.sum(pooled**2, axis=1)
        K = np.exp(-(sq[:, None] + sq[None, :] - 2 * pooled @ pooled.T) / 2.0)
        observed = diagnostics.mmd(pooled[:500], pooled[500:], kernel=1.0)
        null = []
        for _ in range(200):
            perm = rng.permutation(1000)
            null.append(_mmd_from_gram(K, perm[:500], perm[500:]))
        assert abs(observed) <= 4 * np.std(null)

    def test_separated_distributions_detected(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=500)
        y = rng.normal(size=500) + 2.0
        assert diagnostics.mmd(x, y) > 0.1

    @pytest.mark.parametrize("shape", [(300,), (200, 2), (150, 3)])
    def test_default_bandwidth_is_the_median_heuristic(self, shape):
        # the dense median of all pooled pair distances, of the documented
        # subsample above gp._MEDIAN_INPUTS pooled points (600 for (300,)),
        # and the RBF Gram of all of them
        rng = np.random.default_rng(4)
        x = rng.gamma(2.0, size=shape)
        y = rng.gamma(2.5, size=shape)
        pooled = np.vstack([x.reshape(shape[0], -1), y.reshape(shape[0], -1)])
        sq = np.sum(pooled**2, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * pooled @ pooled.T, 0.0)
        n, n0 = 2 * shape[0], gp._MEDIAN_INPUTS
        rows = np.sort(np.random.default_rng(0).choice(n, n0, replace=False)) if n > n0 else None
        sub = d2 if rows is None else d2[np.ix_(rows, rows)]
        bandwidth = np.median(np.sqrt(sub[np.triu_indices_from(sub, k=1)]))
        K = np.exp(-d2 / (2.0 * bandwidth**2))
        m = shape[0]
        expected = _mmd_from_gram(K, np.arange(m), np.arange(m, 2 * m))
        assert diagnostics.mmd(x, y) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_row_blocks_sum_the_whole_gram(self):
        # sizes that straddle the blocks of _GRAM_ROWS rows
        rng = np.random.default_rng(5)
        x = rng.normal(size=(600, 2))
        y = rng.normal(size=(700, 2)) + 0.3
        pooled = np.vstack([x, y])
        sq = np.sum(pooled**2, axis=1)
        K = np.exp(-np.maximum(sq[:, None] + sq[None, :] - 2.0 * pooled @ pooled.T, 0.0) / 2.0)
        expected = _mmd_from_gram(K, np.arange(600), np.arange(600, 1300))
        assert diagnostics.mmd(x, y, kernel=1.0) == pytest.approx(expected, rel=1e-12, abs=1e-15)

    def test_memory_at_the_sweep_default_size(self):
        # 2000 points a side, the distance_sweep default: the whole pooled
        # Gram matrix took 244 MiB, one block of rows takes 8 MB
        rng = np.random.default_rng(6)
        x, y = rng.normal(size=2000), rng.normal(size=2000) + 0.1
        tracemalloc.start()
        try:
            diagnostics.mmd(x, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 24 * 2**20

    def test_non_positive_bandwidth_is_invalid_params(self):
        # a zero bandwidth divided by zero
        with pytest.raises(InvalidParams):
            diagnostics.mmd(np.zeros(3), np.ones(3), kernel=0.0)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            diagnostics.mmd(np.zeros((10, 2)), np.zeros((10, 3)))

    def test_one_point_set_is_invalid_params(self):
        # raised a bare ValueError
        with pytest.raises(InvalidParams):
            diagnostics.mmd(np.zeros((1, 1)), np.zeros((3, 1)))


class TestEssSample:
    def test_determinism(self):
        prior = (np.zeros(2), np.eye(2))
        lik = lambda f: -0.5 * float(np.sum(f**2))
        a = diagnostics.ess_sample(prior, lik, 200, seed=7)
        b = diagnostics.ess_sample(prior, lik, 200, seed=7)
        assert np.array_equal(a, b)
        assert a.shape == (200, 2)

    def test_prior_covariance_must_be_pd(self):
        with pytest.raises(NotPositiveDefinite):
            diagnostics.ess_sample(
                (np.zeros(2), np.array([[1.0, 2.0], [2.0, 1.0]])), lambda f: 0.0, 10
            )

    def test_impossible_likelihood_does_not_converge(self):
        with pytest.raises(NonConvergence):
            diagnostics.ess_sample(
                (np.zeros(1), np.eye(1)), lambda f: -np.inf, 5, seed=0
            )

    def test_constant_likelihood_recovers_prior(self):
        mean = np.array([1.0, -1.0])
        cov = np.array([[1.0, 0.3], [0.3, 2.0]])
        draws = diagnostics.ess_sample((mean, cov), lambda f: 0.0, 10**4, seed=0)
        se = _batch_se(draws)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se)
        emp = np.cov(draws.T)
        assert abs(emp[0, 0] - 1.0) < 0.15 and abs(emp[1, 1] - 2.0) < 0.3

    def test_conjugate_1d_posterior(self):
        # N(0,1) prior, one observation y=1 with unit noise: posterior N(1/2, 1/2)
        lik = lambda f: -0.5 * float((1.0 - f[0]) ** 2)
        draws = diagnostics.ess_sample(
            (np.zeros(1), np.eye(1)), lik, 10**4, burn_in=500, seed=1
        )
        se = _batch_se(draws)[0]
        assert abs(draws.mean() - 0.5) < 4 * se
        assert abs(draws.var() - 0.5) < 0.1

    def test_gaussian_approx_prior_accepted(self):
        g = GaussianApprox(np.zeros(2), np.eye(2))
        draws = diagnostics.ess_sample(g, lambda f: 0.0, 500, seed=2)
        assert draws.shape == (500, 2)

    def test_three_point_gp_regression_analytic(self):
        X = np.array([0.0, 1.0, 2.0])
        y = np.array([1.0, 0.0, -1.0])
        K = gp.RBF(1.0, 1.0)(X, X)
        noise = 0.5
        S = K + noise * np.eye(3)
        target_mean = K @ np.linalg.solve(S, y)
        lik = lambda f: -0.5 * float(np.sum((y - f) ** 2)) / noise
        draws = diagnostics.ess_sample(
            (np.zeros(3), K), lik, 2 * 10**4, burn_in=1000, seed=11
        )
        se = _batch_se(draws)
        assert np.all(np.abs(draws.mean(axis=0) - target_mean) < 4 * se)


class TestDefaultGrid:
    def test_grids_have_ten_points(self):
        for family in distributions.FAMILIES:
            grid = diagnostics.default_grid(family)
            assert len(grid) == 10
            assert all(p.family == family for p in grid)

    def test_exponential_grid_values(self):
        lams = [p.lam for p in diagnostics.default_grid("exponential")]
        assert lams == [float(v) for v in range(1, 11)]

    def test_unknown_family(self):
        with pytest.raises(InvalidParams):
            diagnostics.default_grid("poisson")


class TestDistanceSweep:
    def test_unknown_family_is_invalid_params(self):
        # raised a bare ValueError
        with pytest.raises(InvalidParams):
            diagnostics.distance_sweep("poisson")

    def test_unknown_metric_is_rejected_before_any_work(self, monkeypatch):
        # the sweep ran and wrote "error: unknown metric" into every cell
        monkeypatch.setattr(diagnostics, "_sweep_row", lambda *a: pytest.fail("swept"))
        with pytest.raises(InvalidParams, match="'foo'"):
            diagnostics.distance_sweep("gamma", metrics=("kl", "foo"))

    def test_exponential_identity_rows_invalid(self):
        report = diagnostics.distance_sweep(
            "exponential", metrics=("kl",), n=2000, seed=0
        )
        assert len(report.rows) == 30  # 10 grid points x 3 bases
        for row in report.long_rows():
            if row["basis"] == "identity":
                assert row["value"] is None
                assert row["status"].startswith("invalid")
            else:
                assert row["status"] == "ok"
                assert np.isfinite(row["value"])

    def test_gamma_validity_frontier(self):
        report = diagnostics.distance_sweep("gamma", metrics=("kl",), n=2000, seed=0)
        by_key = {(r["grid_index"], r["basis"]): r for r in report.long_rows()}
        # alpha = 0.5 at grid 0: no standard-basis mode, sqrt outside validity
        assert by_key[(0, "identity")]["status"].startswith("invalid")
        assert by_key[(0, "sqrt")]["status"].startswith("invalid")
        assert by_key[(0, "log")]["status"] == "ok"
        for gi in range(1, 10):
            assert by_key[(gi, "identity")]["status"] == "ok"
            assert by_key[(gi, "sqrt")]["status"] == "ok"

    def test_seed_and_jobs_determinism(self):
        kw = dict(metrics=("kl", "mmd"), n=1500, mmd_points=150, seed=3)
        a = diagnostics.distance_sweep("beta", **kw)
        b = diagnostics.distance_sweep("beta", **kw)
        assert a.long_rows() == b.long_rows()
        c = diagnostics.distance_sweep("beta", jobs=3, **kw)
        assert a.long_rows() == c.long_rows()

    def test_wide_table_layout(self):
        report = diagnostics.distance_sweep(
            "exponential",
            grid=[distributions.exponential(1.0)],
            bases=("log", "sqrt"),
            metrics=("kl",),
            n=1000,
            seed=0,
        )
        header, lines = report.wide_table()
        assert header == ["grid_index", "log.kl", "sqrt.kl"]
        assert len(lines) == 1
        assert lines[0][0] == 0
        assert all(np.isfinite(v) for v in lines[0][1:])

    def test_record_is_json_ready(self):
        report = diagnostics.distance_sweep(
            "beta", metrics=("kl",), n=1000, seed=0
        )
        text = json.dumps(report.to_record())
        assert "grid" in json.loads(text)

    def test_matrix_family_sweep_smoke(self):
        report = diagnostics.distance_sweep(
            "wishart",
            grid=diagnostics.default_grid("wishart")[:2],
            metrics=("kl",),
            n=3000,
            seed=0,
        )
        ok = [r for r in report.long_rows() if r["status"] == "ok"]
        assert any(r["basis"] == "matrix_log" for r in ok)
        # wishart grid 0 has n = 2.5 <= p + 1 = 3: no standard-basis Laplace
        first = {(r["grid_index"], r["basis"]): r for r in report.long_rows()}
        assert first[(0, "identity")]["status"].startswith("invalid")


# ---------------------------------------------------------------------------
# the oracle rows and mc_kl against the working coordinates that the
# structure-tagged record gave (verbatim copies of its accessors, on the
# data it stored), and the one-item forward against the bridge arrays

CATALOGUE = [(f, t) for f, tags in transforms.FAMILY_BASES.items() for t in tags]


def _one_item(params):
    names = distributions.param_fields(params.family)
    return {n: np.asarray(getattr(params, n))[None] for n in names}


def _former_record(params, tag):
    """(mean, cov, latent mean, latent cov) of the closed form as the former
    record held them: its mean and `cov_dense()`, and its working
    coordinates (`gauss_latent`). Raises what `lm_forward` raises."""
    fam = params.family
    if tag == "identity":
        g = bridges.standard_laplace(params)
        if fam in distributions._SCALAR_FAMILIES:  # "scalar" structure
            mean, cov = np.array([g.mu]), np.array([[g.var]])
            return mean, cov, mean.copy(), cov
        if fam == "dirichlet":  # "diagonal", uncentered simplex
            a = params.alpha
            s = np.sum(a) - a.size
            mean, S = (a - 1.0) / s, np.diag((a - 1.0) / s**2)
            s1 = S @ np.ones(S.shape[0])
            denom = float(np.sum(s1))
            C = S - np.outer(s1, s1) / denom
            return mean, S, mean[:-1].copy(), C[:-1, :-1].copy()
        dof, scale = (getattr(params, name) for name in distributions.param_fields(fam))
        mu, data = bridges._matrix_forward(fam, "identity", np.asarray(dof), scale)
    else:
        mu, data = (v[0] for v in bridges.forward_arrays(fam, tag, **_one_item(params)))
        if fam in distributions._SCALAR_FAMILIES:
            mean, cov = np.array([float(mu)]), np.array([[float(data)]])
            return mean, cov, mean.copy(), cov
    data = 0.5 * (data + data.T)  # the "dense" structure's symmetrization
    if fam == "dirichlet":  # centered simplex
        return mu, data, mu[:-1].copy(), np.array(data)[:-1, :-1].copy()
    p = params.p  # "symmetric_matrix": the mean stored as unvech(mu).ravel()
    stored = matrixops.unvech(mu, p).ravel()
    vech_mean = matrixops.vech(stored.reshape(p, p).copy())
    return vech_mean, data, vech_mean, np.array(data)


class TestFormerRecordReference:
    @pytest.mark.parametrize("family, tag", [c for c in CATALOGUE if c[1] != "identity"])
    def test_lm_forward_is_the_one_item_forward_arrays(self, family, tag):
        for params in diagnostics.default_grid(family):
            try:
                mu, cov = bridges.forward_arrays(family, tag, **_one_item(params))
            except OutsideValidityRegion:
                with pytest.raises(OutsideValidityRegion):
                    bridges.lm_forward(params, tag)
                continue
            g = bridges.lm_forward(params, tag)
            if family in distributions._SCALAR_FAMILIES:
                mu, cov = mu[:, None], cov[:, None, None]
            assert np.array_equal(g.mean, mu[0]) and np.array_equal(g.cov, cov[0])

    def test_oracle_rows(self):
        rows = diagnostics.oracle_rows(distributions.FAMILIES)
        assert len(rows) == 10 * len(CATALOGUE)
        for family, tag, gi, fwd_dev, rt_dev, status in rows:
            params = diagnostics.default_grid(family)[gi]
            basis = transforms.resolve_basis(family, tag, transforms._size_of(params))
            if status.startswith("skipped"):
                with pytest.raises(LaplaceMatchError):
                    _former_record(params, tag)
                    transforms.numeric_laplace(transforms.push_forward(params, basis))
                continue
            mean, cov, mean_c, cov_c = _former_record(params, tag)
            numeric = transforms.numeric_laplace(transforms.push_forward(params, basis))
            mean_n, cov_n = numeric.mean.copy(), numeric.cov_dense()
            want = max(diagnostics._rel_dev(mean_c, mean_n), diagnostics._rel_dev(cov_c, cov_n))
            assert fwd_dev == want, (family, tag, gi)
            if tag == "identity":
                assert rt_dev is None
                continue
            # the former lm_inverse: (mean, [var]) for a scalar record, else
            # the chart-free mean and covariance with a leading axis
            if family in distributions._SCALAR_FAMILIES:
                fields = bridges.inverse_arrays(family, tag, mean, np.array([cov[0, 0]]))
            else:
                fields = bridges.inverse_arrays(family, tag, mean[None], cov[None])
            back = distributions.from_record(
                {"family": family, **{k: v[0] for k, v in fields.items()}}
            )
            want = max(
                diagnostics._rel_dev(getattr(back, name), getattr(params, name))
                for name in distributions.param_fields(family)
            )
            assert rt_dev == want, (family, tag, gi)

    # the exponential density has no interior mode: no identity row to check
    @pytest.mark.parametrize(
        "family, tag", [c for c in CATALOGUE if c != ("exponential", "identity")]
    )
    def test_mc_kl(self, family, tag):
        valid = [g for g in diagnostics.default_grid(family) if bridges.bridge_valid(g, tag)]
        params, n, seed = valid[0], 400, 3
        got = diagnostics.mc_kl(params, tag, n=n, seed=seed)
        # the former mc_kl body, with the former working coordinates
        basis = transforms.resolve_basis(family, tag, transforms._size_of(params))
        z = diagnostics.latent_samples(params, basis, n, seed)
        logp = np.asarray(transforms.push_forward(params, basis).log_density(z), dtype=float)
        _, _, mean, cov = _former_record(params, tag)
        diff = logp - diagnostics._gauss_logpdf(z, mean, cov)
        diff = diff[np.isfinite(diff)]
        want = float(np.mean(diff)), float(np.std(diff, ddof=1) / np.sqrt(diff.size))
        assert got == want
