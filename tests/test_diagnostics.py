"""Distance estimators, the ESS baseline sampler, and the sweep driver."""

import json

import numpy as np
import pytest

from laplace_match import bridges, diagnostics, distributions, gp, transforms
from laplace_match.errors import (
    DimensionMismatch,
    InvalidParams,
    NonConvergence,
    NotPositiveDefinite,
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
            diagnostics.mc_kl(p, gauss=scalar_gaussian(0.0, 1.0), n=100)
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
        "p, q",
        [
            (scalar_gaussian(0.0, 1.0), scalar_gaussian(1.0, 2.0)),
            (
                bridges.lm_forward(distributions.dirichlet([2.0, 1.0, 1.5]), "softmax_inverse"),
                bridges.lm_forward(distributions.dirichlet([3.0, 1.0, 1.0]), "softmax_inverse"),
            ),
            (
                bridges.lm_forward(distributions.wishart(4.0, V0), "matrix_log"),
                bridges.lm_forward(distributions.wishart(6.0, V0), "matrix_log"),
            ),
        ],
    )
    def test_gaussian_branch_matches_the_per_sample_solves(self, monkeypatch, p, q):
        got = diagnostics.mc_kl(p, gauss=q, n=5000, seed=2)
        monkeypatch.setattr(diagnostics, "_gauss_logpdf", self._per_sample_logpdf)
        want = diagnostics.mc_kl(p, gauss=q, n=5000, seed=2)
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
        mean, cov = diagnostics.gauss_latent(g)
        assert mean.shape == (2,) and cov.shape == (2, 2)
        m = bridges.lm_forward(distributions.wishart(4.0, V0), "matrix_log")
        mean, cov = diagnostics.gauss_latent(m)
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
        # the dense median of all pooled pair distances, and its RBF Gram
        rng = np.random.default_rng(4)
        x = rng.gamma(2.0, size=shape)
        y = rng.gamma(2.5, size=shape)
        pooled = np.vstack([x.reshape(shape[0], -1), y.reshape(shape[0], -1)])
        sq = np.sum(pooled**2, axis=1)
        d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * pooled @ pooled.T, 0.0)
        bandwidth = np.median(np.sqrt(d2[np.triu_indices_from(d2, k=1)]))
        K = np.exp(-d2 / (2.0 * bandwidth**2))
        m = shape[0]
        expected = _mmd_from_gram(K, np.arange(m), np.arange(m, 2 * m))
        assert diagnostics.mmd(x, y) == pytest.approx(expected, rel=1e-12, abs=1e-15)

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
        g = GaussianApprox(np.zeros(2), "dense", np.eye(2))
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
