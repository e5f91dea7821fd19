"""Latent-space GP: kernels, fit/predict/sample, k-means++ inducing sites."""

import numpy as np
import pytest

from laplace_match import bridges, distributions, gp, pipeline
from laplace_match.errors import DimensionMismatch, NotPositiveDefinite


class TestKernels:
    def test_rbf_unit_diagonal(self):
        k = gp.RBF(lengthscale=1.0, variance=1.0)
        X = np.array([0.0, 0.7, -2.0])
        np.testing.assert_allclose(np.diag(k(X, X)), np.ones(3), atol=1e-15)

    def test_rbf_pinned_value(self):
        k = gp.RBF(lengthscale=1.0, variance=1.0)
        assert k(np.array([0.0]), np.array([1.0]))[0, 0] == pytest.approx(
            np.exp(-0.5), abs=1e-15
        )

    def test_rbf_lengthscale_scaling(self):
        k = gp.RBF(lengthscale=2.0, variance=3.0)
        assert k(np.array([0.0]), np.array([2.0]))[0, 0] == pytest.approx(
            3.0 * np.exp(-0.5), abs=1e-14
        )

    def test_rational_quadratic_large_alpha_limits_to_rbf(self):
        rq = gp.RationalQuadratic(lengthscale=1.3, alpha=1e7, variance=1.0)
        rbf = gp.RBF(lengthscale=1.3, variance=1.0)
        X = np.linspace(-2, 2, 7)
        np.testing.assert_allclose(rq(X, X), rbf(X, X), atol=1e-6)

    def test_linear_kernel(self):
        k = gp.Linear(variance=2.0, offset=1.0)
        assert k(np.array([3.0]), np.array([4.0]))[0, 0] == pytest.approx(25.0)

    def test_lookup_table_validation(self):
        with pytest.raises(NotPositiveDefinite):
            gp.LookupTable(np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(ValueError):
            gp.LookupTable(np.array([[1.0, 0.5], [0.4, 1.0]]))
        k = gp.LookupTable(np.eye(3) + 0.5)
        with pytest.raises(ValueError):
            k(np.array([0.0, 3.0]), None)

    def test_triple_product_with_lookup(self):
        # joint inputs (x, code): smooth in x, table-coupled across codes
        kx = gp.RBF(lengthscale=1.0, variance=1.0, dims=(0,))
        kc = gp.LookupTable(np.eye(2) + 0.5, dim=1)
        kl = gp.Linear(variance=1.0, offset=1.0, dims=(0,))
        triple = gp.Product(kx, kc, kl)
        X = np.array([[0.0, 0], [1.0, 1], [2.0, 0]])
        G = triple(X, X)
        manual = kx(X, X) * kc(X, X) * kl(X, X)
        np.testing.assert_allclose(G, manual, atol=1e-14)
        assert G[0, 1] == pytest.approx(np.exp(-0.5) * 0.5 * 1.0, abs=1e-14)

    def test_sum_and_operator_sugar(self):
        a = gp.RBF(lengthscale=1.0)
        b = gp.Linear(variance=0.5)
        X = np.linspace(0, 1, 4)
        np.testing.assert_allclose((a + b)(X, X), a(X, X) + b(X, X), atol=1e-14)
        np.testing.assert_allclose((a * b)(X, X), a(X, X) * b(X, X), atol=1e-14)

    def test_kernel_records(self):
        k = gp.Product(gp.RBF(lengthscale=2.0, dims=(0,)), gp.LookupTable(np.eye(2), dim=1))
        rec = k.to_record()
        assert rec["kernel"] == "product"
        assert rec["terms"][0]["kernel"] == "rbf"

    def test_median_lengthscale(self):
        assert gp.median_lengthscale(np.array([0.0, 1.0, 3.0])) == pytest.approx(2.0)
        assert gp.median_lengthscale(np.array([5.0])) == 1.0


class TestCholJitter:
    def test_pd_needs_no_jitter(self):
        L, jitter = gp.chol_with_jitter(np.diag([2.0, 3.0]))
        assert jitter == 0.0
        np.testing.assert_allclose(L @ L.T, np.diag([2.0, 3.0]), atol=1e-14)

    def test_psd_climbs_ladder(self):
        A = np.ones((3, 3))  # rank one
        L, jitter = gp.chol_with_jitter(A)
        assert jitter > 0.0
        np.testing.assert_allclose(L @ L.T, A, atol=1e-5)

    def test_indefinite_fails(self):
        with pytest.raises(NotPositiveDefinite):
            gp.chol_with_jitter(np.diag([1.0, -1.0]))


class TestFitPredict:
    def test_single_point_pinned(self):
        model = gp.gp_fit(gp.RBF(1.0, 1.0), np.array([0.0]), np.array([2.0]), 1.0)
        mean, var = gp.gp_predict(model, np.array([0.0]))
        assert mean[0] == pytest.approx(1.0, abs=1e-12)
        assert var[0] == pytest.approx(0.5, abs=1e-12)

    def test_noise_free_interpolation(self):
        X = np.array([0.0, 1.0, 2.5])
        mu = np.array([1.0, -0.5, 2.0])
        model = gp.gp_fit(gp.RBF(1.0, 1.0), X, mu, 0.0)
        mean, var = gp.gp_predict(model, X)
        np.testing.assert_allclose(mean, mu, atol=1e-6)
        assert np.all(var < 1e-6)

    def test_empty_returns_prior(self):
        model = gp.gp_fit(gp.RBF(1.0, 2.0), np.zeros(0), np.zeros(0), 1.0)
        mean, var = gp.gp_predict(model, np.array([0.0, 5.0]))
        np.testing.assert_array_equal(mean, [0.0, 0.0])
        np.testing.assert_allclose(var, [2.0, 2.0], atol=1e-15)

    def test_far_query_reverts_to_prior(self):
        model = gp.gp_fit(gp.RBF(1.0, 1.5), np.array([0.0]), np.array([3.0]), 0.1)
        near, _ = gp.gp_predict(model, np.array([0.0]))
        assert near[0] > 2.5
        mean, var = gp.gp_predict(model, np.array([20.0]))
        assert mean[0] == pytest.approx(0.0, abs=1e-6)
        assert var[0] == pytest.approx(1.5, abs=1e-6)

    def test_posterior_variance_bounded_by_prior(self):
        rng = np.random.default_rng(0)
        X = rng.uniform(0, 5, size=12)
        mu = rng.normal(size=12)
        kernel = gp.RBF(0.7, 2.0)
        model = gp.gp_fit(kernel, X, mu, 0.3)
        Xq = np.linspace(-1, 6, 40)
        _, var = gp.gp_predict(model, Xq)
        prior = np.diag(kernel(Xq, Xq))
        assert np.all(var <= prior + 1e-10)

    def test_noise_doubling_monotone(self):
        X = np.array([0.0, 1.0, 2.0])
        mu = np.array([1.0, 0.0, -1.0])
        kernel = gp.RBF(1.0, 1.0)
        q = np.linspace(0, 2, 9)
        _, v1 = gp.gp_predict(gp.gp_fit(kernel, X, mu, 0.5), q)
        _, v2 = gp.gp_predict(gp.gp_fit(kernel, X, mu, 1.0), q)
        assert np.all(v2 >= v1 - 1e-12)

    def test_block_noise_equals_dense(self):
        X = np.array([0.0, 0.5, 3.0])
        mu = np.array([1.0, 1.2, -0.3])
        block_a = np.array([[0.5, 0.2], [0.2, 0.8]])
        block_b = np.array([[0.4]])
        dense = np.zeros((3, 3))
        dense[:2, :2] = block_a
        dense[2, 2] = block_b[0, 0]
        kernel = gp.RBF(1.0, 1.0)
        q = np.linspace(-1, 4, 11)
        m1, v1 = gp.gp_predict(gp.gp_fit(kernel, X, mu, [block_a, block_b]), q)
        m2, v2 = gp.gp_predict(gp.gp_fit(kernel, X, mu, dense), q)
        np.testing.assert_allclose(m1, m2, atol=1e-10)
        np.testing.assert_allclose(v1, v2, atol=1e-10)

    def test_heteroskedastic_vector_noise(self):
        X = np.array([0.0, 1.0])
        mu = np.array([2.0, 2.0])
        model = gp.gp_fit(gp.RBF(1.0, 1.0), X, mu, np.array([0.01, 100.0]))
        mean, _ = gp.gp_predict(model, np.array([0.0]))
        # the tight observation dominates
        assert abs(mean[0] - 2.0) < 0.1

    def test_refit_bit_identical(self):
        X = np.array([0.0, 1.0, 2.0])
        mu = np.array([0.5, 0.1, -0.2])
        a = gp.gp_fit(gp.RBF(1.0, 1.0), X, mu, 0.2)
        b = gp.gp_fit(gp.RBF(1.0, 1.0), X, mu, 0.2)
        q = np.linspace(0, 2, 5)
        ma, va = gp.gp_predict(a, q)
        mb, vb = gp.gp_predict(b, q)
        assert np.array_equal(ma, mb) and np.array_equal(va, vb)

    def test_jitter_recorded(self):
        X = np.array([0.0, 1e-9])  # nearly duplicated inputs, singular gram
        mu = np.array([1.0, 1.0])
        model = gp.gp_fit(gp.RBF(1.0, 1.0), X, mu, 0.0)
        assert model.jitter > 0.0
        clean = gp.gp_fit(gp.RBF(1.0, 1.0), np.array([0.0, 5.0]), np.array([1.0, 0.0]), 0.5)
        assert clean.jitter == 0.0

    def test_width_blocks_are_the_joint_diagonal_blocks(self):
        kernel = gp.Product(gp.RBF(1.0, 1.0, dims=(0,)), gp.LookupTable(np.eye(2) + 0.5, dim=1))
        X = np.array([[0.0, 0.0], [0.0, 1.0], [1.5, 0.0], [1.5, 1.0]])
        q = np.array([[0.4, 0.0], [0.4, 1.0], [2.0, 0.0], [2.0, 1.0], [9.0, 0.0], [9.0, 1.0]])
        for model in (
            gp.gp_fit(kernel, X, np.array([1.0, -0.5, 0.3, 0.2]), 0.1),
            gp.gp_fit(kernel, [], [], []),  # the prior
        ):
            mean, cov = gp.gp_predict(model, q, want_cov=True)
            bmean, blocks = gp.gp_predict(model, q, width=2)
            assert np.array_equal(bmean, mean) and blocks.shape == (3, 2, 2)
            for i in range(3):
                np.testing.assert_allclose(
                    blocks[i], cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2], rtol=0, atol=1e-12
                )
        with pytest.raises(DimensionMismatch):
            gp.gp_predict(model, q[:5], width=2)

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            gp.gp_fit(gp.RBF(), np.array([0.0, 1.0]), np.array([1.0]), 0.1)
        with pytest.raises(DimensionMismatch):
            gp.gp_fit(gp.RBF(), np.array([0.0, 1.0]), np.ones(2), np.ones((3, 3)))


class TestSampling:
    def test_seed_determinism(self):
        model = gp.gp_fit(gp.RBF(1.0, 1.0), np.array([0.0]), np.array([1.0]), 0.5)
        q = np.linspace(0, 3, 6)
        a = gp.gp_sample(model, q, seed=3, count=4)
        b = gp.gp_sample(model, q, seed=3, count=4)
        assert np.array_equal(a, b)
        c = gp.gp_sample(model, q, seed=4, count=4)
        assert not np.array_equal(a, c)

    def test_zero_covariance_returns_mean_exactly(self):
        X = np.array([0.0, 2.0])
        mu = np.array([1.5, -0.5])
        model = gp.gp_fit(gp.RBF(1.0, 1.0), X, mu, 0.0)
        draws = gp.gp_sample(model, X, seed=0, count=8)
        mean, _ = gp.gp_predict(model, X)
        assert np.max(np.abs(draws - mean)) < 1e-6

    def test_sample_moments_match_posterior(self):
        model = gp.gp_fit(
            gp.RBF(1.0, 1.0), np.array([0.0, 1.0]), np.array([1.0, 0.0]), 0.3
        )
        q = np.array([0.25, 0.75])
        mean, cov = gp.gp_predict(model, q, want_cov=True)
        n = 10**5
        draws = gp.gp_sample(model, q, seed=5, count=n)
        se_mean = np.sqrt(np.diag(cov) / n)
        assert np.all(np.abs(draws.mean(axis=0) - mean) < 4 * se_mean)
        emp = np.cov(draws.T)
        for i in range(2):
            for j in range(2):
                se_cov = np.sqrt((cov[i, i] * cov[j, j] + cov[i, j] ** 2) / n)
                assert abs(emp[i, j] - cov[i, j]) < 4 * se_cov


def _inducing_fields(X, Y, k, family, **config):
    """Cluster centers, folded per-cluster parameter fields and the basis of
    the pipeline's inducing sites (seed 0)."""
    cfg = pipeline.LMGPConfig(family, inducing=k, **config)
    data = pipeline.Dataset(X, Y)
    basis = cfg.resolve_basis(data.Y)
    centers, total, count = pipeline._sites(data, cfg)
    width = pipeline._basis_width(basis, family)
    prior = pipeline._prior_fields(cfg, basis, width, centers, None)
    return centers, distributions.conjugate_fields(family, prior, total, count), basis


class TestInducing:
    def test_kmeanspp_separated_blobs(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0.0, 0.1, size=(20, 2))
        b = rng.normal(10.0, 0.1, size=(20, 2))
        X = np.vstack([a, b])
        centers, assign, _ = gp.kmeanspp(X, 2, seed=0)
        order = np.argsort(centers[:, 0])
        np.testing.assert_allclose(centers[order[0]], a.mean(axis=0), atol=0.01)
        np.testing.assert_allclose(centers[order[1]], b.mean(axis=0), atol=0.01)
        assert len(set(assign[:20])) == 1 and len(set(assign[20:])) == 1

    def test_kmeanspp_bounds(self):
        with pytest.raises(ValueError):
            gp.kmeanspp(np.zeros((3, 1)), 4)

    def test_single_cluster_folds_counts(self):
        X = np.array([0.0, 0.1, 0.2])
        Y = np.array([1.0, 1.0, 0.0])
        centers, theta, basis = _inducing_fields(X, Y, 1, "beta")
        assert centers.shape[0] == 1
        assert theta["alpha"] == pytest.approx(2.01, abs=1e-12)
        assert theta["beta"] == pytest.approx(1.01, abs=1e-12)
        mu, _ = bridges.forward_arrays("beta", basis.tag, **theta)
        assert np.isfinite(mu[0])

    def test_k_equals_n_gives_singletons(self):
        X = np.array([0.0, 1.0, 2.0, 3.0])
        Y = np.array([1.0, 0.0, 1.0, 1.0])
        centers, theta, _ = _inducing_fields(X, Y, 4, "beta", epsilon_a=0.01)
        assert centers.shape[0] == 4
        _, assignments, _ = gp.kmeanspp(X, 4, seed=0)
        assert sorted(assignments.tolist()) == [0, 1, 2, 3]
        for j in range(4):
            member = int(np.flatnonzero(assignments == j)[0])
            expected_alpha = 0.01 + Y[member]
            assert theta["alpha"][j] == pytest.approx(expected_alpha, abs=1e-12)

    def test_dirichlet_counts_sum_within_cluster(self):
        X = np.array([0.0, 0.05])
        Y = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 1.0]])
        _, theta, _ = _inducing_fields(X, Y, 1, "dirichlet", dirichlet_prior=1.0)
        np.testing.assert_allclose(theta["alpha"][0], [5.0, 4.0, 2.0], atol=1e-12)
