"""End-to-end latent-GP pipelines and the reporting metrics."""

import numpy as np
import pytest
from scipy import stats

from laplace_match import distributions, gp, pipeline
from laplace_match.errors import (
    DimensionMismatch,
    EmptyDataset,
    IndexOutOfRange,
    InvalidParams,
    NegativeRate,
)


def _binary_data(n=20, seed=0):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(0.0, 4.0, size=n))
    labels = (X > 2.0).astype(float)
    return pipeline.Dataset(X, labels)


def _count_data(n=15, seed=1):
    rng = np.random.default_rng(seed)
    X = np.sort(rng.uniform(0.0, 4.0, size=n))
    counts = rng.poisson(np.exp(1.0 + np.sin(X))).astype(float)
    return pipeline.Dataset(X, counts)


def _categorical_data(t=5, K=3, seed=2):
    rng = np.random.default_rng(seed)
    X = np.arange(float(t))
    logits = rng.normal(size=(t, K))
    P = np.exp(logits) / np.exp(logits).sum(axis=1, keepdims=True)
    Y = np.stack([rng.multinomial(30, P[i]).astype(float) for i in range(t)])
    return pipeline.Dataset(X, Y)


def _covariance_data(t=4, p=2, seed=3):
    rng = np.random.default_rng(seed)
    X = np.arange(float(t))
    base = np.array([[1.5, 0.4], [0.4, 1.0]])
    Y = np.stack([
        sum(np.outer(v, v) for v in rng.multivariate_normal(np.zeros(p), base, size=6))
        for _ in range(t)
    ])
    return pipeline.Dataset(X, Y)


def _stripped_record(pred):
    rec = pred.to_record()
    rec.pop("timings")
    return rec


class TestConfigAndDataset:
    def test_dataset_alignment(self):
        with pytest.raises(DimensionMismatch):
            pipeline.Dataset(np.zeros(3), np.zeros(2))

    def test_config_validation(self):
        with pytest.raises(InvalidParams):
            pipeline.LMGPConfig("exponential")
        with pytest.raises(InvalidParams):
            pipeline.LMGPConfig("beta", epsilon_a=0.0)
        with pytest.raises(InvalidParams):
            pipeline.LMGPConfig("beta", version="v3")

    def test_replace_and_record(self):
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(2.0), seed=7)
        v2 = cfg.replace(version="v2")
        assert v2.version == "v2" and v2.seed == 7 and cfg.version == "v1"
        rec = cfg.to_record()
        assert rec["family"] == "beta"
        assert rec["kernel"]["kernel"] == "rbf"

    def test_target_validation(self):
        cfg = pipeline.LMGPConfig("beta")
        with pytest.raises(InvalidParams):
            pipeline.lmgp_v1(pipeline.Dataset([0.0], [2.0]), cfg)
        with pytest.raises(InvalidParams):
            pipeline.lmgp_v1(
                pipeline.Dataset([0.0], [-1.0]), pipeline.LMGPConfig("gamma")
            )
        with pytest.raises(InvalidParams):
            pipeline.lmgp_v1(
                pipeline.Dataset([0.0], [1.5]), pipeline.LMGPConfig("gamma")
            )

    def test_draws_must_be_positive(self):
        for draws in (0, -1):
            with pytest.raises(InvalidParams):
                pipeline.LMGPConfig("beta", draws=draws)

    def test_non_finite_inputs_rejected(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(InvalidParams):
                pipeline.Dataset(np.array([[0.0, 1.0], [bad, 2.0]]), np.array([0.0, 1.0]))

    def test_non_finite_targets_rejected(self):
        cases = (
            (_binary_data, "beta"),
            (_count_data, "gamma"),
            (_categorical_data, "dirichlet"),
            (_covariance_data, "inverse_wishart"),
        )
        for make, family in cases:
            data = make()
            for bad in (np.nan, np.inf):
                Y = data.Y.copy()
                Y.flat[0] = bad
                with pytest.raises(InvalidParams):
                    pipeline.lmgp_v1(
                        pipeline.Dataset(data.X, Y), pipeline.LMGPConfig(family, draws=10)
                    )

    def test_empty_dataset(self):
        empty = pipeline.Dataset(np.zeros(0), np.zeros(0))
        with pytest.raises(EmptyDataset):
            pipeline.lmgp_v1(empty, pipeline.LMGPConfig("beta"))


class TestBinaryPipeline:
    def test_separable_train_accuracy(self):
        data = _binary_data()
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(0.5, 4.0), seed=0)
        model, pred = pipeline.lmgp_v1(data, cfg)
        metrics = pipeline.classification_metrics(pred.probabilities, data.Y)
        assert metrics["accuracy"] == 1.0
        assert np.all(pred.probabilities >= 0.0) and np.all(pred.probabilities <= 1.0)

    def test_determinism(self):
        data = _binary_data()
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0, 1.0), seed=5)
        _, a = pipeline.lmgp_v1(data, cfg)
        _, b = pipeline.lmgp_v1(data, cfg)
        assert _stripped_record(a) == _stripped_record(b)

    def test_v1_equals_v2_without_prior(self):
        data = _binary_data()
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0, 1.0), seed=0)
        _, p1 = pipeline.lmgp_v1(data, cfg)
        _, p2 = pipeline.lmgp_v2(data, cfg.replace(version="v2"))
        np.testing.assert_allclose(p1.latent_mean, p2.latent_mean, atol=1e-6)
        np.testing.assert_allclose(p1.probabilities, p2.probabilities, atol=1e-6)

    def test_v2_with_fitted_prior_refines(self):
        data = _binary_data()
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0, 1.0), seed=0)
        prior_model, _ = pipeline.lmgp_v1(data, cfg)
        _, pred = pipeline.lmgp_v2(data, cfg.replace(version="v2"), prior=prior_model)
        assert np.all(np.isfinite(pred.latent_mean))
        metrics = pipeline.classification_metrics(pred.probabilities, data.Y)
        assert metrics["accuracy"] == 1.0

    def test_empty_v2_returns_prior(self):
        empty = pipeline.Dataset(np.zeros(0), np.zeros(0))
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0, 1.5), version="v2")
        model, pred = pipeline.lmgp_v2(empty, cfg, X_query=np.array([0.0, 2.0]))
        np.testing.assert_allclose(pred.latent_mean, np.zeros(2), atol=1e-12)
        np.testing.assert_allclose(pred.latent_cov, np.full(2, 1.5), atol=1e-12)

    def test_inducing_equals_full_at_k_n(self):
        data = _binary_data(n=8)
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0, 1.0), seed=0)
        _, full = pipeline.lmgp_v1(data, cfg)
        _, ind = pipeline.lmgp_v1(data, cfg.replace(inducing=8))
        np.testing.assert_allclose(ind.latent_mean, full.latent_mean, atol=1e-10)
        np.testing.assert_allclose(ind.latent_cov, full.latent_cov, atol=1e-10)

    def test_more_data_shrinks_variance_with_fixed_kernel(self):
        kernel = gp.RBF(1.0, 1.0)
        rng = np.random.default_rng(4)
        X_small = np.array([0.0, 1.0, 2.0])
        X_big = np.array([0.0, 0.5, 1.0, 1.5, 2.0])
        y_small = np.array([0.0, 1.0, 1.0])
        y_big = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        cfg = pipeline.LMGPConfig("beta", kernel=kernel, seed=0)
        q = np.array([0.75])
        _, small = pipeline.lmgp_v1(pipeline.Dataset(X_small, y_small), cfg, X_query=q)
        _, big = pipeline.lmgp_v1(pipeline.Dataset(X_big, y_big), cfg, X_query=q)
        assert big.latent_cov[0] < small.latent_cov[0] + 1e-12

    def test_timing_keys(self):
        _, pred = pipeline.lmgp_v1(
            _binary_data(n=6), pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0))
        )
        assert {"lm_seconds", "fit_seconds", "predict_seconds"} <= set(pred.timings)


class TestCountPipeline:
    def test_rates_and_quantiles_positive(self):
        data = _count_data()
        cfg = pipeline.LMGPConfig("gamma", kernel=gp.RBF(1.0, 1.0), seed=0)
        _, pred = pipeline.lmgp_v1(data, cfg)
        assert np.all(pred.rates > 0.0)
        for key in ("q05", "q25", "q50", "q75", "q95"):
            assert np.all(pred.summary[key] > 0.0)
        metrics = pipeline.count_metrics(
            pred.rates, pred.summary["std"] ** 2, data.Y
        )
        assert np.isfinite(metrics["mnll"]) and metrics["rmse"] >= 0.0

    def test_ef_params_are_gamma(self):
        data = _count_data(n=6)
        _, pred = pipeline.lmgp_v1(
            data, pipeline.LMGPConfig("gamma", kernel=gp.RBF(1.0, 1.0))
        )
        for theta in pred.ef_params:
            assert theta is not None and theta.family == "gamma"
            assert theta.alpha > 0 and theta.lam > 0


class TestCategoricalPipeline:
    def test_probability_rows_sum_to_one(self):
        data = _categorical_data()
        cfg = pipeline.LMGPConfig("dirichlet", seed=0, draws=400)
        _, pred = pipeline.lmgp_v1(data, cfg)
        np.testing.assert_allclose(pred.probabilities.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(pred.probabilities > 0.0)
        assert pred.classes.shape == (data.n,)

    def test_latent_block_shapes(self):
        data = _categorical_data(t=4, K=3)
        _, pred = pipeline.lmgp_v1(data, pipeline.LMGPConfig("dirichlet", draws=100))
        assert pred.latent_mean.shape == (4, 3)
        assert pred.latent_cov.shape == (4, 3, 3)
        assert pred.draws.shape == (100, 4, 3)


class TestCovariancePipeline:
    def test_mean_matrices_near_spd(self):
        data = _covariance_data()
        cfg = pipeline.LMGPConfig("inverse_wishart", seed=0, draws=300)
        _, pred = pipeline.lmgp_v1(data, cfg)
        means = pred.summary["mean"]
        assert means.shape == (data.n, 2, 2)
        for M in means:
            w = np.linalg.eigvalsh(0.5 * (M + M.T))
            assert w[0] >= -1e-10 * np.trace(M)

    def test_v1_equals_v2_without_prior(self):
        data = _covariance_data(t=3)
        cfg = pipeline.LMGPConfig("inverse_wishart", seed=0, draws=50)
        _, p1 = pipeline.lmgp_v1(data, cfg)
        _, p2 = pipeline.lmgp_v2(data, cfg.replace(version="v2"))
        np.testing.assert_allclose(p1.latent_mean, p2.latent_mean, atol=1e-6)


class TestDirichletBetaMarginals:
    def test_uniform_pinned(self):
        m = pipeline.dirichlet_beta_marginals(distributions.dirichlet([1.0, 1.0, 1.0]), 0)
        assert (m.alpha, m.beta) == (1.0, 2.0)

    def test_posterior_pinned(self):
        m = pipeline.dirichlet_beta_marginals(distributions.dirichlet([4.0, 1.0, 2.0]), 2)
        assert (m.alpha, m.beta) == (2.0, 5.0)

    def test_index_range(self):
        with pytest.raises(IndexOutOfRange):
            pipeline.dirichlet_beta_marginals(distributions.dirichlet([1.0, 1.0]), 2)
        with pytest.raises(InvalidParams):
            pipeline.dirichlet_beta_marginals(distributions.beta(1.0, 1.0), 0)

    def test_marginal_matches_sampling(self):
        alpha = [2.0, 1.5, 3.5]
        comp = 1
        marg = pipeline.dirichlet_beta_marginals(distributions.dirichlet(alpha), comp)
        x = distributions.sample(distributions.dirichlet(alpha), seed=8, count=10**5)
        stat = stats.kstest(x[:, comp], stats.beta(marg.alpha, marg.beta).cdf).statistic
        assert stat < 1.63 / np.sqrt(x.shape[0])


class TestClassificationMetrics:
    def test_perfect_predictions(self):
        P = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        out = pipeline.classification_metrics(P, np.array([0, 1, 0]))
        assert out == {"accuracy": 1.0, "mnll": 0.0, "ece": 0.0}

    def test_uniform_binary_mnll(self):
        p = np.full(10, 0.5)
        out = pipeline.classification_metrics(p, np.zeros(10, dtype=int))
        assert out["mnll"] == pytest.approx(np.log(2.0), abs=1e-12)
        # ties resolve to the lowest class index
        assert out["accuracy"] == 1.0

    def test_overconfident_ece(self):
        p1 = np.full(100, 0.9)
        labels = np.array([1, 0] * 50)
        out = pipeline.classification_metrics(p1, labels)
        assert out["accuracy"] == pytest.approx(0.5)
        assert out["ece"] == pytest.approx(0.4, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidParams):
            pipeline.classification_metrics(np.array([[0.6, 0.6]]), np.array([0]))
        with pytest.raises(InvalidParams):
            pipeline.classification_metrics(np.array([[0.5, 0.5]]), np.array([2]))
        with pytest.raises(DimensionMismatch):
            pipeline.classification_metrics(np.array([[0.5, 0.5]]), np.array([0, 1]))


class TestCountMetrics:
    def test_exact_unit_rate(self):
        out = pipeline.count_metrics(np.ones(5), np.full(5, 0.25), np.ones(5))
        assert out["rmse"] == 0.0
        assert out["mnll"] == pytest.approx(1.0, abs=1e-12)
        assert out["in2std"] == 1.0

    def test_negative_rate_rejected(self):
        with pytest.raises(NegativeRate):
            pipeline.count_metrics(np.array([0.0]), np.array([1.0]), np.array([0.0]))

    def test_non_integer_targets_rejected(self):
        with pytest.raises(InvalidParams):
            pipeline.count_metrics(np.array([1.0]), np.array([1.0]), np.array([0.5]))

    def test_coverage_counts_two_sigma(self):
        rates = np.array([1.0, 1.0])
        variances = np.array([0.25, 0.25])
        targets = np.array([2.0, 5.0])  # |err| = 1 <= 1, |err| = 4 > 1
        out = pipeline.count_metrics(rates, variances, targets)
        assert out["in2std"] == pytest.approx(0.5)
