"""End-to-end latent-GP pipelines and the reporting metrics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplace_match import bridges, distributions, gp, pipeline, transforms
from laplace_match.errors import (
    DimensionMismatch,
    EmptyDataset,
    InvalidParams,
    LaplaceMatchError,
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

    @pytest.mark.parametrize(
        "field,value",
        [
            ("epsilon_a", np.nan),
            ("epsilon_a", np.inf),
            ("dirichlet_prior", 0.0),
            ("dirichlet_prior", -1.0),
            ("dirichlet_prior", np.nan),
            ("inducing", 0),
            ("inducing", -2),
            ("inducing", 6),  # more sites than the 5 training points
        ],
    )
    def test_config_boundary(self, field, value):
        family = "dirichlet" if field == "dirichlet_prior" else "beta"
        data = _categorical_data(t=5) if family == "dirichlet" else _binary_data(n=5)
        with pytest.raises(InvalidParams):
            pipeline.lmgp_v1(data, pipeline.LMGPConfig(family, draws=10, **{field: value}))

    @pytest.mark.parametrize("version", ["v1", "v2"])
    @pytest.mark.parametrize("defect", ["asymmetric", "indefinite"])
    def test_bad_scatters_rejected(self, version, defect):
        data = _covariance_data()
        Y = data.Y.copy()
        if defect == "asymmetric":
            Y[1, 0, 1] += 0.5
        else:
            Y[1] = np.diag([1.0, -1.0])
        cfg = pipeline.LMGPConfig("inverse_wishart", draws=10, version=version)
        run = pipeline.lmgp_v1 if version == "v1" else pipeline.lmgp_v2
        with pytest.raises(InvalidParams):
            run(pipeline.Dataset(data.X, Y), cfg)

    @pytest.mark.parametrize("version", ["v1", "v2"])
    def test_basis_size_must_fit_targets(self, version):
        basis = transforms.BasisTransform("softmax_inverse", K=4)
        cfg = pipeline.LMGPConfig("dirichlet", basis=basis, version=version, draws=10)
        run = pipeline.lmgp_v1 if version == "v1" else pipeline.lmgp_v2
        with pytest.raises(DimensionMismatch):
            run(_categorical_data(t=5, K=3), cfg)

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

    def test_inducing_beyond_distinct_inputs_rejected(self):
        X = np.repeat(np.arange(5.0), 4)
        data = pipeline.Dataset(X, (X > 2.0).astype(float))
        with pytest.raises(InvalidParams):
            pipeline.lmgp_v1(data, pipeline.LMGPConfig("beta", inducing=6, draws=10))
        _, pred = pipeline.lmgp_v1(data, pipeline.LMGPConfig("beta", inducing=5, draws=10))
        assert np.all(np.isfinite(pred.latent_mean))

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

    def test_tiny_epsilon_keeps_beta_pseudo_counts_positive(self):
        # eps + 1.0 - Y rounded to 0 at Y = 1 for eps below ~1.1e-16
        data = _binary_data(n=5)
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0, 1.0), epsilon_a=1e-300)
        _, pred = pipeline.lmgp_v1(data, cfg)
        assert np.all(np.isfinite(pred.latent_mean))
        assert np.all((pred.probabilities >= 0.0) & (pred.probabilities <= 1.0))

    def test_tiny_epsilon_inducing_keeps_beta_counts_positive(self):
        # an all-ones cluster folded as eps + count - total rounded to 0
        data = _binary_data(n=20)
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0, 1.0), epsilon_a=1e-300, inducing=4)
        _, pred = pipeline.lmgp_v1(data, cfg)
        assert np.all(np.isfinite(pred.latent_mean))
        assert np.all((pred.probabilities >= 0.0) & (pred.probabilities <= 1.0))

    def test_tiny_epsilon_v2_flat_prior(self):
        # the bridge image of the pseudo-prior Beta(eps, eps) divided by 0
        data = _binary_data(n=5)
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0, 1.0), epsilon_a=1e-300)
        _, v1 = pipeline.lmgp_v1(data, cfg)
        _, v2 = pipeline.lmgp_v2(data, cfg)
        np.testing.assert_array_equal(v2.latent_mean, v1.latent_mean)
        assert np.all((v2.probabilities >= 0.0) & (v2.probabilities <= 1.0))

    def test_timing_keys(self):
        _, pred = pipeline.lmgp_v1(
            _binary_data(n=6), pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0))
        )
        assert {"lm_seconds", "fit_seconds", "predict_seconds"} <= set(pred.timings)


@st.composite
def _site_data(draw, distinct):
    """(family, Dataset, k): 0/1 labels or counts on a half-integer input
    grid, with repeated inputs unless `distinct`, and k in 1..n."""
    family = draw(st.sampled_from(["beta", "gamma"]))
    n = draw(st.integers(1, 8))
    grid = st.integers(-6, 6)
    cells = draw(st.lists(grid, min_size=n, max_size=n, unique=distinct))
    top = 1 if family == "beta" else 50
    Y = draw(st.lists(st.integers(0, top), min_size=n, max_size=n))
    k = n if distinct else draw(st.integers(1, n))
    data = pipeline.Dataset(0.5 * np.array(cells, dtype=float), np.array(Y, dtype=float))
    return family, data, k


def _site_config(family, **updates):
    return pipeline.LMGPConfig(family, kernel=gp.RBF(1.0, 1.0), seed=3, draws=20, **updates)


class TestInducingProperties:
    @given(case=_site_data(distinct=False), eps=st.sampled_from([1e-300, 1e-8, 0.01, 3.0]))
    @settings(max_examples=30, deadline=None)
    def test_output_in_support_or_library_error(self, case, eps):
        family, data, k = case
        try:
            _, pred = pipeline.lmgp_v1(data, _site_config(family, epsilon_a=eps, inducing=k))
        except LaplaceMatchError:
            return
        assert np.all(np.isfinite(pred.latent_mean))
        assert np.all(np.isfinite(pred.latent_cov)) and np.all(pred.latent_cov >= 0.0)
        for value in pred.summary.values():
            assert np.all(np.isfinite(value))
        if family == "beta":
            assert np.all((pred.probabilities >= 0.0) & (pred.probabilities <= 1.0))
        else:
            assert np.all(pred.rates > 0.0)

    @given(case=_site_data(distinct=True))
    @settings(max_examples=20, deadline=None)
    def test_k_equals_n_sites_are_the_plain_sites(self, case):
        family, data, n = case
        plain, _ = pipeline.lmgp_v1(data, _site_config(family))
        sites, _ = pipeline.lmgp_v1(data, _site_config(family, inducing=n))
        a = np.argsort(plain.X[:, 0])
        b = np.argsort(sites.X[:, 0])
        np.testing.assert_array_equal(sites.X[b], plain.X[a])
        np.testing.assert_array_equal(sites.mu[b], plain.mu[a])
        np.testing.assert_array_equal(np.diag(sites.noise)[b], np.diag(plain.noise)[a])


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


_QUERY = np.array([0.5, 2.0, 3.5])


def _predict_at_query(family, seed=3, draws=100):
    """(config, model, prediction) at _QUERY: beta (width 1), Dirichlet K=3
    (width 3) or inverse Wishart p=2 (width 3)."""
    if family == "beta":
        data = _binary_data(n=8)
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0, 1.0), seed=seed, draws=draws)
    elif family == "dirichlet":
        data = _categorical_data(t=5, K=3)
        cfg = pipeline.LMGPConfig("dirichlet", seed=seed, draws=draws)
    else:
        data = _covariance_data(t=4, p=2)
        cfg = pipeline.LMGPConfig("inverse_wishart", seed=seed, draws=draws)
    model, pred = pipeline.lmgp_v1(data, cfg, X_query=_QUERY)
    return cfg, model, pred


class TestPerPointPrediction:
    """Each query point is drawn from its own latent marginal (a variance or a
    w x w block); the joint posterior covariance is never formed."""

    @pytest.mark.parametrize("family", ["beta", "dirichlet"])
    def test_draws_follow_each_points_marginal(self, family):
        n = 40_000
        cfg, _, pred = _predict_at_query(family, draws=n)
        latent = pipeline._sample_marginals(pred.latent_mean, pred.latent_cov, cfg.seed, n)
        np.testing.assert_array_equal(
            pipeline._back_transform(latent, pred.basis, family), pred.draws
        )
        m = _QUERY.size
        mean = pred.latent_mean.reshape(m, -1)
        w = mean.shape[1]
        cov = pred.latent_cov.reshape(m, w, w)
        draws = latent.reshape(n, m, w)
        for i in range(m):
            sd = np.sqrt(np.diag(cov[i]))
            assert np.all(np.abs(draws[:, i].mean(axis=0) - mean[i]) < 4 * sd / np.sqrt(n))
            emp = np.cov(draws[:, i].T).reshape(w, w)
            se_cov = np.sqrt((np.outer(sd**2, sd**2) + cov[i] ** 2) / n)
            assert np.all(np.abs(emp - cov[i]) < 4 * se_cov)

    @pytest.mark.parametrize("family", ["beta", "dirichlet", "inverse_wishart"])
    def test_latent_cov_is_the_diagonal_of_the_joint_covariance(self, family):
        _, model, pred = _predict_at_query(family, draws=10)
        m = _QUERY.size
        w = pred.latent_mean.size // m
        joint = pipeline._joint_inputs(gp._as_inputs(_QUERY), w)
        mean, cov = gp.gp_predict(model, joint, want_cov=True)
        np.testing.assert_array_equal(pred.latent_mean.ravel(), mean)
        blocks = pred.latent_cov.reshape(m, w, w)
        for i in range(m):
            np.testing.assert_allclose(
                blocks[i], cov[i * w : (i + 1) * w, i * w : (i + 1) * w], rtol=0, atol=1e-10
            )

    def test_fitted_prior_marginals_are_the_joint_blocks(self, monkeypatch):
        data = _categorical_data(t=5, K=3)
        cfg = pipeline.LMGPConfig("dirichlet", seed=0, draws=10, version="v2")
        prior_model, _ = pipeline.lmgp_v1(data, cfg)
        basis = cfg.resolve_basis(data.Y)
        # the prior fields are the bridge inverse of the marginals seen here
        pulled = []
        inverse_arrays = bridges.inverse_arrays

        def spy(family, tag, mean, cov):
            pulled.append((mean, cov))
            return inverse_arrays(family, tag, mean, cov)

        monkeypatch.setattr(bridges, "inverse_arrays", spy)
        fields = pipeline._prior_fields(cfg, basis, 3, data.X, prior_model)
        monkeypatch.undo()
        [(mean, blocks)] = pulled
        np.testing.assert_array_equal(
            fields["alpha"], inverse_arrays("dirichlet", basis.tag, mean, blocks)["alpha"]
        )
        joint = pipeline._joint_inputs(data.X, 3)
        full_mean, cov = gp.gp_predict(prior_model, joint, want_cov=True)
        np.testing.assert_array_equal(mean.ravel(), full_mean)
        for i in range(data.n):
            np.testing.assert_allclose(
                blocks[i], cov[3 * i : 3 * i + 3, 3 * i : 3 * i + 3], rtol=0, atol=1e-10
            )
        _, pred = pipeline.lmgp_v2(data, cfg, prior=prior_model)
        np.testing.assert_allclose(pred.probabilities.sum(axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("family", ["beta", "dirichlet", "inverse_wishart"])
    def test_same_seed_same_draws(self, family):
        _, _, a = _predict_at_query(family, seed=7)
        _, _, b = _predict_at_query(family, seed=7)
        _, _, c = _predict_at_query(family, seed=8)
        assert np.array_equal(a.draws, b.draws)
        assert not np.array_equal(a.draws, c.draws)

    @pytest.mark.parametrize("family,basis", [
        ("beta", transforms.LOGIT),
        ("dirichlet", transforms.softmax_inverse(3)),
    ])
    def test_zero_noise_training_point_returns_its_mean(self, family, basis):
        X = gp._as_inputs(np.array([0.0, 2.0]))
        width = pipeline._basis_width(basis, family)
        cfg = pipeline.LMGPConfig(family, draws=8)
        joint = pipeline._joint_inputs(X, width)
        mu = np.random.default_rng(0).normal(size=joint.shape[0])
        model = gp.gp_fit(pipeline._build_kernel(cfg, X, width), joint, mu, 0.0)
        pred = pipeline._predict(model, cfg, basis, width, X, {})
        np.testing.assert_allclose(pred.latent_mean.ravel(), mu, atol=1e-6)
        at_mean = pipeline._back_transform(pred.latent_mean[None], basis, family)
        assert np.max(np.abs(pred.draws - at_mean)) < 1e-6


class TestQueryEFParams:
    def test_batch_matches_pointwise_inverse(self):
        _, pred = pipeline.lmgp_v1(
            _count_data(n=6), pipeline.LMGPConfig("gamma", kernel=gp.RBF(1.0, 1.0))
        )
        reference = [
            bridges.lm_inverse((float(mu), float(var)), "gamma", pred.basis).to_record()
            for mu, var in zip(pred.latent_mean, pred.latent_cov)
        ]
        assert [theta.to_record() for theta in pred.ef_params] == reference

    def test_only_failing_points_get_none(self):
        mean = np.array([0.0, -800.0, 1.0, 0.5])
        var = np.array([0.5, 0.5, 0.0, 0.25])
        ef = pipeline._query_ef_params("gamma", transforms.LOG, mean, var)
        assert ef[1] is None and ef[2] is None
        for i in (0, 3):
            expected = bridges.lm_inverse((mean[i], var[i]), "gamma", "log")
            assert ef[i].to_record() == expected.to_record()


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
