"""Acceptance gate: the eight headline guarantees, one test per criterion.

Each test carries its own tolerance and wall-clock budget; `pytest -v`
prints one pass/fail line per criterion.
"""

import time

import numpy as np
from scipy.special import logsumexp

from laplace_match import bridges, diagnostics, distributions, gp, pipeline, transforms

ALL_FAMILIES = list(distributions.FAMILIES)


def _logsumexp_rows(F):
    """Row-wise log-sum-exp of a 2-D array, keepdims, with scipy's scheme:
    shift by the row max, then log1p of the other terms' sum. A NumPy
    stand-in for scipy.special.logsumexp on the ESS hot path, where scipy's
    input handling costs about 7x the arithmetic."""
    top_at = np.argmax(F, axis=1)
    top = F[np.arange(F.shape[0]), top_at][:, None]
    rest = np.exp(F - top)
    rest[np.arange(F.shape[0]), top_at] = 0.0
    return top + np.log1p(np.sum(rest, axis=1, keepdims=True))


def test_criterion_1_closed_form_matches_numeric_oracle():
    t0 = time.perf_counter()
    rows = diagnostics.oracle_rows(ALL_FAMILIES, tol=1e-6)
    elapsed = time.perf_counter() - t0
    failures = [r for r in rows if r[5].startswith("FAIL")]
    passes = [r for r in rows if r[5] == "pass"]
    assert failures == []
    assert len(passes) >= 190  # every in-validity (family, basis, grid) row
    assert elapsed < 120.0


def test_criterion_2_round_trips_to_1e_minus_9():
    t0 = time.perf_counter()
    rows = diagnostics.oracle_rows(ALL_FAMILIES, rt_tol=1e-9)
    assert all(not r[5].startswith("FAIL") for r in rows)
    rt_devs = [r[4] for r in rows if r[4] is not None]
    assert rt_devs and max(rt_devs) <= 1e-9
    # the Dirichlet pseudo-inverse is part of the round-trip contract
    dir_rows = [r for r in rows if r[0] == "dirichlet" and r[1] == "softmax_inverse"]
    assert dir_rows and all(r[4] is not None and r[4] <= 1e-9 for r in dir_rows)
    assert time.perf_counter() - t0 < 60.0


def test_criterion_3_exponential_kl_anchors():
    t0 = time.perf_counter()
    log_kls = []
    for lam in range(1, 11):
        kl, _ = diagnostics.mc_kl(
            distributions.exponential(float(lam)), "log", n=10**6, seed=0
        )
        assert abs(kl - 0.33) <= 0.03
        log_kls.append(kl)
    # the log-basis KL is scale-free: flat across rates
    assert max(log_kls) - min(log_kls) <= 0.02
    kl_sqrt, _ = diagnostics.mc_kl(distributions.exponential(1.0), "sqrt", n=10**6, seed=0)
    assert abs(kl_sqrt - 0.12) <= 0.02
    assert time.perf_counter() - t0 < 60.0


def test_criterion_4_transformed_bases_beat_the_standard_basis():
    n = 5 * 10**4
    for family in ALL_FAMILIES:
        transformed = transforms.FAMILY_BASES[family][1:]
        for params in diagnostics.default_grid(family):
            if not bridges.bridge_valid(params, "identity"):
                continue
            kl_std, _ = diagnostics.mc_kl(params, "identity", n=n, seed=0)
            kl_best = min(
                diagnostics.mc_kl(params, b, n=n, seed=0)[0]
                for b in transformed
                if bridges.bridge_valid(params, b)
            )
            assert kl_best < kl_std, f"{family} {params.to_record()}"
    # the standard basis must report invalid exactly on the known sets
    for params in diagnostics.default_grid("exponential"):
        assert not bridges.bridge_valid(params, "identity")
    for params in diagnostics.default_grid("gamma"):
        assert bridges.bridge_valid(params, "identity") == (params.alpha > 1.0)
    for params in diagnostics.default_grid("chi_squared"):
        assert bridges.bridge_valid(params, "identity") == (params.k > 2.0)
    for params in diagnostics.default_grid("beta"):
        expected = params.alpha > 1.0 and params.beta > 1.0
        assert bridges.bridge_valid(params, "identity") == expected


def test_criterion_5_lm_transform_is_fast_and_linear():
    rng = np.random.default_rng(0)
    sizes = np.array([12500, 25000, 50000, 100000, 200000], dtype=float)
    fields = [(rng.uniform(1.0, 5.0, int(s)), rng.uniform(0.5, 3.0, int(s))) for s in sizes]

    def seconds(alpha, lam):
        start = time.perf_counter()
        bridges.forward_arrays("gamma", "log", alpha=alpha, lam=lam)
        return time.perf_counter() - start

    seconds(*fields[0])  # warm-up
    # per size the minimum over interleaved rounds: a burst of other load
    # slows one round of every size, not every round of one size
    times = np.full(sizes.size, np.inf)
    for _ in range(100):
        for i, size_fields in enumerate(fields):
            times[i] = min(times[i], seconds(*size_fields))
    assert times[sizes == 10**5][0] < 0.1
    slope, intercept = np.polyfit(sizes, times, 1)
    fitted = slope * sizes + intercept
    r2 = 1.0 - np.sum((times - fitted) ** 2) / np.sum((times - times.mean()) ** 2)
    assert r2 > 0.99, f"r2 = {r2:.4f}, ns per point {np.round(times / sizes * 1e9, 2)}"


def test_criterion_6_lm_latents_match_elliptical_slice_sampling():
    t0 = time.perf_counter()
    T = K = 4
    f_true = np.array(
        [
            [1.2, 0.1, -0.6, -0.7],
            [0.7, 0.6, -0.5, -0.8],
            [-0.2, 0.9, 0.2, -0.9],
            [-0.8, 0.3, 1.0, -0.5],
        ]
    )
    rng = np.random.default_rng(2024)
    probs = np.exp(f_true - logsumexp(f_true, axis=1, keepdims=True))
    counts = np.stack([rng.multinomial(45, probs[t]) for t in range(T)])
    X = np.arange(float(T))
    config = pipeline.LMGPConfig(
        "dirichlet",
        kernel=gp.RBF(lengthscale=1.5, variance=1.0, dims=(0,)),
        coord_kernel=gp.LookupTable(np.eye(K) + 0.5),
        seed=0,
        draws=200,
    )
    model, pred = pipeline.lmgp_v1(pipeline.Dataset(X, counts), config)
    lm_mean = pred.latent_mean.reshape(-1)

    K_prior = model.kernel(X)

    def log_lik(f):
        F = f.reshape(T, K)
        return float(np.sum(counts * (F - _logsumexp_rows(F))))

    prior = (np.zeros(T * K), K_prior)
    ref = diagnostics.ess_sample(prior, log_lik, 30000, burn_in=3000, seed=999)
    ref_mean = ref.mean(axis=0)
    ref_std = ref.std(axis=0)

    chain = diagnostics.ess_sample(prior, log_lik, 10**4, seed=7)
    # LM mean within one posterior standard deviation, per coordinate
    assert np.all(np.abs(chain.mean(axis=0) - lm_mean) < ref_std)
    assert np.all(np.abs(lm_mean - ref_mean) < ref_std)

    running = np.cumsum(chain, axis=0) / np.arange(1, chain.shape[0] + 1)[:, None]
    ess_err = np.linalg.norm(running - ref_mean, axis=1)
    lm_err = np.linalg.norm(lm_mean - ref_mean)
    below = np.nonzero(ess_err < lm_err)[0]
    assert below.size > 0, "ESS never caught up with LM within 10^4 draws"
    k_star = int(below[0]) + 1
    assert 100 <= k_star <= 10**4
    assert time.perf_counter() - t0 < 300.0


def test_criterion_7_pipeline_outputs_stay_in_support():
    for i in range(100):
        rng = np.random.default_rng(i)
        scalar_kernel = gp.RBF(1.0, 1.0)

        X = rng.uniform(0.0, 4.0, size=(10, 2))
        y = rng.integers(0, 2, size=10).astype(float)
        cfg = pipeline.LMGPConfig("beta", kernel=scalar_kernel, seed=i, draws=64)
        _, pred = pipeline.lmgp_v1(pipeline.Dataset(X, y), cfg)
        assert np.all(np.isfinite(pred.probabilities))
        assert np.all((pred.probabilities >= 0.0) & (pred.probabilities <= 1.0))

        Xc = np.sort(rng.uniform(0.0, 4.0, size=(10, 1)), axis=0)
        counts = rng.poisson(3.0, size=10).astype(float)
        cfg = pipeline.LMGPConfig("gamma", kernel=scalar_kernel, seed=i, draws=64)
        _, pred = pipeline.lmgp_v1(pipeline.Dataset(Xc, counts), cfg)
        assert np.all(pred.rates > 0.0)
        for key in ("q05", "q25", "q50", "q75", "q95"):
            assert np.all(pred.summary[key] > 0.0)

        Y = np.stack([rng.multinomial(20, rng.dirichlet(np.ones(3))) for _ in range(4)])
        cfg = pipeline.LMGPConfig("dirichlet", seed=i, draws=64)
        _, pred = pipeline.lmgp_v1(pipeline.Dataset(np.arange(4.0), Y), cfg)
        np.testing.assert_allclose(pred.probabilities.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(pred.probabilities >= 0.0)

        mats = []
        for _ in range(3):
            A = rng.standard_normal((2, 2))
            mats.append(A @ A.T + 0.1 * np.eye(2))
        cfg = pipeline.LMGPConfig("inverse_wishart", seed=i, draws=64)
        _, pred = pipeline.lmgp_v1(
            pipeline.Dataset(np.arange(3.0), np.stack(mats)), cfg
        )
        draws = np.asarray(pred.draws).reshape(-1, 2, 2)
        np.testing.assert_allclose(draws, np.swapaxes(draws, -1, -2), atol=1e-8)
        eigs = np.linalg.eigvalsh(draws)
        traces = np.trace(draws, axis1=-2, axis2=-1)
        assert np.all(eigs[:, 0] >= -1e-10 * traces)


def test_criterion_8_separable_toy_and_inducing_equivalence():
    X_tr, y_tr = pipeline.gen_binary(100, seed=0)
    X_te, y_te = pipeline.gen_binary(60, seed=1)
    data = pipeline.Dataset(X_tr, y_tr.astype(float))
    config = pipeline.LMGPConfig("beta", seed=0, draws=300)
    _, pred = pipeline.lmgp_v1(data, config)
    train = pipeline.classification_metrics(pred.probabilities, y_tr)
    assert train["accuracy"] == 1.0
    _, pred_te = pipeline.lmgp_v1(data, config, X_query=X_te)
    test = pipeline.classification_metrics(pred_te.probabilities, y_te)
    assert test["accuracy"] >= 0.95
    # inducing-point path with k = n must reduce to the plain pipeline
    _, pred_ind = pipeline.lmgp_v1(data, config.replace(inducing=data.n))
    np.testing.assert_allclose(pred_ind.latent_mean, pred.latent_mean, atol=1e-10)
    np.testing.assert_allclose(pred_ind.latent_cov, pred.latent_cov, atol=1e-10)
