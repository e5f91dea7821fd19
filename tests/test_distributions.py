"""Exponential-family parameter types, densities, sampling, and conjugacy.

Pinned values are checked against independent oracles: quadrature of the
assembled density, scipy.stats distributions, and Monte Carlo moments.
"""

import numpy as np
import pytest
from scipy import integrate, stats

from laplace_match import distributions
from laplace_match.errors import InvalidParams, NonConjugatePair, OutOfSupport


def _scalar_grid():
    return [
        distributions.exponential(0.7),
        distributions.exponential(3.0),
        distributions.gamma(0.6, 1.5),
        distributions.gamma(4.0, 2.0),
        distributions.inverse_gamma(2.0, 1.0),
        distributions.inverse_gamma(3.5, 2.5),
        distributions.chi_squared(1.0),
        distributions.chi_squared(5.0),
        distributions.beta(0.7, 0.9),
        distributions.beta(2.0, 3.0),
    ]


def _support_interval(params):
    if params.family == "beta":
        return 0.0, 1.0
    return 0.0, np.inf


class TestParamValidation:
    def test_positive_scalars_required(self):
        with pytest.raises(InvalidParams):
            distributions.exponential(0.0)
        with pytest.raises(InvalidParams):
            distributions.gamma(-1.0, 2.0)
        with pytest.raises(InvalidParams):
            distributions.beta(1.0, 0.0)
        with pytest.raises(InvalidParams):
            distributions.chi_squared(-3.0)

    def test_dirichlet_needs_k_at_least_two(self):
        with pytest.raises(InvalidParams):
            distributions.dirichlet([2.0])
        with pytest.raises(InvalidParams):
            distributions.dirichlet([1.0, -1.0])

    def test_wishart_dof_frontier(self):
        # n > p - 1 strictly
        with pytest.raises(InvalidParams):
            distributions.wishart(1.0, np.eye(2))
        distributions.wishart(1.0 + 1e-6, np.eye(2))

    def test_matrix_params_must_be_spd(self):
        with pytest.raises(InvalidParams):
            distributions.inverse_wishart(4.0, np.array([[1.0, 2.0], [2.0, 1.0]]))
        with pytest.raises(InvalidParams):
            distributions.wishart(4.0, np.array([[1.0, 0.5], [0.4, 1.0]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_matrix_params_must_be_finite(self, bad):
        # a NaN scale used to pass both the symmetry and the eigenvalue test
        with pytest.raises(InvalidParams):
            distributions.inverse_wishart(3.0, np.full((2, 2), bad))
        with pytest.raises(InvalidParams):
            distributions.wishart(3.0, np.array([[1.0, 0.0], [0.0, bad]]))

    def test_a_stack_of_scales_fails_as_its_first_failing_matrix(self):
        # each check runs once over the whole stack; the error is that of a
        # loop over the matrices, whichever checks later matrices fail
        spd, indefinite = np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]])
        asymmetric = np.array([[1.0, 0.5], [0.4, 1.0]])
        # its inf - 0.0 entry passes the symmetry test at scale inf
        infinite = np.array([[1.0, np.inf], [0.0, 1.0]])
        cases = [
            ([spd, indefinite, infinite, asymmetric], "positive definite"),
            ([spd, infinite, asymmetric], "finite"),
            ([asymmetric, np.full((2, 2), np.nan)], "symmetric to 1e-12 relative"),
        ]
        for stack, rule in cases:
            first = next(M for M in stack if M is not spd)
            with pytest.raises(InvalidParams, match=f"^V must be {rule}$"):
                distributions.wishart(3.0, first)
            with pytest.raises(InvalidParams, match=f"^V must be {rule}$"):
                distributions._check_spd_stack(np.array(stack), "V")

    def test_a_stack_of_scales_is_symmetrised_as_each_matrix_alone(self):
        rng = np.random.default_rng(4)
        B = rng.normal(size=(6, 3, 3))
        stack = B @ np.swapaxes(B, 1, 2) + np.eye(3)
        stack[:, 0, 1] *= 1.0 + 1e-15
        got = distributions._check_spd_stack(stack, "V")
        for M, V in zip(stack, got):
            assert distributions.wishart(4.0, M).V.tobytes() == V.tobytes()

    def test_record_round_trip(self):
        params = distributions.wishart(4.0, np.array([[2.0, 0.5], [0.5, 1.0]]))
        back = distributions.from_record(params.to_record())
        assert back.family == "wishart"
        assert back.n == params.n
        np.testing.assert_array_equal(back.V, params.V)


class TestLogPdf:
    def test_exponential_boundary_limit(self):
        # lambda * exp(-lambda x) -> lambda as x -> 0+, log 1 = 0 for lambda=1
        params = distributions.exponential(1.0)
        assert distributions.log_pdf(params, 1e-12) == pytest.approx(0.0, abs=1e-9)

    def test_beta_uniform_case(self):
        params = distributions.beta(1.0, 1.0)
        assert distributions.log_pdf(params, 0.3) == pytest.approx(0.0, abs=1e-12)

    def test_out_of_support(self):
        with pytest.raises(OutOfSupport):
            distributions.log_pdf(distributions.gamma(2.0, 1.0), -1.0)
        with pytest.raises(OutOfSupport):
            distributions.log_pdf(distributions.beta(2.0, 2.0), 1.5)
        with pytest.raises(OutOfSupport):
            distributions.log_pdf(
                distributions.wishart(4.0, np.eye(2)), np.array([[1.0, 2.0], [2.0, 1.0]])
            )

    def test_scipy_cross_checks(self):
        cases = [
            (distributions.exponential(2.0), 0.8, stats.expon(scale=0.5)),
            (distributions.gamma(4.0, 2.0), 2.0, stats.gamma(4.0, scale=0.5)),
            (distributions.inverse_gamma(3.0, 2.0), 1.1, stats.invgamma(3.0, scale=2.0)),
            (distributions.chi_squared(4.0), 2.7, stats.chi2(4.0)),
            (distributions.beta(2.0, 5.0), 0.2, stats.beta(2.0, 5.0)),
        ]
        for params, x, ref in cases:
            assert distributions.log_pdf(params, x) == pytest.approx(
                ref.logpdf(x), abs=1e-10
            )

    def test_dirichlet_matches_scipy(self):
        params = distributions.dirichlet([1.2, 0.8, 2.0])
        x = np.array([0.2, 0.3, 0.5])
        assert distributions.log_pdf(params, x) == pytest.approx(
            stats.dirichlet(params.alpha).logpdf(x), abs=1e-10
        )

    def test_wishart_matches_scipy(self):
        V = np.array([[1.5, 0.4], [0.4, 1.0]])
        params = distributions.wishart(5.0, V)
        X = np.array([[2.0, 0.3], [0.3, 1.2]])
        assert distributions.log_pdf(params, X) == pytest.approx(
            stats.wishart(5, V).logpdf(X), abs=1e-9
        )
        iw = distributions.inverse_wishart(5.0, V)
        assert distributions.log_pdf(iw, X) == pytest.approx(
            stats.invwishart(5, V).logpdf(X), abs=1e-9
        )

    @pytest.mark.parametrize("params", _scalar_grid(), ids=str)
    def test_quadrature_normalization(self, params):
        lo, hi = _support_interval(params)
        total, _ = integrate.quad(
            lambda x: np.exp(distributions.log_pdf(params, x)), lo, hi, limit=200
        )
        assert total == pytest.approx(1.0, abs=1e-6)


def _bartlett_reference(rng, n, V, count):
    """distributions._bartlett as it was before the stacked generators, one
    scale's Cholesky, factors and products in one function; sample's
    Wishart draws must equal it bit for bit."""
    p = V.shape[0]
    L = np.linalg.cholesky(V)
    A = np.zeros((count, p, p))
    for i in range(p):
        A[:, i, i] = np.sqrt(rng.chisquare(n - i, size=count))
        for j in range(i):
            A[:, i, j] = rng.standard_normal(count)
    T = L @ A
    S = T @ np.swapaxes(T, -1, -2)
    return 0.5 * (S + np.swapaxes(S, -1, -2))


class TestSampling:
    def test_seed_determinism(self):
        params = distributions.gamma(2.0, 3.0)
        a = distributions.sample(params, seed=42, count=100)
        b = distributions.sample(params, seed=42, count=100)
        np.testing.assert_array_equal(a, b)

    def test_exponential_mean(self):
        x = distributions.sample(distributions.exponential(2.0), seed=0, count=10**6)
        se = np.std(x, ddof=1) / np.sqrt(x.size)
        assert abs(np.mean(x) - 0.5) < 4 * se

    def test_dirichlet_simplex_closure(self):
        x = distributions.sample(distributions.dirichlet([1.0, 1.0, 1.0]), seed=1, count=2000)
        np.testing.assert_allclose(np.sum(x, axis=-1), 1.0, atol=1e-12)
        assert np.all(x > 0)

    def test_wishart_samples_spd_and_unbiased(self):
        V = np.array([[1.0, 0.4], [0.4, 2.0]])
        params = distributions.wishart(5.0, V)
        S = distributions.sample(params, seed=3, count=20000)
        np.testing.assert_array_equal(S, np.swapaxes(S, -1, -2))
        assert np.all(np.linalg.eigvalsh(S)[..., 0] > 0)
        # E[S] = n V entrywise within 4 SE
        se = np.std(S, axis=0, ddof=1) / np.sqrt(S.shape[0])
        assert np.all(np.abs(np.mean(S, axis=0) - 5.0 * V) < 4 * se)

    @pytest.mark.parametrize("family", ["wishart", "inverse_wishart"])
    @pytest.mark.parametrize("count", [1, 7])
    def test_matrix_draws_are_the_single_scale_bartlett_function(self, family, count):
        V = np.array([[2.0, 0.3, -0.2], [0.3, 1.0, 0.1], [-0.2, 0.1, 0.5]])
        params = getattr(distributions, family)(5.5, V)
        got = distributions.sample(params, seed=11, count=count)
        rng = np.random.default_rng(11)
        if family == "wishart":
            want = _bartlett_reference(rng, params.n, params.V, count)
        else:
            W = _bartlett_reference(rng, params.nu, np.linalg.inv(params.Psi), count)
            X = np.linalg.inv(W)
            want = 0.5 * (X + np.swapaxes(X, -1, -2))
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "params,cdf",
        [
            (distributions.exponential(1.3), stats.expon(scale=1 / 1.3).cdf),
            (distributions.gamma(2.5, 1.5), stats.gamma(2.5, scale=1 / 1.5).cdf),
            (distributions.inverse_gamma(3.0, 2.0), stats.invgamma(3.0, scale=2.0).cdf),
            (distributions.chi_squared(4.0), stats.chi2(4.0).cdf),
            (distributions.beta(2.0, 3.0), stats.beta(2.0, 3.0).cdf),
        ],
        ids=lambda v: getattr(v, "family", ""),
    )
    def test_kolmogorov_smirnov_one_percent(self, params, cdf):
        x = distributions.sample(params, seed=7, count=10**5)
        stat = stats.kstest(x, cdf).statistic
        critical = 1.63 / np.sqrt(x.size)  # 1% two-sided critical value
        assert stat < critical


class TestConjugateUpdate:
    def test_dirichlet_categorical_counts(self):
        prior = distributions.dirichlet([1.0, 1.0, 1.0])
        post = distributions.conjugate_update(prior, np.array([3.0, 0.0, 1.0]))
        np.testing.assert_allclose(post.alpha, [4.0, 1.0, 2.0], atol=1e-12)

    def test_beta_single_positive_label(self):
        eps = 0.01
        prior = distributions.beta(eps, eps)
        post = distributions.conjugate_update(prior, np.array([1.0]))
        assert post.alpha == pytest.approx(1.0 + eps, abs=1e-15)
        assert post.beta == pytest.approx(eps, abs=1e-15)

    def test_beta_all_ones_batch_keeps_a_tiny_prior_count(self):
        # beta + size - pos rounded to 0 for beta below ~1e-16
        post = distributions.conjugate_update(distributions.beta(1e-300, 1e-300), [1.0])
        assert post.alpha == 1.0
        assert post.beta == 1e-300

    def test_gamma_poisson_counts(self):
        prior = distributions.gamma(1.0, 1.0)
        post = distributions.conjugate_update(prior, np.array([2.0, 3.0]))
        assert post.alpha == pytest.approx(6.0)
        assert post.lam == pytest.approx(3.0)

    def test_gamma_poisson_grid_oracle(self):
        # grid-normalized prior x likelihood matches the conjugate density
        prior = distributions.gamma(1.0, 1.0)
        obs = np.array([2.0, 3.0])
        post = distributions.conjugate_update(prior, obs)
        lam = np.linspace(1e-6, 20.0, 40001)
        log_post = stats.gamma(1.0, scale=1.0).logpdf(lam)
        for k in obs:
            log_post += stats.poisson(lam).logpmf(int(k))
        dens = np.exp(log_post - np.max(log_post))
        dens /= integrate.trapezoid(dens, lam)
        ref = np.exp([distributions.log_pdf(post, v) for v in lam])
        l1 = integrate.trapezoid(np.abs(dens - ref), lam)
        assert l1 < 1e-6

    def test_beta_bernoulli_grid_oracle(self):
        prior = distributions.beta(0.5, 0.5)
        obs = np.array([1.0, 1.0, 0.0, 1.0])
        post = distributions.conjugate_update(prior, obs)
        x = np.linspace(1e-6, 1 - 1e-6, 20001)
        log_post = stats.beta(0.5, 0.5).logpdf(x) + 3 * np.log(x) + 1 * np.log1p(-x)
        dens = np.exp(log_post - np.max(log_post))
        dens /= integrate.trapezoid(dens, x)
        ref = np.exp([distributions.log_pdf(post, v) for v in x])
        assert integrate.trapezoid(np.abs(dens - ref), x) < 1e-6

    def test_inverse_wishart_scatter_batch(self):
        prior = distributions.inverse_wishart(3.0, np.eye(2))
        S = np.stack([np.diag([2.0, 1.0]), np.array([[1.0, 0.5], [0.5, 1.0]])])
        post = distributions.conjugate_update(prior, S)
        assert post.nu == pytest.approx(5.0)
        np.testing.assert_allclose(post.Psi, np.eye(2) + S[0] + S[1], atol=1e-12)

    def test_non_conjugate_pairs_rejected(self):
        with pytest.raises(NonConjugatePair):
            distributions.conjugate_update(
                distributions.exponential(1.0), np.array([1.0])
            )
        with pytest.raises(NonConjugatePair):
            distributions.conjugate_update(
                distributions.chi_squared(3.0), np.array([1.0])
            )

    def test_invalid_observations(self):
        with pytest.raises(InvalidParams):
            distributions.conjugate_update(
                distributions.beta(1.0, 1.0), np.array([2.0])
            )
        with pytest.raises(InvalidParams):
            distributions.conjugate_update(
                distributions.gamma(1.0, 1.0), np.array([-1.0])
            )


class TestPseudoPrior:
    def test_scalar_families(self):
        b = distributions.pseudo_prior("beta", epsilon_a=0.02)
        assert (b.alpha, b.beta) == (0.02, 0.02)
        g = distributions.pseudo_prior("gamma", epsilon_a=0.02)
        assert (g.alpha, g.lam) == (0.02, 0.02)

    def test_dirichlet_prior_count(self):
        d = distributions.pseudo_prior("dirichlet", K=4)
        np.testing.assert_array_equal(d.alpha, np.ones(4))
        d2 = distributions.pseudo_prior("dirichlet", K=3, dirichlet_prior=2.0)
        np.testing.assert_array_equal(d2.alpha, np.full(3, 2.0))

    def test_inverse_wishart_smallest_valid_dof(self):
        iw = distributions.pseudo_prior("inverse_wishart", epsilon_a=0.01, p=3)
        assert iw.nu == pytest.approx(2.01)
        np.testing.assert_allclose(iw.Psi, 0.01 * np.eye(3), atol=1e-15)

    def test_errors(self):
        with pytest.raises(InvalidParams):
            distributions.pseudo_prior("beta", epsilon_a=0.0)
        with pytest.raises(InvalidParams):
            distributions.pseudo_prior("dirichlet")
        with pytest.raises(NonConjugatePair):
            distributions.pseudo_prior("chi_squared")
