"""Closed-form bridge rows: pinned values, validity regions, round trips.

Numeric-Laplace equivalence over the full grid lives in test_acceptance; here
the pinned examples and the algebraic inverses are exercised directly.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplace_match import bridges, distributions, transforms
from laplace_match.errors import (
    DomainMismatch,
    IncompatibleBasis,
    NonInvertibleBridge,
    NotPositiveDefinite,
    NoValidLaplace,
    OutsideValidityRegion,
)
from laplace_match.gaussian import GaussianApprox


class TestForwardPinned:
    def test_exponential_log(self):
        g = bridges.lm_forward(distributions.exponential(1.0), transforms.LOG)
        assert g.mu == pytest.approx(0.0, abs=1e-15)
        assert g.var == pytest.approx(1.0, abs=1e-15)

    def test_exponential_sqrt(self):
        g = bridges.lm_forward(distributions.exponential(2.0), transforms.SQRT)
        assert g.mu == pytest.approx(0.5, abs=1e-15)
        assert g.var == pytest.approx(0.125, abs=1e-15)

    def test_gamma_log(self):
        g = bridges.lm_forward(distributions.gamma(4.0, 2.0), "log")
        assert g.mu == pytest.approx(np.log(2.0), abs=1e-15)
        assert g.var == pytest.approx(0.25, abs=1e-15)

    def test_beta_logit(self):
        g = bridges.lm_forward(distributions.beta(2.0, 2.0), transforms.LOGIT)
        assert g.mu == pytest.approx(0.0, abs=1e-15)
        assert g.var == pytest.approx(1.0, abs=1e-15)

    def test_dirichlet_uniform(self):
        g = bridges.lm_forward(
            distributions.dirichlet([1.0, 1.0, 1.0]), transforms.softmax_inverse(3)
        )
        np.testing.assert_allclose(g.mean, np.zeros(3), atol=1e-15)
        expected = np.full((3, 3), -1 / 3) + np.eye(3)
        np.testing.assert_allclose(g.cov_dense(), expected * (2 / 3 + 1 / 3), atol=1e-15)

    def test_wishart_log_identity_scale(self):
        g = bridges.lm_forward(
            distributions.wishart(3.0, np.eye(2)), transforms.matrix_log(2)
        )
        np.testing.assert_allclose(g.mean_matrix(), np.log(2.0) * np.eye(2), atol=1e-15)
        # isotropic on symmetric matrices: off-diagonal vech coordinate has half
        # the variance of a diagonal one
        np.testing.assert_allclose(g.vech_cov(), np.diag([1.0, 0.5, 1.0]), atol=1e-15)


class TestStandardLaplace:
    def test_exponential_has_no_mode(self):
        with pytest.raises(NoValidLaplace):
            bridges.standard_laplace(distributions.exponential(1.0))

    def test_gamma_pinned(self):
        g = bridges.standard_laplace(distributions.gamma(4.0, 2.0))
        assert g.mu == pytest.approx(1.5)
        assert g.var == pytest.approx(0.75)

    def test_beta_pinned(self):
        g = bridges.standard_laplace(distributions.beta(2.0, 2.0))
        assert g.mu == pytest.approx(0.5)
        assert g.var == pytest.approx(0.125)

    def test_identity_via_lm_forward(self):
        a = bridges.standard_laplace(distributions.gamma(3.0, 1.0))
        b = bridges.lm_forward(distributions.gamma(3.0, 1.0), transforms.IDENTITY)
        assert (a.mu, a.var) == (b.mu, b.var)

    def test_frontier(self):
        with pytest.raises(NoValidLaplace):
            bridges.standard_laplace(distributions.gamma(1.0, 1.0))
        bridges.standard_laplace(distributions.gamma(1.0 + 1e-9, 1.0))
        with pytest.raises(NoValidLaplace):
            bridges.standard_laplace(distributions.chi_squared(2.0))
        with pytest.raises(NoValidLaplace):
            bridges.standard_laplace(distributions.beta(0.9, 2.0))
        with pytest.raises(NoValidLaplace):
            bridges.standard_laplace(distributions.dirichlet([2.0, 0.9]))
        # n > p + 1 needed for a Wishart mode with positive-definite curvature
        with pytest.raises(NoValidLaplace):
            bridges.standard_laplace(distributions.wishart(3.0, np.eye(2)))
        bridges.standard_laplace(distributions.inverse_wishart(2.5, np.eye(2)))

    def test_standard_valid_agrees(self):
        cases = [
            distributions.exponential(1.0),
            distributions.gamma(0.7, 1.0),
            distributions.gamma(2.0, 1.0),
            distributions.chi_squared(5.0),
            distributions.beta(0.7, 2.0),
            distributions.wishart(3.0, np.eye(2)),
            distributions.inverse_wishart(3.0, np.eye(2)),
        ]
        for params in cases:
            ok = bridges.standard_valid(params)
            assert bridges.bridge_valid(params, transforms.IDENTITY) == ok
            if ok:
                bridges.standard_laplace(params)
            else:
                with pytest.raises(NoValidLaplace):
                    bridges.standard_laplace(params)


class TestValidityRegions:
    def test_gamma_sqrt_needs_alpha_above_half(self):
        with pytest.raises(OutsideValidityRegion):
            bridges.lm_forward(distributions.gamma(0.5, 1.0), transforms.SQRT)
        bridges.lm_forward(distributions.gamma(0.5 + 1e-9, 1.0), transforms.SQRT)

    def test_chi_squared_sqrt_needs_k_above_one(self):
        with pytest.raises(OutsideValidityRegion):
            bridges.lm_forward(distributions.chi_squared(1.0), transforms.SQRT)
        bridges.lm_forward(distributions.chi_squared(1.0 + 1e-9), transforms.SQRT)

    def test_wishart_sqrt_needs_n_above_p(self):
        with pytest.raises(OutsideValidityRegion):
            bridges.lm_forward(
                distributions.wishart(2.0, np.eye(2)), transforms.matrix_sqrt(2)
            )
        bridges.lm_forward(distributions.wishart(2.0 + 1e-9, np.eye(2)), transforms.matrix_sqrt(2))

    def test_log_bases_always_valid(self):
        for params in (
            distributions.gamma(0.05, 3.0),
            distributions.chi_squared(0.1),
            distributions.inverse_gamma(0.2, 0.3),
        ):
            g = bridges.lm_forward(params, transforms.LOG)
            assert np.isfinite(g.mu) and g.var > 0

    def test_incompatible_pairs(self):
        with pytest.raises(IncompatibleBasis):
            bridges.lm_forward(distributions.beta(2.0, 2.0), transforms.LOG)
        with pytest.raises(IncompatibleBasis):
            bridges.lm_forward(
                distributions.dirichlet([1.0, 1.0]), transforms.softmax_inverse(3)
            )
        with pytest.raises(IncompatibleBasis):
            bridges.lm_inverse((0.0, 1.0), "beta", "sqrt")

    def test_bridge_valid_rejects_pairs_without_a_row(self):
        for params, basis in (
            (distributions.gamma(2.0, 1.0), transforms.matrix_log(2)),
            (distributions.wishart(3.0, np.eye(2)), transforms.softmax_inverse(3)),
            (distributions.dirichlet([1.0, 2.0, 3.0]), transforms.matrix_sqrt(2)),
            (distributions.beta(2.0, 2.0), transforms.LOG),
        ):
            with pytest.raises(IncompatibleBasis):
                bridges.bridge_valid(params, basis)

    @pytest.mark.parametrize(
        "call,params,basis",
        [
            ("bridge_valid", distributions.dirichlet([1.0, 2.0, 3.0, 4.0]),
             transforms.softmax_inverse(3)),
            ("bridge_valid", distributions.inverse_wishart(5.0, np.eye(3)),
             transforms.matrix_log(2)),
            ("lm_inverse", distributions.dirichlet([1.0, 2.0, 3.0]),
             transforms.softmax_inverse(4)),
            ("lm_inverse", distributions.inverse_wishart(5.0, np.eye(2)),
             transforms.matrix_log(3)),
        ],
    )
    def test_sized_basis_must_fit(self, call, params, basis):
        with pytest.raises(IncompatibleBasis):
            if call == "bridge_valid":
                bridges.bridge_valid(params, basis)
            else:
                g = bridges.lm_forward(params, basis.tag)
                bridges.lm_inverse(g, params.family, basis)


class TestInversePinned:
    def test_exponential_log(self):
        params = bridges.lm_inverse((0.0, 1.0), "exponential", "log")
        assert params.lam == pytest.approx(1.0, abs=1e-15)

    def test_gamma_log(self):
        params = bridges.lm_inverse((0.0, 0.25), "gamma", "log")
        assert params.alpha == pytest.approx(4.0, abs=1e-12)
        assert params.lam == pytest.approx(4.0, abs=1e-12)

    def test_inverse_wishart_log(self):
        g = GaussianApprox(
            np.zeros(4), "scaled_identity", 2 / 3, domain="symmetric_matrix", p=2
        )
        params = bridges.lm_inverse(g, "inverse_wishart", "matrix_log")
        assert params.nu == pytest.approx(2.0, abs=1e-12)
        np.testing.assert_allclose(params.Psi, 3.0 * np.eye(2), atol=1e-12)

    def test_identity_has_no_inverse(self):
        with pytest.raises(NonInvertibleBridge):
            bridges.lm_inverse((0.0, 1.0), "gamma", "identity")

    def test_bad_gaussians_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            bridges.lm_inverse((0.0, -1.0), "gamma", "log")
        with pytest.raises(DomainMismatch):
            bridges.lm_inverse((-0.5, 1.0), "exponential", "sqrt")
        with pytest.raises(DomainMismatch):
            bridges.inverse_arrays("gamma", "log", np.zeros(2), np.array([1.0, -1.0]))
        matrix_domain = GaussianApprox(
            np.zeros(4), "scaled_identity", 1.0, domain="symmetric_matrix", p=2
        )
        with pytest.raises(DomainMismatch):
            bridges.lm_inverse(matrix_domain, "dirichlet", "softmax_inverse")


def _assert_params_close(a, b, rel=1e-9):
    for name in distributions.param_fields(a.family):
        va = np.asarray(getattr(a, name), dtype=float)
        vb = np.asarray(getattr(b, name), dtype=float)
        np.testing.assert_allclose(va, vb, rtol=rel, atol=1e-12)


positive = st.floats(min_value=1e-2, max_value=1e3, allow_nan=False)


class TestRoundTrips:
    @given(lam=positive)
    @settings(max_examples=60, deadline=None)
    def test_exponential(self, lam):
        params = distributions.exponential(lam)
        for basis in (transforms.LOG, transforms.SQRT):
            back = bridges.lm_inverse(
                bridges.lm_forward(params, basis), "exponential", basis
            )
            _assert_params_close(params, back)

    @given(alpha=positive, lam=positive)
    @settings(max_examples=60, deadline=None)
    def test_gamma_log(self, alpha, lam):
        params = distributions.gamma(alpha, lam)
        back = bridges.lm_inverse(bridges.lm_forward(params, "log"), "gamma", "log")
        _assert_params_close(params, back)

    @given(alpha=st.floats(min_value=0.51, max_value=1e3), lam=positive)
    @settings(max_examples=60, deadline=None)
    def test_gamma_sqrt(self, alpha, lam):
        params = distributions.gamma(alpha, lam)
        back = bridges.lm_inverse(bridges.lm_forward(params, "sqrt"), "gamma", "sqrt")
        _assert_params_close(params, back)

    @given(alpha=positive, lam=positive)
    @settings(max_examples=60, deadline=None)
    def test_inverse_gamma(self, alpha, lam):
        params = distributions.inverse_gamma(alpha, lam)
        for tag in ("log", "sqrt"):
            back = bridges.lm_inverse(
                bridges.lm_forward(params, tag), "inverse_gamma", tag
            )
            _assert_params_close(params, back)

    @given(k=st.floats(min_value=1.01, max_value=1e3))
    @settings(max_examples=60, deadline=None)
    def test_chi_squared(self, k):
        params = distributions.chi_squared(k)
        for tag in ("log", "sqrt"):
            back = bridges.lm_inverse(
                bridges.lm_forward(params, tag), "chi_squared", tag
            )
            _assert_params_close(params, back)

    @given(alpha=positive, beta=positive)
    @settings(max_examples=60, deadline=None)
    def test_beta_logit(self, alpha, beta):
        params = distributions.beta(alpha, beta)
        back = bridges.lm_inverse(bridges.lm_forward(params, "logit"), "beta", "logit")
        _assert_params_close(params, back)

    @given(
        alpha=st.lists(
            st.floats(min_value=0.05, max_value=50.0), min_size=2, max_size=6
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_dirichlet_pseudo_inverse_exact_on_images(self, alpha):
        params = distributions.dirichlet(alpha)
        g = bridges.lm_forward(params, transforms.softmax_inverse(len(alpha)))
        back = bridges.lm_inverse(g, "dirichlet", "softmax_inverse")
        _assert_params_close(params, back)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("family", ["wishart", "inverse_wishart"])
    @pytest.mark.parametrize("tag", ["matrix_log", "matrix_sqrt"])
    def test_matrix_bridges(self, p, family, tag):
        rng = np.random.default_rng(12)
        for _ in range(10):
            A = rng.normal(size=(p, p))
            V = A @ A.T + 0.3 * np.eye(p)
            dof = p + 0.5 + rng.uniform(0.0, 5.0)
            params = (
                distributions.wishart(dof, V)
                if family == "wishart"
                else distributions.inverse_wishart(dof, V)
            )
            g = bridges.lm_forward(params, tag)
            back = bridges.lm_inverse(
                g, family, tag, structured_sigma=(tag == "matrix_sqrt")
            )
            _assert_params_close(params, back)


# the softmax row and the matrix rows; `low` is the matrix rows' dof bound as
# an offset from p (dof > p + low)
_STACKED_ROWS = [
    ("dirichlet", "softmax_inverse", None),
    ("wishart", "matrix_log", -1.0),
    ("wishart", "matrix_sqrt", 0.0),
    ("inverse_wishart", "matrix_log", -1.0),
    ("inverse_wishart", "matrix_sqrt", -1.0),
]


def _stacked_fields(family, p, n, seed):
    """n random parameter sets of a row as stacked fields: Dirichlet alpha
    (n, p), or a dof (n,) above every matrix row's bound and SPD scales."""
    rng = np.random.default_rng(seed)
    if family == "dirichlet":
        return {"alpha": np.exp(rng.uniform(np.log(0.05), np.log(50.0), size=(n, p)))}
    A = rng.standard_normal((n, p, p))
    scale = A @ np.swapaxes(A, -1, -2) + 0.3 * np.eye(p)
    dof = p + rng.uniform(0.2, 6.0, size=n)
    return dict(zip(distributions.param_fields(family), (dof, scale)))


def _close(a, b, rel):
    np.testing.assert_allclose(a, b, rtol=rel, atol=rel * np.max(np.abs(b)))


stack_draws = given(
    seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2, 3]), n=st.integers(1, 4)
)


@pytest.mark.parametrize("family,tag,low", _STACKED_ROWS)
class TestStackedRows:
    @stack_draws
    @settings(max_examples=15, deadline=None)
    def test_stack_matches_items_and_round_trips(self, family, tag, low, seed, p, n):
        fields = _stacked_fields(family, p, n, seed)
        mu, cov = bridges.forward_arrays(family, tag, **fields)
        for i in range(n):
            params = distributions.from_record(
                {"family": family, **{k: v[i] for k, v in fields.items()}}
            )
            g = bridges.lm_forward(params, tag)
            if family == "dirichlet":
                _close(mu[i], g.mean, 1e-12)
                _close(cov[i], g.cov_dense(), 1e-12)
            else:
                _close(mu[i], g.vech_mean(), 1e-12)
                _close(cov[i], g.vech_cov(), 1e-12)
        back = bridges.inverse_arrays(family, tag, mu, cov)
        for name, value in fields.items():
            _close(back[name], value, 1e-9)

    @stack_draws
    @settings(max_examples=15, deadline=None)
    def test_invalid_member_raises(self, family, tag, low, seed, p, n):
        fields = _stacked_fields(family, p, n, seed)
        j = seed % n
        names = distributions.param_fields(family)
        if family == "dirichlet":
            edits = [("alpha", (j, 0), value) for value in (np.nan, np.inf, 0.0)]
        else:
            dof, scale = names
            edits = [(scale, (j, 0, 0), np.nan), (scale, (j, 1, 1), np.inf),
                     (scale, (j,), -np.eye(p)), (dof, (j,), p + low)]
        for name, index, value in edits:
            bad = {k: v.copy() for k, v in fields.items()}
            bad[name][index] = value
            with pytest.raises(OutsideValidityRegion):
                bridges.forward_arrays(family, tag, **bad)


class TestCovarianceStructure:
    def test_dirichlet_covariance_is_centered_psd(self):
        g = bridges.lm_forward(
            distributions.dirichlet([0.3, 2.0, 5.0, 1.1]), "softmax_inverse"
        )
        S = g.cov_dense()
        np.testing.assert_allclose(S, S.T, atol=1e-14)
        np.testing.assert_allclose(S @ np.ones(4), np.zeros(4), atol=1e-12)
        w = np.linalg.eigvalsh(S)
        assert w[0] >= -1e-12 * w[-1]

    def test_matrix_covariance_psd(self):
        for family, tag in (
            ("wishart", "matrix_log"),
            ("wishart", "matrix_sqrt"),
            ("inverse_wishart", "matrix_log"),
            ("inverse_wishart", "matrix_sqrt"),
        ):
            params = (
                distributions.wishart(5.0, np.array([[2.0, 0.6], [0.6, 1.0]]))
                if family == "wishart"
                else distributions.inverse_wishart(5.0, np.array([[2.0, 0.6], [0.6, 1.0]]))
            )
            g = bridges.lm_forward(params, tag)
            w = np.linalg.eigvalsh(g.vech_cov())
            assert w[0] > 0

    def test_k2_dirichlet_matches_beta_logit(self):
        a1, a2 = 2.3, 0.8
        gd = bridges.lm_forward(distributions.dirichlet([a1, a2]), "softmax_inverse")
        gb = bridges.lm_forward(distributions.beta(a1, a2), "logit")
        # the log-odds coordinate of the centered softmax Gaussian
        assert gd.mean[0] - gd.mean[1] == pytest.approx(gb.mu, abs=1e-12)
        S = gd.cov_dense()
        assert S[0, 0] + S[1, 1] - 2 * S[0, 1] == pytest.approx(gb.var, abs=1e-12)


class TestVectorizedArrays:
    def test_forward_arrays_matches_pointwise(self):
        alpha = np.array([1.5, 2.0, 4.0])
        lam = np.array([0.5, 1.0, 2.0])
        mu, var = bridges.forward_arrays("gamma", "log", alpha=alpha, lam=lam)
        for i in range(3):
            g = bridges.lm_forward(distributions.gamma(alpha[i], lam[i]), "log")
            assert mu[i] == pytest.approx(g.mu, abs=1e-15)
            assert var[i] == pytest.approx(g.var, abs=1e-15)

    def test_inverse_arrays_round_trip(self):
        k = np.linspace(1.5, 9.5, 17)
        mu, var = bridges.forward_arrays("chi_squared", "sqrt", k=k)
        back = bridges.inverse_arrays("chi_squared", "sqrt", mu, var)
        np.testing.assert_allclose(back["k"], k, rtol=1e-12)

    def test_forward_arrays_validity(self):
        with pytest.raises(OutsideValidityRegion):
            bridges.forward_arrays(
                "gamma", "sqrt", alpha=np.array([0.4, 2.0]), lam=np.array([1.0, 1.0])
            )

    @pytest.mark.parametrize(
        "family,tag",
        [
            (family, tag)
            for family in distributions._SCALAR_FAMILIES
            for tag in transforms.FAMILY_BASES[family][1:]
        ],
    )
    def test_non_finite_or_non_positive_inputs_raise(self, family, tag):
        fields = distributions.param_fields(family)
        good = {name: np.array([3.0, 3.0]) for name in fields}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for name in fields:
                for bad in (np.nan, np.inf, -1.0, 0.0):
                    with pytest.raises(OutsideValidityRegion):
                        bridges.forward_arrays(
                            family, tag, **{**good, name: np.array([3.0, bad])}
                        )
            mu, var = bridges.forward_arrays(family, tag, **good)
            for bad_mu, bad_var in ((np.nan, var[0]), (np.inf, var[0]), (mu[0], np.nan)):
                with pytest.raises(DomainMismatch):
                    bridges.inverse_arrays(family, tag, [mu[0], bad_mu], [var[0], bad_var])

    @pytest.mark.parametrize(
        "family,tag,mu",
        [
            ("gamma", "log", -800.0),  # lam = exp(800) overflows
            ("beta", "logit", 800.0),  # alpha = exp(800) overflows
            ("beta", "logit", -800.0),
            ("gamma", "log", 800.0),  # lam = exp(-800) underflows to 0
            ("inverse_gamma", "sqrt", 1e200),  # mu^4 overflows
        ],
    )
    def test_extreme_finite_means_raise(self, family, tag, mu):
        # a RuntimeWarning fails this test through the pytest configuration
        with pytest.raises(DomainMismatch):
            bridges.inverse_arrays(family, tag, [2.0, mu], [1.0, 1.0])

    @pytest.mark.parametrize(
        "family,tag,fields",
        [
            ("beta", "logit", {"alpha": 1e-300, "beta": 1e-300}),  # alpha * beta underflows
            ("gamma", "sqrt", {"alpha": 1e308, "lam": 1e-308}),  # (alpha - 1/2) / lam overflows
        ],
    )
    def test_extreme_valid_fields_raise(self, family, tag, fields):
        # a RuntimeWarning fails this test through the pytest configuration
        with pytest.raises(OutsideValidityRegion):
            bridges.forward_arrays(family, tag, **{k: [v] for k, v in fields.items()})
        with pytest.raises(OutsideValidityRegion):
            bridges.lm_forward(distributions.from_record({"family": family, **fields}), tag)

    def test_bridge_table_lists_rows(self):
        keys = set(bridges.bridge_rows())
        assert ("gamma", "sqrt") in keys
        assert ("dirichlet", "softmax_inverse") in keys
        assert ("inverse_wishart", "matrix_log") in keys
        table = bridges.bridge_table()
        assert len(table) == len(keys)
        assert all(row["validity"] for row in table)
