"""GaussianApprox(mean, cov): construction checks, accessors, records, and
the bridge coordinates it holds, against verbatim copies of the accessors
of the structure-tagged record it replaced."""

import numpy as np
import pytest

from laplace_match import bridges, cli, diagnostics, distributions, matrixops
from laplace_match.errors import DimensionMismatch, NotPositiveDefinite, NoValidLaplace
from laplace_match.gaussian import GaussianApprox, scalar_gaussian


class TestConstruction:
    def test_scalar(self):
        g = scalar_gaussian(1.5, 0.25)
        assert g.mu == 1.5 and g.var == 0.25
        assert g.mean.shape == (1,) and g.cov.shape == (1, 1)
        np.testing.assert_allclose(g.cov_dense(), [[0.25]])

    def test_positive_variance_required(self):
        with pytest.raises(NotPositiveDefinite):
            scalar_gaussian(0.0, 0.0)
        with pytest.raises(NotPositiveDefinite):
            scalar_gaussian(0.0, -1.0)
        with pytest.raises(NotPositiveDefinite):
            GaussianApprox([0.0, 0.0], np.diag([1.0, -1.0]))
        with pytest.raises(NotPositiveDefinite):
            GaussianApprox([0.0, 0.0], np.diag([1.0, 0.0]))
        with pytest.raises(NotPositiveDefinite):
            GaussianApprox([0.0, 0.0], np.diag([1.0, -0.5]))

    def test_indefinite_rejected(self):
        # positive diagonal, eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            GaussianApprox([0.0, 0.0], np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_asymmetry_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianApprox([0.0, 0.0], np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_symmetrized_within_the_bound(self):
        C = np.array([[1.0, 0.5], [0.5 + 1e-12, 1.0]])
        g = GaussianApprox([0.0, 0.0], C)
        assert np.array_equal(g.cov, 0.5 * (C + C.T))

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            GaussianApprox([0.0, 1.0], [[1.0]])
        with pytest.raises(DimensionMismatch):
            GaussianApprox([0.0, 1.0], np.eye(3))
        with pytest.raises(DimensionMismatch):
            GaussianApprox([0.0, 1.0], [1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            GaussianApprox(np.zeros((2, 2)), np.eye(4))
        with pytest.raises(DimensionMismatch):
            GaussianApprox([0.0], 1.0)

    def test_takes_mean_and_cov_only(self):
        with pytest.raises(TypeError):
            GaussianApprox([0.0], "scalar", 1.0)

    def test_immutable(self):
        g = scalar_gaussian(0.0, 1.0)
        with pytest.raises(AttributeError):
            g.mean = np.array([1.0])
        with pytest.raises(AttributeError):
            g.cov = np.eye(1)
        with pytest.raises(ValueError):
            g.mean[0] = 1.0
        with pytest.raises(ValueError):
            g.cov[0, 0] = 2.0

    def test_inputs_are_copied(self):
        mean, cov = np.zeros(2), np.eye(2)
        g = GaussianApprox(mean, cov)
        mean[0], cov[0, 0] = 5.0, 5.0
        assert g.mean[0] == 0.0 and g.cov[0, 0] == 1.0

    def test_centered_softmax_allows_singular(self):
        # the softmax-bridge covariance has the ones vector in its kernel
        S = np.eye(3) - np.full((3, 3), 1 / 3)
        g = GaussianApprox(np.zeros(3), S)
        assert np.array_equal(g.cov, S)
        indefinite = S - 0.5 * np.outer(np.ones(3), np.ones(3))
        with pytest.raises(NotPositiveDefinite):
            GaussianApprox(np.zeros(3), indefinite)

    def test_scalar_record_skips_the_eigensolver(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a diagonal record called eigvalsh")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        assert scalar_gaussian(0.5, 2.0).var == 2.0
        with pytest.raises(NotPositiveDefinite):
            scalar_gaussian(0.5, 0.0)
        # K = 10: the floats of the symmetrised covariance, and a zero or
        # negative variance still raises
        var = np.linspace(0.1, 1.0, 10)
        cov = np.diag(var)
        g = GaussianApprox(np.zeros(10), cov)
        assert g.cov.tobytes() == (0.5 * (cov + cov.T)).tobytes()
        for bad in (0.0, -0.3):
            with pytest.raises(NotPositiveDefinite):
                GaussianApprox(np.zeros(10), np.diag(np.where(np.arange(10) == 4, bad, var)))


class TestAccessors:
    def test_cov_dense_is_a_writable_copy(self):
        g = GaussianApprox(np.zeros(2), np.diag([0.5, 2.0]))
        C = g.cov_dense()
        C[0, 0] = 9.0
        assert g.cov[0, 0] == 0.5
        np.testing.assert_array_equal(np.diag(g.cov_dense()), [0.5, 2.0])

    def test_mu_guard(self):
        g = GaussianApprox(np.zeros(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            g.mu
        with pytest.raises(DimensionMismatch):
            g.var


class TestRecords:
    def test_scalar_record(self):
        rec = scalar_gaussian(0.5, 2.0).to_record()
        assert rec == {"mean": [0.5], "cov": [[2.0]]}

    def test_matrix_record_is_vech(self):
        g = bridges.lm_forward(distributions.wishart(4.0, np.eye(3)), "matrix_log")
        rec = g.to_record()
        assert set(rec) == {"mean", "cov"}
        assert len(rec["mean"]) == 6 and np.shape(rec["cov"]) == (6, 6)

    def test_simplex_record(self):
        g = bridges.lm_forward(distributions.dirichlet([1.0, 1.0]), "softmax_inverse")
        rec = g.to_record()
        assert set(rec) == {"mean", "cov"} and np.shape(rec["cov"]) == (2, 2)


# ---------------------------------------------------------------------------
# verbatim copies of the accessors of the structure-tagged record, on the
# data it stored


def _old_chart_cov(S, centered):
    """The former `GaussianApprox.chart_cov`, S its `cov_dense()`."""
    if not centered:
        s1 = S @ np.ones(S.shape[0])
        denom = float(np.sum(s1))
        S = S - np.outer(s1, s1) / denom
    return S[:-1, :-1].copy()


def _old_scaled_identity_vech_cov(data, p):
    """The former `vech_cov()` of a "scaled_identity" record."""
    pairs = matrixops.vech_pairs(p)
    return np.diag([data if i == j else 0.5 * data for i, j in pairs])


def _old_matrix_vech_mean(mu, p):
    """`_matrix_gaussian(mu, cov, p).vech_mean()`: unvech, ravel, vech."""
    return matrixops.vech(matrixops.unvech(mu, p).ravel().reshape(p, p).copy())


V0 = np.array([[0.75, 0.5], [0.5, 1.0]])


class TestBitIdenticalToTheTaggedRecord:
    @pytest.mark.parametrize("alpha", [[2.0, 3.0, 4.0], [0.3, 2.0, 5.0, 1.1], [1.0, 1.0]])
    def test_softmax_chart(self, alpha):
        g = bridges.lm_forward(distributions.dirichlet(alpha), "softmax_inverse")
        mean, cov = diagnostics.gauss_latent(g, "dirichlet", "softmax_inverse")
        assert np.array_equal(mean, g.mean[:-1])
        assert np.array_equal(cov, _old_chart_cov(g.cov_dense(), centered=True))

    @pytest.mark.parametrize("alpha", [[3.0, 3.0, 3.0], [1.5, 7.0, 2.25, 4.0]])
    def test_identity_chart_conditions_on_the_hyperplane(self, alpha):
        a = np.asarray(alpha)
        s = np.sum(a) - a.size
        g = bridges.standard_laplace(distributions.dirichlet(a))
        assert np.array_equal(g.mean, (a - 1.0) / s)
        assert np.array_equal(g.cov, np.diag((a - 1.0) / s**2))
        mean, cov = diagnostics.gauss_latent(g, "dirichlet", "identity")
        assert np.array_equal(mean, g.mean[:-1])
        assert np.array_equal(cov, _old_chart_cov(np.diag((a - 1.0) / s**2), centered=False))
        # conditioning shrinks the marginal variance
        assert cov[0, 0] < g.cov[0, 0]

    def test_other_records_pass_through(self):
        g = bridges.lm_forward(distributions.wishart(4.0, V0), "matrix_log")
        mean, cov = diagnostics.gauss_latent(g, "wishart", "matrix_log")
        assert np.array_equal(mean, g.mean) and np.array_equal(cov, g.cov)
        # a numeric-oracle record is in working coordinates already
        g = GaussianApprox(np.zeros(2), np.eye(2))
        mean, cov = diagnostics.gauss_latent(g)
        assert np.array_equal(mean, g.mean) and np.array_equal(cov, g.cov)

    @pytest.mark.parametrize("p, data", [(1, 0.3), (2, 2 / 3), (3, 1.7)])
    def test_cli_scalar_sigma_is_the_scaled_identity_vech_cov(self, p, data):
        class Args:
            mu = ";".join(",".join("0.0" for _ in range(p)) for _ in range(p))
            sigma = repr(data)

        g = cli._bridge_gauss(Args, "matrix_log")
        assert np.array_equal(g.cov, _old_scaled_identity_vech_cov(data, p))
        assert np.array_equal(g.mean, np.zeros(p * (p + 1) // 2))

    @pytest.mark.parametrize("family", ["wishart", "inverse_wishart"])
    @pytest.mark.parametrize("tag", ["identity", "matrix_log", "matrix_sqrt"])
    def test_matrix_mean_is_the_round_tripped_vech(self, family, tag):
        for params in diagnostics.default_grid(family):
            try:
                g = bridges.lm_forward(params, tag)
            except NoValidLaplace:
                continue
            assert np.array_equal(g.mean, _old_matrix_vech_mean(g.mean, params.p))
            if tag != "identity":
                fields = {n: np.asarray(getattr(params, n))[None]
                          for n in distributions.param_fields(family)}
                mu, cov = bridges.forward_arrays(family, tag, **fields)
                assert np.array_equal(g.mean, _old_matrix_vech_mean(mu[0], params.p))
                assert np.array_equal(g.cov, 0.5 * (cov[0] + cov[0].T))
