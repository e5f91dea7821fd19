"""GaussianApprox structure tags, domain charts, and serialization."""

import numpy as np
import pytest

from laplace_match import bridges, distributions
from laplace_match.errors import DimensionMismatch, InvalidParams, NotPositiveDefinite
from laplace_match.gaussian import GaussianApprox, scalar_gaussian


class TestConstruction:
    def test_scalar(self):
        g = scalar_gaussian(1.5, 0.25)
        assert g.mu == 1.5 and g.var == 0.25
        assert g.domain == "scalar"
        np.testing.assert_allclose(g.cov_dense(), [[0.25]])

    def test_positive_variance_required(self):
        with pytest.raises(NotPositiveDefinite):
            scalar_gaussian(0.0, 0.0)
        with pytest.raises(NotPositiveDefinite):
            GaussianApprox([0.0, 0.0], "diagonal", [1.0, -1.0])
        with pytest.raises(NotPositiveDefinite):
            GaussianApprox([0.0, 0.0], "dense", np.diag([1.0, -0.5]))

    def test_dense_asymmetry_rejected(self):
        with pytest.raises(NotPositiveDefinite):
            GaussianApprox([0.0, 0.0], "dense", np.array([[1.0, 0.5], [0.1, 1.0]]))

    def test_shape_checks(self):
        with pytest.raises(DimensionMismatch):
            GaussianApprox([0.0, 1.0], "scalar", 1.0)
        with pytest.raises(DimensionMismatch):
            GaussianApprox([0.0, 1.0], "diagonal", [1.0, 1.0, 1.0])
        with pytest.raises(DimensionMismatch):
            GaussianApprox(np.zeros(3), "scaled_identity", 1.0, domain="symmetric_matrix")

    def test_unknown_structure_or_domain_is_invalid_params(self):
        # each raised a bare ValueError
        with pytest.raises(InvalidParams):
            GaussianApprox([0.0], "banded", 1.0)
        with pytest.raises(InvalidParams):
            GaussianApprox([0.0], "scalar", 1.0, domain="sphere")

    def test_immutable(self):
        g = scalar_gaussian(0.0, 1.0)
        with pytest.raises(AttributeError):
            g.mean = np.array([1.0])
        with pytest.raises(ValueError):
            g.mean[0] = 1.0

    def test_centered_simplex_allows_singular(self):
        # the softmax-bridge covariance has the ones vector in its kernel
        S = np.eye(3) - np.full((3, 3), 1 / 3)
        g = GaussianApprox(np.zeros(3), "dense", S, domain="simplex", centered=True)
        assert g.centered
        indefinite = S - 0.5 * np.outer(np.ones(3), np.ones(3))
        with pytest.raises(NotPositiveDefinite):
            GaussianApprox(np.zeros(3), "dense", indefinite, domain="simplex", centered=True)


class TestAccessors:
    def test_cov_structures_agree(self):
        d = np.array([0.5, 2.0])
        by_diag = GaussianApprox(np.zeros(2), "diagonal", d)
        by_dense = GaussianApprox(np.zeros(2), "dense", np.diag(d))
        np.testing.assert_allclose(by_diag.cov_dense(), by_dense.cov_dense())
        np.testing.assert_allclose(np.diag(by_diag.cov_dense()), d)
        iso = GaussianApprox(np.zeros(2), "scaled_identity", 0.7)
        np.testing.assert_allclose(iso.cov_dense(), 0.7 * np.eye(2))

    def test_mu_guard(self):
        g = GaussianApprox(np.zeros(2), "scaled_identity", 1.0)
        with pytest.raises(DimensionMismatch):
            g.mu

    def test_chart_accessors_centered(self):
        g = bridges.lm_forward(
            distributions.dirichlet([2.0, 3.0, 4.0]), "softmax_inverse"
        )
        cm = g.chart_mean()
        np.testing.assert_allclose(cm, g.mean[:2])
        cc = g.chart_cov()
        np.testing.assert_allclose(cc, g.cov_dense()[:2, :2])
        assert np.all(np.linalg.eigvalsh(cc) > 0)

    def test_chart_cov_uncentered_conditions_on_constraint(self):
        # standard-basis Dirichlet Laplace is a diagonal record on the simplex;
        # the chart covariance conditions on sum(x) = 1
        g = bridges.standard_laplace(distributions.dirichlet([3.0, 3.0, 3.0]))
        assert not g.centered
        S = g.cov_dense()
        s1 = S @ np.ones(3)
        expected = (S - np.outer(s1, s1) / s1.sum())[:2, :2]
        np.testing.assert_allclose(g.chart_cov(), expected, atol=1e-15)
        # conditioning shrinks marginal variance
        assert g.chart_cov()[0, 0] < S[0, 0]

    def test_matrix_accessors(self):
        M = np.array([[1.0, 0.2], [0.2, 2.0]])
        g = GaussianApprox(M.ravel(), "scaled_identity", 2.0, domain="symmetric_matrix", p=2)
        np.testing.assert_allclose(g.mean_matrix(), M)
        np.testing.assert_allclose(g.vech_mean(), [1.0, 0.2, 2.0])
        np.testing.assert_allclose(g.vech_cov(), np.diag([2.0, 1.0, 2.0]))
        with pytest.raises(DimensionMismatch):
            scalar_gaussian(0.0, 1.0).mean_matrix()


class TestRecords:
    def test_scalar_record(self):
        rec = scalar_gaussian(0.5, 2.0).to_record()
        assert rec["mean"] == [0.5]
        assert rec["cov"] == 2.0
        assert rec["structure"] == "scalar"

    def test_matrix_record_keeps_p(self):
        g = GaussianApprox(np.zeros(9), "scaled_identity", 1.0, domain="symmetric_matrix")
        rec = g.to_record()
        assert rec["p"] == 3
        assert rec["domain"] == "symmetric_matrix"

    def test_simplex_record_keeps_centered(self):
        g = bridges.lm_forward(distributions.dirichlet([1.0, 1.0]), "softmax_inverse")
        assert g.to_record()["centered"] is True
