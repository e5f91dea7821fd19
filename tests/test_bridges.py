"""Closed-form bridge rows: pinned values, validity regions, round trips.

Numeric-Laplace equivalence over the full grid lives in test_acceptance; here
the pinned examples and the algebraic inverses are exercised directly.
"""

import itertools
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplace_match import bridges, diagnostics, distributions, matrixops, pipeline, transforms
from laplace_match.errors import (
    BasisSizeMismatch,
    DimensionMismatch,
    DomainMismatch,
    IncompatibleBasis,
    InvalidParams,
    NonInvertibleBridge,
    NotPositiveDefinite,
    NoValidLaplace,
    OutsideValidityRegion,
)
from laplace_match.gaussian import GaussianApprox, scalar_gaussian
from laplace_match.transforms import BasisTransform


class TestForwardPinned:
    def test_exponential_log(self):
        g = bridges.lm_forward(distributions.exponential(1.0), "log")
        assert g.mu == pytest.approx(0.0, abs=1e-15)
        assert g.var == pytest.approx(1.0, abs=1e-15)

    def test_exponential_sqrt(self):
        g = bridges.lm_forward(distributions.exponential(2.0), "sqrt")
        assert g.mu == pytest.approx(0.5, abs=1e-15)
        assert g.var == pytest.approx(0.125, abs=1e-15)

    def test_gamma_log(self):
        g = bridges.lm_forward(distributions.gamma(4.0, 2.0), "log")
        assert g.mu == pytest.approx(np.log(2.0), abs=1e-15)
        assert g.var == pytest.approx(0.25, abs=1e-15)

    def test_beta_logit(self):
        g = bridges.lm_forward(distributions.beta(2.0, 2.0), "logit")
        assert g.mu == pytest.approx(0.0, abs=1e-15)
        assert g.var == pytest.approx(1.0, abs=1e-15)

    def test_dirichlet_uniform(self):
        g = bridges.lm_forward(
            distributions.dirichlet([1.0, 1.0, 1.0]), "softmax_inverse"
        )
        np.testing.assert_allclose(g.mean, np.zeros(3), atol=1e-15)
        expected = np.full((3, 3), -1 / 3) + np.eye(3)
        np.testing.assert_allclose(g.cov_dense(), expected * (2 / 3 + 1 / 3), atol=1e-15)

    def test_wishart_log_identity_scale(self):
        g = bridges.lm_forward(
            distributions.wishart(3.0, np.eye(2)), "matrix_log"
        )
        np.testing.assert_allclose(matrixops.unvech(g.mean, 2), np.log(2.0) * np.eye(2), atol=1e-15)
        # isotropic on symmetric matrices: off-diagonal vech coordinate has half
        # the variance of a diagonal one
        np.testing.assert_allclose(g.cov_dense(), np.diag([1.0, 0.5, 1.0]), atol=1e-15)


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
        b = bridges.lm_forward(distributions.gamma(3.0, 1.0), "identity")
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
            assert bridges.bridge_valid(params, "identity") == ok
            if ok:
                bridges.standard_laplace(params)
            else:
                with pytest.raises(NoValidLaplace):
                    bridges.standard_laplace(params)


class TestValidityRegions:
    def test_gamma_sqrt_needs_alpha_above_half(self):
        with pytest.raises(OutsideValidityRegion):
            bridges.lm_forward(distributions.gamma(0.5, 1.0), "sqrt")
        bridges.lm_forward(distributions.gamma(0.5 + 1e-9, 1.0), "sqrt")

    def test_chi_squared_sqrt_needs_k_above_one(self):
        with pytest.raises(OutsideValidityRegion):
            bridges.lm_forward(distributions.chi_squared(1.0), "sqrt")
        bridges.lm_forward(distributions.chi_squared(1.0 + 1e-9), "sqrt")

    def test_wishart_sqrt_needs_n_above_p(self):
        with pytest.raises(OutsideValidityRegion):
            bridges.lm_forward(
                distributions.wishart(2.0, np.eye(2)), "matrix_sqrt"
            )
        bridges.lm_forward(distributions.wishart(2.0 + 1e-9, np.eye(2)), "matrix_sqrt")

    def test_log_bases_always_valid(self):
        for params in (
            distributions.gamma(0.05, 3.0),
            distributions.chi_squared(0.1),
            distributions.inverse_gamma(0.2, 0.3),
        ):
            g = bridges.lm_forward(params, "log")
            assert np.isfinite(g.mu) and g.var > 0

    def test_incompatible_pairs(self):
        with pytest.raises(IncompatibleBasis):
            bridges.lm_forward(distributions.beta(2.0, 2.0), "log")
        with pytest.raises(IncompatibleBasis):
            bridges.lm_forward(
                distributions.dirichlet([1.0, 1.0]), BasisTransform("softmax_inverse", K=3)
            )
        with pytest.raises(IncompatibleBasis):
            bridges.lm_inverse((0.0, 1.0), "beta", "sqrt")

    def test_bridge_valid_rejects_pairs_without_a_row(self):
        for params, basis in (
            (distributions.gamma(2.0, 1.0), BasisTransform("matrix_log", p=2)),
            (distributions.wishart(3.0, np.eye(2)), BasisTransform("softmax_inverse", K=3)),
            (distributions.dirichlet([1.0, 2.0, 3.0]), BasisTransform("matrix_sqrt", p=2)),
            (distributions.beta(2.0, 2.0), "log"),
        ):
            with pytest.raises(IncompatibleBasis):
                bridges.bridge_valid(params, basis)

    @pytest.mark.parametrize(
        "call,params,basis",
        [
            ("bridge_valid", distributions.dirichlet([1.0, 2.0, 3.0, 4.0]),
             BasisTransform("softmax_inverse", K=3)),
            ("bridge_valid", distributions.inverse_wishart(5.0, np.eye(3)),
             BasisTransform("matrix_log", p=2)),
            ("lm_inverse", distributions.dirichlet([1.0, 2.0, 3.0]),
             BasisTransform("softmax_inverse", K=4)),
            ("lm_inverse", distributions.inverse_wishart(5.0, np.eye(2)),
             BasisTransform("matrix_log", p=3)),
        ],
    )
    def test_sized_basis_must_fit(self, call, params, basis):
        with pytest.raises(IncompatibleBasis):
            if call == "bridge_valid":
                bridges.bridge_valid(params, basis)
            else:
                g = bridges.lm_forward(params, basis.tag)
                bridges.lm_inverse(g, params.family, basis)


def test_the_catalogue_is_one_table():
    catalogue = transforms.FAMILY_BASES
    assert set(catalogue) == set(distributions.FAMILIES)
    assert all(tags[0] == "identity" for tags in catalogue.values())
    rows = [(family, tag) for family, tags in catalogue.items() for tag in tags[1:]]
    assert sorted(bridges._ROWS) == sorted(rows)
    union = []
    for tags in catalogue.values():
        union += [tag for tag in tags if tag not in union]
    assert transforms.BASIS_TAGS == tuple(union)
    for family in distributions.CONJUGATE_FAMILIES:
        assert (family, catalogue[family][1]) in bridges._ROWS


_GAMMA = distributions.gamma(2.0, 1.0)

# every public function that takes a basis, applied to a gamma record
_ENTRY_POINTS = {
    "lm_forward": lambda basis: bridges.lm_forward(_GAMMA, basis),
    "bridge_valid": lambda basis: bridges.bridge_valid(_GAMMA, basis),
    "lm_inverse": lambda basis: bridges.lm_inverse((0.0, 1.0), "gamma", basis),
    "push_forward": lambda basis: transforms.push_forward(_GAMMA, basis),
    "latent_samples": lambda basis: diagnostics.latent_samples(_GAMMA, basis, 10, 0),
    "mc_kl": lambda basis: diagnostics.mc_kl(_GAMMA, basis, n=10),
    "pipeline.pseudo_observations": lambda basis: pipeline.pseudo_observations(
        pipeline.Dataset(np.arange(3.0), np.ones(3)), pipeline.LMGPConfig("gamma", basis=basis)
    ),
}


class TestBasisResolution:
    @pytest.fixture
    def resolved(self, monkeypatch):
        calls = []
        resolve = transforms.resolve_basis

        def spy(family, basis, size):
            calls.append((family, basis))
            return resolve(family, basis, size)

        monkeypatch.setattr(transforms, "resolve_basis", spy)
        return calls

    @pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
    def test_every_entry_point_resolves_through_resolve_basis(self, entry, resolved):
        _ENTRY_POINTS[entry]("log")
        assert ("gamma", "log") in resolved
        del resolved[:]
        for basis in ("softmax_inverse", BasisTransform("matrix_log", p=2), 3):
            with pytest.raises(IncompatibleBasis):
                _ENTRY_POINTS[entry](basis)
            assert resolved[-1] == ("gamma", basis)

    def test_oracle_rows_resolve_through_resolve_basis(self, resolved):
        rows = diagnostics.oracle_rows(["exponential"], bases=["log"])
        assert len(rows) == 10 and resolved.count(("exponential", "log")) == 10
        # a BasisTransform selects its rows too; it selected none
        basis = BasisTransform("log")
        assert diagnostics.oracle_rows(["exponential"], bases=[basis]) == rows
        with pytest.raises(IncompatibleBasis):
            diagnostics.oracle_rows(["dirichlet"], bases=[BasisTransform("softmax_inverse", K=4)])

    def test_a_basis_of_another_family_is_incompatible_before_sizing(self):
        # raised InvalidParams("softmax_inverse needs K >= 2"): the tag was
        # sized before the family was checked
        with pytest.raises(IncompatibleBasis):
            bridges.lm_forward(_GAMMA, "softmax_inverse")

    def test_lm_inverse_of_an_unknown_family_is_invalid_params(self):
        # raised a bare ValueError
        with pytest.raises(InvalidParams):
            bridges.lm_inverse((0.0, 1.0), "poisson", "log")

    def test_a_basis_that_is_neither_a_tag_nor_a_basis_transform_is_incompatible(self):
        # raised a bare TypeError
        for basis in (3, None, ("log",)):
            with pytest.raises(IncompatibleBasis):
                bridges.lm_forward(_GAMMA, basis)
            with pytest.raises(IncompatibleBasis):
                bridges.lm_inverse((0.0, 1.0), "gamma", basis)


class TestInversePinned:
    def test_exponential_log(self):
        params = bridges.lm_inverse((0.0, 1.0), "exponential", "log")
        assert params.lam == pytest.approx(1.0, abs=1e-15)

    def test_gamma_log(self):
        params = bridges.lm_inverse((0.0, 0.25), "gamma", "log")
        assert params.alpha == pytest.approx(4.0, abs=1e-12)
        assert params.lam == pytest.approx(4.0, abs=1e-12)

    def test_inverse_wishart_log(self):
        # 2/3 times the identity on the 2 x 2 entries, on the vech coordinates
        g = GaussianApprox(np.zeros(3), np.diag([2 / 3, 1 / 3, 2 / 3]))
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
        # the record's length sets K or p: one that no basis has is rejected
        with pytest.raises(DimensionMismatch):
            bridges.lm_inverse(GaussianApprox(np.zeros(4), np.eye(4)), "wishart", "matrix_log")
        with pytest.raises(DimensionMismatch):
            bridges.lm_inverse(GaussianApprox(np.zeros(2), np.eye(2)), "gamma", "log")
        with pytest.raises(DimensionMismatch):
            bridges.lm_inverse(scalar_gaussian(0.0, 1.0), "dirichlet", "softmax_inverse")
        with pytest.raises(BasisSizeMismatch):
            bridges.lm_inverse(
                GaussianApprox(np.zeros(3), np.eye(3)), "wishart", BasisTransform("matrix_log", p=3)
            )


def _strict(fn):
    """fn, raising LinAlgError on a non-finite matrix as old numpy builds
    may, where numpy 2 returns NaN."""
    def call(a, *args, **kwargs):
        if not np.isfinite(a).all():
            raise np.linalg.LinAlgError("non-finite matrix")
        return fn(a, *args, **kwargs)

    return call


class TestMaskedInverse:
    def test_inverse_rejects_scales_that_efparams_rejects(self):
        # the image scale has eigenvalues 4 and 4.3e13, below the 1e-10
        # conditioning bound of EFParams
        mu, cov = np.array([[30.0, 0.0, 0.0]]), 0.5 * np.eye(3)[None]
        with pytest.raises(DomainMismatch):
            bridges.inverse_arrays("inverse_wishart", "matrix_log", mu, cov)
        with pytest.raises(DomainMismatch):
            bridges.lm_inverse(
                GaussianApprox(mu[0], cov[0]), "inverse_wishart", "matrix_log"
            )
        fields, ok = bridges._inverse_masked(
            "inverse_wishart", "matrix_log", np.vstack([np.zeros((1, 3)), mu]),
            np.concatenate([cov, cov]),
        )
        assert ok.tolist() == [True, False]
        with pytest.raises(InvalidParams):
            distributions.inverse_wishart(fields["nu"][1], fields["Psi"][1])
        # the forward domain keeps such a scale
        bridges.forward_arrays("inverse_wishart", "matrix_log", nu=fields["nu"], Psi=fields["Psi"])

    @pytest.mark.parametrize("family,tag,mu", [
        ("exponential", "sqrt", -1.0),
        ("gamma", "sqrt", 0.0),
        ("inverse_gamma", "sqrt", 0.5),  # mu^2 <= 2 var
        ("chi_squared", "sqrt", -2.0),
    ])
    def test_sqrt_rows_mask_only_the_point_off_the_branch(self, family, tag, mu):
        means, var = np.array([2.0, mu, 3.0]), np.array([0.5, 0.5, 0.5])
        assert bridges._inverse_masked(family, tag, means, var)[1].tolist() == [True, False, True]
        with pytest.raises(DomainMismatch):
            bridges.inverse_arrays(family, tag, means, var)

    def test_matrix_sqrt_masks_only_the_mean_that_is_not_positive_definite(self):
        nu, Psi = np.array([5.0, 6.0, 7.0]), np.stack([np.eye(2), 2.0 * np.eye(2), np.eye(2)])
        mu, cov = bridges.forward_arrays("inverse_wishart", "matrix_sqrt", nu=nu, Psi=Psi)
        mu[1] = [1.0, 0.0, -1.0]
        fields, ok = bridges._inverse_masked("inverse_wishart", "matrix_sqrt", mu, cov)
        assert ok.tolist() == [True, False, True]
        np.testing.assert_allclose(fields["nu"][[0, 2]], nu[[0, 2]], rtol=1e-12)

    @pytest.mark.parametrize("tag", ["matrix_log", "matrix_sqrt"])
    @pytest.mark.parametrize("where", ["mean", "covariance"])
    def test_eigh_never_sees_a_non_finite_matrix(self, monkeypatch, tag, where):
        monkeypatch.setattr(np.linalg, "eigh", _strict(np.linalg.eigh))
        monkeypatch.setattr(np.linalg, "eigvalsh", _strict(np.linalg.eigvalsh))
        Psi = np.stack([np.eye(2), [[2.0, 0.5], [0.5, 1.0]], 3.0 * np.eye(2)])
        mu, cov = bridges.forward_arrays(
            "inverse_wishart", tag, nu=np.array([5.0, 6.0, 7.0]), Psi=Psi
        )
        if where == "mean":
            mu[1, 2] = np.nan
        else:
            cov[1, 0, 1] = cov[1, 1, 0] = np.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            _, ok = bridges._inverse_masked("inverse_wishart", tag, mu, cov)
            assert ok.tolist() == [True, False, True]
            with pytest.raises(DomainMismatch):
                bridges.inverse_arrays("inverse_wishart", tag, mu, cov)


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
        for basis in ("log", "sqrt"):
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
        g = bridges.lm_forward(params, "softmax_inverse")
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
_V0 = np.array([[0.75, 0.5], [0.5, 1.0]])
# one parameter set per family at the small-shape edge of its grid
_SMALL_SHAPE = {
    "exponential": distributions.exponential(1e-3),
    "gamma": distributions.gamma(0.6, 1e-3),
    "inverse_gamma": distributions.inverse_gamma(0.05, 1e-3),
    "chi_squared": distributions.chi_squared(1.05),
    "beta": distributions.beta(0.05, 0.07),
    "dirichlet": distributions.dirichlet([0.05, 0.1, 0.2]),
    "wishart": distributions.wishart(2.05, 1e-3 * _V0),
    "inverse_wishart": distributions.inverse_wishart(1.05, 1e-3 * _V0),
}


@pytest.mark.parametrize("family,tag", list(bridges._ROWS))
def test_small_shape_edge_matches_oracle(family, tag):
    """Each bridge row at small shapes: within 1e-6 of the numeric oracle, and
    the inverse recovers the parameters to 1e-9. (At large shapes, ~1e4, the
    oracle's finite differences are the limit, not the closed forms.)"""
    params = _SMALL_SHAPE[family]
    basis = transforms.resolve_basis(family, tag, transforms._size_of(params))
    forward_dev, gauss = diagnostics._closed_vs_numeric(params, basis)
    assert forward_dev <= 1e-6
    assert diagnostics._round_trip_dev(params, basis, gauss, corrupt=False) <= 1e-9


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
                _close(mu[i], g.mean, 1e-12)
                _close(cov[i], g.cov_dense(), 1e-12)
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
            w = np.linalg.eigvalsh(g.cov_dense())
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

    @pytest.mark.parametrize(
        "family,tag,reference",
        [
            ("exponential", "log", lambda lam: (-np.log(lam), np.ones_like(lam))),
            ("exponential", "sqrt", lambda lam: (np.sqrt(0.5 / lam), 0.25 / lam)),
            ("gamma", "log", lambda a, lam: (np.log(a / lam), 1.0 / a)),
            ("gamma", "sqrt", lambda a, lam: (np.sqrt((a - 0.5) / lam), 0.25 / lam)),
            ("inverse_gamma", "log", lambda a, lam: (np.log(lam / a), 1.0 / a)),
            (
                "inverse_gamma",
                "sqrt",
                lambda a, lam: (np.sqrt(lam / (a + 0.5)), lam / (4.0 * (a + 0.5) ** 2)),
            ),
            ("chi_squared", "log", lambda k: (np.log(k), 2.0 / k)),
            ("chi_squared", "sqrt", lambda k: (np.sqrt(k - 1.0), np.full(k.shape, 0.5))),
            ("beta", "logit", lambda a, b: (np.log(a / b), (a + b) / (a * b))),
        ],
    )
    def test_forward_arrays_equals_the_row_formula_bitwise(self, family, tag, reference):
        rng = np.random.default_rng(1)
        names = distributions.param_fields(family)
        fields = [np.exp(rng.uniform(0.1, 3.0, 500)) for _ in names]
        mu, var = bridges.forward_arrays(family, tag, **dict(zip(names, fields)))
        ref_mu, ref_var = reference(*fields)
        assert np.array_equal(mu, ref_mu) and np.array_equal(var, ref_var)
        # 0-d fields give 0-d results
        mu0, var0 = bridges.forward_arrays(
            family, tag, **{name: np.asarray(f[3]) for name, f in zip(names, fields)}
        )
        assert np.shape(mu0) == () and mu0 == ref_mu[3] and var0 == ref_var[3]

    def test_forward_arrays_rejects_wrong_field_names(self):
        # raised a bare TypeError
        with pytest.raises(InvalidParams):
            bridges.forward_arrays("gamma", "log", alpha=np.ones(2), rate=np.ones(2))

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
            ("gamma", "log", {"alpha": 5e-324, "lam": 1.0}),  # variance 1 / alpha = inf
            ("beta", "logit", {"alpha": 1e308, "beta": 1e308}),  # variance inf / inf = NaN
            ("beta", "logit", {"alpha": 1e300, "beta": 1e300}),  # variance 2e300 / inf = 0
            ("dirichlet", "softmax_inverse", {"alpha": [5e-324, 1.0]}),  # Sigma holds inf - inf
        ],
    )
    def test_extreme_valid_fields_raise(self, family, tag, fields):
        # a RuntimeWarning fails this test through the pytest configuration
        with pytest.raises(OutsideValidityRegion):
            bridges.forward_arrays(family, tag, **{k: [v] for k, v in fields.items()})
        with pytest.raises(OutsideValidityRegion):
            bridges.lm_forward(distributions.from_record({"family": family, **fields}), tag)


def _softmax_forward_reference(alpha):
    """The softmax row's forward as it was built from full-size (n, K, K)
    terms, for the in-place build to equal float for float."""
    alpha = np.asarray(alpha, dtype=float)
    K = alpha.shape[-1]
    la = np.log(alpha)
    mu = la - np.mean(la, axis=-1, keepdims=True)
    inv = 1.0 / alpha
    s = np.sum(inv, axis=-1, keepdims=True)
    sigma = inv[..., :, None] * np.eye(K)
    pairwise = (inv[..., :, None] + inv[..., None, :]) / K
    sigma = sigma - pairwise + (s[..., None] / (K * K))
    return mu, sigma


def _same_floats(a, b):
    """Equal shapes and entries, NaN where NaN, signs of zero included."""
    return (
        a.shape == b.shape
        and np.array_equal(a, b, equal_nan=True)
        and np.array_equal(np.signbit(a), np.signbit(b))
    )


class TestSoftmaxForwardInPlace:
    @pytest.mark.parametrize("shape", [(2,), (200, 2), (200, 3), (200, 10), (4, 5, 57)])
    def test_equals_the_full_size_build(self, shape):
        rng = np.random.default_rng(shape[-1])
        alpha = np.exp(rng.uniform(np.log(0.2), np.log(30.0), shape))
        got = bridges.dirichlet_softmax_forward_arrays(alpha)
        for a, b in zip(got, _softmax_forward_reference(alpha)):
            assert _same_floats(a, b)

    @pytest.mark.parametrize("K", [2, 3])
    def test_equals_the_full_size_build_on_any_alpha(self, K):
        # every K-tuple of zeros, negatives, infinities, NaN, subnormals and
        # extremes, which only the validity check of forward_arrays rejects
        special = [0.0, -0.0, -1.0, np.inf, -np.inf, np.nan, 5e-324, 1e-310, 1e308, 1.0]
        alpha = np.array(list(itertools.product(special, repeat=K)))
        with np.errstate(all="ignore"):
            got = bridges.dirichlet_softmax_forward_arrays(alpha)
            ref = _softmax_forward_reference(alpha)
        for a, b in zip(got, ref):
            assert _same_floats(a, b)

    def test_peak_allocation_at_the_benchmark_size(self):
        # the catalogue op's (20000, 10) alphas: 17.6 MB of output (mu and
        # Sigma); the full-size build peaked at 69.2 MB, the in-place one at
        # 21.2 MB (numpy 2.4), bounded here with a 2.8 MB margin
        alpha = np.random.default_rng(3).uniform(0.2, 30.0, (20000, 10))
        tracemalloc.start()
        try:
            bridges.forward_arrays("dirichlet", "softmax_inverse", alpha=alpha)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 24e6
