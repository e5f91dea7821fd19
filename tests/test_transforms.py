"""Basis transforms, pushforward densities, and the numeric Laplace fitter.

The change-of-variables identity is checked against finite-difference
Jacobians, and normalization against quadrature, so the closed forms in
bridges.py can later be tested against numeric_laplace as an independent
oracle.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats
from scipy.special import logsumexp

from laplace_match import bridges, diagnostics, distributions, matrixops, pipeline, transforms
from laplace_match.errors import (
    BasisSizeMismatch,
    DimensionMismatch,
    DirectionUnavailable,
    IncompatibleBasis,
    InvalidParams,
    NoValidLaplace,
    OutOfSupport,
)
from laplace_match.transforms import BasisTransform


class TestBasisValidation:
    def test_matrix_log_needs_a_positive_size(self):
        with pytest.raises(InvalidParams):
            BasisTransform("matrix_log", p=0)

    def test_softmax_inverse_needs_two_classes(self):
        with pytest.raises(InvalidParams):
            BasisTransform("softmax_inverse", K=1)

    @pytest.mark.parametrize(
        "tag, sizes",
        [
            ("exp", {}),
            ("log", {"K": 3}),
            ("logit", {"p": 2}),
            ("softmax_inverse", {"K": 3, "p": 2}),
        ],
        ids=["unknown_tag", "K_on_log", "p_on_logit", "p_on_softmax"],
    )
    def test_bad_tag_or_size(self, tag, sizes):
        with pytest.raises(InvalidParams):
            transforms.BasisTransform(tag, **sizes)

    def test_unknown_direction(self):
        with pytest.raises(InvalidParams):
            transforms.transform_samples(np.ones(2), BasisTransform("log"), direction="backward")


class TestResolveBasis:
    def test_tags_are_sized_and_basis_transforms_pass_through(self):
        assert transforms.resolve_basis("gamma", "log", None) == BasisTransform("log")
        assert transforms.resolve_basis("dirichlet", "softmax_inverse", 3) == BasisTransform(
            "softmax_inverse", K=3
        )
        assert transforms.resolve_basis("wishart", "matrix_sqrt", 2) == BasisTransform(
            "matrix_sqrt", p=2
        )
        basis = BasisTransform("matrix_log", p=3)
        assert transforms.resolve_basis("inverse_wishart", basis, 3) is basis

    def test_unknown_family_is_invalid_params(self):
        with pytest.raises(InvalidParams):
            transforms.resolve_basis("poisson", "log", None)

    @pytest.mark.parametrize(
        "family, basis, size",
        [
            ("gamma", "softmax_inverse", None),
            ("gamma", "softmax_inverse", 1),
            ("beta", BasisTransform("matrix_log", p=2), 1),
            ("dirichlet", "logit", 3),
            ("gamma", "exp", None),
            ("gamma", 3, None),
            ("gamma", None, None),
        ],
        ids=["tag-unsized", "tag-too-small", "sized", "scalar-tag", "unknown-tag", "int", "none"],
    )
    def test_the_family_is_checked_before_any_sizing(self, family, basis, size):
        with pytest.raises(IncompatibleBasis):
            transforms.resolve_basis(family, basis, size)

    def test_a_size_mismatch_is_both_incompatible_and_a_dimension_mismatch(self):
        basis = BasisTransform("softmax_inverse", K=4)
        for caught in (IncompatibleBasis, DimensionMismatch, BasisSizeMismatch):
            with pytest.raises(caught):
                transforms.resolve_basis("dirichlet", basis, 3)

    def test_bad_sizes_of_a_tag_are_invalid_params(self):
        with pytest.raises(InvalidParams):
            transforms.resolve_basis("dirichlet", "softmax_inverse", 1)
        with pytest.raises(InvalidParams):
            transforms.resolve_basis("wishart", "matrix_log", None)


class TestTransformSamples:
    def test_log_inverse_pinned(self):
        y = transforms.transform_samples(np.array([0.0, 1.0]), BasisTransform("log"), "inverse")
        np.testing.assert_allclose(y, [1.0, np.e], atol=1e-15)

    def test_softmax_inverse_uniform_point(self):
        basis = BasisTransform("softmax_inverse", K=3)
        y = transforms.transform_samples(np.zeros(3), basis, "inverse")
        np.testing.assert_allclose(y, np.full(3, 1 / 3), atol=1e-15)

    def test_matrix_sqrt_inverse_squares(self):
        basis = BasisTransform("matrix_sqrt", p=2)
        y = transforms.transform_samples(np.diag([2.0, 3.0]), basis, "inverse")
        np.testing.assert_allclose(y, np.diag([4.0, 9.0]), atol=1e-12)

    @pytest.mark.parametrize(
        "basis,x",
        [
            (BasisTransform("identity"), [0.5, 2.0]),
            (BasisTransform("log"), [0.5, -2.0]),
            (BasisTransform("sqrt"), [0.5, -2.0]),
            (BasisTransform("logit"), [0.5, -2.0]),
            (BasisTransform("softmax_inverse", K=3), [[0.5, -2.0, 1.0]]),
            (BasisTransform("softmax_inverse", K=3), [[0.5, -2.0]]),
            (BasisTransform("matrix_log", p=2), [[0.5, 0.1], [0.1, -2.0]]),
            (BasisTransform("matrix_sqrt", p=2), [[0.5, 0.1], [0.1, -2.0]]),
        ],
        ids=lambda v: str(v) if isinstance(v, BasisTransform) else None,
    )
    def test_inverse_leaves_its_input_untouched(self, basis, x):
        # the in-place inverse the pipelines call runs here on a copy
        x = np.array(x)
        before = x.copy()
        out = transforms.transform_samples(x, basis, "inverse")
        assert np.array_equal(x, before) and not np.shares_memory(out, x)

    def test_softmax_forward_needs_flag(self):
        basis = BasisTransform("softmax_inverse", K=3)
        x = np.array([0.2, 0.3, 0.5])
        with pytest.raises(DirectionUnavailable):
            transforms.transform_samples(x, basis, "forward")
        u = transforms.transform_samples(x, basis, "forward", pseudo_inverse=True)
        assert np.sum(u) == pytest.approx(0.0, abs=1e-12)

    def test_forward_support_checks(self):
        with pytest.raises(OutOfSupport):
            transforms.transform_samples(np.array([-1.0]), BasisTransform("log"), "forward")
        with pytest.raises(OutOfSupport):
            transforms.transform_samples(np.array([1.2]), BasisTransform("logit"), "forward")

    @pytest.mark.parametrize(
        "params,basis",
        [
            (distributions.exponential(1.3), BasisTransform("log")),
            (distributions.exponential(1.3), BasisTransform("sqrt")),
            (distributions.gamma(2.5, 0.8), BasisTransform("log")),
            (distributions.chi_squared(4.0), BasisTransform("sqrt")),
            (distributions.beta(2.0, 3.0), BasisTransform("logit")),
        ],
        ids=lambda v: getattr(v, "tag", None) or v.family,
    )
    def test_scalar_round_trip(self, params, basis):
        x = distributions.sample(params, seed=5, count=1000)
        y = transforms.transform_samples(x, basis, "forward")
        back = transforms.transform_samples(y, basis, "inverse")
        np.testing.assert_allclose(back, x, rtol=1e-10, atol=1e-12)

    def test_softmax_round_trip(self):
        basis = BasisTransform("softmax_inverse", K=4)
        x = distributions.sample(distributions.dirichlet([2.0, 1.0, 3.0, 1.5]), seed=6, count=1000)
        u = transforms.transform_samples(x, basis, "forward", pseudo_inverse=True)
        back = transforms.transform_samples(u, basis, "inverse")
        np.testing.assert_allclose(back, x, rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("tag", ["matrix_log", "matrix_sqrt"])
    def test_matrix_round_trip(self, tag):
        basis = BasisTransform(tag, p=2)
        X = distributions.sample(distributions.wishart(8.0, np.eye(2)), seed=7, count=1000)
        Y = transforms.transform_samples(X, basis, "forward")
        back = transforms.transform_samples(Y, basis, "inverse")
        np.testing.assert_allclose(back, X, rtol=1e-10, atol=1e-10)
        rng = np.random.default_rng(0)
        for p in (3, 5):
            A = _random_spd(rng, p, count=100)
            basis = transforms.BasisTransform(tag, p=p)
            back = transforms.transform_samples(
                transforms.transform_samples(A, basis, "forward"), basis, "inverse"
            )
            scale = np.max(np.abs(A), axis=(-2, -1))
            assert np.all(np.max(np.abs(back - A), axis=(-2, -1)) <= 1e-10 * scale)


def _random_spd(rng, p, count=None):
    shape = (p, p) if count is None else (count, p, p)
    A = rng.normal(size=shape)
    return A @ np.swapaxes(A, -1, -2) + 0.1 * np.eye(p)


class TestScalarInverseRange:
    # log on [800] overflowed with a RuntimeWarning, and the non-finite
    # latents passed through: [nan] -> [nan], [-inf] -> [0], [inf] -> [inf]
    # or [1]
    @pytest.mark.parametrize(
        "tag,bad",
        [
            ("log", 800.0), ("log", np.nan), ("log", -np.inf), ("log", np.inf),
            ("sqrt", 1e200), ("sqrt", -1e200), ("sqrt", np.inf), ("sqrt", np.nan),
            ("logit", np.inf), ("logit", -np.inf), ("logit", np.nan),
        ],
    )
    def test_non_finite_or_overflowing_latent_raises(self, tag, bad):
        with pytest.raises(OutOfSupport):
            transforms.transform_samples(np.array([0.0, bad]), BasisTransform(tag), "inverse")

    @pytest.mark.parametrize("tag", ["log", "sqrt", "logit"])
    def test_empty_and_extreme_finite_latents_pass(self, tag):
        basis = BasisTransform(tag)
        assert transforms.transform_samples(np.zeros(0), basis, "inverse").shape == (0,)
        top = np.finfo(float).max
        lo, hi, inverse = {
            "log": (-top, np.log(top), np.exp),
            "sqrt": (-np.sqrt(top), np.sqrt(top), np.square),
            "logit": (-top, top, lambda x: 0.5 * (1.0 + np.tanh(0.5 * x))),
        }[tag]
        x = np.array([lo, -5.0, 0.0, 5.0, hi])
        x = np.concatenate([x, np.random.default_rng(0).normal(scale=20.0, size=1000)])
        np.testing.assert_array_equal(transforms.transform_samples(x, basis, "inverse"), inverse(x))


class TestMatrixBases:
    """The eigenvalue maps of the matrix-log and matrix-sqrt bases."""

    def test_sqrt_pinned(self):
        Y = transforms.transform_samples(np.diag([4.0, 9.0]), BasisTransform("matrix_sqrt", p=2))
        np.testing.assert_allclose(Y, np.diag([2.0, 3.0]), atol=1e-12)

    def test_log_of_identity_is_zero(self):
        Y = transforms.transform_samples(np.eye(3), BasisTransform("matrix_log", p=3))
        np.testing.assert_allclose(Y, np.zeros((3, 3)), atol=1e-13)

    @pytest.mark.parametrize(
        "tag,direction",
        [("matrix_log", "forward"), ("matrix_log", "inverse"), ("matrix_sqrt", "forward")],
        ids=["log", "exp", "sqrt"],
    )
    def test_orthogonal_equivariance(self, tag, direction):
        rng = np.random.default_rng(1)
        A = _random_spd(rng, 3)
        Q = np.linalg.qr(rng.normal(size=(3, 3)))[0]
        basis = transforms.BasisTransform(tag, p=3)
        lhs = transforms.transform_samples(Q @ A @ Q.T, basis, direction)
        rhs = Q @ transforms.transform_samples(A, basis, direction) @ Q.T
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * max(np.max(np.abs(rhs)), 1.0)

    def test_non_pd_rejected(self):
        indef = np.diag([1.0, -1.0])
        for basis in (BasisTransform("matrix_log", p=2), BasisTransform("matrix_sqrt", p=2)):
            with pytest.raises(OutOfSupport):
                transforms.transform_samples(indef, basis, "forward")
        # the exp inverse is defined on any symmetric matrix
        out = transforms.transform_samples(indef, BasisTransform("matrix_log", p=2), "inverse")
        np.testing.assert_allclose(out, np.diag([np.e, 1.0 / np.e]), atol=1e-15)

    def test_asymmetry_rejected(self):
        with pytest.raises(OutOfSupport):
            transforms.transform_samples(
                np.array([[1.0, 0.5], [0.4, 1.0]]), BasisTransform("matrix_log", p=2), "inverse"
            )

    @pytest.mark.parametrize("tag", ["matrix_log", "matrix_sqrt"])
    @pytest.mark.parametrize("direction", ["forward", "inverse"])
    def test_empty_stack_maps_to_an_empty_stack(self, tag, direction):
        # the min/max reductions of the checks raised a raw ValueError on no matrices
        out = transforms.transform_samples(np.zeros((0, 2, 2)), BasisTransform(tag, p=2), direction)
        assert out.shape == (0, 2, 2)


def _eigh_expm(A):
    w, U = np.linalg.eigh(A)
    return (U * np.exp(w)[..., None, :]) @ np.swapaxes(U, -1, -2)


def _normwise_dev(X, ref):
    return np.max(np.linalg.norm(X - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1)))


def _exp(A):
    return transforms.transform_samples(A, BasisTransform("matrix_log", p=A.shape[-1]), "inverse")


def _expm_taylor_reference(Z, p):
    """The exponentials of the vech rows Z (..., p(p+1)/2) as a (..., p, p)
    stack, by the evaluation `transforms._expm_chunk` used before the
    Cayley-Hamilton reduction: the same shift, scaling and squarings around
    the degree-16 Taylor polynomial in Paterson-Stockmeyer form (Paterson &
    Stockmeyer 1973), T(B) = Q0 + B^4 (Q1 + B^4 (Q2 + B^4 Q3)) with Q_j =
    I/(4j)! + B/(4j+1)! + B^2/(4j+2)! + B^3/(4j+3)! and Q3 also holding
    B^4/16!, from the powers B .. B^4."""
    taylor = transforms._TAYLOR  # 1/k!
    flat = np.asarray(Z, dtype=float).reshape(-1, p * (p + 1) // 2)
    rows, cols, table = matrixops._vech_index(p)
    diag = np.diagonal(table).tolist()
    terms = table.tolist()
    B = flat.T.copy()
    c = np.sum(B[diag], axis=0) / p
    B[diag] -= c
    s = np.maximum(np.frexp(np.sqrt(np.dot(np.where(rows == cols, 1.0, 2.0), B * B)))[1], 0)
    powers = np.empty((4,) + B.shape)
    np.ldexp(B, -s, out=powers[0])
    transforms._vech_matmul(powers[0], powers[0], powers[1], terms)
    transforms._vech_matmul(powers[1], powers[0], powers[2], terms)
    transforms._vech_matmul(powers[1], powers[1], powers[3], terms)
    blocks = np.array([[taylor[4 * j + i] for i in (1, 2, 3)] + [0.0] for j in range(4)])
    blocks[3, 3] = taylor[16]
    Q = np.tensordot(blocks, powers, axes=1)
    for e in diag:
        Q[:, e] += np.array(taylor[:16:4])[:, None]
    for j in (2, 1, 0):
        Q[j] += transforms._vech_matmul(powers[3], Q[j + 1], B, terms)
    E = Q[0]
    for k in range(1, s.max(initial=0) + 1):
        need = np.flatnonzero(s >= k)
        root = E[:, need]
        E[:, need] = transforms._vech_matmul(root, root, np.empty_like(root), terms)
    E *= np.exp(0.5 * c)
    E *= np.exp(0.5 * c)
    return matrixops.unvech(E.T, p).reshape(np.shape(Z)[:-1] + (p, p))


class TestMatrixExp:
    """The Taylor scaling-and-squaring exponential of the matrix-log inverse."""

    @pytest.mark.parametrize("p", [1, 2, 3, 4, 5, 6])
    def test_matches_eigh_reference(self, p):
        rng = np.random.default_rng(10 + p)
        for scale in (1e-3, 1e-1, 1.0, 5.0, 20.0):
            A = matrixops.sym(rng.normal(scale=scale, size=(200, p, p)))
            assert _normwise_dev(_exp(A), _eigh_expm(A)) <= 1e-13
        # near-repeated eigenvalues, zero and diagonal matrices
        Q = np.linalg.qr(rng.normal(size=(50, p, p)))[0]
        w = 0.7 + 1e-9 * rng.normal(size=(50, 1, p))
        near = (Q * w) @ np.swapaxes(Q, -1, -2)
        assert _normwise_dev(_exp(near), _eigh_expm(near)) <= 1e-13
        np.testing.assert_array_equal(_exp(np.zeros((3, p, p))), np.broadcast_to(np.eye(p), (3, p, p)))
        d = rng.normal(scale=4.0, size=(20, p))
        diag = np.zeros((20, p, p))
        diag[:, np.arange(p), np.arange(p)] = d
        expected = np.zeros((20, p, p))
        expected[:, np.arange(p), np.arange(p)] = np.exp(d)
        assert _normwise_dev(_exp(diag), expected) <= 1e-13

    @pytest.mark.parametrize("p", [16, 17, 18])
    def test_sizes_at_and_above_the_taylor_degree(self, p):
        # from p = 17 on, the degree-16 polynomial needs no reduction modulo
        # the characteristic polynomial, and B^17 .. B^(p-1) take no share
        rng = np.random.default_rng(40 + p)
        for scale in (0.1, 1.0, 3.0):
            A = matrixops.sym(rng.normal(scale=scale, size=(40, p, p)))
            assert _normwise_dev(_exp(A), _eigh_expm(A)) <= 1e-13

    def test_two_by_two_closed_form(self):
        # exp([[a, b], [b, a]]) = e^a [[cosh b, sinh b], [sinh b, cosh b]]
        for a in (-3.0, 0.0, 2.5):
            for b in (1e-4, 0.7, 6.0):
                out = _exp(np.array([[a, b], [b, a]]))
                expected = np.exp(a) * np.array([[np.cosh(b), np.sinh(b)], [np.sinh(b), np.cosh(b)]])
                assert _normwise_dev(out, expected) <= 1e-14

    def test_stack_equals_each_alone_across_a_chunk(self):
        rng = np.random.default_rng(11)
        n = transforms._EXPM_CHUNK + 6
        scales = rng.choice([0.01, 0.5, 3.0], size=(n, 1, 1))
        A = matrixops.sym(scales * rng.normal(size=(n, 3, 3)))
        stack = _exp(A)
        for i in range(transforms._EXPM_CHUNK - 6, n):
            np.testing.assert_array_equal(stack[i], _exp(A[i]))

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_chunk_where_only_some_matrices_need_three_or_more_squarings(self, p):
        # Frobenius norms of about 0.5 (no squaring) beside norms of 5 to 40
        # (s = 3 to 6): the squarings run on those matrices alone
        rng = np.random.default_rng(30 + p)
        n = 504
        A = matrixops.sym(rng.normal(size=(n, p, p)))
        A /= np.linalg.norm(A, axis=(-2, -1), keepdims=True)
        A *= np.where(np.arange(n) % 7 == 3, rng.uniform(5.0, 40.0, n), 0.5)[:, None, None]
        A += rng.normal(size=(n, 1, 1)) * np.eye(p)
        stack = _exp(A)
        assert _normwise_dev(stack, _eigh_expm(A)) <= 1e-13
        for i in range(0, n, 7):  # one matrix without and one with squarings
            np.testing.assert_array_equal(stack[i], _exp(A[i]))
            np.testing.assert_array_equal(stack[i + 3], _exp(A[i + 3]))

    def test_within_1e_14_of_the_paterson_stockmeyer_taylor_on_benchmark_draws(
        self, monkeypatch
    ):
        # the (1000, 80, 6) latent stack of an inverse Wishart p = 3 op as the
        # benchmark's multi_latent workload runs it; the reduction modulo the
        # characteristic polynomial moved this one by 4.9e-16 normwise (6.2e-16
        # to 9.5e-16 at data seeds 1 to 3)
        latent = []
        expm = transforms._expm_vech

        def capture(Z, p):
            latent.append(np.array(Z))
            return expm(Z, p)

        monkeypatch.setattr(transforms, "_expm_vech", capture)
        ts, mats = pipeline.gen_covariance(160, p=3, seed=7)
        config = pipeline.LMGPConfig("inverse_wishart", seed=7, draws=1000)
        data = pipeline.Dataset(ts[0::2], np.stack(mats)[0::2])
        _, pred = pipeline.lmgp_v1(data, config, X_query=ts[1::2])
        assert latent[0].shape == (1000, 80, 6)
        assert _normwise_dev(pred.draws, _expm_taylor_reference(latent[0], 3)) <= 1e-14

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_vech_rows_give_the_matrices_exponential_bit_for_bit(self, p):
        Z = np.random.default_rng(15 + p).normal(scale=2.0, size=(7, 5, p * (p + 1) // 2))
        expected = _exp(matrixops.unvech(Z, p))
        # the exponentials' vech entries, written into Z itself
        assert transforms._expm_vech(Z, p) is Z
        np.testing.assert_array_equal(matrixops.unvech(Z, p), expected)

    @pytest.mark.parametrize("bad", [np.nan, 1e308])
    def test_vech_rows_with_one_bad_entry_raise(self, bad):
        # a RuntimeWarning fails this test through the pytest configuration
        Z = 0.5 * np.random.default_rng(16).normal(size=(4, 6, 6))
        Z[2, 3, 4] = bad
        with pytest.raises(OutOfSupport):
            transforms._expm_vech(Z, 3)
        with pytest.raises(OutOfSupport):
            _exp(matrixops.unvech(Z, 3))

    def test_inverses_need_no_eigendecomposition(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("eigendecomposition called")

        monkeypatch.setattr(np.linalg, "eigh", forbidden)
        monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
        A = _random_spd(np.random.default_rng(12), 3, count=10)
        for tag in ("matrix_log", "matrix_sqrt"):
            transforms.transform_samples(A, BasisTransform(tag, p=3), "inverse")

    def test_sqrt_inverse_is_the_square(self):
        A = matrixops.sym(np.random.default_rng(13).normal(size=(50, 3, 3)))
        out = transforms.transform_samples(A, BasisTransform("matrix_sqrt", p=3), "inverse")
        np.testing.assert_array_equal(out, matrixops.sym(A @ A))

    @pytest.mark.parametrize("tag", ["matrix_log", "matrix_sqrt"])
    def test_peak_allocation_on_a_benchmark_stack(self, tag):
        # the eigh path peaked at 18.4 MB on this (1000, 80, 3, 3) stack
        A = matrixops.sym(0.5 * np.random.default_rng(14).normal(size=(1000, 80, 3, 3)))
        tracemalloc.start()
        try:
            transforms.transform_samples(A, BasisTransform(tag, p=3), "inverse")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18.4e6

    def test_overflow_raises(self):
        with pytest.raises(OutOfSupport):
            _exp(np.diag([800.0, 1.0, 0.0]))
        with pytest.raises(OutOfSupport):
            _exp(np.diag([-1e300, 1e300]))
        # a large mean eigenvalue alone is fine while the result is finite
        np.testing.assert_allclose(_exp(np.diag([700.0, 700.0])), np.exp(700.0) * np.eye(2), rtol=1e-13)

    @pytest.mark.parametrize("tag", ["matrix_log", "matrix_sqrt"])
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_latent_raises(self, tag, bad):
        A = np.eye(3)
        A[1, 1] = bad
        with pytest.raises(OutOfSupport):
            transforms.transform_samples(A, BasisTransform(tag, p=3), "inverse")


class TestMatrixExpOnVechEntries:
    """The exponential's arithmetic on the p(p+1)/2 distinct entries, and the
    e^c factor applied so that it cannot underflow where the result does not."""

    @pytest.mark.parametrize("p", [1, 2, 3, 5])
    def test_vech_product_of_commuting_matrices(self, p):
        rng = np.random.default_rng(20 + p)
        A = matrixops.sym(rng.normal(size=(40, p, p)))
        B = matrixops.sym(A @ A - 0.5 * A)  # a polynomial in A: A B is symmetric
        a, b = np.ascontiguousarray(matrixops.vech(A).T), np.ascontiguousarray(matrixops.vech(B).T)
        terms = matrixops._vech_index(p)[2].tolist()
        out = transforms._vech_matmul(a, b, np.empty_like(a), terms)
        expected = matrixops.vech(A @ B).T
        assert np.max(np.abs(out - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_large_negative_mean_eigenvalue_keeps_the_representable_entries(self):
        # c = -800: e^c underflowed to 0 and zeroed the whole result
        out = _exp(np.diag([-1200.0, -400.0]))
        np.testing.assert_allclose(out, np.diag([0.0, np.exp(-400.0)]), rtol=1e-13, atol=0.0)
        out = _exp(np.diag([-1000.0, -600.0, -300.0]))
        np.testing.assert_allclose(out, np.diag(np.exp([-1000.0, -600.0, -300.0])), rtol=1e-13, atol=0.0)

    def test_subnormal_mean_factor_keeps_full_precision(self):
        # exp([[a, b], [b, a]]) = e^a [[cosh b, sinh b], [sinh b, cosh b]]: with
        # a = -730 the factor e^a alone is subnormal, the result is not
        a, b = -730.0, 40.0
        out = _exp(np.array([[a, b], [b, a]]))
        expected = np.full((2, 2), 0.5 * np.exp(a + b))  # e^(a-b) underflows
        np.testing.assert_allclose(out, expected, rtol=1e-14, atol=0.0)


class TestSoftmaxInverse:
    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6, 7, 8, 9, 16, 17, 129, 300])
    def test_bit_for_bit_the_axis_reduction_formula(self, K):
        # the max and the sum over component arrays, added in numpy's own
        # pairwise order, against the reductions along the last axis
        rng = np.random.default_rng(30 + K)
        basis = BasisTransform("softmax_inverse", K=K)
        for shape in [(K,), (1000, K), (50, 7, K)]:
            x = rng.normal(scale=3.0, size=shape)
            expected = np.exp(x - np.max(x, axis=-1, keepdims=True))
            expected /= np.sum(expected, axis=-1, keepdims=True)
            np.testing.assert_array_equal(transforms.transform_samples(x, basis, "inverse"), expected)

    def test_matches_logsumexp_form(self):
        rng = np.random.default_rng(15)
        x = rng.normal(scale=3.0, size=(500, 4))
        out = transforms.transform_samples(x, BasisTransform("softmax_inverse", K=4), "inverse")
        np.testing.assert_allclose(out, np.exp(x - logsumexp(x, axis=-1, keepdims=True)), rtol=1e-14)
        np.testing.assert_allclose(np.sum(out, axis=-1), 1.0, rtol=4e-16)

    def test_chart_input_appends_the_sum_zero_coordinate(self):
        u = np.random.default_rng(16).normal(size=(20, 3))
        basis = BasisTransform("softmax_inverse", K=4)
        full = np.concatenate([u, -np.sum(u, axis=-1, keepdims=True)], axis=-1)
        np.testing.assert_array_equal(
            transforms.transform_samples(u, basis, "inverse"),
            transforms.transform_samples(full, basis, "inverse"),
        )

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_latent_raises(self, bad):
        with pytest.raises(OutOfSupport):
            transforms.transform_samples(
                np.array([bad, 0.0, 0.0, 0.0]), BasisTransform("softmax_inverse", K=4), "inverse"
            )

    def test_extreme_gap_gives_zero_without_warning(self):
        out = transforms.transform_samples(
            np.array([1e308, -1e308]), BasisTransform("softmax_inverse", K=2), "inverse"
        )
        np.testing.assert_array_equal(out, [1.0, 0.0])


class TestPushForward:
    def test_exponential_log_density_pinned(self):
        td = transforms.push_forward(distributions.exponential(1.0), "log")
        assert td.log_density(0.0) == pytest.approx(-1.0, abs=1e-12)

    def test_beta_uniform_logit_is_logistic(self):
        td = transforms.push_forward(distributions.beta(1.0, 1.0), "logit")
        for y in (-2.0, 0.0, 1.5):
            s = 1.0 / (1.0 + np.exp(-y))
            assert td.log_density(y) == pytest.approx(np.log(s * (1.0 - s)), abs=1e-12)

    def test_identity_matches_log_pdf(self):
        params = distributions.gamma(3.0, 2.0)
        td = transforms.push_forward(params, "identity")
        for x in (0.3, 1.0, 4.0):
            assert td.log_density(x) == pytest.approx(
                distributions.log_pdf(params, x), abs=1e-12
            )

    def test_matrix_identity_matches_scipy_vech_convention(self):
        V = np.array([[1.2, 0.3], [0.3, 0.9]])
        X = np.array([[2.0, 0.4], [0.4, 1.1]])
        td = transforms.push_forward(distributions.wishart(5.0, V), "matrix_log")
        tid = transforms.push_forward(distributions.wishart(5.0, V), "identity")
        assert tid.dim == 3 and td.dim == 3
        assert tid.log_density(matrixops.vech(X)) == pytest.approx(
            stats.wishart(5, V).logpdf(X), abs=1e-9
        )

    def test_incompatible_bases_rejected(self):
        with pytest.raises(IncompatibleBasis):
            transforms.push_forward(distributions.beta(2.0, 2.0), "log")
        with pytest.raises(IncompatibleBasis):
            transforms.push_forward(distributions.gamma(2.0, 2.0), "logit")
        with pytest.raises(IncompatibleBasis):
            transforms.push_forward(
                distributions.dirichlet([1.0, 1.0]), "sqrt"
            )

    def test_domain_helpers(self):
        td = transforms.push_forward(distributions.gamma(2.0, 1.0), "identity")
        assert td.boundary_distance(2.0) == pytest.approx(2.0)
        tl = transforms.push_forward(distributions.gamma(2.0, 1.0), "log")
        assert tl.boundary_distance(0.0) == np.inf

    @pytest.mark.parametrize(
        "params,basis",
        [
            (distributions.exponential(1.3), "log"),
            (distributions.exponential(1.3), "sqrt"),
            (distributions.gamma(2.5, 1.5), "log"),
            (distributions.gamma(0.8, 1.0), "log"),
            (distributions.gamma(2.5, 1.5), "sqrt"),
            (distributions.inverse_gamma(2.0, 1.5), "log"),
            (distributions.inverse_gamma(2.0, 1.5), "sqrt"),
            (distributions.chi_squared(3.0), "log"),
            (distributions.chi_squared(3.0), "sqrt"),
            (distributions.beta(2.0, 3.0), "logit"),
            (distributions.beta(0.7, 0.9), "logit"),
        ],
        ids=lambda v: getattr(v, "tag", None) or str(v),
    )
    def test_scalar_quadrature_normalization(self, params, basis):
        td = transforms.push_forward(params, basis)
        lo = 0.0 if basis == "sqrt" else -np.inf
        total, _ = integrate.quad(
            lambda y: np.exp(td.log_density(y)), lo, np.inf, limit=400
        )
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_dirichlet_softmax_chart_quadrature(self):
        td = transforms.push_forward(
            distributions.dirichlet([1.5, 2.5]), "softmax_inverse"
        )
        total, _ = integrate.quad(lambda u: np.exp(td.log_density(u)), -np.inf, np.inf)
        assert total == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize(
        "chart,points",
        [
            ("softmax_inverse", [0.1, 0.2, -0.3, -1e308, np.inf]),
            ("identity", [0.1, 0.2, 0.7, 0.0, 1.5]),
        ],
    )
    def test_dirichlet_k2_density_takes_m_points(self, chart, points):
        # a dim-1 density takes m points as an (m,) vector, as the scalar
        # families do; the K = 2 chart read such a vector as one chart row
        td = transforms.push_forward(distributions.dirichlet([1.5, 2.5]), chart)
        for f in (td.log_density, td.log_objective):
            assert np.array_equal(f(np.array(points)), [f(u) for u in points])
        # the numeric oracle evaluates its stencils through the same path
        g = transforms.numeric_laplace(td)
        if chart == "softmax_inverse":
            ref = bridges.lm_forward(td.params, chart)
            assert g.mean[0] == pytest.approx(ref.mean[0], rel=1e-6)
            assert g.cov_dense()[0, 0] == pytest.approx(ref.cov_dense()[0, 0], rel=1e-5)

    def test_dirichlet_softmax_density_is_minus_inf_where_the_last_coordinate_overflows(self):
        # finite chart points whose implied last coordinate -sum(u) is +inf
        # gave NaN (inf - inf in the max shift)
        td = transforms.push_forward(distributions.dirichlet([1.2, 0.8, 0.6]), "softmax_inverse")
        u = np.array([[-1e308, -1e308], [1e308, 1e308], [0.1, 0.2], [np.inf, 0.0]])
        out = td.log_density(u)
        assert np.array_equal(out[[0, 1, 3]], [-np.inf] * 3)
        assert out[2] == td.log_density(u[2])
        assert td.log_density(u[0]) == -np.inf

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_dirichlet_identity_density_is_minus_inf_where_the_chart_sum_overflows(self):
        # finite chart points whose coordinate sum overflows raised
        # "overflow encountered in reduce" before they were masked out
        td = transforms.push_forward(distributions.dirichlet([1.2, 0.8, 0.6]), "identity")
        u = np.array([[-1e308, -1e308], [1e308, 1e308], [1e308, -1e308], [0.2, 0.3]])
        out = td.log_density(u)
        assert np.array_equal(out[:3], [-np.inf] * 3)
        assert out[3] == td.log_density(u[3]) and np.isfinite(out[3])
        assert td.log_density(np.array([[-1e308, -1e308]]))[0] == -np.inf

    def test_initial_point_inside_domain(self):
        cases = [
            (distributions.gamma(0.6, 2.0), "log"),
            (distributions.dirichlet([1.0, 2.0, 0.7]), "softmax_inverse"),
            (distributions.inverse_wishart(4.0, np.eye(2)), "matrix_log"),
            (distributions.wishart(4.0, np.eye(2)), "identity"),
        ]
        for params, basis in cases:
            td = transforms.push_forward(params, basis)
            z0 = td.initial_point()
            assert z0.shape == (td.dim,)
            assert np.isfinite(td.log_density(z0 if td.dim > 1 else float(z0[0])))


def _fd_log_abs_det(fn, u, h=1e-5):
    """log |det dfn/du| by central differences; fn maps R^d -> R^d."""
    u = np.atleast_1d(np.asarray(u, dtype=float))
    d = u.size
    J = np.empty((d, d))
    for j in range(d):
        e = np.zeros(d)
        e[j] = h
        J[:, j] = (np.atleast_1d(fn(u + e)) - np.atleast_1d(fn(u - e))) / (2 * h)
    return np.linalg.slogdet(J)[1]


class TestChangeOfVariables:
    @pytest.mark.parametrize(
        "params,basis",
        [
            (distributions.exponential(1.7), "log"),
            (distributions.exponential(1.7), "sqrt"),
            (distributions.gamma(3.2, 1.1), "log"),
            (distributions.gamma(3.2, 1.1), "sqrt"),
            (distributions.inverse_gamma(2.5, 2.0), "log"),
            (distributions.chi_squared(4.0), "sqrt"),
            (distributions.beta(2.0, 3.0), "logit"),
        ],
        ids=lambda v: getattr(v, "tag", None) or str(v),
    )
    def test_scalar_jacobian_identity(self, params, basis):
        td = transforms.push_forward(params, basis)
        basis = td.basis
        xs = distributions.sample(params, seed=9, count=5)
        ys = transforms.transform_samples(xs, basis, "forward")
        for y in ys:
            x = float(transforms.transform_samples(np.array([y]), basis, "inverse")[0])
            log_j = _fd_log_abs_det(
                lambda u: transforms.transform_samples(u, basis, "inverse"), y
            )
            lhs = td.log_density(y)
            rhs = distributions.log_pdf(params, x) + log_j
            assert lhs == pytest.approx(rhs, abs=1e-6)

    def test_dirichlet_chart_change(self):
        alpha = np.array([1.5, 2.5, 1.0])
        soft = transforms.push_forward(
            distributions.dirichlet(alpha), "softmax_inverse"
        )
        ident = transforms.push_forward(distributions.dirichlet(alpha), "identity")

        def to_simplex_chart(u):
            x = np.concatenate([u, [-np.sum(u)]])
            y = np.exp(x - np.max(x))
            y /= np.sum(y)
            return y[:-1]

        rng = np.random.default_rng(4)
        for _ in range(5):
            u = rng.normal(size=2)
            lhs = soft.log_density(u)
            rhs = ident.log_density(to_simplex_chart(u)) + _fd_log_abs_det(
                to_simplex_chart, u
            )
            assert lhs == pytest.approx(rhs, abs=1e-6)

    @pytest.mark.parametrize("p", [2, 3])
    @pytest.mark.parametrize("tag", ["matrix_log", "matrix_sqrt"])
    def test_matrix_chart_change(self, p, tag):
        params = distributions.wishart(p + 2.5, np.eye(p) + 0.2)
        basis = BasisTransform(tag, p=p)
        td = transforms.push_forward(params, basis)
        tid = transforms.push_forward(params, "identity")

        def to_support_vech(u):
            Y = matrixops.unvech(u, p)
            if tag == "matrix_log":
                return matrixops.vech(transforms.transform_samples(Y, basis, "inverse"))
            return matrixops.vech(Y @ Y)

        X = distributions.sample(params, seed=10, count=3)
        for Xi in X:
            Yi = transforms.transform_samples(Xi, basis, "forward")
            u = matrixops.vech(Yi)
            lhs = td.log_density(u)
            rhs = tid.log_density(matrixops.vech(Xi)) + _fd_log_abs_det(
                to_support_vech, u
            )
            assert lhs == pytest.approx(rhs, abs=1e-6)


class TestNumericLaplace:
    def test_gamma_log_pinned(self):
        td = transforms.push_forward(distributions.gamma(4.0, 2.0), "log")
        g = transforms.numeric_laplace(td)
        assert g.mu == pytest.approx(np.log(2.0), abs=1e-6)
        assert g.var == pytest.approx(0.25, abs=1e-6)

    def test_no_mode_in_standard_basis(self):
        td = transforms.push_forward(distributions.gamma(0.5, 1.0), "identity")
        with pytest.raises(NoValidLaplace):
            transforms.numeric_laplace(td)
        te = transforms.push_forward(distributions.exponential(1.0), "identity")
        with pytest.raises(NoValidLaplace):
            transforms.numeric_laplace(te)

    def test_exact_gaussian_recovered(self):
        mu0, var0 = 0.7, 0.35

        def log_density(z):
            return -0.5 * np.log(2 * np.pi * var0) - 0.5 * (z - mu0) ** 2 / var0

        td = transforms.TransformedDensity(
            params=distributions.gamma(2.0, 1.0),
            basis=BasisTransform("identity"),
            dim=1,
            log_density=log_density,
            log_objective=log_density,
            boundary_distance=lambda z: np.inf,
            initial_point=lambda: np.array([0.0]),
        )
        g = transforms.numeric_laplace(td)
        assert g.mu == pytest.approx(mu0, abs=1e-8)
        assert g.var == pytest.approx(var0, abs=1e-8)

    def test_multivariate_mode(self):
        # softmax chart of a symmetric Dirichlet peaks at the centered origin
        td = transforms.push_forward(
            distributions.dirichlet([3.0, 3.0, 3.0]), "softmax_inverse"
        )
        g = transforms.numeric_laplace(td)
        np.testing.assert_allclose(g.mean, np.zeros(2), atol=1e-7)
        cov = g.cov_dense()
        np.testing.assert_allclose(cov, cov.T, atol=1e-12)
        assert np.all(np.linalg.eigvalsh(cov) > 0)


# The per-point finite-difference loops that the stacked stencils replaced,
# kept as the reference the stacks must equal bit for bit: one objective call
# per point, each coordinate and each pair retried on its own.


def _pointwise_objective(density):
    def f(z):
        val = np.asarray(density.log_objective(z)).reshape(-1)[0]
        return float(val) if np.isfinite(val) else -np.inf

    return f


def _pointwise_gradient(f, z):
    d = z.size
    g = np.zeros(d)
    for i in range(d):
        h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + abs(z[i]))
        for _ in range(60):
            e = np.zeros(d)
            e[i] = h
            fp, fm = f(z + e), f(z - e)
            if np.isfinite(fp) and np.isfinite(fm):
                g[i] = (fp - fm) / (2.0 * h)
                break
            h *= 0.5
        else:
            raise NoValidLaplace("gradient not evaluable near the domain boundary")
    return g


def _pointwise_hessian(f, z, steps=None):
    d = z.size
    H = np.zeros((d, d))
    if steps is None:
        steps = [4.0 * np.finfo(float).eps ** 0.25 * (1.0 + abs(z[i])) for i in range(d)]
    f0 = f(z)
    for i in range(d):
        h = steps[i]
        for _ in range(40):
            e = np.zeros(d)
            e[i] = h
            fp, fm = f(z + e), f(z - e)
            if np.isfinite(fp) and np.isfinite(fm):
                H[i, i] = (fp - 2.0 * f0 + fm) / (h * h)
                break
            h *= 0.5
        else:
            raise NoValidLaplace("Hessian not evaluable near the domain boundary")
    for i in range(d):
        for j in range(i + 1, d):
            hi, hj = steps[i], steps[j]
            for _ in range(40):
                ei = np.zeros(d)
                ej = np.zeros(d)
                ei[i] = hi
                ej[j] = hj
                fpp = f(z + ei + ej)
                fpm = f(z + ei - ej)
                fmp = f(z - ei + ej)
                fmm = f(z - ei - ej)
                if all(np.isfinite(v) for v in (fpp, fpm, fmp, fmm)):
                    H[i, j] = H[j, i] = (fpp - fpm - fmp + fmm) / (4.0 * hi * hj)
                    break
                hi *= 0.5
                hj *= 0.5
            else:
                raise NoValidLaplace("Hessian not evaluable near the domain boundary")
    return H


def _pointwise_hessian_refined(f, z):
    rough = _pointwise_hessian(f, z)
    sigma = 1.0 / np.sqrt(np.maximum(np.abs(np.diag(rough)), 1e-12))
    base = np.array([4.0 * np.finfo(float).eps ** 0.25 * (1.0 + abs(zi)) for zi in z])
    steps = np.clip(4.0 * np.finfo(float).eps ** 0.2 * sigma, 1e-3 * base, 1e3 * base)
    H1 = _pointwise_hessian(f, z, steps=list(steps))
    H2 = _pointwise_hessian(f, z, steps=list(0.5 * steps))
    return (4.0 * H2 - H1) / 3.0


_ORACLE_ROWS = [(family, tag) for family, tags in transforms.FAMILY_BASES.items() for tag in tags]


def _toward_boundary(density, k, scale):
    """The initial point of `density` with one coordinate (Dirichlet), one
    eigenvalue (matrix rows) or the point itself (scalar rows) multiplied by
    `scale`: near 0 it nears the boundary of the identity and square-root
    rows, at 0 or below it is on or beyond it."""
    z = density.initial_point()
    if density.family in ("wishart", "inverse_wishart"):
        p = density.params.p
        w, U = np.linalg.eigh(matrixops.unvech(z, p))
        w[k % p] *= scale
        return matrixops.vech((U * w) @ U.T)
    z[k % z.size] *= scale
    return z


def _same_result(stacked, pointwise):
    """Both calls raise the same NoValidLaplace, or return the same bits."""
    try:
        want = pointwise()
    except NoValidLaplace as exc:
        with pytest.raises(NoValidLaplace, match=str(exc)):
            stacked()
        return
    got = stacked()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


_SCALES = st.one_of(
    st.sampled_from([1.0, 0.0, -1e-3]),
    st.floats(-14.0, 0.0).map(lambda e: 10.0**e),
)


class TestStackedStencils:
    @settings(max_examples=120, deadline=None)
    @given(
        row=st.sampled_from(_ORACLE_ROWS),
        grid_index=st.integers(0, 9),
        k=st.integers(0, 5),
        scale=_SCALES,
    )
    def test_stacks_equal_the_pointwise_loops(self, row, grid_index, k, scale):
        family, tag = row
        td = transforms.push_forward(diagnostics.default_grid(family)[grid_index], tag)
        z = _toward_boundary(td, k, scale)
        f, ref = transforms._objective_fn(td), _pointwise_objective(td)
        Z = z + np.random.default_rng(k).standard_normal((9, z.size)) * 1e-3 * (1.0 + np.abs(z))
        Z = np.concatenate([z[None], Z])
        assert f(Z).tobytes() == np.array([ref(point) for point in Z]).tobytes()
        _same_result(lambda: transforms._fd_gradient(f, z), lambda: _pointwise_gradient(ref, z))
        steps = transforms._hessian_steps(z)
        _same_result(
            lambda: transforms._fd_hessians(f, z, np.stack((steps, 0.5 * steps))),
            lambda: np.stack((_pointwise_hessian(ref, z), _pointwise_hessian(ref, z, 0.5 * steps))),
        )
        if np.isfinite(ref(z)):
            _same_result(
                lambda: transforms._fd_hessian_refined(f, z),
                lambda: _pointwise_hessian_refined(ref, z),
            )

    def test_halving_and_exhaustion_are_exercised(self):
        # near 0 the identity row's stencil crosses the boundary and halves;
        # on it, every halving fails
        td = transforms.push_forward(distributions.gamma(2.0, 1.0), "identity")
        f, ref = transforms._objective_fn(td), _pointwise_objective(td)
        z = np.array([1e-7])
        g = transforms._fd_gradient(f, z)
        assert g.tobytes() == _pointwise_gradient(ref, z).tobytes() and np.isfinite(g[0])
        with pytest.raises(NoValidLaplace, match="gradient"):
            transforms._fd_gradient(f, np.zeros(1))
        with pytest.raises(NoValidLaplace, match="Hessian"):
            transforms._fd_hessians(f, np.zeros(1), transforms._hessian_steps(np.zeros(1))[None])

    def test_one_objective_call_per_stencil(self):
        params = distributions.wishart(6.0, np.eye(3) + 0.2)
        td = transforms.push_forward(params, "matrix_sqrt")
        z, d = td.initial_point(), td.dim
        f = transforms._objective_fn(td)
        calls = []

        def counted(Z):
            calls.append(Z.shape)
            return f(Z)

        transforms._fd_gradient(counted, z)
        assert calls == [(2 * d, d)]
        calls.clear()
        transforms._fd_hessian_refined(counted, z)
        assert calls == [(1 + 2 * d + 2 * d * (d - 1), d), (1 + 4 * d + 4 * d * (d - 1), d)]

    @pytest.mark.parametrize(
        "family, tag, scale",
        [
            ("gamma", "identity", 1e-7),
            ("gamma", "identity", 0.0),
            ("inverse_gamma", "sqrt", 1e-9),
            ("beta", "identity", 1e-9),
            ("dirichlet", "identity", 1e-8),
            ("wishart", "identity", 1e-7),
            ("inverse_wishart", "matrix_sqrt", 1e-7),
        ],
    )
    def test_stencils_across_the_boundary_raise_no_warning(self, family, tag, scale):
        td = transforms.push_forward(diagnostics.default_grid(family)[3], tag)
        z = _toward_boundary(td, 0, scale)
        f = transforms._objective_fn(td)
        crossed = []

        def watched(Z):
            vals = f(Z)
            crossed.append(bool(np.any(np.isneginf(vals))))
            return vals

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            for stencil in (
                lambda: transforms._fd_gradient(watched, z),
                lambda: transforms._fd_hessians(watched, z, transforms._hessian_steps(z)[None]),
            ):
                try:
                    stencil()
                except NoValidLaplace:
                    pass
        assert any(crossed)

    def test_line_search_fractions_are_the_halving_loops(self):
        t, halvings = 1.0, []
        while t > 1e-14:
            halvings.append(t)
            t *= 0.5
        assert np.concatenate(transforms._STEP_CHUNKS).tolist() == halvings

    @pytest.mark.parametrize("family, tag", _ORACLE_ROWS)
    def test_chunked_line_search_equals_one_fraction_per_call(self, monkeypatch, family, tag):
        # the reference evaluates z + t * step one t at a time, first to last
        def fits():
            out = []
            for params in diagnostics.default_grid(family):
                try:
                    g = transforms.numeric_laplace(transforms.push_forward(params, tag))
                    out.append(g.mean.tobytes() + g.cov_dense().tobytes())
                except NoValidLaplace as exc:
                    out.append(str(exc))
            return out

        chunked = fits()
        monkeypatch.setattr(
            transforms, "_STEP_CHUNKS", np.split(np.concatenate(transforms._STEP_CHUNKS), 47)
        )
        assert chunked == fits()

    @pytest.mark.parametrize("family", ["wishart", "inverse_wishart"])
    @pytest.mark.parametrize("tag", ["identity", "matrix_log", "matrix_sqrt"])
    def test_matrix_density_runs_one_eigh_per_call(self, monkeypatch, family, tag):
        td = transforms.push_forward(diagnostics.default_grid(family)[4], tag)
        Z = td.initial_point() + 0.01 * np.random.default_rng(0).standard_normal((50, td.dim))
        eigh, calls = np.linalg.eigh, []

        def counted(a, *args, **kwargs):
            calls.append(np.shape(a))
            return eigh(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigh", counted)
        for evaluate in (td.log_density, td.log_objective):
            calls.clear()
            evaluate(Z)
            assert calls == [(50, 2, 2)]
