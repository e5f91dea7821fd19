"""Latent-space GP: kernels, fit/predict, k-means++ inducing sites."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from laplace_match import bridges, gp, matrixops, pipeline
from laplace_match.errors import (
    DimensionMismatch,
    EmptyCluster,
    InvalidParams,
    NotPositiveDefinite,
)


def _sqdist_reference(A, B):
    """gp._sqdist as it was before its block scratch: a2 + b2 as a second
    (m, n) array, and the cross term a matrix product for every d."""
    a2 = np.sum(A**2, axis=1)
    b2 = np.sum(B**2, axis=1)
    d2 = 2.0 * A @ B.T
    np.subtract(a2[:, None] + b2[None, :], d2, out=d2)
    return np.maximum(d2, 0.0, out=d2)


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
        with pytest.raises(InvalidParams):
            gp.LookupTable(np.array([[1.0, 0.5], [0.4, 1.0]]))
        k = gp.LookupTable(np.eye(3) + 0.5)
        with pytest.raises(InvalidParams):
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

    @pytest.mark.parametrize("dim", [1, 2, 3, 5])
    @pytest.mark.parametrize(
        "n",
        [2, 3, 4, 41, 200, gp._MEDIAN_ROWS - 1, gp._MEDIAN_ROWS, gp._MEDIAN_ROWS + 1,
         2 * gp._MEDIAN_ROWS + 1, 511, 512, 513, 1000],
    )
    def test_median_lengthscale_equals_median_of_all_pair_distances(self, n, dim):
        # every pair up to _MEDIAN_INPUTS = 512 inputs; above, every pair of
        # the documented subsample
        X = np.random.default_rng(n).uniform(0.0, 3.0, size=(n, dim))
        X[n // 2] = X[0]  # a zero distance
        sub = self._subsample(X) if n > gp._MEDIAN_INPUTS else X
        d = np.sqrt(gp._sqdist(sub, sub)[np.triu_indices(sub.shape[0], k=1)])
        median = float(np.median(d))
        # the documented fallback: a median at rounding level counts as zero
        # (n = 2 has only the duplicated pair)
        rounding = 8.0 * np.finfo(float).eps * np.max(np.sum(sub**2, axis=1))
        assert gp.median_lengthscale(X) == (median if median**2 > rounding else 1.0)
        assert gp.median_lengthscale(np.zeros((4, 1))) == 1.0

    @staticmethod
    def _record_blocks(monkeypatch):
        """Record the (rows, columns) of each _sqdist call."""
        calls = []
        sqdist = gp._sqdist

        def recording(A, B):
            calls.append((A.shape[0], B.shape[0]))
            return sqdist(A, B)

        monkeypatch.setattr(gp, "_sqdist", recording)
        return calls

    @pytest.mark.parametrize("dim", [1, 2])
    def test_median_lengthscale_streams_each_pair_of_at_most_512_inputs_once(
        self, monkeypatch, dim
    ):
        # row blocks of at least two rows, each against the inputs from its
        # first row on, whose parts above the diagonal hold each pair once
        calls = self._record_blocks(monkeypatch)
        for n in (2, 3, 65, 511, 512, 513, 1000, 5000):
            X = np.random.default_rng(n).uniform(0.0, 3.0, size=(n, dim))
            calls.clear()
            gp.median_lengthscale(X)
            m = min(n, gp._MEDIAN_INPUTS)
            first = np.cumsum([0] + [r for r, _ in calls[:-1]])
            assert [c for _, c in calls] == [m - a for a in first]
            assert min(r for r, _ in calls) >= 2
            assert sum(r * c - r * (r + 1) // 2 for r, c in calls) == m * (m - 1) // 2

    @pytest.mark.parametrize("n", [5, 600])
    def test_median_lengthscale_of_nan_inputs_is_one(self, n):
        X = np.random.default_rng(n).uniform(0.0, 3.0, size=(n, 2))
        X[n - 1, 1] = np.nan
        assert gp.median_lengthscale(X) == 1.0

    @pytest.mark.parametrize("value", [0.3, -2.5, 7.1, 1e3])
    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_median_lengthscale_of_constant_inputs_is_one(self, dim, value):
        # identical rows leave a rounding residue in _sqdist for d >= 2
        # (1.05e-8 for 0.3 in d = 3), which must not pass for a distance
        assert gp.median_lengthscale(np.full((1000, dim), value)) == 1.0

    @staticmethod
    def _subsample(X):
        """The documented subsample above _MEDIAN_INPUTS inputs."""
        rows = np.random.default_rng(0).choice(X.shape[0], gp._MEDIAN_INPUTS, replace=False)
        return X[np.sort(rows)]

    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize("n", [gp._MEDIAN_INPUTS + 1, 3000, 60000])
    def test_median_lengthscale_above_the_input_limit_is_that_of_the_subsample(self, n, dim):
        X = np.random.default_rng(n + dim).uniform(0.0, 3.0, size=(n, dim))
        sub = self._subsample(X)
        d = np.sqrt(gp._sqdist(sub, sub)[np.triu_indices(sub.shape[0], k=1)])
        got = gp.median_lengthscale(X)
        assert got == float(np.median(d)) == gp.median_lengthscale(sub)
        # the subsample's own seed, whatever the global random state
        np.random.seed(n)
        np.random.default_rng(1).random(10)
        assert gp.median_lengthscale(X) == got

    def test_median_lengthscale_at_the_input_limit_uses_every_input(self):
        n = gp._MEDIAN_INPUTS
        X = np.random.default_rng(3).uniform(0.0, 3.0, size=(n, 2))
        d = np.sqrt(gp._sqdist(X, X)[np.triu_indices(n, k=1)])
        assert gp.median_lengthscale(X) == float(np.median(d))

    def test_median_lengthscale_sees_a_nan_row_outside_the_subsample(self):
        n = 5000
        X = np.random.default_rng(5).uniform(0.0, 3.0, size=(n, 2))
        kept = np.random.default_rng(0).choice(n, gp._MEDIAN_INPUTS, replace=False)
        outside = np.setdiff1d(np.arange(n), kept)[0]
        assert gp.median_lengthscale(X) != 1.0
        X[outside] = np.nan
        assert gp.median_lengthscale(X) == 1.0

    @pytest.mark.parametrize("dim", [1, 3])
    def test_median_lengthscale_of_many_constant_inputs_is_one(self, dim):
        assert gp.median_lengthscale(np.full((5000, dim), 0.3)) == 1.0

    def test_median_lengthscale_memory_does_not_grow_with_n_above_the_limit(self):
        # the one buffer of N0 (N0 - 1) / 2 = 130,816 pair distances, and one
        # 64-row block's two (64, N0) arrays: its distances and _sqdist's
        # scratch, the previous block freed; 256 KiB for the subsample, index
        # arrays and ufunc buffers (1.64 MiB traced at n = 1e5)
        X = np.random.default_rng(0).uniform(0.0, 3.0, size=(10**5, 2))
        tracemalloc.start()
        try:
            gp.median_lengthscale(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n0 = gp._MEDIAN_INPUTS
        assert peak < 8 * (n0 * (n0 - 1) // 2 + 2 * gp._MEDIAN_ROWS * n0) + 2**18

    def test_median_lengthscale_memory_does_not_grow_as_n_squared(self):
        n = 4000
        X = np.random.default_rng(0).uniform(0.0, 3.0, size=(n, 2))
        tracemalloc.start()
        try:
            gp.median_lengthscale(X)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # an eighth of one n x n float64 array
        assert peak < n * n * 8 / 8

    def test_one_dimensional_entries_are_those_of_sqdist(self):
        # the median streams row blocks; for d = 1 every entry is one
        # rounded product, sum and difference, so a block's rows are the
        # floats of the whole matrix
        rng = np.random.default_rng(2)
        inputs = (
            rng.normal(size=300),
            1e6 + 1e-6 * rng.uniform(size=300),
            1e-160 * rng.normal(size=300),
        )
        for a in inputs:
            b = a[rng.integers(300, size=40)] + 0.5 * (a[:40] - a[40:80])
            full = gp._sqdist(a[:, None], b[:, None])
            for i, j in ((0, 1), (7, 7 + gp._MEDIAN_ROWS), (299, 300)):
                assert np.array_equal(gp._sqdist(a[i:j, None], b[:, None]), full[i:j])

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_sqdist_is_the_two_array_formula(self, d):
        # blocks of whole rows, a partial last block, a row longer than a
        # block, one row, one column and empty inputs; for d = 1 the outer
        # product in place of the one-term matrix product
        rng = np.random.default_rng(d)
        shapes = [(2000, 100), (400, 333), (3, gp._SQDIST_BLOCK + 5), (1, 700), (700, 1),
                  (1, 1), (0, 5), (5, 0), (0, 0)]
        for (m, n), scale in zip(shapes * 3, np.repeat([1e-3, 1.0, 1e3], len(shapes))):
            A = scale * (rng.normal(size=(m, d)) + rng.normal())
            B = scale * (rng.normal(size=(n, d)) + rng.normal())
            for b in (B, A):
                got, want = gp._sqdist(A, b), _sqdist_reference(A, b)
                assert got.shape == want.shape and got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2])
    def test_sqdist_holds_its_output_and_one_block(self, d):
        # a2 + b2 as a second (1000, 1000) array made the peak 16 MB; besides
        # the 8 MB output and one block, numpy's ufunc buffers take 128 KiB
        rng = np.random.default_rng(0)
        A, B = rng.normal(size=(1000, d)), rng.normal(size=(1000, d))
        tracemalloc.start()
        try:
            gp._sqdist(A, B)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8e6 + 8 * gp._SQDIST_BLOCK + 2**18

    @given(
        n=st.integers(2, 1600),
        kind=st.sampled_from(["uniform", "offset", "duplicates", "grid", "tiny"]),
        offset=st.sampled_from([1e2, 1e4, 1e6]),
        order=st.sampled_from(["shuffled", "sorted", "reversed"]),
        data_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_median_lengthscale_on_one_dimensional_inputs_is_np_median(
        self, n, kind, offset, order, data_seed
    ):
        # offsets of 1e2 to 1e6 over a unit spread put the pair distances
        # within a few roundings of each other, duplicates and a grid tie
        # them; above _MEDIAN_INPUTS the subsample counts
        rng = np.random.default_rng(data_seed)
        if kind == "offset":
            x = offset + rng.uniform(size=n) * (1e-6 if offset == 1e6 else 1.0)
        elif kind == "duplicates":
            x = rng.normal(size=30)[rng.integers(30, size=n)]
        elif kind == "grid":
            x = rng.integers(0, 5, size=n).astype(float)
        elif kind == "tiny":
            x = 1e-160 * rng.normal(size=n)
        else:
            x = rng.uniform(0.0, 3.0, size=n)
        if order != "shuffled":
            x = np.sort(x)[:: 1 if order == "sorted" else -1]
        X = x[:, None]
        sub = self._subsample(X) if n > gp._MEDIAN_INPUTS else X
        median = float(np.median(np.sqrt(gp._sqdist(sub, sub)[np.triu_indices(sub.shape[0], 1)])))
        rounding = 8.0 * np.finfo(float).eps * np.max(sub**2)
        assert gp.median_lengthscale(x) == (median if median**2 > rounding else 1.0)

    @pytest.mark.parametrize(
        "kernel",
        [
            gp.RBF(0.7, 1.3),
            gp.RationalQuadratic(0.9, 2.0, 1.1),
            gp.Linear(0.5, 0.2),
            gp.LookupTable(np.eye(3) + 0.5, dim=2),
            gp.RBF(0.8, dims=(0, 1)) + gp.Linear(0.3, dims=(1,)),
            gp.Product(gp.RBF(1.2, dims=(0, 1)), gp.LookupTable(np.eye(3) + 0.5, dim=2)),
        ],
        ids=["rbf", "rational_quadratic", "linear", "lookup_table", "sum", "product"],
    )
    def test_pairs_is_the_diagonal(self, kernel):
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.uniform(0.0, 1.0, (9, 2)), rng.integers(0, 3, 9)])
        np.testing.assert_allclose(kernel.pairs(X, X), np.diag(kernel(X, X)), rtol=0, atol=1e-15)
        Z = X[::-1]
        np.testing.assert_allclose(
            kernel.pairs(X, Z), np.diag(kernel(X, Z)), rtol=0, atol=1e-15
        )

    @pytest.mark.parametrize(
        "kernel",
        [
            gp.RBF(0.7, 1.3),
            gp.RationalQuadratic(0.9, 2.5, 1.1),
            gp.RationalQuadratic(0.9, 1.0, 1.1),  # numpy's reciprocal path for ** -1
        ],
        ids=["rbf", "rational_quadratic", "rational_quadratic_alpha_1"],
    )
    def test_in_place_evaluation_equals_the_expression(self, kernel):
        def of_sqdist(k, d2):
            if isinstance(k, gp.RBF):
                return k.variance * np.exp(-0.5 * d2 / k.lengthscale**2)
            return k.variance * (1.0 + d2 / (2.0 * k.alpha * k.lengthscale**2)) ** (-k.alpha)

        rng = np.random.default_rng(3)
        X, Z = rng.uniform(0.0, 2.0, (7, 2)), rng.uniform(0.0, 2.0, (5, 2))
        X0, Z0 = X.copy(), Z.copy()
        assert np.array_equal(kernel(X, Z), of_sqdist(kernel, gp._sqdist(X, Z)))
        assert np.array_equal(
            kernel.pairs(X[:5], Z), of_sqdist(kernel, gp._sqdist_pairs(X[:5], Z))
        )
        assert np.array_equal(kernel(X, Z), kernel(X, Z))
        assert np.array_equal(kernel(X), kernel(X))
        assert np.array_equal(kernel.pairs(X, X), kernel.pairs(X, X))
        assert np.array_equal(X, X0) and np.array_equal(Z, Z0)

    def test_dims_outside_the_inputs_raise(self):
        # a raw IndexError before; a kernel that addressed the code column of
        # the former joint rows now meets site inputs without it
        kernels = (gp.RBF(1.0, dims=(3,)), gp.Linear(dims=(0, 1)), gp.LookupTable(np.eye(2), 1))
        for kernel in kernels:
            with pytest.raises(DimensionMismatch):
                kernel(np.zeros((4, 1)))
            with pytest.raises(DimensionMismatch):
                kernel.pairs(np.zeros((4, 1)), np.zeros((4, 1)))
        with pytest.raises(DimensionMismatch):
            gp.RBF(1.0, dims=(-1,))(np.zeros((4, 2)))
        assert gp.RBF(1.0, dims=(1,))(np.zeros((4, 2))).shape == (4, 4)

    def test_pairs_checks_lookup_codes_and_lengths(self):
        k = gp.LookupTable(np.eye(3) + 0.5)
        with pytest.raises(InvalidParams):
            k.pairs(np.array([0.0, 3.0]), np.array([0.0, 1.0]))
        with pytest.raises(InvalidParams):
            k.pairs(np.array([0.0, 1.0]), np.array([-1.0, 1.0]))
        with pytest.raises(DimensionMismatch):
            gp.RBF().pairs(np.zeros(3), np.zeros(2))


class TestBoundaries:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: gp.RBF(lengthscale=-1.0),
            lambda: gp.RationalQuadratic(alpha=0.0),
            lambda: gp.Linear(offset=-1.0),
            lambda: gp.Sum(gp.RBF()),
            lambda: gp.Product(gp.RBF()),
            lambda: gp.gp_fit(gp.RBF(), np.zeros(2), np.zeros(2), np.array([0.1, -0.1])),
            lambda: gp.kmeanspp(np.zeros((3, 1)), 0),
            # NaN passed the `<= 0.0` checks and gave an all-NaN Gram
            lambda: gp.RBF(lengthscale=np.nan),
            lambda: gp.RBF(variance=np.nan),
            lambda: gp.RBF(lengthscale=np.inf),
            lambda: gp.RationalQuadratic(alpha=np.nan),
            lambda: gp.RationalQuadratic(lengthscale=np.nan),
            lambda: gp.Linear(variance=np.nan),
            lambda: gp.Linear(offset=np.nan),
            lambda: gp.Linear(offset=np.inf),
            # NaN in mu or the noise predicted NaN
            lambda: gp.gp_fit(gp.RBF(), np.arange(2.0), np.array([0.0, np.nan]), 0.1),
            lambda: gp.gp_fit(gp.RBF(), np.arange(2.0), np.zeros(2), np.array([0.1, np.nan])),
            lambda: gp.gp_fit(gp.RBF(), np.arange(2.0), np.zeros(2), np.nan),
            lambda: gp.gp_fit(
                gp.RBF(), np.arange(4.0), np.zeros(4), np.array([np.eye(2), [[1.0, np.nan], [np.nan, 1.0]]])
            ),
        ],
        ids=[
            "rbf", "rational_quadratic", "linear", "sum", "product", "negative_noise",
            "kmeanspp_k_zero", "rbf_nan_lengthscale", "rbf_nan_variance", "rbf_inf_lengthscale",
            "rational_quadratic_nan_alpha", "rational_quadratic_nan_lengthscale",
            "linear_nan_variance", "linear_nan_offset", "linear_inf_offset", "nan_mu",
            "nan_noise_variances", "nan_scalar_noise", "nan_noise_blocks",
        ],
    )
    def test_bad_arguments_raise_invalid_params(self, call):
        # the lookup table and k > n sites: test_lookup_table_validation,
        # test_pairs_checks_lookup_codes_and_lengths, test_kmeanspp_bounds
        with pytest.raises(InvalidParams):
            call()


class TestCholJitter:
    @pytest.mark.parametrize("rung", range(len(gp._JITTER_LADDER) + 1))
    def test_each_rung_equals_the_identity_formula(self, monkeypatch, rung):
        # the first `rung` factorisations fail; the last rung then succeeds,
        # or the ladder is exhausted
        rng = np.random.default_rng(rung)
        B = rng.normal(size=(6, 6))
        A = B @ B.T + np.eye(6)
        A0 = A.copy()
        cholesky = np.linalg.cholesky
        seen = []

        def failing(M):
            seen.append(M.copy())
            if len(seen) <= rung:
                raise np.linalg.LinAlgError("forced")
            return cholesky(M)

        monkeypatch.setattr(np.linalg, "cholesky", failing)
        if rung == len(gp._JITTER_LADDER):
            with pytest.raises(NotPositiveDefinite):
                gp.chol_with_jitter(A)
        else:
            L, jitter = gp.chol_with_jitter(A)
        scale = float(np.mean(np.diag(A0)))
        for level, M in zip(gp._JITTER_LADDER, seen):
            assert np.array_equal(M, A0 + level * scale * np.eye(6) if level else A0)
        if rung < len(gp._JITTER_LADDER):
            assert jitter == gp._JITTER_LADDER[rung] * scale
            assert np.array_equal(L, cholesky(seen[-1]))
        assert np.array_equal(A, A0)

    def test_read_only_input_is_factored(self):
        A = np.ones((3, 3))  # rank one: needs jitter
        A.flags.writeable = False
        L, jitter = gp.chol_with_jitter(A)
        assert jitter > 0.0 and np.allclose(L @ L.T, A, atol=1e-5)

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


def _rbf_factor(n, seed):
    """Cholesky factor of a noisy RBF kernel matrix on n seeded inputs."""
    X = np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, 1))
    return np.linalg.cholesky(gp.RBF(1.0)(X) + 0.1 * np.eye(n))


def _refined_solve(L, B, steps=2):
    """L^-1 B refined against long-double residuals, as a reference."""
    X = np.linalg.solve(L, B).astype(np.longdouble)
    Ld = L.astype(np.longdouble)
    for _ in range(steps):
        R = np.einsum("ij,jk->ik", Ld, X)
        np.subtract(B.astype(np.longdouble), R, out=R)
        X += np.linalg.solve(L, R.astype(float))
    return X


class TestLowerSolve:
    @pytest.mark.parametrize("cols", [1, 301])
    @pytest.mark.parametrize("n", [1, 15, 16, 17, 127, 128, 129, 300])
    def test_equals_general_solve(self, n, cols):
        L = _rbf_factor(n, seed=n)
        B = np.random.default_rng(cols).standard_normal((n, cols))
        ref = np.linalg.solve(L, B)
        out = gp._lower_solve(L, B)
        assert np.max(np.abs(out - ref)) <= 1e-12 * np.max(np.abs(ref))

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps >= np.finfo(float).eps,
        reason="long double is no wider than double here",
    )
    def test_forward_error_on_a_jittered_dirichlet_factor(self):
        # the Dirichlet K=4 benchmark op: even steps train, odd steps query;
        # the factor needs jitter and its smallest pivot is about 5e-5
        T, K = 250, 4
        rows, _ = pipeline.gen_categorical(T, classes=K, seed=0)
        Y = np.array([r[3] for r in rows], dtype=float).reshape(T, K)
        X = np.column_stack([np.arange(float(T)), np.zeros(T)])
        cfg = pipeline.LMGPConfig("dirichlet", draws=1)
        model, _ = pipeline.lmgp_v1(pipeline.Dataset(X[0::2], Y[0::2]), cfg, X_query=X[:1])
        assert model.jitter > 0.0 and model.mu.size > gp._BLOCK
        L = model._state["L"]
        ks = model.kernel(X[1::2], model.X)
        B = np.column_stack((ks.T, model.mu))
        ref = _refined_solve(L, B)

        def error(out):
            return float(np.max(np.abs(out - ref)) / np.max(np.abs(ref)))

        assert error(gp._lower_solve(L, B.copy())) <= 2.0 * error(np.linalg.solve(L, B))

    def test_predict_inverts_no_leaf_larger_than_the_leaf_size(self, monkeypatch):
        # the accuracy of the solve rests on inverting small blocks only
        inv = np.linalg.inv
        sizes = []

        def spy(a):
            sizes.append(np.shape(a)[-1])
            return inv(a)

        rng = np.random.default_rng(6)
        X = rng.uniform(0.0, 10.0, size=300)
        coregional = gp.Coregional(gp.RBF(1.0), np.eye(2) + 0.5)
        models = [
            gp.gp_fit(gp.RBF(1.0), X, rng.normal(size=300), 0.1),
            gp.gp_fit(coregional, X[:150], rng.normal(size=300), 0.1),
        ]
        monkeypatch.setattr(np.linalg, "inv", spy)
        for model in models:
            gp.gp_predict(model, np.linspace(0.0, 10.0, 40))
        assert sizes and max(sizes) <= gp._LEAF <= 16


def _lower_solve_reference(L, B):
    """gp._lower_solve as it was, writing a fresh solution array."""
    n = L.shape[0]
    X = np.empty(B.shape)
    for i in range(0, n, gp._BLOCK):
        j = min(i + gp._BLOCK, n)
        np.subtract(B[i:j], L[i:j, :i] @ X[:i], out=X[i:j])
        for a in range(i, j, gp._LEAF):
            b = min(a + gp._LEAF, j)
            if a > i:
                X[a:b] -= L[a:b, i:a] @ X[i:a]
            X[a:b] = np.linalg.inv(L[a:b, a:b]) @ X[a:b]
    return X


def _gp_predict_reference(model, Xs):
    """gp.gp_predict as it was, with separate arrays for ks, its stacked
    copy, the solution and v**2 (for a fitted model)."""
    kernel = model.kernel
    ks = kernel(Xs, model.X)
    vw = _lower_solve_reference(model._state["L"], np.column_stack((ks.T, model.mu)))
    v, w = vw[:, :-1], vw[:, -1]
    mean = w @ v
    if isinstance(kernel, gp.Coregional):
        vb = v.T.reshape(Xs.shape[0], kernel.width, model.mu.size)
        return mean, matrixops.sym(kernel.pairs(Xs, Xs) - vb @ np.swapaxes(vb, 1, 2))
    var = kernel.pairs(Xs, Xs) - np.sum(v**2, axis=0)
    return mean, np.maximum(var, 0.0)


class TestPredictInOneBuffer:
    @pytest.mark.parametrize("d", [1, 2, 3])
    @pytest.mark.parametrize("width", [1, 3])
    def test_equals_the_separate_array_predict(self, d, width):
        # 300 latent rows: the solve crosses _BLOCK and _LEAF boundaries; at
        # width 1 both a scalar kernel and a Coregional one of width 1
        rng = np.random.default_rng(10 * d + width)
        sites = rng.uniform(0.0, 4.0, size=(300 // width, d))
        Xs = rng.uniform(-1.0, 5.0, size=(57, d))
        mu, noise = rng.normal(size=300), rng.uniform(0.05, 0.5, 300)
        families = ("beta", "inverse_wishart") if width == 1 else ("dirichlet",)
        for family in families:
            kernel = pipeline._build_kernel(pipeline.LMGPConfig(family), sites, width)
            model = gp.gp_fit(kernel, sites, mu, noise)
            got = gp.gp_predict(model, Xs)
            ref = _gp_predict_reference(model, Xs)
            for a, b in zip(got, ref):
                assert a.shape == b.shape and np.array_equal(a, b)

    def test_lower_solve_returns_its_right_hand_side_solved(self):
        L = _rbf_factor(300, seed=2)
        B = np.random.default_rng(2).standard_normal((300, 41))
        ref = _lower_solve_reference(L, B)
        out = gp._lower_solve(L, B)
        assert out is B and np.array_equal(out, ref)

    def test_peak_allocation_at_n_equals_m_1000(self):
        # the (1000, 1001) system is 8.0 MB; with ks, its stacked copy and a
        # separate solution the predict peaked at 25.1 MB, in one buffer at
        # 16.1 MB (the kernel's own evaluation), bounded here with 1.9 MB margin
        rng = np.random.default_rng(5)
        X = rng.uniform(0.0, 4.0, size=(1000, 2))
        model = gp.gp_fit(gp.RBF(0.7), X, rng.normal(size=1000), 0.1)
        Xs = rng.uniform(0.0, 4.0, size=(1000, 2))
        tracemalloc.start()
        try:
            gp.gp_predict(model, Xs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 18e6


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

    @pytest.mark.parametrize("shape", ["scalar", "variances", "blocks"])
    def test_noise_is_added_as_a_dense_noise_matrix_would_be(self, shape):
        # the factor is bit-identical to that of K + the dense noise matrix,
        # and the model keeps the noise in the shape it was given
        rng = np.random.default_rng(2)
        X = rng.uniform(0.0, 3.0, size=(5, 1))
        kernel = gp.Coregional(gp.RBF(1.0), np.eye(3) + 0.5)
        if shape == "scalar":
            noise, dense = 0.3, 0.3 * np.eye(15)
        elif shape == "variances":
            noise = rng.uniform(0.1, 0.5, 15)
            dense = np.diag(noise)
        else:
            A = rng.normal(size=(5, 3, 3))
            noise = A @ np.swapaxes(A, 1, 2)
            dense = block_diag(*noise)
        model = gp.gp_fit(kernel, X, rng.normal(size=15), noise)
        assert model.noise.shape == np.shape(noise) and np.array_equal(model.noise, noise)
        assert np.array_equal(model._state["L"], np.linalg.cholesky(kernel(X) + dense))

    @pytest.mark.parametrize("case", ["variances", "blocks", "jittered"])
    def test_fit_allocates_no_more_than_two_n_by_n_arrays(self, case):
        n = 1000
        X = np.linspace(0.0, 50.0, n)
        noise = np.full(n, 0.1)
        if case == "blocks":
            noise = np.tile(np.eye(4) + 0.05, (n // 4, 1, 1))
        elif case == "jittered":
            X, noise = np.repeat(X[::2], 2), np.zeros(n)  # duplicated inputs, no noise
        tracemalloc.start()
        try:
            model = gp.gp_fit(gp.RBF(1.0), X, np.ones(n), noise)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (model.jitter > 0.0) == (case == "jittered")
        # the kernel matrix and its factor
        assert peak <= 2.1 * 8 * n * n

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

    def test_width_blocks_are_the_joint_diagonal_blocks(self, dense_posterior):
        kernel = gp.Coregional(gp.RBF(1.0, 1.0), np.eye(2) + 0.5)
        X = np.array([0.0, 1.5])
        q = np.array([0.4, 2.0, 9.0])
        for model in (
            gp.gp_fit(kernel, X, np.array([1.0, -0.5, 0.3, 0.2]), 0.1),
            gp.gp_fit(kernel, [], [], []),  # the prior
        ):
            mean, cov = dense_posterior(model, q)
            bmean, blocks = gp.gp_predict(model, q)
            assert bmean.shape == (6,) and blocks.shape == (3, 2, 2)
            np.testing.assert_allclose(bmean, mean, rtol=0, atol=1e-12)
            for i in range(3):
                np.testing.assert_allclose(
                    blocks[i], cov[2 * i : 2 * i + 2, 2 * i : 2 * i + 2], rtol=0, atol=1e-12
                )

    def test_width_blocks_at_zero_query_points(self):
        # the width > 1 branch reshaped its (0, w * w, D) pair rows with a
        # free axis and raised a raw ValueError
        kernel = gp.Coregional(gp.RBF(1.0, 1.0), np.eye(3))
        X = np.array([0.0, 1.0])
        for model in (gp.gp_fit(kernel, X, np.arange(6.0), 0.1), gp.gp_fit(kernel, [], [], [])):
            mean, blocks = gp.gp_predict(model, np.zeros((0, 1)))
            assert mean.shape == (0,) and blocks.shape == (0, 3, 3)

    def test_width_blocks_with_a_sum_coordinate_kernel(self, dense_posterior):
        coords = gp.Sum(gp.LookupTable(np.eye(3)), gp.LookupTable(np.full((3, 3), 0.5)))
        kernel = gp.Coregional(gp.RBF(0.8, 1.0), coords(np.arange(3.0)))
        X = np.array([0.0, 0.7, 1.9, 3.0])
        q = np.array([0.2, 1.0, 2.4, 8.0])
        model = gp.gp_fit(kernel, X, np.sin(np.arange(12.0)), 0.2)
        mean, cov = dense_posterior(model, q)
        bmean, blocks = gp.gp_predict(model, q)
        assert bmean.shape == (12,) and blocks.shape == (4, 3, 3)
        np.testing.assert_allclose(bmean, mean, rtol=0, atol=1e-12)
        for i in range(4):
            np.testing.assert_allclose(
                blocks[i], cov[3 * i : 3 * i + 3, 3 * i : 3 * i + 3], rtol=0, atol=1e-12
            )

    def test_variances_are_the_joint_diagonal(self, dense_posterior):
        rng = np.random.default_rng(4)
        X = rng.uniform(0.0, 5.0, size=(15, 2))
        model = gp.gp_fit(gp.RBF(1.1, 1.7), X, rng.normal(size=15), rng.uniform(0.1, 0.5, 15))
        q = rng.uniform(-1.0, 6.0, size=(25, 2))
        mean, var = gp.gp_predict(model, q)
        jmean, cov = dense_posterior(model, q)
        np.testing.assert_allclose(mean, jmean, rtol=0, atol=1e-12)
        np.testing.assert_allclose(var, np.diag(cov), rtol=0, atol=1e-14)

    def test_posterior_mean_is_ks_solve(self):
        # GPML Algorithm 2.1 in dense algebra, as the reference
        rng = np.random.default_rng(5)
        X = rng.uniform(0.0, 5.0, size=20)
        mu = rng.normal(size=20)
        kernel = gp.RBF(0.9, 1.4)
        model = gp.gp_fit(kernel, X, mu, 0.3)
        q = np.linspace(-1.0, 6.0, 13)
        mean, var = gp.gp_predict(model, q)
        A = kernel(X, X) + 0.3 * np.eye(20)
        ks = kernel(q, X)
        np.testing.assert_allclose(mean, ks @ np.linalg.solve(A, mu), rtol=0, atol=1e-12)
        ref_var = 1.4 - np.sum(ks * np.linalg.solve(A, ks.T).T, axis=1)
        np.testing.assert_allclose(var, ref_var, rtol=0, atol=1e-12)

    def test_diagnostics_read_the_factor_diagonal(self):
        rng = np.random.default_rng(7)
        X = rng.uniform(0.0, 5.0, size=30)
        noise = rng.uniform(0.1, 0.5, 30)
        kernel = gp.RBF(0.8, 1.3)
        model = gp.gp_fit(kernel, X, rng.normal(size=30), noise)
        A = kernel(X, X) + np.diag(noise)
        diag = model.diagnostics()
        assert diag["jitter"] == 0.0
        assert diag["min_pivot"] == np.min(np.diag(np.linalg.cholesky(A)))
        assert diag["log_det"] == pytest.approx(np.linalg.slogdet(A)[1], rel=1e-12)
        prior = gp.gp_fit(kernel, [], [], [])
        assert prior.diagnostics() == {"jitter": 0.0, "min_pivot": None, "log_det": 0.0}

    def test_shape_validation(self):
        with pytest.raises(DimensionMismatch):
            gp.gp_fit(gp.RBF(), np.array([0.0, 1.0]), np.array([1.0]), 0.1)
        for noise in (
            np.ones(3), np.eye(2), np.ones((1, 3, 3)), np.ones((2, 1, 2)), [np.eye(1), np.eye(2)]
        ):
            with pytest.raises(DimensionMismatch):
                gp.gp_fit(gp.RBF(), np.array([0.0, 1.0]), np.ones(2), noise)


def _joint_rows(X, w):
    """The joint-row layout the multi-latent GP ran on before Coregional:
    each site repeated w times, its latent code in an extra last column."""
    X = gp._as_inputs(X)
    codes = np.tile(np.arange(w, dtype=float), X.shape[0])
    return np.column_stack([np.repeat(X, w, axis=0), codes])


def _joint_kernel(kernel, d):
    """The Product(input kernel, LookupTable(B)) of a Coregional RBF kernel
    on joint rows of d input columns."""
    rbf = kernel.kernel
    rbf = gp.RBF(rbf.lengthscale, rbf.variance, dims=tuple(range(d)))
    return gp.Product(rbf, gp.LookupTable(kernel.B, dim=d))


def _joint_predict(kernel, X, mu, noise, Xs):
    """Fit and per-point blocks of the joint-row GP, as gp_predict read
    them with its former `width` argument: the query rows in groups of w,
    each group's prior block from paired evaluation of repeated and tiled
    rows. Returns (Cholesky factor, mean, blocks)."""
    X, Xs = gp._as_inputs(X), gp._as_inputs(Xs)
    w, d = kernel.width, X.shape[1]
    joint = _joint_kernel(kernel, d)
    model = gp.gp_fit(joint, _joint_rows(X, w), mu, noise)
    ks = joint(_joint_rows(Xs, w), model.X)
    vw = gp._lower_solve(model._state["L"], np.ascontiguousarray(np.column_stack((ks.T, mu))))
    v, a = vw[:, :-1], vw[:, -1]
    groups = _joint_rows(Xs, w).reshape(-1, w, d + 1)
    rows = np.repeat(groups, w, axis=1).reshape(-1, d + 1)
    cols = np.tile(groups, (1, w, 1)).reshape(-1, d + 1)
    prior = joint.pairs(rows, cols).reshape(-1, w, w)
    vb = v.T.reshape(-1, w, mu.size)
    return model._state["L"], a @ v, matrixops.sym(prior - vb @ np.swapaxes(vb, 1, 2))


def _benchmark_layouts():
    """Site inputs of the benchmark's multi-latent ops: Dirichlet K = 4 on
    (t, 0) for even t < 250, queried at odd t; inverse Wishart p = 3 on even
    t < 160, queried at odd t."""
    t = np.arange(250.0)
    X = np.column_stack([t, np.zeros(250)])
    ts = np.arange(160.0)
    return [(X[0::2], X[1::2], 4), (ts[0::2, None], ts[1::2, None], 6)]


def _rounding_bound(a, b, A, C, kernel):
    """Per entry, a bound on the gap between two roundings of the Coregional
    RBF entry: two _sqdist evaluations of (x, z) differ by at most
    (4d + 6) eps (|x|^2 + |z|^2), which the exponent scales by 1 / (2 l^2),
    and the exp and the products round a few times more."""
    eps = np.finfo(float).eps
    w, d = kernel.width, A.shape[1]
    norms = np.add.outer(np.sum(A**2, axis=1), np.sum(C**2, axis=1))
    norms = np.repeat(np.repeat(norms, w, axis=0), w, axis=1)
    gap = (4 * d + 6) * eps * norms / (2.0 * kernel.kernel.lengthscale**2)
    return np.maximum(np.abs(a), np.abs(b)) * (gap + 4.0 * eps)


class TestCoregional:
    """gp.Coregional against the Product(RBF, LookupTable) on joint rows it
    replaced: bit for bit for one input column and on the benchmark's
    inputs, within the rounding of _sqdist for d >= 2."""

    @staticmethod
    def _cases(d, seed):
        if d == "benchmark":
            return _benchmark_layouts()
        cases = []
        for n, m, w in ((7, 5, 3), (60, 41, 4), (100, 33, 3), (121, 50, 6), (157, 50, 4)):
            rng = np.random.default_rng(seed)
            cases.append((rng.uniform(0.0, 4.0, (n, d)), rng.uniform(-1.0, 5.0, (m, d)), w))
        return cases

    @pytest.mark.parametrize("d", [1, "benchmark"])
    def test_matrix_and_blocks_equal_the_joint_rows(self, d):
        for X, Z, w in self._cases(d, seed=1):
            kernel = gp.Coregional(gp.RBF(gp.median_lengthscale(X), 1.3), np.eye(w) + 0.5)
            joint = _joint_kernel(kernel, X.shape[1])
            for A in (X, Z):
                assert np.array_equal(kernel(A, X), joint(_joint_rows(A, w), _joint_rows(X, w)))
            assert np.array_equal(kernel(X), joint(_joint_rows(X, w)))
            rows = np.repeat(_joint_rows(Z, w), w, axis=0)
            cols = _joint_rows(np.repeat(Z, w, axis=0), w)
            blocks = joint.pairs(rows, cols).reshape(-1, w, w)
            assert kernel.pairs(Z, Z).shape == (Z.shape[0], w, w)
            assert np.array_equal(kernel.pairs(Z, Z), blocks)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_matrix_within_the_rounding_of_the_distances(self, d):
        for X, Z, w in self._cases(d, seed=d):
            kernel = gp.Coregional(gp.RBF(gp.median_lengthscale(X)), np.eye(w) + 0.5)
            joint = _joint_kernel(kernel, d)
            for A in (X, Z):
                a, b = kernel(A, X), joint(_joint_rows(A, w), _joint_rows(X, w))
                assert np.all(np.abs(a - b) <= _rounding_bound(a, b, A, X, kernel))
            # the paired blocks read no matrix product: the same floats
            rows = np.repeat(_joint_rows(Z, w), w, axis=0)
            cols = _joint_rows(np.repeat(Z, w, axis=0), w)
            assert np.array_equal(kernel.pairs(Z, Z), joint.pairs(rows, cols).reshape(-1, w, w))

    @pytest.mark.parametrize("family", ["dirichlet", "inverse_wishart"])
    @pytest.mark.parametrize("d", [1, "benchmark"])
    def test_prediction_equals_the_joint_rows(self, family, d):
        # the pipeline's fit and marginals against the joint-row GP fitted on
        # the same pseudo-observations
        if d == "benchmark":
            [(X, Xq, _), (ts, tq, _)] = _benchmark_layouts()
            rows, _ = pipeline.gen_categorical(250, classes=4, seed=0)
            Y = np.array([r[3] for r in rows], dtype=float).reshape(250, 4)[0::2]
            if family == "inverse_wishart":
                X, Xq, Y = ts, tq, np.array(pipeline.gen_covariance(160, p=3, seed=0)[1])[0::2]
        else:
            X, Xq = np.arange(8.0) * 0.7, np.linspace(-1.0, 6.0, 11)
            rows, _ = pipeline.gen_categorical(8, classes=3, seed=1)
            Y = np.array([r[3] for r in rows], dtype=float).reshape(8, 3)
            if family == "inverse_wishart":
                Y = np.array(pipeline.gen_covariance(8, p=2, seed=1)[1])
        cfg = pipeline.LMGPConfig(family, draws=5)
        model, pred = pipeline.lmgp_v1(pipeline.Dataset(X, Y), cfg, X_query=Xq)
        L, mean, blocks = _joint_predict(model.kernel, model.X, model.mu, model.noise, Xq)
        assert np.array_equal(model._state["L"], L)
        assert np.array_equal(pred.latent_mean.ravel(), mean)
        assert np.array_equal(pred.latent_cov, blocks)

    @pytest.mark.parametrize("d", [2, 3, 5])
    def test_prediction_within_the_stated_tolerance(self, d):
        # 121 sites of width 6: with OpenBLAS 0.3.31 on a 2-vCPU Xeon the
        # joint rows' matrix product rounds 300 to 900 of the fit kernel's
        # 527k entries differently at these inputs
        rng = np.random.default_rng(d)
        X, Xq = rng.uniform(0.0, 4.0, (121, d)), rng.uniform(-1.0, 5.0, (40, d))
        kernel = gp.Coregional(gp.RBF(gp.median_lengthscale(X)), np.eye(6) + 0.5)
        mu = rng.normal(size=726)
        S = rng.normal(size=(121, 6, 6))
        noise = S @ np.swapaxes(S, 1, 2) / 6.0 + 0.05 * np.eye(6)
        mean, blocks = gp.gp_predict(gp.gp_fit(kernel, X, mu, noise), Xq)
        _, ref_mean, ref_blocks = _joint_predict(kernel, X, mu, noise, Xq)
        assert np.max(np.abs(mean - ref_mean)) <= 1e-12 * np.max(np.abs(ref_mean))
        assert np.max(np.abs(blocks - ref_blocks)) <= 1e-12 * np.max(np.abs(ref_blocks))

    def test_validation_and_record(self):
        with pytest.raises(DimensionMismatch):
            gp.Coregional(gp.RBF(), np.ones((2, 3)))
        with pytest.raises(InvalidParams):
            gp.Coregional(gp.RBF(), np.array([[1.0, 0.5], [0.4, 1.0]]))
        with pytest.raises(NotPositiveDefinite):
            gp.Coregional(gp.RBF(), np.array([[1.0, 2.0], [2.0, 1.0]]))
        kernel = gp.Coregional(gp.RBF(2.0), np.eye(2) + 0.5)
        assert kernel.width == 2 and gp.RBF().width == 1
        assert kernel.to_record() == {
            "kernel": "coregional",
            "input": {"kernel": "rbf", "lengthscale": 2.0, "variance": 1.0},
            "B": [[1.5, 0.5], [0.5, 1.5]],
        }

    def test_fit_checks_the_latent_rows(self):
        kernel = gp.Coregional(gp.RBF(), np.eye(3))
        with pytest.raises(DimensionMismatch):  # one row per site, not per latent
            gp.gp_fit(kernel, np.arange(4.0), np.zeros(4), 0.1)
        with pytest.raises(DimensionMismatch):
            gp.gp_fit(kernel, np.arange(4.0), np.zeros(12), np.tile(np.eye(3), (3, 1, 1)))
        with pytest.raises(DimensionMismatch):  # blocks that straddle the sites
            gp.gp_fit(kernel, np.arange(4.0), np.zeros(12), np.tile(np.eye(2), (6, 1, 1)))
        model = gp.gp_fit(kernel, np.arange(4.0), np.zeros(12), np.tile(np.eye(3), (4, 1, 1)))
        assert model.noise.shape == (4, 3, 3) and model.mu.shape == (12,)


def _inducing_fields(X, Y, k, family, **config):
    """Cluster centers, folded per-cluster parameter fields and the basis of
    the pipeline's inducing sites (seed 0): the LM step's sites and basis,
    and the fields it hands to its one bridge call."""
    cfg = pipeline.LMGPConfig(family, inducing=k, **config)
    fields, forward = {}, bridges.forward_arrays

    def spy(family, tag, **folded):
        fields.update(folded)
        return forward(family, tag, **folded)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bridges, "forward_arrays", spy)
        centers, _, _, basis, _ = pipeline.pseudo_observations(pipeline.Dataset(X, Y), cfg)
    return centers, fields, basis


def _kmeanspp_reference(X, k, seed=0, max_iter=100):
    """k-means++ as it was before the bincount and argsort rewrite of the
    Lloyd loop and the choice-free seeding: seeds drawn by rng.choice on
    np.sum distances, one boolean mask per cluster for the empty check, and
    each centre from np.mean. The library must match it bit for bit."""
    X = gp._as_inputs(X)
    n = X.shape[0]
    rng = np.random.default_rng(seed)
    centers = np.empty((k, X.shape[1]))
    centers[0] = X[rng.integers(n)]
    d2 = np.sum((X - centers[0]) ** 2, axis=1)
    for j in range(1, k):
        total = float(np.sum(d2))
        if total <= 0.0:
            centers[j] = X[rng.integers(n)]
        else:
            centers[j] = X[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((X - centers[j]) ** 2, axis=1))

    assign = None
    iterations = 0
    for it in range(max_iter):
        iterations = it + 1
        new_assign = np.argmin(gp._sqdist(X, centers), axis=1)
        for _ in range(5):
            empty = [j for j in range(k) if not np.any(new_assign == j)]
            if not empty:
                break
            for j in empty:
                far = int(np.argmax(np.min(gp._sqdist(X, centers), axis=1)))
                centers[j] = X[far]
            new_assign = np.argmin(gp._sqdist(X, centers), axis=1)
        else:
            raise EmptyCluster("could not repair empty clusters after 5 attempts")
        if assign is not None and np.array_equal(new_assign, assign):
            break
        assign = new_assign
        for j in range(k):
            centers[j] = np.mean(X[assign == j], axis=0)
    return centers, assign, iterations


def _kmeans_outcome(fn, X, k, seed, max_iter=100):
    try:
        return fn(X, k, seed=seed, max_iter=max_iter)
    except EmptyCluster as exc:
        return str(exc)


class TestInducing:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    @pytest.mark.parametrize(
        "n, k, duplicates",
        [(400, 25, False), (300, 7, True), (60, 60, False), (40, 12, True), (120, 30, True)],
    )
    def test_kmeanspp_matches_the_masked_lloyd_loop_bit_for_bit(self, n, k, duplicates, dim):
        rng = np.random.default_rng(100 * n + dim)
        X = rng.normal(size=(n, dim))
        if duplicates:
            X = X[rng.integers(max(k, n // 4), size=n)]
        for seed in (0, 5):
            got = _kmeans_outcome(gp.kmeanspp, X, k, seed)
            want = _kmeans_outcome(_kmeanspp_reference, X, k, seed)
            if isinstance(want, str):
                assert got == want
                continue
            assert np.array_equal(got[0], want[0])
            assert np.array_equal(got[1], want[1])
            assert got[2] == want[2]

    @pytest.mark.parametrize(
        "X, k, seed",
        [
            (np.random.default_rng(84).normal(size=(40, 1)), 10, 84),
            (np.random.default_rng(245).standard_cauchy(size=(100, 2)), 30, 245),
        ],
    )
    def test_kmeanspp_repairs_an_empty_cluster_like_the_masked_loop(
        self, monkeypatch, X, k, seed
    ):
        want = _kmeanspp_reference(X, k, seed=seed)
        repaired, empty = gp._repaired, []

        def spy(X, centers, assign, nearest):
            empty.append(np.bincount(assign, minlength=centers.shape[0]).min() == 0)
            return repaired(X, centers, assign, nearest)

        monkeypatch.setattr(gp, "_repaired", spy)
        got = gp.kmeanspp(X, k, seed=seed)
        # an iteration left a cluster empty, and the repair matched the loop's
        assert any(empty)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    @given(
        dim=st.sampled_from([1, 2, 3, 5]),
        n=st.integers(2, 300),
        k_share=st.floats(0.0, 1.0),
        kind=st.sampled_from(["normal", "duplicates", "grid", "jittered", "blobs"]),
        exponent=st.integers(-27, 27),
        offset=st.sampled_from([0.0, 1.0, 1e4]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=80, deadline=None)
    def test_kmeanspp_matches_the_reference_on_any_input(
        self, dim, n, k_share, kind, exponent, offset, data_seed, seed
    ):
        # scales 2^-27 (7e-9) to 2^27 (1.3e8) keep the grid's distance ties
        # exact, and a jitter of 1e-9 puts gaps near rounding level; the
        # offset of 1e4 spreads makes the rounding bound exceed most gaps,
        # so nothing is proven
        rng = np.random.default_rng(data_seed)
        k = 1 + int(k_share * (min(n, 60) - 1))
        if kind in ("grid", "jittered"):
            X = rng.integers(0, 4, size=(n, dim)).astype(float)
            if kind == "jittered":
                X += 1e-9 * rng.normal(size=(n, dim))
        elif kind == "blobs":
            X = 20.0 * rng.normal(size=(k, dim))[rng.integers(k, size=n)]
            X += rng.normal(size=(n, dim))
        else:
            X = rng.normal(size=(n, dim))
            if kind == "duplicates":
                X = X[rng.integers(max(1, n // 4), size=n)]
        X = (X + offset) * 2.0**exponent
        got = _kmeans_outcome(gp.kmeanspp, X, k, seed)
        want = _kmeans_outcome(_kmeanspp_reference, X, k, seed)
        if isinstance(want, str):
            assert got == want
            return
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    @given(
        n=st.integers(2, 400),
        k_share=st.floats(0.0, 1.0),
        kind=st.sampled_from(["normal", "offset", "duplicates", "grid", "halves", "blobs"]),
        order=st.sampled_from(["shuffled", "sorted", "reversed"]),
        max_iter=st.sampled_from([1, 2, 3, 100]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=100, deadline=None)
    def test_kmeanspp_on_one_dimensional_inputs_matches_the_reference(
        self, n, k_share, kind, order, max_iter, data_seed, seed
    ):
        # the sorted path assigns runs between centre midpoints and leaves
        # the rounding band around each midpoint to the rows' argmin: 1e6 +
        # 1e-6 u puts every point in a band, a grid of integers or halves
        # puts points exactly on midpoints and gives tied centres, and a cap
        # of 1 to 3 iterations stops most runs before they converge
        rng = np.random.default_rng(data_seed)
        k = 1 + int(k_share * (min(n, 60) - 1))
        if kind == "offset":
            x = 1e6 + 1e-6 * rng.uniform(size=n)
        elif kind == "duplicates":
            x = rng.normal(size=max(1, n // 4))[rng.integers(max(1, n // 4), size=n)]
        elif kind in ("grid", "halves"):
            x = rng.integers(0, 8, size=n) / (2.0 if kind == "halves" else 1.0)
        elif kind == "blobs":
            x = 20.0 * rng.normal(size=k)[rng.integers(k, size=n)] + rng.normal(size=n)
        else:
            x = rng.normal(size=n)
        if order != "shuffled":
            x = np.sort(x)[:: 1 if order == "sorted" else -1]
        got = _kmeans_outcome(gp.kmeanspp, x, k, seed, max_iter)
        want = _kmeans_outcome(_kmeanspp_reference, x, k, seed, max_iter)
        if isinstance(want, str):
            assert got == want
            return
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]
        # converged: one more iteration allowed, the reference stops by the cap
        longer = _kmeans_outcome(_kmeanspp_reference, x, k, seed, max_iter + 1)
        assert got[3] == (not isinstance(longer, str) and longer[2] <= max_iter)

    @given(
        n=st.integers(2, 200),
        k=st.integers(1, 30),
        kind=st.sampled_from(["normal", "offset", "grid", "tiny"]),
        data_seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_midpoint_assignment_is_the_argmin_of_each_row(self, n, k, kind, data_seed):
        # any centres, not only Lloyd's: drawn from the inputs (so tied
        # centres) and from the midpoints of input pairs (so inputs exactly
        # on a centre midpoint), on unsorted inputs
        rng = np.random.default_rng(data_seed)
        x = {
            "normal": lambda: rng.normal(size=n),
            "offset": lambda: 1e6 + 1e-6 * rng.uniform(size=n),
            "grid": lambda: rng.integers(0, 6, size=n) / 2.0,
            "tiny": lambda: 1e-160 * rng.normal(size=n),
        }[kind]()
        i, j = rng.integers(n, size=(2, k))
        c = np.where(rng.random(k) < 0.5, x[i], 0.5 * (x[i] + x[j]))
        X, C = x[:, None], c[:, None]
        order = np.argsort(x, kind="stable")
        got = gp._nearest_sorted(X, order, x[order], C)
        assert np.array_equal(got, np.argmin(gp._sqdist(X, C), axis=1))

    def test_kmeanspp_decides_a_point_on_a_midpoint_by_its_row(self, monkeypatch):
        # centres 0 and 2 seed the loop, and 1 lies exactly between them:
        # its row ties, and argmin takes the lower centre index, as the
        # reference loop's does
        X = np.array([0.0, 0.0, 0.0, 1.0, 2.0, 2.0, 2.0])
        rows = self._rows_passed(monkeypatch)
        seeds = gp.kmeanspp(X, 2, seed=3, max_iter=0)[0]
        assert sorted(seeds[:, 0]) == [0.0, 2.0]
        got = gp.kmeanspp(X, 2, seed=3)
        assert any(1.0 in r for r in rows)
        want = _kmeanspp_reference(X, 2, seed=3)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    @pytest.mark.parametrize("dim", [1, 2])
    def test_kmeanspp_tells_convergence_from_the_cap(self, dim):
        # a run that converges at iteration t looks, by its count, like one
        # stopped at max_iter = t; the flag tells them apart
        X = np.random.default_rng(dim).normal(size=(300, dim))
        centers, assign, t, converged = gp.kmeanspp(X, 12, seed=1)
        assert converged and t >= 3
        at_cap = gp.kmeanspp(X, 12, seed=1, max_iter=t)
        assert at_cap[2] == t and at_cap[3] is True
        assert np.array_equal(at_cap[0], centers) and np.array_equal(at_cap[1], assign)
        capped = gp.kmeanspp(X, 12, seed=1, max_iter=t - 1)
        assert capped[2] == t - 1 and capped[3] is False
        assert gp.kmeanspp(X, 12, seed=1, max_iter=0)[1:] == (None, 0, False)

    @given(
        dim=st.integers(1, 16),
        n=st.integers(2, 120),
        k_share=st.floats(0.0, 1.0),
        kind=st.sampled_from(["normal", "duplicates", "grid", "constant"]),
        order=st.sampled_from(["C", "F"]),
        data_seed=st.integers(0, 2**32 - 1),
        seed=st.integers(0, 99),
    )
    @settings(max_examples=80, deadline=None)
    def test_kmeanspp_seeds_as_generator_choice_and_centres_as_np_mean(
        self, dim, n, k_share, kind, order, data_seed, seed
    ):
        # the seeding draws through the arithmetic of Generator.choice and
        # sums the squares column by column; the d = 1 centres are sums of
        # slices: the reference's rng.choice, np.sum and np.mean, bit for
        # bit, on n < d, F order, duplicates, exact ties (a grid) and
        # constant inputs (every draw after the first takes the total <= 0
        # path)
        rng = np.random.default_rng(data_seed)
        k = 1 + int(k_share * (n - 1))
        if kind == "grid":
            X = rng.integers(0, 3, size=(n, dim)).astype(float)
        elif kind == "constant":
            X = np.full((n, dim), rng.normal())
        else:
            X = rng.normal(size=(n, dim))
            if kind == "duplicates":
                X = X[rng.integers(max(1, n // 4), size=n)]
        X = np.asarray(X, order=order)
        seeds = gp.kmeanspp(X, k, seed=seed, max_iter=0)
        want_seeds = _kmeanspp_reference(X, k, seed=seed, max_iter=0)
        assert np.array_equal(seeds[0], want_seeds[0])
        got = _kmeans_outcome(gp.kmeanspp, X, k, seed)
        want = _kmeans_outcome(_kmeanspp_reference, X, k, seed)
        if isinstance(want, str):
            assert got == want
            return
        assert np.array_equal(got[0], want[0])
        assert np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    @pytest.mark.parametrize("dim", [1, 2, 7, 8, 9, 16])
    def test_seeding_distances_are_those_of_np_sum(self, dim):
        rng = np.random.default_rng(dim)
        C = rng.normal(size=(50, dim)) * 10.0 ** rng.uniform(-3, 3, size=dim)
        for X in (C, np.asfortranarray(C), C[::2], C[:1], np.asfortranarray(C)[::3]):
            c = X[0] + 0.1
            assert np.array_equal(gp._sqdist_to(X, c), np.sum((X - c) ** 2, axis=1))

    def test_kmeanspp_rejects_non_finite_inputs(self):
        for bad in (np.nan, np.inf):
            X = np.random.default_rng(0).normal(size=(20, 2))
            X[7, 1] = bad
            with pytest.raises(InvalidParams):
                gp.kmeanspp(X, 3)

    @pytest.mark.parametrize("data_seed", [1, 4, 5])
    def test_kmeanspp_matches_the_reference_at_rounding_level_gaps(self, data_seed):
        # a grid jittered by 1e-9 leaves centres and points within rounding
        # of ties; bounds without their rounding slack prove wrong
        # assignments here
        rng = np.random.default_rng(data_seed)
        X = rng.integers(0, 4, size=(30, 1)) + 1e-9 * rng.normal(size=(30, 1))
        got = gp.kmeanspp(X, 6, seed=0)
        want = _kmeanspp_reference(X, 6, seed=0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    def test_kmeanspp_matches_the_reference_above_192_centres(self):
        # on OpenBLAS, rows recomputed alone round differently from the full
        # product's in places from 193 centres on
        X = np.random.default_rng(17).normal(size=(600, 3))
        got = gp.kmeanspp(X, 200, seed=4)
        want = _kmeanspp_reference(X, 200, seed=4)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    def test_kmeanspp_matches_the_reference_where_distances_underflow(self):
        # at 1e-160 the squared distances are subnormal and err absolutely,
        # which a relative rounding bound does not cover: bounds without the
        # absolute floor proved wrong assignments for several of these
        for seed in range(150):
            X = np.random.default_rng(seed).normal(size=(200, 2)) * 1e-160
            got = _kmeans_outcome(gp.kmeanspp, X, 8, seed)
            want = _kmeans_outcome(_kmeanspp_reference, X, 8, seed)
            if isinstance(want, str):
                assert got == want
                continue
            assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
            assert got[2] == want[2]

    @staticmethod
    def _rows_passed(monkeypatch):
        """The inputs of every _sqdist call against the centres (not the
        centres against themselves), copied."""
        sqdist = gp._sqdist
        rows = []

        def spy(A, B):
            if A is not B:
                rows.append(A.copy())
            return sqdist(A, B)

        monkeypatch.setattr(gp, "_sqdist", spy)
        return rows

    def test_kmeanspp_recomputes_one_unsure_row_through_two(self, monkeypatch):
        # two blobs and one point off the segment between them, nearly
        # equidistant: after the first move, only that point is unsure
        rng = np.random.default_rng(3)
        a = rng.normal(-10.0, 0.5, size=(200, 2))
        b = rng.normal(10.0, 0.5, size=(200, 2))
        X = np.vstack([a, b, (a.mean(axis=0) + b.mean(axis=0)) / 2 + [8.0, -8.0]])
        rows = self._rows_passed(monkeypatch)
        got = gp.kmeanspp(X, 2, seed=0)
        assert [r.shape[0] for r in rows] == [401, 2]
        # never a one-row product: numpy runs it as a BLAS gemv
        assert np.array_equal(rows[1], X[[400, 400]])
        want = _kmeanspp_reference(X, 2, seed=0)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2] == 2

    def test_kmeanspp_computes_fewer_rows_than_n_after_the_first_iteration(self, monkeypatch):
        rng = np.random.default_rng(11)
        means = 30.0 * rng.normal(size=(8, 2))
        X = means[rng.integers(8, size=2000)] + rng.normal(size=(2000, 2))
        rows = self._rows_passed(monkeypatch)
        got = gp.kmeanspp(X, 8, seed=1)
        assert got[2] >= 3
        assert rows[0].shape[0] == 2000
        assert sum(r.shape[0] for r in rows[1:]) < 2000
        want = _kmeanspp_reference(X, 8, seed=1)
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
        assert got[2] == want[2]

    def test_kmeanspp_takes_the_full_matrix_for_a_tied_row(self, monkeypatch):
        # the last point is exactly equidistant from the final centres
        # (-8, 0) and (8, 0); a gap of zero in a recomputed row proves
        # nothing, so the iteration computes the full matrix and its argmin
        # breaks the tie, as in the reference
        X = np.array(
            [[-10, 0], [-10, -1], [-11, 0], [-9, 0]] + [[8, 0]] * 5 + [[0, 1]], dtype=float
        )
        rows = self._rows_passed(monkeypatch)
        got = gp.kmeanspp(X, 2, seed=7)
        assert [r.shape[0] for r in rows] == [10, 2, 10]
        assert np.array_equal(got[0], [[-8.0, 0.0], [8.0, 0.0]])
        want = _kmeanspp_reference(X, 2, seed=7)
        assert np.array_equal(got[1], want[1]) and got[2] == want[2]

    def test_kmeanspp_raises_when_empty_clusters_cannot_be_repaired(self):
        # both centres sit on the one distinct input; the second stays empty
        with pytest.raises(EmptyCluster):
            gp.kmeanspp(np.zeros((5, 1)), 2)

    def test_kmeanspp_separated_blobs(self):
        rng = np.random.default_rng(6)
        a = rng.normal(0.0, 0.1, size=(20, 2))
        b = rng.normal(10.0, 0.1, size=(20, 2))
        X = np.vstack([a, b])
        centers, assign, _, _ = gp.kmeanspp(X, 2, seed=0)
        order = np.argsort(centers[:, 0])
        np.testing.assert_allclose(centers[order[0]], a.mean(axis=0), atol=0.01)
        np.testing.assert_allclose(centers[order[1]], b.mean(axis=0), atol=0.01)
        assert len(set(assign[:20])) == 1 and len(set(assign[20:])) == 1

    def test_kmeanspp_bounds(self):
        with pytest.raises(InvalidParams):
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
        _, assignments, _, _ = gp.kmeanspp(X, 4, seed=0)
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
