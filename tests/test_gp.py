"""Latent-space GP: kernels, dense and sparse fit/predict."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import block_diag

from laplace_match import bridges, gp, matrixops, pipeline
from laplace_match.errors import (
    DimensionMismatch,
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
            lambda: gp.gp_fit(gp.RBF(), np.arange(2.0), np.zeros(2), 0.1, inducing=np.zeros((0, 1))),
            # NaN passed the `<= 0.0` checks and gave an all-NaN Gram
            lambda: gp.RBF(lengthscale=np.nan),
            lambda: gp.RBF(variance=np.nan),
            lambda: gp.RBF(lengthscale=np.inf),
            lambda: gp.RationalQuadratic(alpha=np.nan),
            lambda: gp.RationalQuadratic(lengthscale=np.nan),
            lambda: gp.Linear(variance=np.nan),
            lambda: gp.Linear(offset=np.nan),
            lambda: gp.Linear(offset=np.inf),
            # a lengthscale whose square underflows gave NaN entries and a
            # RuntimeWarning from 0 / 0 at zero distance
            lambda: gp.RBF(lengthscale=1e-300),
            lambda: gp.RationalQuadratic(lengthscale=1e-300),
            lambda: gp.RationalQuadratic(lengthscale=1e-150, alpha=1e-10),
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
            "no_inducing_inputs", "rbf_nan_lengthscale", "rbf_nan_variance", "rbf_inf_lengthscale",
            "rational_quadratic_nan_alpha", "rational_quadratic_nan_lengthscale",
            "linear_nan_variance", "linear_nan_offset", "linear_inf_offset",
            "rbf_underflowing_lengthscale", "rational_quadratic_underflowing_lengthscale",
            "rational_quadratic_underflowing_scale", "nan_mu",
            "nan_noise_variances", "nan_scalar_noise", "nan_noise_blocks",
        ],
    )
    def test_bad_arguments_raise_invalid_params(self, call):
        # the lookup table and the inducing inputs: test_lookup_table_validation,
        # test_pairs_checks_lookup_codes_and_lengths, test_bad_inducing_inputs_raise
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
        assert prior.diagnostics() == {
            "jitter": 0.0, "min_pivot": None, "log_det": 0.0, "inducing": None,
            "rank": None, "pivot_residual": None,
        }

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
    model = gp._dense_fit(joint, _joint_rows(X, w), mu, np.asarray(noise, dtype=float))
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


def _lm_fields(data, config):
    """The parameter fields the LM step hands to its one bridge call."""
    fields, forward = {}, bridges.forward_arrays

    def spy(family, tag, **folded):
        fields.update(folded)
        return forward(family, tag, **folded)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(bridges, "forward_arrays", spy)
        pipeline.pseudo_observations(data, config)
    return fields


def _sparse_cases():
    """(kernel, X, mu, noise, Xq): per-row variances, a scalar variance,
    2 x 2 blocks of consecutive rows under a width-1 kernel, and Coregional
    site blocks."""
    rng = np.random.default_rng(5)
    X = np.sort(rng.uniform(0.0, 4.0, size=12))
    Xq = np.linspace(-0.5, 4.5, 9)
    mu = np.sin(X) + 0.1 * rng.standard_normal(12)
    G = rng.standard_normal((6, 2, 2))
    blocks = G @ np.swapaxes(G, 1, 2) * 0.1 + 0.05 * np.eye(2)
    G = rng.standard_normal((12, 3, 3))
    site_blocks = G @ np.swapaxes(G, 1, 2) * 0.1 + 0.05 * np.eye(3)
    B = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, 0.2], [0.1, 0.2, 1.0]])
    mu3 = np.repeat(mu, 3) + 0.1 * rng.standard_normal(36)
    return {
        "variances": (gp.RBF(1.0), X, mu, rng.uniform(0.05, 0.5, size=12), Xq),
        "scalar": (gp.RBF(0.7, 2.0), X, mu, 0.2, Xq),
        "blocks": (gp.RBF(1.0), X, mu, blocks, Xq),
        "coregional": (gp.Coregional(gp.RBF(1.0), B), X, mu3, site_blocks, Xq),
    }


_SPARSE_CASES = ["variances", "scalar", "blocks", "coregional"]


def _dtc_reference(kernel, X, mu, noise, Z, Xq, jitter):
    """The sparse GP from its n x n formulas, with Sigma the dense noise
    matrix, A = K_uu + K_uf Sigma^-1 K_fu and K_uu taking `jitter`:
    (mean K_*u A^-1 K_uf Sigma^-1 mu, the marginals of K_** - Q_** +
    K_*u A^-1 K_u*, those of the Nystrom residual K_** - Q_**, and
    log det(Q_ff + Sigma)); marginals are (m,) variances for a width-1
    kernel and (m, w, w) blocks otherwise."""
    w, m = kernel.width, Xq.shape[0]
    noise = np.asarray(noise, dtype=float)
    S = block_diag(*noise) if noise.ndim == 3 else np.diag(np.broadcast_to(noise, mu.shape))
    Kuu = kernel(Z, Z) + jitter * np.eye(Z.shape[0] * w)
    Kuf, Kqu = kernel(Z, X), kernel(Xq, Z)
    A = Kuu + Kuf @ np.linalg.solve(S, Kuf.T)
    mean = Kqu @ np.linalg.solve(A, Kuf @ np.linalg.solve(S, mu))
    residual = kernel(Xq, Xq) - Kqu @ np.linalg.solve(Kuu, Kqu.T)
    cov = residual + Kqu @ np.linalg.solve(A, Kqu.T)
    log_det = np.linalg.slogdet(Kuf.T @ np.linalg.solve(Kuu, Kuf) + S)[1]
    i = np.arange(m)
    if w > 1:
        def marginals(C):
            return C.reshape(m, w, m, w)[i, :, i, :]
    else:
        def marginals(C):
            return C[i, i]
    return mean, marginals(cov), marginals(residual), log_det


class TestSparse:
    @pytest.mark.parametrize("case", ["variances", "scalar", "blocks", "coregional"])
    def test_at_z_equal_x_equals_the_dense_fit(self, case):
        # with Z = X the sparse GP's Nystrom covariance is K itself, so its
        # marginals and its log-determinant are the dense ones. Measured: at
        # most 1.2e-9 in a mean or variance (the coregional case; K_uu of 12
        # inputs at lengthscale 1 on [0, 4] is ill-conditioned, and
        # k** - a^T a cancels) and 2.7e-13 relative in the log-determinant;
        # the bounds allow ten times that
        kernel, X, mu, noise, Xq = _sparse_cases()[case]
        dense = gp.gp_fit(kernel, X, mu, noise)
        sparse = gp.gp_fit(kernel, X, mu, noise, inducing=X)
        for a, b in zip(gp.gp_predict(sparse, Xq), gp.gp_predict(dense, Xq)):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1.2e-8)
        np.testing.assert_allclose(
            sparse.diagnostics()["log_det"], dense.diagnostics()["log_det"], rtol=2.7e-12
        )

    @pytest.mark.parametrize("case", ["variances", "blocks", "coregional"])
    def test_chunks_give_the_one_chunk_result(self, case, monkeypatch):
        # one site (or one noise block) and one query point per chunk;
        # measured at most 1.3e-15 from the one-chunk result
        kernel, X, mu, noise, Xq = _sparse_cases()[case]
        Z = X[::3]
        whole = gp.gp_predict(gp.gp_fit(kernel, X, mu, noise, inducing=Z), Xq)
        monkeypatch.setattr(gp, "_SPARSE_BLOCK", 1)
        chunked = gp.gp_predict(gp.gp_fit(kernel, X, mu, noise, inducing=Z), Xq)
        for a, b in zip(chunked, whole):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=1e-12)

    def test_model_record(self):
        kernel, X, mu, noise, Xq = _sparse_cases()["variances"]
        Z = X[:5]
        model = gp.gp_fit(kernel, X, mu, noise, inducing=Z)
        assert model.n == 12 and np.array_equal(model.inducing, Z[:, None])
        assert model.X.shape == (12, 1) and model.noise.shape == (12,)
        diag = model.diagnostics()
        L = np.linalg.cholesky(kernel(Z, Z) + diag["jitter"] * np.eye(5))
        assert diag["inducing"] == 5 and diag["noise_jitter"] == 0.0
        assert diag["min_pivot"] == pytest.approx(np.min(np.diag(L)), rel=1e-12)
        # log det(Q_ff + noise) with Q_ff = K_fu K_uu^-1 K_uf
        Kuf = kernel(Z, X)
        Q = Kuf.T @ np.linalg.solve(L @ L.T, Kuf)
        assert diag["log_det"] == pytest.approx(np.linalg.slogdet(Q + np.diag(noise))[1], rel=1e-8)
        assert repr(model) == f"GPModel(n=12, k=5, jitter={diag['jitter']:g})"
        assert gp.gp_fit(kernel, X, mu, noise).diagnostics()["inducing"] is None

    def test_singular_noise_blocks_take_the_ladder(self):
        # blocks singular along one direction (as a softmax block is along
        # the ones vector) take the jitter of the noise's mean diagonal
        X = np.arange(6.0)
        kernel = gp.Coregional(gp.RBF(2.0), np.eye(3) + 0.5)
        mu = np.tile([0.5, -0.2, -0.3], 6)
        noise = np.tile(np.diag([0.3, 0.2, 0.0]), (6, 1, 1))
        model = gp.gp_fit(kernel, X, mu, noise, inducing=X[::2])
        assert model.noise_jitter == 1e-10 * np.mean(np.diagonal(noise, 0, 1, 2))
        assert model.diagnostics()["noise_jitter"] == model.noise_jitter
        mean, cov = gp.gp_predict(model, np.linspace(0.0, 5.0, 4))
        assert np.all(np.isfinite(mean)) and np.all(np.linalg.eigvalsh(cov) >= 0.0)

    @pytest.mark.parametrize(
        "inducing, error",
        [
            (np.zeros((0, 1)), InvalidParams),
            (np.array([0.0, np.nan]), InvalidParams),
            (np.array([0.0, np.inf]), InvalidParams),
            (np.zeros((2, 2)), DimensionMismatch),
        ],
        ids=["empty", "nan", "inf", "columns"],
    )
    def test_bad_inducing_inputs_raise(self, inducing, error):
        with pytest.raises(error):
            gp.gp_fit(gp.RBF(), np.arange(3.0), np.zeros(3), 0.1, inducing=inducing)

    @pytest.mark.parametrize("noise", [1e-320, np.array([1e-320, 1.0, 1.0])])
    def test_subnormal_noise_raises_not_positive_definite(self, noise):
        # R^-1 of about 1e160 overflows B = I + W W^T
        with pytest.raises(NotPositiveDefinite):
            gp.gp_fit(gp.RBF(), np.arange(3.0), np.ones(3), noise, inducing=np.arange(3.0))

    def test_empty_data_returns_the_prior(self):
        model = gp.gp_fit(gp.RBF(), np.zeros(0), np.zeros(0), 0.1, inducing=np.zeros(2))
        assert model.n == 0 and model.inducing is None
        mean, var = gp.gp_predict(model, np.arange(3.0))
        assert np.array_equal(mean, np.zeros(3)) and np.array_equal(var, np.ones(3))

    def test_lm_step_folds_each_observation_alone(self):
        # inducing=k chooses the GP fit, not the pseudo-observations: the
        # bridge receives one folded prior per observation, as without it
        X = np.array([0.0, 0.1, 0.2, 0.2])
        Y = np.array([1.0, 1.0, 0.0, 1.0])
        cfg = pipeline.LMGPConfig("beta", epsilon_a=0.01, inducing=1)
        theta = _lm_fields(pipeline.Dataset(X, Y), cfg)
        np.testing.assert_allclose(theta["alpha"], 0.01 + Y, atol=1e-12)
        np.testing.assert_allclose(theta["beta"], 1.01 - Y, atol=1e-12)
        plain = _lm_fields(pipeline.Dataset(X, Y), cfg.replace(inducing=None))
        assert all(np.array_equal(theta[k], plain[k]) for k in plain)

    def test_dirichlet_lm_step_folds_each_observation_alone(self):
        X = np.array([0.0, 0.05])
        Y = np.array([[3.0, 1.0, 0.0], [1.0, 2.0, 1.0]])
        cfg = pipeline.LMGPConfig("dirichlet", dirichlet_prior=1.0, inducing=1)
        theta = _lm_fields(pipeline.Dataset(X, Y), cfg)
        np.testing.assert_allclose(theta["alpha"], 1.0 + Y, atol=1e-12)

    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_marginals_equal_the_dtc_formulas(self, case):
        # against the n x n formulas with 4 of the 12 inputs as Z; measured
        # at most 2.5e-14 in a mean or variance (the coregional case), the
        # bound allows ten times that
        kernel, X, mu, noise, Xq = _sparse_cases()[case]
        model = gp.gp_fit(kernel, X, mu, noise, inducing=X[::3])
        ref = _dtc_reference(kernel, X, mu, noise, X[::3], Xq, model.jitter)
        for a, b in zip(gp.gp_predict(model, Xq), ref[:2]):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=2.5e-13)

    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_log_det_is_that_of_the_nystrom_marginal(self, case):
        # log det(Q_ff + noise), Q_ff = K_fu K_uu^-1 K_uf, from slogdet of
        # the n x n matrix; measured at most 3.8e-16 relative
        kernel, X, mu, noise, Xq = _sparse_cases()[case]
        model = gp.gp_fit(kernel, X, mu, noise, inducing=X[::3])
        log_det = _dtc_reference(kernel, X, mu, noise, X[::3], Xq, model.jitter)[3]
        assert model.diagnostics()["log_det"] == pytest.approx(log_det, rel=4e-15)

    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_variance_lies_between_the_nystrom_residual_and_the_prior(self, case):
        # k** - Q** <= var <= k**, as blocks in the Loewner order for a
        # Coregional kernel: B = I + W W^T >= I, so 0 <= |L_B^-1 a|^2 <= |a|^2
        kernel, X, mu, noise, Xq = _sparse_cases()[case]
        model = gp.gp_fit(kernel, X, mu, noise, inducing=X[::3])
        _, var = gp.gp_predict(model, Xq)
        residual = _dtc_reference(kernel, X, mu, noise, X[::3], Xq, model.jitter)[2]
        prior = kernel.pairs(Xq[:, None], Xq[:, None])
        for gap in (prior - var, var - residual):
            low = np.linalg.eigvalsh(gap) if gap.ndim == 3 else gap
            assert np.min(low) >= -1e-12

    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_order_of_the_inducing_inputs_does_not_matter(self, case):
        # measured at most 2.1e-15 apart
        kernel, X, mu, noise, Xq = _sparse_cases()[case]
        Z = X[::3]
        perm = np.random.default_rng(0).permutation(Z.shape[0])
        ordered = gp.gp_predict(gp.gp_fit(kernel, X, mu, noise, inducing=Z), Xq)
        shuffled = gp.gp_predict(gp.gp_fit(kernel, X, mu, noise, inducing=Z[perm]), Xq)
        for a, b in zip(shuffled, ordered):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=2e-14)

    @pytest.mark.parametrize("case", _SPARSE_CASES)
    def test_repeated_inducing_inputs_give_the_distinct_ones_result(self, case):
        # a repeated row makes K_uu singular; its span, and so Q_ff, is that
        # of the distinct rows. Measured at most 1.9e-10 apart (the jitter of
        # 1e-10 that three of the four cases take), the bound allows ten
        # times that
        kernel, X, mu, noise, Xq = _sparse_cases()[case]
        Z = X[::3]
        distinct = gp.gp_predict(gp.gp_fit(kernel, X, mu, noise, inducing=Z), Xq)
        model = gp.gp_fit(kernel, X, mu, noise, inducing=np.concatenate([Z, Z[:2]]))
        assert model.jitter <= 1e-10
        for a, b in zip(gp.gp_predict(model, Xq), distinct):
            np.testing.assert_allclose(a, b, rtol=0.0, atol=2e-9)

    def test_far_query_reverts_to_the_prior(self):
        kernel, X, mu, noise, _ = _sparse_cases()["coregional"]
        model = gp.gp_fit(kernel, X, mu, noise, inducing=X[::3])
        Xq = np.array([100.0, -100.0])
        mean, cov = gp.gp_predict(model, Xq)
        assert np.array_equal(mean, np.zeros(6))
        np.testing.assert_array_equal(cov, kernel.pairs(Xq[:, None], Xq[:, None]))

    def test_more_noise_widens_the_posterior(self):
        # B = I + V noise^-1 V^T shrinks as the noise grows, and
        # var = k** - |a|^2 + |L_B^-1 a|^2 grows with B^-1
        kernel, X, mu, noise, Xq = _sparse_cases()["variances"]
        _, v1 = gp.gp_predict(gp.gp_fit(kernel, X, mu, noise, inducing=X[::3]), Xq)
        _, v2 = gp.gp_predict(gp.gp_fit(kernel, X, mu, 2.0 * noise, inducing=X[::3]), Xq)
        assert np.all(v2 >= v1 - 1e-12) and np.any(v2 > v1)

    def test_refit_is_bit_identical(self):
        kernel, X, mu, noise, Xq = _sparse_cases()["coregional"]
        a = gp.gp_fit(kernel, X, mu, noise, inducing=X[::3])
        b = gp.gp_fit(kernel, X, mu, noise, inducing=X[::3])
        assert all(np.array_equal(a._state[key], b._state[key]) for key in a._state)
        for x, y in zip(gp.gp_predict(a, Xq), gp.gp_predict(b, Xq)):
            assert np.array_equal(x, y)


def _pivot_case(family, n, seed):
    """(kernel, X, mu, noise, Xq): the default kernel on the LM step's
    pseudo-observations of gen_binary (beta, d = 2) or gen_counts (gamma,
    d = 1) data; the queries are the inputs, then one point inside a gap
    of the inputs (between the two blobs, or the midpoint of the widest
    gap of the sorted grid) and one outside their hull."""
    make = pipeline.gen_binary if family == "beta" else pipeline.gen_counts
    X, y = make(n, seed=seed)
    data = pipeline.Dataset(X, y.astype(float))
    X, mu, noise, _ = pipeline.pseudo_observations(data, pipeline.LMGPConfig(family))
    lo, hi = X.min(axis=0), X.max(axis=0)
    if X.shape[1] == 1:
        xs = np.sort(X[:, 0])
        i = int(np.argmax(np.diff(xs)))
        gap = np.array([[0.5 * (xs[i] + xs[i + 1])]])
    else:
        gap = np.zeros((1, X.shape[1]))
    Xq = np.vstack([X, gap, hi + 0.3 * (hi - lo)])
    return gp.RBF(gp.median_lengthscale(X)), X, mu, noise, Xq


def _dense_model(kernel, X, mu, noise):
    """The factor of K + noise through the jitter ladder, from the n x n
    matrices: the dense fit as gp_fit made it before the pivoted one."""
    noise = np.asarray(noise, dtype=float)
    S = block_diag(*noise) if noise.ndim == 3 else np.diag(np.broadcast_to(noise, mu.shape))
    return gp.chol_with_jitter(kernel(X, X) + S)


class TestPivoted:
    # relative gaps of the pivoted fit to np.linalg.solve on K + noise, over
    # seeds 0-4 at n = 500 and 1000 (tau = 1e-13): at the inputs at most
    # 2.3e-13 in the mean (of its largest entry) and 4.6e-12 in a variance;
    # at the gap point 4.1e-14 and 2.4e-12; outside the hull, where the
    # pivots span k(., x*) least (its Nystrom residual is 1e-3 to 1e-2),
    # 1.3e-8 and 2.4e-8. Bounds ten times those
    _BOUNDS = (2.3e-12, 4.6e-11, 4.1e-13, 2.4e-11, 1.3e-7, 2.4e-7)

    @pytest.mark.parametrize("n", [gp._PIVOT_SITES, 1000])
    @pytest.mark.parametrize("family", ["beta", "gamma"])
    def test_pivoted_fit_matches_a_dense_solve(self, family, n):
        for seed in range(2):
            kernel, X, mu, noise, Xq = _pivot_case(family, n, seed)
            model = gp.gp_fit(kernel, X, mu, noise)
            assert model.rank is not None and model.rank <= n // gp._PIVOT_SHARE
            mean, var = gp.gp_predict(model, Xq)
            A = kernel(X, X) + np.diag(noise)
            ks = kernel(Xq, X)
            ref_mean = ks @ np.linalg.solve(A, mu)
            ref_var = kernel.pairs(Xq, Xq) - np.sum(ks * np.linalg.solve(A, ks.T).T, axis=1)
            em = np.abs(mean - ref_mean) / np.max(np.abs(ref_mean))
            ev = np.abs(var - ref_var) / ref_var
            gaps = (em[:-2].max(), ev[:-2].max(), em[-2], ev[-2], em[-1], ev[-1])
            assert all(g <= b for g, b in zip(gaps, self._BOUNDS)), gaps

    def test_pivots_are_the_inducing_inputs_of_the_sparse_fit(self):
        kernel, X, mu, noise, Xq = _pivot_case("gamma", 500, 0)
        model = gp.gp_fit(kernel, X, mu, noise)
        pivots, residual, _ = gp._pivots(kernel, X)
        assert np.array_equal(model.inducing, X[pivots]) and model.rank == len(pivots)
        sparse = gp.gp_fit(kernel, X, mu, noise, inducing=X[pivots])
        for a, b in zip(gp.gp_predict(model, Xq), gp.gp_predict(sparse, Xq)):
            assert np.array_equal(a, b)
        # the pivoted Cholesky stops at the first residual within tau max k
        assert residual <= gp._PIVOT_TOL * np.max(kernel.pairs(X, X))
        G = np.linalg.solve(np.linalg.cholesky(kernel(X[pivots], X[pivots])), kernel(X[pivots], X))
        assert residual == pytest.approx(np.max(kernel.pairs(X, X) - np.sum(G * G, axis=0)), abs=1e-14)

    @pytest.mark.parametrize(
        "case", ["few_sites", "short_lengthscale", "zero_variance", "tiny_noise", "far_inputs", "softmax_blocks"]
    )
    def test_fallbacks_are_the_dense_fit_bit_for_bit(self, case):
        kernel, X, mu, noise, _ = _pivot_case("gamma", 600, 0)
        attempted = True
        if case == "few_sites":  # below the floor N0: no pivoting
            kernel, X, mu, noise, _ = _pivot_case("gamma", gp._PIVOT_SITES - 1, 0)
            attempted = False
        elif case == "short_lengthscale":  # the rank passes the cap
            kernel = gp.RBF(0.002)
        elif case == "zero_variance":  # the noise factor would need jitter
            noise = noise.copy()
            noise[7] = 0.0
            attempted = False
        elif case == "tiny_noise":  # the Nystrom residual is not small against the noise
            noise = noise * 1e-12
        elif case == "far_inputs":  # K_uu from a2 + b2 - 2 a.b far from the origin needs jitter
            X = X + 100.0
        else:  # Dirichlet K = 4 on 400 sites: every block is singular along ones
            rows, _ = pipeline.gen_categorical(800, classes=4, seed=0)
            Y = np.array([r[3] for r in rows], dtype=float).reshape(800, 4)[0::2]
            data = pipeline.Dataset(np.arange(0.0, 800.0, 2.0), Y)
            config = pipeline.LMGPConfig("dirichlet")
            X, mu, noise, _ = pipeline.pseudo_observations(data, config)
            kernel = pipeline._build_kernel(config, X, 4)
            attempted = False
        model = gp.gp_fit(kernel, X, mu, noise)
        L, jitter = _dense_model(kernel, X, mu, noise)
        assert model.inducing is None and model.rank is None
        assert np.array_equal(model._state["L"], L) and model.jitter == jitter
        assert (model.pivot_residual is not None) == attempted
        assert (case == "softmax_blocks") == (jitter > 0.0)
        # so its predictions are those of the dense model made from that factor
        Xq = np.linspace(-1.0, 5.0, 7)
        dense = gp.GPModel(kernel, gp._as_inputs(X), mu, noise, jitter, {"L": L})
        for a, b in zip(gp.gp_predict(model, Xq), gp.gp_predict(dense, Xq)):
            assert np.array_equal(a, b)
        # and for the reason the case names
        if attempted:
            pivots, residual, trace = gp._pivots(kernel, X)
            assert (pivots is None) == (case == "short_lengthscale")
            if pivots is not None:
                assert (trace >= gp._PIVOT_NOISE * np.min(noise)) == (case == "tiny_noise")
            if case == "far_inputs":
                assert gp._sparse_fit(kernel, X, mu, noise, X[pivots]).jitter > 0.0
        if case == "short_lengthscale":
            assert model.pivot_residual > gp._PIVOT_TOL

    def test_the_pivot_buffer_grows_with_the_rank(self, monkeypatch):
        # never (cap, n) up front: the rows in use, doubled as they fill
        shapes = []
        concatenate = np.concatenate

        def spy(arrays, *args, **kwargs):
            out = concatenate(arrays, *args, **kwargs)
            shapes.append(out.shape)
            return out

        kernel, X, *_ = _pivot_case("beta", 1000, 0)
        monkeypatch.setattr(np, "concatenate", spy)
        pivots, _, _ = gp._pivots(kernel, X)
        rows = [s[0] for s in shapes if s[1:] == (1000,)]
        assert rows == [32, 64, 128][: len(rows)] and rows[-1] >= len(pivots) > rows[-1] // 2

    def test_diagnostics_say_which_fit_ran(self):
        kernel, X, mu, noise, Xq = _pivot_case("gamma", 500, 1)
        model = gp.gp_fit(kernel, X, mu, noise)
        diag = model.diagnostics()
        assert diag["rank"] == model.rank == model.inducing.shape[0]
        assert diag["inducing"] is None and diag["noise_jitter"] == 0.0 and diag["jitter"] == 0.0
        assert diag["pivot_residual"] == model.pivot_residual <= gp._PIVOT_TOL
        assert repr(model) == f"GPModel(n=500, r={model.rank}, jitter=0)"
        # the largest Nystrom residual k** - a^T a at the queries: largest
        # outside the hull
        mean, var, residual = gp._posterior(model, Xq)
        A = np.linalg.solve(model._state["L"], kernel(model.inducing, Xq))
        nystrom = kernel.pairs(Xq, Xq) - np.sum(A * A, axis=0)
        assert residual == pytest.approx(np.max(nystrom), rel=0, abs=1e-10)
        assert np.argmax(nystrom) == Xq.shape[0] - 1
        assert gp._posterior(model, Xq[:0])[2] is None
        dense = gp.gp_fit(kernel, X[:50], mu[:50], noise[:50])
        assert gp._posterior(dense, Xq)[2] is None
        assert dense.diagnostics()["rank"] is None and dense.diagnostics()["pivot_residual"] is None
        user = gp.gp_fit(kernel, X, mu, noise, inducing=X[:20])
        assert user.diagnostics()["inducing"] == 20 and user.diagnostics()["rank"] is None
        assert user.diagnostics()["pivot_residual"] is None

    def test_coregional_pivots_on_its_input_kernel(self):
        # inverse-Wishart-like positive definite site blocks on 400 sites
        kernel, X, mu, noise, Xq = _pivot_case("gamma", gp._PIVOT_SITES, 0)
        rng = np.random.default_rng(3)
        G = rng.standard_normal((X.shape[0], 3, 3))
        blocks = G @ np.swapaxes(G, 1, 2) * 0.1 + 0.1 * np.eye(3)
        coregional = gp.Coregional(kernel, np.eye(3) + 0.5)
        mu3 = np.repeat(mu, 3)
        model = gp.gp_fit(coregional, X, mu3, blocks)
        assert model.rank == len(gp._pivots(kernel, X)[0])
        # measured at most 9e-13 from the dense fit at the inputs and the gap
        # point, and 9.2e-8 outside the hull; bounds ten times those
        dense = gp._dense_fit(coregional, X, mu3, blocks)
        for Xs, bound in ((Xq[:-1], 9.2e-12), (Xq[-1:], 9.2e-7)):
            for a, b in zip(gp.gp_predict(model, Xs), gp.gp_predict(dense, Xs)):
                np.testing.assert_allclose(a, b, rtol=0, atol=bound)


class TestQueries:
    def _models(self):
        rng = np.random.default_rng(0)
        return (
            gp.gp_fit(gp.RBF(1.0), rng.uniform(size=(10, 2)), rng.normal(size=10), 0.1),
            gp.gp_fit(gp.RBF(1.0), rng.uniform(size=10), rng.normal(size=10), 0.1),
            gp.gp_fit(gp.RBF(1.0), rng.uniform(size=10), rng.normal(size=10), 0.1, inducing=[0.5]),
        )

    def test_query_columns_must_be_the_models(self):
        # a d = 2 model took (m, 1) queries through the d = 1 distance
        # branch, in effect padding them with zeros
        two, one, sparse = self._models()
        for model, Xq in ((two, np.zeros((3, 1))), (one, np.zeros((3, 3))), (sparse, np.zeros((3, 2)))):
            with pytest.raises(DimensionMismatch):
                gp.gp_predict(model, Xq)
        # the prior has no inputs to match
        prior = gp.gp_fit(gp.RBF(1.0), [], [], [])
        assert gp.gp_predict(prior, np.zeros((2, 3)))[0].shape == (2,)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_queries_raise(self, bad):
        for model in (*self._models(), gp.gp_fit(gp.RBF(1.0), [], [], [])):
            Xq = np.zeros((3, model.X.shape[1]))
            Xq[1, 0] = bad
            with pytest.raises(InvalidParams):
                gp.gp_predict(model, Xq)
