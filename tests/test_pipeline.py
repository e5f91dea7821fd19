"""End-to-end latent-GP pipelines and the reporting metrics."""

import json
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from laplace_match import bridges, distributions, gp, matrixops, pipeline, transforms
from laplace_match.errors import (
    DimensionMismatch,
    EmptyDataset,
    IncompatibleBasis,
    InvalidParams,
    LaplaceMatchError,
    NegativeRate,
    OutOfSupport,
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


def _gen_categorical_reference(timesteps, groups=1, classes=4, total=50, seed=0):
    """pipeline.gen_categorical as it was before the stacked logits: one
    logit vector and one multinomial call per (t, c)."""
    pipeline._check_size("timesteps", timesteps)
    pipeline._check_size("groups", groups)
    pipeline._check_size("classes", classes, 2)
    pipeline._check_size("total", total)
    rng = np.random.default_rng(seed)
    amp = rng.uniform(0.5, 1.5, size=classes)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=classes)
    offset = rng.uniform(-0.5, 0.5, size=(groups, classes))
    rows = []
    for t in range(timesteps):
        for c in range(groups):
            logits = amp * np.sin(2.0 * np.pi * t / timesteps + phase) + offset[c]
            probs = np.exp(logits - np.max(logits))
            probs /= probs.sum()
            counts = rng.multinomial(total, probs)
            rows.extend(
                (float(t), c, cls, int(counts[cls])) for cls in range(classes)
            )
    return rows, list(range(classes))


def _gen_covariance_reference(timesteps, p=2, dof=8, seed=0):
    """pipeline.gen_covariance as it was before the stacked scales: one
    EFParams and one distributions.sample(count=1) call per step."""
    pipeline._check_size("timesteps", timesteps)
    pipeline._check_size("p", p, 1)
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((p, p))
    base = base @ base.T + p * np.eye(p)
    mats = []
    ts = np.arange(float(timesteps))
    for t in range(timesteps):
        theta = 0.5 * np.pi * t / max(timesteps - 1, 1)
        G = np.eye(p)
        if p >= 2:
            G[:2, :2] = [
                [np.cos(theta), -np.sin(theta)],
                [np.sin(theta), np.cos(theta)],
            ]
        scale = G @ base @ G.T / dof
        draw = distributions.sample(
            distributions.wishart(float(dof), scale), seed=int(rng.integers(2**31)),
            count=1,
        )[0]
        mats.append(draw)
    return ts, mats


def _outcome(fn, *args, **kwargs):
    """fn's return value, or the type and message of what it raised."""
    try:
        return fn(*args, **kwargs)
    except LaplaceMatchError as exc:
        return type(exc), str(exc)


def _sorted_quantile_reference(s, q):
    """pipeline._sorted_quantile as it was before the blocked summary."""
    n = s.shape[0]
    virtual = (n - 1) * q
    if virtual >= n - 1:
        lo = hi = n - 1
        t = virtual + 1.0  # numpy's weight against its floor index of -1
    else:
        lo = int(np.floor(virtual))
        hi = lo + 1
        t = virtual - lo
    a, b = s[lo], s[hi]
    diff = b - a
    out = b - diff * (1.0 - t) if t >= 0.5 else a + diff * t
    nan = np.isnan(s[-1])
    if np.any(nan):
        out = np.where(nan, s[-1], out)
    return out


def _summarize_reference(draws_data):
    """pipeline._summarize as it was before the blocked summary: one scratch
    buffer of the draws' size, sorted along axis 0."""
    count = draws_data.shape[0]
    mean = np.sum(draws_data, axis=0)
    mean /= count
    scratch = np.subtract(draws_data, mean)
    np.square(scratch, out=scratch)
    std = np.sum(scratch, axis=0)
    std /= count
    summary = {"mean": mean, "std": np.sqrt(std)}
    np.copyto(scratch, draws_data)
    scratch.sort(axis=0)
    for q in pipeline.QUANTILES:
        summary[f"q{int(round(q * 100)):02d}"] = _sorted_quantile_reference(scratch, q)
    return summary


def _sample_marginals_reference(mean, cov, seed, count):
    """pipeline._sample_marginals as it was before the point blocks: the
    width > 1 product into a second array of the draws' size."""
    z = np.random.default_rng(seed).standard_normal((count,) + mean.shape)
    if mean.ndim == 1:
        z *= np.sqrt(cov)
    else:  # per point, its (count, w) draws times R^T, written in C order
        draws = np.empty_like(z)
        root_t = np.swapaxes(gp._psd_root(cov), -1, -2)
        np.matmul(z.transpose(1, 0, 2), root_t, out=draws.transpose(1, 0, 2))
        z = draws
    z += mean
    return z


def _expm_chunk_reference(Z, out):
    """transforms._expm_chunk as it would be without writing into Z: the
    same Cayley-Hamilton arithmetic, the p x p exponentials into out."""
    n, p, _ = out.shape
    rows, cols, table = matrixops._vech_index(p)
    diag = np.diagonal(table).tolist()
    terms = table.tolist()
    weights = np.where(rows == cols, 1.0, 2.0)
    B = Z.T.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # entries near max float fail the bound
        c = np.sum(B[diag], axis=0) / p
        B[diag] -= c
        norm = np.sqrt(np.dot(weights, B * B))
    if not np.all(np.maximum(c, 0.0) + np.sqrt((p - 1) / p) * norm <= transforms._LOG_MAX):
        raise OutOfSupport("matrix exp out of float range: an eigenvalue may exceed log(max)")
    s = np.maximum(np.frexp(norm)[1], 0)
    powers = [np.ldexp(B, -s, out=B)]
    for _ in range(p - 2):
        powers.append(transforms._vech_matmul(powers[-1], B, np.empty_like(B), terms))
    sums = [0.0, 0.0] + [sum(P[diag]) for P in powers[1:]]
    sums.append(sum(powers[-1] * B * weights[:, None]))
    f = [-1.0, 0.0]
    for k in range(2, p + 1):
        f.append((sums[k] - sum(f[k - i] * sums[i] for i in range(2, k - 1))) / k)
    a, work = [np.full(n, t) for t in transforms._TAYLOR[-p:]], np.empty(n)
    for t in transforms._TAYLOR[-p - 1 :: -1]:
        top = a.pop()
        for k in range(1, p - 1):
            a[k - 1] += np.multiply(top, f[p - k], out=work)
        top *= f[p]
        top += t
        a.insert(0, top)
    for P, coef in zip(powers, a[1:]):
        P *= coef
    for P in powers[1 : len(a) - 1]:
        B += P
    B[diag] += a[0]
    for k in range(1, s.max(initial=0) + 1):
        need = np.flatnonzero(s >= k)
        root = B[:, need]
        B[:, need] = transforms._vech_matmul(root, root, np.empty_like(root), terms)
    half = np.exp(0.5 * c)
    B *= half
    B *= half
    out[...] = B.T[:, table]


def _expm_vech_reference(Z, p):
    """transforms._expm_vech as it would be without writing into Z: a new
    (..., p, p) stack."""
    flat = np.asarray(Z, dtype=float).reshape(-1, p * (p + 1) // 2)
    out = np.empty((flat.shape[0], p, p))
    for lo in range(0, flat.shape[0], transforms._EXPM_CHUNK):
        _expm_chunk_reference(
            flat[lo : lo + transforms._EXPM_CHUNK], out[lo : lo + transforms._EXPM_CHUNK]
        )
    return out.reshape(np.shape(Z)[:-1] + (p, p))


def _matrix_sqrt_reference(latent, p):
    """The matrix-sqrt back-transform of the pipeline as it was before
    matrixops.unvech_stack: unvech by indexing with the vech table, whose
    p x p axes come first in memory, then sym(S @ S), with sym the
    out-of-place 0.5 * (X + X^T) it was then."""
    def sym(X):
        return 0.5 * (X + np.swapaxes(X, -1, -2))

    S = sym(np.asarray(latent, dtype=float)[..., matrixops._vech_index(p)[2]])
    return sym(S @ S)


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


class TestGenerators:
    @pytest.mark.parametrize("timesteps", [0, 1, 2, 7, 160])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    @pytest.mark.parametrize("dof", [8, 4.5])
    def test_gen_covariance_is_the_step_by_step_draw(self, timesteps, p, dof):
        for seed in (0, 1, 91):
            ts, mats = pipeline.gen_covariance(timesteps, p=p, dof=dof, seed=seed)
            want_ts, want = _gen_covariance_reference(timesteps, p=p, dof=dof, seed=seed)
            assert ts.tobytes() == want_ts.tobytes() and len(mats) == len(want)
            for a, b in zip(mats, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize(
        "p, dof",
        # dof: not positive, not a number, at most p - 1, a scale that
        # overflows, one that underflows past the conditioning bound, and
        # the largest finite dof, which passes
        [(1, 0.0), (2, np.nan), (3, 2.0), (1, 1e-310), (2, 3e-308), (3, 1.7e308)],
    )
    def test_gen_covariance_raises_what_the_step_by_step_checks_raise(self, p, dof):
        with np.errstate(all="ignore"):
            got = _outcome(pipeline.gen_covariance, 5, p=p, dof=dof, seed=1)
            want = _outcome(_gen_covariance_reference, 5, p=p, dof=dof, seed=1)
        if isinstance(want[0], type):
            assert got == want
        else:
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got[1], want[1]))

    @pytest.mark.parametrize("timesteps", [0, 1, 2, 7, 160])
    @pytest.mark.parametrize("groups", [0, 1, 3])
    @pytest.mark.parametrize("classes", [2, 4, 9])
    def test_gen_categorical_is_the_row_by_row_draw(self, timesteps, groups, classes):
        for seed, total in ((0, 50), (1, 0), (91, 1000)):
            got = pipeline.gen_categorical(timesteps, groups, classes, total, seed)
            want = _gen_categorical_reference(timesteps, groups, classes, total, seed)
            assert got == want
            assert [tuple(map(type, row)) for row in got[0]] == [
                tuple(map(type, row)) for row in want[0]
            ]


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

    def test_basis_of_another_family_is_incompatible_not_a_size_mismatch(self):
        data = _categorical_data(t=5, K=3)
        for basis in ("matrix_log", transforms.BasisTransform("matrix_log", p=3), "log"):
            cfg = pipeline.LMGPConfig("dirichlet", basis=basis, draws=10)
            with pytest.raises(IncompatibleBasis):
                pipeline.lmgp_v1(data, cfg)

    @pytest.mark.parametrize(
        "family, data",
        [
            ("beta", _binary_data(n=8)),
            ("dirichlet", _categorical_data(t=5, K=3)),
            ("inverse_wishart", _covariance_data(t=4, p=2)),
        ],
    )
    def test_basis_with_no_bridge_row_is_incompatible_not_a_size_mismatch(self, family, data):
        # identity is a basis of every family but has no bridge row; it used
        # to read as a size mismatch for the multi-latent families
        cfg = pipeline.LMGPConfig(family, basis="identity", draws=10)
        with pytest.raises(IncompatibleBasis, match="no bridge row"):
            pipeline.lmgp_v1(data, cfg)
        with pytest.raises(IncompatibleBasis, match="no bridge row"):
            cfg.resolve_basis(data.Y)

    def test_a_real_size_mismatch_still_reads_as_one(self):
        basis = transforms.BasisTransform("softmax_inverse", K=3)
        cfg = pipeline.LMGPConfig("dirichlet", basis=basis, draws=10)
        with pytest.raises(DimensionMismatch):
            pipeline.lmgp_v1(_categorical_data(t=5, K=4), cfg)

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

    @pytest.mark.parametrize(
        "family, basis",
        [
            ("beta", transforms.BasisTransform("log")),
            ("beta", transforms.BasisTransform("identity")),
            ("dirichlet", transforms.BasisTransform("matrix_log", p=2)),
        ],
        ids=["beta-log", "beta-identity", "dirichlet-matrix_log"],
    )
    def test_empty_v2_checks_an_explicit_basis(self, family, basis):
        # the explicit basis of an empty run went unchecked: beta with the
        # log basis returned "probabilities" above one, and the Dirichlet run
        # with a matrix basis died with a TypeError
        empty = pipeline.Dataset(np.zeros(0), np.zeros(0))
        cfg = pipeline.LMGPConfig(family, basis=basis, version="v2", draws=10)
        with pytest.raises(IncompatibleBasis):
            pipeline.lmgp_v2(empty, cfg, X_query=np.array([0.0, 2.0]))

    def test_empty_multi_latent_run_needs_a_sized_basis(self):
        empty = pipeline.Dataset(np.zeros(0), np.zeros(0))
        for basis in (None, "softmax_inverse"):
            cfg = pipeline.LMGPConfig("dirichlet", basis=basis, version="v2", draws=10)
            with pytest.raises(EmptyDataset):
                pipeline.lmgp_v2(empty, cfg, X_query=np.array([0.0, 2.0]))
        sized = transforms.BasisTransform("softmax_inverse", K=3)
        cfg = pipeline.LMGPConfig("dirichlet", basis=sized, version="v2", draws=10)
        _, pred = pipeline.lmgp_v2(empty, cfg, X_query=np.array([0.0, 2.0]))
        assert pred.basis == sized and pred.latent_mean.shape == (2, 3)

    def test_inducing_beyond_distinct_inputs_rejected(self):
        X = np.repeat(np.arange(5.0), 4)
        data = pipeline.Dataset(X, (X > 2.0).astype(float))
        with pytest.raises(InvalidParams):
            pipeline.lmgp_v1(data, pipeline.LMGPConfig("beta", inducing=6, draws=10))
        _, pred = pipeline.lmgp_v1(data, pipeline.LMGPConfig("beta", inducing=5, draws=10))
        assert np.all(np.isfinite(pred.latent_mean))

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_distinct_inputs_are_counted_by_value(self, d):
        # the count np.unique(X, axis=0) gives: -0.0 equals 0.0, and rows
        # equal in every column are one input wherever they stand
        rng = np.random.default_rng(d)
        X = rng.integers(-2, 3, size=(40, d)).astype(float)
        X[rng.random((40, d)) < 0.3] *= -1.0  # -0.0 next to 0.0
        distinct = np.unique(X, axis=0).shape[0]
        data = pipeline.Dataset(X, (X[:, 0] > 0.0).astype(float))
        message = f"inducing={distinct + 1} exceeds the {distinct} distinct training inputs"
        with pytest.raises(InvalidParams, match=message):
            pipeline.lmgp_v1(data, pipeline.LMGPConfig("beta", inducing=distinct + 1, draws=10))
        _, pred = pipeline.lmgp_v1(data, pipeline.LMGPConfig("beta", inducing=distinct, draws=10))
        assert pred.diagnostics["sites"] == distinct

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
        assert {"lm_seconds", "fit_seconds", "predict_seconds", "summary_seconds"} <= set(
            pred.timings
        )
        assert pred.to_record()["timings"]["summary_seconds"] >= 0.0

    def test_lmgp_v1_does_not_import_scipy_linalg(self):
        # numpy and scipy each bundle an OpenBLAS; loading scipy's next to
        # numpy's puts two BLAS thread pools in one process
        code = (
            "import sys; import numpy as np; from laplace_match import pipeline; "
            "X = np.linspace(0.0, 4.0, 30); "
            "pipeline.lmgp_v1(pipeline.Dataset(X, (X > 2.0).astype(float)), "
            "pipeline.LMGPConfig('beta', draws=20)); "
            "print('scipy.linalg' in sys.modules)"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        assert out.stdout.strip() == "False"

    def test_import_and_runs_leave_numpy_ma_and_concurrent_futures_unloaded(self):
        # numpy.ma came with np.unique(X, axis=0) on the first inducing run
        # (about 12 ms), concurrent.futures and logging with the package
        # import (about 7 ms); only a threaded distance_sweep loads the latter.
        # numpy before 2.0 imports numpy.ma itself, so each step is checked
        # against the modules loaded before it.
        code = (
            "import sys; "
            "loaded = lambda: [m for m in ('numpy.ma', 'concurrent.futures', 'logging') "
            "if m in sys.modules]; "
            "import numpy as np; print(loaded()); "
            "import laplace_match; from laplace_match import pipeline; print(loaded()); "
            "X = np.linspace(0.0, 4.0, 30); "
            "pipeline.lmgp_v1(pipeline.Dataset(X, np.round(X)), "
            "pipeline.LMGPConfig('gamma', inducing=5, draws=20)); "
            "Xd = np.column_stack([X, X[::-1]]); "
            "pipeline.lmgp_v1(pipeline.Dataset(Xd, (X > 2.0).astype(float)), "
            "pipeline.LMGPConfig('beta', inducing=5, draws=20)); "
            "rows, _ = pipeline.gen_categorical(8, classes=3, seed=0); "
            "Y = np.array([r[3] for r in rows], dtype=float).reshape(8, 3); "
            "pipeline.lmgp_v1(pipeline.Dataset(np.arange(8.0), Y), "
            "pipeline.LMGPConfig('dirichlet', draws=20)); "
            "print(loaded())"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
        )
        with_numpy, with_package, after_runs = out.stdout.split("\n")[:3]
        assert with_package == with_numpy  # the import adds none of them
        assert after_runs == with_package  # nor do the inducing and Dirichlet runs
        assert "concurrent.futures" not in after_runs
        if np.lib.NumpyVersion(np.__version__) >= "2.0.0":  # numpy.ma loads lazily
            assert after_runs == "[]"


class TestPredictFromModel:
    @pytest.mark.parametrize("family", ["beta", "dirichlet"])
    def test_equals_the_pipeline_run_without_a_refit(self, family, monkeypatch):
        data = _binary_data() if family == "beta" else _categorical_data(t=8)
        cfg = pipeline.LMGPConfig(family, seed=3, draws=50)
        Xq = np.linspace(-0.5, 7.5, 11)
        model, run = pipeline.lmgp_v1(data, cfg)
        _, reference = pipeline.lmgp_v1(data, cfg, X_query=Xq)
        fits = []
        monkeypatch.setattr(gp, "gp_fit", lambda *a, **k: fits.append(a))
        pred = pipeline.predict(model, run.basis, cfg, Xq)
        assert not fits
        assert _stripped_record(pred) == _stripped_record(reference)
        assert set(pred.timings) == {"predict_seconds", "summary_seconds"}

    def test_at_the_training_inputs(self):
        data = _count_data(n=8)
        cfg = pipeline.LMGPConfig("gamma", kernel=gp.RBF(1.0), draws=40)
        model, reference = pipeline.lmgp_v1(data, cfg)
        assert _stripped_record(
            pipeline.predict(model, reference.basis, cfg, data.X)
        ) == _stripped_record(reference)

    def test_a_basis_that_does_not_fit_raises(self):
        cfg = pipeline.LMGPConfig("dirichlet", draws=20)
        model, _ = pipeline.lmgp_v1(_categorical_data(t=4, K=3), cfg)
        for K in (2, 4):
            basis = transforms.BasisTransform("softmax_inverse", K=K)
            with pytest.raises(DimensionMismatch):
                pipeline.predict(model, basis, cfg, _QUERY)
        with pytest.raises(IncompatibleBasis):
            pipeline.predict(model, "softmax_inverse", cfg, _QUERY)
        with pytest.raises(IncompatibleBasis):
            pipeline.predict(model, transforms.BasisTransform("logit"), cfg, _QUERY)

    def test_a_basis_with_no_bridge_row_raises(self):
        # the identity basis gave "probabilities" outside [0, 1] with every
        # EF inversion failed
        cfg = pipeline.LMGPConfig("beta", draws=20)
        model, _ = pipeline.lmgp_v1(_binary_data(n=8), cfg)
        with pytest.raises(IncompatibleBasis, match="no bridge row"):
            pipeline.predict(model, transforms.BasisTransform("identity"), cfg, _QUERY)


class TestDiagnostics:
    def test_beta_run(self):
        data = _binary_data(n=12)
        model, pred = pipeline.lmgp_v1(data, pipeline.LMGPConfig("beta", draws=20))
        diag = pred.diagnostics
        assert diag == {
            **model.diagnostics(), "sites": 12, "width": 1, "ef_failures": 0,
            "kernel": model.kernel.to_record(), "lloyd_iterations": None,
            "lloyd_converged": None,
        }
        assert diag["kernel"] == {
            "kernel": "rbf", "lengthscale": gp.median_lengthscale(data.X), "variance": 1.0,
        }
        assert diag["jitter"] == 0.0 and diag["min_pivot"] > 0.0
        assert np.isfinite(diag["log_det"])
        assert pred.to_record()["diagnostics"] == diag
        assert json.loads(json.dumps(pred.to_record()["diagnostics"])) == diag

    def test_dirichlet_run_reports_its_jitter(self):
        # the softmax row's covariance annihilates the ones vector, so the
        # nK-row factor needs jitter
        data = _categorical_data(t=20, K=3)
        model, pred = pipeline.lmgp_v1(data, pipeline.LMGPConfig("dirichlet", draws=20))
        diag = pred.to_record()["diagnostics"]
        assert diag["jitter"] > 0.0 and diag["jitter"] == model.jitter
        assert diag["sites"] == 20 and diag["width"] == 3 and diag["ef_failures"] == 0
        assert 0.0 < diag["min_pivot"] == np.min(np.diag(model._state["L"]))
        # the product kernel's record: the median-heuristic input kernel and
        # the coordinate table, as plain JSON
        kernel = json.loads(json.dumps(diag["kernel"]))
        assert kernel == model.kernel.to_record()
        assert kernel["kernel"] == "coregional"
        assert kernel["input"] == {
            "kernel": "rbf", "lengthscale": gp.median_lengthscale(data.X), "variance": 1.0,
        }
        assert kernel["B"] == (np.eye(3) + 0.5).tolist()

    def test_inducing_sites_and_empty_prior(self):
        data = _binary_data(n=20)
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0), inducing=5, draws=20)
        model, pred = pipeline.lmgp_v1(data, cfg)
        assert pred.diagnostics["sites"] == 5
        iterations = gp.kmeanspp(data.X, 5, seed=cfg.seed)[2]
        assert pred.diagnostics["lloyd_iterations"] == iterations >= 2
        assert pred.diagnostics["lloyd_converged"] is True
        record = pred.to_record()["diagnostics"]
        assert record["lloyd_iterations"] == iterations and record["lloyd_converged"] is True
        # a prediction from the fitted model runs no clustering
        again = pipeline.predict(model, pred.basis, cfg, data.X)
        assert again.diagnostics["lloyd_iterations"] is None
        assert again.diagnostics["lloyd_converged"] is None
        empty = pipeline.Dataset(np.zeros(0), np.zeros(0))
        _, prior = pipeline.lmgp_v2(empty, cfg.replace(inducing=None))
        assert prior.diagnostics == {
            "jitter": 0.0, "min_pivot": None, "log_det": 0.0,
            "sites": 0, "width": 1, "ef_failures": 0,
            "kernel": {"kernel": "rbf", "lengthscale": 1.0, "variance": 1.0},
            "lloyd_iterations": None, "lloyd_converged": None,
        }

    def test_inducing_run_capped_before_convergence_says_so(self, monkeypatch):
        data = _binary_data(n=20)
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0), inducing=5, draws=20)
        kmeanspp = gp.kmeanspp
        monkeypatch.setattr(gp, "kmeanspp", lambda X, k, seed: kmeanspp(X, k, seed, max_iter=1))
        _, pred = pipeline.lmgp_v1(data, cfg)
        assert pred.diagnostics["lloyd_iterations"] == 1
        assert pred.diagnostics["lloyd_converged"] is False
        assert pred.to_record()["diagnostics"]["lloyd_converged"] is False

    def test_counts_failed_ef_inversions(self, monkeypatch):
        masked = bridges._inverse_masked

        def one_fails(*args):
            fields, ok = masked(*args)
            ok[0] = False
            return fields, ok

        monkeypatch.setattr(bridges, "_inverse_masked", one_fails)
        _, pred = pipeline.lmgp_v1(_count_data(n=6), pipeline.LMGPConfig("gamma", draws=20))
        assert pred.diagnostics["ef_failures"] == 1
        assert pred.ef_params[0] is None and None not in pred.ef_params[1:]


class TestSummaries:
    @pytest.mark.parametrize("count", [1, 2, 7, 1000])
    @pytest.mark.parametrize(
        "shape", [(), (5, 4), (3, 3, 3)], ids=["scalar", "dirichlet", "matrix"]
    )
    def test_quantiles_equal_np_quantile_bitwise(self, count, shape):
        rng = np.random.default_rng(count)
        draws = np.round(rng.gamma(2.0, size=(count,) + shape) * 4.0) / 4.0  # with ties
        summary = pipeline._summarize(draws)
        expected = np.quantile(draws, pipeline.QUANTILES, axis=0)
        for q, row in zip(pipeline.QUANTILES, expected):
            got = summary[f"q{int(round(q * 100)):02d}"]
            assert np.shape(got) == np.shape(row)
            assert np.array_equal(got, row)
        assert np.array_equal(summary["mean"], np.mean(draws, axis=0))
        assert np.array_equal(summary["std"], np.std(draws, axis=0))

    def test_nan_draws_propagate_like_np_quantile(self):
        draws = np.arange(12.0).reshape(6, 2)
        draws[2, 1] = np.nan
        summary = pipeline._summarize(draws)
        expected = np.quantile(draws, pipeline.QUANTILES, axis=0)
        for q, row in zip(pipeline.QUANTILES, expected):
            np.testing.assert_array_equal(summary[f"q{int(round(q * 100)):02d}"], row)


_BLOCK = pipeline._DRAWS_BLOCK


def _edges(step, *extra):
    """0, 1 and one below, at and above a block of `step`, and `extra`."""
    return sorted({0, 1, step - 1, step, step + 1, *extra} - {-1})


class TestDrawsTail:
    """The summary, the width > 1 sampler and the matrix exponential in
    blocks of `pipeline._DRAWS_BLOCK` floats, bit for bit against the
    versions that held a second array of the draws' size."""

    @staticmethod
    def _assert_summary_matches(draws):
        with np.errstate(invalid="ignore"):  # inf - inf in the quantile lerp
            expected = _summarize_reference(draws)
            got = pipeline._summarize(draws)
        assert got.keys() == expected.keys()
        for key, value in expected.items():
            assert _same_bits(got[key], value), key

    @pytest.mark.parametrize("count", [1, 2, 999, 1000, 1001])
    def test_summary_equals_the_scratch_buffer_summary(self, count):
        rng = np.random.default_rng(count)
        step = max(_BLOCK // count, 1)  # columns per sorted block
        for width in _edges(step, 2, 2 * step + 1):
            draws = np.round(rng.normal(size=(count, width)) * 8.0) / 4.0  # with ties
            if width >= 4:
                draws[count // 2, 0] = np.nan
                draws[0, 1] = np.inf
                draws[-1, 2] = -np.inf
                draws[[0, -1], 3] = [np.inf, -np.inf]
            self._assert_summary_matches(draws)
        # one row per block, the running sum in the buffer's other row
        if count <= 2:
            for width in (_BLOCK - 1, _BLOCK, _BLOCK + 1):
                self._assert_summary_matches(rng.normal(size=(count, width)))

    @pytest.mark.parametrize("count", [1, 2, 999, 1000])
    @pytest.mark.parametrize("shape", [(), (1,), (7,), (5, 4), (1, 4), (3, 3, 3)])
    def test_summary_of_any_layout_equals_the_scratch_buffer_summary(self, count, shape):
        draws = np.random.default_rng(count).gamma(2.0, size=(count,) + shape)
        layouts = [draws, np.asfortranarray(draws), draws[::-1]]
        if draws.ndim >= 2:  # the draw axis last in memory, and strided columns
            draw_axis_last = np.ascontiguousarray(np.moveaxis(draws, 0, -1))
            layouts += [np.moveaxis(draw_axis_last, -1, 0), draws[:, ::-1]]
        for x in layouts:
            self._assert_summary_matches(x)

    @pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("count", [1, 999, 1000, 1001])
    def test_sampler_equals_the_two_buffer_sampler(self, K, count):
        rng = np.random.default_rng(K)
        step = max(_BLOCK // (count * K), 1)  # points per block
        for m in _edges(step, 3 * step + 2):
            mean = rng.normal(size=(m, K))
            A = rng.normal(size=(m, K, K))
            cov = A @ np.swapaxes(A, 1, 2)
            got = pipeline._sample_marginals(mean, cov, 9, count)
            assert _same_bits(got, _sample_marginals_reference(mean, cov, 9, count))
            assert got.flags["C_CONTIGUOUS"]
        mean, var = rng.normal(size=7), rng.uniform(0.1, 2.0, 7)
        got = pipeline._sample_marginals(mean, var, 9, count)
        assert _same_bits(got, _sample_marginals_reference(mean, var, 9, count))

    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_expm_in_place_equals_the_p_by_p_stack(self, p):
        d = p * (p + 1) // 2
        Z = np.random.default_rng(p).normal(scale=1.5, size=(3, transforms._EXPM_CHUNK // 3 + 1, d))
        expected = _expm_vech_reference(Z, p)
        F = np.asfortranarray(Z)
        got = transforms._expm_vech(F, p)  # not C-ordered: a C-ordered copy
        assert got is not F and _same_bits(F, Z)
        assert _same_bits(matrixops.unvech(got, p), expected)
        assert transforms._expm_vech(Z, p) is Z
        assert _same_bits(matrixops.unvech(Z, p), expected)

    @pytest.mark.parametrize("basis", ["matrix_log", "matrix_sqrt"])
    @pytest.mark.parametrize("p", [1, 2, 3, 4])
    def test_matrix_prediction_equals_the_p_by_p_tail(self, basis, p):
        # 1001 draws at 9 points: two matrix-exponential chunks (matrix_log)
        ts, mats = pipeline.gen_covariance(6, p=p, seed=p)
        cfg = pipeline.LMGPConfig("inverse_wishart", basis=basis, seed=4, draws=1001)
        data = pipeline.Dataset(ts, np.array(mats))
        _, pred = pipeline.lmgp_v1(data, cfg, X_query=np.linspace(0.0, 5.0, 9))
        latent = _sample_marginals_reference(pred.latent_mean, pred.latent_cov, 4, 1001)
        if basis == "matrix_log":
            draws = _expm_vech_reference(latent, p)
        else:
            draws = _matrix_sqrt_reference(latent, p)
        assert _same_bits(pred.draws, draws)
        assert pred.draws.flags["C_CONTIGUOUS"] == draws.flags["C_CONTIGUOUS"]
        for key, value in _summarize_reference(draws).items():
            assert _same_bits(pred.summary[key], value), key

    @pytest.mark.parametrize("K", [2, 3, 8, 13, 130])
    def test_softmax_inverse_in_row_blocks_equals_the_axis_reductions(self, K):
        # the max and the class sum run a block of rows at a time through one
        # buffer: the floats of np.max and np.sum over the class axis, also
        # for a row count that is not a multiple of the block, and for K
        # above 8 and 128 (numpy's accumulators and pairwise halves)
        step = _BLOCK // K
        basis = transforms.BasisTransform("softmax_inverse", K=K)
        rng = np.random.default_rng(K)
        for rows in _edges(step, 2 * step + 3):
            x = rng.normal(scale=3.0, size=(rows, K))
            shifted = np.exp(x - np.max(x, axis=-1, keepdims=True))
            expected = shifted / np.sum(shifted, axis=-1, keepdims=True)
            got = transforms._inverse_in_place(x, basis)
            assert got is x and _same_bits(got, expected)
        # a layout that is not C-ordered: written into a C-ordered copy
        c = rng.normal(size=(7, 5, K))
        shifted = np.exp(c - np.max(c, axis=-1, keepdims=True))
        expected = shifted / np.sum(shifted, axis=-1, keepdims=True)
        x = np.asfortranarray(c)
        got = transforms._inverse_in_place(x, basis)
        assert got is not x and _same_bits(got, expected) and _same_bits(x, c)

    @pytest.mark.parametrize("K", [2, 4, 6])
    def test_softmax_prediction_equals_the_two_buffer_tail(self, K):
        # 13 points: not a multiple of the sampler's point block
        data = _categorical_data(t=6, K=K)
        cfg = pipeline.LMGPConfig("dirichlet", seed=4, draws=1000)
        _, pred = pipeline.lmgp_v1(data, cfg, X_query=np.linspace(0.0, 5.0, 13))
        latent = _sample_marginals_reference(pred.latent_mean, pred.latent_cov, 4, 1000)
        draws = pipeline._back_transform(latent, pred.basis, "dirichlet")
        assert _same_bits(pred.draws, draws)
        for key, value in _summarize_reference(draws).items():
            assert _same_bits(pred.summary[key], value), key



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
        assert plain.noise.shape == (data.n,)
        np.testing.assert_array_equal(sites.noise[b], plain.noise[a])


    def test_inducing_run_memory_at_ten_thousand_points(self):
        # traced peak 30.6 MiB on numpy 2.4, set by gp_predict at the 10^4
        # query points (k-means++ peaks at 15.8 MiB, median_lengthscale on
        # its subsample at 1.8 MiB); the bound, set when the median's
        # bracketed pair distances peaked at 37.3 MiB, allows 10% more than
        # that. Materialising the n x n distances (763 MiB) or draws x n
        # values would break it
        X, y = pipeline.gen_binary(10**4, seed=0)
        data = pipeline.Dataset(X, y.astype(float))
        cfg = pipeline.LMGPConfig("beta", inducing=100, draws=1)
        tracemalloc.start()
        try:
            _, pred = pipeline.lmgp_v1(data, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert pred.diagnostics["sites"] == 100
        assert peak < 41 * 2**20


_PIPELINE_FAMILIES = ["beta", "gamma", "dirichlet", "inverse_wishart"]


@st.composite
def _pipeline_data(draw, family, distinct=False):
    """A Dataset of `family` observations, n <= 8, on an integer input grid
    (with repeats unless `distinct`) scaled by 1e-8 ... 1e8: 0/1 labels,
    counts up to 1e6, K=3 count vectors, or p=2 scatters of rank 0 to 3
    scaled by 1e-4 ... 1e4."""
    n = draw(st.integers(1, 8))
    cells = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n, unique=distinct))
    X = draw(st.sampled_from([1e-8, 1e-3, 1.0, 1e3, 1e8])) * np.array(cells, dtype=float)
    counts = st.integers(0, 10**6)
    if family == "beta":
        Y = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
    elif family == "gamma":
        Y = draw(st.lists(counts, min_size=n, max_size=n))
    elif family == "dirichlet":
        Y = draw(st.lists(st.lists(counts, min_size=3, max_size=3), min_size=n, max_size=n))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        Y = []
        for _ in range(n):
            V = rng.normal(size=(draw(st.integers(0, 3)), 2))
            Y.append(draw(st.sampled_from([1e-4, 1e-2, 1.0, 1e2, 1e4])) * V.T @ V)
    return pipeline.Dataset(X, np.array(Y, dtype=float))


def _assert_in_support(family, pred):
    """Finite latent posterior and summaries, and draws in the support."""
    assert np.all(np.isfinite(pred.latent_mean)) and np.all(np.isfinite(pred.latent_cov))
    for value in pred.summary.values():
        assert np.all(np.isfinite(value))
    if family == "beta":
        assert np.all((pred.draws >= 0.0) & (pred.draws <= 1.0))
    elif family == "gamma":
        assert np.all(pred.draws > 0.0)
    elif family == "dirichlet":
        assert np.all(pred.draws >= 0.0)
        np.testing.assert_allclose(pred.draws.sum(axis=-1), 1.0, atol=1e-9)
    else:
        np.testing.assert_array_equal(pred.draws, np.swapaxes(pred.draws, -1, -2))
        assert np.all(np.linalg.eigvalsh(pred.draws) > 0.0)


class TestPipelineProperties:
    """Every pipeline, at extreme but finite scales: the output is finite and
    in support, or a LaplaceMatchError is raised."""

    @pytest.mark.parametrize("version", ["v1", "v2"])
    @pytest.mark.parametrize("family", _PIPELINE_FAMILIES)
    @settings(max_examples=15, deadline=None)
    @given(data=st.data(), eps=st.sampled_from([1e-300, 1e-8, 0.01, 3.0]))
    def test_output_in_support_or_library_error(self, family, version, data, eps):
        cfg = pipeline.LMGPConfig(family, epsilon_a=eps, seed=3, draws=20)
        observed = data.draw(_pipeline_data(family))
        try:
            if version == "v1":
                _, pred = pipeline.lmgp_v1(observed, cfg)
            else:
                prior, _ = pipeline.lmgp_v1(data.draw(_pipeline_data(family)), cfg)
                _, pred = pipeline.lmgp_v2(observed, cfg, prior=prior)
        except LaplaceMatchError:
            return
        _assert_in_support(family, pred)

    @pytest.mark.parametrize("k", ["1", "n"])
    @pytest.mark.parametrize("family", ["dirichlet", "inverse_wishart"])
    @settings(max_examples=15, deadline=None)
    @given(data=st.data())
    def test_multi_latent_inducing(self, family, k, data):
        observed = data.draw(_pipeline_data(family, distinct=True))
        cfg = pipeline.LMGPConfig(family, seed=3, draws=20)
        if k == "1":
            try:
                _, pred = pipeline.lmgp_v1(observed, cfg.replace(inducing=1))
            except LaplaceMatchError:
                return
            _assert_in_support(family, pred)
            return
        try:
            plain, _ = pipeline.lmgp_v1(observed, cfg)
        except LaplaceMatchError:
            return
        sites, _ = pipeline.lmgp_v1(observed, cfg.replace(inducing=observed.n))
        # each site has `width` consecutive latent rows; match the sites by input
        width = plain.kernel.width
        a = np.argsort(plain.X[:, 0], kind="stable")
        b = np.argsort(sites.X[:, 0], kind="stable")
        rows = lambda order: (order[:, None] * width + np.arange(width)).ravel()
        np.testing.assert_array_equal(sites.X[b], plain.X[a])
        np.testing.assert_array_equal(sites.mu[rows(b)], plain.mu[rows(a)])
        assert plain.noise.shape == (observed.n, width, width)
        np.testing.assert_array_equal(sites.noise[b], plain.noise[a])


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

    def test_draws_are_c_ordered_and_their_summary_does_not_depend_on_layout(self):
        data = _categorical_data(t=12, K=4)
        _, pred = pipeline.lmgp_v1(data, pipeline.LMGPConfig("dirichlet", seed=5, draws=500))
        assert pred.draws.flags["C_CONTIGUOUS"]
        # the same draws in C order and in (point, draw, class) memory order
        copies = (
            np.ascontiguousarray(pred.draws),
            np.ascontiguousarray(pred.draws.transpose(1, 0, 2)).transpose(1, 0, 2),
        )
        for draws in copies:
            summary = pipeline._summarize(draws)
            for key, value in pred.summary.items():
                np.testing.assert_array_equal(summary[key], value)


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

    @pytest.mark.parametrize("basis", ["matrix_log", "matrix_sqrt"])
    def test_p_equal_to_one_predicts_every_point(self, basis):
        # one latent function per input: the marginals were shaped (m,) and
        # reached the bridges as one point, so 6 training points gave draws
        # of one matrix and 9 query points raised DomainMismatch
        data = pipeline.Dataset(*pipeline.gen_covariance(6, p=1, seed=1))
        cfg = pipeline.LMGPConfig("inverse_wishart", basis=basis, draws=11)
        Xq = np.linspace(0.0, 5.0, 9)
        model, pred = pipeline.lmgp_v1(data, cfg)
        assert pred.draws.shape == (11, 6, 1, 1) and pred.latent_cov.shape == (6, 1, 1)
        assert isinstance(model.kernel, gp.Coregional) and model.kernel.width == 1
        _, pred = pipeline.lmgp_v1(data, cfg, X_query=Xq)
        assert pred.draws.shape == (11, 9, 1, 1) and pred.summary["q50"].shape == (9, 1, 1)
        assert pred.latent_mean.shape == (9, 1) and pred.latent_cov.shape == (9, 1, 1)
        assert pred.ef_ok.all() and np.all(pred.draws > 0.0)
        assert pred.diagnostics["width"] == 1 and pred.diagnostics["sites"] == 6
        # V2 with a fitted prior: the bridge inverse of its (6, 1) marginals
        _, refined = pipeline.lmgp_v2(data, cfg, X_query=Xq, prior=model)
        assert refined.draws.shape == (11, 9, 1, 1) and refined.ef_ok.all()
        assert not np.array_equal(refined.latent_mean, pred.latent_mean)
        again = pipeline.predict(model, pred.basis, cfg, Xq)
        assert _same_bits(again.draws, pred.draws)


class TestCoregionalPipeline:
    def test_every_multi_latent_family_fits_one_coregional_kernel(self):
        for family, data, w in (
            ("dirichlet", _categorical_data(t=5, K=3), 3),
            ("inverse_wishart", _covariance_data(t=4, p=2), 3),
            ("inverse_wishart", pipeline.Dataset(*pipeline.gen_covariance(4, p=1, seed=0)), 1),
        ):
            model, pred = pipeline.lmgp_v1(data, pipeline.LMGPConfig(family, draws=10))
            assert isinstance(model.kernel, gp.Coregional) and model.kernel.width == w
            assert np.array_equal(model.kernel.B, np.eye(w) + 0.5)
            assert np.array_equal(model.X, data.X) and model.mu.shape == (data.n * w,)
            assert model.noise.shape == (data.n, w, w) and pred.latent_mean.shape == (data.n, w)
        model, _ = pipeline.lmgp_v1(_binary_data(n=8), pipeline.LMGPConfig("beta", draws=10))
        assert isinstance(model.kernel, gp.RBF)

    def test_coordinate_kernel_gives_the_matrix(self):
        coords = gp.Sum(gp.LookupTable(np.eye(3)), gp.LookupTable(np.full((3, 3), 0.25)))
        cfg = pipeline.LMGPConfig("dirichlet", kernel=gp.RBF(1.2), coord_kernel=coords, draws=10)
        model, _ = pipeline.lmgp_v1(_categorical_data(t=5, K=3), cfg)
        assert np.array_equal(model.kernel.B, np.eye(3) + 0.25)
        assert model.kernel.kernel is cfg.kernel

    def test_kernels_that_address_missing_columns_raise(self):
        # the former joint rows carried the latent code in column d; the
        # sites have d columns, and a raw IndexError became DimensionMismatch
        cfg = pipeline.LMGPConfig("beta", kernel=gp.RBF(1.0, dims=(3,)))
        with pytest.raises(DimensionMismatch):
            pipeline.lmgp_v1(_binary_data(n=8), cfg)
        data = _categorical_data(t=5, K=3)
        for cfg in (
            pipeline.LMGPConfig("dirichlet", kernel=gp.RBF(1.0, dims=(1,))),
            pipeline.LMGPConfig("dirichlet", coord_kernel=gp.LookupTable(np.eye(3) + 0.5, dim=1)),
        ):
            with pytest.raises(DimensionMismatch):
                pipeline.lmgp_v1(data, cfg)

    def test_predict_checks_the_kernel_width(self):
        cfg = pipeline.LMGPConfig("inverse_wishart", draws=10)
        data = pipeline.Dataset(*pipeline.gen_covariance(4, p=1, seed=0))
        model, pred = pipeline.lmgp_v1(data, cfg)
        for p in (2, 3):
            with pytest.raises(DimensionMismatch):
                pipeline.predict(model, transforms.BasisTransform("matrix_log", p=p), cfg, _QUERY)
        # an empty-data prior has no rows to read a layout from, but its kernel has a width
        empty = pipeline.Dataset(np.zeros(0), np.zeros(0))
        softmax = lambda K: transforms.BasisTransform("softmax_inverse", K=K)
        sized = pipeline.LMGPConfig("dirichlet", basis=softmax(3), draws=10)
        prior, _ = pipeline.lmgp_v2(empty, sized, X_query=_QUERY)
        with pytest.raises(DimensionMismatch):
            pipeline.predict(prior, softmax(4), sized, _QUERY)

    def test_predict_checks_the_fitted_family(self):
        # a Dirichlet K = 3 model has width 3, as an inverse-Wishart p = 2
        # one does: the width alone let the Dirichlet latents through as
        # inverse-Wishart draws
        data = _categorical_data(t=20, K=3)
        model, _ = pipeline.lmgp_v1(data, pipeline.LMGPConfig("dirichlet", draws=10))
        assert model.family == "dirichlet"
        other = pipeline.LMGPConfig("inverse_wishart", draws=10)
        with pytest.raises(IncompatibleBasis):
            pipeline.predict(model, transforms.BasisTransform("matrix_log", p=2), other, _QUERY)
        same = pipeline.predict(
            model, transforms.BasisTransform("softmax_inverse", K=3),
            pipeline.LMGPConfig("dirichlet", draws=10), _QUERY,
        )
        assert same.draws.shape == (10, 3, 3)
        # a v2 run checks the family of its prior too; a model from gp_fit has none
        empty = pipeline.Dataset(np.zeros(0), np.zeros(0))
        sized = other.replace(basis=transforms.BasisTransform("matrix_log", p=2))
        with pytest.raises(IncompatibleBasis):
            pipeline.lmgp_v2(empty, sized, X_query=_QUERY, prior=model)
        assert gp.gp_fit(gp.RBF(1.0), [], [], []).family is None

    def test_empty_v2_prior_gives_prior_blocks(self):
        empty = pipeline.Dataset(np.zeros(0), np.zeros(0))
        basis = transforms.BasisTransform("softmax_inverse", K=3)
        cfg = pipeline.LMGPConfig(
            "dirichlet", basis=basis, kernel=gp.RBF(1.0, 2.0), version="v2", draws=10
        )
        model, pred = pipeline.lmgp_v2(empty, cfg, X_query=_QUERY)
        assert model.n == 0 and model.mu.shape == (0,)
        assert np.array_equal(pred.latent_mean, np.zeros((3, 3)))
        assert np.array_equal(pred.latent_cov, np.tile(2.0 * (np.eye(3) + 0.5), (3, 1, 1)))


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
            pipeline._back_transform(latent.copy(), pred.basis, family), pred.draws
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

    @staticmethod
    def _traced_peak(data, cfg, Xq):
        tracemalloc.start()
        try:
            _, pred = pipeline.lmgp_v1(data, cfg, X_query=Xq)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        return pred, peak

    def test_peak_allocation_of_a_scalar_prediction_at_1000_draws(self):
        # 1000 draws at 1000 query points are 8.0 MB. Back-transformed in
        # their own buffer and summarized in blocks, the run peaked at
        # 8.73 MB; with one scratch buffer for the summary at 16.1 MB, with
        # fresh arrays for each step at 24.1 MB. Bounded here with a 0.97 MB
        # margin, which a second array of the draws' size breaks. 50 training
        # points keep the kernel and the solve small.
        X, y = pipeline.gen_binary(50, seed=0)
        Xq = np.random.default_rng(1).normal(size=(1000, 2))
        cfg = pipeline.LMGPConfig("beta", draws=1000)
        pred, peak = self._traced_peak(pipeline.Dataset(X, y), cfg, Xq)
        assert pred.draws.shape == (1000, 1000)
        assert peak <= 9.7e6

    def test_peak_allocation_of_a_dirichlet_prediction_at_1000_draws(self):
        # 1000 draws at 401 points, K = 4, are 12.8 MB. The run peaked at
        # 13.75 MB with the softmax max and class sum in row blocks, 16.24 MB
        # with each in one (draws, points) array of 3.2 MB, and 25.98 MB with
        # the width > 1 product in a second array and the summary in a third;
        # bounded with a 1.36 MB margin, which such an array breaks. 20
        # training steps keep the GP layer small.
        rows, _ = pipeline.gen_categorical(20, classes=4, seed=0)
        Y = np.array([r[3] for r in rows], dtype=float).reshape(20, 4)
        cfg = pipeline.LMGPConfig("dirichlet", draws=1000)
        Xq = np.linspace(0.0, 19.0, 401)
        pred, peak = self._traced_peak(pipeline.Dataset(np.arange(20.0), Y), cfg, Xq)
        assert pred.draws.shape == (1000, 401, 4)
        assert peak <= 15.1e6

    def test_peak_allocation_of_the_softmax_tail_at_2000_points(self):
        # 1000 draws at 2000 points, K = 4, are 61.0 MiB. With the softmax
        # max and class sum each in one (draws, points) array of 15.3 MiB the
        # run peaked at 76.7 MiB; in row blocks at 63.2 MiB.
        rows, _ = pipeline.gen_categorical(20, classes=4, seed=0)
        Y = np.array([r[3] for r in rows], dtype=float).reshape(20, 4)
        cfg = pipeline.LMGPConfig("dirichlet", draws=1000)
        Xq = np.linspace(0.0, 19.0, 2000)
        pred, peak = self._traced_peak(pipeline.Dataset(np.arange(20.0), Y), cfg, Xq)
        assert pred.draws.nbytes == 61.03515625 * 2**20
        assert peak <= 65 * 2**20

    def test_peak_allocation_of_an_inverse_wishart_prediction_at_1000_draws(self):
        # 1000 draws at 201 points, p = 3: the 6 vech entries are 9.6 MB and
        # the 3 x 3 draws expanded from them 14.5 MB. The run peaked at
        # 24.59 MB, against 38.95 MB when the exponential wrote a new 3 x 3
        # stack and the summary read a scratch copy of it; bounded with a
        # 1.91 MB margin.
        ts, mats = pipeline.gen_covariance(20, p=3, seed=0)
        cfg = pipeline.LMGPConfig("inverse_wishart", draws=1000)
        Xq = np.linspace(0.0, 19.0, 201)
        pred, peak = self._traced_peak(pipeline.Dataset(ts, np.array(mats)), cfg, Xq)
        assert pred.draws.shape == (1000, 201, 3, 3)
        assert peak <= 26.5e6

    def test_peak_allocation_of_a_matrix_sqrt_prediction_at_1000_draws(self):
        # 1000 draws at 80 points, p = 3, are 5.49 MiB as 3 x 3 matrices.
        # The run peaked at 25.9 MiB when each symmetric part allocated
        # X + X^T and then 0.5 * (...) and the vech normals outlived their
        # expansion; at 16.7 MiB, three stacks of the draws' size (the
        # expanded normals, their symmetric part and its square), with them
        # scaled in place. Bounded with a 1.3 MiB margin, which a fourth
        # such stack breaks.
        ts, mats = pipeline.gen_covariance(20, p=3, seed=0)
        cfg = pipeline.LMGPConfig("inverse_wishart", basis="matrix_sqrt", draws=1000)
        Xq = np.linspace(0.0, 19.0, 80)
        pred, peak = self._traced_peak(pipeline.Dataset(ts, np.array(mats)), cfg, Xq)
        assert pred.draws.shape == (1000, 80, 3, 3)
        assert peak <= 18 * 2**20

    def test_draws_are_the_scaled_and_shifted_seeded_normals(self):
        rng = np.random.default_rng(4)
        mean, var = rng.normal(size=7), rng.uniform(0.1, 2.0, 7)
        A = rng.normal(size=(7, 3, 3))
        mean3, cov3 = rng.normal(size=(7, 3)), A @ np.swapaxes(A, 1, 2)
        z = np.random.default_rng(9).standard_normal((50, 7))
        out = pipeline._sample_marginals(mean, var, 9, 50)
        np.testing.assert_array_equal(out, mean + np.sqrt(var) * z)
        z = np.random.default_rng(9).standard_normal((50, 7, 3))
        root = gp._psd_root(cov3)
        out = pipeline._sample_marginals(mean3, cov3, 9, 50)
        # point i: its (50, 3) normals times root_i^T, one BLAS product each
        expected = np.stack([z[:, i] @ root[i].T for i in range(7)], axis=1) + mean3
        np.testing.assert_array_equal(out, expected)
        assert out.flags["C_CONTIGUOUS"]

    @pytest.mark.parametrize("family", ["beta", "dirichlet", "inverse_wishart"])
    def test_latent_cov_is_the_diagonal_of_the_joint_covariance(self, family, dense_posterior):
        _, model, pred = _predict_at_query(family, draws=10)
        m = _QUERY.size
        w = pred.latent_mean.size // m
        mean, cov = dense_posterior(model, _QUERY)
        np.testing.assert_allclose(pred.latent_mean.ravel(), mean, rtol=0, atol=1e-10)
        blocks = pred.latent_cov.reshape(m, w, w)
        for i in range(m):
            np.testing.assert_allclose(
                blocks[i], cov[i * w : (i + 1) * w, i * w : (i + 1) * w], rtol=0, atol=1e-10
            )

    def test_fitted_prior_marginals_are_the_joint_blocks(self, monkeypatch, dense_posterior):
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
        fields = pipeline._prior_fields(cfg, basis, data.X, prior_model)
        monkeypatch.undo()
        [(mean, blocks)] = pulled
        np.testing.assert_array_equal(
            fields["alpha"], inverse_arrays("dirichlet", basis.tag, mean, blocks)["alpha"]
        )
        full_mean, cov = dense_posterior(prior_model, data.X)
        np.testing.assert_allclose(mean.ravel(), full_mean, rtol=0, atol=1e-10)
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
        ("beta", transforms.BasisTransform("logit")),
        ("dirichlet", transforms.BasisTransform("softmax_inverse", K=3)),
    ])
    def test_zero_noise_training_point_returns_its_mean(self, family, basis):
        X = gp._as_inputs(np.array([0.0, 2.0]))
        width = pipeline._basis_width(basis, family)
        cfg = pipeline.LMGPConfig(family, draws=8)
        mu = np.random.default_rng(0).normal(size=X.shape[0] * width)
        model = gp.gp_fit(pipeline._build_kernel(cfg, X, width), X, mu, 0.0)
        pred = pipeline._predict(model, cfg, basis, width, X, {})
        np.testing.assert_allclose(pred.latent_mean.ravel(), mu, atol=1e-6)
        at_mean = pipeline._back_transform(pred.latent_mean[None].copy(), basis, family)
        assert np.max(np.abs(pred.draws - at_mean)) < 1e-6


def _reference_ef_params(family, tag, mean, cov):
    """The per-point EF inversion the pipeline ran before it inverted once
    with a mask: one `inverse_arrays` call and one validated EFParams per
    point, None where either raises."""
    out = []
    for i in range(mean.shape[0]):
        try:
            fields = bridges.inverse_arrays(family, tag, mean[i : i + 1], cov[i : i + 1])
            out.append(distributions.from_record(
                {"family": family, **{k: v[0] for k, v in fields.items()}}
            ))
        except (LaplaceMatchError, np.linalg.LinAlgError):
            out.append(None)
    return tuple(out)


def _lazy_ef_params(family, tag, mean, cov):
    """The masked inverse's mask, and the records a Prediction builds from it
    on first read."""
    fields, ok = bridges._inverse_masked(family, tag, mean, cov)
    pred = pipeline.Prediction(
        family, None, None, mean, cov, None, {}, fields, ok, {}, 0, {}
    )
    return ok, pred.ef_params


_CONJUGATE_ROWS = [
    (family, tag)
    for family in distributions.CONJUGATE_FAMILIES
    for tag in transforms.FAMILY_BASES[family][1:]
]
_POINT_KINDS = (
    "good", "nan_mean", "inf_var", "nan_cov", "zero_var", "negative_var",
    "negative_mean", "overflow", "ill_conditioned",
)


def _good_point(family, tag, rng):
    """The bridge image of one random parameter in the row's region (K = 3,
    p = 2): a mean (a one-entry vector for a scalar row) and a variance or
    covariance block."""
    if family == "dirichlet":
        fields = {"alpha": rng.uniform(0.2, 20.0, size=(1, 3))}
    elif family == "inverse_wishart":
        A = rng.normal(size=(2, 2))
        fields = {"nu": [rng.uniform(1.5, 20.0)], "Psi": (A @ A.T + 0.5 * np.eye(2))[None]}
    else:
        low = 0.6 if tag == "sqrt" else 0.05
        fields = {
            name: rng.uniform(low, 50.0, size=1) for name in distributions.param_fields(family)
        }
    mu, var = bridges.forward_arrays(family, tag, **fields)
    return np.array(mu[0], ndmin=1), np.array(var[0])


def _mixed_batch(family, tag, kinds, rng):
    """A batch of good points and bad ones: non-finite means, variances or
    covariance entries; non-positive variances; a sqrt-row mean off the
    positive branch (a matrix-sqrt mean that is not positive definite);
    +-800 means that overflow; and for the matrix rows a mean whose image
    scale EFParams rejects as ill-conditioned."""
    block = family in ("dirichlet", "inverse_wishart")
    means, covs = [], []
    for kind in kinds:
        mu, var = _good_point(family, tag, rng)
        if kind == "nan_mean":
            mu[0] = rng.choice([np.nan, np.inf, -np.inf])
        elif kind == "inf_var":
            if block:
                var[0, 0] = np.inf
            else:
                var = rng.choice([np.nan, np.inf])
        elif kind == "nan_cov" and block:
            var[0, 1] = var[1, 0] = np.nan
        elif kind in ("zero_var", "negative_var"):
            bad = 0.0 if kind == "zero_var" else -rng.uniform(0.1, 2.0)
            if block:
                var[0, 0] = bad
            else:
                var = bad
        elif kind == "negative_mean" and tag == "sqrt":
            mu[0] = -rng.uniform(0.0, 5.0)
        elif kind == "negative_mean" and tag == "matrix_sqrt":
            mu = np.array([1.0, 0.0, -rng.uniform(0.0, 2.0)])
        elif kind == "overflow":
            mu[0] = rng.choice([800.0, -800.0])
        elif kind == "ill_conditioned" and tag == "matrix_log":
            mu, var = np.array([30.0, 0.0, 0.0]), 0.5 * np.eye(3)
        elif kind == "ill_conditioned" and tag == "matrix_sqrt":
            mu, var = np.array([1e7, 0.0, 0.1]), np.eye(3)
        means.append(mu)
        covs.append(var)
    means = np.array(means, dtype=float)
    return means if block else means[:, 0], np.array(covs, dtype=float)


def _must_fail(kind, tag):
    """Whether `_mixed_batch` made a point of this kind bad for the row."""
    block = tag in ("softmax_inverse", "matrix_log", "matrix_sqrt")
    return (
        kind in ("nan_mean", "inf_var", "zero_var", "negative_var")
        or (kind == "nan_cov" and block)
        or (kind == "negative_mean" and tag in ("sqrt", "matrix_sqrt"))
        or (kind == "ill_conditioned" and tag in ("matrix_log", "matrix_sqrt"))
    )


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
        ok, ef = _lazy_ef_params("gamma", "log", mean, var)
        assert ok.tolist() == [True, False, False, True]
        assert ef[1] is None and ef[2] is None
        for i in (0, 3):
            expected = bridges.lm_inverse((mean[i], var[i]), "gamma", "log")
            assert ef[i].to_record() == expected.to_record()
        assert ef == _reference_ef_params("gamma", "log", mean, var)

    @pytest.mark.parametrize("family,tag", _CONJUGATE_ROWS)
    @settings(max_examples=60, deadline=None)
    @given(kinds=st.lists(st.sampled_from(_POINT_KINDS), min_size=1, max_size=6),
           seed=st.integers(0, 2**32 - 1))
    def test_mask_and_records_equal_the_per_point_loop(self, family, tag, kinds, seed):
        # a RuntimeWarning fails this test through the pytest configuration
        mean, cov = _mixed_batch(family, tag, kinds, np.random.default_rng(seed))
        ok, ef = _lazy_ef_params(family, tag, mean, cov)
        reference = _reference_ef_params(family, tag, mean, cov)
        assert ok.tolist() == [theta is not None for theta in reference]
        assert [None if t is None else t.to_record() for t in ef] == [
            None if t is None else t.to_record() for t in reference
        ]
        for kind, flag in zip(kinds, ok.tolist()):
            assert not (flag and _must_fail(kind, tag))

    def test_a_run_builds_no_records_until_they_are_read(self, monkeypatch):
        built = []
        init = distributions.EFParams.__init__

        def counted(self, *args, **kwargs):
            built.append(args[0] if args else kwargs["family"])
            init(self, *args, **kwargs)

        monkeypatch.setattr(distributions.EFParams, "__init__", counted)
        cfg = pipeline.LMGPConfig("gamma", draws=20)
        X_query = np.linspace(0.0, 4.0, 7)
        _, pred = pipeline.lmgp_v1(_count_data(n=6), cfg, X_query=X_query)
        assert built == ["gamma"]  # the pseudo-prior; no record per query point
        ef = pred.ef_params
        assert len(built) == 1 + len(ef) and len(ef) == 7
        assert pred.ef_params is ef
        assert pred.to_record()["ef_params"] == [theta.to_record() for theta in ef]
        assert len(built) == 8
        # to_record builds them when it is the first to read
        _, again = pipeline.lmgp_v1(_count_data(n=6), cfg, X_query=X_query)
        assert again.to_record()["ef_params"] == [theta.to_record() for theta in ef]
        assert len(built) == 16 and again.ef_params == ef

    def test_a_run_keeps_the_points_whose_inversion_fails_as_none(self):
        # far from the data the posterior is the prior, whose matrix-log
        # marginal maps below the inverse-Wishart dof bound
        cfg = pipeline.LMGPConfig("inverse_wishart", draws=10)
        _, pred = pipeline.lmgp_v1(_covariance_data(t=6), cfg, X_query=np.array([0.0, 1e3]))
        assert pred.ef_params[0] is not None and pred.ef_params[1] is None
        assert pred.ef_ok.tolist() == [True, False]
        assert pred.diagnostics["ef_failures"] == 1 == sum(p is None for p in pred.ef_params)


@pytest.mark.parametrize(
    "family, basis",
    [("dirichlet", None), ("inverse_wishart", "matrix_log"), ("inverse_wishart", "matrix_sqrt")],
)
@pytest.mark.parametrize("run", [pipeline.lmgp_v1, pipeline.lmgp_v2])
def test_multi_latent_prediction_at_zero_query_points(family, basis, run):
    # gp.gp_predict raised a raw ValueError for zero query points of width > 1
    data = _categorical_data() if family == "dirichlet" else _covariance_data()
    cfg = pipeline.LMGPConfig(family, basis=basis, draws=10)
    model, pred = run(data, cfg, X_query=np.zeros((0, 1)))
    w = pred.latent_mean.shape[1]
    assert pred.latent_mean.shape == (0, w) and pred.latent_cov.shape == (0, w, w)
    assert pred.draws.shape[:2] == (10, 0) and pred.summary["mean"].shape[0] == 0
    assert pred.ef_ok.shape == (0,) and pred.ef_params == ()
    assert pred.diagnostics["ef_failures"] == 0 and pred.to_record()["n_query"] == 0
    again = pipeline.predict(model, pred.basis, cfg, np.zeros((0, 1)))
    assert again.latent_cov.shape == (0, w, w)


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
