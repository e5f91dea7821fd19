"""Gaussian process regression on bridge-produced pseudo-observations.

The GP layer consumes heteroskedastic Gaussian observations (mu_i, sigma_i)
of latent function values. The noise comes in the shape the bridges make it:
a scalar, (n,) per-point variances, or an (n/w, w, w) stack of the w x w
blocks of w consecutive rows (one block per multi-latent site). gp_fit adds
it in place to the diagonal or to the diagonal blocks of the kernel matrix,
so no n x n noise matrix is ever formed, and the model keeps it in that
shape. Noise enters training only; predictions are for the noise-free latent
function. The prior mean is zero.

w latent functions on shared inputs take `Coregional(kernel, B)`, the
intrinsic coregionalization kernel kernel(x, z) B[i, j] (Bonilla, Chai &
Williams 2008): `kernel` is evaluated once on the n sites and expanded to
Kx (x) B by one broadcast product, with site-major rows (latent i of site a
at row a w + i). Its model keeps the sites as X and n w rows in mu.

The posterior follows Rasmussen & Williams (GPML, 2006), Algorithm 2.1, with
one dense factorisation per fit and one solve per prediction: gp_fit keeps
only the Cholesky factor L of K + noise, and gp_predict solves L against the
stacked right-hand sides [ks^T | mu] in one call, in place in their one
buffer, reading v = L^-1 ks^T and w = L^-1 mu from the result, so that
mean = v^T w and the variances are the prior variances minus the column sums
of v^2. Prior variances and blocks come from paired kernel evaluation
(`Kernel.pairs`), never from an m x m query kernel.

The triangular solve is a row-blocked forward substitution (`_lower_solve`),
the level-3 BLAS TRSM scheme (Dongarra, Du Croz, Hammarling & Duff 1990):
per block of _BLOCK rows, one GEMM subtracts the rows already solved. Inside
the block the same scheme runs again over leaves of at most _LEAF rows: one
small GEMM subtracts the rows of the block already solved, and the leaf is
multiplied by the inverse of its diagonal block. That is one triangular
sweep, about n^2 m flops and nearly all of them in GEMM, where a general
solve of L would LU-factor it again (2/3 n^3) and sweep twice. Multiplying
by the inverse of a small triangular block is as accurate as solving with it
(Du Croz & Higham 1992), but not of a large one: on a jittered Dirichlet
factor (smallest pivot 4.7e-5) the forward error was 6-8e-11 with 16-row
leaves, 3-4e-10 with 32, and 4e-8 to 1e-7 with 128, against 8e-11 to 1e-10
for the LU solve of L. Hence the 16-row leaf.
All of it runs on numpy's own OpenBLAS. scipy.linalg would bring a second
OpenBLAS with its own thread pool into the process, and on two cores the two
pools made n = 250 and 500 predictions 7-10% slower; calling numpy's bundled
BLAS through ctypes would depend on symbol names that differ between numpy
builds.

gp_predict returns per-point marginals: variances, or for a Coregional
kernel the w x w covariance block of each query point, without forming the
joint covariance. The pipelines' `Prediction.draws` are per-point posterior
draws with no cross-point correlation.

median_lengthscale is exact up to _MEDIAN_INPUTS (N0 = 512) inputs.
Above, it is the median of a fixed subsample of N0 rows, drawn with
default_rng(0) without replacement and taken in input order, so its time
and memory stop growing with n (the median heuristic at large samples:
Garreau, Jitkrittum & Kanagawa 2017), and the plain and the inducing run of
the same data share one lengthscale. On gen_binary and gen_counts inputs of
n = 600, 1000 and 2000 (20 seeds each) the subsample moved the lengthscale
by at most 4.9% and 2.3% from the exact median of every pair. N0 = 512 is the largest subsample
whose N0 (N0 - 1) / 2 = 130,816 pair distances take one 1 MiB buffer: the
median streams the strict upper triangle of _sqdist(X, X) into it in row
blocks of _MEDIAN_ROWS rows, each block's columns starting at its first row,
so the n x n distances are never formed, and one partition selects the
middle order statistics. The entries are those of one
_sqdist(X, X) call as far as the BLAS rounds a block's product as it rounds
the whole one: on OpenBLAS (SkylakeX kernels) about 4e-5 of the entries in
tile corners differ in the last bit for d >= 2 (a fused multiply-add against
a separate multiply and add), so a median landing on such an entry would
move by one rounding. In 336 inputs checked against the n x n evaluation (d
from 1 to 8, n from 2 to 2500) none did. For d = 1 each entry is one
rounded product, sum and difference, the same floats in any block.

kmeanspp clusters inputs; the pipeline's inducing sites are its clusters.
Its seeding draws each centre as Generator.choice(n, p=d2 / total) would,
through the same cumulative sum and search but without choice's O(n)
validation passes, and keeps d2 from a column-by-column sum of squares
(`_sqdist_to`) updated in place. Its Lloyd loop gives the plain loop's
assignments bit for bit, the argmin of each row of the rounded
_sqdist(X, centers), but computes few of those rows. For d = 1 the inputs
are sorted once, and each iteration gives every distinct centre the run of
sorted inputs between the midpoints to its neighbours, with one
searchsorted; only points within the rounding band of a midpoint take the
argmin of their row. For d >= 2, after the first iteration,
triangle-inequality bounds (Hamerly 2010), widened by the rounding of
_sqdist, prove most assignments unchanged. Empty clusters come from one
bincount of the assignments and share one repair. For d >= 2 the centres
come from one weighted bincount per coordinate, the same members added in
the same order as a mask would select, so the same floating-point sums.
For d = 1 each centre is np.add.reduce over its cluster's members in input
order, np.mean's own pairwise sum, recomputed only for the clusters that
gained or lost a member.
The module knows nothing of exponential families or bridges.
"""

import numpy as np

from . import matrixops
from .errors import DimensionMismatch, EmptyCluster, InvalidParams, NotPositiveDefinite

_JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
_BLOCK = 128
_LEAF = 16
_MEDIAN_INPUTS = 512
_MEDIAN_ROWS = 64


def _as_inputs(X):
    X = np.asarray(X, dtype=float)
    if X.ndim == 0:
        X = X.reshape(1, 1)
    elif X.ndim == 1:
        X = X[:, None]
    elif X.ndim != 2:
        raise DimensionMismatch("inputs must be (n,) or (n, d)")
    return X


def chol_with_jitter(A):
    """Cholesky with an escalating diagonal jitter ladder.

    Tries no jitter, then 1e-10 .. 1e-6 relative to the mean diagonal.
    Returns (L, jitter_used); raises NotPositiveDefinite when the top rung
    fails. Each rung's jitter is added to A's diagonal in place, and the
    diagonal is restored on exit, so A comes back unchanged.
    """
    A = np.asarray(A, dtype=float)
    if not A.flags.writeable:
        A = A.copy()
    diag = A.diagonal().copy()
    scale = float(np.mean(diag)) if A.size else 1.0
    scale = scale if scale > 0.0 else 1.0
    try:
        for level in _JITTER_LADDER:
            if level:
                A.flat[:: A.shape[0] + 1] = diag + level * scale
            try:
                return np.linalg.cholesky(A), level * scale
            except np.linalg.LinAlgError:
                continue
    finally:
        A.flat[:: A.shape[0] + 1] = diag
    raise NotPositiveDefinite("matrix stayed non-PD through the jitter ladder")


def _lower_solve(L, B):
    """L^-1 B for a lower-triangular L, by blocked forward substitution:
    _BLOCK-row blocks, each solved over _LEAF-row leaves. The solve runs in
    one buffer: it overwrites the float array B with the solution and
    returns it, allocating only block-sized temporaries."""
    n = L.shape[0]
    for i in range(0, n, _BLOCK):
        j = min(i + _BLOCK, n)
        B[i:j] -= L[i:j, :i] @ B[:i]
        for a in range(i, j, _LEAF):
            b = min(a + _LEAF, j)
            if a > i:
                B[a:b] -= L[a:b, i:a] @ B[i:a]
            B[a:b] = np.linalg.inv(L[a:b, a:b]) @ B[a:b]
    return B


# ---------------------------------------------------------------------------
# kernels


class Kernel:
    """Base kernel; callable as k(X, Z) on (n, d) inputs, and paired as
    k.pairs(X, Z) = [k(x_i, z_i)] on inputs of equal length.

    `dims` restricts a leaf kernel to selected input columns, so products of
    per-coordinate kernels can share one input matrix; a column the inputs
    do not have raises DimensionMismatch. `width` is the number of latent
    functions per input: 1, or w for a Coregional kernel.
    """

    tag = "kernel"
    width = 1

    def __init__(self, dims=None):
        self.dims = None if dims is None else tuple(np.atleast_1d(dims).tolist())

    def _select(self, X):
        X = _as_inputs(X)
        if self.dims is None:
            return X
        if not all(0 <= c < X.shape[1] for c in self.dims):
            raise DimensionMismatch(f"kernel dims {list(self.dims)} exceed {X.shape[1]} columns")
        return X[:, list(self.dims)]

    def __call__(self, X, Z=None):
        A = self._select(X)
        B = A if Z is None else self._select(Z)
        return self._eval(A, B)

    def pairs(self, X, Z):
        """k(x_i, z_i) for each row i of X and Z, shape (n,)."""
        A = self._select(X)
        B = self._select(Z)
        if A.shape[0] != B.shape[0]:
            raise DimensionMismatch("paired inputs must have the same number of rows")
        return self._eval_pairs(A, B)

    def _eval(self, A, B):
        raise NotImplementedError

    def _eval_pairs(self, A, B):
        raise NotImplementedError

    def __add__(self, other):
        return Sum(self, other)

    def __mul__(self, other):
        return Product(self, other)

    def params(self):
        """Scalar hyperparameters as {name: value} (leaf kernels only)."""
        return {}

    def to_record(self):
        rec = {"kernel": self.tag, **self.params()}
        if self.dims is not None:
            rec["dims"] = list(self.dims)
        return rec


_SQDIST_BLOCK = 1 << 17  # entries (1 MiB): a (2000, 100) k-means matrix takes two


def _sqdist(A, B):
    """||a_i - b_j||^2 as a2 + b2 - 2 a.b, clipped at 0, the cross term
    overwritten in place by a2 + b2 formed in one block of rows at a time.
    For d = 1 that term is an outer product, the one-term matmul's floats."""
    a2 = np.sum(A**2, axis=1)
    b2 = np.sum(B**2, axis=1)
    d2 = np.multiply.outer(2.0 * A[:, 0], B[:, 0]) if A.shape[1] == 1 else 2.0 * A @ B.T
    rows = max(_SQDIST_BLOCK // max(d2.shape[1], 1), 1)
    block = np.empty((min(rows, d2.shape[0]), d2.shape[1]))
    for s in range(0, d2.shape[0], rows):
        part = d2[s : s + rows]
        np.subtract(np.add(a2[s : s + rows, None], b2, out=block[: len(part)]), part, out=part)
    return np.maximum(d2, 0.0, out=d2)


def _sqdist_pairs(A, B):
    """||a_i - b_i||^2 per row; exactly 0 where a_i == b_i."""
    diff = A - B
    return np.einsum("ij,ij->i", diff, diff)


class _Stationary(Kernel):
    """A kernel that is a function `_of_sqdist` of ||x - z||^2, evaluated in
    place on the fresh array of squared distances."""

    def _eval(self, A, B):
        return self._of_sqdist(_sqdist(A, B))

    def _eval_pairs(self, A, B):
        return self._of_sqdist(_sqdist_pairs(A, B))


class RBF(_Stationary):
    """k(x, z) = variance * exp(-||x - z||^2 / (2 lengthscale^2))."""

    tag = "rbf"

    def __init__(self, lengthscale=1.0, variance=1.0, dims=None):
        super().__init__(dims)
        self.lengthscale = float(lengthscale)
        self.variance = float(variance)
        if not (0.0 < self.lengthscale < np.inf and 0.0 < self.variance < np.inf):
            raise InvalidParams("lengthscale and variance must be positive")

    def _of_sqdist(self, d2):
        d2 *= -0.5
        d2 /= self.lengthscale**2
        np.exp(d2, out=d2)
        d2 *= self.variance
        return d2

    def params(self):
        return {"lengthscale": self.lengthscale, "variance": self.variance}


class RationalQuadratic(_Stationary):
    """k(x, z) = variance * (1 + ||x - z||^2 / (2 alpha l^2))^(-alpha)."""

    tag = "rational_quadratic"

    def __init__(self, lengthscale=1.0, alpha=1.0, variance=1.0, dims=None):
        super().__init__(dims)
        self.lengthscale = float(lengthscale)
        self.alpha = float(alpha)
        self.variance = float(variance)
        if not all(0.0 < v < np.inf for v in (self.lengthscale, self.alpha, self.variance)):
            raise InvalidParams("lengthscale, alpha, and variance must be positive")

    def _of_sqdist(self, d2):
        d2 /= 2.0 * self.alpha * self.lengthscale**2
        d2 += 1.0
        d2 **= -self.alpha
        d2 *= self.variance
        return d2

    def params(self):
        return {
            "lengthscale": self.lengthscale,
            "alpha": self.alpha,
            "variance": self.variance,
        }


class Linear(Kernel):
    """k(x, z) = variance * <x, z> + offset."""

    tag = "linear"

    def __init__(self, variance=1.0, offset=0.0, dims=None):
        super().__init__(dims)
        self.variance = float(variance)
        self.offset = float(offset)
        if not (0.0 < self.variance < np.inf and 0.0 <= self.offset < np.inf):
            raise InvalidParams("variance must be positive and offset non-negative")

    def _eval(self, A, B):
        return self.variance * (A @ B.T) + self.offset

    def _eval_pairs(self, A, B):
        return self.variance * np.einsum("ij,ij->i", A, B) + self.offset

    def params(self):
        return {"variance": self.variance, "offset": self.offset}


def _psd_table(table, name):
    """A square, symmetric, positive semidefinite matrix, symmetrized."""
    table = np.asarray(table, dtype=float)
    if table.ndim != 2 or table.shape[0] != table.shape[1] or not table.size:
        raise DimensionMismatch(f"{name} must be square")
    scale = max(np.max(np.abs(table)), 1e-300)
    if np.max(np.abs(table - table.T)) > 1e-10 * scale:
        raise InvalidParams(f"{name} must be symmetric")
    table = 0.5 * (table + table.T)
    w = np.linalg.eigvalsh(table)
    if np.min(w) < -1e-10 * max(np.max(w), 1e-300):
        raise NotPositiveDefinite(f"{name} must be positive semidefinite")
    return table


class LookupTable(Kernel):
    """Kernel over integer codes: k(x, z) = table[x[dim], z[dim]].

    The table must be symmetric positive semidefinite; inputs in the selected
    column must be integer codes in range.
    """

    tag = "lookup_table"

    def __init__(self, table, dim=0):
        super().__init__(dims=(dim,))
        self.table = _psd_table(table, "lookup table")

    def _codes(self, A):
        codes = np.rint(A[:, 0]).astype(int)
        m = self.table.shape[0]
        if np.any((codes < 0) | (codes >= m)):
            raise InvalidParams(f"lookup codes must lie in [0, {m})")
        return codes

    def _eval(self, A, B):
        return self.table[np.ix_(self._codes(A), self._codes(B))]

    def _eval_pairs(self, A, B):
        return self.table[self._codes(A), self._codes(B)]

    def to_record(self):
        return {"kernel": self.tag, "dim": self.dims[0], "table": self.table.tolist()}


class Sum(Kernel):
    """Elementwise sum of component kernels."""

    tag = "sum"

    def __init__(self, *terms):
        super().__init__(None)
        self.terms = tuple(terms)
        if len(self.terms) < 2:
            raise InvalidParams("sum kernel needs at least two terms")

    def __call__(self, X, Z=None):
        out = self.terms[0](X, Z)
        for term in self.terms[1:]:
            out = out + term(X, Z)
        return out

    def pairs(self, X, Z):
        out = self.terms[0].pairs(X, Z)
        for term in self.terms[1:]:
            out = out + term.pairs(X, Z)
        return out

    def to_record(self):
        return {"kernel": "sum", "terms": [t.to_record() for t in self.terms]}


class Product(Kernel):
    """Elementwise product of component kernels."""

    tag = "product"

    def __init__(self, *terms):
        super().__init__(None)
        self.terms = tuple(terms)
        if len(self.terms) < 2:
            raise InvalidParams("product kernel needs at least two terms")

    def __call__(self, X, Z=None):
        out = self.terms[0](X, Z)
        for term in self.terms[1:]:
            out = out * term(X, Z)
        return out

    def pairs(self, X, Z):
        out = self.terms[0].pairs(X, Z)
        for term in self.terms[1:]:
            out = out * term.pairs(X, Z)
        return out

    def to_record(self):
        return {"kernel": "product", "terms": [t.to_record() for t in self.terms]}


class Coregional(Kernel):
    """k((x, i), (z, j)) = kernel(x, z) B[i, j] for w latent functions on
    shared inputs, B symmetric positive semidefinite. On site inputs (n, d)
    and (m, d) it is the (n w, m w) matrix Kx (x) B, row a w + i for latent
    i of site a; `pairs` gives the (n, w, w) blocks kernel(x_a, z_a) B."""

    tag = "coregional"

    def __init__(self, kernel, B):
        super().__init__(None)
        self.kernel = kernel
        self.B = _psd_table(B, "coregionalization matrix")
        self.width = self.B.shape[0]

    def _eval(self, A, Z):
        Kx = self.kernel(A, Z)
        n, m = Kx.shape
        w = self.width
        return (Kx[:, None, :, None] * self.B[None, :, None, :]).reshape(n * w, m * w)

    def _eval_pairs(self, A, Z):
        return self.kernel.pairs(A, Z)[:, None, None] * self.B

    def to_record(self):
        return {"kernel": self.tag, "input": self.kernel.to_record(), "B": self.B.tolist()}


def _rounding_1d(xx, cc):
    """A bound on the rounding error of each entry of _sqdist on
    one-dimensional inputs whose squares are at most xx and cc: kmeanspp's
    gamma at d = 1, (2d + 8) eps, plus a few subnormal units for entries
    that underflow."""
    return 10.0 * np.finfo(float).eps * (xx + cc) + 4.0 * np.finfo(float).smallest_subnormal


def median_lengthscale(X):
    """Median pairwise distance, the documented default RBF lengthscale.

    Of all n inputs up to _MEDIAN_INPUTS of them; above, of the rows
    X[np.sort(default_rng(0).choice(n, _MEDIAN_INPUTS, replace=False))],
    a fixed subsample, so time and memory stop growing with n and every
    call on the same X gives the same lengthscale. A NaN anywhere in X
    still gives the fallback 1.0.

    The strict upper triangle of _sqdist(X, X), at most
    _MEDIAN_INPUTS (_MEDIAN_INPUTS - 1) / 2 pair distances, is written once
    into one buffer from blocks of _MEDIAN_ROWS rows (at least two: a one-row
    product runs as a BLAS gemv), each against the inputs from its first row
    on, its own triangle first. One partition at the upper middle
    rank k selects its entry there; for an even count the lower middle is
    the largest entry below k. sqrt is monotone, so this equals np.median of
    the distances (a NaN among them gives the fallback 1.0, as does a zero
    median). A median whose square is at rounding level, at most
    8 eps max_i ||x_i||^2, counts as zero: identical rows in d >= 2 leave a
    residue of up to about 2 eps ||x||^2 in _sqdist.
    """
    X = _as_inputs(X)
    n = X.shape[0]
    if n > _MEDIAN_INPUTS:
        if np.isnan(np.min(X)):
            return 1.0
        rows = np.random.default_rng(0).choice(n, _MEDIAN_INPUTS, replace=False)
        X = X[np.sort(rows)]
        n = _MEDIAN_INPUTS
    if n < 2:
        return 1.0
    d2 = np.empty(n * (n - 1) // 2)
    end = 0
    for a in range(0, n - 1, _MEDIAN_ROWS):
        b = min(a + _MEDIAN_ROWS, n)
        block = _sqdist(X[a:b], X[a:])
        tri = block[:, : b - a][np.triu_indices(b - a, 1)]
        d2[end : end + tri.size] = tri
        end += tri.size
        right = d2[end : end + (b - a) * (n - b)]
        right.reshape(b - a, n - b)[...] = block[:, b - a :]
        end += right.size
        del block  # freed before the next block and its scratch are formed
    # one kth: on 130,816 floats numpy 2.4 partitions at two kth in 2.0 ms,
    # at one in 0.3 ms
    k = d2.size // 2
    d2.partition(k)
    if np.isnan(d2[k:].max()):  # NaN partitions last
        return 1.0
    middle = d2[k : k + 1] if d2.size % 2 else np.array([d2[:k].max(), d2[k]])
    med = float(np.mean(np.sqrt(middle)))
    rounding = 8.0 * np.finfo(float).eps * np.max(np.einsum("ij,ij->i", X, X))
    return med if med * med > rounding else 1.0


# ---------------------------------------------------------------------------
# GP fit / predict


class GPModel:
    """Fitted GP state; immutable after fit. X holds the n inputs (the sites)
    and mu the n * kernel.width latent rows. `family` is the conjugate family
    a pipeline run fitted it for, which `pipeline.predict` checks; None
    for a model from `gp_fit` alone."""

    def __init__(self, kernel, X, mu, noise, jitter, state):
        self.family = None
        self.kernel = kernel
        self.X = X
        self.mu = mu
        self.noise = noise
        self.jitter = jitter
        self._state = state

    @property
    def n(self):
        return self.X.shape[0]

    def diagnostics(self):
        """The jitter added before factoring, and from the diagonal of the
        Cholesky factor its smallest entry (None for the prior) and the
        log-determinant of the factored matrix."""
        pivots = np.diag(self._state["L"]) if self.n else np.ones(0)
        return {
            "jitter": self.jitter,
            "min_pivot": float(pivots.min()) if pivots.size else None,
            "log_det": float(2.0 * np.sum(np.log(pivots))),
        }

    def __repr__(self):
        return f"GPModel(n={self.n}, jitter={self.jitter:g})"


def gp_fit(kernel, X, mu, sigma):
    """Fit a GP to Gaussian pseudo-observations.

    Args:
        kernel: covariance function.
        X: inputs, (n,) or (n, d).
        mu: observed latent means, (N,) with N = n * kernel.width rows (site
            major for a Coregional kernel).
        sigma: observation noise, used in training only. A scalar variance,
            per-row variances (N,), or an (N/w, w, w) stack of the
            covariance blocks of w consecutive rows, for a Coregional
            kernel its (n, w, w) site blocks. It is added in place to the
            diagonal or to the diagonal blocks of the kernel matrix, and the
            model keeps it in the shape given.

    An empty dataset returns the prior. A non-finite entry in mu or in the
    noise raises InvalidParams. Refitting identical inputs is bit-identical;
    the Cholesky jitter actually used is recorded on the model.
    """
    X = _as_inputs(X) if np.size(X) else np.zeros((0, 1))
    mu = np.atleast_1d(np.asarray(mu, dtype=float)) if np.size(mu) else np.zeros(0)
    n = X.shape[0] * kernel.width
    if mu.shape != (n,):
        raise DimensionMismatch(f"mu must have shape ({n},)")
    try:
        noise = np.array(sigma, dtype=float)
    except ValueError as exc:  # blocks of unequal sizes
        raise DimensionMismatch("noise blocks must all be w x w") from exc
    if n == 0:
        return GPModel(kernel, X, mu, noise, 0.0, {})
    if not (np.all(np.isfinite(mu)) and np.all(np.isfinite(noise))):
        raise InvalidParams("mu and the observation noise must be finite")
    K = np.ascontiguousarray(kernel(X, X))  # so that K.reshape is a view
    if noise.ndim == 3:
        s, w = noise.shape[:2]
        sites = not isinstance(kernel, Coregional) or w == kernel.width
        if s * w != n or noise.shape[2] != w or not sites:
            raise DimensionMismatch(f"noise blocks must form an (s, w, w) stack with s * w = {n}")
        i = np.arange(s)
        K.reshape(s, w, s, w)[i, :, i, :] += noise
    elif noise.shape not in ((), (n,)):
        raise DimensionMismatch(f"noise must be a scalar, ({n},) variances or (s, w, w) blocks")
    elif np.any(noise < 0.0):
        raise InvalidParams("observation noise variances must be non-negative")
    else:
        K.flat[:: n + 1] += noise
    L, jitter = chol_with_jitter(K)
    return GPModel(kernel, X, mu, noise, jitter, {"L": L})


def gp_predict(model, Xstar):
    """Posterior marginals of the noise-free latent function at new inputs.

    Returns (mean, variances): for a Coregional kernel of width w the
    (m w,) means in site-major order and the (m, w, w) stack of each query
    point's covariance block, for every w >= 1; the full covariance is never
    formed. The heteroskedastic noise entered the training factor only;
    nothing is added at query points. The solve runs in one (N, m w + 1)
    buffer, N the model's latent rows, filled from the (m w, N) kernel
    matrix, which is freed before the solve.
    """
    Xs = _as_inputs(Xstar)
    kernel = model.kernel
    prior = kernel.pairs(Xs, Xs)  # (m,) variances or (m, w, w) blocks
    if model.n == 0:
        mean = np.zeros(Xs.shape[0] * kernel.width)
        return mean, matrixops.sym(prior) if prior.ndim == 3 else np.maximum(prior, 0.0)
    # the buffer is made after the kernel call, so that it never coexists
    # with the kernel's own (m, n) temporary
    ks = kernel(Xs, model.X)
    vw = np.empty((model.mu.size, ks.shape[0] + 1))
    vw[:, :-1] = ks.T
    vw[:, -1] = model.mu
    del ks
    _lower_solve(model._state["L"], vw)
    v, w = vw[:, :-1], vw[:, -1]
    mean = w @ v
    if prior.ndim == 3:
        vb = v.T.reshape(prior.shape[0], kernel.width, model.mu.size)
        return mean, matrixops.sym(prior - vb @ np.swapaxes(vb, 1, 2))
    var = prior - np.sum(np.square(v, out=v), axis=0)
    return mean, np.maximum(var, 0.0)


def _psd_root(cov):
    """Root R with R R^T = cov, of a matrix or of each matrix in a stack.

    eigh-based: exact zeros stay exact, unlike a jittered Cholesky.
    """
    w, U = np.linalg.eigh(matrixops.sym(cov))
    return U * np.sqrt(np.maximum(w, 0.0))[..., None, :]


# ---------------------------------------------------------------------------
# input clustering


def _sqdist_to(X, c):
    """||x_i - c||^2 per row, the floats of np.sum((X - c)**2, axis=1)
    without the (n, d) temporary: the squares are added column by column,
    in the order that sum adds them. On a C-ordered X with 8 or more
    columns numpy sums each row pairwise instead, and that sum is kept."""
    dim = X.shape[1]
    if dim >= 8 and (X.flags.c_contiguous or not X.flags.f_contiguous):
        return np.sum((X - c) ** 2, axis=1)
    acc = X[:, 0] - c[0]
    acc *= acc
    for j in range(1, dim):
        term = X[:, j] - c[j]
        term *= term
        acc += term
    return acc


def _rounding_bound(xx, centers, gamma):
    """Per point, a bound on the rounding error of each entry of its
    _sqdist row against `centers`, from its squared norm xx, with the
    absolute floor 2^-900 for results that underflow (see kmeanspp)."""
    return gamma * (xx + np.max(np.einsum("ij,ij->i", centers, centers))) + 2.0**-900


def _nearest_two(d2, err, gamma):
    """Per row of _sqdist entries with rounding bound `err`: the argmin, the
    gap from its entry to the smallest other one, and a lower bound on the
    true distance to every other centre (inf for both with one centre).
    Overwrites the argmin entries."""
    rows = np.arange(d2.shape[0])
    best = np.argmin(d2, axis=1)
    nearest = d2[rows, best]
    d2[rows, best] = np.inf
    runner_up = np.min(d2, axis=1)
    return best, runner_up - nearest, np.sqrt(np.maximum(runner_up - err, 0.0)) * (1.0 - gamma)


def _settled(X, centers, assign, lower, err, gamma):
    """Points whose argmin in the rounded _sqdist(X, centers) is provably
    assign[i]: the true distance to every other centre exceeds the distance
    to their own by more than twice the rounding bound `err`."""
    up, down = 1.0 + gamma, 1.0 - gamma
    own = np.sqrt(_sqdist_pairs(X, centers[assign])) * up
    between = _sqdist(centers, centers)
    np.fill_diagonal(between, np.inf)
    slack = _rounding_bound(np.einsum("ij,ij->i", centers, centers), centers, gamma)
    half = 0.5 * np.sqrt(np.maximum(np.min(between, axis=1) - slack, 0.0)) * down
    other = np.maximum(lower, (2.0 * half[assign] - own) * down)
    return other * other * down - own * own * up > 2.0 * err


def _repaired(X, centers, assign, nearest):
    """The assignments with no cluster empty, and the cluster sizes: each
    empty cluster's centre moves to the point farthest from all centres and
    nearest() assigns every point again, up to five times; then
    EmptyCluster is raised."""
    k = centers.shape[0]
    for _ in range(5):
        sizes = np.bincount(assign, minlength=k)
        empty = np.flatnonzero(sizes == 0)
        if not empty.size:
            return assign, sizes
        for j in empty:
            far = int(np.argmax(np.min(_sqdist(X, centers), axis=1)))
            centers[j] = X[far]
        assign = nearest()
    raise EmptyCluster("could not repair empty clusters after 5 attempts")


def _lloyd_bounded(X, centers, max_iter):
    """Lloyd iterations for d >= 2 that compute only the distance rows that
    Hamerly's bounds leave unproven (see kmeanspp)."""
    k, dim = centers.shape
    gamma = (2 * dim + 8) * np.finfo(float).eps
    xx = np.einsum("ij,ij->i", X, X)
    assign = lower = None

    def full():
        nonlocal lower
        err = _rounding_bound(xx, centers, gamma)
        best, _, lower = _nearest_two(_sqdist(X, centers), err, gamma)
        return best

    for it in range(max_iter):
        if assign is None:
            new_assign = full()
        else:
            err = _rounding_bound(xx, centers, gamma)
            unsure = np.flatnonzero(~_settled(X, centers, assign, lower, err, gamma))
            new_assign = assign.copy()
            if unsure.size:
                rows = unsure if unsure.size > 1 else np.repeat(unsure, 2)
                best, gap, bound = _nearest_two(
                    _sqdist(X[rows], centers)[: unsure.size], err[unsure], gamma
                )
                new_assign[unsure] = best
                lower[unsure] = bound
                if not np.all(gap * (1.0 - gamma) > 4.0 * err[unsure]):
                    new_assign = full()
        new_assign, sizes = _repaired(X, centers, new_assign, full)
        if assign is not None and np.array_equal(new_assign, assign):
            return centers, assign, it + 1, True
        assign = new_assign
        moved = centers.copy()
        for c in range(dim):
            centers[:, c] = np.bincount(assign, weights=X[:, c], minlength=k) / sizes
        # lower the bounds by the largest move of a centre other than the own
        moves = np.sqrt(_sqdist_pairs(centers, moved)) * (1.0 + gamma)
        top = int(np.argmax(moves))
        drift = np.where(assign == top, np.max(np.delete(moves, top), initial=0.0), moves[top])
        lower = np.maximum((lower - drift) * (1.0 - gamma), 0.0)
    return centers, assign, max_iter, False


def _nearest_sorted(X, order, xs, centers):
    """The argmin of each row of _sqdist(X, centers) for one-dimensional X,
    from its sorted values xs = X[order, 0] (see kmeanspp)."""
    c = centers[:, 0]
    by = np.argsort(c, kind="stable")
    c = c[by]
    # one label per distinct centre: the lowest index, argmin's tie rule
    first = np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))
    c, label = c[first], by[first]
    mid = 0.5 * (c[:-1] + c[1:])
    err = _rounding_1d(np.max(np.square(xs[[0, -1]])), np.max(np.square(c[[0, -1]])))
    half = 2.0 * err / np.diff(c)
    n = xs.size
    assign = np.empty(n, dtype=np.intp)
    assign[order] = np.repeat(label, np.diff(xs.searchsorted(mid), prepend=0, append=n))
    # points within half of a midpoint take the argmin of their own row
    band = np.bincount(xs.searchsorted(mid - half), minlength=n + 1)
    band -= np.bincount(xs.searchsorted(mid + half, side="right"), minlength=n + 1)
    unsure = order[np.cumsum(band[:n]) > 0]
    if unsure.size:
        assign[unsure] = np.argmin(_sqdist(X[unsure], centers), axis=1)
    return assign


def _lloyd_sorted(X, centers, max_iter):
    """Lloyd iterations for d = 1 on the inputs sorted once (see kmeanspp)."""
    k = centers.shape[0]
    x = X[:, 0]
    order = np.argsort(x, kind="stable")
    xs = x[order]
    nearest = lambda: _nearest_sorted(X, order, xs, centers)
    assign = None
    for it in range(max_iter):
        seeded = centers.copy()
        new_assign, sizes = _repaired(X, centers, nearest(), nearest)
        if assign is not None and np.array_equal(new_assign, assign):
            return centers, assign, it + 1, True
        # only a cluster that gained or lost a member has a new mean, unless
        # a repair re-seeded a centre
        if assign is None or not np.array_equal(seeded, centers):
            stale = range(k)
        else:
            moved = new_assign != assign
            gained = np.bincount(new_assign[moved], minlength=k)
            stale = np.flatnonzero(gained + np.bincount(assign[moved], minlength=k))
        assign = new_assign
        # members by cluster, each cluster's in input order
        members = x[np.argsort(assign, kind="stable")]
        ends = np.cumsum(sizes)
        for j in stale:
            centers[j, 0] = np.add.reduce(members[ends[j] - sizes[j] : ends[j]]) / sizes[j]
    return centers, assign, max_iter, False


def kmeanspp(X, k, seed=0, max_iter=100):
    """k-means++ seeding plus Lloyd iterations (capped).

    An empty cluster is re-seeded at the point farthest from all centers;
    after five failed repair attempts EmptyCluster is raised. Returns
    (centers, assignments, iterations, converged): converged is True when
    an iteration left every assignment unchanged, False when the loop
    stopped at max_iter (also with max_iter = 0, which returns the seeds
    and no assignments).

    The iterations give Lloyd's assignments bit for bit, the argmin of each
    row of the rounded _sqdist(X, centers), without computing most rows.
    Each entry of that matrix, a2 + b2 - 2ab, is within (2d + 3) u
    (||x||^2 + ||c||^2) of the true squared distance (u = eps / 2: the sums
    of d squares and the dot product each err by at most d u times their
    terms, and the add and subtract round once each). The code's gamma,
    (2d + 8) eps or (4d + 16) u, is more than twice that constant, to cover
    the second order and the rounding of the bounds themselves. A point
    whose true distance to every other centre exceeds the distance to its
    own by more than twice gamma (||x||^2 + ||c||^2) keeps its centre in
    the rounded matrix, strictly, so the argmin's tie rule cannot pick
    another. Which points provably do depends on the dimension.

    For d = 1 the inputs are sorted once. Each iteration sorts the k
    centres, keeps the lowest index of each distinct value (argmin's tie
    rule: equal centres give equal entries) and assigns the run of sorted
    inputs between the midpoints of neighbouring distinct centres to each,
    with one searchsorted of the k - 1 midpoints: O(n + k log k) after the
    one O(n log n) sort. A point x beside the midpoint m of neighbours
    a < b is nearer to one of them by 2 (b - a) |x - m|, and to every other
    centre by more, so the run decides its argmin once |x - m| exceeds
    err / (b - a), with err = gamma (max x^2 + max c^2) plus a few
    subnormal units for entries that underflow. The band around each
    midpoint is twice that; the second err / (b - a), at least 10 eps
    max|c| since b - a <= 2 max|c|, covers the rounding of m and of the
    band's ends. The points inside a band (a point exactly on a midpoint,
    or all of them on badly scaled inputs such as 1e6 + 1e-6 u) take the
    argmin of their own _sqdist row. For d = 1 an entry is one product,
    one sum and one difference, each rounded once, so a row is the same
    floats whichever rows share its product.

    For d >= 2 the bounds are Hamerly's (2010, Making k-means even faster).
    The distance to the own centre is bounded above from the direct
    difference each iteration (O(n d), Hamerly's tightening step for every
    point at once); the distance to the other centres below by a per-point
    bound, set from the rows and lowered by the largest move of another
    centre, and by twice the half-distance from the own centre to its
    nearest other centre, less the distance to the own centre. Moves and
    bounds are inflated or deflated by 1 + gamma, so they also cover their
    own rounding. Badly scaled inputs (a large offset, a tiny spread) prove
    nothing, and every row is recomputed: slower, never wrong. So do inputs
    at scales below about 1e-135: results under 2^-1022 err by up to 2^-1075
    absolutely, about 2^-537 on a distance after a square root, so the bound
    adds the absolute term 2^-900 (an error e on a distance D moves its
    square by 2 D e <= gamma D^2 / 4 + 4 e^2 / gamma, the last part under
    2^-1000 for a hundred iterations' e), which such entries never clear.

    The rows not proven are recomputed through one product of at least two
    rows, as median_lengthscale does: numpy runs a one-row product as a BLAS
    gemv, which rounds differently from the full product's gemm. Even a
    product of a few rows need not round as the full one does (on OpenBLAS
    it does not, in places, from 193 centres on), so a recomputed row's
    argmin is taken only when its gap to the next entry exceeds four times
    the bound, which any rounding within the bound preserves. Otherwise (an
    exact tie always is otherwise) the iteration computes the full matrix. A
    full matrix (the first iteration, that fallback, an empty-cluster repair)
    resets every bound.

    The empty-cluster repair is shared: the farthest point from the full
    matrix, then a new assignment of every point by the path's own rule.
    For d >= 2 each centre is one weighted bincount per coordinate over the
    cluster sizes: it adds the members in input order, as np.mean does over
    the rows of their slice, so the centres are the same floats (a
    coordinate whose members are all -0.0 gives +0.0, equal as a number).
    For d = 1, np.mean sums the slice pairwise; np.add.reduce over the 1-D
    slice of the members in input order runs that same sum, and dividing
    by the size is np.mean's last step.

    The seeding draws are those of rng.choice(n, p=d2 / total): the same
    cumulative sum, normalised by its last entry, searched for one
    rng.random() value. With k >= 2, non-finite inputs raise InvalidParams.
    """
    X = _as_inputs(X)
    n, dim = X.shape
    if not 1 <= k <= n:
        raise InvalidParams(f"need 1 <= k <= n, got k={k}, n={n}")
    rng = np.random.default_rng(seed)
    centers = np.empty((k, dim))
    centers[0] = X[rng.integers(n)]
    d2 = _sqdist_to(X, centers[0])
    for j in range(1, k):
        total = float(np.sum(d2))
        if not np.isfinite(total):
            raise InvalidParams("k-means++ needs finite inputs")
        if total <= 0.0:
            centers[j] = X[rng.integers(n)]
        else:
            # Generator.choice(n, p=d2 / total) without its validation passes
            cdf = np.cumsum(d2 / total)
            cdf /= cdf[-1]
            centers[j] = X[cdf.searchsorted(rng.random(), side="right")]
        np.minimum(d2, _sqdist_to(X, centers[j]), out=d2)
    lloyd = _lloyd_sorted if dim == 1 else _lloyd_bounded
    return lloyd(X, centers, max_iter)
