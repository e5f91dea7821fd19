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

`gp_fit(..., inducing=Z)` fits the collapsed sparse GP on k inducing inputs
Z instead (Titsias 2009; its predictive is DTC's, Quinonero-Candela &
Rasmussen 2005), on all n pseudo-observations, in O(n k^2) with no n x n
array. With R the Cholesky factor of the noise Sigma (its blocks factored
through the jitter ladder, which a softmax block, singular along the ones
vector, needs), L_uu that of K_uu, V = L_uu^-1 K_uf and W = V R^-T, the
model keeps L_uu, the factor L_B of B = I + W W^T and c = L_B^-1 W R^-1 mu.
Then at a query point with a = L_uu^-1 k_u* and b = L_B^-1 a, the mean is
b^T c and the variance k** - a^T a + b^T b, or the w x w block form of it.
The fit accumulates B and W R^-1 mu over chunks of the sites, and the
prediction runs over chunks of the query points, each chunk's (k, chunk)
arrays of at most _SPARSE_BLOCK entries, so neither ever holds a (k, n) or
(k, m) array.

Without inducing inputs, gp_fit picks one of two fits from what it can
observe. On n >= _PIVOT_SITES (400) sites whose noise factors with no
jitter, it first takes a greedy pivoted Cholesky of the input kernel on the
sites (Harbrecht, Peters & Schneider, Appl. Numer. Math. 62(4), 2012): each
step adds the site of the largest diagonal residual k(x, x) - g^T g, until
that residual is at most _PIVOT_TOL (tau = 1e-13) times max k(x, x). If that
takes at most n // _PIVOT_SHARE (n / 4) pivots, the residuals sum (the trace
of K - Q_ff, which bounds its norm) to under _PIVOT_NOISE (1e-8) times the
noise's smallest eigenvalue, and K_uu then factors with no jitter, the model
is the sparse fit above on Z = X[pivots], in O(n r^2) for rank r; a GP on a
subset of the sites is stable and, with residuals negligible against the
noise, near-exact (Foster et al., JMLR 10, 2009). Otherwise it is the dense
fit, the same floats as without the attempt. The floor and the cap come from a
crossover sweep over n and lengthscale (BENCH_32.json): at r = n / 4 the
pivoted fit and predict cost about as much as the dense ones from n = 400 on.
At the sites and in gaps of the inputs the pivoted posterior is a dense
solve's to about 2e-13 (means) and 5e-12 (variances), relative; outside
their hull, where the pivots span k(., x*) least, to about 1e-8 (the largest
Nystrom residual k** - a^T a at the queries is reported).

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

The module knows nothing of exponential families or bridges.
"""

import numpy as np

from . import matrixops
from .errors import DimensionMismatch, InvalidParams, NotPositiveDefinite

_JITTER_LADDER = (0.0, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6)
_BLOCK = 128
_LEAF = 16
_MEDIAN_INPUTS = 512
_MEDIAN_ROWS = 64
_PIVOT_TOL = 1e-13
_PIVOT_SITES = 400
_PIVOT_SHARE = 4
_PIVOT_ROWS = 16
_PIVOT_NOISE = 1e-8


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

    Tries no jitter, then 1e-10 .. 1e-6 relative to the mean diagonal, of
    a matrix or of a stack of matrices, whose every matrix then takes the
    same jitter. Returns (L, jitter_used); raises NotPositiveDefinite when
    the top rung fails. Each rung's jitter is added to A's diagonal in
    place, and the diagonal is restored on exit, so A comes back unchanged.
    """
    A = np.asarray(A, dtype=float)
    if not A.flags.writeable:
        A = A.copy()
    i = np.arange(A.shape[-1])
    diag = A[..., i, i]
    scale = float(np.mean(diag)) if A.size else 1.0
    scale = scale if scale > 0.0 else 1.0
    try:
        for level in _JITTER_LADDER:
            if level:
                A[..., i, i] = diag + level * scale
            try:
                return np.linalg.cholesky(A), level * scale
            except np.linalg.LinAlgError:
                continue
    finally:
        A[..., i, i] = diag
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


_SQDIST_BLOCK = 1 << 17  # entries (1 MiB): a (2000, 100) distance matrix takes two
# entries (512 KiB) of a sparse fit's or prediction's (k, chunk) arrays; at
# 2^17 the benchmark's inducing workers peaked 0.4 MB higher in RSS
_SPARSE_BLOCK = 1 << 16


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
        if self.lengthscale**2 < np.finfo(float).tiny:
            raise InvalidParams("the lengthscale's square underflows")

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
        if 2.0 * self.alpha * self.lengthscale**2 < np.finfo(float).tiny:
            raise InvalidParams("2 alpha lengthscale^2 underflows")

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
    and mu the n * kernel.width latent rows; `inducing` holds the (k, d)
    inducing inputs of a sparse fit, None for a dense one: the user's Z, or
    the pivots X[p] of a pivoted fit, whose `rank` is their count r (None
    otherwise). `pivot_residual` is the largest diagonal residual at which
    the pivoting stopped, None where it did not run. `jitter` is the
    jitter of the kernel factor (of K + noise, or of K_uu for a sparse fit),
    `noise_jitter` that of a sparse fit's noise factor. `family` is the
    conjugate family a pipeline run fitted it for, which `pipeline.predict`
    checks; None for a model from `gp_fit` alone."""

    def __init__(self, kernel, X, mu, noise, jitter, state, inducing=None, noise_jitter=None):
        self.family = None
        self.kernel = kernel
        self.X = X
        self.mu = mu
        self.noise = noise
        self.jitter = jitter
        self.inducing = inducing
        self.noise_jitter = noise_jitter
        self.rank = None
        self.pivot_residual = None
        self._state = state

    @property
    def n(self):
        return self.X.shape[0]

    def diagnostics(self):
        """The jitter added before factoring, from the diagonal of the kernel
        factor its smallest entry (None for the prior), a log-determinant,
        the user's inducing input count k (None otherwise), the pivoted rank
        r (None otherwise) and pivot_residual. Dense: the factor of
        K + noise and its log-determinant. Sparse (inducing or pivoted): the
        factor of K_uu, and log det(Q_ff + noise) = log det B + log det
        noise, the log-determinant of the sparse GP's marginal likelihood,
        with noise_jitter, the jitter of the noise factor."""
        pivots = np.diag(self._state["L"]) if self.n else np.ones(0)
        rec = {
            "jitter": self.jitter,
            "min_pivot": float(pivots.min()) if pivots.size else None,
            "log_det": float(2.0 * np.sum(np.log(pivots))),
            "inducing": None,
            "rank": self.rank,
            "pivot_residual": self.pivot_residual,
        }
        if self.inducing is not None:
            rec["log_det"] = self._state["log_det"]
            rec["noise_jitter"] = self.noise_jitter
            if self.rank is None:
                rec["inducing"] = self.inducing.shape[0]
        return rec

    def __repr__(self):
        k = "" if self.inducing is None else f", k={self.inducing.shape[0]}"
        if self.rank is not None:
            k = f", r={self.rank}"
        return f"GPModel(n={self.n}{k}, jitter={self.jitter:g})"


def gp_fit(kernel, X, mu, sigma, inducing=None):
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
        inducing: optional (k,) or (k, d) inducing inputs Z, k >= 1, finite,
            with X's columns. Given, the fit is the collapsed sparse GP on
            all n pseudo-observations (see the module docstring), in
            O(n k^2) time and with no (k, n) array.

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
    if noise.ndim == 3:
        s, w = noise.shape[:2]
        sites = not isinstance(kernel, Coregional) or w == kernel.width
        if s * w != n or noise.shape[2] != w or not sites:
            raise DimensionMismatch(f"noise blocks must form an (s, w, w) stack with s * w = {n}")
    elif noise.shape not in ((), (n,)):
        raise DimensionMismatch(f"noise must be a scalar, ({n},) variances or (s, w, w) blocks")
    elif np.any(noise < 0.0):
        raise InvalidParams("observation noise variances must be non-negative")
    if inducing is not None:
        return _sparse_fit(kernel, X, mu, noise, _as_inputs(inducing))
    residual = None
    floor = _noise_floor(noise) if X.shape[0] >= _PIVOT_SITES else 0.0
    if floor > 0.0:
        coregional = isinstance(kernel, Coregional)
        pivots, residual, trace = _pivots(kernel.kernel if coregional else kernel, X)
        if coregional:
            trace *= np.trace(kernel.B)  # the trace of Kx's residual (x) B
        if pivots is not None and trace < _PIVOT_NOISE * floor:
            model = _sparse_fit(kernel, X, mu, noise, X[pivots])
            if model.jitter == 0.0:
                model.rank, model.pivot_residual = len(pivots), residual
                return model
    model = _dense_fit(kernel, X, mu, noise)
    model.pivot_residual = residual
    return model


def _dense_fit(kernel, X, mu, noise):
    """The Cholesky factor of K + noise, the noise added in place."""
    K = np.ascontiguousarray(kernel(X, X))  # so that K.reshape is a view
    if noise.ndim == 3:
        s, w = noise.shape[:2]
        i = np.arange(s)
        K.reshape(s, w, s, w)[i, :, i, :] += noise
    else:
        K.flat[:: mu.size + 1] += noise
    L, jitter = chol_with_jitter(K)
    return GPModel(kernel, X, mu, noise, jitter, {"L": L})


def _noise_floor(noise):
    """The smallest eigenvalue of the noise: its smallest variance, or the
    smallest of its blocks' eigenvalues; 0.0 where its factor would need
    jitter (a zero variance, a singular softmax block)."""
    if noise.ndim < 3:
        return max(float(np.min(noise)), 0.0)
    try:
        np.linalg.cholesky(noise)
    except np.linalg.LinAlgError:
        return 0.0
    return float(np.min(np.linalg.eigvalsh(noise)))


def _pivots(kernel, X):
    """Greedy pivoted Cholesky of kernel(X, X) (see the module docstring).

    Returns (pivots, residual, trace): the rows chosen, in order, the
    largest diagonal residual k(x, x) - g^T g it stopped at and the sum of
    the residuals. pivots is None where that largest residual is still
    above _PIVOT_TOL max k(x, x) at the cap of n // _PIVOT_SHARE rows, or
    is not finite. The factor's rows are kept in a buffer that doubles as
    it fills, never allocated at the cap."""
    n = X.shape[0]
    cap = n // _PIVOT_SHARE
    d = kernel.pairs(X, X)
    tol = _PIVOT_TOL * np.max(d)
    G = np.empty((min(_PIVOT_ROWS, cap), n))
    pivots = []
    for j in range(cap + 1):
        p = int(np.argmax(d))
        residual = float(d[p])
        if not residual > tol or j == cap:
            break
        if j == G.shape[0]:
            G = np.concatenate((G, np.empty((min(j, cap - j), n))))
        g = kernel.pairs(X, np.broadcast_to(X[p], X.shape))
        g -= G[:j, p] @ G[:j]
        g /= np.sqrt(residual)
        G[j] = g
        d -= np.square(g, out=g)
        d[p] = 0.0
        pivots.append(p)
    found = bool(pivots) and residual <= tol
    return (pivots if found else None), residual, float(np.sum(d))


def _sparse_fit(kernel, X, mu, noise, Z):
    """The sparse GP on inducing inputs Z (see the module docstring): B and
    W R^-1 mu accumulated over chunks of the sites, each chunk a whole
    number of noise blocks."""
    if Z.shape[1] != X.shape[1]:
        raise DimensionMismatch("inducing inputs must have the inputs' columns")
    if not (Z.shape[0] and np.all(np.isfinite(Z))):
        raise InvalidParams("need at least one inducing input, all finite")
    L, jitter = chol_with_jitter(np.ascontiguousarray(kernel(Z, Z)))
    R, noise_jitter = chol_with_jitter(
        noise if noise.ndim == 3 else np.broadcast_to(noise, mu.shape).reshape(-1, 1, 1)
    )
    Rinv = np.linalg.inv(R)  # (s, b, b), lower triangular
    b = Rinv.shape[-1]
    y = np.einsum("jcb,jb->jc", Rinv, mu.reshape(-1, b)).reshape(-1)  # R^-1 mu
    k, w = L.shape[0], kernel.width
    B = np.eye(k)
    r = np.zeros(k)
    step = -(-max(_SPARSE_BLOCK // (k * w), 1) // b) * b  # sites per chunk
    # a subnormal noise variance overflows W W^T; the check below refuses it
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, X.shape[0], step):
            V = _lower_solve(L, kernel(Z, X[lo : lo + step])).reshape(k, -1, b)
            W = np.einsum("kjb,jcb->kjc", V, Rinv[lo * w // b : (lo + step) * w // b])
            W = W.reshape(k, -1)
            B += W @ W.T
            r += W @ y[lo * w : (lo + step) * w]
    if not (np.all(np.isfinite(B)) and np.all(np.isfinite(r))):
        raise NotPositiveDefinite("the sparse GP's factor B is not finite")
    LB = chol_with_jitter(B)[0]
    log_det = 2.0 * (np.sum(np.log(np.diag(LB))) + np.sum(np.log(np.diagonal(R, 0, 1, 2))))
    state = {"L": L, "LB": LB, "c": _lower_solve(LB, r[:, None])[:, 0], "log_det": float(log_det)}
    return GPModel(kernel, X, mu, noise, jitter, state, Z, noise_jitter)


def gp_predict(model, Xstar):
    """Posterior marginals of the noise-free latent function at new inputs.

    Returns (mean, variances): for a Coregional kernel of width w the
    (m w,) means in site-major order and the (m, w, w) stack of each query
    point's covariance block, for every w >= 1; the full covariance is never
    formed. The heteroskedastic noise entered the training factor only;
    nothing is added at query points. The dense solve runs in one
    (N, m w + 1) buffer, N the model's latent rows, filled from the (m w, N)
    kernel matrix, which is freed before the solve. A sparse model predicts
    chunks of the query points, each through one (k w, chunk w) array.
    Queries must be finite (else InvalidParams) and, for a fitted model,
    have the model's input columns (else DimensionMismatch).
    """
    return _posterior(model, Xstar)[:2]


def _posterior(model, Xstar):
    """gp_predict's (mean, variances), and the largest Nystrom residual
    k** - a^T a at the query points (of a variance, or of a block's
    diagonal) for a sparse model, None for a dense one or no queries."""
    Xs = _as_inputs(Xstar)
    if not np.all(np.isfinite(Xs)):
        raise InvalidParams("query inputs must be finite")
    if model.n and Xs.shape[1] != model.X.shape[1]:
        raise DimensionMismatch(
            f"query inputs have {Xs.shape[1]} columns, the model's inputs {model.X.shape[1]}"
        )
    kernel = model.kernel
    prior = kernel.pairs(Xs, Xs)  # (m,) variances or (m, w, w) blocks
    if model.n == 0:
        mean = np.zeros(Xs.shape[0] * kernel.width)
        return mean, matrixops.sym(prior) if prior.ndim == 3 else np.maximum(prior, 0.0), None
    if model.inducing is not None:
        return _sparse_predict(model, Xs, prior)
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
        return mean, matrixops.sym(prior - vb @ np.swapaxes(vb, 1, 2)), None
    var = prior - np.sum(np.square(v, out=v), axis=0)
    return mean, np.maximum(var, 0.0), None


def _sparse_predict(model, Xs, prior):
    """A sparse model's marginals (see the module docstring): per chunk of
    query points, a = L_uu^-1 k_u* and then b = L_B^-1 a in one array;
    `prior` takes -a^T a + b^T b in place. Returns (mean, marginals, the
    largest Nystrom residual)."""
    L, LB, c = model._state["L"], model._state["LB"], model._state["c"]
    k, w = L.shape[0], model.kernel.width

    def gram(A):  # per query point: the squared norm of its column, or its w x w block
        if prior.ndim == 1:
            return np.einsum("ij,ij->j", A, A)
        blocks = A.T.reshape(-1, w, k)
        return blocks @ np.swapaxes(blocks, 1, 2)

    mean = np.empty(Xs.shape[0] * w)
    tops = []
    step = max(_SPARSE_BLOCK // (k * w), 1)
    for lo in range(0, Xs.shape[0], step):
        A = _lower_solve(L, model.kernel(model.inducing, Xs[lo : lo + step]))
        prior[lo : lo + step] -= gram(A)
        chunk = prior[lo : lo + step]
        tops.append(float(np.max(chunk if prior.ndim == 1 else np.diagonal(chunk, 0, 1, 2))))
        _lower_solve(LB, A)
        mean[lo * w : (lo + step) * w] = c @ A
        prior[lo : lo + step] += gram(A)
    cov = matrixops.sym(prior) if prior.ndim == 3 else np.maximum(prior, 0.0)
    return mean, cov, max(tops, default=None)


def _psd_root(cov):
    """Root R with R R^T = cov, of a matrix or of each matrix in a stack.

    eigh-based: exact zeros stay exact, unlike a jittered Cholesky.
    """
    w, U = np.linalg.eigh(matrixops.sym(cov))
    return U * np.sqrt(np.maximum(w, 0.0))[..., None, :]

