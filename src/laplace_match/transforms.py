"""Basis transformations and transformed densities.

A basis transformation g maps the support of an exponential-family
distribution to a latent space where the Laplace approximation is taken.
`FAMILY_BASES` is the one catalogue of the bases each family has, and
`resolve_basis` the one way to turn a tag or a `BasisTransform` into a
basis checked against a family and sized by the K or p of what it applies
to; every entry point that takes a basis goes through it.
`push_forward` builds the transformed density on working coordinates:

  * scalar families: the latent line (dim 1),
  * Dirichlet: the (K-1)-coordinate chart of the centered hyperplane
    (softmax basis) or of the simplex (identity basis),
  * Wishart / inverse Wishart: half-vectorized symmetric coordinates.

Each TransformedDensity carries two callables. `log_density` is the exact
normalized pushforward (it integrates to one and is what Monte Carlo
diagnostics evaluate). `log_objective` is the function whose mode and
curvature define the matched Gaussian; for matrix bases it drops the
cross-eigenvalue measure factors, which is the convention the closed-form
bridges correspond to. For all other bases the two coincide.
"""

import functools
import math

import numpy as np

from . import distributions, matrixops
from .errors import (
    BasisSizeMismatch,
    DirectionUnavailable,
    IncompatibleBasis,
    InvalidParams,
    NonConvergence,
    NoValidLaplace,
    OutOfSupport,
)
from .gaussian import GaussianApprox

_EPS = np.finfo(float).eps

_SCALAR_POSITIVE = ("exponential", "gamma", "inverse_gamma", "chi_squared")

# The family -> basis catalogue. The identity basis comes first; the rest are
# the closed-form bridge rows, and the first of those is the pipelines'
# default basis.
FAMILY_BASES = {
    "exponential": ("identity", "log", "sqrt"),
    "gamma": ("identity", "log", "sqrt"),
    "inverse_gamma": ("identity", "log", "sqrt"),
    "chi_squared": ("identity", "log", "sqrt"),
    "beta": ("identity", "logit"),
    "dirichlet": ("identity", "softmax_inverse"),
    "wishart": ("identity", "matrix_log", "matrix_sqrt"),
    "inverse_wishart": ("identity", "matrix_log", "matrix_sqrt"),
}

# every tag of the catalogue, in order of first appearance
BASIS_TAGS = tuple(dict.fromkeys(tag for tags in FAMILY_BASES.values() for tag in tags))


class BasisTransform:
    """A named basis map with optional size parameters (K or p)."""

    __slots__ = ("tag", "K", "p")

    def __init__(self, tag, K=None, p=None):
        if tag not in BASIS_TAGS:
            raise InvalidParams(f"unknown basis tag {tag!r}")
        if tag == "softmax_inverse":
            if K is None or int(K) < 2:
                raise InvalidParams("softmax_inverse needs K >= 2")
            K = int(K)
        elif K is not None:
            raise InvalidParams(f"basis {tag!r} takes no K")
        if tag in ("matrix_log", "matrix_sqrt"):
            if p is None or int(p) < 1:
                raise InvalidParams(f"{tag} needs p >= 1")
            p = int(p)
        elif p is not None:
            raise InvalidParams(f"basis {tag!r} takes no p")
        object.__setattr__(self, "tag", tag)
        object.__setattr__(self, "K", K)
        object.__setattr__(self, "p", p)

    def __setattr__(self, name, value):
        raise AttributeError("BasisTransform is immutable")

    def __eq__(self, other):
        if not isinstance(other, BasisTransform):
            return NotImplemented
        return (self.tag, self.K, self.p) == (other.tag, other.K, other.p)

    def __hash__(self):
        return hash((self.tag, self.K, self.p))

    def __repr__(self):
        if self.tag == "softmax_inverse":
            return f"SoftmaxInverse{{{self.K}}}"
        if self.tag == "matrix_log":
            return f"MatrixLog{{{self.p}}}"
        if self.tag == "matrix_sqrt":
            return f"MatrixSqrt{{{self.p}}}"
        return self.tag.capitalize()


def resolve_basis(family, basis, size):
    """The BasisTransform of `family` that `basis`, a tag or a BasisTransform,
    names, for parameters, a Gaussian or targets of K or p `size` (None for
    the scalar families).

    InvalidParams for an unknown family; IncompatibleBasis for a basis the
    family does not have, before any sizing; a tag is then sized by `size`,
    and a BasisTransform whose K or p differs from it raises
    BasisSizeMismatch.
    """
    if family not in FAMILY_BASES:
        raise InvalidParams(f"unknown family {family!r}")
    tag = basis.tag if isinstance(basis, BasisTransform) else basis
    if tag not in FAMILY_BASES[family]:
        raise IncompatibleBasis(f"basis {basis!r} is not defined for {family}")
    if isinstance(basis, BasisTransform):
        if (basis.K or basis.p) not in (None, size):
            raise BasisSizeMismatch(f"basis {basis!r} does not fit size {size}")
        return basis
    if tag == "softmax_inverse":
        return BasisTransform(tag, K=size)
    if tag in ("matrix_log", "matrix_sqrt"):
        return BasisTransform(tag, p=size)
    return BasisTransform(tag)


def _size_of(params):
    """The K or p of EF parameters; None for a scalar family."""
    return getattr(params, "K", None) or getattr(params, "p", None)


# ---------------------------------------------------------------------------
# sample-level maps


def _checked_symmetric(X, what):
    """X (..., p, p) as floats; OutOfSupport unless its matrices are square,
    finite and symmetric to 1e-8 relative to its largest entry. An empty
    stack passes."""
    X = np.asarray(X, dtype=float)
    if X.ndim < 2 or X.shape[-1] != X.shape[-2]:
        raise OutOfSupport(f"{what} needs square matrices")
    if not X.size:
        return X
    if not np.all(np.isfinite(X)):
        raise OutOfSupport(f"{what} needs finite matrices")
    asym = X - np.swapaxes(X, -1, -2)
    if np.max(np.abs(asym, out=asym)) > 1e-8 * max(1.0, np.max(X), -np.min(X)):
        raise OutOfSupport(f"{what} needs symmetric matrices")
    return X


def _checked_range(x, lo, hi, what):
    """x, or OutOfSupport(what) if an entry is NaN or outside [lo, hi]: one
    min and one max reduction, no n-element mask; an empty x passes."""
    if x.size and not (lo <= np.min(x) and np.max(x) <= hi):
        raise OutOfSupport(what)
    return x


def _batched_funm(X, fn, what):
    """Apply fn (log or sqrt) to the eigenvalues of symmetric positive
    definite X (..., p, p)."""
    w, U = np.linalg.eigh(matrixops.sym(_checked_symmetric(X, what)))
    if w.size and np.min(w) <= 0.0:
        raise OutOfSupport(f"{what} needs positive definite matrices")
    return matrixops.sym((U * fn(w)[..., None, :]) @ np.swapaxes(U, -1, -2))


# Matrices per chunk of `_expm_vech`. On the 80,000 3x3 draws of a benchmark op
# 8192 took 8.1-8.5 ms, 4096 10.3-10.5 and 16384 8.2-9.0 at twice 8192's 1.7 MiB
# traced peak (best of 21 calls in each of three sweeps, 2 vCPU; CHANGES.md).
_EXPM_CHUNK = 8192
_TAYLOR = [1.0 / math.factorial(k) for k in range(17)]  # 1/k!: T, exp to degree 16
_FLOAT_MAX = np.finfo(float).max
_LOG_MAX = np.log(_FLOAT_MAX)
_SQRT_MAX = np.sqrt(_FLOAT_MAX)


def _vech_matmul(a, b, out, terms):
    """out = vech(A B) for symmetric A, B held as (d, n) arrays a, b of their
    vech entries, one column per matrix, where A B is symmetric too (A and B
    are polynomials in one matrix). `terms` is the `matrixops._vech_index`
    table as nested lists; each upper-triangle entry is a p-term dot product
    of rows. out must not share memory with a or b."""
    p = len(terms)
    work = np.empty_like(out[0])
    entry = 0
    for i in range(p):
        for j in range(i, p):
            row = out[entry]
            np.multiply(a[terms[i][0]], b[terms[0][j]], out=row)
            for k in range(1, p):
                np.multiply(a[terms[i][k]], b[terms[k][j]], out=work)
                row += work
            entry += 1
    return out


def _expm_chunk(Z, p):
    """exp of the symmetric p x p matrices whose vech entries are the rows of
    Z (n, d), written back into Z as the exponentials' vech entries.

    Shift by the mean eigenvalue c = tr(X)/p, scale B = X - cI by 2^-s, s
    per matrix from its Frobenius norm (a bound on its spectral norm), so
    that |B/2^s| <= 1 and no result depends on the other matrices; evaluate
    T(B/2^s), square s times and multiply by e^c as two factors e^(c/2),
    which cannot underflow where the result does not. B has trace zero, so
    its largest eigenvalue is at most sqrt((p-1)/p) |B|_F; OutOfSupport where
    that bound, or c plus it, exceeds log(max float), as exp(B) or the result
    could then overflow.

    T is reduced modulo B's characteristic polynomial chi (Cayley-Hamilton):
    chi from the power sums tr(B^k), k <= p, by Newton's identities, Horner's
    rule on p coefficients a_k per matrix, and T(B) = sum a_k B^k from B ..
    B^(p-1). Such methods fail on general matrices (Moler & Van Loan 2003);
    here B is symmetric with eigenvalues in [-1, 1], so chi and the a_k stay
    of order one. The squarings stay matrix products (in the power basis they
    would amplify rounding by about (2^s)^(p-1)). All of it runs on the vech
    entries of polynomials in B, each a contiguous row of a (d, n) copy of Z
    (`_vech_matmul`); Z is written once its chunk has passed the bound.
    """
    n = Z.shape[0]
    rows, cols, table = matrixops._vech_index(p)
    diag = np.diagonal(table).tolist()
    terms = table.tolist()
    weights = np.where(rows == cols, 1.0, 2.0)  # <vech U, vech V> = tr(U V)
    B = Z.T.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # entries near max float fail the bound
        c = np.sum(B[diag], axis=0) / p
        B[diag] -= c
        norm = np.sqrt(np.dot(weights, B * B))
    if not np.all(np.maximum(c, 0.0) + np.sqrt((p - 1) / p) * norm <= _LOG_MAX):
        raise OutOfSupport("matrix exp out of float range: an eigenvalue may exceed log(max)")
    s = np.maximum(np.frexp(norm)[1], 0)
    powers = [np.ldexp(B, -s, out=B)]
    for _ in range(p - 2):
        powers.append(_vech_matmul(powers[-1], B, np.empty_like(B), terms))
    # tr(B^k), k = 2 .. p: Python's sum adds rows in order, whatever the chunk
    sums = [0.0, 0.0] + [sum(P[diag]) for P in powers[1:]]
    sums.append(sum(powers[-1] * B * weights[:, None]))
    # x^p = sum_k f_(p-k) x^k mod chi: k f_k = -sum_i f_(k-i) tr(B^i), f_0 = -1
    f = [-1.0, 0.0]  # f_1 = tr B = 0
    for k in range(2, p + 1):
        f.append((sums[k] - sum(f[k - i] * sums[i] for i in range(2, k - 1))) / k)
    # the top p coefficients of T (all 17 for p > 17) need no reduction
    a, work = [np.full(n, t) for t in _TAYLOR[-p:]], np.empty(n)
    for t in _TAYLOR[-p - 1 :: -1]:  # a(x) <- x a(x) + t modulo chi
        top = a.pop()
        for k in range(1, p - 1):  # f_1 = 0: x^(p-1) takes no share of x^p
            a[k - 1] += np.multiply(top, f[p - k], out=work)
        top *= f[p]
        top += t
        a.insert(0, top)
    for P, coef in zip(powers, a[1:]):
        P *= coef
    for P in powers[1 : len(a) - 1]:  # a holds at most 17 coefficients
        B += P
    B[diag] += a[0]
    for k in range(1, s.max(initial=0) + 1):
        need = np.flatnonzero(s >= k)
        root = B[:, need]
        B[:, need] = _vech_matmul(root, root, np.empty_like(root), terms)
    half = np.exp(0.5 * c)
    B *= half
    B *= half
    Z[...] = B.T


def _expm_vech(Z, p):
    """Matrix exponential of the symmetric p x p matrices whose vech entries
    are the rows of Z (..., p(p+1)/2), by scaling and squaring (Higham 2005)
    with the Taylor polynomial reduced modulo each characteristic polynomial,
    on chunks of `_EXPM_CHUNK` matrices, as the exponentials' vech entries
    (`matrixops.unvech_stack` expands them to p x p). They are written into Z
    itself when it is a C-ordered float array, so the only buffers besides
    it are one chunk's temporaries; otherwise into a C-ordered copy.
    OutOfSupport for a non-finite entry, and for a matrix whose exponential
    may overflow (see `_expm_chunk`); the chunks before the failing one are
    then already overwritten."""
    Z = np.ascontiguousarray(Z, dtype=float)
    flat = Z.reshape(-1, p * (p + 1) // 2)
    for lo in range(0, flat.shape[0], _EXPM_CHUNK):
        _expm_chunk(flat[lo : lo + _EXPM_CHUNK], p)
    return Z


# Floats per block of the draws tail's small buffers (256 KiB, in L2): the
# softmax inverse's row blocks here, and in `pipeline` the summaries' row and
# column blocks and the width > 1 sampler's point blocks.
_DRAWS_BLOCK = 1 << 15


def _component_sum(parts, out):
    """Sum of the component arrays `parts`, written into `out`, added in the
    pairwise order of numpy's own sum along a contiguous axis (eight
    accumulators up to 128 terms, halves above), so that it equals np.sum
    over the stacked components bit for bit while every add runs on whole
    component arrays."""
    n = len(parts)
    if n > 128:
        half = n // 2 - n // 2 % 8
        _component_sum(parts[:half], out)
        out += _component_sum(parts[half:], np.empty_like(out))
        return out
    if n < 8:
        np.copyto(out, parts[0])
        for part in parts[1:]:
            out += part
        return out
    acc = [part.copy() for part in parts[:8]]
    for i in range(8, n - n % 8, 8):
        for j in range(8):
            acc[j] += parts[i + j]
    for j in (0, 2, 4, 6):
        acc[j] += acc[j + 1]
    acc[0] += acc[2]
    acc[4] += acc[6]
    np.add(acc[0], acc[4], out=out)
    for part in parts[n - n % 8 :]:
        out += part
    return out


def transform_samples(samples, basis, direction="forward", pseudo_inverse=False):
    """Map samples through a basis.

    `direction="forward"` maps support points to latent coordinates,
    `"inverse"` maps latent points back to the support. The softmax basis has
    no exact forward map; pass `pseudo_inverse=True` to use the centered
    log map, otherwise DirectionUnavailable is raised. The inverse is
    `_inverse_in_place`, on a copy of the samples where it writes in place;
    the samples are left as they are.
    """
    if direction not in ("forward", "inverse"):
        raise InvalidParams("direction must be 'forward' or 'inverse'")
    x = np.asarray(samples, dtype=float)
    if direction == "inverse":  # the matrix inverses never write into their input
        return _inverse_in_place(x if basis.p else x.copy(), basis)
    tag = basis.tag
    if tag == "identity":
        return x.copy()
    if tag == "log":
        if np.any(x <= 0.0):
            raise OutOfSupport("log basis needs positive samples")
        return np.log(x)
    if tag == "sqrt":
        if np.any(x < 0.0):
            raise OutOfSupport("sqrt basis needs nonnegative samples")
        return np.sqrt(x)
    if tag == "logit":
        if np.any(x <= 0.0) or np.any(x >= 1.0):
            raise OutOfSupport("logit basis needs samples in (0, 1)")
        return np.log(x) - np.log1p(-x)
    if tag == "softmax_inverse":
        K = basis.K
        if not pseudo_inverse:
            raise DirectionUnavailable(
                "softmax has no exact inverse; pass pseudo_inverse=True "
                "for the centered log map"
            )
        if x.shape[-1] != K:
            raise OutOfSupport(f"expected simplex points with K={K}")
        if np.any(x <= 0.0):
            raise OutOfSupport("simplex points must be strictly positive")
        if np.max(np.abs(np.sum(x, axis=-1) - 1.0)) > 1e-6:
            raise OutOfSupport("simplex points must sum to one")
        lx = np.log(x)
        return lx - np.mean(lx, axis=-1, keepdims=True)
    if tag == "matrix_log":
        return _batched_funm(x, np.log, "matrix log")
    if tag == "matrix_sqrt":
        return _batched_funm(x, np.sqrt, "matrix sqrt")
    raise InvalidParams(f"unknown basis tag {tag!r}")


def _inverse_in_place(x, basis):
    """The inverse basis map of the latent samples x, a float array, written
    into x itself for the identity, log, sqrt, logit and softmax (K
    coordinates) bases, so that a caller's draws are transformed in their own
    buffer; the softmax inverse of K - 1 coordinates and the matrix inverses
    return a new array and leave x as it is.

    The square-root inverse squares its input, so negative latent draws fold
    onto the positive branch. The scalar inverses raise OutOfSupport for a
    non-finite latent, and the log and square-root inverses for one whose
    image would overflow; every input is checked before it is overwritten.
    The softmax inverse is max-shifted, with its max and its sum taken over
    the K component arrays (`_component_sum`) of a block of rows at a time,
    into one buffer of `_DRAWS_BLOCK / K` floats (a C-ordered copy of x when
    x is not C-ordered); the matrix-log inverse checks that its input is finite
    and symmetric and exponentiates the vech entries of its symmetric part
    (`_expm_vech`, p - 2 products and the squarings). No inverse calls `eigh`.
    """
    tag = basis.tag
    if tag == "identity":
        return x
    if tag == "log":
        return np.exp(_checked_range(
            x, -_FLOAT_MAX, _LOG_MAX, "log inverse needs finite latents of at most log(max float)"
        ), out=x)
    if tag == "sqrt":
        return np.square(_checked_range(
            x, -_SQRT_MAX, _SQRT_MAX,
            "sqrt inverse needs finite latents of magnitude at most sqrt(max float)",
        ), out=x)
    if tag == "logit":
        # 0.5 * (1 + tanh(0.5 x)), one operation at a time
        _checked_range(x, -_FLOAT_MAX, _FLOAT_MAX, "logit inverse needs finite latents")
        x *= 0.5
        np.tanh(x, out=x)
        x += 1.0
        x *= 0.5
        return x
    if tag == "softmax_inverse":
        K = basis.K
        if x.shape[-1] == K - 1:
            x = np.concatenate([x, -np.sum(x, axis=-1, keepdims=True)], axis=-1)
        elif x.shape[-1] != K:
            raise OutOfSupport(f"expected latent vectors of length {K} or {K - 1}")
        _checked_range(x, -_FLOAT_MAX, _FLOAT_MAX, "softmax inverse needs finite latent vectors")
        x = np.ascontiguousarray(x)
        flat = x.reshape(-1, K)
        step = max(_DRAWS_BLOCK // K, 1)
        buf = np.empty(min(step, flat.shape[0]))  # each block's max, then its sum
        for lo in range(0, flat.shape[0], step):
            block = flat[lo : lo + step]
            top = buf[: block.shape[0]]
            np.copyto(top, block[:, 0])
            for k in range(1, K):
                np.maximum(top, block[:, k], out=top)
            with np.errstate(over="ignore"):  # a gap beyond max float gives exp(-inf) = 0
                block -= top[:, None]
                np.exp(block, out=block)
            block /= _component_sum([block[:, k] for k in range(K)], top)[:, None]
        return x
    if tag == "matrix_log":
        X = _checked_symmetric(x, "matrix exp")
        with np.errstate(over="ignore"):  # entries near max float fail the bound
            Z = matrixops.vech(matrixops.sym(X))
        return matrixops.unvech_stack(_expm_vech(Z, X.shape[-1]), X.shape[-1])
    if tag == "matrix_sqrt":
        S = matrixops.sym(_checked_symmetric(x, "matrix square"))
        S = S @ S  # the symmetric part is freed before the square's is taken
        return matrixops.sym(S)
    raise InvalidParams(f"unknown basis tag {tag!r}")


# ---------------------------------------------------------------------------
# transformed densities


class TransformedDensity:
    """A pushforward density on working latent coordinates."""

    __slots__ = (
        "params",
        "basis",
        "dim",
        "_log_density",
        "_log_objective",
        "_boundary_distance",
        "_initial_point",
    )

    def __init__(self, params, basis, dim, log_density, log_objective, boundary_distance,
                 initial_point):
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "dim", int(dim))
        object.__setattr__(self, "_log_density", log_density)
        object.__setattr__(self, "_log_objective", log_objective)
        object.__setattr__(self, "_boundary_distance", boundary_distance)
        object.__setattr__(self, "_initial_point", initial_point)

    def __setattr__(self, name, value):
        raise AttributeError("TransformedDensity is immutable")

    @property
    def family(self):
        return self.params.family

    def _coerce(self, z):
        z = np.asarray(z, dtype=float)
        if self.dim == 1:
            return z, z.shape
        if z.ndim == 0 or z.shape[-1] != self.dim:
            raise OutOfSupport(f"expected points with last axis {self.dim}")
        return z, z.shape[:-1]

    def log_density(self, z):
        """Exact normalized log pushforward density at z."""
        z, shape = self._coerce(z)
        out = self._log_density(np.atleast_1d(z) if self.dim == 1 else z)
        return out.reshape(shape) if shape else float(out.reshape(-1)[0])

    def log_objective(self, z):
        """Log objective whose Laplace approximation the bridges match."""
        z, shape = self._coerce(z)
        out = self._log_objective(np.atleast_1d(z) if self.dim == 1 else z)
        return out.reshape(shape) if shape else float(out.reshape(-1)[0])

    def boundary_distance(self, z):
        """Distance from z to the domain boundary (inf when unbounded)."""
        z, _ = self._coerce(z)
        return float(self._boundary_distance(z))

    def initial_point(self):
        """A point comfortably inside the domain, near the bulk of the mass."""
        return np.atleast_1d(np.asarray(self._initial_point(), dtype=float)).copy()

    def __repr__(self):
        return f"TransformedDensity({self.family}, {self.basis!r}, dim={self.dim})"


def _log_sinhc(t):
    """log(sinh(t)/t) for t >= 0, stable for tiny and large t."""
    t = np.abs(t)
    small = t < 1e-4
    ts = np.where(small, 1.0, t)
    big = ts + np.log1p(-np.exp(-2.0 * ts)) - np.log(2.0 * ts)
    return np.where(small, t * t / 6.0, big)


def _log_divdiff_exp(a, b):
    """log((e^a - e^b) / (a - b)), continuous at a == b."""
    return 0.5 * (a + b) + _log_sinhc(0.5 * (a - b))


def _log_expit(x):
    """log(1 / (1 + e^-x)), without overflow at either tail."""
    return np.minimum(x, 0.0) - np.log1p(np.exp(-np.abs(x)))


def _logsumexp(x):
    """log(sum(e^x)) over the last axis, kept as a length-1 axis; shifted by
    each row's maximum, which must be finite."""
    top = np.max(x, axis=-1, keepdims=True)
    return top + np.log(np.sum(np.exp(x - top), axis=-1, keepdims=True))


def _masked(mask, values):
    out = np.full(mask.shape, -np.inf)
    out[mask] = values
    return out


def _scalar_positive_density(params, tag):
    fam = params.family
    if tag == "identity":

        def logdens(z):
            mask = np.isfinite(z) & (z > 0.0)
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                return _masked(mask, distributions.log_pdf(params, z[mask]))

        boundary = lambda z: float(np.min(z))
    elif tag == "log":
        # substitute x = e^z and add the Jacobian term z in closed form
        if fam == "exponential":
            lam = params.lam
            c = np.log(lam)
            body = lambda z: c + z - lam * np.exp(z)
        elif fam == "gamma":
            a, lam = params.alpha, params.lam
            c = a * np.log(lam) - distributions._gammaln(a)
            body = lambda z: c + a * z - lam * np.exp(z)
        elif fam == "inverse_gamma":
            a, lam = params.alpha, params.lam
            c = a * np.log(lam) - distributions._gammaln(a)
            body = lambda z: c - a * z - lam * np.exp(-z)
        else:
            k = params.k
            c = -0.5 * k * np.log(2.0) - distributions._gammaln(0.5 * k)
            body = lambda z: c + 0.5 * k * z - 0.5 * np.exp(z)

        def logdens(z):
            mask = np.isfinite(z)
            with np.errstate(over="ignore"):
                out = _masked(mask, body(z[mask]))
            return np.where(np.isnan(out), -np.inf, out)

        boundary = lambda z: np.inf
    else:  # sqrt, the tag resolved against the family
        # substitute x = z^2 on z > 0 and add log(2z); log z collected once
        log2 = np.log(2.0)
        if fam == "exponential":
            lam = params.lam
            c = np.log(lam) + log2
            body = lambda z: c + np.log(z) - lam * z * z
        elif fam == "gamma":
            a, lam = params.alpha, params.lam
            c = a * np.log(lam) - distributions._gammaln(a) + log2
            body = lambda z: c + (2.0 * a - 1.0) * np.log(z) - lam * z * z
        elif fam == "inverse_gamma":
            a, lam = params.alpha, params.lam
            c = a * np.log(lam) - distributions._gammaln(a) + log2
            body = lambda z: c - (2.0 * a + 1.0) * np.log(z) - lam / (z * z)
        else:
            k = params.k
            c = (1.0 - 0.5 * k) * np.log(2.0) - distributions._gammaln(0.5 * k)
            body = lambda z: c + (k - 1.0) * np.log(z) - 0.5 * z * z

        def logdens(z):
            mask = np.isfinite(z) & (z > 0.0)
            with np.errstate(divide="ignore", over="ignore"):
                return _masked(mask, body(z[mask]))

        boundary = lambda z: float(np.min(z))

    centers = {
        "exponential": lambda: 1.0 / params.lam,
        "gamma": lambda: params.alpha / params.lam,
        "inverse_gamma": lambda: params.lam / (params.alpha + 1.0),
        "chi_squared": lambda: params.k,
    }
    x0 = centers[fam]()
    init = {"identity": x0, "log": np.log(x0), "sqrt": np.sqrt(x0)}[tag]
    return logdens, logdens, boundary, lambda: np.array([init])


def _beta_density(params, tag):
    a, b = params.alpha, params.beta
    logB = distributions._betaln(a, b)
    if tag == "identity":

        def logdens(z):
            mask = np.isfinite(z) & (z > 0.0) & (z < 1.0)
            zv = z[mask]
            with np.errstate(divide="ignore"):
                vals = (a - 1.0) * np.log(zv) + (b - 1.0) * np.log1p(-zv) - logB
            return _masked(mask, vals)

        boundary = lambda z: float(min(np.min(z), np.min(1.0 - z)))
        init = a / (a + b)
    else:  # logit

        def logdens(z):
            mask = np.isfinite(z)
            zv = z[mask]
            return _masked(mask, a * _log_expit(zv) + b * _log_expit(-zv) - logB)

        boundary = lambda z: np.inf
        init = np.log(a) - np.log(b)
    return logdens, logdens, boundary, lambda: np.array([init])


def _dirichlet_density(params, tag):
    alpha = params.alpha
    K = alpha.size
    logB = sum(map(distributions._gammaln, alpha)) - distributions._gammaln(np.sum(alpha))

    if tag == "identity":
        # chart u = y_{1:K-1}; the density w.r.t. Lebesgue on the chart is
        # the standard Dirichlet density
        def logdens(u):
            # a finite row whose sum overflows, such as (-1e308, -1e308), lies
            # off the simplex, so it is masked out and gives -inf
            with np.errstate(over="ignore", invalid="ignore"):
                last = 1.0 - np.sum(u, axis=-1)
            mask = np.all(np.isfinite(u), axis=-1) & np.all(u > 0.0, axis=-1) & (last > 0.0)
            uv = u[mask]
            lv = last[mask]
            with np.errstate(divide="ignore"):
                vals = (
                    np.sum((alpha[:-1] - 1.0) * np.log(uv), axis=-1)
                    + (alpha[-1] - 1.0) * np.log(lv)
                    - logB
                )
            return _masked(mask, vals)

        def boundary(u):
            return float(min(np.min(u), 1.0 - np.sum(u)))

        init = lambda: (alpha / np.sum(alpha))[:-1]
    else:  # softmax_inverse
        # chart u = x_{1:K-1} on the centered hyperplane, x_K = -sum(u);
        # y = softmax(x); density picks up log K + sum_k log y_k
        logK = np.log(K)

        def logdens(u):
            with np.errstate(over="ignore", invalid="ignore"):
                x = np.concatenate([u, -np.sum(u, axis=-1, keepdims=True)], axis=-1)
            # a finite row whose implied last coordinate overflows, such as
            # (-1e308, -1e308), gives -inf as an infinite row does
            mask = np.all(np.isfinite(x), axis=-1)
            x = x[mask]
            with np.errstate(over="ignore", invalid="ignore"):
                logy = x - _logsumexp(x)
            return _masked(mask, np.sum(alpha * logy, axis=-1) - logB + logK)

        boundary = lambda u: np.inf
        la = np.log(alpha)
        init = lambda: (la - np.mean(la))[:-1]
    if K == 2:  # a dim-1 density takes its points as an (m,) vector, not one chart row
        chart = logdens
        logdens = lambda u: chart(u[..., None])
    return logdens, logdens, boundary, init


def _matrix_density(params, tag):
    fam = params.family
    p = params.p
    d = p * (p + 1) // 2
    pairs = matrixops.vech_pairs(p)
    cross_pairs = [(i, j) for i, j in pairs if i < j]

    if fam == "wishart":
        n, V = params.n, params.V
        Vinv = np.linalg.inv(V)
        logZ = (
            -0.5 * n * p * np.log(2.0)
            - 0.5 * n * np.linalg.slogdet(V)[1]
            - distributions._multigammaln(0.5 * n, p)
        )
        X0 = n * V  # the Newton start on the support; other bases start at its image
    else:
        nu, Psi = params.nu, params.Psi
        logZ = (
            0.5 * nu * np.linalg.slogdet(Psi)[1]
            - 0.5 * nu * p * np.log(2.0)
            - distributions._multigammaln(0.5 * nu, p)
        )
        X0 = Psi / (nu + p + 1.0)

    def eig(z):
        # unvech of a (k, d) stack is batch-innermost; on a C-contiguous copy
        # the traces below sum each matrix in the order of a single one
        Y = np.ascontiguousarray(matrixops.unvech(z, p))
        w, U = np.linalg.eigh(Y)
        return Y, w, U

    def trace_with(A, w, U, fw):
        # tr(A @ U diag(fw) U^T) without forming the full product
        M = (U * fw[..., None, :]) @ np.swapaxes(U, -1, -2)
        return np.einsum("ij,...ji->...", A, M)

    if tag == "identity":

        def objective(z):
            Y, w, U = eig(z)
            mask = np.all(np.isfinite(w), axis=-1) & (np.min(w, axis=-1) > 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                logdet = np.sum(np.log(np.where(w > 0.0, w, 1.0)), axis=-1)
                if fam == "wishart":
                    vals = (
                        0.5 * (n - p - 1.0) * logdet
                        - 0.5 * np.einsum("ij,...ji->...", Vinv, Y)
                        + logZ
                    )
                else:
                    winv = np.where(w > 0.0, 1.0 / np.where(w > 0.0, w, 1.0), 0.0)
                    vals = (
                        -0.5 * (nu + p + 1.0) * logdet
                        - 0.5 * trace_with(Psi, w, U, winv)
                        + logZ
                    )
            return np.where(mask, vals, -np.inf)

        density = objective
        boundary = lambda z: float(np.min(np.linalg.eigvalsh(matrixops.unvech(z, p))))
        init = lambda: matrixops.vech(X0)
    elif tag == "matrix_log":

        def objective_eig(z):
            Y, w, U = eig(z)
            tr = np.einsum("...ii->...", Y)
            with np.errstate(over="ignore"):
                if fam == "wishart":
                    vals = 0.5 * (n - p + 1.0) * tr - 0.5 * trace_with(Vinv, w, U, np.exp(w)) + logZ
                else:
                    vals = (
                        -0.5 * (nu + p - 1.0) * tr
                        - 0.5 * trace_with(Psi, w, U, np.exp(-w))
                        + logZ
                    )
            return np.where(np.isfinite(vals), vals, -np.inf), w

        def density(z):
            base, w = objective_eig(z)
            for i, j in cross_pairs:
                base = base + _log_divdiff_exp(w[..., i], w[..., j])
            return base

        boundary = lambda z: np.inf
        Y0 = _batched_funm(X0, np.log, "matrix log")
        init = lambda: matrixops.vech(Y0)
    else:  # matrix_sqrt

        def objective_eig(z):
            Y, w, U = eig(z)
            mask = np.all(np.isfinite(w), axis=-1) & (np.min(w, axis=-1) > 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                logdet = np.sum(np.log(np.where(w > 0.0, w, 1.0)), axis=-1)
                if fam == "wishart":
                    vals = (
                        (n - p) * logdet
                        - 0.5 * np.einsum("ij,...ji->...", Vinv, Y @ Y)
                        + logZ
                        + p * np.log(2.0)
                    )
                else:
                    winv2 = np.where(w > 0.0, 1.0 / np.where(w > 0.0, w * w, 1.0), 0.0)
                    vals = (
                        -(nu + p) * logdet
                        - 0.5 * trace_with(Psi, w, U, winv2)
                        + logZ
                        + p * np.log(2.0)
                    )
            return np.where(mask, vals, -np.inf), w

        def density(z):
            base, w = objective_eig(z)
            with np.errstate(divide="ignore", invalid="ignore"):
                for i, j in cross_pairs:
                    s = w[..., i] + w[..., j]
                    base = base + np.where(s > 0.0, np.log(np.where(s > 0.0, s, 1.0)), -np.inf)
            return np.where(np.isnan(base), -np.inf, base)

        boundary = lambda z: float(np.min(np.linalg.eigvalsh(matrixops.unvech(z, p))))
        Y0 = _batched_funm(X0, np.sqrt, "matrix sqrt")
        init = lambda: matrixops.vech(Y0)
    if tag != "identity":
        objective = lambda z: objective_eig(z)[0]
    return density, objective, boundary, init, d


def push_forward(params, basis):
    """Build the TransformedDensity of `params` under `basis`, a tag or a
    BasisTransform."""
    fam = params.family
    basis = resolve_basis(fam, basis, _size_of(params))

    if fam in _SCALAR_POSITIVE:
        logdens, logobj, bdry, init = _scalar_positive_density(params, basis.tag)
        dim = 1
    elif fam == "beta":
        logdens, logobj, bdry, init = _beta_density(params, basis.tag)
        dim = 1
    elif fam == "dirichlet":
        logdens, logobj, bdry, init = _dirichlet_density(params, basis.tag)
        dim = params.K - 1
    else:
        logdens, logobj, bdry, init, dim = _matrix_density(params, basis.tag)

    return TransformedDensity(params, basis, dim, logdens, logobj, bdry, init)


# ---------------------------------------------------------------------------
# numeric Laplace oracle


def _objective_fn(density):
    """f(Z): the log objective of `density` at each row of a (k, d) stack of
    points, in one call of its `log_objective` on the stack (on the (k,)
    column when d = 1), and -inf wherever it is not finite."""
    column = density.dim == 1
    log_objective = density._log_objective  # the stack is already well formed

    def f(Z):
        vals = log_objective(Z[:, 0] if column else Z)
        return np.where(np.isfinite(vals), vals, -np.inf)

    return f


@functools.lru_cache(maxsize=None)
def _stencil_index(d, sets):
    """The jobs of `sets` stacked Hessian stencils in d coordinates. A
    diagonal job has a step set, a coordinate i and the unit row e_i; an
    off-diagonal job has a step set, a pair i < j and the unit rows e_i and
    e_j. Read-only, cached per (d, sets)."""
    eye = np.eye(d)
    rows, cols = np.triu_indices(d, 1)
    dset, di = np.repeat(np.arange(sets), d), np.tile(np.arange(d), sets)
    pset, pi, pj = np.repeat(np.arange(sets), rows.size), np.tile(rows, sets), np.tile(cols, sets)
    index = (dset, di, eye[di], pset, pi, pj, eye[pi], eye[pj])
    for part in index:
        part.setflags(write=False)
    return index


def _fd_gradient(f, z):
    """Central-difference gradient of f at z, from one call of f on the 2d
    points z + h_i e_i and z - h_i e_i. A coordinate whose pair is not
    finite halves its step and is evaluated again, in one call with the
    others that failed, up to 60 times. Only finite values are combined."""
    _, di, unit = _stencil_index(z.size, 1)[:3]
    h = _EPS ** (1.0 / 3.0) * (1.0 + np.abs(z))
    g = np.zeros(z.size)
    for _ in range(60):
        E = unit * h
        fp, fm = f(np.concatenate((z + E, z - E))).reshape(2, -1)
        ok = np.isfinite(fp) & np.isfinite(fm)
        g[di[ok]] = (fp[ok] - fm[ok]) / (2.0 * h[di[ok]])
        di, unit = di[~ok], unit[~ok]
        if not di.size:
            return g
        h[di] *= 0.5
    raise NoValidLaplace("gradient not evaluable near the domain boundary")


def _fd_hessians(f, z, steps):
    """Central-difference Hessians of f at z, one per row of the (s, d) array
    `steps`, from one call of f on z, the diagonal points z +- h_i e_i and
    the off-diagonal points (z +- h_i e_i) +- h_j e_j of every step set. A
    coordinate, or a pair, whose points are not all finite halves its steps
    and is evaluated again, in one call with the others that failed, up to
    40 times. Only finite values are combined."""
    s, d = steps.shape
    dset, di, Ud, pset, pi, pj, Ui, Uj = _stencil_index(d, s)
    dh, phi, phj = steps[dset, di], steps[pset, pi], steps[pset, pj]
    H = np.zeros((s, d, d))
    f0 = None
    for _ in range(40):
        Ed = Ud * dh[:, None]
        parts = [z + Ed, z - Ed]
        if pi.size:
            Ei, Ej = Ui * phi[:, None], Uj * phj[:, None]
            up, down = z + Ei, z - Ei
            parts += [up + Ej, up - Ej, down + Ej, down - Ej]
        vals = f(np.concatenate(parts if f0 is not None else [z[None]] + parts))
        if f0 is None:
            f0, vals = vals[0], vals[1:]
        fp, fm = vals[: 2 * di.size].reshape(2, -1)
        ok = np.isfinite(fp) & np.isfinite(fm)
        H[dset[ok], di[ok], di[ok]] = (fp[ok] - 2.0 * f0 + fm[ok]) / (dh[ok] * dh[ok])
        left = ~ok
        dset, di, Ud, dh = dset[left], di[left], Ud[left], 0.5 * dh[left]
        if pi.size:
            fpp, fpm, fmp, fmm = vals[2 * fp.size :].reshape(4, -1)
            ok = np.isfinite(fpp) & np.isfinite(fpm) & np.isfinite(fmp) & np.isfinite(fmm)
            cross = (fpp[ok] - fpm[ok] - fmp[ok] + fmm[ok]) / (4.0 * phi[ok] * phj[ok])
            H[pset[ok], pi[ok], pj[ok]] = H[pset[ok], pj[ok], pi[ok]] = cross
            left = ~ok
            pset, pi, pj, Ui, Uj = pset[left], pi[left], pj[left], Ui[left], Uj[left]
            phi, phj = 0.5 * phi[left], 0.5 * phj[left]
        if not (di.size or pi.size):
            return H
    raise NoValidLaplace("Hessian not evaluable near the domain boundary")


def _hessian_steps(z):
    """The Hessian stencil's default step per coordinate."""
    return 4.0 * _EPS**0.25 * (1.0 + np.abs(z))


def _fd_hessian_refined(f, z):
    """Hessian with curvature-scaled steps and Richardson extrapolation.

    A first pass estimates the per-coordinate curvature; steps are then set
    relative to the local standard deviation rather than the coordinate
    magnitude, and a two-step Richardson combination removes the leading
    truncation error. Both steps run in one stacked stencil.
    """
    base = _hessian_steps(z)
    rough = _fd_hessians(f, z, base[None])[0]
    diag = np.abs(np.diag(rough))
    sigma = 1.0 / np.sqrt(np.maximum(diag, 1e-12))
    # extrapolation removes the h^2 truncation term, so the step can sit
    # well above the bare-roundoff optimum
    steps = np.clip(4.0 * _EPS**0.2 * sigma, 1e-3 * base, 1e3 * base)
    H1, H2 = _fd_hessians(f, z, np.stack((steps, 0.5 * steps)))
    return (4.0 * H2 - H1) / 3.0


# The line search's step fractions 1, 1/2, ..., 2^-46, one objective call per
# chunk of 1, 1, 2, 4, 8, 16 and 15: at most 7 calls, where one each took 47.
_STEP_CHUNKS = np.split(np.ldexp(1.0, -np.arange(47)), [1, 2, 4, 8, 16, 32])


def numeric_laplace(density, init=None, tolerance=1e-8, max_iter=500):
    """Laplace approximation of `density.log_objective` by damped Newton.

    Derivatives are central finite differences; each gradient or Hessian
    stencil is one call of `log_objective` on the stack of its points, so
    `log_objective` must accept a (k, d) stack (a (k,) column when d = 1),
    and the line search evaluates stacks of halved steps (`_STEP_CHUNKS`).
    The convergence test floors the gradient tolerance at the
    finite-difference noise level. A mode on the domain boundary or an
    indefinite Hessian raises NoValidLaplace.
    """
    f = _objective_fn(density)
    z = np.atleast_1d(np.asarray(
        density.initial_point() if init is None else init, dtype=float
    )).copy()
    if z.shape != (density.dim,):
        raise OutOfSupport(f"init must have shape ({density.dim},)")
    fval = float(f(z[None])[0])
    if not np.isfinite(fval):
        raise OutOfSupport("init is outside the transformed domain")

    z0_scale = 1.0 + float(np.linalg.norm(z))
    boundary_tol = 1e-8 * z0_scale

    def near_boundary(point):
        return density.boundary_distance(point) <= boundary_tol

    def ascent(step):
        # the first of z + step, z + step/2, ..., z + step/2^46 above fval,
        # with its value; one call per chunk of fractions
        for fractions in _STEP_CHUNKS:
            cands = z + fractions[:, None] * step
            fcands = f(cands)
            up = np.flatnonzero(fcands > fval)
            if up.size:
                return cands[up[0]], float(fcands[up[0]])
        return None, None

    converged = False
    for _ in range(max_iter):
        g = _fd_gradient(f, z)
        noise = 25.0 * _EPS ** (2.0 / 3.0) * (1.0 + abs(fval)) * np.sqrt(z.size)
        if np.linalg.norm(g) <= max(tolerance, noise):
            converged = True
            break
        H = _fd_hessians(f, z, _hessian_steps(z)[None])[0]
        eigs = np.linalg.eigvalsh(H)
        if eigs[-1] < 0.0:
            step = -np.linalg.solve(H, g)
        else:
            scale = max(np.max(np.abs(eigs)), 1.0)
            step = g / scale
        z_new, f_new = ascent(step)
        if z_new is None:
            # no ascent in this direction; accept the point if the gradient
            # is already at the noise scale, otherwise try plain gradient
            if np.linalg.norm(g) <= 1e3 * max(tolerance, noise):
                converged = True
                break
            z_new, f_new = ascent(g / max(np.linalg.norm(g), 1.0))
            if z_new is None:
                if near_boundary(z):
                    raise NoValidLaplace("mode lies on the domain boundary")
                raise NonConvergence("line search stalled away from a stationary point")
        if near_boundary(z_new):
            raise NoValidLaplace("mode lies on the domain boundary")
        if np.linalg.norm(z_new - z) <= 1e-12 * (1.0 + np.linalg.norm(z)):
            z = z_new
            converged = True
            break
        z, fval = z_new, f_new  # the line search's value at z_new is f(z) of the next step
    if not converged:
        if near_boundary(z):
            raise NoValidLaplace("mode lies on the domain boundary")
        raise NonConvergence(f"no convergence in {max_iter} iterations")

    H = _fd_hessian_refined(f, z)
    H = 0.5 * (H + H.T)
    eigs = np.linalg.eigvalsh(H)
    if eigs[-1] >= -1e-12 * max(1.0, abs(eigs[0])):
        raise NoValidLaplace("Hessian at the mode is not negative definite")
    cov = np.linalg.inv(-H)
    return GaussianApprox(z, 0.5 * (cov + cov.T))
