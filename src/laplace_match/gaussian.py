"""The Gaussian approximation record, the (mu, Sigma) side of every bridge.

`GaussianApprox(mean, cov)` holds a mean (d,) and a dense covariance (d, d)
in the coordinates of the bridge arrays (`bridges.forward_arrays`):

  * scalar rows: (1,) and (1, 1);
  * the Dirichlet softmax row: the centered K-vector and its (K, K)
    covariance, singular along the ones vector;
  * the standard-basis Dirichlet Laplace: the K-vector (a - 1)/s with the
    diagonal covariance (a - 1)/s^2;
  * matrix rows and the Wishart-family identity Laplace: the
    half-vectorized mean and covariance, d = p(p+1)/2;
  * `transforms.numeric_laplace`: its working latent.

`diagnostics.gauss_latent` maps these coordinates to the working latent
coordinates of a basis.
"""

import numpy as np

from .errors import DimensionMismatch, NotPositiveDefinite


class GaussianApprox:
    """Immutable mean vector and dense covariance."""

    __slots__ = ("mean", "cov")

    def __init__(self, mean, cov):
        mean = np.atleast_1d(np.asarray(mean, dtype=float)).copy()
        if mean.ndim != 1:
            raise DimensionMismatch("mean must be one-dimensional")
        d = mean.size
        cov = np.array(cov, dtype=float)
        if cov.shape != (d, d):
            raise DimensionMismatch(f"covariance must have shape ({d}, {d})")
        diag = cov.diagonal()
        # no nonzero entry off the diagonal: a diagonal covariance is
        # symmetric, and positive definite when its entries are positive, so
        # it needs no eigvalsh
        if np.count_nonzero(cov) == np.count_nonzero(diag):
            if diag.min() <= 0.0:
                raise NotPositiveDefinite("variances must be positive")
        else:
            scale = max(abs(cov).max(), 1e-300)
            if abs(cov - cov.T).max() > 1e-10 * scale:
                raise NotPositiveDefinite("covariance must be symmetric")
            cov = 0.5 * (cov + cov.T)
            if cov.diagonal().min() <= 0.0:
                raise NotPositiveDefinite("covariance diagonal entries must be positive")
            w = np.linalg.eigvalsh(cov)
            if w[0] < -1e-10 * w[-1]:
                raise NotPositiveDefinite("covariance is not positive semidefinite")
        mean.setflags(write=False)
        cov.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)

    def __setattr__(self, name, value):
        raise AttributeError("GaussianApprox is immutable")

    @property
    def mu(self):
        """Scalar mean (1-D latents only)."""
        if self.mean.size != 1:
            raise DimensionMismatch("mu is defined for one-dimensional latents")
        return float(self.mean[0])

    @property
    def var(self):
        """Scalar variance (1-D latents only)."""
        if self.mean.size != 1:
            raise DimensionMismatch("var is defined for one-dimensional latents")
        return float(self.cov[0, 0])

    def cov_dense(self):
        """A writable copy of the covariance."""
        return self.cov.copy()

    def to_record(self):
        return {"mean": self.mean.tolist(), "cov": self.cov.tolist()}

    def __repr__(self):
        if self.mean.size == 1:
            return f"GaussianApprox(mu={self.mu:.6g}, var={self.var:.6g})"
        return f"GaussianApprox(dim={self.mean.size})"


def scalar_gaussian(mu, var):
    """One-dimensional GaussianApprox."""
    return GaussianApprox([mu], [[var]])
