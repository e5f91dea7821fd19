"""Structure-tagged Gaussian approximations, the (mu, Sigma) side of every
bridge.

Covariance structures: Scalar (one variance), Diagonal (per-coordinate),
Dense (full matrix), ScaledIdentity (sigma^2 times the identity). Domain tags
say which latent space the Gaussian lives on:

  * "scalar"           one-dimensional latent.
  * "vector"           generic d-dimensional latent (numeric oracle output).
  * "simplex"          K-dimensional centered latent of a Dirichlet; the
                       covariance may be singular along the ones vector
                       (positive definite on the centered subspace).
  * "symmetric_matrix" latent symmetric p x p matrix. The mean is stored
                       vectorized (length p^2); a Dense covariance lives on
                       the p(p+1)/2 half-vectorized coordinates, while
                       ScaledIdentity means sigma^2 * I on the unconstrained
                       p^2 coordinates (its half-vectorized restriction has
                       variance sigma^2 on diagonal entries and sigma^2/2 on
                       off-diagonal entries).
"""

import numpy as np

from . import matrixops
from .errors import DimensionMismatch, InvalidParams, NotPositiveDefinite

STRUCTURES = ("scalar", "diagonal", "dense", "scaled_identity")
DOMAINS = ("scalar", "vector", "simplex", "symmetric_matrix")


class GaussianApprox:
    """Mean vector plus structure-tagged covariance with a domain tag."""

    __slots__ = ("mean", "structure", "data", "domain", "centered", "p")

    def __init__(self, mean, structure, data, domain="vector", centered=False, p=None):
        mean = np.atleast_1d(np.asarray(mean, dtype=float)).copy()
        if mean.ndim != 1:
            raise DimensionMismatch("mean must be one-dimensional")
        if structure not in STRUCTURES:
            raise InvalidParams(f"unknown covariance structure {structure!r}")
        if domain not in DOMAINS:
            raise InvalidParams(f"unknown domain tag {domain!r}")
        if domain == "scalar" and mean.size != 1:
            raise DimensionMismatch("scalar domain needs a length-1 mean")
        if domain == "symmetric_matrix":
            if p is None:
                p = int(round(np.sqrt(mean.size)))
            if p * p != mean.size:
                raise DimensionMismatch("symmetric_matrix mean must have length p^2")
        d = self._cov_dim(mean.size, domain, p)
        if structure == "scalar":
            data = float(data)
            if mean.size != 1:
                raise DimensionMismatch("scalar covariance needs a length-1 mean")
            if data <= 0.0:
                raise NotPositiveDefinite("variance must be positive")
        elif structure == "diagonal":
            data = np.asarray(data, dtype=float).copy()
            if data.shape != (d,):
                raise DimensionMismatch(f"diagonal covariance must have shape ({d},)")
            if np.any(data <= 0.0):
                raise NotPositiveDefinite("diagonal covariance entries must be positive")
        elif structure == "dense":
            data = np.asarray(data, dtype=float)
            if data.shape != (d, d):
                raise DimensionMismatch(f"dense covariance must have shape ({d}, {d})")
            scale = max(np.max(np.abs(data)), 1e-300)
            if np.max(np.abs(data - data.T)) > 1e-10 * scale:
                raise NotPositiveDefinite("dense covariance must be symmetric")
            data = 0.5 * (data + data.T)
            w = np.linalg.eigvalsh(data)
            floor = -1e-10 * max(w.max(), 1e-300)
            if (domain == "simplex" and centered and np.min(w) < floor) or (
                not (domain == "simplex" and centered) and np.min(w) <= floor
            ):
                raise NotPositiveDefinite("dense covariance is not positive (semi)definite")
        elif structure == "scaled_identity":
            data = float(data)
            if data <= 0.0:
                raise NotPositiveDefinite("scale must be positive")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "structure", structure)
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "domain", domain)
        object.__setattr__(self, "centered", bool(centered))
        object.__setattr__(self, "p", p)
        self.mean.setflags(write=False)
        if isinstance(data, np.ndarray):
            data.setflags(write=False)

    @staticmethod
    def _cov_dim(mean_size, domain, p):
        if domain == "symmetric_matrix":
            return p * (p + 1) // 2
        return mean_size

    def __setattr__(self, name, value):
        raise AttributeError("GaussianApprox is immutable")

    # -- scalar conveniences ------------------------------------------------

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
        if self.structure == "scalar":
            return float(self.data)
        if self.structure == "diagonal":
            return float(self.data[0])
        if self.structure == "dense":
            return float(self.data[0, 0])
        return float(self.data)

    # -- generic accessors --------------------------------------------------

    def cov_dense(self):
        """Dense covariance on the primary coordinates of the domain."""
        if self.domain == "symmetric_matrix":
            return self.vech_cov()
        d = self.mean.size
        if self.structure == "scalar":
            return np.array([[self.data]])
        if self.structure == "diagonal":
            return np.diag(self.data)
        if self.structure == "dense":
            return np.array(self.data)
        return self.data * np.eye(d)

    # -- simplex-domain accessors -------------------------------------------

    def chart_mean(self):
        """Mean on the (K-1)-coordinate chart (drop the last coordinate)."""
        if self.domain != "simplex":
            raise DimensionMismatch("chart accessors need the simplex domain")
        return self.mean[:-1].copy()

    def chart_cov(self):
        """Covariance on the (K-1)-coordinate chart.

        A centered covariance (kernel along the ones vector) restricts to its
        leading principal block. An uncentered diagonal record (standard-basis
        Dirichlet form) is first conditioned on the constraint hyperplane,
        which reproduces the exact chart Laplace.
        """
        if self.domain != "simplex":
            raise DimensionMismatch("chart accessors need the simplex domain")
        S = self.cov_dense()
        if not self.centered:
            s1 = S @ np.ones(S.shape[0])
            denom = float(np.sum(s1))
            S = S - np.outer(s1, s1) / denom
        return S[:-1, :-1].copy()

    # -- symmetric-matrix-domain accessors ------------------------------------

    def mean_matrix(self):
        """The latent mean as a symmetric p x p matrix."""
        if self.domain != "symmetric_matrix":
            raise DimensionMismatch("mean_matrix needs the symmetric_matrix domain")
        return self.mean.reshape(self.p, self.p).copy()

    def vech_mean(self):
        if self.domain != "symmetric_matrix":
            raise DimensionMismatch("vech accessors need the symmetric_matrix domain")
        return matrixops.vech(self.mean_matrix())

    def vech_cov(self):
        """Covariance on the half-vectorized coordinates."""
        if self.domain != "symmetric_matrix":
            raise DimensionMismatch("vech accessors need the symmetric_matrix domain")
        if self.structure == "dense":
            return np.array(self.data)
        if self.structure == "scaled_identity":
            pairs = matrixops.vech_pairs(self.p)
            return np.diag([self.data if i == j else 0.5 * self.data for i, j in pairs])
        raise DimensionMismatch(f"structure {self.structure!r} not used on matrix latents")

    # -- serialization --------------------------------------------------------

    def to_record(self):
        rec = {
            "mean": self.mean.tolist(),
            "structure": self.structure,
            "domain": self.domain,
        }
        if isinstance(self.data, np.ndarray):
            rec["cov"] = self.data.tolist()
        else:
            rec["cov"] = self.data
        if self.domain == "symmetric_matrix":
            rec["p"] = self.p
        if self.domain == "simplex":
            rec["centered"] = self.centered
        return rec

    def __repr__(self):
        if self.mean.size == 1:
            return f"GaussianApprox(mu={self.mu:.6g}, var={self.var:.6g})"
        return (
            f"GaussianApprox(domain={self.domain}, structure={self.structure}, "
            f"dim={self.mean.size})"
        )


def scalar_gaussian(mu, var):
    """One-dimensional GaussianApprox."""
    return GaussianApprox([mu], "scalar", var, domain="scalar")
