"""Laplace Matching: closed-form bi-directional maps between exponential
families and Gaussians under basis transformations, with a latent-GP
pipeline for non-Gaussian data and Monte Carlo approximation diagnostics.
"""

__version__ = "0.1.0"

from . import (  # noqa: F401
    bridges,
    diagnostics,
    distributions,
    gaussian,
    gp,
    matrixops,
    pipeline,
    transforms,
)
from .bridges import lm_forward, lm_inverse  # noqa: F401
from .distributions import EFParams, pseudo_prior  # noqa: F401
from .errors import LaplaceMatchError  # noqa: F401
from .gaussian import GaussianApprox  # noqa: F401
from .pipeline import Dataset, LMGPConfig, lmgp_v1, lmgp_v2  # noqa: F401
from .transforms import BasisTransform  # noqa: F401
