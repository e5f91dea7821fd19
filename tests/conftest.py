"""Shared test helpers."""

import numpy as np
import pytest

from laplace_match import gp


def _dense_posterior(model, Xstar):
    """Joint posterior mean and covariance of a fitted GP at Xstar, in dense
    algebra from the model's Cholesky factor (GPML Algorithm 2.1): the
    reference for the per-point marginals of gp.gp_predict."""
    Xs = gp._as_inputs(Xstar)
    kss = model.kernel(Xs, Xs)
    if model.n == 0:
        return np.zeros(kss.shape[0]), kss
    L = model._state["L"]
    v = np.linalg.solve(L, model.kernel(model.X, Xs))
    return v.T @ np.linalg.solve(L, model.mu), kss - v.T @ v


@pytest.fixture
def dense_posterior():
    return _dense_posterior
