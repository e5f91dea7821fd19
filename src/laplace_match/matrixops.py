"""Symmetric-part and half-vectorization helpers for symmetric matrices.

The matrix bridges work on the free coordinates of a symmetric p x p matrix,
its half-vectorization: the p(p+1)/2 upper-triangle entries in row-major
pair order. Everything operates on plain numpy arrays, on one matrix or on a
stack (..., p, p). The eigenvalue maps of the matrix-log and matrix-sqrt
bases live in `transforms`.
"""

import numpy as np


def sym(X):
    """Symmetric part of a matrix or of each matrix in a stack."""
    return 0.5 * (X + np.swapaxes(X, -1, -2))


def vech_pairs(p):
    """Index pairs (i, j), i <= j, in the canonical half-vectorization order."""
    return [(i, j) for i in range(p) for j in range(i, p)]


def vech(X):
    """Half-vectorize a symmetric matrix (upper triangle, row-major pairs)."""
    X = np.asarray(X, dtype=float)
    p = X.shape[-1]
    idx = vech_pairs(p)
    return np.stack([X[..., i, j] for i, j in idx], axis=-1)


def unvech(z, p):
    """Inverse of vech: rebuild the symmetric p x p matrix."""
    z = np.asarray(z, dtype=float)
    X = np.zeros(z.shape[:-1] + (p, p))
    for k, (i, j) in enumerate(vech_pairs(p)):
        X[..., i, j] = z[..., k]
        X[..., j, i] = z[..., k]
    return X
