"""Symmetric-part and half-vectorization helpers for symmetric matrices.

The matrix bridges work on the free coordinates of a symmetric p x p matrix,
its half-vectorization: the p(p+1)/2 upper-triangle entries in row-major
pair order. Everything operates on plain numpy arrays, on one matrix or on a
stack (..., p, p). The eigenvalue maps of the matrix-log and matrix-sqrt
bases live in `transforms`.
"""

import functools

import numpy as np


def sym(X):
    """Symmetric part of a float matrix or of each matrix in a stack: the
    floats and the memory layout of 0.5 * (X + X^T), scaled in place, so
    the only new array is the result."""
    S = X + np.swapaxes(X, -1, -2)
    S *= 0.5
    return S


def vech_pairs(p):
    """Index pairs (i, j), i <= j, in the canonical half-vectorization order."""
    return [(i, j) for i in range(p) for j in range(i, p)]


@functools.lru_cache(maxsize=None)
def _vech_index(p):
    """Row and column indices of the vech entries, in vech order, and the
    (p, p) table of the vech position of each entry (i, j) and (j, i).
    Read-only and cached per p: the oracle's densities half-vectorize one
    point per call."""
    rows, cols = np.triu_indices(p)
    table = np.empty((p, p), dtype=np.intp)
    table[rows, cols] = table[cols, rows] = np.arange(rows.size)
    for index in (rows, cols, table):
        index.setflags(write=False)
    return rows, cols, table


def vech(X):
    """Half-vectorize a symmetric matrix (upper triangle, row-major pairs)."""
    X = np.asarray(X, dtype=float)
    rows, cols, _ = _vech_index(X.shape[-1])
    return X[..., rows, cols]


def unvech(z, p):
    """Inverse of vech: rebuild the symmetric p x p matrix."""
    return np.asarray(z, dtype=float)[..., _vech_index(p)[2]]


def unvech_stack(z, p):
    """unvech into a C-ordered stack, the layout of a prediction's draws.
    unvech's indexing puts the p x p axes first in memory; its callers'
    products and eigensolvers keep that layout, and with it their floats."""
    return np.take(np.asarray(z, dtype=float), _vech_index(p)[2], axis=-1)
