"""Symmetric part and half-vectorization of symmetric matrices."""

import numpy as np

from laplace_match import matrixops


def _random_spd(rng, p):
    A = rng.normal(size=(p, p))
    return A @ A.T + 0.1 * np.eye(p)


class TestSym:
    def test_symmetric_part_of_a_stack(self):
        X = np.random.default_rng(5).normal(size=(4, 3, 3))
        S = matrixops.sym(X)
        np.testing.assert_array_equal(S, np.swapaxes(S, -1, -2))
        np.testing.assert_allclose(S[2], 0.5 * (X[2] + X[2].T), atol=1e-15)
        np.testing.assert_array_equal(matrixops.sym(S), S)

    def test_floats_and_layout_of_the_out_of_place_form(self):
        # scaled in place, with the floats and the strides of 0.5 * (X + X^T),
        # also for the unvech layout, whose p x p axes come first in memory
        rng = np.random.default_rng(8)
        for X in (rng.normal(size=(5, 4, 3, 3)), matrixops.unvech(rng.normal(size=(5, 4, 6)), 3)):
            want = 0.5 * (X + np.swapaxes(X, -1, -2))
            got = matrixops.sym(X)
            assert got.tobytes() == want.tobytes() and got.strides == want.strides


class TestVech:
    def test_round_trip(self):
        rng = np.random.default_rng(6)
        for p in (1, 2, 4):
            S = _random_spd(rng, p)
            np.testing.assert_allclose(matrixops.unvech(matrixops.vech(S), p), S, atol=1e-15)

    def test_gathers_equal_the_pairwise_loop_bit_for_bit(self):
        rng = np.random.default_rng(7)
        for p in (1, 2, 3, 5):
            pairs = matrixops.vech_pairs(p)
            z = rng.normal(size=(4, 3, len(pairs)))
            X = np.zeros((4, 3, p, p))
            for k, (i, j) in enumerate(pairs):
                X[..., i, j] = X[..., j, i] = z[..., k]
            np.testing.assert_array_equal(matrixops.unvech(z, p), X)
            np.testing.assert_array_equal(matrixops.unvech(z[1, 2], p), X[1, 2])
            np.testing.assert_array_equal(
                matrixops.vech(X), np.stack([X[..., i, j] for i, j in pairs], axis=-1)
            )
