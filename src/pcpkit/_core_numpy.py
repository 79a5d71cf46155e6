"""Numpy kernels for dense tensor evaluation.

A coefficient tensor of order m and dimension n is a dense array of shape
(n,)*m. Applying it to a vector x contracts the trailing m-1 axes:

    value_i = sum over (i2,...,im) of coeffs[i, i2, ..., im] * x_i2 * ... * x_im

The Jacobian of that map follows from the product rule, one contraction per
trailing position. Both operations are exposed batched: X has shape (B, n)
and the kernels return (B, n) values and (B, n, n) Jacobians.

These are the only kernels: every Tensor evaluates through a NumpyKernel.
Their temporaries hold (B, n**(m-1)) product tables, so callers with many
rows split them into blocks (see solver._KERNEL_ROWS).
"""

from __future__ import annotations

import numpy as np


def _trailing_products(X: np.ndarray, count: int) -> list[np.ndarray]:
    """Prefix product tables: entry j has shape (B, n**j) and holds the
    products x_{d_1}*...*x_{d_j} over all row-major digit tuples."""
    B = X.shape[0]
    tables = [np.ones((B, 1))]
    for _ in range(count):
        prev = tables[-1]
        tables.append((prev[:, :, None] * X[:, None, :]).reshape(B, -1))
    return tables


class NumpyKernel:
    """Batched apply/jacobian for one coefficient tensor."""

    name = "numpy"

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.ascontiguousarray(coeffs, dtype=np.float64)
        self.order = coeffs.ndim
        self.dim = coeffs.shape[0]
        self._coeffs = coeffs
        # (n, n**(m-1)) matrix view for the apply contraction
        self._mat = coeffs.reshape(self.dim, -1)
        # one (n, n, n**(m-2)) block per trailing position for the Jacobian
        self._jac_blocks = [
            np.ascontiguousarray(
                np.moveaxis(coeffs, p, 1).reshape(self.dim, self.dim, -1)
            )
            for p in range(1, self.order)
        ]

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        W = _trailing_products(X, self.order - 1)[-1]
        return W @ self._mat.T

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        B, n = X.shape[0], self.dim
        d = self.order - 1
        J = np.zeros((B, n, n))
        if d == 0:
            return J
        prefix = _trailing_products(X, d - 1)
        # suffix[j]: products over the last j trailing digits
        suffix = [np.ones((B, 1))]
        for _ in range(d - 1):
            prev = suffix[-1]
            suffix.append((X[:, :, None] * prev[:, None, :]).reshape(B, -1))
        for p in range(d):
            W_p = (prefix[p][:, :, None] * suffix[d - 1 - p][:, None, :]).reshape(B, -1)
            J += np.tensordot(W_p, self._jac_blocks[p], axes=([1], [2]))
        return J
