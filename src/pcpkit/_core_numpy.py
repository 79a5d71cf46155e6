"""Numpy kernel for tensor evaluation in monomial form.

A coefficient tensor of order m and dimension n is a dense array of shape
(n,)*m. Applying it to a vector x contracts the trailing m-1 axes:

    value_i = sum over (i2,...,im) of coeffs[i, i2, ..., im] * x_i2 * ... * x_im

The product x_i2 * ... * x_im depends only on the multiset {i2, ..., im}, so
the map has at most C(n+m-2, m-1) distinct monomials. NumpyKernel compiles
the tensor once to that table:

    idx  (M, m-1)   the sorted trailing-index tuples whose coefficients,
                    summed over all permutations of the tuple, are nonzero
    C    (M, n)     those sums; row r holds the coefficients of monomial r

and evaluates value = P @ C, with P[b, r] the product of the entries of X[b]
that idx[r] names. The Jacobian uses a second table of the same form: a
monomial of degree m-1 differentiated by x_j gives, for each position of j in
its tuple, the tuple with that position dropped. Summing C over those gives

    didx (M', m-2)  the distinct dropped tuples
    D    (M', n*n)  D[s, i*n + j] = sum of C[r, i] over (r, position p) with
                    idx[r] minus position p equal to didx[s] and idx[r, p] = j

so the Jacobian is (P' @ D) reshaped to (B, n, n). Both operations are
batched: X has shape (B, n) and the kernel returns (B, n) values and
(B, n, n) Jacobians. Every Tensor evaluates through a NumpyKernel; its
temporaries are (B, M) product tables.
"""

from __future__ import annotations

import numpy as np


def _compile(digits: np.ndarray, n: int, weights: np.ndarray):
    """Group the rows of digits (K, d), each a sorted index tuple, by tuple.

    weights (K, cols) is summed per tuple. Returns the distinct tuples whose
    sums are not all zero, in increasing base-n order and column-major (each
    position's column is contiguous for the gathers of _products), with
    those sums.
    """
    d, cols = digits.shape[1], weights.shape[1]
    keys = digits @ (n ** np.arange(d - 1, -1, -1, dtype=np.int64))
    uniq, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    flat = inverse[:, None] * cols + np.arange(cols)
    sums = np.bincount(flat.ravel(), weights=weights.ravel(), minlength=uniq.size * cols)
    sums = sums.reshape(uniq.size, cols)
    keep = np.any(sums != 0.0, axis=1)
    return np.asfortranarray(digits[first[keep]]), sums[keep]


def _products(X: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(B, M) table: entry [b, r] is the product of X[b, idx[r, k]] over k."""
    if idx.shape[1] == 0:
        return np.ones((X.shape[0], idx.shape[0]))
    P = X[:, idx[:, 0]]
    for k in range(1, idx.shape[1]):
        P *= X[:, idx[:, k]]
    return P


class NumpyKernel:
    """Batched apply/jacobian for one coefficient tensor, in monomial form."""

    name = "numpy"

    def __init__(self, coeffs: np.ndarray):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        self.order = coeffs.ndim
        n = self.dim = coeffs.shape[0]
        d = self.order - 1
        # every trailing-index tuple in row-major order, each sorted
        tuples = np.indices((n,) * d).reshape(d, n**d).T
        tuples.sort(axis=1)
        self.idx, self.C = _compile(tuples, n, coeffs.reshape(n, -1).T)
        if d == 0:
            self.didx, self.D = np.zeros((0, 0), dtype=np.int64), np.zeros((0, n * n))
            return
        # one entry per (monomial r, position p): the tuple without p, the
        # differentiated coordinate j = idx[r, p], and C[r] placed in column j
        M = self.idx.shape[0]
        dropped = np.concatenate([np.delete(self.idx, p, axis=1) for p in range(d)])
        j = self.idx.T.ravel()
        W = np.zeros((M * d, n, n))
        W[np.arange(M * d), :, j] = np.tile(self.C, (d, 1))
        self.didx, self.D = _compile(dropped, n, W.reshape(M * d, n * n))

    def apply(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        return _products(X, self.idx) @ self.C

    def jacobian(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        n = self.dim
        return (_products(X, self.didx) @ self.D).reshape(X.shape[0], n, n)
