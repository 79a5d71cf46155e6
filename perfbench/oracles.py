"""The harness's own answers, computed with plain numpy and never through pcpkit.

* lcp_solutions: every solution of LCP(M, q) by walking the 2^n
  complementary pieces with exact linear solves. By the paper's Eq. 4,
  PCP((Ax)^[k], q) has the solutions of LCP(A, q^[1/k]).
* linear_degree: the local degree of min{x, Ax} at 0 by regular-value
  counting over the 2^n linear pieces.
* lipschitz_bound: a coefficient bound on the sup-norm Lipschitz constant
  of the min map over a box, used to judge grid certificates.
"""

from __future__ import annotations

import itertools

import numpy as np

_LETTERS = "abcdefghjklmnopqrstuvwxyz"


def matrix_power_coeffs(A: np.ndarray, k: int) -> np.ndarray:
    """Coefficients of the order-(k+1) tensor T with T x^k = (Ax)^[k]."""
    subs = ",".join(f"i{_LETTERS[t]}" for t in range(k))
    return np.einsum(f"{subs}->i{_LETTERS[:k]}", *([A] * k))


def signed_root(v: np.ndarray, k: int) -> np.ndarray:
    return np.sign(v) * np.abs(v) ** (1.0 / k)


def apply_terms(terms: list[np.ndarray], x: np.ndarray) -> np.ndarray:
    """f(x) for f the sum of the given coefficient tensors, contracted one
    trailing axis at a time."""
    out = np.zeros(x.shape[0])
    for T in terms:
        v = T
        while v.ndim > 1:
            v = v @ x
        out += v
    return out


def _pieces(n: int):
    for size in range(n + 1):
        yield from itertools.combinations(range(n), size)


def _hadamard(B: np.ndarray) -> float:
    return float(np.prod(np.maximum(np.linalg.norm(B, axis=1), 1e-300)))


def lcp_solutions(M: np.ndarray, q: np.ndarray, tol: float = 1e-9):
    """(solutions, non_isolated) of LCP(M, q) over all 2^n pieces.

    A singular piece whose system is consistent means a solution family; the
    flag tells the caller to redraw rather than compare against it.
    """
    n = q.shape[0]
    sols: list[np.ndarray] = []
    non_isolated = False
    for alpha in _pieces(n):
        a = list(alpha)
        x = np.zeros(n)
        if a:
            B, rhs = M[np.ix_(a, a)], -q[a]
            if abs(float(np.linalg.det(B))) <= 1e-12 * _hadamard(B):
                xa = np.linalg.lstsq(B, rhs, rcond=None)[0]
                if np.abs(B @ xa - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max()):
                    non_isolated = True
                continue
            x[a] = np.linalg.solve(B, rhs)
        if x.min() >= -tol and (M @ x + q).min() >= -tol:
            x = np.maximum(x, 0.0)
            if all(np.abs(x - y).max() > 1e-8 for y in sols):
                sols.append(x)
    return sols, non_isolated


def linear_degree(A: np.ndarray, rng, margin: float = 1e-6, draws: int = 20) -> int:
    """Degree of min{x, Ax} at 0, for A with nonsingular principal blocks.

    Draws a small p and solves every piece B x = p (row i of B is e_i on the
    x branch, A_i on the A branch). x is a preimage when the branch not
    chosen sits above p, or ties with it exactly; a tied preimage is found
    by several pieces and counts once, if their det signs agree. The signs
    of det B are summed. A near-tie or a singular piece redraws p.
    """
    n = A.shape[0]
    eye = np.eye(n)
    for _ in range(draws):
        p = rng.uniform(-1.0, 1.0, size=n) * 1e-2
        found: list[tuple[np.ndarray, int]] = []
        try:
            for alpha in _pieces(n):
                x_branch = np.zeros(n, dtype=bool)
                x_branch[list(alpha)] = True
                B = np.where(x_branch[:, None], eye, A)
                det = float(np.linalg.det(B))
                if abs(det) <= 1e-12 * _hadamard(B):
                    raise _Redraw
                x = np.linalg.solve(B, p)
                other = np.where(x_branch, A @ x - p, x - p)
                if other.min() < -margin:
                    continue
                tie = np.abs(other) <= 1e-12
                if (~tie & (other <= margin)).any():
                    raise _Redraw
                sign = 1 if det > 0 else -1
                same = [s for y, s in found if np.abs(x - y).max() <= 1e-9]
                if not same:
                    found.append((x, sign))
                elif same[0] != sign:
                    raise _Redraw
        except _Redraw:
            continue
        return sum(s for _, s in found)
    raise ValueError("no regular value found")


class _Redraw(Exception):
    pass


def lipschitz_bound(terms: list[np.ndarray], radius: float) -> float:
    """max(1, L_f): each order-m term adds (m-1) R^(m-2) times its largest
    absolute row sum, a bound on the sup-norm Jacobian of f over the box."""
    L = 0.0
    for T in terms:
        m = T.ndim
        rows = np.abs(T).reshape(T.shape[0], -1).sum(axis=1)
        L += (m - 1) * radius ** (m - 2) * float(rows.max())
    return max(1.0, L)


def sets_match(expected: list, observed: list, tol: float) -> bool:
    """One-to-one match of two point lists within tol in the sup norm."""
    if len(expected) != len(observed):
        return False
    free = list(range(len(observed)))
    for a in expected:
        hit = next((j for j in free if np.abs(a - observed[j]).max() <= tol), None)
        if hit is None:
            return False
        free.remove(hit)
    return True
