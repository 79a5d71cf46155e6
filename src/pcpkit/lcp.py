"""Linear complementarity oracles: x >= 0, Mx + q >= 0, <x, Mx+q> = 0.

Two independent solution paths plus a degree counter:

* lemke_solve: complementary pivoting with the covering vector e and a
  lexicographic ratio test (the identity block of the tableau breaks ties),
  which terminates in finitely many pivots at a solution or a secondary ray.
* lcp_enumerate: exhaustive walk of the 2^n complementary patterns with
  exact linear solves; complete at desk scale, and the ground truth the
  polynomial enumerator is compared against on matrix-power instances.
* lcp_degree: signed count of pattern solutions at a small regular value.
  Everything here is a direct linear solve, no Newton iteration, so the
  value is an independent check of tensor_degree on order-2 tensors.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .degree import _P_RETRIES, DegreeEstimate, _draw_p, _Retry
from .errors import BudgetExhaustedError, DegenerateInputError, InvalidInputError
from .tensor_core import Report

__all__ = ["LcpInstance", "LcpResult", "lemke_solve", "lcp_enumerate", "lcp_degree"]

_LEMKE_MAX_DIM = 50
_LEMKE_MAX_PIVOTS = 10_000
_ENUM_MAX_DIM = 12
_ENUM_DEDUPE = 1e-8  # pattern solutions are exact; keep the dedupe tight


@dataclass(frozen=True)
class LcpInstance:
    M: np.ndarray
    q: np.ndarray

    def __init__(self, M, q):
        object.__setattr__(self, "M", np.asarray(M, dtype=np.float64))
        object.__setattr__(self, "q", np.asarray(q, dtype=np.float64))


def _check_mq(inst, q, max_dim: int):
    if isinstance(inst, LcpInstance):
        if q is not None:
            raise InvalidInputError("pass either an LcpInstance or (M, q), not both")
        M, q = inst.M, inst.q
    else:
        if q is None:
            raise InvalidInputError("q is required when M is a bare matrix")
        M = inst
    M = np.asarray(M, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise InvalidInputError("M must be a square matrix")
    n = M.shape[0]
    if q.shape != (n,):
        raise InvalidInputError(f"q must have shape ({n},)")
    if not (np.isfinite(M).all() and np.isfinite(q).all()):
        raise InvalidInputError("M and q must be finite")
    if n > max_dim:
        raise InvalidInputError(f"dimension {n} exceeds the cap {max_dim}")
    return M, q, n


@dataclass
class LcpResult(Report):
    status: str  # solved | ray-termination | infeasible-pattern-exhausted
    solutions: list
    pivots: int | None = None
    patterns_checked: int | None = None
    non_isolated_suspected: bool = False
    diagnostics: dict = field(default_factory=dict)


def _verify_lcp(M, q, x, tol) -> bool:
    w = M @ x + q
    return x.min() >= -tol and w.min() >= -tol and abs(float(x @ w)) <= tol * (
        1 + float(np.abs(x).sum())
    )


def lemke_solve(inst, q=None, tols: Tolerances = DEFAULT_TOLERANCES) -> LcpResult:
    """Lemke's method with covering vector e.

    The tableau carries the identity block of the starting basis, and the
    ratio test compares full lexicographic rows, so cycling is excluded.
    Raises BudgetExhaustedError after _LEMKE_MAX_PIVOTS pivots.
    diagnostics["verified"] checks the answer to tols.feasibility.
    """
    M, q, n = _check_mq(inst, q, _LEMKE_MAX_DIM)
    tol = 1e-10
    if q.min() >= 0.0:
        return LcpResult(
            status="solved",
            solutions=[np.zeros(n)],
            pivots=0,
            diagnostics={"note": "q >= 0, trivial solution"},
        )
    # columns: w_0..w_{n-1} | z_0..z_{n-1} | z0 | rhs
    Z0, RHS = 2 * n, 2 * n + 1
    T = np.zeros((n, 2 * n + 2))
    T[:, :n] = np.eye(n)
    T[:, n : 2 * n] = -M
    T[:, Z0] = -1.0
    T[:, RHS] = q
    basis = list(range(n))  # w_i in row i

    def pivot(r: int, col: int):
        T[r] /= T[r, col]
        for i in range(n):
            if i != r and T[i, col] != 0.0:
                T[i] -= T[i, col] * T[r]
        basis[r] = col

    # first pivot: z0 enters, the lexicographically most negative row leaves
    keys = np.hstack([q[:, None], np.eye(n)])
    r = min(range(n), key=lambda i: tuple(keys[i]))
    pivot(r, Z0)
    entering = n + r  # z_r enters next
    pivots = 1
    while pivots < _LEMKE_MAX_PIVOTS:
        d = T[:, entering]
        cand = np.nonzero(d > tol)[0]
        if cand.size == 0:
            return LcpResult(
                status="ray-termination",
                solutions=[],
                pivots=pivots,
                diagnostics={"entering_variable": int(entering)},
            )
        K = np.hstack([T[cand, RHS : RHS + 1], T[cand, :n]]) / d[cand, None]
        r = cand[min(range(cand.size), key=lambda i: tuple(K[i]))]
        leaving = basis[r]
        pivot(r, entering)
        pivots += 1
        if leaving == Z0:
            x = np.zeros(n)
            for i, b in enumerate(basis):
                if n <= b < 2 * n:
                    x[b - n] = T[i, RHS]
            x = np.maximum(x, 0.0)
            ok = _verify_lcp(M, q, x, tols.feasibility)
            return LcpResult(
                status="solved",
                solutions=[x],
                pivots=pivots,
                diagnostics={"verified": bool(ok)},
            )
        entering = leaving + n if leaving < n else leaving - n
    raise BudgetExhaustedError(f"lemke pivot budget {_LEMKE_MAX_PIVOTS} exhausted")


def _hadamard_scale(B: np.ndarray) -> float:
    if B.size == 0:
        return 1.0
    norms = np.linalg.norm(B, axis=1)
    return float(np.prod(np.maximum(norms, 1.0)))


def lcp_enumerate(inst, q=None, tols: Tolerances = DEFAULT_TOLERANCES) -> LcpResult:
    """Every solution, by walking all complementary patterns exactly.

    A singular pattern submatrix with a consistent system marks a
    non-isolated solution family: the representative least-norm point is
    reported (when sign-feasible) and non_isolated_suspected is set.
    """
    M, q, n = _check_mq(inst, q, _ENUM_MAX_DIM)
    feas = tols.feasibility
    sols: list[np.ndarray] = []
    non_isolated = False
    diag: dict[str, str] = {}
    for size in range(n + 1):
        for alpha in itertools.combinations(range(n), size):
            key = ",".join(str(i + 1) for i in alpha) or "-"
            a = np.array(alpha, dtype=int)
            x = np.zeros(n)
            if size:
                B = M[a[:, None], a[None, :]]
                rhs = -q[a]
                det = float(np.linalg.det(B))
                if abs(det) <= tols.singular_det * _hadamard_scale(B):
                    xa, res, _, _ = np.linalg.lstsq(B, rhs, rcond=None)
                    residual = float(np.abs(B @ xa - rhs).max())
                    if residual > 1e-10 * (1 + float(np.abs(rhs).max())):
                        diag[key] = "singular-inconsistent"
                        continue
                    diag[key] = "singular-consistent"
                    non_isolated = True
                    x[a] = xa
                else:
                    x[a] = np.linalg.solve(B, rhs)
            if x.min() < -feas:
                continue
            y = M @ x + q
            if y.min() < -feas:
                continue
            x = np.maximum(x, 0.0)
            x[np.abs(x) < 1e-12] = 0.0
            sols.append(x)
    kept: list[np.ndarray] = []
    for x in sorted(sols, key=lambda v: tuple(v)):
        if all(np.abs(x - y).max() > _ENUM_DEDUPE for y in kept):
            kept.append(x)
    return LcpResult(
        status="solved" if kept else "infeasible-pattern-exhausted",
        solutions=kept,
        patterns_checked=2**n,
        non_isolated_suspected=non_isolated,
        diagnostics={"patterns": diag} if diag else {},
    )


def lcp_degree(M, seed: int = 0, tols: Tolerances = DEFAULT_TOLERANCES) -> DegreeEstimate:
    """Degree of min{x, Mx} at the origin by exact linear pattern solves,
    at a regular value drawn with seed.

    Requires LCP(M, 0) = {0}. For each branch pattern the piece is a linear
    system B x = p with B mixing identity and M rows; preimages are counted
    with the sign of det B, ties between branches resolved only when every
    branch completion agrees on the sign.
    """
    M, _, n = _check_mq(M, np.zeros(np.asarray(M).shape[0]), _ENUM_MAX_DIM)
    base = lcp_enumerate(M, np.zeros(n), tols)
    zero_ok = (
        not base.non_isolated_suspected
        and len(base.solutions) == 1
        and float(np.abs(base.solutions[0]).max()) <= 1e-12
    )
    if not zero_ok:
        raise InvalidInputError(
            "lcp_degree needs LCP(M,0) = {0}; enumeration found "
            f"{len(base.solutions)} solution(s)"
            + (" and a non-isolated family" if base.non_isolated_suspected else "")
        )
    rng = np.random.default_rng(seed)
    margin = tols.tie_margin
    last = "no attempts"
    for _ in range(_P_RETRIES):
        p = _draw_p(rng, n)
        candidates: list[np.ndarray] = []
        try:
            for size in range(n + 1):
                for alpha in itertools.combinations(range(n), size):
                    B = np.array(M)
                    for i in alpha:
                        B[i, :] = 0.0
                        B[i, i] = 1.0
                    det = float(np.linalg.det(B))
                    if abs(det) <= tols.singular_det * _hadamard_scale(B):
                        x, _, _, _ = np.linalg.lstsq(B, p, rcond=None)
                        res = float(np.abs(B @ x - p).max())
                        if res > 1e-10 * (1 + float(np.abs(p).max())):
                            continue  # p not in range: pattern contributes nothing
                        raise _Retry("consistent singular pattern")
                    candidates.append(np.linalg.solve(B, p))
            preimages = []
            degree = 0
            min_slack = None
            for x in sorted(candidates, key=lambda v: tuple(v)):
                if any(
                    np.abs(x - y).max() <= 1e-9 * (1 + float(np.abs(x).max()))
                    for y, _ in preimages
                ):
                    continue
                a = x - p
                b = M @ x - p
                rows = []
                slacks = []
                ok = True
                for i in range(n):
                    ax, bf = abs(a[i]) <= 1e-10, abs(b[i]) <= 1e-10
                    if ax and bf:
                        rows.append(("x", "F"))
                    elif ax:
                        if b[i] < -margin:
                            ok = False
                            break
                        if b[i] <= margin:
                            raise _Retry("near-tie between branches")
                        rows.append(("x",))
                        slacks.append(float(b[i]))
                    elif bf:
                        if a[i] < -margin:
                            ok = False
                            break
                        if a[i] <= margin:
                            raise _Retry("near-tie between branches")
                        rows.append(("F",))
                        slacks.append(float(a[i]))
                    else:
                        ok = False
                        break
                if not ok:
                    continue
                sign = 0
                for combo in itertools.product(*rows):
                    B = np.array(M)
                    for i, branch in enumerate(combo):
                        if branch == "x":
                            B[i, :] = 0.0
                            B[i, i] = 1.0
                    det = float(np.linalg.det(B))
                    if abs(det) <= tols.singular_det * _hadamard_scale(B):
                        raise _Retry("singular branch completion")
                    s = 1 if det > 0 else -1
                    if sign == 0:
                        sign = s
                    elif s != sign:
                        raise _Retry("tied branches disagree on orientation")
                preimages.append((x, sign))
                degree += sign
                for s in slacks:
                    min_slack = s if min_slack is None else min(min_slack, s)
            return DegreeEstimate(
                value=degree,
                method="regular-value",
                regular_value=p,
                preimages=preimages,
                tie_margin=min_slack,
                diagnostics={"path": "linear-pattern-solves"},
            )
        except _Retry as e:
            last = str(e)
            continue
    raise DegenerateInputError(f"no regular value found in {_P_RETRIES} draws (last: {last})")
