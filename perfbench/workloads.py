"""Seeded operation lists for the four workloads.

Each workload function takes the seed and returns a list of Op. The
inputs are made here with plain numpy (coefficient arrays, shifts, boxes),
the expected answers come from oracles.py, and pcpkit only ever sees the
arrays: Op.run builds the pcpkit objects from them and makes one public
call, and that whole call is what the harness times. Op.check judges the
answer without pcpkit; Op.counts reads the per-layer counts the report
carries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from pcpkit import degree, solver, tensor_core

from oracles import (
    apply_terms,
    lcp_solutions,
    linear_degree,
    lipschitz_bound,
    matrix_power_coeffs,
    sets_match,
    signed_root,
)

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    # OK; FAILED for a non-success status on an input that has an answer;
    # WRONG for a success status with an answer the oracle rejects
    check: Callable[[object], str]
    counts: Callable[[object], dict] = field(default=lambda report: {})


def _instance(terms: list[np.ndarray], q: np.ndarray):
    f = tensor_core.PolynomialMap([tensor_core.Tensor(T) for T in terms])
    return tensor_core.PcpInstance(f, q)


def _sdd_matrix(rng, n: int) -> np.ndarray:
    """Strictly diagonally dominant with a positive diagonal: a P-matrix."""
    A = rng.uniform(-1.0, 1.0, size=(n, n))
    off = np.abs(A).sum(axis=1) - np.abs(np.diag(A))
    A[np.diag_indices(n)] = off + rng.uniform(0.5, 1.5, size=n)
    return A


def _eq4_radius(solutions: list) -> float:
    """Search radius of the eq4-equivalence scenario."""
    return max(5.0, 2.0 * max([float(np.abs(x).max()) for x in solutions] + [1.0]))


# --- solve -------------------------------------------------------------------

# (n, k) cycled over the list; (3, 5), the costliest, twice per cycle, so
# the tail falls among many ops of one kind. Now and then every Newton start
# stalls at x = 0, where the Jacobian of (Ax)^[k] vanishes, and solve falls
# back to pattern enumeration: 10-50 times the usual call here. Left out:
# n >= 5, where that fallback raises (enumeration stops at n = 4), and
# (4, 5), where it takes about 5 s, a hundred times the usual call (see
# CHANGES.md).
SOLVE_COMBOS = [(2, 3), (2, 5), (3, 3), (3, 5), (4, 3), (3, 5)]
SOLVE_OPS = 480


def _check_solve(x_star: np.ndarray, rep) -> str:
    if rep.status != "solved":
        return FAILED
    tol = 1e-6 * (1.0 + float(np.abs(x_star).max()))
    return OK if sets_match([x_star], rep.solutions, tol) else WRONG


def _solve_counts(rep) -> dict:
    d = rep.diagnostics
    return {
        "solver.newton_starts": d["newton_starts"],
        "solver.newton_iterations": d["newton_iterations"],
        "solver.newton_converged": d["newton_converged"],
        "solver.pattern_fallbacks": int(d["pattern_fallback"]),
    }


def solve_ops(seed: int) -> list[Op]:
    """PCP((Ax)^[k], q) with A a P-matrix: by Eq. 4 its one solution is that
    of LCP(A, q^[1/k])."""
    rng = np.random.default_rng([seed, 1])
    ops = []
    for i in range(SOLVE_OPS):
        n, k = SOLVE_COMBOS[i % len(SOLVE_COMBOS)]
        A = _sdd_matrix(rng, n)
        q = 1.5 * rng.normal(size=n)
        (x_star,), _ = lcp_solutions(A, signed_root(q, k))
        terms = [matrix_power_coeffs(A, k)]
        cfg = solver.SolveConfig(search_radius=_eq4_radius([x_star]))
        ops.append(Op(
            f"solve n={n} k={k}",
            lambda terms=terms, q=q, cfg=cfg: solver.solve(_instance(terms, q), cfg),
            lambda rep, x_star=x_star: _check_solve(x_star, rep),
            _solve_counts,
        ))
    return ops


# --- enumerate ---------------------------------------------------------------

# (n, k) per op. The seed draws the ENUM_DRAWN instances; ENUM_FIXED come
# from a stream that ignores the seed. From draw to draw one call of the
# larger sizes varies by 30-40 % in time and a run has room for only a few,
# so drawing them would make the figures follow the seed more than the
# program. (4, 5) is left out: one such call takes about 30 s.
ENUM_DRAWN = [(2, 3)] * 34
ENUM_FIXED = [(2, 5), (3, 3), (3, 5), (4, 3)]
_EQ4_MAX_NORM = 20.0


def _check_enumerate(expected: list, rep) -> str:
    if rep.status != "all-solutions-enumerated":
        return FAILED
    return OK if sets_match(expected, rep.solutions, 1e-6) else WRONG


def _enumerate_counts(rep) -> dict:
    patterns = rep.diagnostics["patterns"].values()
    return {
        "solver.patterns_with_roots": sum(p["status"].startswith("roots") for p in patterns),
        "solver.certified_complete": int(rep.completeness == "certified-complete"),
    }


def _eq4_case(rng, n: int, k: int) -> Op:
    """An Eq. 4 instance drawn as the eq4-equivalence scenario draws them:
    the polynomial solution set must be the LCP one.

    Also redrawn: a solution beyond _EQ4_MAX_NORM, from a nearly singular A.
    There the program returns copies of one root a little more than its
    absolute dedupe tolerance apart (CHANGES.md, FOUND), which happened
    on one draw in about 1700, so the failed share would change with the
    seed."""
    while True:
        A = rng.normal(size=(n, n))
        q = 1.5 * rng.normal(size=n)
        expected, non_isolated = lcp_solutions(A, signed_root(q, k))
        if not non_isolated and all(np.abs(x).max() <= _EQ4_MAX_NORM for x in expected):
            break
    terms = [matrix_power_coeffs(A, k)]
    cfg = solver.SolveConfig(search_radius=_eq4_radius(expected))
    return Op(
        f"enumerate n={n} k={k}",
        lambda: solver.enumerate_solutions(_instance(terms, q), cfg),
        lambda rep: _check_enumerate(expected, rep),
        _enumerate_counts,
    )


def enumerate_ops(seed: int) -> list[Op]:
    fixed, rng = np.random.default_rng(2), np.random.default_rng([seed, 2])
    return [_eq4_case(fixed, n, k) for n, k in ENUM_FIXED] + [
        _eq4_case(rng, n, k) for n, k in ENUM_DRAWN
    ]


# --- degree ------------------------------------------------------------------

# R0 matrices A, named for the paper's Example 1 and the linear degrees -1,
# 0, 1 they cover. They are fixed, not drawn: on about one random draw in
# twenty the program misses a preimage beyond its stabilisation radius, so
# a drawn set would fail on some seeds and not others (see CHANGES.md).
EXAMPLE1 = np.array([[-1.0, 1.0], [3.0, -2.0]])
DEGREE_MATRICES = {
    "example1": EXAMPLE1,
    "diag(1,-1)": np.diag([1.0, -1.0]),
    "tridiag(-1,2,-1)": np.array([[2.0, -1.0, 0.0], [-1.0, 2.0, -1.0], [0.0, -1.0, 2.0]]),
    "example1+(1)": np.block([[EXAMPLE1, np.zeros((2, 1))], [np.zeros((1, 2)), np.ones((1, 1))]]),
    "mixed3": np.array([[1.0, 2.0, 0.0], [0.0, -1.0, 1.0], [1.0, 0.0, 1.0]]),
}
DEGREE_POWERS = [("example1", 3), ("example1", 5), ("diag(1,-1)", 3),
                 ("tridiag(-1,2,-1)", 3), ("example1+(1)", 5), ("mixed3", 3)]
# row-diagonally-dominant tensors (n, order) drawn from the seed: twelve of
# each of the two classes the median falls among, six of each other class;
# with the powers one pass takes about 6 s
DEGREE_RDD = [(2, 3), (3, 4)] * 12 + [(2, 4), (2, 5), (2, 6), (3, 6)] * 6


def _rdd_tensor(rng, n: int, order: int) -> np.ndarray:
    """Diagonal entry T[i,...,i] above the absolute sum of the rest of row i:
    an R-tensor, whose degree the paper shows is one."""
    T = rng.uniform(-1.0, 1.0, size=(n,) * order)
    for i in range(n):
        T[(i,) * order] = 0.0
        T[(i,) * order] = np.abs(T[i]).sum() + rng.uniform(0.5, 1.5)
    return T


def _check_degree(expected: int, est) -> str:
    return OK if est.value == expected else WRONG


def _degree_counts(est) -> dict:
    # radius doubles from 1 until two sweeps agree: log2(radius) + 2 sweeps
    return {
        "degree.preimage_sweeps": int(round(math.log2(est.diagnostics["radius"]))) + 2,
        "degree.preimages": len(est.preimages),
    }


def degree_ops(seed: int) -> list[Op]:
    """Degree of min{x, (Ax)^[k]} equals that of min{x, Ax}: x -> (Ax)^[k]
    deforms to x -> Ax through odd increasing maps without new zeros."""
    rng = np.random.default_rng([seed, 3])
    cases = [
        (f"degree (Ax)^[{k}] A={name}", matrix_power_coeffs(DEGREE_MATRICES[name], k),
         linear_degree(DEGREE_MATRICES[name], rng))
        for name, k in DEGREE_POWERS
    ]
    cases += [
        (f"degree rdd n={n} m={order}", _rdd_tensor(rng, n, order), 1)
        for n, order in DEGREE_RDD
    ]
    return [
        Op(
            label,
            lambda T=T: degree.tensor_degree(tensor_core.Tensor(T)),
            lambda est, expected=expected: _check_degree(expected, est),
            _degree_counts,
        )
        for label, T, expected in cases
    ]


# --- certify -----------------------------------------------------------------

# (n, grid points per axis), 1e5 to 1e6 points; each is used once unsolvable
# and once planted, with a tensor term of order 3 or 4; a pass takes about 5 s
CERTIFY_GRIDS = [(2, 317), (2, 1001), (3, 47), (3, 64), (4, 18), (4, 23)]
CERTIFY_OPS = 40
_BOX = 2.0


def _check_certificate(terms, q, cap: float, floor: float, cert) -> str:
    """floor > 0: |min map| >= floor on the box by construction; floor = 0:
    a solution was planted, so the grid residual is at most cap."""
    # the reported minimum must be the residual at the reported argmin
    x = np.asarray(cert.argmin)
    res = float(np.abs(np.minimum(x, apply_terms(terms, x) + q)).max())
    if abs(res - cert.min_residual) > 1e-9 * (1.0 + res):
        return WRONG
    if floor:
        if cert.min_residual < floor * (1 - 1e-12):
            return WRONG
        return OK if cert.status == "no-solution-certified" else FAILED
    if cert.status != "inconclusive":
        return WRONG  # a certificate on a box holding a solution is unsound
    return OK if cert.min_residual <= cap else WRONG


def certify_case(rng, n: int, per_axis: int, order: int, unsolvable: bool) -> Op:
    """A box [0, 2]^n that either cannot hold a solution (row r has only
    nonpositive coefficients and q_r < 0, so |min map| >= |q_r| on the box)
    or holds a planted one, gridded with per_axis points per axis."""
    terms = [rng.normal(size=(n,) * order), rng.normal(size=(n, n))]
    # just above the grid spacing, so the program lays exactly per_axis points
    step = _BOX / (per_axis - 1) * (1 + 1e-9)
    L = lipschitz_bound(terms, _BOX)
    floor = 0.0
    if unsolvable:
        r = int(rng.integers(n))
        for T in terms:
            T[r] = -np.abs(T[r])
        floor = rng.uniform(2.0, 4.0) * L * step / 2.0
        q = rng.normal(size=n)
        q[r] = -floor
    else:
        x_star = np.where(rng.random(n) < 0.5, rng.uniform(0.2, 0.8, n) * _BOX, 0.0)
        slack = np.where(x_star > 0, 0.0, rng.uniform(0.1, 1.0, n))
        q = slack - apply_terms(terms, x_star)
    box = [(0.0, _BOX)] * n
    return Op(
        f"certify n={n} points={per_axis ** n} {'unsolvable' if unsolvable else 'planted'}",
        lambda: solver.certify_unsolvable(_instance(terms, q), box, step),
        lambda cert: _check_certificate(terms, q, L * step / 2.0, floor, cert),
        lambda cert: {"solver.certify.grid_points": cert.grid_points},
    )


def certify_ops(seed: int) -> list[Op]:
    rng = np.random.default_rng([seed, 4])
    ops = []
    for i in range(CERTIFY_OPS):
        n, per_axis = CERTIFY_GRIDS[(i // 2) % len(CERTIFY_GRIDS)]
        ops.append(certify_case(rng, n, per_axis, 3 + (i // 12) % 2, unsolvable=i % 2 == 0))
    return ops


WORKLOADS = {
    "solve": solve_ops,
    "enumerate": enumerate_ops,
    "degree": degree_ops,
    "certify": certify_ops,
}
