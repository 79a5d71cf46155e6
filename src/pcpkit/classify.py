"""Class membership verdicts for tensors and polynomial maps.

Verdict vocabulary: "holds" is reserved for finite, exact checks
(coefficient sign scans, an explicit certificate vector, an identically-zero
form); universal claims established by sampling + polish come back as
"holds-up-to-sampling"; "fails" always carries a concrete witness that
reproduces the violated inequality on re-evaluation.

Properties covered: R0, R, copositive (plain and strict), Z, strong M,
nonnegative-with-positive-diagonal, GUS, strong Q, P-property, plus the
solution cone S = SOL(f_inf, 0) and dual-interior membership of q.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances
from .errors import InvalidInputError
from .solver import (
    SolveConfig,
    _orthant_sphere_roots,
    certify_unsolvable,
    check_sol_infty_zero,
    enumerate_solutions,
    solve,
)
from .tensor_core import MapLike, PcpInstance, PolynomialMap, Report, Tensor, as_map, leading_term

__all__ = [
    "ClassVerdict",
    "ConeSample",
    "is_R0",
    "is_R",
    "is_copositive",
    "is_Z_tensor",
    "is_strong_M",
    "is_nonneg_pos_diag",
    "gus_probe",
    "strong_q_probe",
    "p_property_check",
    "sol_cone_sample",
    "dual_interior_test",
    "PROPERTIES",
    "property_check",
]


@dataclass
class ClassVerdict(Report):
    property: str
    verdict: str  # holds | fails | holds-up-to-sampling
    witness: dict | None = None
    evidence: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict in ("holds", "holds-up-to-sampling")


@dataclass
class ConeSample(Report):
    generators: list  # unit vectors spanning the sampled rays of SOL(f_inf,0)
    exactness: str = "sampled"
    residuals: list = field(default_factory=list)


def _vec(x) -> list[float]:
    return [float(v) for v in np.asarray(x)]


def _as_tensor(A, prop: str) -> Tensor:
    if isinstance(A, Tensor):
        return A
    if isinstance(A, PolynomialMap):
        if not A.is_homogeneous():
            raise InvalidInputError(
                f"{prop} is a coefficient check; it needs a single tensor, "
                f"not a map with terms of orders {sorted(A.terms)}"
            )
        return A.leading
    return Tensor(A)


# --- R0 / R -----------------------------------------------------------------


def is_R0(A: MapLike, seed: int = 0, cfg: SolveConfig = SolveConfig()) -> ClassVerdict:
    """SOL(f_inf, 0) = {0}: the zero-only verdict of the sampled cone check."""
    rep = check_sol_infty_zero(as_map(A), seed=seed, cfg=cfg)
    if rep.zero_only:
        return ClassVerdict(
            property="r0",
            verdict="holds-up-to-sampling",
            evidence={"samples": rep.samples},
        )
    return ClassVerdict(
        property="r0",
        verdict="fails",
        witness={"x": _vec(rep.witness)},
        evidence={"samples": rep.samples},
    )


def _r_search_one_d(F: PolynomialMap, d: np.ndarray, cfg: SolveConfig):
    """First nonzero solution of min{x, F(x)+d} inside the radius, or None.

    Light sweep (no confirmation grid) used to discard d candidates fast;
    the winning candidate is re-checked with the full enumerator.
    """
    light = replace(cfg, grid_per_axis=7, confirm_grid=False)
    rep = enumerate_solutions(PcpInstance(F, d), light)
    for x in rep.solutions:
        if float(np.abs(x).max()) > cfg.tolerances.dedupe:
            return x
    return None


def is_R(
    A: MapLike,
    d_candidates=(),
    n_random: int = 200,
    seed: int = 0,
    cfg: SolveConfig = SolveConfig(),
) -> ClassVerdict:
    """R-property: R0 and SOL(f_inf, d) = {0} for some d > 0.

    Searches d over e, n_random seeded positive vectors, then any
    user-supplied candidates; the first d that survives the light sweep is
    re-verified with the full enumerator.
    """
    F = leading_term(as_map(A))
    r0 = is_R0(F, seed=seed, cfg=cfg)
    if not r0.holds:
        return ClassVerdict(
            property="r",
            verdict="fails",
            witness=r0.witness,
            evidence={"reason": "not R0", "r0": r0.to_json()},
        )
    rng = np.random.default_rng(seed)
    cands = [np.ones(F.dim)]
    cands += [rng.uniform(0.05, 3.0, size=F.dim) for _ in range(n_random)]
    cands += [np.asarray(d, dtype=np.float64) for d in d_candidates]
    first_witness = None
    tested = 0
    for d in cands:
        if d.min() <= 0:
            raise InvalidInputError("d candidates must be strictly positive")
        tested += 1
        bad = _r_search_one_d(F, d, cfg)
        if bad is None:
            full = enumerate_solutions(PcpInstance(F, d), cfg)
            nonzero = [
                x for x in full.solutions
                if float(np.abs(x).max()) > cfg.tolerances.dedupe
            ]
            if not nonzero:
                return ClassVerdict(
                    property="r",
                    verdict="holds-up-to-sampling",
                    evidence={
                        "d": _vec(d),
                        "d_tested": tested,
                        "completeness": full.completeness,
                    },
                )
            bad = nonzero[0]
        if first_witness is None:
            first_witness = {"d": _vec(d), "nonzero_solution": _vec(bad)}
    return ClassVerdict(
        property="r",
        verdict="fails",
        witness=first_witness,
        evidence={"d_tested": tested},
    )


# --- copositivity -----------------------------------------------------------


def _simplex_grid(n: int, levels: int) -> np.ndarray:
    pts = []
    for comp in itertools.combinations_with_replacement(range(n), levels):
        v = np.zeros(n)
        for i in comp:
            v[i] += 1.0
        pts.append(v / levels)
    return np.array(pts)


def _project_simplex(v: np.ndarray) -> np.ndarray:
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    rho = np.nonzero(u - css / (np.arange(len(v)) + 1) > 0)[0][-1]
    theta = css[rho] / (rho + 1.0)
    return np.maximum(v - theta, 0.0)


def _projected_descent(obj, grad, project, x0: np.ndarray, step: float, iters: int):
    """Projected gradient descent with a max-norm-scaled step, halved after
    every rejected move; returns the last accepted (x, obj(x))."""
    x = x0.copy()
    fx = obj(x)
    for _ in range(iters):
        g = grad(x)
        xn = project(x - step * g / max(1.0, float(np.abs(g).max())))
        fn = obj(xn)
        if fn < fx - 1e-16:
            x, fx = xn, fn
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return x, fx


def is_copositive(
    F: MapLike,
    mode: str = "sample",
    strict: bool = False,
    seed: int = 0,
    cfg: SolveConfig = SolveConfig(),
) -> ClassVerdict:
    """<F(x), x> >= 0 for all x >= 0 (strict: > 0 for x != 0).

    Homogeneous maps reduce to the standard simplex; general maps get a
    radius sweep over boxes. mode "sample" polishes the worst grid points by
    projected gradient; "simplex-minimize" runs SLSQP minimization from a
    spread of starts. An identically-zero form is detected and reported as
    an exact verdict.
    """
    if mode not in ("sample", "simplex-minimize"):
        raise InvalidInputError("mode must be 'sample' or 'simplex-minimize'")
    Fm = as_map(F)
    n = Fm.dim
    name = "strictly-copositive" if strict else "copositive"
    rng = np.random.default_rng(seed)

    def phi_batch(X):
        return np.einsum("bi,bi->b", Fm.eval_batch(X), X)

    def phi_parts(X):
        return np.abs(Fm.eval_batch(X) * X).sum(axis=1)

    homogeneous = Fm.is_homogeneous()
    if homogeneous:
        levels = {2: 50, 3: 20, 4: 12}.get(n, 8)
        X = np.vstack([
            _simplex_grid(n, levels),
            rng.dirichlet(np.ones(n), size=256),
        ])
    else:
        grids = []
        for radius in (0.5, 1.0, 2.0, 4.0):
            axis = np.linspace(0.0, radius, 7)
            grids.append(np.array(list(itertools.product(axis, repeat=n))))
        X = np.vstack(grids + [rng.uniform(0.0, 4.0, size=(256, n))])
    vals = phi_batch(X)
    cancel = float(np.abs(vals).max()) <= 1e-12 * max(float(phi_parts(X).max()), 1e-12)
    if cancel:
        if strict:
            w = np.ones(n) / n
            return ClassVerdict(
                property=name,
                verdict="fails",
                witness={"x": _vec(w), "value": float(phi_batch(w[None, :])[0])},
                evidence={"identically_zero": True, "samples": int(X.shape[0])},
            )
        return ClassVerdict(
            property=name,
            verdict="holds",
            evidence={"identically_zero": True, "samples": int(X.shape[0])},
        )

    order = np.argsort(vals)
    worst = X[order[:12]]
    best_val = float(vals.min())
    best_x = X[int(np.argmin(vals))].copy()

    def phi(x):
        return float(phi_batch(x[None, :])[0])

    def phi_grad(x):
        return Fm.jacobian(x).T @ x + Fm.eval(x)

    def polish(x0):
        if homogeneous and mode == "simplex-minimize":
            from scipy.optimize import minimize

            res = minimize(
                lambda v: phi(np.maximum(v, 0.0)),
                x0,
                method="SLSQP",
                bounds=[(0.0, 1.0)] * n,
                constraints=[{"type": "eq", "fun": lambda v: v.sum() - 1.0}],
                options={"maxiter": 200, "ftol": 1e-14},
            )
            return _project_simplex(np.asarray(res.x))
        # the simplex for homogeneous maps, the box sweep's [0, 4]^n otherwise
        project = _project_simplex if homogeneous else (lambda v: np.clip(v, 0.0, 4.0))
        return _projected_descent(phi, phi_grad, project, x0, 0.1, 200)[0]

    for x0 in worst:
        x = polish(x0)
        v = phi(x)
        if v < best_val:
            best_val, best_x = v, x
    evidence = {
        "samples": int(X.shape[0]),
        "mode": mode,
        "min_value": best_val,
        "argmin": _vec(best_x),
        "homogeneous": homogeneous,
    }
    if best_val < -1e-10:
        return ClassVerdict(
            property=name,
            verdict="fails",
            witness={"x": _vec(best_x), "value": best_val},
            evidence=evidence,
        )
    if strict:
        interior_floor = best_val > 1e-10
        if not interior_floor:
            return ClassVerdict(
                property=name,
                verdict="fails",
                witness={"x": _vec(best_x), "value": best_val},
                evidence=evidence,
            )
    return ClassVerdict(property=name, verdict="holds-up-to-sampling", evidence=evidence)


# --- coefficient scans ------------------------------------------------------


def _diag_index(n: int, order: int):
    idx = np.arange(n)
    return (idx,) * order


def is_Z_tensor(A) -> ClassVerdict:
    """All off-diagonal entries nonpositive (exact coefficient scan)."""
    T = _as_tensor(A, "z")
    C = np.array(T.coeffs)
    C[_diag_index(T.dim, T.order)] = -np.inf
    worst = float(C.max())
    if worst <= 0.0:
        return ClassVerdict(property="z", verdict="holds",
                            evidence={"max_off_diagonal": worst})
    at = np.unravel_index(int(np.argmax(C)), C.shape)
    return ClassVerdict(
        property="z",
        verdict="fails",
        witness={"index": [int(i) + 1 for i in at], "value": worst},
        evidence={"max_off_diagonal": worst},
    )


def is_nonneg_pos_diag(A) -> ClassVerdict:
    """All entries nonnegative with strictly positive diagonal (exact)."""
    T = _as_tensor(A, "nonneg-pos-diag")
    C = T.coeffs
    diag = C[_diag_index(T.dim, T.order)]
    if float(C.min()) >= 0.0 and float(diag.min()) > 0.0:
        return ClassVerdict(
            property="nonneg-pos-diag",
            verdict="holds",
            evidence={"min_entry": float(C.min()), "min_diagonal": float(diag.min())},
        )
    if float(C.min()) < 0.0:
        at = np.unravel_index(int(np.argmin(C)), C.shape)
        witness = {"index": [int(i) + 1 for i in at], "value": float(C.min())}
    else:
        i = int(np.argmin(diag))
        witness = {"index": [i + 1] * T.order, "value": float(diag.min())}
    return ClassVerdict(
        property="nonneg-pos-diag",
        verdict="fails",
        witness=witness,
        evidence={"min_entry": float(C.min()), "min_diagonal": float(diag.min())},
    )


def is_strong_M(A, restarts: int = 50, seed: int = 0) -> ClassVerdict:
    """Z-tensor with some d > 0 giving f_inf(d) > 0 componentwise.

    The certificate d is searched by projected subgradient ascent of
    min_i f_inf(d)_i over the simplex; a found d is an exact certificate.
    """
    T = _as_tensor(A, "strong-m")
    z = is_Z_tensor(T)
    if not z.holds:
        return ClassVerdict(
            property="strong-m",
            verdict="fails",
            witness=z.witness,
            evidence={"reason": "not a Z-tensor"},
        )
    F = as_map(T)
    n = T.dim
    rng = np.random.default_rng(seed)
    starts = [np.ones(n) / n] + list(rng.dirichlet(np.ones(n), size=restarts - 1))

    def neg_min(d):
        return -float(F.eval(d).min())

    def neg_min_grad(d):
        return -F.jacobian(d)[int(np.argmin(F.eval(d)))]

    best_d, best_min = None, -np.inf
    for d0 in starts:
        # ascent of min_i F(d)_i as descent of its negation, which is exact
        d0 = np.asarray(d0, dtype=np.float64)
        d, val = _projected_descent(neg_min, neg_min_grad, _project_simplex, d0, 0.25, 150)
        val = -val
        if val > best_min:
            best_min, best_d = val, d
        if best_min > 1e-9:
            break
    if best_min > 1e-9:
        return ClassVerdict(
            property="strong-m",
            verdict="holds",
            evidence={"d": _vec(best_d), "min_component": best_min},
        )
    return ClassVerdict(
        property="strong-m",
        verdict="fails",
        witness={"best_d": _vec(best_d), "min_component": best_min},
        evidence={"restarts": restarts, "note": "no positive-image d found"},
    )


# --- GUS / strong Q / P -----------------------------------------------------


def _default_q_samples(n: int, rng) -> list[np.ndarray]:
    qs = [rng.uniform(0.1, 2.0, size=n) for _ in range(8)]
    qs += [rng.uniform(-2.0, -0.1, size=n) for _ in range(8)]
    qs += [rng.uniform(-2.0, 2.0, size=n) for _ in range(12)]
    for _ in range(6):
        q = rng.uniform(-2.0, 2.0, size=n)
        mask = rng.integers(0, 2, size=n).astype(bool)
        if mask.all():
            mask[rng.integers(0, n)] = False
        q[mask] = 0.0
        qs.append(q)
    return qs


def _cluster_reps(solutions, radius: float):
    reps = []
    for x in solutions:
        if not any(np.abs(x - r).max() <= radius for r in reps):
            reps.append(x)
    return reps


def gus_probe(
    A: MapLike,
    q_samples=None,
    seed: int = 0,
    cfg: SolveConfig = SolveConfig(),
) -> ClassVerdict:
    """Globally-unique-solvability probe: every sampled q must yield exactly
    one solution under full enumeration.

    Solutions closer than the flatness scale feasibility**(1/(m-1)) are
    merged before counting: a root of multiplicity up to m-1 admits a ball
    of tolerance-solutions of that radius, which is a resolution limit of
    the residual test rather than genuine multiplicity.
    """
    F = as_map(A)
    n = F.dim
    rng = np.random.default_rng(seed)
    flat = max(
        cfg.tolerances.dedupe,
        float(cfg.tolerances.feasibility ** (1.0 / max(1, F.order - 1))),
    )
    qs = (
        [np.asarray(q, dtype=np.float64) for q in q_samples]
        if q_samples is not None
        else _default_q_samples(n, rng)
    )
    counts = []
    for q in qs:
        rep = enumerate_solutions(PcpInstance(F, q), cfg)
        rep.solutions = _cluster_reps(rep.solutions, flat)
        counts.append(len(rep.solutions))
        if len(rep.solutions) >= 2:
            return ClassVerdict(
                property="gus",
                verdict="fails",
                witness={
                    "q": _vec(q),
                    "solution_a": _vec(rep.solutions[0]),
                    "solution_b": _vec(rep.solutions[1]),
                },
                evidence={"q_tested": len(counts), "flat_merge_radius": flat},
            )
        if not rep.solutions:
            return ClassVerdict(
                property="gus",
                verdict="fails",
                witness={"q": _vec(q)},
                evidence={
                    "q_tested": len(counts),
                    "note": "no solution found within the search radius",
                },
            )
    return ClassVerdict(
        property="gus",
        verdict="holds-up-to-sampling",
        evidence={"q_tested": len(qs), "all_unique": True, "flat_merge_radius": flat},
    )


def _random_lower_terms(order: int, n: int, rng) -> list[Tensor]:
    terms = []
    for k in range(2, order):
        terms.append(Tensor(rng.uniform(-1.0, 1.0, size=(n,) * k)))
    return terms


def strong_q_probe(
    A,
    trials: int = 50,
    seed: int = 0,
    cfg: SolveConfig = SolveConfig(),
    witnesses=(),
) -> ClassVerdict:
    """Solvability of PCP(f, q) for every f with leading term A.

    Checks caller-supplied witness triples (instance, box, step) by
    certificate first, then random trials with lower-order coefficients in
    [-1, 1] and q in [-2, 2]; a failed solve attempts a box certificate. Any
    certified non-existence is a failure witness; otherwise the verdict is
    capped at holds-up-to-sampling, with unresolved trials counted openly.
    """
    T = _as_tensor(A, "strong-q")
    n, m = T.dim, T.order
    if m < 3:
        raise InvalidInputError("strong-Q probe needs a tensor of order >= 3")
    for inst, box, step in witnesses:
        rep = solve(inst, cfg)
        if rep.status == "solved":
            continue
        cert = certify_unsolvable(inst, box, step, cfg.tolerances)
        if cert.certified:
            return ClassVerdict(
                property="strong-q",
                verdict="fails",
                witness={
                    "q": _vec(inst.q),
                    "lower_orders": sorted(
                        o for o in inst.map.terms if o != inst.map.order
                    ),
                    "certificate": cert.to_json(),
                },
                evidence={"source": "supplied witness"},
            )
    rng = np.random.default_rng(seed)
    solved = 0
    unresolved = []
    for t in range(trials):
        lowers = _random_lower_terms(m, n, rng)
        q = rng.uniform(-2.0, 2.0, size=n)
        f = PolynomialMap([T] + lowers)
        inst = PcpInstance(f, q)
        # solutions of perturbed instances can sit far outside any fixed
        # multistart radius, so a failed solve falls back to a pattern
        # enumeration from a coarse grid on a wide box
        rep = solve(inst, cfg)
        found = rep.status == "solved"
        if not found and n <= cfg.pattern_dim_cap:
            wide = replace(
                cfg, search_radius=4096.0, confirm_grid=False, grid_per_axis=5
            )
            enum = enumerate_solutions(inst, wide)
            found = bool(enum.solutions)
        if not found:
            rep2 = solve(inst, cfg.with_radius(8.0 * cfg.search_radius))
            found = rep2.status == "solved"
        if found:
            solved += 1
            continue
        hi = 1.2 * (1.0 + float(np.abs(q).max())) ** (1.0 / max(1, m - 1))
        step_cert = hi / (800 if n <= 2 else 80)
        cert = certify_unsolvable(inst, [(0.0, hi)] * n, step_cert, cfg.tolerances)
        if cert.certified:
            return ClassVerdict(
                property="strong-q",
                verdict="fails",
                witness={"trial": t, "q": _vec(q), "certificate": cert.to_json()},
                evidence={"trials_run": t + 1, "solved": solved},
            )
        unresolved.append(t)
    return ClassVerdict(
        property="strong-q",
        verdict="holds-up-to-sampling",
        evidence={
            "trials": trials,
            "solved": solved,
            "unresolved_trials": unresolved,
            "witnesses_checked": len(tuple(witnesses)),
        },
    )


def p_property_check(
    f: MapLike,
    pair_samples=None,
    seed: int = 0,
    cfg: SolveConfig = SolveConfig(),
) -> ClassVerdict:
    """P-property: max_i (x-y)_i [f(x)-f(y)]_i > 0 for all x != y >= 0.

    Structured pairs (origin vs axes and ones, axis vs axis) come first;
    near-violations are polished by Nelder-Mead over the pair with a
    separation penalty so the witness never collapses to x = y.
    """
    Fm = as_map(f)
    n = Fm.dim
    rng = np.random.default_rng(seed)
    pairs = []
    for t in (0.5, 1.0, 2.0):
        for i in range(n):
            e_i = np.zeros(n)
            e_i[i] = t
            pairs.append((np.zeros(n), e_i))
        pairs.append((np.zeros(n), t * np.ones(n)))
    for i in range(n):
        for j in range(i + 1, n):
            a, b = np.zeros(n), np.zeros(n)
            a[i] = 1.0
            b[j] = 1.0
            pairs.append((a, b))
    for _ in range(256):
        pairs.append((rng.uniform(0, 2, size=n), rng.uniform(0, 2, size=n)))
    if pair_samples is not None:
        pairs += [
            (np.asarray(x, dtype=np.float64), np.asarray(y, dtype=np.float64))
            for x, y in pair_samples
        ]

    def psi(x, y):
        return float(np.max((x - y) * (Fm.eval(x) - Fm.eval(y))))

    sep = 1e-3
    best = None
    for x, y in pairs:
        if np.abs(x - y).max() < sep:
            continue
        v = psi(x, y)
        if best is None or v < best[0]:
            best = (v, x, y)
        if v <= 0.0:
            return ClassVerdict(
                property="p",
                verdict="fails",
                witness={"x": _vec(x), "y": _vec(y), "value": v},
                evidence={"pairs_tested": len(pairs)},
            )

    def objective(z):
        x = np.maximum(z[:n], 0.0)
        y = np.maximum(z[n:], 0.0)
        gap = np.abs(x - y).max()
        penalty = 1e3 * max(0.0, sep - gap) ** 2
        return psi(x, y) + penalty

    from scipy.optimize import minimize

    v0, x0, y0 = best
    res = minimize(
        objective,
        np.concatenate([x0, y0]),
        method="Nelder-Mead",
        options={"maxiter": 2000, "xatol": 1e-10, "fatol": 1e-14},
    )
    xw = np.maximum(res.x[:n], 0.0)
    yw = np.maximum(res.x[n:], 0.0)
    vw = psi(xw, yw)
    if vw <= 0.0 and np.abs(xw - yw).max() >= sep:
        return ClassVerdict(
            property="p",
            verdict="fails",
            witness={"x": _vec(xw), "y": _vec(yw), "value": vw},
            evidence={"pairs_tested": len(pairs), "polished": True},
        )
    return ClassVerdict(
        property="p",
        verdict="holds-up-to-sampling",
        evidence={
            "pairs_tested": len(pairs),
            "min_value": min(v0, vw),
            "polished": True,
        },
    )


# --- solution cone S and its dual -------------------------------------------


def sol_cone_sample(F: MapLike, seed: int = 0, cfg: SolveConfig = SolveConfig()) -> ConeSample:
    """Unit generators of S = SOL(f_inf, 0), collected by sampling the
    nonnegative sphere and polishing with semismooth Newton. The zero
    solution is implicit; S is invariant under positive scaling."""
    _, roots = _orthant_sphere_roots(
        leading_term(as_map(F)), np.random.default_rng(seed), arc=181, levels=7,
        extra=128, tol=1e-13, cfg=cfg,
    )
    gens: list[np.ndarray] = []
    residuals: list[float] = []
    for _, u, r in roots:
        if any(np.abs(u - g).max() <= cfg.tolerances.dedupe for g in gens):
            continue
        gens.append(u)
        residuals.append(r)
    order = sorted(range(len(gens)), key=lambda i: tuple(gens[i]))
    return ConeSample(
        generators=[gens[i] for i in order],
        exactness="sampled",
        residuals=[residuals[i] for i in order],
    )


def dual_interior_test(q, S: ConeSample, tols: Tolerances = DEFAULT_TOLERANCES) -> str:
    """Position of q relative to the dual cone S*: "interior", "boundary",
    or "outside", with |<q, g>| <= tols.dual_strict * ||q|| counting as on
    the boundary. An empty generator list means S = {0}, whose dual is the
    whole space."""
    q = np.asarray(q, dtype=np.float64)
    if not S.generators:
        return "interior"
    scale = tols.dual_strict * float(np.linalg.norm(q))
    vals = [float(q @ g) for g in S.generators]
    if any(v < -scale for v in vals):
        return "outside"
    if any(abs(v) <= scale for v in vals):
        return "boundary"
    return "interior"


# --- property table ---------------------------------------------------------

# Each property name and its check of a map F. The coefficient checks (z,
# nonneg-pos-diag, strong-m) and the strong-Q probe take F's single tensor
# and raise InvalidInputError when F has more than one term.
_CHECKS = {
    "r0": lambda F, cfg: is_R0(F, seed=cfg.seed, cfg=cfg),
    "r": lambda F, cfg: is_R(F, seed=cfg.seed, cfg=cfg),
    "copositive": lambda F, cfg: is_copositive(F, seed=cfg.seed, cfg=cfg),
    "strictly-copositive": lambda F, cfg: is_copositive(F, strict=True, seed=cfg.seed, cfg=cfg),
    "z": lambda F, cfg: is_Z_tensor(F),
    "strong-m": lambda F, cfg: is_strong_M(F, seed=cfg.seed),
    "nonneg-pos-diag": lambda F, cfg: is_nonneg_pos_diag(F),
    "gus": lambda F, cfg: gus_probe(F, seed=cfg.seed, cfg=cfg),
    "strong-q": lambda F, cfg: strong_q_probe(F, seed=cfg.seed, cfg=cfg),
    "p": lambda F, cfg: p_property_check(F, seed=cfg.seed, cfg=cfg),
}
PROPERTIES = tuple(_CHECKS)


def property_check(name: str):
    """The check of a named property, called as check(F, cfg) with a map or
    tensor F and a SolveConfig whose seed it uses; returns a ClassVerdict."""
    if name not in _CHECKS:
        raise InvalidInputError(
            f"unknown property {name!r}; choose from {', '.join(PROPERTIES)}"
        )
    return _CHECKS[name]
