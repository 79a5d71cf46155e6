"""Class membership verdicts for tensors and polynomial maps.

Verdict vocabulary: "holds" is reserved for finite, exact checks
(coefficient sign scans, an explicit certificate vector, an identically-zero
form); universal claims established by sampling + polish come back as
"holds-up-to-sampling". What a "fails" rests on depends on the property:

- r0: a verified nonzero solution x of SOL(f_inf, 0).
- z, nonneg-pos-diag, and strong-m on a tensor that is not Z: the offending
  coefficient.
- copositive: an x >= 0 with <F(x), x> below -1e-10 times the sampled scale
  of sum_i |F_i(x) x_i|; strictly-copositive also fails on an x whose value
  is at most 1e-10 times that scale (zero up to rounding), or on an
  identically-zero form.
- gus: a q with two solutions farther apart than the flatness scale.
- strong-q: a supplied instance certified to have no solution in its box.
- p: a pair x != y with max_i (x-y)_i [f(x)-f(y)]_i <= 0.

Two "fails" are sampled negatives, not proofs: is_R after every one of its d
candidates had a nonzero solution (R needs only some d), and is_strong_M on
a Z-tensor when its search finds no d with f_inf(d) > 0.

Properties covered: R0, R, copositive (plain and strict), Z, strong M,
nonnegative-with-positive-diagonal, GUS, strong Q, P-property, plus the
solution cone S = SOL(f_inf, 0) and dual-interior membership of q.

The local searches of the copositivity, strong-M and P checks all run one
optimizer, _projected_descent, on the simplex or a box; the R0, R, GUS and
strong-Q checks run the solver's Newton engine.
"""

from __future__ import annotations

import itertools
import numbers
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
from .tensor_core import (
    MapLike,
    PcpInstance,
    PolynomialMap,
    Report,
    Tensor,
    _as_vector,
    as_map,
    leading_term,
)

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

# Simplex starts of the strong-M certificate search: the barycenter, then Dirichlet draws.
_STRONG_M_RESTARTS = 50


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


def is_R0(A: MapLike, cfg: SolveConfig = SolveConfig()) -> ClassVerdict:
    """SOL(f_inf, 0) = {0}: the zero-only verdict of check_sol_infty_zero."""
    rep = check_sol_infty_zero(as_map(A), cfg)
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


# Seeded random d > 0 that is_R tries after e and before the caller's candidates.
_R_RANDOM_CANDIDATES = 200


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


def is_R(A: MapLike, cfg: SolveConfig = SolveConfig(), d_candidates=()) -> ClassVerdict:
    """R-property: R0 and SOL(f_inf, d) = {0} for some d > 0.

    Searches d over e, _R_RANDOM_CANDIDATES positive vectors drawn with cfg.seed, then
    any user-supplied candidates; the first d that survives the light sweep
    is re-verified with the full enumerator.
    """
    F = leading_term(as_map(A))
    user_ds = [_as_vector(d, F.dim, "d candidate") for d in d_candidates]
    if any(d.min() <= 0 for d in user_ds):
        raise InvalidInputError("d candidates must be strictly positive")
    r0 = is_R0(F, cfg)
    if not r0.holds:
        return ClassVerdict(
            property="r",
            verdict="fails",
            witness=r0.witness,
            evidence={"reason": "not R0", "r0": r0.to_json()},
        )
    rng = np.random.default_rng(cfg.seed)
    cands = [np.ones(F.dim)]
    cands += [rng.uniform(0.05, 3.0, size=F.dim) for _ in range(_R_RANDOM_CANDIDATES)]
    cands += user_ds
    first_witness = None
    tested = 0
    for d in cands:
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
    fx, g = obj(x), grad(x)
    for _ in range(iters):
        xn = project(x - step * g / max(1.0, float(np.abs(g).max())))
        fn = obj(xn)
        if fn < fx - 1e-16:
            x, fx, g = xn, fn, grad(xn)
        else:
            step *= 0.5
            if step < 1e-12:
                break
    return x, fx


def is_copositive(F: MapLike, cfg: SolveConfig = SolveConfig(),
                  strict: bool = False) -> ClassVerdict:
    """<F(x), x> >= 0 for all x >= 0 (strict: > 0 for x != 0).

    Homogeneous maps reduce to the standard simplex; general maps get a
    radius sweep over boxes; either grid gains 256 points drawn with
    cfg.seed. The 12 worst grid points are polished by projected gradient
    descent onto the simplex or the box [0, 4]^n. An identically-zero form
    is detected and reported as an exact verdict. The zero and sign floors
    are relative to the largest sampled sum_i |F_i(x) x_i|, so a verdict
    does not change when F is scaled.
    """
    Fm = as_map(F)
    n = Fm.dim
    name = "strictly-copositive" if strict else "copositive"
    rng = np.random.default_rng(cfg.seed)

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
    # the size of the sampled terms, so every floor below scales with F
    scale = float(phi_parts(X).max())
    if float(np.abs(vals).max()) <= 1e-12 * scale:
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

    # the simplex for homogeneous maps, the box sweep's [0, 4]^n otherwise
    project = _project_simplex if homogeneous else (lambda v: np.clip(v, 0.0, 4.0))
    for x0 in worst:
        x, v = _projected_descent(phi, phi_grad, project, x0, 0.1, 200)
        if v < best_val:
            best_val, best_x = v, x
    evidence = {
        "samples": int(X.shape[0]),
        "min_value": best_val,
        "argmin": _vec(best_x),
        "homogeneous": homogeneous,
    }
    if best_val < -1e-10 * scale or (strict and best_val <= 1e-10 * scale):
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


def is_strong_M(A, cfg: SolveConfig = SolveConfig()) -> ClassVerdict:
    """Z-tensor with some d > 0 giving f_inf(d) > 0 componentwise.

    The certificate d is searched by projected subgradient ascent of
    min_i f_inf(d)_i over the simplex from _STRONG_M_RESTARTS starts drawn
    with cfg.seed; a found d is an exact certificate. Its floor is 1e-9 times
    the largest absolute row sum of the tensor, which bounds |f_inf(d)_i| on
    the simplex. On a Z-tensor, "fails" means that the search found no d.
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
    floor = 1e-9 * float(np.abs(T.coeffs).reshape(n, -1).sum(axis=1).max())
    rng = np.random.default_rng(cfg.seed)
    starts = [np.ones(n) / n] + list(rng.dirichlet(np.ones(n), size=_STRONG_M_RESTARTS - 1))

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
        if best_min > floor:
            break
    if best_min > floor:
        return ClassVerdict(
            property="strong-m",
            verdict="holds",
            evidence={"d": _vec(best_d), "min_component": best_min},
        )
    return ClassVerdict(
        property="strong-m",
        verdict="fails",
        witness={"best_d": _vec(best_d), "min_component": best_min},
        evidence={"restarts": _STRONG_M_RESTARTS, "note": "no positive-image d found"},
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


def gus_probe(A: MapLike, cfg: SolveConfig = SolveConfig(), q_samples=None) -> ClassVerdict:
    """Globally-unique-solvability probe over sampled q: the caller's
    q_samples (at least one) or 34 drawn with cfg.seed.

    Each q runs a full enumeration. Solutions closer than the flatness scale
    feasibility**(1/(m-1)) are merged before counting: a root of
    multiplicity up to m-1 admits a ball of tolerance-solutions of that
    radius, which is a resolution limit of the residual test rather than
    genuine multiplicity. The first q with two solutions after merging is a
    "fails" witness. A q whose enumeration finds none is listed by index in
    evidence["unresolved_q"], since finding none inside the search radius
    does not prove that none exists. Otherwise the verdict is
    holds-up-to-sampling.
    """
    F = as_map(A)
    n = F.dim
    rng = np.random.default_rng(cfg.seed)
    flat = max(
        cfg.tolerances.dedupe,
        float(cfg.tolerances.feasibility ** (1.0 / max(1, F.order - 1))),
    )
    qs = (
        [np.asarray(q, dtype=np.float64) for q in q_samples]
        if q_samples is not None
        else _default_q_samples(n, rng)
    )
    if not qs:
        raise InvalidInputError("gus probe needs at least one q sample")
    unresolved = []
    for i, q in enumerate(qs):
        sols = _cluster_reps(enumerate_solutions(PcpInstance(F, q), cfg).solutions, flat)
        if len(sols) >= 2:
            return ClassVerdict(
                property="gus",
                verdict="fails",
                witness={"q": _vec(q), "solution_a": _vec(sols[0]), "solution_b": _vec(sols[1])},
                evidence={"q_tested": i + 1, "flat_merge_radius": flat},
            )
        if not sols:
            unresolved.append(i)
    return ClassVerdict(
        property="gus",
        verdict="holds-up-to-sampling",
        evidence={"q_tested": len(qs), "unresolved_q": unresolved, "flat_merge_radius": flat},
    )


def _random_lower_terms(order: int, n: int, rng) -> list[Tensor]:
    terms = []
    for k in range(2, order):
        terms.append(Tensor(rng.uniform(-1.0, 1.0, size=(n,) * k)))
    return terms


def strong_q_probe(A, cfg: SolveConfig = SolveConfig(), trials: int = 50,
                   witnesses=()) -> ClassVerdict:
    """Solvability of PCP(f, q) for every f with leading term A.

    Checks caller-supplied witness triples (instance, box, step) by
    certificate first: a certified box is a "fails" witness, which proves
    failure only if the box contains every solution of the instance. Then
    runs trials (>= 1) random instances drawn with cfg.seed: lower-order
    coefficients in [-1, 1] and q in [-2, 2]. Each trial runs solve and, if
    that fails, one wider search: a pattern enumeration on a wide box when
    the dimension is within cfg.pattern_dim_cap, else a solve at 8 times the
    search radius. A random trial never yields "fails": the verdict is
    holds-up-to-sampling, with the trials still unsolved listed openly.
    """
    T = _as_tensor(A, "strong-q")
    n, m = T.dim, T.order
    if m < 3:
        raise InvalidInputError("strong-Q probe needs a tensor of order >= 3")
    if not isinstance(trials, numbers.Integral) or isinstance(trials, bool) or trials < 1:
        raise InvalidInputError(f"trials must be an integer >= 1, got {trials!r}")
    witnesses = list(witnesses)
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
    rng = np.random.default_rng(cfg.seed)
    unresolved = []
    for t in range(trials):
        lowers = _random_lower_terms(m, n, rng)
        q = rng.uniform(-2.0, 2.0, size=n)
        inst = PcpInstance(PolynomialMap([T] + lowers), q)
        if solve(inst, cfg).status == "solved":
            continue
        # solutions of perturbed instances can sit far outside any fixed
        # multistart radius, so a failed solve gets one wider search
        if n <= cfg.pattern_dim_cap:
            wide = replace(cfg, search_radius=4096.0, confirm_grid=False, grid_per_axis=5)
            found = bool(enumerate_solutions(inst, wide).solutions)
        else:
            found = solve(inst, cfg.with_radius(8.0 * cfg.search_radius)).status == "solved"
        if not found:
            unresolved.append(t)
    return ClassVerdict(
        property="strong-q",
        verdict="holds-up-to-sampling",
        evidence={
            "trials": trials,
            "solved": trials - len(unresolved),
            "unresolved_trials": unresolved,
            "witnesses_checked": len(witnesses),
        },
    )


# Worst sampled pairs that p_property_check polishes: on seeded random maps,
# 12 starts miss the violation of a 3 x 3 linear map that 40 starts find.
_P_POLISH_STARTS = 40


def p_property_check(f: MapLike, cfg: SolveConfig = SolveConfig(),
                     pair_samples=None) -> ClassVerdict:
    """P-property: max_i (x-y)_i [f(x)-f(y)]_i > 0 for all x != y >= 0.

    Structured pairs (origin vs axes and ones, axis vs axis), 256 pairs
    drawn from [0, 2]^n with cfg.seed and any caller pairs (each x, y
    finite, >= 0, of length n) are tested first; the first pair with
    psi <= 0 is a witness. Otherwise the worst pairs are polished by
    projected subgradient descent of psi over the box [0, 2]^2n, with a
    separation penalty so the witness never collapses to x = y. min_value
    is the least psi over pairs at least 1e-3 apart in the max norm.
    """
    Fm = as_map(f)
    n = Fm.dim
    rng = np.random.default_rng(cfg.seed)
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
        for x, y in pair_samples:
            x, y = _as_vector(x, n, "pair sample x"), _as_vector(y, n, "pair sample y")
            if min(x.min(), y.min()) < 0.0:
                raise InvalidInputError("pair samples must lie in the nonnegative orthant")
            pairs.append((x, y))

    def psi(x, y):
        return float(np.max((x - y) * (Fm.eval(x) - Fm.eval(y))))

    sep = 1e-3
    tested = []
    for x, y in pairs:
        if np.abs(x - y).max() < sep:
            continue
        v = psi(x, y)
        tested.append((v, x, y))
        if v <= 0.0:
            return ClassVerdict(
                property="p",
                verdict="fails",
                witness={"x": _vec(x), "y": _vec(y), "value": v},
                evidence={"pairs_tested": len(pairs)},
            )

    def objective(z):
        XY = z.reshape(2, n)
        dx, FXY = XY[0] - XY[1], Fm.eval_batch(XY)
        short = max(0.0, sep - float(np.abs(dx).max()))
        return float(np.max(dx * (FXY[0] - FXY[1]))) + 1e3 * short**2

    def subgradient(z):
        # psi's gradient at its arg-max index i, plus the penalty's at the
        # arg-max index j of |x - y|
        XY = z.reshape(2, n)
        dx, FXY, JXY = XY[0] - XY[1], Fm.eval_batch(XY), Fm.jacobian_batch(XY)
        dF = FXY[0] - FXY[1]
        i = int(np.argmax(dx * dF))
        g = np.concatenate([dx[i] * JXY[0, i], -dx[i] * JXY[1, i]])
        g[i] += dF[i]
        g[n + i] -= dF[i]
        j = int(np.argmax(np.abs(dx)))
        short = sep - abs(float(dx[j]))
        if short > 0.0:
            push = 2e3 * short * np.sign(dx[j])
            g[j] -= push
            g[n + j] += push
        return g

    tested.sort(key=lambda t: t[0])
    min_value = tested[0][0]
    for _, x0, y0 in tested[:_P_POLISH_STARTS]:
        z, _ = _projected_descent(
            objective, subgradient, lambda v: np.clip(v, 0.0, 2.0),
            np.concatenate([x0, y0]), 0.1, 50,
        )
        xw, yw = z[:n], z[n:]
        if np.abs(xw - yw).max() < sep:
            continue
        vw = psi(xw, yw)
        min_value = min(min_value, vw)
        if vw <= 0.0:
            return ClassVerdict(
                property="p",
                verdict="fails",
                witness={"x": _vec(xw), "y": _vec(yw), "value": vw},
                evidence={"pairs_tested": len(pairs), "polished": True},
            )
    return ClassVerdict(
        property="p",
        verdict="holds-up-to-sampling",
        evidence={"pairs_tested": len(pairs), "min_value": min_value, "polished": True},
    )


# --- solution cone S and its dual -------------------------------------------


def sol_cone_sample(F: MapLike, cfg: SolveConfig = SolveConfig()) -> ConeSample:
    """Unit generators of S = SOL(f_inf, 0), collected by sampling the
    nonnegative sphere (its random directions drawn with cfg.seed) and
    polishing with semismooth Newton. The zero solution is implicit; S is
    invariant under positive scaling."""
    _, roots = _orthant_sphere_roots(
        leading_term(as_map(F)), np.random.default_rng(cfg.seed), arc=181, levels=7,
        extra=128, tol=1e-13, tols=cfg.tolerances,
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
    whole space. q must be finite and as long as the generators."""
    q = _as_vector(q, len(S.generators[0]) if S.generators else np.size(q), "q")
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
    "r0": is_R0,
    "r": is_R,
    "copositive": is_copositive,
    "strictly-copositive": lambda F, cfg: is_copositive(F, cfg, strict=True),
    "z": lambda F, cfg: is_Z_tensor(F),
    "strong-m": is_strong_M,
    "nonneg-pos-diag": lambda F, cfg: is_nonneg_pos_diag(F),
    "gus": gus_probe,
    "strong-q": strong_q_probe,
    "p": p_property_check,
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
