"""Solvers for PCP(f, q).

The natural residual Phi(x) = min{x, f(x)+q} vanishes exactly at solutions,
so solving is root finding on Phi. One engine, _newton_batch, runs damped
semismooth Newton from many starts at once: on the min map its generalized
Jacobian takes row e_i where x_i < (f(x)+q)_i and the f-row otherwise, ties
going to the f-row. The 2^n smooth pieces of min{x, f(x)+q} = p run on it
as masked rows: on the piece of an index set beta, x_i = p_i off beta and
f_beta(x) + (q-p)_beta = 0, and the rows of every piece and start share
one call. Solutions are the pieces with p = 0; the degree module counts
preimages of a small p with q = 0 on the same pieces.

enumerate_solutions is the exhaustive desk-scale oracle: one engine call
runs every piece from a deterministic grid, and each piece's roots are
filtered by the sign conditions and deduplicated from its own rows.

certify_unsolvable gives a grid + Lipschitz-margin certificate of
non-existence on a compact box; it reports "inconclusive" rather than guess.
"""

from __future__ import annotations

import itertools
import numbers
import time
from dataclasses import dataclass, field, replace

import numpy as np

from .backend import backend_name
from .config import DEFAULT_TOLERANCES, Tolerances, is_positive_real
from .errors import InvalidInputError
from .tensor_core import MapLike, PcpInstance, Report, _jsonable, as_map, leading_term

__all__ = [
    "SolveConfig",
    "SolveReport",
    "VerifyReport",
    "ZeroConeReport",
    "BoundednessReport",
    "UnsolvableCertificate",
    "solve",
    "enumerate_solutions",
    "verify_solution",
    "check_sol_infty_zero",
    "boundedness_probe",
    "certify_unsolvable",
]


# Least value of each integer field of SolveConfig.
_COUNT_MINIMA = {
    "seed": 0,
    "multistart": 0,
    "newton_max_iters": 0,
    "max_halvings": 0,
    "grid_per_axis": 1,
    "pattern_dim_cap": 0,
}


@dataclass(frozen=True)
class SolveConfig:
    """Knobs for the Newton solvers. seed fixes every random draw."""

    seed: int = 0
    multistart: int = 64
    search_radius: float = 10.0
    newton_max_iters: int = 100
    armijo_factor: float = 0.5
    max_halvings: int = 30
    grid_per_axis: int = 9
    pattern_dim_cap: int = 4
    confirm_grid: bool = True
    tolerances: Tolerances = DEFAULT_TOLERANCES

    def __post_init__(self):
        for name, least in _COUNT_MINIMA.items():
            v = getattr(self, name)
            if not isinstance(v, numbers.Integral) or isinstance(v, bool) or v < least:
                raise InvalidInputError(f"{name} must be an integer >= {least}, got {v!r}")
        if not is_positive_real(self.search_radius):
            raise InvalidInputError(
                f"search_radius must be a finite number > 0, got {self.search_radius!r}"
            )
        if not (is_positive_real(self.armijo_factor) and self.armijo_factor < 1):
            raise InvalidInputError(
                f"armijo_factor must be in (0,1), got {self.armijo_factor!r}"
            )
        if not isinstance(self.confirm_grid, bool):
            raise InvalidInputError(
                f"confirm_grid must be true or false, got {self.confirm_grid!r}"
            )
        if not isinstance(self.tolerances, Tolerances):
            raise InvalidInputError("tolerances must be a Tolerances record")

    def with_radius(self, radius: float) -> "SolveConfig":
        return replace(self, search_radius=radius)

    def to_json(self) -> dict:
        return _jsonable(self)


@dataclass
class VerifyReport:
    ok: bool
    max_violation: float
    negative_x: float
    negative_y: float
    complementarity: float
    tol: float

    def to_json(self) -> dict:
        return _jsonable(self)


@dataclass
class SolveReport(Report):
    status: str  # solve: solved | budget-exhausted; enumerate: all-solutions-enumerated
    solutions: list
    residuals: list
    verifications: list
    seed: int
    config: SolveConfig
    completeness: str | None = None
    diagnostics: dict = field(default_factory=dict)
    wall_time_s: float = 0.0


# --- batched damped Newton ------------------------------------------------

# Rows per kernel call of the Armijo step ladder; a batch larger than this
# tries one step length per call.
_LADDER_ROWS = 256
# Most rows per kernel call: kernel temporaries grow with the rows.
_KERNEL_ROWS = 4096


def _blockwise(fn, X: np.ndarray) -> np.ndarray:
    if X.shape[0] <= _KERNEL_ROWS:
        return fn(X)
    return np.concatenate([fn(X[i : i + _KERNEL_ROWS]) for i in range(0, X.shape[0], _KERNEL_ROWS)])


def _solve_rows(J: np.ndarray, r: np.ndarray, k: np.ndarray, off, singular_tol: float) -> np.ndarray:
    """Directions d with J d = -r, rowwise. A row with |det J| <= singular_tol
    * max(1, max|J|^k) takes the minimum-norm least-squares direction of its
    k x k system (np.linalg.lstsq(rcond=None)'s cutoff), from one stacked
    pseudo-inverse that leaves out the identity entries marked by off;
    d is exactly 0 where off is set."""
    d = np.empty_like(r)
    dets = np.linalg.det(J)
    scale = np.maximum(1.0, np.abs(J).max(axis=(1, 2)) ** k)
    good = np.abs(dets) > singular_tol * scale
    if np.any(good):
        d[good] = np.linalg.solve(J[good], -r[good][..., None])[..., 0]
    bad = ~good
    if np.any(bad):
        Jb = J[bad]
        if off is not None:
            bi, ci = np.nonzero(off[bad])
            Jb[bi, ci, ci] = 0.0
        P = np.linalg.pinv(Jb, np.finfo(np.float64).eps * k[bad])
        d[bad] = (P @ -r[bad][..., None])[..., 0]
    if off is not None:
        d[off] = 0.0
    return d


def _newton_batch(f, q: np.ndarray, X0: np.ndarray, tol: float, max_iters: int,
                  armijo_factor: float, max_halvings: int, box_cap: float,
                  beta: np.ndarray | None = None, p: np.ndarray | None = None):
    """Damped semismooth Newton from all rows of X0 at once.

    Without beta the rows solve min{x, f(x)+q} = 0. With a (B, n) boolean
    beta, row b solves the masked piece where(beta_b, f(x)+q-p, x-p) = 0:
    its Jacobian keeps the f-block on beta_b with identity rows and columns
    elsewhere, so x_i stays p_i off beta_b (where X0 must hold p), det J =
    det J_(beta_b, beta_b), and the singular-scale exponent is |beta_b|.

    Armijo backtracking on the squared residual as a step ladder: the
    lengths 1, a, a^2, ..., a^max_halvings of all refused rows are tried
    together, as many per kernel call as fit in _LADDER_ROWS rows, and each
    row takes its first acceptable one -- the rule of halving one at a
    time. Converged rows freeze; rows with no acceptable step die. Returns
    (X, converged, res_norms, iterations_used).
    """
    X = np.clip(np.array(X0, dtype=np.float64, copy=True), -box_cap, box_cap)
    B, n = X.shape
    if beta is None:
        shift, k, off = q, np.full(B, n), None
    else:
        shift, k, off = q - p, beta.sum(axis=1), ~beta

    def residual(Xr, rows):
        Y = _blockwise(f.eval_batch, Xr) + shift
        if off is None:
            return np.minimum(Xr, Y), Y
        return np.where(off[rows], Xr - p, Y), Y

    def jacobian(Xr, Y, rows):
        J = _blockwise(f.jacobian_batch, Xr)
        if off is None:
            bi, ci = np.nonzero(Xr < Y)  # x-branch rows; ties keep the f-row
            J[bi, ci, :] = 0.0
        else:
            o = off[rows]
            J[o] = 0.0
            J.transpose(0, 2, 1)[o] = 0.0
            bi, ci = np.nonzero(o)
        J[bi, ci, ci] = 1.0
        return J

    steps = np.cumprod(np.r_[1.0, np.full(max_halvings, armijo_factor)])
    r, Y = residual(X, np.arange(B))
    rn = np.abs(r).max(axis=1)
    converged = rn <= tol
    dead = np.zeros(B, dtype=bool)
    iters = 0
    for _ in range(max_iters):
        act = np.nonzero(~converged & ~dead)[0]
        if act.size == 0:
            break
        iters += 1
        Xa, ra, Ya = X[act], r[act], Y[act]
        offa = None if off is None else off[act]
        d = _solve_rows(jacobian(Xa, Ya, act), ra, k[act], offa, singular_tol=1e-14)
        theta0 = np.einsum("bi,bi->b", ra, ra)
        accepted = np.zeros(act.size, dtype=bool)
        h = 0
        while h < steps.size and not accepted.all():
            trial = np.nonzero(~accepted)[0]
            ts = steps[h : h + max(1, _LADDER_ROWS // trial.size)]
            h += ts.size
            Xt = np.clip(Xa[trial] + ts[:, None, None] * d[trial], -box_cap, box_cap).reshape(-1, n)
            rt, Yt = residual(Xt, np.tile(act[trial], ts.size))
            thetat = np.einsum("bi,bi->b", rt, rt).reshape(ts.size, trial.size)
            ok = (thetat <= (1.0 - 1e-4 * ts[:, None]) * theta0[trial]) | (thetat <= tol * tol)
            take = ok.any(axis=0)
            src = ok.argmax(axis=0)[take] * trial.size + np.nonzero(take)[0]
            hit = trial[take]
            Xa[hit], ra[hit], Ya[hit] = Xt[src], rt[src], Yt[src]
            accepted[hit] = True
        X[act], r[act], Y[act] = Xa, ra, Ya
        rn[act] = np.abs(ra).max(axis=1)
        converged[act] = rn[act] <= tol
        dead[act[~accepted & ~converged[act]]] = True
    return X, converged, rn, iters


def _stack_pieces(p: np.ndarray, pieces: list[tuple], nodes: np.ndarray):
    """Full-row starts and branch masks of masked pieces for _newton_batch.

    Piece j takes the f-branch on the indices pieces[j]; its starts are the
    grid nodes^|pieces[j]| on those coordinates and p on the others.
    Returns (X0, beta, offsets); piece j owns rows offsets[j]:offsets[j+1].
    """
    starts = [np.array(list(itertools.product(nodes, repeat=len(idx)))) for idx in pieces]
    offsets = np.cumsum([0] + [U.shape[0] for U in starts])
    X0 = np.repeat(p[None, :], offsets[-1], axis=0)
    beta = np.zeros(X0.shape, dtype=bool)
    for j, (idx, U) in enumerate(zip(pieces, starts)):
        X0[offsets[j] : offsets[j + 1], list(idx)] = U
        beta[offsets[j] : offsets[j + 1], list(idx)] = True
    return X0, beta, offsets


def _float_noise_floor(f, q, X) -> np.ndarray:
    """Rounding-noise scale of evaluating f(x)+q, row-wise.

    Polynomial values of size s carry relative float error, so residuals
    below ~eps*s are unreachable; tolerances are floored here instead of
    rejecting genuine far-out roots.
    """
    cs = max(1.0, max(float(np.abs(t.coeffs).max()) for t in f.terms.values()))
    if np.size(q):
        cs = max(cs, float(np.abs(q).max()))
    amp = (1.0 + np.abs(X).max(axis=-1)) ** f.degree
    return 100.0 * np.finfo(np.float64).eps * cs * amp


def _dedupe(points: list[np.ndarray], tol: float) -> list[np.ndarray]:
    """Points in sorted order, each merged into an earlier kept point y
    when |x - y|_inf <= tol * (1 + |x|_inf)."""
    kept: list[np.ndarray] = []
    for x in sorted(points, key=tuple):
        gap = tol * (1.0 + float(np.abs(x).max()))
        if not kept or np.abs(np.asarray(kept) - x).max(axis=1).min() > gap:
            kept.append(x)
    return kept


def _clean(x: np.ndarray) -> np.ndarray:
    x = np.where(np.abs(x) < 1e-12, 0.0, x)
    return x


# --- public operations ------------------------------------------------------


def verify_solution(
    inst: PcpInstance, x, tol: float | None = None, tols: Tolerances = DEFAULT_TOLERANCES
) -> VerifyReport:
    """Max violation of x >= 0, f(x)+q >= 0, <x, f(x)+q> = 0.

    Without tol, the y and complementarity thresholds of tols are floored
    by the float noise of evaluating f at x (x itself is data and is held
    to the exact feasibility tolerance). An explicit tol is applied
    absolutely to all three violations.
    """
    x = np.asarray(x, dtype=np.float64)
    y = inst.y(x)
    neg_x = max(0.0, float(-x.min()))
    neg_y = max(0.0, float(-y.min()))
    comp = abs(float(x @ y))
    if tol is None:
        noise = float(_float_noise_floor(inst.map, inst.q, x))
        feas_tol = max(tols.feasibility, noise)
        comp_tol = max(tols.complementarity, noise * (1.0 + float(np.abs(x).max())))
        ok = neg_x <= tols.feasibility and neg_y <= feas_tol and comp <= comp_tol
        tol = max(feas_tol, comp_tol)
    else:
        ok = max(neg_x, neg_y, comp) <= tol
    return VerifyReport(
        ok=ok,
        max_violation=max(neg_x, neg_y, comp),
        negative_x=neg_x,
        negative_y=neg_y,
        complementarity=comp,
        tol=tol,
    )


def _collect_verified(inst, X, converged, tols: Tolerances):
    """Converged rows in start order, verified and cleaned; first hit wins."""
    for b in np.nonzero(converged)[0]:
        x = _clean(np.maximum(X[b], 0.0))
        rep = verify_solution(inst, x, tols=tols)
        if rep.ok:
            res = float(np.abs(inst.residual(x)).max())
            return x, res, rep
    return None


def solve(inst: PcpInstance, cfg: SolveConfig = SolveConfig()) -> SolveReport:
    """First verified solution by multistart semismooth Newton on the min map.

    Starts: the origin, the heuristic seed max(0,-q)^{[1/(m-1)]} (signed real
    root for even m-1), and cfg.multistart seeded uniform points in
    [0, search_radius]^n. Falls back to pattern-system seeding before giving
    up, when the dimension is within cfg.pattern_dim_cap; returns
    budget-exhausted when nothing verifies.
    """
    t0 = time.perf_counter()
    f, q, n = inst.map, inst.q, inst.dim
    tols = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    deg = max(1, f.degree)
    heur = np.maximum(0.0, -q) ** (1.0 / deg)
    starts = np.vstack(
        [
            np.zeros(n),
            heur,
            rng.uniform(0.0, cfg.search_radius, size=(cfg.multistart, n)),
        ]
    )
    X, converged, rn, iters = _newton_batch(
        f, q, starts, tol=max(1e-13, tols.root / 100.0), max_iters=cfg.newton_max_iters,
        armijo_factor=cfg.armijo_factor, max_halvings=cfg.max_halvings,
        box_cap=10.0 * cfg.search_radius,
    )
    diagnostics = {
        "backend": backend_name(),
        "newton_starts": int(starts.shape[0]),
        "newton_converged": int(converged.sum()),
        "newton_iterations": iters,
        "pattern_fallback": False,
    }
    near = rn <= np.maximum(tols.root, _float_noise_floor(f, q, X))
    hit = _collect_verified(inst, X, converged | near, tols)
    if hit is None and n <= cfg.pattern_dim_cap:
        # pattern-seeded fallback: the enumeration grid often reaches roots
        # the multistart cloud misses
        diagnostics["pattern_fallback"] = True
        enum = enumerate_solutions(inst, replace(cfg, confirm_grid=False))
        if enum.solutions:
            x = enum.solutions[0]
            hit = (x, enum.residuals[0], enum.verifications[0])
    if hit is None:
        return SolveReport(
            status="budget-exhausted",
            solutions=[],
            residuals=[],
            verifications=[],
            seed=cfg.seed,
            config=cfg,
            diagnostics=diagnostics,
            wall_time_s=time.perf_counter() - t0,
        )
    x, res, rep = hit
    return SolveReport(
        status="solved",
        solutions=[x],
        residuals=[res],
        verifications=[rep],
        seed=cfg.seed,
        config=cfg,
        diagnostics=diagnostics,
        wall_time_s=time.perf_counter() - t0,
    )


def _enumerate_once(inst: PcpInstance, cfg: SolveConfig, per_axis: int):
    """One enumeration sweep; returns (solutions, pattern diagnostics).

    Every piece with a nonempty f-branch set alpha runs in one engine call,
    from a per_axis grid on [0, R]^|alpha|; each piece's roots are read
    from its own rows.
    """
    f, q, n = inst.map, inst.q, inst.dim
    tols = cfg.tolerances
    R = cfg.search_radius
    pieces = [a for size in range(1, n + 1) for a in itertools.combinations(range(n), size)]
    X0, beta, offsets = _stack_pieces(np.zeros(n), pieces, np.linspace(0.0, R, per_axis))
    X, converged, rn, _ = _newton_batch(
        f, q, X0, tol=max(1e-13, tols.root / 100.0), max_iters=cfg.newton_max_iters,
        armijo_factor=cfg.armijo_factor, max_halvings=cfg.max_halvings, box_cap=4.0 * R,
        beta=beta, p=np.zeros(n),
    )
    # residual-based acceptance, floored by the evaluation noise at each
    # point; the converged flag alone would drop roots whose noise floor
    # sits above the Newton tolerance
    gate = np.maximum(tols.root, _float_noise_floor(f, q, X))
    found: list[np.ndarray] = []
    diag: dict[str, dict] = {}
    if q.min() >= -tols.feasibility:
        found.append(np.zeros(n))
        diag["-"] = {"status": "roots:1"}
    else:
        diag["-"] = {"status": "inconsistent", "best_residual": float(max(0.0, -q.min()))}
    for j, alpha in enumerate(pieces):
        lo, hi = offsets[j], offsets[j + 1]
        key = ",".join(str(i + 1) for i in alpha)
        comp = [i for i in range(n) if i not in alpha]
        roots: list[np.ndarray] = []
        for b in lo + np.nonzero(rn[lo:hi] <= gate[lo:hi])[0]:
            u = X[b]
            if u.min() < -tols.feasibility or np.abs(u).max() > R * (1 + 1e-9):
                continue
            x = _clean(np.maximum(u, 0.0))
            y = inst.y(x)
            y_tol = max(tols.feasibility, float(_float_noise_floor(f, q, x)))
            if comp and min(y[i] for i in comp) < -y_tol:
                continue
            roots.append(x)
        roots = _dedupe(roots, tols.dedupe)
        if roots:
            diag[key] = {"status": f"roots:{len(roots)}"}
            found.extend(roots)
            continue
        entry = {"status": "inconsistent", "best_residual": float(rn[lo:hi].min())}
        n_conv = int(converged[lo:hi].sum())
        if n_conv:
            # converged but filtered away by sign conditions
            entry["sign_filtered"] = n_conv
        entry["best_point_norm"] = float(np.abs(X[lo + np.argmin(rn[lo:hi])]).max())
        diag[key] = entry
    return _dedupe(found, tols.dedupe), diag


def enumerate_solutions(inst: PcpInstance, cfg: SolveConfig = SolveConfig()) -> SolveReport:
    """All solutions within the search radius, by complementary patterns.

    Runs each pattern system from a deterministic grid; when
    cfg.confirm_grid is set, repeats with a denser grid and reports
    completeness "certified-complete" only when both sweeps agree
    (an empirical saturation check, not a proof).
    """
    t0 = time.perf_counter()
    n = inst.dim
    if n > cfg.pattern_dim_cap:
        raise InvalidInputError(
            f"pattern enumeration capped at dim {cfg.pattern_dim_cap}, got {n}"
        )
    sols, diag = _enumerate_once(inst, cfg, cfg.grid_per_axis)
    completeness = "best-effort"
    if cfg.confirm_grid:
        sols2, _ = _enumerate_once(inst, cfg, cfg.grid_per_axis + 4)
        merged = _dedupe(sols + sols2, cfg.tolerances.dedupe)
        if len(merged) == len(sols) == len(sols2):
            completeness = "certified-complete"
        else:
            sols = merged
    verifications = [verify_solution(inst, x, tols=cfg.tolerances) for x in sols]
    keep = [i for i, v in enumerate(verifications) if v.ok]
    sols = [sols[i] for i in keep]
    verifications = [verifications[i] for i in keep]
    residuals = [float(np.abs(inst.residual(x)).max()) for x in sols]
    return SolveReport(
        status="all-solutions-enumerated",
        solutions=sols,
        residuals=residuals,
        verifications=verifications,
        seed=cfg.seed,
        config=cfg,
        completeness=completeness,
        diagnostics={"patterns": diag, "backend": backend_name()},
        wall_time_s=time.perf_counter() - t0,
    )


@dataclass
class ZeroConeReport(Report):
    """One-sided sampling verdict on SOL(f_inf, 0) = {0}."""

    verdict: str  # zero-only | nonzero-solution-found
    witness: np.ndarray | None
    samples: int
    diagnostics: dict = field(default_factory=dict)

    @property
    def zero_only(self) -> bool:
        return self.verdict == "zero-only"


def _orthant_sphere_roots(F, rng, arc: int, levels: int, extra: int, tol: float,
                          cfg: SolveConfig, unique_starts: bool = False):
    """Nonzero roots of min{u, F(u)} = 0 from nonnegative unit starts.

    Starts: arc angles on the quarter circle (dim 2) or the normalized points
    of {0..levels-1}^n minus the origin, then extra seeded random directions;
    unique_starts merges starts within 1e-9. Semismooth Newton polishes every
    start to tol; each converged root of norm above 1e-6 is normalized back
    onto the sphere and kept, in start order, as (start, u, residual) when
    its residual is within the feasibility tolerance. Returns (starts, roots).
    """
    n = F.dim
    if n == 2:
        ang = np.linspace(0.0, np.pi / 2.0, arc)
        U0 = np.stack([np.cos(ang), np.sin(ang)], axis=1)
    else:
        grid = np.array(list(itertools.product(np.arange(float(levels)), repeat=n)))
        grid = grid[np.abs(grid).sum(axis=1) > 0]
        U0 = grid / np.linalg.norm(grid, axis=1, keepdims=True)
    r = np.abs(rng.normal(size=(extra, n)))
    U0 = np.vstack([U0, r / np.maximum(np.linalg.norm(r, axis=1, keepdims=True), 1e-12)])
    if unique_starts:
        U0 = np.array(_dedupe(list(U0), 1e-9))
    X, converged, _, _ = _newton_batch(
        F, np.zeros(n), U0, tol=tol, max_iters=40, armijo_factor=cfg.armijo_factor,
        max_halvings=cfg.max_halvings, box_cap=100.0,
    )
    roots = []
    for b in np.nonzero(converged)[0]:
        nrm = float(np.linalg.norm(X[b]))
        if nrm <= 1e-6:
            continue
        u = np.maximum(X[b] / nrm, 0.0)
        res = float(np.abs(np.minimum(u, F.eval(u))).max())
        if res <= cfg.tolerances.feasibility:
            roots.append((U0[b], u, res))
    return U0, roots


def check_sol_infty_zero(f: MapLike, seed: int = 0, cfg: SolveConfig = SolveConfig()) -> ZeroConeReport:
    """Decide (by sampling + polish) whether min{u, f_inf(u)} = 0 forces u=0.

    Samples the nonnegative unit sphere, polishes with semismooth Newton on
    the homogeneous min map, normalizes any nonzero root back to the sphere
    and re-verifies. The zero-only verdict is a one-sided certificate.
    """
    U0, roots = _orthant_sphere_roots(
        leading_term(as_map(f)), np.random.default_rng(seed), arc=41, levels=5,
        extra=64, tol=max(1e-13, cfg.tolerances.root / 100.0), cfg=cfg,
        unique_starts=True,
    )
    if roots:
        start, u, _ = roots[0]
        return ZeroConeReport(
            verdict="nonzero-solution-found",
            witness=u,
            samples=int(U0.shape[0]),
            diagnostics={"polished_from": [float(v) for v in start]},
        )
    return ZeroConeReport(
        verdict="zero-only",
        witness=None,
        samples=int(U0.shape[0]),
        diagnostics={"note": "sampling certificate, one-sided"},
    )


@dataclass
class BoundednessReport(Report):
    max_norm: float
    max_norm_doubled_radius: float
    stable: bool
    passed: bool
    per_q: list
    diagnostics: dict = field(default_factory=dict)


def boundedness_probe(f: MapLike, K, cfg: SolveConfig = SolveConfig()) -> BoundednessReport:
    """Evidence that the solution sets over q in K are uniformly bounded.

    Requires the zero-only verdict on the leading term (the condition that
    makes bounded sets plausible); solves each instance at the configured
    radius and again at twice the radius, and checks that no solution
    appears near the search boundary and the max norm stays put.
    """
    F = as_map(f)
    zero = check_sol_infty_zero(F, seed=cfg.seed, cfg=cfg)
    if not zero.zero_only:
        raise InvalidInputError(
            "boundedness probe requires SOL(f_inf,0)={0}; "
            f"witness {zero.witness}"
        )
    cfg2 = cfg.with_radius(cfg.search_radius * 2)
    per_q = []
    norms1, norms2 = [0.0], [0.0]
    boundary_hit = False
    all_solved = True
    for q in K:
        r1 = solve(PcpInstance(F, q), cfg)
        r2 = solve(PcpInstance(F, q), cfg2)
        e1 = float(np.abs(r1.solutions[0]).max()) if r1.solutions else np.nan
        e2 = float(np.abs(r2.solutions[0]).max()) if r2.solutions else np.nan
        per_q.append({"q": [float(v) for v in np.asarray(q)], "status": r1.status,
                      "norm": e1, "norm_doubled": e2})
        if r1.status != "solved" or r2.status != "solved":
            all_solved = False
            continue
        norms1.append(e1)
        norms2.append(e2)
        if e1 >= 0.9 * cfg.search_radius or e2 >= 0.9 * cfg2.search_radius:
            boundary_hit = True
    stable = (not boundary_hit) and (max(norms2) <= max(norms1) + cfg.tolerances.dedupe)
    return BoundednessReport(
        max_norm=max(norms1),
        max_norm_doubled_radius=max(norms2),
        stable=stable,
        passed=all_solved and stable,
        per_q=per_q,
        diagnostics={"zero_only_samples": zero.samples},
    )


@dataclass
class UnsolvableCertificate(Report):
    status: str  # no-solution-certified | inconclusive
    min_residual: float
    argmin: np.ndarray
    lipschitz_bound: float
    margin: float
    threshold: float
    grid_points: int
    box: list
    step: float
    note: str = ""

    @property
    def certified(self) -> bool:
        return self.status == "no-solution-certified"


def _lipschitz_bound(f, box_hi: float) -> float:
    """Coefficient bound on the infinity-norm Jacobian of f over the box:
    each order-k term contributes (k-1) * R^{k-2} * max abs row sum."""
    L = 0.0
    for order, t in f.terms.items():
        k = order
        rows = np.abs(t.coeffs).reshape(t.dim, -1).sum(axis=1)
        L += (k - 1) * box_hi ** max(0, k - 2) * float(rows.max())
    return L


def certify_unsolvable(
    inst: PcpInstance,
    box,
    step: float,
    tols: Tolerances = DEFAULT_TOLERANCES,
) -> UnsolvableCertificate:
    """Grid + margin certificate that no solution lies in the box.

    The min map is Lipschitz on the box with constant L = max(1, L_f) in the
    infinity norm; every point of the box is within step/2 of a grid point,
    so a minimum grid residual above L*step/2 excludes zeros. Reports
    inconclusive otherwise, noting when a grid point nearly solves: its
    residual is within dim * tols.feasibility.
    The grid is evaluated _KERNEL_ROWS points at a time.
    """
    f, q, n = inst.map, inst.q, inst.dim
    box = [(float(lo), float(hi)) for lo, hi in box]
    if len(box) != n or any(hi <= lo for lo, hi in box):
        raise InvalidInputError("box must list (lo, hi) with lo < hi per axis")
    if step <= 0:
        raise InvalidInputError("grid step must be positive")
    axes = []
    eff_step = 0.0
    for lo, hi in box:
        m = int(np.ceil((hi - lo) / step)) + 1
        axes.append(np.linspace(lo, hi, m))
        eff_step = max(eff_step, (hi - lo) / (m - 1))
    counts = [len(a) for a in axes]
    total = int(np.prod(counts))
    best = np.inf
    best_x = np.zeros(n)
    for start in range(0, total, _KERNEL_ROWS):
        idx = np.arange(start, min(start + _KERNEL_ROWS, total))
        coords = np.empty((idx.size, n))
        rem = idx
        for j in range(n - 1, -1, -1):
            rem, r = np.divmod(rem, counts[j])
            coords[:, j] = axes[j][r]
        res = np.abs(np.minimum(coords, f.eval_batch(coords) + q)).max(axis=1)
        b = int(np.argmin(res))
        if res[b] < best:
            best = float(res[b])
            best_x = coords[b].copy()
    R = max(abs(v) for lo_hi in box for v in lo_hi)
    L = max(1.0, _lipschitz_bound(f, R))
    margin = L / 2.0
    threshold = margin * eff_step
    if best > threshold:
        status, note = "no-solution-certified", "min grid residual exceeds Lipschitz margin"
    else:
        status = "inconclusive"
        note = "margin not met"
        if best <= inst.map.dim * tols.feasibility:
            note = "a grid point nearly solves the instance"
    return UnsolvableCertificate(
        status=status,
        min_residual=best,
        argmin=best_x,
        lipschitz_bound=L,
        margin=margin,
        threshold=threshold,
        grid_points=total,
        box=[[lo, hi] for lo, hi in box],
        step=eff_step,
        note=note,
    )
