"""Local topological degree of the min map at the origin.

For a homogeneous map F with SOL(F, 0) = {0}, the natural map
g(x) = min{x, F(x)} has an isolated zero at the origin and its local degree
there is computed two independent ways:

* regular-value counting: pick a small random p; solve all 2^n pieces of
  min{x, F(x)+q} = p, {x_i = p_i (x side), F_i(x) + q_i = p_i (F side)},
  in one call of the solver's masked-piece Newton engine (the pieces
  enumeration solves with p = 0, here with q = 0), keep roots whose
  inactive branch clears the tie margin, and sum the signs of the piece
  Jacobian determinants. The preimage search radius doubles until the
  preimage set stops changing. The homotopy check counts
  min{x, f_t(x) + q_t} the same way, with its shift q_t.
* winding number (dim 2 only): the angle swept by g around a circle, with
  adaptive bisection until every step turns less than pi/2.

Both are exact for regular data and raise DegenerateInputError rather than
return a doubtful value.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, is_positive_real
from .errors import DegenerateInputError, InvalidInputError, PcpKitError
from .solver import (
    SolveConfig,
    ZeroConeReport,
    _newton_batch,
    _stack_pieces,
    check_sol_infty_zero,
    enumerate_solutions,
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
    "DegreeEstimate",
    "HomotopyReport",
    "StabilityReport",
    "local_degree_min_map",
    "tensor_degree",
    "winding_degree_2d",
    "homotopy_invariance_check",
    "stability_radius_probe",
]

_P_RETRIES = 20
_BALL_CAP = 64.0
# The winding circle: its radius, and its initial samples before bisection.
_WINDING_RADIUS = 1.0
_WINDING_SAMPLES = 4096


@dataclass
class DegreeEstimate(Report):
    value: int
    method: str  # regular-value | winding | regular-value+winding
    regular_value: np.ndarray | None
    preimages: list  # [(x, sign)]
    tie_margin: float | None  # smallest branch slack observed; None if no preimages
    diagnostics: dict = field(default_factory=dict)

    def to_json(self, include_timing: bool = False) -> dict:
        out = super().to_json(include_timing)
        out["preimages"] = [{"x": x, "sign": s} for x, s in out["preimages"]]
        return out


class _Retry(Exception):
    """Current regular-value draw hit a tie or singular piece; redraw p."""


def _classify_preimage(F, q: np.ndarray, p: np.ndarray, x: np.ndarray, tols: Tolerances):
    """(sign, min_inactive_slack) of a candidate, or None if x is not a
    preimage of p under min{x, F(x)+q}.

    Per index the active branch is the one at the minimum; an index where
    both branches sit within the tie margin is resolved by checking that
    every branch completion gives the same Jacobian determinant sign
    (min{x_i, F_i} with F_i = x_i locally is smooth despite the formal tie).
    Ambiguous slacks in (active, margin] force a redraw of p.
    """
    n = F.dim
    margin = tols.tie_margin
    active_tol = 1e-8
    a = x - p
    b = F.eval(x) + (q - p)
    rows = []  # per index: list of allowed branches, 'x' and/or 'F'
    slacks = []
    for i in range(n):
        ax, bf = abs(a[i]) <= active_tol, abs(b[i]) <= active_tol
        if ax and bf:
            rows.append(("x", "F"))
        elif ax:
            if b[i] < -margin:
                return None  # the F branch dips below p_i: min differs from p_i
            if b[i] <= margin:
                raise _Retry("near-tie between branches at a preimage")
            rows.append(("x",))
            slacks.append(float(b[i]))
        elif bf:
            if a[i] < -margin:
                return None
            if a[i] <= margin:
                raise _Retry("near-tie between branches at a preimage")
            rows.append(("F",))
            slacks.append(float(a[i]))
        else:
            return None  # neither branch attains p_i: not a preimage
    J = F.jacobian_batch(x[None, :])[0]
    scale = max(1.0, float(np.abs(J).max()) ** n)
    sign = 0
    for combo in itertools.product(*rows):
        M = np.array(J)
        for i, branch in enumerate(combo):
            if branch == "x":
                M[i, :] = 0.0
                M[i, i] = 1.0
        det = float(np.linalg.det(M))
        if abs(det) <= tols.singular_det * scale:
            raise _Retry("singular piece Jacobian at a preimage")
        s = 1 if det > 0 else -1
        if sign == 0:
            sign = s
        elif s != sign:
            raise _Retry("tied branches disagree on orientation")
    return sign, (min(slacks) if slacks else float("inf"))


def _preimage_set(F, q: np.ndarray, p: np.ndarray, radius: float, tols: Tolerances,
                  per_axis: int = 7):
    """Preimages of p under min{x, F(x)+q} in the sup-norm ball of the given
    radius, as sorted (x, sign, slack).

    Every piece (F branch on beta, x_i = p_i off it) runs in one engine
    call from a per_axis grid on [-radius/8, radius]^|beta|; the piece with
    beta empty contributes p itself. Each piece's converged roots in the
    ball are deduplicated at 1e-8 (1 + radius), and the candidates of all
    pieces are classified together.
    """
    n = F.dim
    pieces = [tuple(i for i in range(n) if i not in alpha)
              for size in range(n) for alpha in itertools.combinations(range(n), size)]
    X0, beta, offsets = _stack_pieces(p, pieces, np.linspace(-radius / 8.0, radius, per_axis))
    X, converged, rn, _ = _newton_batch(
        F, q, X0, tol=1e-13, box_cap=max(64.0, 4 * radius), beta=beta, p=p, max_iters=80
    )
    inside = converged & (rn <= tols.root) & (np.abs(X).max(axis=1) <= radius * (1 + 1e-9))
    candidates: list[np.ndarray] = []
    for j in range(len(pieces)):
        out: list[np.ndarray] = []
        for x in X[offsets[j] + np.nonzero(inside[offsets[j] : offsets[j + 1]])[0]]:
            if not out or np.abs(np.asarray(out) - x).max(axis=1).min() > 1e-8 * (1 + radius):
                out.append(x)
        candidates.extend(out)
    if float(np.abs(p).max()) <= radius:
        candidates.append(p.copy())
    found = []
    for x in sorted(candidates, key=lambda v: tuple(v)):
        gap = 1e-7 * (1 + float(np.abs(x).max()))
        if found and np.abs(np.asarray([y for y, _, _ in found]) - x).max(axis=1).min() <= gap:
            continue
        hit = _classify_preimage(F, q, p, x, tols)
        if hit is not None:
            found.append((x, hit[0], hit[1]))
    return found


def _sets_match(a, b, tol=1e-7) -> bool:
    if len(a) != len(b):
        return False
    return all(
        np.abs(x - y).max() <= tol * (1 + np.abs(x).max()) and sx == sy
        for (x, sx, _), (y, sy, _) in zip(a, b)
    )


def _draw_p(rng, n: int) -> np.ndarray:
    d = rng.uniform(-1.0, 1.0, size=n)
    d /= max(1e-12, float(np.abs(d).max()))
    return d * rng.uniform(1e-3, 1e-2)


def _regular_value_degree(
    F: PolynomialMap,
    q: np.ndarray,
    rng,
    tols: Tolerances,
    fixed_radius: float | None = None,
    boundary_samples: np.ndarray | None = None,
) -> tuple:
    """(degree, p, preimages, diagnostics) of min{x, F(x)+q}. Retries the
    draw of p up to _P_RETRIES times on ties/singularities; with
    fixed_radius set, computes over that ball only and insists preimages
    stay off the boundary."""
    n = F.dim
    last = "no attempts"
    for _ in range(_P_RETRIES):
        p = _draw_p(rng, n)
        try:
            if fixed_radius is not None:
                if boundary_samples is not None:
                    gb = np.abs(
                        np.minimum(boundary_samples, F.eval_batch(boundary_samples) + q)
                    ).max(axis=1)
                    if float(gb.min()) < 10.0 * float(np.abs(p).max()):
                        raise _Retry("map too small on the region boundary")
                pre = _preimage_set(F, q, p, fixed_radius, tols)
                if any(np.abs(x).max() > 0.9 * fixed_radius for x, _, _ in pre):
                    raise _Retry("preimage near the region boundary")
                diag = {"radius": fixed_radius, "stabilized": True}
            else:
                radius = 1.0
                pre = _preimage_set(F, q, p, radius, tols)
                stabilized = False
                while radius < _BALL_CAP:
                    bigger = _preimage_set(F, q, p, 2 * radius, tols)
                    if _sets_match(pre, bigger):
                        stabilized = True
                        break
                    pre, radius = bigger, 2 * radius
                if not stabilized:
                    raise DegenerateInputError(
                        "preimage set kept changing up to the radius cap; "
                        "the map may have zeros at infinity"
                    )
                diag = {"radius": radius, "stabilized": True}
            deg = sum(s for _, s, _ in pre)
            return deg, p, pre, diag
        except _Retry as e:
            last = str(e)
            continue
    raise DegenerateInputError(
        f"no regular value found in {_P_RETRIES} draws (last: {last})"
    )


def winding_degree_2d(F: MapLike, tols: Tolerances = DEFAULT_TOLERANCES) -> int:
    """Winding number of min{x, F(x)} around the circle of radius
    _WINDING_RADIUS, starting from _WINDING_SAMPLES angles.

    Adaptive: bisects any arc whose angle step reaches pi/2, so the winding
    count is unambiguous. Raises DegenerateInputError when the map (nearly)
    vanishes on the circle or refinement fails to settle.
    """
    Fm = as_map(F)
    if Fm.dim != 2:
        raise InvalidInputError("winding numbers are for dim 2 only")

    def angles_of(th):
        X = _WINDING_RADIUS * np.stack([np.cos(th), np.sin(th)], axis=1)
        G = np.minimum(X, Fm.eval_batch(X))
        norms = np.hypot(G[:, 0], G[:, 1])
        floor = tols.zero_on_circle * max(1.0, float(norms.max()))
        if float(norms.min()) < floor:
            raise DegenerateInputError("min map vanishes on the circle")
        return np.arctan2(G[:, 1], G[:, 0])

    th = np.linspace(0.0, 2 * np.pi, _WINDING_SAMPLES, endpoint=False)
    phi = angles_of(th)
    for _ in range(32):
        dphi = np.diff(np.append(phi, phi[0]))
        dphi = (dphi + np.pi) % (2 * np.pi) - np.pi
        bad = np.abs(dphi) >= np.pi / 2
        if not bad.any():
            break
        if th.size > (1 << 17):
            raise DegenerateInputError("winding refinement exceeded the sample cap")
        nxt = np.append(th[1:], th[0] + 2 * np.pi)
        mids = ((th + nxt) / 2.0)[bad]
        th = np.sort(np.concatenate([th, mids % (2 * np.pi)]))
        phi = angles_of(th)
    else:
        raise DegenerateInputError("winding refinement did not settle")
    total = float(dphi.sum()) / (2 * np.pi)
    w = round(total)
    if abs(total - w) > 1e-2:
        raise DegenerateInputError(f"non-integer winding estimate {total}")
    return int(w)


def local_degree_min_map(F: MapLike, cfg: SolveConfig = SolveConfig()) -> DegreeEstimate:
    """Regular-value degree of min{x, F(x)} at the origin for a homogeneous
    map F of dim at most cfg.pattern_dim_cap with SOL(F, 0) = {0}.

    The zero-cone sample and the regular value p are drawn with cfg.seed.
    The zero-only precondition is a sampling certificate and is recorded in
    the diagnostics as an assumption, not a proof.
    """
    F = as_map(F)
    if not F.is_homogeneous():
        raise InvalidInputError("local degree at the origin needs a homogeneous map")
    if F.dim > cfg.pattern_dim_cap:
        raise InvalidInputError(f"degree computation capped at dim {cfg.pattern_dim_cap}")
    return _regular_value_estimate(F, check_sol_infty_zero(F, cfg), cfg)


def _regular_value_estimate(
    F: PolynomialMap, zero: ZeroConeReport, cfg: SolveConfig
) -> DegreeEstimate:
    """local_degree_min_map past its input checks, given F's zero-cone report."""
    if not zero.zero_only:
        raise InvalidInputError(
            "degree at the origin needs SOL(f_inf,0)={0}; "
            f"found nonzero solution {zero.witness}"
        )
    rng = np.random.default_rng(cfg.seed)
    deg, p, pre, diag = _regular_value_degree(F, np.zeros(F.dim), rng, cfg.tolerances)
    diag["assumptions"] = {"zero_only_samples": zero.samples, "one_sided": True}
    margins = [m for _, _, m in pre if np.isfinite(m)]
    return DegreeEstimate(
        value=deg,
        method="regular-value",
        regular_value=p,
        preimages=[(x, s) for x, s, _ in pre],
        tie_margin=min(margins) if margins else None,
        diagnostics=diag,
    )


def tensor_degree(A: MapLike, cfg: SolveConfig = SolveConfig()) -> DegreeEstimate:
    """Degree of min{x, f_inf(x)} at the origin (requires SOL(f_inf,0)={0}).

    Regular-value counting with cfg.seed, as local_degree_min_map; in dim 2
    the winding number is computed as well and the two must agree.
    """
    F = leading_term(as_map(A))
    return _winding_cross_check(F, local_degree_min_map(F, cfg), cfg)


def _winding_cross_check(F: PolynomialMap, est: DegreeEstimate, cfg: SolveConfig) -> DegreeEstimate:
    """In dim 2, record the winding number of min{x, F(x)} in est and
    raise unless it equals the regular-value degree."""
    if F.dim == 2:
        w = winding_degree_2d(F, cfg.tolerances)
        est.diagnostics["winding"] = w
        est.diagnostics["methods_agree"] = w == est.value
        if w != est.value:
            raise PcpKitError(
                f"degree cross-check failed: regular-value {est.value} vs winding {w}"
            )
    return est


# --- homotopy checks --------------------------------------------------------


@dataclass
class HomotopyReport(Report):
    mode: str
    status: str  # verified | precondition-failed | inconclusive
    degree_start: int | None
    degree_end: int | None
    omega_radius: float | None
    t_grid: list
    max_root_norms: list
    witness: np.ndarray | None = None
    diagnostics: dict = field(default_factory=dict)

    @property
    def verified(self) -> bool:
        return self.status == "verified"


def _scaled_map(lead: Tensor, lower: list[Tensor], t: float) -> PolynomialMap:
    terms = [lead]
    if t != 0.0:
        terms += [Tensor(t * T.coeffs) for T in lower if not T.is_zero()]
    return PolynomialMap(terms)


def _box_boundary_samples(n: int, radius: float, rng, count: int = 512) -> np.ndarray:
    if n == 2:
        th = np.linspace(0, 2 * np.pi, 256, endpoint=False)
        pts = np.stack([np.cos(th), np.sin(th)], axis=1)
        pts /= np.abs(pts).max(axis=1, keepdims=True)
        return radius * pts
    pts = rng.uniform(-1.0, 1.0, size=(count, n))
    face = rng.integers(0, n, size=count)
    sign = rng.choice([-1.0, 1.0], size=count)
    pts[np.arange(count), face] = sign
    return radius * pts


def homotopy_invariance_check(
    f: MapLike,
    mode: str,
    q=None,
    d=None,
    interpolate: str = "full",
    cfg: SolveConfig = SolveConfig(),
) -> HomotopyReport:
    """Track min-map roots along a homotopy and compare endpoint degrees.

    mode "to-leading-term": deform (f, q) to (f_inf, 0) via f_inf + t*lower,
    t*q. mode "karamardian": deform f_inf to g + d where d > 0 and g is the
    full map (interpolate="full") or f_inf itself ("leading"); requires
    SOL(g, d) = {0} first and asserts the endpoint degree is 1.

    Roots are tracked on an 11-point t grid; if any root crowds the search
    boundary the sweep re-runs with a doubled radius, and the report comes
    back inconclusive when that still fails. Endpoint degrees are computed
    over a fixed region containing every tracked root; the region's boundary
    samples and regular values are drawn with cfg.seed.
    """
    fm = as_map(f)
    n = fm.dim
    lead = fm.leading
    lower = [T for o, T in fm.terms.items() if o != fm.order]
    tols = cfg.tolerances
    rng = np.random.default_rng(cfg.seed)
    t_grid = np.linspace(0.0, 1.0, 11)

    if mode == "to-leading-term":
        if q is None:
            raise InvalidInputError("to-leading-term mode needs q")
        q = np.asarray(q, dtype=np.float64)

        def stage(t):
            return _scaled_map(lead, lower, t), t * q

        pre = None
    elif mode == "karamardian":
        if d is None:
            raise InvalidInputError("karamardian mode needs a positive vector d")
        d = _as_vector(d, n, "d")
        if d.min() <= 0:
            raise InvalidInputError("d must be strictly positive")
        if interpolate not in ("full", "leading"):
            raise InvalidInputError("interpolate must be 'full' or 'leading'")
        use_lower = lower if interpolate == "full" else []

        def stage(t):
            return _scaled_map(lead, use_lower, t), t * d

        end_map, end_q = stage(1.0)
        pre = enumerate_solutions(PcpInstance(end_map, end_q), cfg)
        nonzero = [x for x in pre.solutions if np.abs(x).max() > tols.dedupe]
        if nonzero or not pre.solutions:
            return HomotopyReport(
                mode=mode,
                status="precondition-failed",
                degree_start=None,
                degree_end=None,
                omega_radius=None,
                t_grid=list(t_grid),
                max_root_norms=[],
                witness=nonzero[0] if nonzero else None,
                diagnostics={"note": "SOL(g, d) != {0}"},
            )
    else:
        raise InvalidInputError(f"unknown homotopy mode {mode!r}")

    sweep_cfg = cfg
    for _grow in range(3):
        max_norms = []
        boundary = False
        for t in t_grid:
            if pre is not None and _grow == 0 and t == 1.0:
                rep = pre  # the precondition already enumerated t = 1 at this radius
            else:
                rep = enumerate_solutions(PcpInstance(*stage(float(t))), sweep_cfg)
            mx = max((float(np.abs(x).max()) for x in rep.solutions), default=0.0)
            max_norms.append(mx)
            if mx > 0.9 * sweep_cfg.search_radius:
                boundary = True
                break
        if not boundary:
            break
        sweep_cfg = sweep_cfg.with_radius(sweep_cfg.search_radius * 2)
    else:
        return HomotopyReport(
            mode=mode,
            status="inconclusive",
            degree_start=None,
            degree_end=None,
            omega_radius=None,
            t_grid=list(t_grid),
            max_root_norms=max_norms,
            diagnostics={"note": "roots kept crowding the search boundary"},
        )

    omega = 2.0 * (max(max_norms) + 0.5)
    bsamp = _box_boundary_samples(n, omega, rng)
    start_map, start_q = stage(0.0)
    end_map, end_q = stage(1.0)

    def region_degree(fmap_t, q_t):
        deg, _, _, _ = _regular_value_degree(
            fmap_t, q_t, rng, tols, fixed_radius=omega, boundary_samples=bsamp
        )
        return deg

    try:
        deg0 = region_degree(start_map, start_q)
        deg1 = region_degree(end_map, end_q)
    except DegenerateInputError as e:
        return HomotopyReport(
            mode=mode,
            status="inconclusive",
            degree_start=None,
            degree_end=None,
            omega_radius=omega,
            t_grid=list(t_grid),
            max_root_norms=max_norms,
            diagnostics={"note": str(e)},
        )
    ok = deg0 == deg1 and (mode != "karamardian" or deg1 == 1)
    return HomotopyReport(
        mode=mode,
        status="verified" if ok else "inconclusive",
        degree_start=deg0,
        degree_end=deg1,
        omega_radius=omega,
        t_grid=list(t_grid),
        max_root_norms=max_norms,
        diagnostics={"search_radius": sweep_cfg.search_radius},
    )


@dataclass
class StabilityReport(Report):
    base_degree: int
    per_scale: list
    largest_stable_scale: float | None
    diagnostics: dict = field(default_factory=dict)


def stability_radius_probe(f: MapLike, scales=(1e-4, 1e-3, 1e-2),
                           cfg: SolveConfig = SolveConfig()) -> StabilityReport:
    """Perturb the leading coefficients at growing scales and watch the
    invariants: zero solution cone and degree must survive. Requires the
    unperturbed map to have SOL(f_inf,0)={0} and nonzero degree. The
    perturbations and every check on them are drawn with cfg.seed."""
    scales = list(scales)
    if not scales or not all(is_positive_real(s) for s in scales):
        raise InvalidInputError(f"scales must be finite numbers > 0, at least one, got {scales}")
    fm = as_map(f)
    base = tensor_degree(fm, cfg)
    if base.value == 0:
        raise InvalidInputError("stability probe needs a nonzero base degree")
    lead = fm.leading
    rng = np.random.default_rng(cfg.seed)
    per_scale = []
    largest = None
    for s in sorted(scales):
        noise = rng.uniform(-1.0, 1.0, size=lead.coeffs.shape)
        # Only the leading term enters the zero cone and the degree.
        pert = PolynomialMap.from_tensor(Tensor(lead.coeffs + s * noise))
        zero = check_sol_infty_zero(pert, cfg)
        entry = {"scale": float(s), "zero_only": zero.zero_only, "degree": None,
                 "unchanged": False}
        if zero.zero_only:
            try:
                dd = _winding_cross_check(
                    pert, _regular_value_estimate(pert, zero, cfg), cfg
                )
                entry["degree"] = dd.value
                entry["unchanged"] = dd.value == base.value
            except (DegenerateInputError, InvalidInputError) as e:
                entry["note"] = str(e)
        per_scale.append(entry)
        if entry["unchanged"]:
            largest = float(s)
    return StabilityReport(
        base_degree=base.value,
        per_scale=per_scale,
        largest_stable_scale=largest,
        diagnostics={"method": base.method},
    )
