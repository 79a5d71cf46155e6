"""Local topological degree of the min map at the origin.

For a homogeneous map F with SOL(F, 0) = {0}, the natural map
g(x) = min{x, F(x)} has an isolated zero at the origin and its local degree
there is computed two independent ways:

* signed solution count: for a small random shift c, H(x, s) =
  min{x, F(x) + s c} is an admissible homotopy on a ball that holds every
  zero for s in [0, 1], so the degree is the sum over SOL(F, c) of
  sign det J(x), J being F'(x) with identity rows where x_i < (F(x) + c)_i.
  SOL(F, c) comes from one enumeration sweep of the solver's masked-piece
  engine, over a ball whose radius follows from a sampled least value of
  |min{u, F(u)}| on the unit face. A solution within the tie margin of
  another piece, or with a singular J, forces a redraw of c. The homotopy
  check counts SOL(f_t, q_t + c) the same way over its fixed region.
* winding number (dim 2 only): the angle swept by g around a circle, with
  adaptive bisection until every step turns less than pi/2.

Both are exact for regular data and raise DegenerateInputError rather than
return a doubtful value.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .config import DEFAULT_TOLERANCES, Tolerances, is_positive_real
from .errors import DegenerateInputError, InvalidInputError, PcpKitError
from .solver import (
    SolveConfig,
    ZeroConeReport,
    _enumerate_once,
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
_BALL_CAP = 256.0
# Seeded samples of the unit face per support pattern, for the ball radius.
_FACE_SAMPLES = 512
# The winding circle: its radius, and its initial samples before bisection.
_WINDING_RADIUS = 1.0
_WINDING_SAMPLES = 4096


@dataclass
class DegreeEstimate(Report):
    value: int
    method: str  # regular-value | winding | regular-value+winding
    regular_value: np.ndarray | None  # c of SOL(F, c); lcp_degree: p of min{x, Mx} = p
    preimages: list  # [(x, sign)]: the counted points and their signs
    tie_margin: float | None  # smallest branch slack observed; None if no preimages
    diagnostics: dict = field(default_factory=dict)

    def to_json(self, include_timing: bool = False) -> dict:
        out = super().to_json(include_timing)
        out["preimages"] = [{"x": x, "sign": s} for x, s in out["preimages"]]
        return out


class _Retry(Exception):
    """The current draw is not a regular value (a tie between branches or a
    singular piece at a solution); redraw it."""


def _draw_p(rng, n: int) -> np.ndarray:
    d = rng.uniform(-1.0, 1.0, size=n)
    d /= max(1e-12, float(np.abs(d).max()))
    return d * rng.uniform(1e-3, 1e-2)


def _first_regular_value(rng, n: int, attempt):
    """(c, attempt(c)) for the first of _P_RETRIES draws of c that attempt
    does not refuse with _Retry; DegenerateInputError if it refuses all."""
    last = "no attempts"
    for _ in range(_P_RETRIES):
        c = _draw_p(rng, n)
        try:
            return c, attempt(c)
        except _Retry as e:
            last = str(e)
    raise DegenerateInputError(
        f"no regular value found in {_P_RETRIES} draws (last: {last})"
    )


def _signed_solutions(F: PolynomialMap, q: np.ndarray, c: np.ndarray, radius: float,
                      cfg: SolveConfig) -> list:
    """Solutions of PCP(F, q + c) in [0, radius]^n as sorted (x, sign, slack),
    from one enumeration sweep on a 7-point grid.

    With y = F(x) + q + c, sign is that of det J, J being F'(x) with identity
    rows where x_i < y_i, and slack = min_i max(x_i, y_i) is the gap to the
    nearest other piece. A slack within tie_margin, or |det J| within
    singular_det * max(1, max|F'(x)|^n), raises _Retry.
    """
    tols = cfg.tolerances
    sols, _ = _enumerate_once(PcpInstance(F, q + c), cfg.with_radius(radius), 7)
    out = []
    for x in sols:
        y = F.eval(x) + q + c
        slack = float(np.maximum(x, y).min())
        if slack <= tols.tie_margin:
            raise _Retry("near-tie between branches at a solution")
        J = F.jacobian(x)
        scale = max(1.0, float(np.abs(J).max()) ** F.dim)
        x_rows = x < y
        J[x_rows] = np.eye(F.dim)[x_rows]
        det = float(np.linalg.det(J))
        if abs(det) <= tols.singular_det * scale:
            raise _Retry("singular piece Jacobian at a solution")
        out.append((x, 1 if det > 0 else -1, slack))
    return out


def _face_residual(F: PolynomialMap, rng) -> float:
    """The least |min{u, F(u)}|_inf over _FACE_SAMPLES seeded points u >= 0
    with max u = 1 on each nonempty support pattern: a sample of the
    minimum mu over the unit face, not a bound on it."""
    n = F.dim
    support = (np.arange(1, 2**n)[:, None] >> np.arange(n)) & 1
    U = 1.0 - rng.random((support.shape[0], _FACE_SAMPLES, n))
    U = (U * support[:, None, :]).reshape(-1, n)
    U /= U.max(axis=1, keepdims=True)
    return float(np.abs(np.minimum(U, F.eval_batch(U))).max(axis=1).min())


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
    """Degree of min{x, F(x)} at the origin, as the signed count of
    SOL(F, c), for a homogeneous map F of dim at most cfg.pattern_dim_cap
    with SOL(F, 0) = {0}.

    The zero-cone sample, the face sample and the shift c are drawn with
    cfg.seed. The zero-only precondition is a sampling certificate and is
    recorded in the diagnostics as an assumption, not a proof.
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
    """local_degree_min_map past its input checks, given F's zero-cone report.

    The ball: write a solution of PCP(F, c) as x = t u with t = |x|_inf,
    u >= 0 and |u|_inf = 1, and let d be the degree of F. Per index either
    x_i > 0 and t^d F_i(u) = -c_i, or u_i = 0 and t^d F_i(u) >= -c_i; both
    give |min{u_i, F_i(u)}| <= |c|_inf / t^d. So t <= (|c|_inf / mu)^(1/d),
    mu being the least |min{u, F(u)}|_inf on the face, and the same holds
    for every s c with s in [0, 1]. The sweep covers twice that radius, at
    least 2, with mu replaced by its sample mu_hat (diagnostics["mu_hat"]);
    a radius above _BALL_CAP is refused.
    """
    if not zero.zero_only:
        raise InvalidInputError(
            "degree at the origin needs SOL(f_inf,0)={0}; "
            f"found nonzero solution {zero.witness}"
        )
    rng = np.random.default_rng(cfg.seed)
    mu = _face_residual(F, rng)

    def attempt(c):
        ratio = float(np.abs(c).max()) / mu if mu > 0 else np.inf
        radius = 2.0 * max(1.0, ratio ** (1.0 / F.degree))
        if radius > _BALL_CAP:
            raise DegenerateInputError(
                f"the sampled face minimum {mu:.3g} puts solutions out to radius "
                f"{radius:.3g}, past the cap {_BALL_CAP}; the map may have zeros at infinity"
            )
        return radius, _signed_solutions(F, np.zeros(F.dim), c, radius, cfg)

    c, (radius, sols) = _first_regular_value(rng, F.dim, attempt)
    return DegreeEstimate(
        value=sum(s for _, s, _ in sols),
        method="regular-value",
        regular_value=c,
        preimages=[(x, s) for x, s, _ in sols],
        tie_margin=min((m for _, _, m in sols), default=None),
        diagnostics={
            "radius": radius,
            "mu_hat": mu,
            "assumptions": {"zero_only_samples": zero.samples, "one_sided": True},
        },
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
        def attempt(c):
            gb = np.abs(np.minimum(bsamp, fmap_t.eval_batch(bsamp) + q_t)).max(axis=1)
            if float(gb.min()) < 10.0 * float(np.abs(c).max()):
                raise _Retry("map too small on the region boundary")
            sols = _signed_solutions(fmap_t, q_t, c, omega, cfg)
            if any(np.abs(x).max() > 0.9 * omega for x, _, _ in sols):
                raise _Retry("solution near the region boundary")
            return sum(s for _, s, _ in sols)

        return _first_regular_value(rng, n, attempt)[1]

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
