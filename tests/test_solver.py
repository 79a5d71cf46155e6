import itertools
import json

import numpy as np
import pytest

from pcpkit.config import Tolerances
from pcpkit.constructions import (
    coupled_square_tensor,
    matrix_power_tensor,
    two_solution_instance,
)
from pcpkit.errors import InvalidInputError
from pcpkit import degree as degree_module
from pcpkit import solver as solver_module
from pcpkit.lcp import lcp_enumerate
from pcpkit.solver import (
    SolveConfig,
    _newton_batch,
    _solve_rows,
    _stack_pieces,
    boundedness_probe,
    certify_unsolvable,
    check_sol_infty_zero,
    enumerate_solutions,
    solve,
    verify_solution,
)
from pcpkit.tensor_core import PcpInstance, PolynomialMap, Tensor, componentwise_root


def diag_cube() -> Tensor:
    c = np.zeros((2, 2, 2, 2))
    c[0, 0, 0, 0] = 1.0
    c[1, 1, 1, 1] = 1.0
    return Tensor(c)


def example1_tensor() -> Tensor:
    A = np.array([[-1.0, 1.0], [3.0, -2.0]])
    return Tensor(np.einsum("ij,ik,il->ijkl", A, A, A))


def skew_scaled() -> Tensor:
    S = np.array([[0.0, -1.0], [1.0, 0.0]])
    return Tensor(np.einsum("jk,il->ijkl", np.eye(2), S))


def quadratic_example3() -> Tensor:
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    c[0, 1, 0] = 1.0
    c[0, 1, 1] = -2.0
    c[1, 0, 0] = 3.0
    c[1, 0, 1] = -2.0
    c[1, 1, 0] = -2.0
    c[1, 1, 1] = 1.0
    return Tensor(c)


def test_solve_diagonal_cube():
    rep = solve(PcpInstance(diag_cube(), np.array([-1.0, -1.0])))
    assert rep.status == "solved"
    assert np.allclose(rep.solutions[0], [1.0, 1.0], atol=1e-9)
    assert rep.residuals[0] < 1e-10


def test_solve_mixed_signs():
    rep = solve(PcpInstance(diag_cube(), np.array([1.0, -8.0])))
    assert rep.status == "solved"
    assert np.allclose(rep.solutions[0], [0.0, 2.0], atol=1e-9)


def test_solve_quadratic_family():
    f = quadratic_example3()
    for k in (1, 2, 3, 10):
        qk = np.array([-1.0, -1.0 - 3.0 / (4 * k * k)])
        expect = np.array([k + 1.0 / (2 * k), float(k)])
        rep = solve(PcpInstance(f, qk), SolveConfig(search_radius=15.0))
        assert rep.status == "solved"
        assert np.abs(rep.solutions[0] - expect).max() < 1e-8
        assert rep.residuals[0] < 1e-10


def test_verify_solution_accepts_and_rejects():
    inst = PcpInstance(diag_cube(), np.array([-1.0, -1.0]))
    good = verify_solution(inst, [1.0, 1.0])
    assert good.ok and good.max_violation < 1e-12
    bad = verify_solution(inst, [0.5, 0.5])
    assert not bad.ok
    # explicit tolerance is applied absolutely
    assert verify_solution(inst, [1.0, 1.0 + 1e-7], tol=1e-3).ok
    assert not verify_solution(inst, [1.0, 1.0 + 1e-7], tol=1e-12).ok


def test_verify_negative_x_is_never_excused():
    inst = PcpInstance(diag_cube(), np.array([-1.0, -1.0]))
    rep = verify_solution(inst, [1.0, -1e-6])
    assert not rep.ok
    assert rep.negative_x > 0


def test_enumerate_two_solution_instance():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[0, 0, 1] = -0.5
    c[0, 1, 0] = -0.5
    c[1, 1, 1] = 1.0
    c[1, 0, 1] = -0.5
    c[1, 1, 0] = -0.5
    f = PolynomialMap([Tensor(c), Tensor(np.diag([-1.0, -1.0]))])
    rep = enumerate_solutions(PcpInstance(f, np.ones(2)), SolveConfig(search_radius=3.0))
    assert rep.status == "all-solutions-enumerated"
    assert rep.completeness == "certified-complete"
    assert len(rep.solutions) == 2
    assert np.abs(rep.solutions[0] - 0.0).max() <= 1e-10
    assert np.abs(rep.solutions[1] - 1.0).max() <= 1e-9


def test_enumerate_reports_inconsistent_patterns():
    rep = enumerate_solutions(
        PcpInstance(quadratic_example3(), np.array([-1.0, -1.0])),
        SolveConfig(search_radius=1000.0, confirm_grid=False),
    )
    assert rep.solutions == []
    assert rep.diagnostics["patterns"]["1,2"]["status"] == "inconsistent"


def test_enumerate_one_dimensional_maps_match_exact_roots():
    # in dimension 1 a map of order m is the polynomial sum_k c_k x^(k-1),
    # k = 2..m, so the solutions are its real roots in (0, R], plus 0 when
    # q >= 0; the roots come from numpy's companion-matrix solver
    rng = np.random.default_rng(0)
    R = 5.0
    for t in range(100):
        order = 2 + t % 5
        c = rng.normal(size=order - 1)
        q = rng.normal()
        f = PolynomialMap([Tensor(np.full((1,) * k, ck)) for k, ck in zip(range(2, order + 1), c)])
        roots = np.roots(np.r_[c[::-1], q])
        exact = sorted(z.real for z in roots
                       if abs(z.imag) <= 1e-8 * max(1.0, abs(z)) and 0.0 < z.real <= R)
        exact = ([0.0] if q >= 0 else []) + exact
        rep = enumerate_solutions(PcpInstance(f, np.array([q])), SolveConfig(search_radius=R))
        got = sorted(float(x[0]) for x in rep.solutions)
        assert len(got) == len(exact), (t, got, exact)
        assert np.allclose(got, exact, rtol=1e-8, atol=1e-10), (t, got, exact)


def test_reports_carry_the_fields_the_benchmark_reads():
    # perfbench reads these from every passing op's report; a missing key
    # fails the whole benchmark run
    inst = PcpInstance(example1_tensor(), np.array([1.0, -1.0]))
    d = solve(inst).diagnostics
    for key in ("newton_starts", "newton_iterations", "newton_converged", "pattern_fallback"):
        assert key in d
    rep = enumerate_solutions(inst, SolveConfig(search_radius=3.0))
    assert rep.completeness in ("certified-complete", "best-effort")
    assert all("status" in p for p in rep.diagnostics["patterns"].values())
    est = degree_module.tensor_degree(example1_tensor())
    assert est.diagnostics["radius"] > 0 and isinstance(est.preimages, list)
    cert = certify_unsolvable(inst, [(0.0, 1.0), (0.0, 1.0)], step=0.1)
    assert cert.grid_points == 11 * 11


def test_enumerate_respects_dimension_cap():
    c = np.zeros((5,) * 3)
    for i in range(5):
        c[i, i, i] = 1.0
    with pytest.raises(InvalidInputError):
        enumerate_solutions(PcpInstance(Tensor(c), -np.ones(5)))
    # the degree reads the same cap as the enumerator
    with pytest.raises(InvalidInputError, match="capped at dim 2"):
        degree_module.tensor_degree(
            matrix_power_tensor(np.eye(3), 3), cfg=SolveConfig(pattern_dim_cap=2)
        )


def test_solve_finds_far_out_solution():
    # lower-order terms push the only solution out to norm ~84; pattern
    # Newton must reach it from a coarse grid on a wide box
    C2 = np.array([[0.2569175957578167, 0.7908335512636762],
                   [-0.6600230970611745, -0.7003689082490758]])
    C3 = np.array([[[-0.7561955573293875, -0.8471219581635661],
                    [0.06846204720748128, -0.6685376960954557]],
                   [[0.6143358601869797, -0.9547789389062398],
                    [-0.25078605653028463, -0.05359205722286231]]])
    q = np.array([-1.133886797292702, -0.576375121930838])
    f = PolynomialMap([example1_tensor(), Tensor(C3), Tensor(C2)])
    inst = PcpInstance(f, q)
    rep = enumerate_solutions(
        inst, SolveConfig(search_radius=4096.0, confirm_grid=False, grid_per_axis=5)
    )
    assert len(rep.solutions) == 1
    x = rep.solutions[0]
    assert np.abs(x - [61.665492, 84.297652]).max() < 1e-4
    assert verify_solution(inst, x).ok


def test_zero_cone_checks():
    z1 = check_sol_infty_zero(example1_tensor())
    assert z1.zero_only
    z2 = check_sol_infty_zero(skew_scaled())
    assert z2.verdict == "nonzero-solution-found"
    assert np.allclose(z2.witness, [1.0, 0.0], atol=1e-8)


def test_certify_unsolvable_example_instance():
    f = PolynomialMap([skew_scaled(), Tensor(-2.0 * np.sqrt(2.0) * np.eye(2))])
    inst = PcpInstance(f, np.array([2.0, -2.0]))
    cert = certify_unsolvable(inst, [(0.0, 1.1), (0.0, 1.1)], step=1e-3)
    assert cert.certified
    assert cert.min_residual > cert.threshold
    assert solve(inst).status == "budget-exhausted"


def test_certify_unsolvable_negative_control():
    inst = PcpInstance(Tensor(np.eye(2)), np.array([1.0, 1.0]))
    cert = certify_unsolvable(inst, [(0.0, 2.0), (0.0, 2.0)], step=0.05)
    assert not cert.certified


def test_certify_unsolvable_reads_the_given_feasibility_tolerance():
    # the root (1.05, 1.05) falls between grid nodes: the best node misses
    # it by a residual of 0.16, below the margin and within 2 * 0.1
    inst = PcpInstance(diag_cube(), np.full(2, -1.05**3))
    box = [(0.0, 1.5), (0.0, 1.5)]
    default = certify_unsolvable(inst, box, step=0.1)
    loose = certify_unsolvable(inst, box, step=0.1, tols=Tolerances(feasibility=0.1))
    assert default.status == loose.status == "inconclusive"
    assert default.note == "margin not met"
    assert loose.note == "a grid point nearly solves the instance"


@pytest.mark.parametrize("box, step", [
    ([(0.0, 1.0)] * 2, np.nan),
    ([(0.0, 1.0)] * 2, np.inf),
    ([(0.0, np.nan), (0.0, 1.0)], 0.1),
    ([(0.0, np.inf), (0.0, 1.0)], 0.1),
    ([(-np.inf, 1.0), (0.0, 1.0)], 0.1),
])
def test_certify_unsolvable_refuses_non_finite_step_or_box(box, step):
    inst = PcpInstance(diag_cube(), -np.ones(2))
    with pytest.raises(InvalidInputError):
        certify_unsolvable(inst, box, step)


def test_certify_unsolvable_blocks_match_one_batch():
    # 135^2 = 18225 grid points: four row blocks and a partial one
    f = PolynomialMap([skew_scaled(), Tensor(-2.0 * np.sqrt(2.0) * np.eye(2))])
    inst = PcpInstance(f, np.array([2.0, -2.0]))
    box = [(0.0, 2.0), (0.0, 2.0)]
    cert = certify_unsolvable(inst, box, step=0.015)
    assert cert.grid_points > 3 * solver_module._KERNEL_ROWS

    axes = [np.linspace(lo, hi, 135) for lo, hi in box]
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 2)
    res = np.abs(np.minimum(grid, f.eval_batch(grid) + inst.q)).max(axis=1)
    b = int(np.argmin(res))
    assert cert.grid_points == len(grid)
    assert cert.min_residual == res[b]
    assert np.array_equal(cert.argmin, grid[b])
    assert cert.status == ("no-solution-certified" if res[b] > cert.threshold else "inconclusive")


def test_boundedness_probe_on_cube():
    K = [np.array(v) for v in ([0.5, 0.5], [-1.0, 2.0], [-2.0, -2.0], [1.0, -1.0])]
    b = boundedness_probe(diag_cube(), K)
    assert b.passed
    assert abs(b.max_norm - 2.0 ** (1.0 / 3.0)) < 1e-6


def test_solve_reports_are_deterministic():
    inst = PcpInstance(diag_cube(), np.array([-1.0, -1.0]))
    j1 = json.dumps(solve(inst, SolveConfig(seed=7)).to_json(), sort_keys=True)
    j2 = json.dumps(solve(inst, SolveConfig(seed=7)).to_json(), sort_keys=True)
    assert j1 == j2


def test_wall_time_stays_out_of_canonical_json():
    inst = PcpInstance(diag_cube(), np.array([-1.0, -1.0]))
    rep = solve(inst)
    assert "wall_time_s" not in rep.to_json()
    assert "wall_time_s" in rep.to_json(include_timing=True)


def test_configured_tolerances_reach_verification():
    inst = PcpInstance(Tensor(np.eye(2)), -np.ones(2))
    reported = []
    for feas in (1e-30, 1e-2):
        cfg = SolveConfig(tolerances=Tolerances().override(feasibility=feas))
        rep = solve(inst, cfg)
        enum = enumerate_solutions(inst, cfg)
        assert rep.status == "solved" and len(enum.solutions) == 1
        assert rep.verifications[0].tol == enum.verifications[0].tol
        reported.append(rep.verifications[0].tol)
    assert reported[0] != reported[1]
    assert reported[1] == 1e-2


def test_solve_above_pattern_cap_skips_fallback():
    # no solution: -x - e < 0 on the orthant; n = 5 exceeds pattern_dim_cap
    rep = solve(PcpInstance(Tensor(-np.eye(5)), -np.ones(5)))
    assert rep.status == "budget-exhausted"
    assert rep.diagnostics["pattern_fallback"] is False


def _solve_starts(inst, cfg):
    # solve's starts in start order: origin, heuristic point, seeded cloud
    q, n = inst.q, inst.dim
    heur = np.maximum(0.0, -q) ** (1.0 / max(1, inst.map.degree))
    rng = np.random.default_rng(cfg.seed)
    cloud = rng.uniform(0.0, cfg.search_radius, size=(solver_module._MULTISTART, n))
    return np.vstack([np.zeros(n), heur, cloud])


def _one_batch_run(inst, cfg, X0):
    return _newton_batch(inst.map, inst.q, X0, tol=max(1e-13, cfg.tolerances.root / 100.0),
                         box_cap=10.0 * cfg.search_radius)


# (instance, starts solve runs): answered by the origin or the heuristic
# point; answered only by the seeded cloud (an Eq. 4 draw of the solve
# workload, rounded); several solutions, 0 and e
_STAGED_CASES = [
    (PcpInstance(diag_cube(), np.array([-1.0, -1.0])), 2),
    (PcpInstance(PolynomialMap([matrix_power_tensor(np.array([[1.96, 0.46], [0.57, 1.67]]), 3)]),
                 np.array([-0.87, 1.8])), 66),
    (two_solution_instance(coupled_square_tensor()), 2),
]


@pytest.mark.parametrize("inst, starts", _STAGED_CASES)
def test_staged_solve_returns_the_first_verified_start_of_one_batch(inst, starts):
    # the reference runs all 66 starts in one engine call and takes the
    # first verified row in start order
    cfg = SolveConfig()
    X, converged, rn, _ = _one_batch_run(inst, cfg, _solve_starts(inst, cfg))
    floor = solver_module._float_noise_floor(inst.map, inst.q, X)
    near = rn <= np.maximum(cfg.tolerances.root, floor)
    ref = solver_module._collect_verified(inst, X, converged | near, cfg.tolerances)
    rep = solve(inst, cfg)
    assert rep.status == "solved" and ref is not None
    assert rep.diagnostics["newton_starts"] == starts
    assert rep.diagnostics["pattern_fallback"] is False
    (x,) = rep.solutions
    assert np.abs(x - ref[0]).max() <= 1e-12 * (1.0 + np.abs(ref[0]).max())


@pytest.mark.parametrize("inst", [inst for inst, _ in _STAGED_CASES])
def test_split_batch_matches_one_batch(inst):
    cfg = SolveConfig()
    X0 = _solve_starts(inst, cfg)
    whole = _one_batch_run(inst, cfg, X0)
    parts = [_one_batch_run(inst, cfg, X0[:2]), _one_batch_run(inst, cfg, X0[2:])]
    assert np.array_equal(whole[1], np.concatenate([p[1] for p in parts]))
    X = np.vstack([p[0] for p in parts])
    c = whole[1]
    assert np.abs(X[c] - whole[0][c]).max() <= 1e-12 * (1.0 + np.abs(whole[0][c]).max())


def test_far_root_is_reported_once():
    # Eq. 4: PCP((Ax)^[3], q) has the solutions of LCP(A, q^[1/3]); the one
    # solution here sits at norm ~166, where absolute 1e-6 merging fails
    A = np.array([[0.38101307, -0.37517432], [-1.39389464, 1.37664789]])
    q = np.array([-0.04601336, 0.24582445])
    (x_star,) = lcp_enumerate(A, componentwise_root(q, 3)).solutions
    radius = max(5.0, 2.0 * float(np.abs(x_star).max()))
    inst = PcpInstance(PolynomialMap([matrix_power_tensor(A, 3)]), q)
    rep = enumerate_solutions(inst, SolveConfig().with_radius(radius))
    assert len(rep.solutions) == 1
    assert np.abs(rep.solutions[0] - x_star).max() <= 1e-4 * np.abs(x_star).max()


# --- the batched Newton engine --------------------------------------------


def _halving_reference(ev, jc, X0, tol, max_iters, armijo_factor, max_halvings, box_cap):
    """Damped Newton with one evaluation per Armijo halving and a per-row
    lstsq on singular rows: the sequential rule the step ladder replaces.
    Also returns the largest number of halvings one step took."""
    X = np.clip(np.array(X0, dtype=np.float64, copy=True), -box_cap, box_cap)
    r = ev(X)
    rn = np.abs(r).max(axis=1)
    converged = rn <= tol
    dead = np.zeros(X.shape[0], dtype=bool)
    iters = most_halvings = 0
    for _ in range(max_iters):
        act = np.nonzero(~converged & ~dead)[0]
        if act.size == 0:
            break
        iters += 1
        Xa, ra = X[act], r[act]
        J = jc(Xa)
        d = np.empty_like(ra)
        dets = np.linalg.det(J)
        scale = np.maximum(1.0, np.abs(J).max(axis=(1, 2)) ** J.shape[1])
        good = np.abs(dets) > 1e-14 * scale
        if np.any(good):
            d[good] = np.linalg.solve(J[good], -ra[good][..., None])[..., 0]
        for b in np.nonzero(~good)[0]:
            d[b] = np.linalg.lstsq(J[b], -ra[b], rcond=None)[0]
        theta0 = np.einsum("bi,bi->b", ra, ra)
        t = np.ones(act.size)
        accepted = np.zeros(act.size, dtype=bool)
        for h in range(max_halvings + 1):
            trial = np.nonzero(~accepted)[0]
            if trial.size == 0:
                break
            Xt = np.clip(Xa[trial] + t[trial, None] * d[trial], -box_cap, box_cap)
            rt = ev(Xt)
            thetat = np.einsum("bi,bi->b", rt, rt)
            ok = thetat <= (1.0 - 1e-4 * t[trial]) * theta0[trial]
            ok |= thetat <= tol * tol
            if ok.any():
                most_halvings = max(most_halvings, h)
            hit = trial[ok]
            Xa[hit] = Xt[ok]
            ra[hit] = rt[ok]
            accepted[hit] = True
            t[trial[~ok]] *= armijo_factor
        X[act] = Xa
        r[act] = ra
        rn[act] = np.abs(ra).max(axis=1)
        converged[act] = rn[act] <= tol
        dead[act[~accepted & ~converged[act]]] = True
    return X, converged, rn, iters, dead, most_halvings


def _random_cubic(rng, n):
    return PolynomialMap([Tensor(rng.normal(size=(n,) * 4)), Tensor(rng.normal(size=(n, n)))])


class _RowwiseCubic:
    """A random cubic map evaluated one row at a time, so that a row's value
    does not depend on the batch it is evaluated in (BLAS products can
    differ in the last bit from one batch size to another)."""

    def __init__(self, rng, n):
        self.C = rng.normal(size=(n,) * 4)
        self.G = self.C + self.C.transpose(0, 2, 1, 3) + self.C.transpose(0, 2, 3, 1)

    def eval_batch(self, X):
        return np.array([np.einsum("ijkl,j,k,l->i", self.C, x, x, x) for x in X]).reshape(X.shape)

    def jacobian_batch(self, X):
        return np.array([np.einsum("ijkl,k,l->ij", self.G, x, x) for x in X]).reshape(
            X.shape + X.shape[1:]
        )


def _minmap_reference_fns(f, q):
    def ev(X):
        return np.minimum(X, f.eval_batch(X) + q)

    def jc(X):
        J = f.jacobian_batch(X)
        bi, ci = np.nonzero(X < f.eval_batch(X) + q)
        J[bi, ci, :] = 0.0
        J[bi, ci, ci] = 1.0
        return J

    return ev, jc


def _piece_reference_fns(f, q, beta):
    """The piece on beta as its own |beta|-dimensional system."""
    b = np.array(beta)

    def embed(U):
        X = np.zeros((U.shape[0], f.dim))
        X[:, b] = U
        return X

    return (lambda U: f.eval_batch(embed(U))[:, b] + q[b],
            lambda U: f.jacobian_batch(embed(U))[:, b[:, None], b[None, :]])


def _assert_same_run(got, ref):
    X, converged, rn, iters = got
    Xr, cr, rnr, itr = ref[:4]
    assert iters == itr
    assert np.array_equal(converged, cr)
    assert np.abs(X - Xr).max() <= 1e-12 * (1.0 + np.abs(Xr).max())


@pytest.mark.parametrize("max_halvings", [30, 0])
def test_step_ladder_matches_sequential_halving(max_halvings, monkeypatch):
    monkeypatch.setattr(solver_module, "_NEWTON_ITERS", 40)
    if max_halvings == 0:
        monkeypatch.setattr(solver_module, "_STEP_LADDER", np.array([1.0]))
    seen = {"converged": 0, "dead": 0, "halvings": 0}
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 3
        f, q = _RowwiseCubic(rng, n), rng.normal(size=n)
        # starts near and far, so that rows converge, backtrack and die
        X0 = np.vstack([np.zeros(n), rng.uniform(-1, 1, (30, n)), rng.uniform(-8, 8, (30, n))])
        kw = dict(tol=1e-13, box_cap=50.0)
        ref = _halving_reference(*_minmap_reference_fns(f, q), X0, max_iters=40,
                                 armijo_factor=0.5, max_halvings=max_halvings, **kw)
        _assert_same_run(_newton_batch(f, q, X0, **kw), ref)
        seen["converged"] += int(ref[1].sum())
        seen["dead"] += int(ref[4].sum())
        seen["halvings"] = max(seen["halvings"], ref[5])
    assert seen["converged"] and seen["dead"]
    assert seen["halvings"] >= (8 if max_halvings else 0)


def test_masked_pieces_match_their_own_systems(monkeypatch):
    monkeypatch.setattr(solver_module, "_NEWTON_ITERS", 40)
    rng = np.random.default_rng(5)
    n = 4
    f, q = _random_cubic(rng, n), rng.normal(size=n)
    pieces = [(0,), (1, 3), (0, 2, 3), (0, 1, 2, 3)]
    kw = dict(tol=1e-13, box_cap=50.0)
    X0, beta, offsets = _stack_pieces(n, pieces, np.linspace(-2.0, 2.0, 5))
    X, converged, rn, _ = _newton_batch(f, q, X0, beta=beta, **kw)
    # off the mask every returned row still holds 0, bit for bit
    assert np.array_equal(X[~beta], np.zeros(X.shape)[~beta])
    assert converged.any() and not converged.all()
    # Rows that die stop near a singular Jacobian, where the last bits of
    # the |beta| x |beta| and the masked n x n factorizations get amplified;
    # the points are compared on the rows that converge.
    for j, b in enumerate(pieces):
        rows = slice(offsets[j], offsets[j + 1])
        alone = _newton_batch(f, q, X0[rows], beta=beta[rows], **kw)
        ref = _halving_reference(*_piece_reference_fns(f, q, b), X0[rows][:, list(b)],
                                 max_iters=40, armijo_factor=0.5, max_halvings=30, **kw)
        assert alone[3] == ref[3]
        c = ref[1]
        assert np.array_equal(alone[1], c) and np.array_equal(converged[rows], c)
        for got in (alone[0], X[rows]):
            assert np.abs(got[c][:, list(b)] - ref[0][c]).max() <= 1e-12 * (1.0 + np.abs(ref[0]).max())


def test_row_blocks_match_one_block(monkeypatch):
    # an n = 4 enumeration sweep spans several _KERNEL_ROWS blocks; the same
    # split, forced here on small batches, must not change a run beyond the
    # last bits that BLAS may vary with the batch size
    rng = np.random.default_rng(7)
    f, q = _random_cubic(rng, 3), rng.normal(size=3)
    X0 = np.vstack([np.zeros(3), rng.uniform(-4, 4, (60, 3))])
    # the cube of 2 ee^T - I has all seven nonzero LCP solutions
    inst = PcpInstance(PolynomialMap([matrix_power_tensor(2.0 - np.eye(3), 3)]), -np.ones(3))
    want_run = _newton_batch(f, q, X0, tol=1e-13, box_cap=50.0)
    want = enumerate_solutions(inst)
    monkeypatch.setattr(solver_module, "_KERNEL_ROWS", 7)
    _assert_same_run(_newton_batch(f, q, X0, tol=1e-13, box_cap=50.0), want_run)
    got = enumerate_solutions(inst)
    assert got.completeness == want.completeness == "certified-complete"
    assert len(got.solutions) == len(want.solutions) == 7
    for x, y in zip(got.solutions, want.solutions):
        assert np.abs(x - y).max() <= 1e-12 * (1.0 + np.abs(y).max())


def test_stacked_least_squares_matches_lstsq():
    rng = np.random.default_rng(2)
    n, B = 4, 40
    ranks = rng.integers(0, n, size=B)
    J = np.stack([rng.normal(size=(n, k)) @ rng.normal(size=(k, n)) for k in ranks])
    r = rng.normal(size=(B, n))
    d = _solve_rows(J, r, np.full(B, n), None, singular_tol=1e-14)
    for b in range(B):
        ref = np.linalg.lstsq(J[b], -r[b], rcond=None)[0]
        assert np.abs(d[b] - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())
    # a masked piece: the direction is that of its own |beta| x |beta| block
    beta = np.array([True, False, True, True])
    Jm = J.copy()
    Jm[:, ~beta, :] = 0.0
    Jm[:, :, ~beta] = 0.0
    Jm[:, 1, 1] = 1.0
    rm = r.copy()
    rm[:, 1] = 0.0
    d = _solve_rows(Jm, rm, np.full(B, 3), np.broadcast_to(~beta, (B, n)), singular_tol=1e-14)
    for b in range(B):
        ref = np.linalg.lstsq(Jm[b][np.ix_(beta, beta)], -rm[b, beta], rcond=None)[0]
        if abs(np.linalg.det(Jm[b])) <= 1e-14 * max(1.0, np.abs(Jm[b]).max() ** 3):
            assert np.abs(d[b, beta] - ref).max() <= 1e-12 * (1.0 + np.abs(ref).max())
            assert d[b, 1] == 0.0


# _CLOSED_FORM_ROWS values that send every n x n stack to one path of _solve_rows
_PATHS = {"closed-form": (0,) * 5, "lapack": (np.inf,) * 5}


def _direction_stack(rng, B, n):
    """B rows of J d = -r: in turn plain, plain, masked and exactly singular
    (one zero f-row, as (Ax)^[k] has at x = 0). The plain and masked blocks
    have singular values in [0.5, 2] times a row scale in [1e-2, 1e2]."""
    Q1, Q2 = (np.linalg.qr(rng.normal(size=(B, n, n)))[0] for _ in range(2))
    J = (Q1 * rng.uniform(0.5, 2.0, (B, 1, n))) @ Q2 * 10.0 ** rng.uniform(-2, 2, (B, 1, 1))
    r = rng.normal(size=(B, n))
    off = np.zeros((B, n), dtype=bool)
    off[2::4] = rng.random((len(range(2, B, 4)), n)) < 0.5
    bi, ci = np.nonzero(off)
    J[bi, ci, :] = 0.0
    J[bi, :, ci] = 0.0
    J[bi, ci, ci] = 1.0
    r[off] = 0.0
    J[np.arange(3, B, 4), np.arange(3, B, 4) % n, :] = 0.0
    return J, r, off


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("side", ["below", "above"])
def test_closed_form_directions_match_lapack(n, side, monkeypatch):
    rng = np.random.default_rng(n)
    B = solver_module._CLOSED_FORM_ROWS[n] + (-5 if side == "below" else 5)
    J, r, off = _direction_stack(rng, B, n)
    k = n - off.sum(axis=1)
    det, _ = solver_module._cramer(np.ascontiguousarray(J.transpose(1, 2, 0)), r.T)
    ref_det = np.linalg.det(J)
    assert np.all(np.abs(det - ref_det) <= 1e-13 * np.abs(ref_det))
    default = _solve_rows(J, r, k, off, singular_tol=1e-14)
    monkeypatch.setattr(solver_module, "_CLOSED_FORM_BLOCK", 64)  # several blocks
    d = {}
    for path, rows in _PATHS.items():
        monkeypatch.setattr(solver_module, "_CLOSED_FORM_ROWS", rows)
        d[path] = _solve_rows(J, r, k, off, singular_tol=1e-14)
    assert np.array_equal(default, d["lapack" if side == "below" else "closed-form"])
    singular = np.arange(B) % 4 == 3
    assert np.array_equal(d["closed-form"][singular], d["lapack"][singular])
    for got in d.values():
        assert not got[off].any()
        for b in range(B):
            keep = ~off[b]
            if singular[b]:
                ref = np.linalg.lstsq(J[b], -r[b], rcond=None)[0]
            else:
                ref = np.linalg.solve(J[b][np.ix_(keep, keep)], -r[b, keep])
            assert np.abs(got[b, keep] - ref).max(initial=0.0) <= 1e-12 * (1.0 + np.abs(ref).max(initial=0.0))


def test_closed_form_path_matches_lapack_path_in_the_engine(monkeypatch):
    # all 16 pieces of PCP((Ax)^[3], q), A a P-matrix, from a 5-point grid:
    # 1296 rows, of which the 15 that start at x_beta = 0 meet the zero
    # Jacobian there, take the least-squares step and die
    rng = np.random.default_rng(0)
    n = 4
    f = PolynomialMap([matrix_power_tensor(rng.uniform(-1, 1, (n, n)) + n * np.eye(n), 3)])
    q = 1.5 * rng.normal(size=n)
    pieces = [b for m in range(n + 1) for b in itertools.combinations(range(n), m)]
    X0, beta, _ = _stack_pieces(n, pieces, np.linspace(0.0, 3.0, 5))
    default_rows = solver_module._CLOSED_FORM_ROWS
    calls = {"det": 0, "solve": 0}

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapper(*a, **kw):
            calls[name] += 1
            return fn(*a, **kw)

        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    runs = {}
    for path, rows in _PATHS.items():
        monkeypatch.setattr(solver_module, "_CLOSED_FORM_ROWS", rows)
        calls.update(det=0, solve=0)
        runs[path] = _newton_batch(f, q, X0, tol=1e-13, box_cap=50.0, beta=beta)
        assert (calls == {"det": 0, "solve": 0}) == (path == "closed-form")
    assert runs["lapack"][1].any() and not runs["lapack"][1].all()
    _assert_same_run(runs["closed-form"], runs["lapack"])
    # at the default crossover a stack of _CLOSED_FORM_ROWS[4] rows makes no
    # LAPACK det or solve call, and one row fewer makes one of each
    monkeypatch.setattr(solver_module, "_CLOSED_FORM_ROWS", default_rows)
    B = default_rows[n]
    J, r, _ = _direction_stack(rng, B, n)
    for rows, want in ((B, 0), (B - 1, 1)):
        calls.update(det=0, solve=0)
        _solve_rows(J[:rows], r[:rows], np.full(rows, n), None, singular_tol=1e-14)
        assert calls == {"det": want, "solve": want}


def _piece_by_piece(monkeypatch, module):
    """Route module._newton_batch through one engine call per distinct mask."""
    engine = module._newton_batch

    def split(f, q, X0, beta=None, **kw):
        if beta is None:
            return engine(f, q, X0, **kw)
        X, conv, rn = np.empty_like(X0), np.zeros(len(X0), bool), np.empty(len(X0))
        for mask in np.unique(beta, axis=0):
            rows = np.nonzero((beta == mask).all(axis=1))[0]
            X[rows], conv[rows], rn[rows], _ = engine(f, q, X0[rows], beta=beta[rows], **kw)
        return X, conv, rn, 0

    monkeypatch.setattr(module, "_newton_batch", split)


def _eq4_instances():
    rng = np.random.default_rng(11)
    for n, k in [(2, 3), (2, 5), (3, 3)]:
        A = rng.uniform(-1, 1, (n, n)) + n * np.eye(n) * rng.choice([-1.0, 1.0])
        yield PcpInstance(PolynomialMap([matrix_power_tensor(A, k)]), rng.uniform(-1, 1, n))
    yield PcpInstance(example1_tensor(), np.array([-1.0, 0.5]))
    yield PcpInstance(PolynomialMap([diag_cube(), Tensor(0.5 * np.eye(2))]), np.array([-1.0, 1.0]))


def test_all_pieces_in_one_call_match_piece_by_piece(monkeypatch):
    merged = [enumerate_solutions(inst) for inst in _eq4_instances()]
    _piece_by_piece(monkeypatch, solver_module)
    for inst, rep in zip(_eq4_instances(), merged):
        alone = enumerate_solutions(inst)
        assert alone.completeness == rep.completeness
        assert len(alone.solutions) == len(rep.solutions)
        for x, y in zip(alone.solutions, rep.solutions):
            assert np.abs(x - y).max() <= 1e-12 * (1.0 + np.abs(y).max())
        assert {k: v["status"] for k, v in alone.diagnostics["patterns"].items()} == {
            k: v["status"] for k, v in rep.diagnostics["patterns"].items()
        }


@pytest.mark.parametrize("value", [-1.0, 0.0, float("nan"), float("inf"), "x", True, None])
def test_tolerances_must_be_finite_positive_numbers(value):
    with pytest.raises(InvalidInputError):
        Tolerances().override(feasibility=value)
    with pytest.raises(InvalidInputError):
        Tolerances(dual_strict=value)


@pytest.mark.parametrize(
    "field, value",
    [
        ("seed", "1"),
        ("seed", -1),
        ("grid_per_axis", 0),
        ("confirm_grid", "no"),
        ("confirm_grid", 1),
        ("search_radius", float("nan")),
    ],
)
def test_solve_config_rejects_bad_values(field, value):
    with pytest.raises(InvalidInputError):
        SolveConfig(**{field: value})


def test_solve_config_accepts_its_edge_values():
    cfg = SolveConfig(seed=np.int64(3), grid_per_axis=1, pattern_dim_cap=0,
                      confirm_grid=False, tolerances=Tolerances(feasibility=1e-30))
    assert cfg.grid_per_axis == 1 and cfg.pattern_dim_cap == 0
