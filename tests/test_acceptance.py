"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single
"[acceptance] criterion N: PASS/FAIL" line; run with -s to see them live.
Criteria 1-5 and 8 drive the packaged scenarios; 6, 7, 9, and 10 are
assembled here directly.
"""

import json
import time

import numpy as np

from pcpkit.cli import run_scenario
from pcpkit.classify import is_R0
from pcpkit.constructions import EXAMPLE1_MATRIX, matrix_power_tensor, norm_scaled_power_map
from pcpkit.degree import homotopy_invariance_check, tensor_degree
from pcpkit.lcp import lcp_degree, lcp_enumerate
from pcpkit.solver import SolveConfig, check_sol_infty_zero, enumerate_solutions, solve
from pcpkit.tensor_core import PcpInstance, PolynomialMap, Tensor, as_map, fd_jacobian


def _line(n: int, ok: bool, blurb: str) -> None:
    mark = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {n:2d}: {mark} - {blurb}")


def _scenario_criterion(n: int, name: str, budget_s: float, blurb: str) -> None:
    t0 = time.perf_counter()
    try:
        rep = run_scenario(name)
        bad = [c["name"] for c in rep.checks if not c["ok"]]
        assert rep.passed, f"failed checks: {bad}"
        dt = time.perf_counter() - t0
        assert dt < budget_s, f"{dt:.1f}s exceeds the {budget_s:.0f}s budget"
    except BaseException:
        _line(n, False, blurb)
        raise
    _line(n, True, f"{blurb} ({len(rep.checks)} checks, {dt:.1f}s)")


def test_criterion_01_example_matrix_tensor():
    _scenario_criterion(1, "example1", 60.0, "degree -1 matrix/tensor pair with class verdicts")


def test_criterion_02_unsolvable_dual_cone():
    _scenario_criterion(2, "example2", 120.0, "cone generator, dual interior, certified unsolvable")


def test_criterion_03_quadratic_family():
    _scenario_criterion(3, "example3", 60.0, "closed-form solutions and inconsistent limit")


def test_criterion_04_power_tensor_equivalence():
    _scenario_criterion(4, "eq4-equivalence", 600.0, "solution transfer on 50 random pairs")


def test_criterion_05_r_tensor_degrees():
    _scenario_criterion(5, "r-degree-one", 600.0, "catalog r-tensors all have degree one")


def test_criterion_06_power_tensor_degree_matches_matrix():
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(42)
        done = 0
        attempts = 0
        while done < 20:
            attempts += 1
            assert attempts < 200, "not enough isolated-zero draws"
            n = 2 + (attempts % 2)
            A = rng.uniform(-1.5, 1.5, size=(n, n))
            z = lcp_enumerate(A, np.zeros(n))
            if z.non_isolated_suspected or len(z.solutions) != 1:
                continue
            k = 3 if done % 2 == 0 else 5
            da = lcp_degree(A, seed=done)
            dt_deg = tensor_degree(matrix_power_tensor(A, k), cfg=SolveConfig(seed=done))
            assert da.value == dt_deg.value, (A.tolist(), k, da.value, dt_deg.value)
            done += 1
    except BaseException:
        _line(6, False, "power-tensor degree equals matrix degree")
        raise
    _line(6, True, f"power-tensor degree equals matrix degree (20 matrices, {time.perf_counter()-t0:.1f}s)")


def test_criterion_07_norm_scaled_example_tensor():
    t0 = time.perf_counter()
    try:
        g = norm_scaled_power_map(EXAMPLE1_MATRIX, 3, 1)
        assert g.order == 6
        z = check_sol_infty_zero(g)
        assert z.zero_only, z.verdict
        assert is_R0(g).verdict == "holds-up-to-sampling"
        d = tensor_degree(g)
        assert d.value == -1, d.value
    except BaseException:
        _line(7, False, "norm-scaled map stays r0 with degree -1")
        raise
    _line(7, True, f"norm-scaled map stays r0 with degree -1 ({time.perf_counter()-t0:.1f}s)")


def test_criterion_08_two_solution_set():
    _scenario_criterion(8, "remark5", 600.0, "constructed instance solved exactly by 0 and e")


def test_criterion_09_karamardian_pipeline():
    t0 = time.perf_counter()
    try:
        cube = np.zeros((2, 2, 2, 2))
        cube[0, 0, 0, 0] = 1.0
        cube[1, 1, 1, 1] = 1.0
        rng = np.random.default_rng(5)
        for trial in range(5):
            B = rng.uniform(-1.0, 1.0, size=(2, 2))
            B /= max(1.0, np.abs(B).sum(axis=1).max())
            f = PolynomialMap([Tensor(cube), Tensor(B)])
            h = homotopy_invariance_check(f, "karamardian", d=np.ones(2))
            assert h.verified, (trial, h.status)
            assert h.degree_start == 1 and h.degree_end == 1, (trial, h.degree_start, h.degree_end)
            assert max(h.max_root_norms) < np.inf and max(h.max_root_norms) <= h.omega_radius
            for _ in range(50):
                q = rng.uniform(-2.0, 2.0, size=2)
                rep = solve(PcpInstance(f, q))
                assert rep.status == "solved", (trial, q.tolist())
    except BaseException:
        _line(9, False, "karamardian homotopy and solvability sweep")
        raise
    _line(9, True, f"karamardian homotopy and solvability sweep ({time.perf_counter()-t0:.1f}s)")


def _maps_for_property_suite():
    cube = np.zeros((2, 2, 2, 2))
    cube[0, 0, 0, 0] = 1.0
    cube[1, 1, 1, 1] = 1.0
    rng = np.random.default_rng(9)
    ex1 = matrix_power_tensor(EXAMPLE1_MATRIX, 3)
    quad = Tensor(rng.normal(size=(3, 3, 3)))
    mixed = PolynomialMap([Tensor(cube), Tensor(rng.normal(size=(2, 2)))])
    return [as_map(Tensor(cube)), as_map(ex1), as_map(quad), mixed]


def test_criterion_10_property_suites():
    t0 = time.perf_counter()
    try:
        rng = np.random.default_rng(123)

        # min-relation, both directions, on 10^4 pairs; half are built
        # complementary so the zero branch is actually exercised
        for i in range(10_000):
            n = 2 + i % 3
            if i % 2 == 0:
                x = np.abs(rng.normal(size=n))
                y = np.abs(rng.normal(size=n))
                active = rng.random(n) < 0.5
                x[~active] = 0.0
                y[active] = 0.0
            else:
                x = rng.normal(size=n)
                y = rng.normal(size=n)
            lhs = bool(np.all(np.minimum(x, y) == 0.0))
            rhs = bool(np.all(x >= 0) and np.all(y >= 0) and np.all(x * y == 0.0))
            assert lhs == rhs, (x.tolist(), y.tolist())

        # homogeneity of leading terms, relative 1e-10
        for f in _maps_for_property_suite():
            lead = as_map(f.leading)
            deg = lead.degree
            for _ in range(50):
                x = rng.normal(size=lead.dim)
                t = float(rng.uniform(0.2, 3.0))
                a = lead.eval(t * x)
                b = t**deg * lead.eval(x)
                scale = max(1.0, np.abs(b).max())
                assert np.abs(a - b).max() <= 1e-10 * scale

        # analytic Jacobians against finite differences, 100 points/map
        for f in _maps_for_property_suite():
            for _ in range(100):
                x = rng.normal(size=f.dim)
                assert np.abs(f.jacobian(x) - fd_jacobian(f, x)).max() < 1e-5

        # determinism: repeated runs serialize byte-identically
        cube = _maps_for_property_suite()[0]
        inst = PcpInstance(cube, np.array([-1.0, -1.0]))
        pairs = [
            json.dumps(solve(inst, SolveConfig(seed=3)).to_json(), sort_keys=True),
            json.dumps(tensor_degree(cube.leading, cfg=SolveConfig(seed=3)).to_json(), sort_keys=True),
            json.dumps(is_R0(cube, cfg=SolveConfig(seed=3)).to_json(), sort_keys=True),
            json.dumps(enumerate_solutions(inst).to_json(), sort_keys=True),
        ]
        rerun = [
            json.dumps(solve(inst, SolveConfig(seed=3)).to_json(), sort_keys=True),
            json.dumps(tensor_degree(cube.leading, cfg=SolveConfig(seed=3)).to_json(), sort_keys=True),
            json.dumps(is_R0(cube, cfg=SolveConfig(seed=3)).to_json(), sort_keys=True),
            json.dumps(enumerate_solutions(inst).to_json(), sort_keys=True),
        ]
        assert pairs == rerun
    except BaseException:
        _line(10, False, "min-relation, homogeneity, jacobian, determinism")
        raise
    _line(10, True, f"min-relation, homogeneity, jacobian, determinism ({time.perf_counter()-t0:.1f}s)")
