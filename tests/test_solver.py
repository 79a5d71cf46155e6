import json

import numpy as np
import pytest

from pcpkit.config import Tolerances
from pcpkit.constructions import matrix_power_tensor
from pcpkit.errors import InvalidInputError
from pcpkit.lcp import lcp_enumerate
from pcpkit.solver import (
    SolveConfig,
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


def test_enumerate_respects_dimension_cap():
    c = np.zeros((5,) * 3)
    for i in range(5):
        c[i, i, i] = 1.0
    with pytest.raises(InvalidInputError):
        enumerate_solutions(PcpInstance(Tensor(c), -np.ones(5)))


def test_solve_finds_far_out_solution():
    # lower-order terms push the only solution out to norm ~84; the
    # algebraic pattern candidates must reach it regardless of the
    # multistart radius
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
