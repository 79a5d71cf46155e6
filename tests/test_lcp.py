import numpy as np
import pytest

from pcpkit.config import Tolerances
from pcpkit.degree import tensor_degree
from pcpkit.errors import InvalidInputError
from pcpkit.lcp import LcpInstance, lcp_degree, lcp_enumerate, lemke_solve
from pcpkit.solver import SolveConfig
from pcpkit.tensor_core import Tensor

A = np.array([[-1.0, 1.0], [3.0, -2.0]])


def test_lemke_identity():
    r = lemke_solve(np.eye(2), np.array([-1.0, -2.0]))
    assert r.status == "solved"
    assert np.allclose(r.solutions[0], [1.0, 2.0])
    assert r.diagnostics["verified"]


def test_lemke_trivial_nonnegative_q():
    r = lemke_solve(A, np.array([0.5, 1.0]))
    assert r.status == "solved"
    assert np.allclose(r.solutions[0], 0.0)


def test_lemke_ray_termination_outside_guaranteed_classes():
    # negative diagonal entry: the pivot path rays out even though (3, 4)
    # solves the instance; enumeration below picks it up instead
    r = lemke_solve(A, np.array([-1.0, -1.0]))
    assert r.status == "ray-termination"


def test_lemke_verification_reads_the_feasibility_tolerance():
    # w = Mx + q of the pivoted answer carries rounding of order 1e-16
    M = np.array([[2.43, -0.46, -0.92], [-0.97, 3.55, 0.83], [0.21, 0.46, 1.35]])
    q = np.array([-1.27, -0.62, 0.04])
    assert lemke_solve(M, q).diagnostics["verified"]
    tight = lemke_solve(M, q, tols=Tolerances(feasibility=1e-20))
    assert tight.status == "solved" and not tight.diagnostics["verified"]


def test_enumerate_finds_solution_lemke_misses():
    e = lcp_enumerate(A, np.array([-1.0, -1.0]))
    assert e.status == "solved"
    assert len(e.solutions) == 1
    assert np.allclose(e.solutions[0], [3.0, 4.0], atol=1e-12)


def test_infeasible_instance():
    M = np.array([[0.0, -1.0], [-1.0, 0.0]])
    q = np.array([-1.0, -1.0])
    assert lemke_solve(M, q).status == "ray-termination"
    e = lcp_enumerate(M, q)
    assert e.status == "infeasible-pattern-exhausted"
    assert e.solutions == []


def test_enumerate_flags_non_isolated_family():
    # M = diag(0, 1), q = 0 admits the solution ray (t, 0)
    M = np.diag([0.0, 1.0])
    d = lcp_enumerate(M, np.zeros(2))
    assert d.non_isolated_suspected
    assert any(v == "singular-consistent" for v in d.diagnostics["patterns"].values())


def test_lemke_and_enumerate_agree_on_p_matrices():
    rng = np.random.default_rng(11)
    for trial in range(25):
        n = 2 + trial % 2
        B = rng.uniform(-1.0, 1.0, size=(n, n))
        np.fill_diagonal(B, np.abs(B).sum(axis=1) + rng.uniform(0.5, 1.5, size=n))
        q = rng.uniform(-2.0, 2.0, size=n)
        r1 = lemke_solve(B, q)
        r2 = lcp_enumerate(B, q)
        assert r1.status == "solved"
        assert r2.status == "solved" and len(r2.solutions) == 1
        assert np.allclose(r1.solutions[0], r2.solutions[0], atol=1e-7)


def test_lcp_instance_wrapper():
    inst = LcpInstance(np.eye(2), np.array([-2.0, 1.0]))
    r = lemke_solve(inst)
    assert r.status == "solved"
    assert np.allclose(r.solutions[0], [2.0, 0.0])


def test_identity_degree_is_one():
    assert lcp_degree(np.eye(2)).value == 1
    assert lcp_degree(np.eye(3)).value == 1


def test_matrix_degree_matches_tensor_path():
    dA = lcp_degree(A)
    dT = tensor_degree(Tensor(A))
    assert dA.value == -1
    assert dA.value == dT.value


def test_degree_agreement_on_random_r0_matrices():
    rng = np.random.default_rng(23)
    match = 0
    for trial in range(12):
        M = rng.uniform(-1.5, 1.5, size=(2, 2))
        z = lcp_enumerate(M, np.zeros(2))
        if z.non_isolated_suspected or len(z.solutions) != 1:
            continue
        cfg = SolveConfig(seed=trial)
        assert lcp_degree(M, seed=trial).value == tensor_degree(Tensor(M), cfg=cfg).value
        match += 1
    assert match >= 6


def test_degree_refuses_non_r0():
    with pytest.raises(InvalidInputError):
        lcp_degree(np.diag([0.0, 1.0]))


def test_result_json_is_serializable():
    import json

    r = lemke_solve(np.eye(2), np.array([-1.0, 0.5]))
    blob = json.dumps(r.to_json(), sort_keys=True)
    assert "solved" in blob
