import numpy as np

from pcpkit import solver as solver_module
from pcpkit.classify import (
    dual_interior_test,
    gus_probe,
    is_copositive,
    is_nonneg_pos_diag,
    is_R,
    is_R0,
    is_strong_M,
    is_Z_tensor,
    p_property_check,
    sol_cone_sample,
    strong_q_probe,
)
from pcpkit.constructions import example_catalog
from pcpkit.solver import SolveConfig
from pcpkit.tensor_core import PcpInstance, PolynomialMap, Tensor

A1 = np.array([[-1.0, 1.0], [3.0, -2.0]])
EX1 = Tensor(np.einsum("ij,ik,il->ijkl", A1, A1, A1))

CUBE_C = np.zeros((2, 2, 2, 2))
CUBE_C[0, 0, 0, 0] = 1.0
CUBE_C[1, 1, 1, 1] = 1.0
CUBE = Tensor(CUBE_C)

SKEW = np.array([[0.0, -1.0], [1.0, 0.0]])
LEAD2 = Tensor(np.einsum("jk,il->ijkl", np.eye(2), SKEW))
F2 = PolynomialMap([LEAD2, Tensor(-2.0 * np.sqrt(2.0) * np.eye(2))])


def test_r0_verdicts():
    assert is_R0(CUBE).verdict == "holds-up-to-sampling"
    assert is_R0(EX1).verdict == "holds-up-to-sampling"
    v = is_R0(LEAD2)
    assert v.verdict == "fails"
    w = np.array(v.witness["x"])
    assert abs(w[0] - 1.0) < 1e-6 and abs(w[1]) < 1e-6


def test_r_holds_for_cube_via_r0_and_ones():
    v = is_R(CUBE)
    assert v.verdict == "holds-up-to-sampling"
    assert v.evidence["d_tested"] == 1


def test_r_fails_for_example_tensor_with_witness():
    v = is_R(EX1)
    assert v.verdict == "fails"
    assert np.allclose(v.witness["d"], [1.0, 1.0])
    assert np.allclose(v.witness["nonzero_solution"], [0.0, 0.5], atol=1e-8)


def test_copositive_identically_zero_form():
    # x^T (Lx)^[3] vanishes identically when L rotates by 90 degrees
    v = is_copositive(LEAD2)
    assert v.verdict == "holds"
    assert v.evidence["identically_zero"]
    assert is_copositive(LEAD2, strict=True).verdict == "fails"


def test_copositive_sampling_verdicts():
    assert is_copositive(CUBE).verdict == "holds-up-to-sampling"
    assert is_copositive(CUBE, strict=True).verdict == "holds-up-to-sampling"
    assert is_copositive(CUBE, mode="simplex-minimize").verdict == "holds-up-to-sampling"
    v = is_copositive(Tensor(-CUBE_C))
    assert v.verdict == "fails"
    assert v.witness["value"] < -1e-10
    # general (non-homogeneous) maps take the box-sampling branch
    assert is_copositive(PolynomialMap([CUBE, Tensor(np.eye(2))])).verdict == "holds-up-to-sampling"


def test_z_tensor_scan():
    v = is_Z_tensor(EX1)
    assert v.verdict == "fails"
    assert v.witness["index"] == [2, 1, 1, 1]
    assert v.witness["value"] == 27.0
    assert is_Z_tensor(CUBE).verdict == "holds"


def test_nonneg_pos_diag_scan():
    assert is_nonneg_pos_diag(CUBE).verdict == "holds"
    assert is_nonneg_pos_diag(EX1).verdict == "fails"


def test_strong_m_certificate():
    v = is_strong_M(CUBE)
    assert v.verdict == "holds"
    d = np.array(v.evidence["d"])
    assert d.min() > 0 and v.evidence["min_component"] > 0
    assert is_strong_M(Tensor(-CUBE_C)).verdict == "fails"
    v2 = is_strong_M(EX1)
    assert v2.verdict == "fails"
    assert v2.evidence.get("reason") == "not a Z-tensor"


def test_gus_probe():
    assert gus_probe(CUBE).verdict == "holds-up-to-sampling"
    v = gus_probe(EX1)
    assert v.verdict == "fails"
    assert "solution_a" in v.witness and "solution_b" in v.witness


def test_p_property():
    assert p_property_check(Tensor(np.eye(2))).verdict == "holds-up-to-sampling"
    assert p_property_check(CUBE).verdict == "holds-up-to-sampling"
    v = p_property_check(F2)
    assert v.verdict == "fails"
    assert v.witness["value"] <= 1e-12


def test_p_property_fails_only_on_a_violation():
    # (Ax)^[3] with A a P-matrix is a P-function: psi is positive on every
    # pair, however close to zero a polished pair gets
    T = {e.name: e for e in example_catalog()}["r-matrix-power-01"].tensor
    assert p_property_check(T).verdict == "holds-up-to-sampling"
    v = p_property_check(F2)
    assert v.verdict == "fails"
    x, y = np.array(v.witness["x"]), np.array(v.witness["y"])
    assert np.max((x - y) * (F2.eval(x) - F2.eval(y))) <= 0.0


def test_sol_cone_sample_single_generator():
    S = sol_cone_sample(LEAD2)
    assert len(S.generators) == 1
    assert np.allclose(S.generators[0], [1.0, 0.0], atol=1e-7)
    assert all(r <= 1e-8 for r in S.residuals)
    assert sol_cone_sample(CUBE).generators == []


def test_dual_interior_test():
    S = sol_cone_sample(LEAD2)
    S0 = sol_cone_sample(CUBE)
    assert dual_interior_test(np.array([2.0, -2.0]), S) == "interior"
    assert dual_interior_test(np.array([0.0, 1.0]), S) == "boundary"
    assert dual_interior_test(np.array([-1.0, 5.0]), S) == "outside"
    # empty cone: every q is interior to the dual
    assert dual_interior_test(np.array([-1.0, -1.0]), S0) == "interior"


def test_strong_q_sampling_path():
    v = strong_q_probe(CUBE, trials=15)
    assert v.verdict == "holds-up-to-sampling"
    assert v.evidence["solved"] == 15


def test_strong_q_witness_path():
    inst = PcpInstance(F2, np.array([2.0, -2.0]))
    v = strong_q_probe(LEAD2, witnesses=[(inst, [(0.0, 1.1), (0.0, 1.1)], 1e-3)])
    assert v.verdict == "fails"
    assert v.witness["certificate"]["status"] == "no-solution-certified"


def test_dual_strict_tolerance_reaches_the_dual_test():
    from pcpkit.classify import ConeSample
    from pcpkit.config import Tolerances

    S = ConeSample(generators=[np.array([1.0, 0.0])])
    q = np.array([1e-3, 1.0])
    assert dual_interior_test(q, S) == "interior"
    assert dual_interior_test(q, S, Tolerances(dual_strict=1e-2)) == "boundary"


def test_property_table_refuses_coefficient_checks_on_mixed_maps():
    import pytest

    from pcpkit.classify import PROPERTIES, property_check
    from pcpkit.errors import InvalidInputError
    from pcpkit.solver import SolveConfig

    assert PROPERTIES == ("r0", "r", "copositive", "strictly-copositive", "z", "strong-m",
                          "nonneg-pos-diag", "gus", "strong-q", "p")
    for name in ("z", "strong-m", "nonneg-pos-diag", "strong-q"):
        with pytest.raises(InvalidInputError, match="coefficient check"):
            property_check(name)(F2, SolveConfig())
    assert property_check("z")(PolynomialMap([CUBE]), SolveConfig()).verdict == "holds"
    with pytest.raises(InvalidInputError, match="unknown property"):
        property_check("z-leading")


def test_solve_config_reaches_the_r_search_newton(monkeypatch):
    engine = solver_module._newton_batch
    seen = []

    def spy(*args, **kwargs):
        seen.append((kwargs["armijo_factor"], kwargs["max_halvings"], kwargs["max_iters"]))
        return engine(*args, **kwargs)

    monkeypatch.setattr(solver_module, "_newton_batch", spy)
    cfg = SolveConfig(armijo_factor=0.25, max_halvings=12, newton_max_iters=50)
    assert is_R(CUBE, n_random=0, cfg=cfg).verdict == "holds-up-to-sampling"
    # the zero-cone sampling polishes with its own 40 iterations
    assert seen and set(seen) == {(0.25, 12, 50), (0.25, 12, 40)}
