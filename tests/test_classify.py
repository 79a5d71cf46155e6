import numpy as np
import pytest

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
from pcpkit.constructions import example3_q, example_catalog
from pcpkit.degree import stability_radius_probe
from pcpkit.errors import InvalidInputError
from pcpkit.solver import SolveConfig, boundedness_probe
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


def test_r_refuses_bad_d_candidates_before_any_sweep(monkeypatch):
    import pytest

    from pcpkit.errors import InvalidInputError

    def no_sweep(*args, **kwargs):
        raise AssertionError("swept before validating the d candidates")

    monkeypatch.setattr(solver_module, "_newton_batch", no_sweep)
    for bad in ([-1.0, 2.0], [0.0, 1.0], [np.inf, 1.0], [1.0, 1.0, 1.0]):
        with pytest.raises(InvalidInputError):
            is_R(CUBE, d_candidates=[bad])


def test_copositive_identically_zero_form():
    # x^T (Lx)^[3] vanishes identically when L rotates by 90 degrees
    v = is_copositive(LEAD2)
    assert v.verdict == "holds"
    assert v.evidence["identically_zero"]
    assert is_copositive(LEAD2, strict=True).verdict == "fails"


def test_copositive_sampling_verdicts():
    assert is_copositive(CUBE).verdict == "holds-up-to-sampling"
    assert is_copositive(CUBE, strict=True).verdict == "holds-up-to-sampling"
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


def test_p_property_refuses_pairs_off_the_orthant():
    import pytest

    from pcpkit.errors import InvalidInputError

    # x -> x^[2] is a P-function on the orthant; (-1, 0) lies outside it
    square = np.zeros((2, 2, 2))
    square[0, 0, 0] = square[1, 1, 1] = 1.0
    for bad in ([(-1.0, 0.0), (0.0, 0.0)], [(np.nan, 0.0), (0.0, 0.0)],
                [(1.0, 0.0, 0.0), (0.0, 0.0)]):
        with pytest.raises(InvalidInputError):
            p_property_check(Tensor(square), pair_samples=[bad])
    v = p_property_check(Tensor(square), pair_samples=[([3.0, 0.0], [0.0, 3.0])])
    assert v.verdict == "holds-up-to-sampling"


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
    for bad, cone in (([np.nan, 1.0], S), ([1.0, 1.0, 1.0], S), ([np.nan, 1.0], S0)):
        with pytest.raises(InvalidInputError):
            dual_interior_test(bad, cone)


@pytest.mark.parametrize("probe", [
    lambda: gus_probe(EX1, q_samples=[]),
    lambda: strong_q_probe(EX1, trials=0),
    lambda: strong_q_probe(EX1, trials=2.5),
    lambda: strong_q_probe(EX1, trials=True),
    lambda: boundedness_probe(CUBE, []),
    lambda: stability_radius_probe(EX1, scales=()),
], ids=["gus-no-q", "strong-q-zero-trials", "strong-q-fractional-trials",
        "strong-q-bool-trials", "boundedness-empty-K", "stability-no-scales"])
def test_probes_refuse_vacuous_input(probe):
    with pytest.raises(InvalidInputError):
        probe()


def test_strong_q_sampling_path():
    v = strong_q_probe(CUBE, trials=15)
    assert v.verdict == "holds-up-to-sampling"
    assert v.evidence["solved"] == 15


def test_strong_q_witness_path():
    inst = PcpInstance(F2, np.array([2.0, -2.0]))
    v = strong_q_probe(LEAD2, witnesses=[(inst, [(0.0, 1.1), (0.0, 1.1)], 1e-3)])
    assert v.verdict == "fails"
    assert v.witness["certificate"]["status"] == "no-solution-certified"


def test_strong_q_counts_witnesses_from_a_generator():
    # both instances solve, so neither witness ends the probe
    gen = ((PcpInstance(CUBE, q), [(0.0, 2.0)] * 2, 1e-2) for q in (-np.ones(2), np.ones(2)))
    v = strong_q_probe(CUBE, trials=1, witnesses=gen)
    assert v.verdict == "holds-up-to-sampling"
    assert v.evidence["witnesses_checked"] == 2


def test_strong_q_random_trials_never_fail():
    # Example 1's tensor is R0 with degree -1, so by the main theorem every
    # perturbed PCP has a solution. Without the pattern enumeration, trial 23
    # (q = (-1.3465, 1.5337), a root near (34.4, 45.5)) stays unsolved; it is
    # listed, not turned into a "fails".
    v = strong_q_probe(EX1, SolveConfig(pattern_dim_cap=1), trials=24)
    assert v.verdict == "holds-up-to-sampling"
    assert 23 in v.evidence["unresolved_trials"]
    assert v.evidence["solved"] == 24 - len(v.evidence["unresolved_trials"])


def test_gus_lists_a_q_without_a_found_solution():
    # the one solution (20.025, 20) lies outside the default search radius
    E3 = {e.name: e for e in example_catalog()}["example3"].payload
    v = gus_probe(E3, q_samples=[example3_q(20)])
    assert v.verdict == "holds-up-to-sampling"
    assert v.evidence["unresolved_q"] == [0]


TINY_CUBE = Tensor(1e-11 * CUBE_C)


def test_strong_m_floor_scales_with_the_tensor():
    v = is_strong_M(TINY_CUBE)
    assert v.verdict == "holds" and v.evidence["min_component"] > 0


def test_strict_copositivity_floor_scales_with_the_form():
    assert is_copositive(TINY_CUBE, strict=True).verdict == "holds-up-to-sampling"
    # (x1^2 - x2^2)^2 vanishes at (1, 1)/2, so it is copositive but not strictly
    C = np.zeros((2, 2, 2, 2))
    C[0, 0, 0, 0] = C[1, 1, 1, 1] = 1.0
    C[0, 0, 1, 1] = C[1, 1, 0, 0] = -1.0
    assert is_copositive(Tensor(C)).verdict == "holds-up-to-sampling"
    v = is_copositive(Tensor(C), strict=True)
    assert v.verdict == "fails" and v.witness["value"] == 0.0


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
