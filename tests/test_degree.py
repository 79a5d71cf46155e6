import numpy as np
import pytest

from pcpkit import degree as degree_module
from pcpkit.constructions import matrix_power_tensor
from pcpkit.degree import (
    homotopy_invariance_check,
    local_degree_min_map,
    stability_radius_probe,
    tensor_degree,
    winding_degree_2d,
)
from pcpkit.errors import InvalidInputError
from pcpkit.solver import SolveConfig, verify_solution
from pcpkit.tensor_core import PcpInstance, PolynomialMap, Tensor


def example1_tensor() -> Tensor:
    A = np.array([[-1.0, 1.0], [3.0, -2.0]])
    return Tensor(np.einsum("ij,ik,il->ijkl", A, A, A))


def diag_cube() -> Tensor:
    c = np.zeros((2, 2, 2, 2))
    c[0, 0, 0, 0] = 1.0
    c[1, 1, 1, 1] = 1.0
    return Tensor(c)


def test_example1_degree_is_minus_one():
    d = tensor_degree(example1_tensor())
    assert d.value == -1
    assert d.method == "regular-value"
    assert d.diagnostics["methods_agree"]
    assert d.tie_margin is not None and d.tie_margin > 1e-6


def test_diag_cube_degree_is_one():
    assert tensor_degree(diag_cube()).value == 1


def test_identity_matrix_degree_is_one():
    assert tensor_degree(Tensor(np.eye(2))).value == 1


def test_winding_on_norm_scaled_identity():
    # ||x||^2 x restricted to the unit circle is the identity: winding 1
    t = Tensor(np.einsum("jk,il->ijkl", np.eye(2), np.eye(2)))
    assert winding_degree_2d(t) == 1


def test_winding_matches_regular_value_on_example1():
    assert winding_degree_2d(example1_tensor()) == -1


def test_local_degree_min_map_alias():
    assert local_degree_min_map(example1_tensor()).value == -1


def test_degree_refuses_non_r0_map():
    S = np.array([[0.0, -1.0], [1.0, 0.0]])
    lead2 = Tensor(np.einsum("jk,il->ijkl", np.eye(2), S))
    with pytest.raises(InvalidInputError):
        tensor_degree(lead2)


def test_degree_deterministic_per_seed():
    da = tensor_degree(example1_tensor(), seed=3)
    db = tensor_degree(example1_tensor(), seed=3)
    assert da.value == db.value
    assert np.allclose(da.regular_value, db.regular_value)


def test_homotopy_to_leading_term():
    f = PolynomialMap([diag_cube(), Tensor(0.5 * np.eye(2))])
    h = homotopy_invariance_check(f, "to-leading-term", q=np.array([-1.0, -1.0]))
    assert h.verified
    assert h.degree_start == h.degree_end == 1


def test_homotopy_karamardian_cube():
    h = homotopy_invariance_check(diag_cube(), "karamardian", d=np.ones(2), interpolate="full")
    assert h.verified and h.degree_end == 1
    f = PolynomialMap([diag_cube(), Tensor(0.5 * np.eye(2))])
    hb = homotopy_invariance_check(f, "karamardian", d=np.ones(2), interpolate="leading")
    assert hb.verified


def test_homotopy_karamardian_detects_failed_precondition():
    # PCP(f, e) for the example tensor is solved by (0, 1/2), so the
    # karamardian endpoint is not admissible and the check must say so
    h = homotopy_invariance_check(example1_tensor(), "karamardian", d=np.ones(2), interpolate="full")
    assert h.status == "precondition-failed"
    assert h.witness is not None
    assert np.allclose(h.witness, [0.0, 0.5], atol=1e-7)
    assert verify_solution(PcpInstance(example1_tensor(), np.ones(2)), h.witness).ok


def test_stability_radius_on_example1():
    st = stability_radius_probe(example1_tensor(), scales=(1e-4, 1e-3, 1e-2))
    assert st.base_degree == -1
    assert st.largest_stable_scale == 1e-2
    assert all(e["unchanged"] for e in st.per_scale)


def test_stability_probe_checks_each_zero_cone_once(monkeypatch):
    # the base map and one perturbed map per scale
    check = degree_module.check_sol_infty_zero
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return check(*args, **kwargs)

    monkeypatch.setattr(degree_module, "check_sol_infty_zero", counting)
    stability_radius_probe(example1_tensor(), scales=(1e-4, 1e-3, 1e-2))
    assert len(calls) == 4


def test_solve_config_reaches_the_preimage_newton(monkeypatch):
    engine = degree_module._newton_batch
    seen = []

    def spy(*args, **kwargs):
        seen.append((kwargs["armijo_factor"], kwargs["max_halvings"]))
        return engine(*args, **kwargs)

    monkeypatch.setattr(degree_module, "_newton_batch", spy)
    cfg = SolveConfig(armijo_factor=0.25, max_halvings=12)
    local_degree_min_map(example1_tensor(), cfg=cfg)
    f = PolynomialMap([diag_cube(), Tensor(0.5 * np.eye(2))])
    homotopy_invariance_check(f, "to-leading-term", q=np.array([-1.0, -1.0]), cfg=cfg)
    assert seen and set(seen) == {(0.25, 12)}


def test_degree_kernel_call_budget(monkeypatch):
    # one engine call per preimage sweep, with the Armijo step lengths of a
    # Newton step evaluated together: at most a third of the 821
    # Tensor.apply_batch calls that one evaluation per halving took
    apply = Tensor.apply_batch
    calls = [0]

    def counted(self, X):
        calls[0] += 1
        return apply(self, X)

    monkeypatch.setattr(Tensor, "apply_batch", counted)
    A = 2.0 * np.eye(3) - np.eye(3, k=1) - np.eye(3, k=-1)
    assert tensor_degree(matrix_power_tensor(A, 3)).value == 1
    assert calls[0] <= 274
