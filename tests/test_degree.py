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
    da = tensor_degree(example1_tensor(), cfg=SolveConfig(seed=3))
    db = tensor_degree(example1_tensor(), cfg=SolveConfig(seed=3))
    assert da.value == db.value
    assert np.allclose(da.regular_value, db.regular_value)


def test_homotopy_to_leading_term():
    f = PolynomialMap([diag_cube(), Tensor(0.5 * np.eye(2))])
    h = homotopy_invariance_check(f, "to-leading-term", q=np.array([-1.0, -1.0]))
    assert h.verified
    assert h.degree_start == h.degree_end == 1


def test_homotopy_grows_a_radius_that_roots_crowd():
    # the t = 1 root (1.128, 1.128) crowds radius 1, so the sweep re-runs at 2
    f = PolynomialMap([diag_cube(), Tensor(0.5 * np.eye(2))])
    h = homotopy_invariance_check(f, "to-leading-term", q=np.array([-2.0, -2.0]),
                                  cfg=SolveConfig(search_radius=1.0))
    assert h.verified
    assert h.diagnostics["search_radius"] == 2.0


def test_box_boundary_samples_lie_on_the_box_in_three_dimensions():
    pts = degree_module._box_boundary_samples(3, 2.5, np.random.default_rng(0), count=64)
    assert pts.shape == (64, 3)
    assert np.array_equal(np.abs(pts).max(axis=1), np.full(64, 2.5))


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


def test_tie_at_a_preimage_redraws_p(monkeypatch):
    # |p_1| = 1e-7 is below tie_margin: the preimage p itself has both
    # branches of index 1 within the margin, so the draw is refused
    draw = degree_module._draw_p
    draws = []

    def tie_first(rng, n):
        draws.append(np.array([1e-7, 5e-3]) if not draws else draw(rng, n))
        return draws[-1]

    preimages = degree_module._preimage_set
    reasons = []

    def recording(*args, **kwargs):
        try:
            return preimages(*args, **kwargs)
        except degree_module._Retry as e:
            reasons.append(str(e))
            raise

    monkeypatch.setattr(degree_module, "_draw_p", tie_first)
    monkeypatch.setattr(degree_module, "_preimage_set", recording)
    est = local_degree_min_map(diag_cube())
    assert reasons == ["near-tie between branches at a preimage"]
    assert len(draws) == 2 and np.array_equal(est.regular_value, draws[1])
    assert est.value == 1


def test_winding_bisects_coarse_arcs(monkeypatch):
    # four samples leave arcs turning by pi/2 or more, which are bisected
    monkeypatch.setattr(degree_module, "_WINDING_SAMPLES", 4)
    assert winding_degree_2d(example1_tensor()) == -1
    assert winding_degree_2d(diag_cube()) == 1


@pytest.mark.parametrize("call, name", [
    (lambda: stability_radius_probe(example1_tensor(), scales=()), "scales"),
    (lambda: stability_radius_probe(example1_tensor(), scales=(float("nan"),)), "scales"),
    (lambda: homotopy_invariance_check(diag_cube(), "karamardian", d=[float("nan"), 1.0]), "d"),
], ids=["empty-scales", "nan-scale", "nan-d"])
def test_input_errors_name_the_argument(call, name):
    with pytest.raises(InvalidInputError, match=rf"^{name} "):
        call()


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


def test_karamardian_homotopy_enumerates_its_end_point_once(monkeypatch):
    # the precondition's t = 1 report serves the first sweep: 1 + 10 calls
    enumerate_solutions = degree_module.enumerate_solutions
    calls = []

    def counting(*args, **kwargs):
        calls.append(1)
        return enumerate_solutions(*args, **kwargs)

    monkeypatch.setattr(degree_module, "enumerate_solutions", counting)
    h = homotopy_invariance_check(diag_cube(), "karamardian", d=np.ones(2))
    assert h.verified
    assert len(calls) == 11
