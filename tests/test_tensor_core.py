import numpy as np
import pytest

from pcpkit.errors import InvalidInputError
from pcpkit.tensor_core import (
    PcpInstance,
    PolynomialMap,
    Tensor,
    as_map,
    componentwise_power,
    componentwise_root,
    fd_jacobian,
    instance_from_json,
    instance_to_json,
    leading_term,
    load_instance,
    load_tensor,
    map_from_json,
    map_to_json,
    min_map,
    save_instance,
    save_tensor,
    tensor_from_json,
    tensor_to_json,
)


def diag_cube() -> Tensor:
    c = np.zeros((2, 2, 2, 2))
    c[0, 0, 0, 0] = 1.0
    c[1, 1, 1, 1] = 1.0
    return Tensor(c)


def test_tensor_apply_matrix_case():
    t = Tensor(np.array([[2.0, 0.0], [1.0, 3.0]]))
    assert t.order == 2 and t.dim == 2
    assert np.allclose(t.apply([1.0, 2.0]), [2.0, 7.0])


def test_tensor_apply_cube():
    t = diag_cube()
    assert t.order == 4
    assert np.allclose(t.apply([2.0, -1.0]), [8.0, -1.0])


def test_tensor_apply_batch_matches_single():
    rng = np.random.default_rng(0)
    t = Tensor(rng.normal(size=(3, 3, 3)))
    X = rng.normal(size=(8, 3))
    batch = t.apply_batch(X)
    for i in range(8):
        assert np.allclose(batch[i], t.apply(X[i]))


def test_tensor_jacobian_matches_finite_differences():
    rng = np.random.default_rng(1)
    t = Tensor(rng.normal(size=(2, 2, 2, 2)))
    x = rng.normal(size=2)
    J = t.jacobian(x)
    Jfd = fd_jacobian(t, x)
    assert np.abs(J - Jfd).max() < 1e-5


def test_tensor_equality_and_hash():
    a = diag_cube()
    b = diag_cube()
    assert a == b and hash(a) == hash(b)
    c = Tensor(a.coeffs * 2.0)
    assert a != c


def test_polynomial_map_orders():
    f = PolynomialMap([diag_cube(), Tensor(np.eye(2))])
    assert f.order == 4 and f.degree == 3
    assert sorted(f.terms) == [2, 4]
    assert not f.is_homogeneous()
    assert f.leading == diag_cube()
    x = np.array([2.0, -1.0])
    assert np.allclose(f.eval(x), [10.0, -2.0])


def test_polynomial_map_rejects_duplicates_and_constants():
    with pytest.raises(InvalidInputError):
        PolynomialMap([Tensor(np.eye(2)), Tensor(2.0 * np.eye(2))])
    with pytest.raises(InvalidInputError):
        PolynomialMap([Tensor(np.ones(2))])
    with pytest.raises(InvalidInputError):
        PolynomialMap([])


def test_polynomial_map_rejects_zero_leading():
    with pytest.raises(InvalidInputError):
        PolynomialMap([Tensor(np.zeros((2, 2, 2))), Tensor(np.eye(2))])


def _vanishing_cube() -> Tensor:
    """Nonzero coefficients whose sums over permuted trailing indices are 0,
    so T x^2 = 0 for every x."""
    c = np.zeros((2, 2, 2))
    c[0, 0, 1], c[0, 1, 0] = 1.0, -1.0
    c[1, 0, 1], c[1, 1, 0] = 2.0, -2.0
    return Tensor(c)


def test_polynomial_map_rejects_a_leading_term_whose_map_vanishes():
    t = _vanishing_cube()
    assert np.any(t.coeffs) and t.is_zero()
    with pytest.raises(InvalidInputError, match="vanishes identically"):
        PolynomialMap([t, Tensor(np.diag([2.0, 3.0]))])
    with pytest.raises(InvalidInputError, match="vanishes identically"):
        as_map(t)
    # a lower term whose map vanishes is kept as given
    f = PolynomialMap([diag_cube(), t])
    assert not f.terms[4].is_zero() and f.terms[3] == t


def test_polynomial_map_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        PolynomialMap([diag_cube(), Tensor(np.eye(3))])


def test_as_map_and_leading_term():
    t = diag_cube()
    f = as_map(t)
    assert isinstance(f, PolynomialMap) and f.is_homogeneous()
    g = leading_term(PolynomialMap([t, Tensor(np.eye(2))]))
    assert g.is_homogeneous() and g.leading == t


def test_min_map_and_residual():
    f = as_map(diag_cube())
    q = np.array([-1.0, 5.0])
    x = np.array([1.0, 0.0])
    # y = (0, 5); min{x, y} = (0, 0)
    assert np.allclose(min_map(f, q, x), [0.0, 0.0])
    inst = PcpInstance(f, q)
    assert np.allclose(inst.residual(x), [0.0, 0.0])
    assert np.allclose(inst.y(x), [0.0, 5.0])
    assert inst.dim == 2


def test_componentwise_power_and_root_are_inverse():
    y = np.array([-8.0, 0.0, 2.7])
    assert np.allclose(componentwise_power(componentwise_root(y, 3), 3), y)
    assert np.allclose(componentwise_root(np.array([-27.0, 8.0]), 3), [-3.0, 2.0])


def test_componentwise_power_rejects_even_k():
    with pytest.raises(InvalidInputError):
        componentwise_power(np.ones(2), 2)
    with pytest.raises(InvalidInputError):
        componentwise_root(np.ones(2), 4)


def test_tensor_json_round_trip():
    t = diag_cube()
    obj = tensor_to_json(t)
    assert obj["order"] == 4 and obj["dim"] == 2
    # entries carry 1-based indices
    idx = sorted(tuple(e["idx"]) for e in obj["entries"])
    assert idx == [(1, 1, 1, 1), (2, 2, 2, 2)]
    back = tensor_from_json(obj)
    assert back == t


def test_tensor_from_json_rejects_bad_entries():
    with pytest.raises(InvalidInputError):
        tensor_from_json({"order": 2, "dim": 2, "entries": [{"idx": [0, 1], "val": 1.0}]})
    with pytest.raises(InvalidInputError):
        tensor_from_json({"order": 2, "dim": 2, "entries": [{"idx": [3, 1], "val": 1.0}]})


@pytest.mark.parametrize("good", [3, 3.0])
def test_json_integer_fields_accept_integral_numbers(good):
    obj = {"order": good, "dim": good, "entries": [{"idx": [good, 1, 2], "val": 1.0}]}
    t = tensor_from_json(obj)
    assert t.order == 3 and t.dim == 3 and t.coeffs[2, 0, 1] == 1.0
    f, _ = map_from_json({"dim": good, "terms": [obj]})
    assert f.dim == 3


@pytest.mark.parametrize("bad", [2.7, 1.9, True, "3"])
@pytest.mark.parametrize("field", ["order", "dim", "idx", "map dim"])
def test_json_integer_fields_reject_other_values(field, bad):
    obj = {"order": 2, "dim": 2, "entries": [{"idx": [1, 2], "val": 1.0}]}
    where = {"order": r"map: terms\[0\]: order", "dim": r"map: terms\[0\]: dim",
             "idx": r"map: terms\[0\]: entries\[0\]: idx", "map dim": r"map: dim"}[field]
    if field == "idx":
        obj["entries"][0]["idx"] = [1, bad]
    elif field != "map dim":
        obj[field] = bad
    mobj = {"dim": bad if field == "map dim" else 2, "terms": [obj]}
    with pytest.raises(InvalidInputError, match=f"^{where} must be an integer, got {bad!r}$"):
        map_from_json(mobj)


def test_map_json_rejects_nonpositive_dim():
    obj = {"order": 2, "dim": 1, "entries": []}
    with pytest.raises(InvalidInputError, match="dim must be >= 1"):
        map_from_json({"dim": -1, "terms": [obj]})


def test_map_json_round_trip_folds_constants():
    f = PolynomialMap([diag_cube(), Tensor(np.eye(2))])
    obj = map_to_json(f)
    back, const = map_from_json(obj)
    assert back == f
    assert np.allclose(const, 0.0)
    # an order-1 term comes back as a constant offset, not a map term
    obj["terms"].append({"order": 1, "dim": 2, "entries": [{"idx": [2], "val": 0.5}]})
    back2, const2 = map_from_json(obj)
    assert back2 == f
    assert np.allclose(const2, [0.0, 0.5])


def test_instance_json_round_trip(tmp_path):
    inst = PcpInstance(as_map(diag_cube()), np.array([-1.0, 2.0]))
    obj = instance_to_json(inst)
    back = instance_from_json(obj)
    assert back.map == inst.map
    assert np.allclose(back.q, inst.q)


def test_save_and_load_round_trip_bit_for_bit(tmp_path):
    rng = np.random.default_rng(8)
    t = Tensor(rng.normal(size=(3, 3, 3, 3)))
    save_tensor(str(tmp_path / "t.json"), t)
    back = load_tensor(str(tmp_path / "t.json"))
    assert back.coeffs.tobytes() == t.coeffs.tobytes()

    f = PolynomialMap([t, Tensor(rng.normal(size=(3, 3, 3))), Tensor(rng.normal(size=(3, 3)))])
    inst = PcpInstance(f, rng.normal(size=3))
    save_instance(str(tmp_path / "inst.json"), inst)
    back = load_instance(str(tmp_path / "inst.json"))
    assert sorted(back.map.terms) == sorted(f.terms)
    for order, term in f.terms.items():
        assert back.map.terms[order].coeffs.tobytes() == term.coeffs.tobytes()
    assert back.q.tobytes() == inst.q.tobytes()
    X = rng.normal(size=(16, 3))
    assert np.array_equal(back.map.eval_batch(X), f.eval_batch(X))
    assert np.array_equal(back.map.jacobian_batch(X), f.jacobian_batch(X))


def test_fd_jacobian_on_polynomial_map():
    rng = np.random.default_rng(4)
    f = PolynomialMap([Tensor(rng.normal(size=(2, 2, 2))), Tensor(rng.normal(size=(2, 2)))])
    x = rng.normal(size=2)
    assert np.abs(f.jacobian(x) - fd_jacobian(f, x)).max() < 1e-5
