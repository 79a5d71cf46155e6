import numpy as np
import pytest

from pcpkit.constructions import (
    EXAMPLE1_MATRIX,
    SKEW_MATRIX,
    check_catalog_entry,
    coupled_square_tensor,
    example2_instance,
    example3_q,
    example_catalog,
    matrix_power_tensor,
    norm_scaled_power_map,
    two_solution_instance,
)
from pcpkit.errors import InvalidInputError
from pcpkit.solver import SolveConfig, enumerate_solutions, verify_solution
from pcpkit.tensor_core import Tensor, as_map


def test_matrix_power_identity():
    t = matrix_power_tensor(np.eye(2), 3)
    assert t.order == 4
    assert np.allclose(as_map(t).eval(np.array([1.0, 2.0])), [1.0, 8.0])


def test_matrix_power_matches_componentwise_cube():
    rng = np.random.default_rng(7)
    for k in (3, 5):
        for n in (2, 3):
            A = rng.normal(size=(n, n))
            tk = matrix_power_tensor(A, k)
            assert tk.order == k + 1
            for _ in range(25):
                x = rng.normal(size=n)
                want = (A @ x) ** k
                got = as_map(tk).eval(x)
                assert np.abs(got - want).max() <= 1e-9 * max(1.0, np.abs(want).max())


def test_matrix_power_k1_returns_matrix_tensor():
    t = matrix_power_tensor(EXAMPLE1_MATRIX, 1)
    assert t.order == 2
    assert np.array_equal(t.coeffs, EXAMPLE1_MATRIX)


def test_matrix_power_rejects_even_k():
    with pytest.raises(InvalidInputError):
        matrix_power_tensor(np.eye(2), 2)


def test_norm_scaled_power_map():
    f = norm_scaled_power_map(np.eye(2), 1, 1)
    assert np.allclose(f.eval(np.array([1.0, 2.0])), [5.0, 10.0])
    lead2 = Tensor(np.einsum("jk,il->ijkl", np.eye(2), SKEW_MATRIX))
    assert np.array_equal(norm_scaled_power_map(SKEW_MATRIX, 1, 1).leading.coeffs, lead2.coeffs)
    g = norm_scaled_power_map(np.eye(2), 3, 2)
    assert g.order == 8
    x = np.array([0.5, -1.5])
    assert np.allclose(g.eval(x), (x @ x) ** 2 * x**3)


def test_two_solution_instance_coupled():
    inst = two_solution_instance(coupled_square_tensor())
    assert verify_solution(inst, np.zeros(inst.dim)).ok
    assert verify_solution(inst, np.ones(inst.dim)).ok
    rep = enumerate_solutions(inst, SolveConfig(search_radius=3.0))
    assert len(rep.solutions) == 2
    assert np.abs(rep.solutions[0] - 0.0).max() <= 1e-8
    assert np.abs(rep.solutions[1] - 1.0).max() <= 1e-8


def test_two_solution_instance_diagonal_has_extras():
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[1, 1, 1] = 1.0
    inst = two_solution_instance(Tensor(c))
    assert verify_solution(inst, np.zeros(2)).ok
    assert verify_solution(inst, np.ones(2)).ok
    # the uncoupled construction also admits the mixed points
    assert verify_solution(inst, np.array([1.0, 0.0])).ok


def test_two_solution_rejects_matrices():
    with pytest.raises(InvalidInputError):
        two_solution_instance(Tensor(np.eye(3)))


def test_example_plumbing():
    assert np.allclose(example3_q(1), [-1.0, -1.75])
    inst = example2_instance()
    assert inst.map.order == 4
    assert np.allclose(inst.q, [2.0, -2.0])
    assert np.allclose(inst.map.eval(np.array([1.0, 0.0])), [-2.0 * np.sqrt(2.0), 1.0])


def test_catalog_contents():
    cat = example_catalog()
    names = [e.name for e in cat]
    assert names[:9] == [
        "example1",
        "example2",
        "example3",
        "diag-cube",
        "nonneg-posdiag",
        "strict-copositive",
        "strong-m",
        "two-solution",
        "copositive-cone",
    ]
    assert len([n for n in names if n.startswith("r-matrix-power-")]) == 10
    by = {e.name: e for e in cat}
    ref = matrix_power_tensor(EXAMPLE1_MATRIX, 3)
    assert np.array_equal(by["example1"].payload.coeffs, ref.coeffs)


@pytest.mark.parametrize(
    "name",
    ["diag-cube", "nonneg-posdiag", "strict-copositive", "strong-m", "copositive-cone", "example3"],
)
def test_catalog_expectations(name):
    by = {e.name: e for e in example_catalog()}
    recs = check_catalog_entry(by[name])
    bad = [r for r in recs if not r["ok"]]
    assert not bad, bad


def test_catalog_r_matrix_power_entry():
    by = {e.name: e for e in example_catalog()}
    recs = check_catalog_entry(by["r-matrix-power-06"])
    assert all(r["ok"] for r in recs)


def test_catalog_properties_come_from_the_classify_table():
    from pcpkit.classify import PROPERTIES

    named = {prop for e in example_catalog() for prop, _, _ in e.expected}
    assert named
    for prop in named:
        assert prop == "degree" or prop.removesuffix("-leading") in PROPERTIES, prop


def test_catalog_coefficient_check_on_mixed_map_is_refused():
    from pcpkit.constructions import CatalogEntry

    entry = CatalogEntry(name="mixed", kind="instance", payload=example2_instance(),
                         expected=[("z", "holds", "direct")])
    with pytest.raises(InvalidInputError, match="coefficient check"):
        check_catalog_entry(entry)
