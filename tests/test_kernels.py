"""The monomial-table kernel against a plain einsum contraction.

The reference spells the contraction out index by index in one np.einsum
call, and the Jacobian as the product rule: one einsum per trailing axis,
with that axis left free. The grid covers every order 1-7 (order 1 is a
constant vector) in dimensions 1-4, and one order above twelve.
"""

from math import comb

import numpy as np
import pytest

from pcpkit import backend
from pcpkit._core_numpy import NumpyKernel
from pcpkit.constructions import matrix_power_tensor
from pcpkit.solver import solve
from pcpkit.tensor_core import PcpInstance, Tensor

# subscripts for the trailing axes; "i" is the output row, "z" the batch row
TRAILING = "abcdefghjklmnopq"
# (order, dim): every order 1-7 in dimensions 1-4, and order 13 in dimension 1
GRID = [(order, dim) for order in range(1, 8) for dim in range(1, 5)] + [(13, 1)]


def _spec(tail: str, free: str) -> str:
    """einsum spec contracting coeffs[i, tail] with one X row per axis of
    tail except free, which stays an output axis. The last operand, a batch
    of ones, keeps the batch axis in the spec when tail is empty."""
    rows = "".join(f",z{c}" for c in tail if c != free)
    return f"i{tail}{rows},z->zi{free}"


def reference_apply(coeffs: np.ndarray, X: np.ndarray) -> np.ndarray:
    tail = TRAILING[: coeffs.ndim - 1]
    return np.einsum(_spec(tail, ""), coeffs, *[X] * len(tail), np.ones(len(X)))


def reference_jacobian(coeffs: np.ndarray, X: np.ndarray) -> np.ndarray:
    tail = TRAILING[: coeffs.ndim - 1]
    J = np.zeros((len(X), coeffs.shape[0], coeffs.shape[0]))
    for free in tail:
        J += np.einsum(_spec(tail, free), coeffs, *[X] * (len(tail) - 1), np.ones(len(X)))
    return J


def _assert_close(a: np.ndarray, b: np.ndarray) -> None:
    scale = max(1.0, np.abs(b).max())
    assert np.abs(a - b).max() <= 1e-12 * scale


def test_backend_name_is_numpy():
    assert backend.backend_name() == "numpy"
    assert backend._HAVE_COMPILED is False
    assert isinstance(Tensor(np.eye(2))._kernel, NumpyKernel)


@pytest.mark.parametrize("order,dim", GRID)
def test_apply_agreement(order, dim):
    rng = np.random.default_rng(order * 10 + dim)
    coeffs = rng.normal(size=(dim,) * order)
    X = rng.normal(size=(16, dim))
    _assert_close(NumpyKernel(coeffs).apply(X), reference_apply(coeffs, X))


@pytest.mark.parametrize("order,dim", GRID)
def test_jacobian_agreement(order, dim):
    rng = np.random.default_rng(order * 100 + dim)
    coeffs = rng.normal(size=(dim,) * order)
    X = rng.normal(size=(8, dim))
    _assert_close(NumpyKernel(coeffs).jacobian(X), reference_jacobian(coeffs, X))


def test_matrix_power_tensor_agreement():
    A = np.array([[2.0, -1.0, 0.5], [0.3, 1.5, -0.7], [-0.4, 0.2, 1.1]])
    coeffs = matrix_power_tensor(A, 5).coeffs
    X = np.random.default_rng(5).normal(size=(12, 3))
    kernel = NumpyKernel(coeffs)
    _assert_close(kernel.apply(X), (X @ A.T) ** 5)
    _assert_close(kernel.apply(X), reference_apply(coeffs, X))
    _assert_close(kernel.jacobian(X), reference_jacobian(coeffs, X))


def test_antisymmetric_tensor_evaluates_to_exact_zeros():
    # nonzero coefficients whose sums over permuted trailing indices cancel
    coeffs = np.zeros((2, 2, 2))
    coeffs[0, 0, 1], coeffs[0, 1, 0] = 1.0, -1.0
    coeffs[1, 0, 1], coeffs[1, 1, 0] = 2.0, -2.0
    kernel = NumpyKernel(coeffs)
    X = np.random.default_rng(6).normal(size=(7, 2))
    assert kernel.idx.shape[0] == 0
    assert np.array_equal(kernel.apply(X), np.zeros((7, 2)))
    assert np.array_equal(kernel.jacobian(X), np.zeros((7, 2, 2)))


@pytest.mark.parametrize("order,dim", [(1, 3), (2, 2), (4, 3), (13, 1)])
def test_empty_batch_shapes(order, dim):
    kernel = NumpyKernel(np.ones((dim,) * order))
    X = np.zeros((0, dim))
    assert kernel.apply(X).shape == (0, dim)
    assert kernel.jacobian(X).shape == (0, dim, dim)


def test_table_has_at_most_the_distinct_monomials():
    rng = np.random.default_rng(7)
    for order, dim in GRID:
        kernel = NumpyKernel(rng.normal(size=(dim,) * order))
        assert kernel.idx.shape == (comb(dim + order - 2, order - 1), order - 1)
        assert kernel.C.shape == (kernel.idx.shape[0], dim)


def test_solver_runs_on_pure_backend():
    c = np.zeros((2, 2, 2, 2))
    c[0, 0, 0, 0] = 1
    c[1, 1, 1, 1] = 1
    rep = solve(PcpInstance(Tensor(c), np.array([-1.0, -1.0])))
    assert rep.status == "solved"
    assert rep.diagnostics["backend"] == "numpy"
    assert np.abs(rep.solutions[0] - 1.0).max() < 1e-9
