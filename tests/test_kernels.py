"""The numpy kernels against a plain einsum contraction.

The reference spells the contraction out index by index in one np.einsum
call, and the Jacobian as the product rule: one einsum per trailing axis,
with that axis left free. Order 1 (a constant vector) and one order above
twelve are included.
"""

import numpy as np
import pytest

from pcpkit import backend
from pcpkit._core_numpy import NumpyKernel
from pcpkit.solver import solve
from pcpkit.tensor_core import PcpInstance, Tensor

# subscripts for the trailing axes; "i" is the output row, "z" the batch row
TRAILING = "abcdefghjklmnopq"


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


@pytest.mark.parametrize(
    "order,dim", [(2, 2), (3, 2), (4, 3), (5, 2), (6, 2), (1, 3), (13, 1)]
)
def test_apply_agreement(order, dim):
    rng = np.random.default_rng(order * 10 + dim)
    coeffs = rng.normal(size=(dim,) * order)
    X = rng.normal(size=(16, dim))
    _assert_close(NumpyKernel(coeffs).apply(X), reference_apply(coeffs, X))


@pytest.mark.parametrize(
    "order,dim", [(2, 3), (3, 3), (4, 2), (5, 3), (1, 2), (13, 1)]
)
def test_jacobian_agreement(order, dim):
    rng = np.random.default_rng(order * 100 + dim)
    coeffs = rng.normal(size=(dim,) * order)
    X = rng.normal(size=(8, dim))
    _assert_close(NumpyKernel(coeffs).jacobian(X), reference_jacobian(coeffs, X))


def test_solver_runs_on_pure_backend():
    c = np.zeros((2, 2, 2, 2))
    c[0, 0, 0, 0] = 1
    c[1, 1, 1, 1] = 1
    rep = solve(PcpInstance(Tensor(c), np.array([-1.0, -1.0])))
    assert rep.status == "solved"
    assert rep.diagnostics["backend"] == "numpy"
    assert np.abs(rep.solutions[0] - 1.0).max() < 1e-9
