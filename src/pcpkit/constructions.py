"""Factories for the tensor and map families the test and reproduction
suites revolve around.

matrix_power_tensor builds the order-(k+1) tensor acting as x -> (Ax)^[k];
norm_scaled_power_map multiplies that action by ||x||^(2r); the
two-solution builder turns any tensor of order > 2 into an instance where
the origin and the all-ones vector both solve; example_catalog collects the
named reference objects together with their expected classifier verdicts so
suites can re-check them mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .classify import property_check
from .degree import tensor_degree
from .errors import InvalidInputError
from .solver import SolveConfig
from .tensor_core import PcpInstance, PolynomialMap, Tensor, _check_odd, leading_term

__all__ = [
    "CatalogEntry",
    "matrix_power_tensor",
    "norm_scaled_power_map",
    "two_solution_instance",
    "coupled_square_tensor",
    "example_catalog",
]

_EINSUM_LETTERS = "abcdefghjklmnopqrstuvwxyz"


def matrix_power_tensor(A, k: int) -> Tensor:
    """Order-(k+1) tensor T with T x^k = (Ax)^[k], for odd k >= 1.

    The coefficient at (i, j1..jk) is the product A[i,j1]...A[i,jk]; each
    monomial's multinomial weight arises exactly from counting ordered index
    tuples, so no expansion arithmetic is rounded.
    """
    k = _check_odd(k)
    A = np.asarray(A, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise InvalidInputError("matrix_power_tensor needs a square matrix")
    if k == 1:
        return Tensor(A)
    if k > len(_EINSUM_LETTERS):
        raise InvalidInputError(f"power {k} too large (max {len(_EINSUM_LETTERS)})")
    subs = ",".join(f"i{_EINSUM_LETTERS[t]}" for t in range(k))
    out = "i" + _EINSUM_LETTERS[:k]
    return Tensor(np.einsum(f"{subs}->{out}", *([A] * k)))


def norm_scaled_power_map(A, k: int = 1, r: int = 1) -> PolynomialMap:
    """Homogeneous map x -> ||x||^(2r) (Ax)^[k] as a single tensor term
    of order 2r + k + 1 (k odd, r >= 1)."""
    k = _check_odd(k)
    if int(r) != r or r < 1:
        raise InvalidInputError(f"r must be an integer >= 1, got {r}")
    base = matrix_power_tensor(A, k)
    n = base.dim
    coeffs = base.coeffs
    eye = np.eye(n)
    for _ in range(int(r)):
        coeffs = np.einsum("ab,i...->iab...", eye, coeffs)
    return PolynomialMap([Tensor(coeffs)])


def two_solution_instance(A: Tensor) -> PcpInstance:
    """Instance f(x) = A x^(m-1) + diag(d) x with q = e, where
    d = -A e^(m-1) - e; both 0 and e verify as solutions by construction.

    Needs order > 2 so the diagonal correction is a genuinely lower-order
    term.
    """
    if not isinstance(A, Tensor):
        A = Tensor(A)
    if A.order <= 2:
        raise InvalidInputError("two_solution_instance needs a tensor of order > 2")
    n = A.dim
    e = np.ones(n)
    d = -PolynomialMap([A]).eval(e) - e
    terms = [A]
    if np.abs(d).max() > 0.0:
        terms.append(Tensor(np.diag(d)))
    return PcpInstance(PolynomialMap(terms), e)


def coupled_square_tensor() -> Tensor:
    """Order-3 tensor acting as x -> (x1^2 - x1 x2, x2^2 - x1 x2).

    Its two-solution instance f(x) = (x1^2 - x1 x2 - x1, x2^2 - x1 x2 - x2)
    with q = e has solution set exactly {0, e}: on either axis the active
    component reduces to t^2 - t + 1 > 0, and in the open orthant the two
    equations force x1 = x2 = 1 or land on 2t^2 - 2t + 1 > 0.
    """
    C = np.zeros((2, 2, 2))
    C[0, 0, 0] = 1.0
    C[0, 0, 1] = C[0, 1, 0] = -0.5
    C[1, 1, 1] = 1.0
    C[1, 0, 1] = C[1, 1, 0] = -0.5
    return Tensor(C)


@dataclass
class CatalogEntry:
    name: str
    kind: str  # tensor | map | instance
    payload: object
    expected: list = field(default_factory=list)  # (property, verdict, tag)
    note: str = ""
    extras: dict = field(default_factory=dict)

    @property
    def tensor(self) -> Tensor:
        """Leading tensor of whatever the payload is."""
        if self.kind == "tensor":
            return self.payload
        f = self.payload.map if self.kind == "instance" else self.payload
        return f.leading

    @property
    def map(self) -> PolynomialMap:
        if self.kind == "tensor":
            return PolynomialMap([self.payload])
        if self.kind == "instance":
            return self.payload.map
        return self.payload


def _diag_cube() -> Tensor:
    C = np.zeros((2, 2, 2, 2))
    C[0, 0, 0, 0] = 1.0
    C[1, 1, 1, 1] = 1.0
    return Tensor(C)


def _nonneg_pos_diag_tensor() -> Tensor:
    C = np.array(
        [
            [[1.0, 0.2], [0.2, 0.1]],
            [[0.1, 0.3], [0.3, 1.2]],
        ]
    )
    return Tensor(C)


def _strict_copositive_tensor() -> Tensor:
    # diagonal cube plus one negative and one positive coupling; the form
    # <T x^3, x> = x1^4 + x2^4 - 0.1 x1 x2^3 + 0.2 x2 x1^3 stays positive on
    # the simplex, while the sign-mixed couplings keep it outside both the
    # Z and the nonnegative classes
    C = np.zeros((2, 2, 2, 2))
    C[0, 0, 0, 0] = 1.0
    C[1, 1, 1, 1] = 1.0
    C[0, 1, 1, 1] = -0.1
    C[1, 0, 0, 0] = 0.2
    return Tensor(C)


def _offdiag_strong_m_tensor() -> Tensor:
    C = np.zeros((2, 2, 2, 2))
    C[0, 0, 0, 0] = 1.0
    C[1, 1, 1, 1] = 1.0
    C[0, 1, 1, 1] = -0.1
    return Tensor(C)


def _sdd_matrix(rng, n: int) -> np.ndarray:
    """Strictly diagonally dominant with positive diagonal, hence a
    P-matrix and in particular an R-matrix."""
    M = rng.uniform(-1.0, 1.0, size=(n, n))
    for i in range(n):
        off = np.abs(M[i]).sum() - abs(M[i, i])
        M[i, i] = off + rng.uniform(0.5, 1.5)
    return M


EXAMPLE1_MATRIX = np.array([[-1.0, 1.0], [3.0, -2.0]])
SKEW_MATRIX = np.array([[0.0, -1.0], [1.0, 0.0]])


def _example3_tensor() -> Tensor:
    """Order-3 tensor acting as
    x -> (x1^2 - x2^2 - (x1-x2)^2, x1^2 - x2^2 + 2 (x1-x2)^2)."""
    C = np.zeros((2, 2, 2))
    # component 1: x1^2 - x2^2 - (x1 - x2)^2 = 2 x1 x2 - 2 x2^2
    C[0, 0, 1] = C[0, 1, 0] = 1.0
    C[0, 1, 1] = -2.0
    # component 2: x1^2 - x2^2 + 2 (x1 - x2)^2 = 3 x1^2 - 4 x1 x2 + x2^2
    C[1, 0, 0] = 3.0
    C[1, 0, 1] = C[1, 1, 0] = -2.0
    C[1, 1, 1] = 1.0
    return Tensor(C)


def example2_instance() -> PcpInstance:
    f = PolynomialMap(
        [
            norm_scaled_power_map(SKEW_MATRIX, 1, 1).leading,
            Tensor(-2.0 * np.sqrt(2.0) * np.eye(2)),
        ]
    )
    return PcpInstance(f, np.array([2.0, -2.0]))


def example3_q(k: int) -> np.ndarray:
    return np.array([-1.0, -1.0 - 3.0 / (4.0 * k * k)])


def example_catalog() -> list[CatalogEntry]:
    """Named reference objects with re-checkable expected verdicts.

    Tags: "direct" = immediate from definitions, "derived" = worked out for
    this suite, "reference" = matches the documented behavior the object
    was built to exhibit.
    """
    entries = [
        CatalogEntry(
            name="example1",
            kind="tensor",
            payload=matrix_power_tensor(EXAMPLE1_MATRIX, 3),
            expected=[
                ("degree", "-1", "reference"),
                ("r0", "holds-up-to-sampling", "reference"),
                ("r", "fails", "reference"),
                ("strong-q", "holds-up-to-sampling", "reference"),
                ("z", "fails", "derived"),
                ("gus", "fails", "derived"),
            ],
            note=(
                "cube power of a 2x2 matrix whose complementarity degree is -1; "
                "solvable for every q and every lower-order perturbation, yet "
                "never an R-tensor"
            ),
            extras={"matrix": EXAMPLE1_MATRIX.tolist(), "k": 3},
        ),
        CatalogEntry(
            name="example2",
            kind="instance",
            payload=example2_instance(),
            expected=[
                ("copositive-leading", "holds", "reference"),
                ("r0-leading", "fails", "derived"),
                ("p", "fails", "reference"),
            ],
            note=(
                "norm-scaled rotation with a negative multiple of the identity "
                "below it; the leading term is copositive with solution cone "
                "spanned by (1,0), q=(2,-2) lies interior to the dual cone, and "
                "still no solution exists"
            ),
            extras={"sol_cone_generator": [1.0, 0.0], "boundary_q": [0.0, 1.0]},
        ),
        CatalogEntry(
            name="example3",
            kind="tensor",
            payload=_example3_tensor(),
            expected=[("r0", "fails", "derived")],
            note=(
                "quadratic map solvable for a sequence q_k converging to "
                "(-1,-1) with solution norms escaping to infinity; the limit "
                "q itself is unsolvable"
            ),
            extras={
                "unsolvable_q": [-1.0, -1.0],
                "solution_at": {"description": "q_k -> x = (k + 1/(2k), k)"},
            },
        ),
        CatalogEntry(
            name="diag-cube",
            kind="tensor",
            payload=_diag_cube(),
            expected=[
                ("degree", "1", "reference"),
                ("z", "holds", "direct"),
                ("nonneg-pos-diag", "holds", "direct"),
                ("strong-m", "holds", "derived"),
                ("r", "holds-up-to-sampling", "derived"),
                ("gus", "holds-up-to-sampling", "derived"),
            ],
            note="componentwise cube x -> x^[3]; the model tensor for every "
            "positive class at once",
        ),
        CatalogEntry(
            name="nonneg-posdiag",
            kind="tensor",
            payload=_nonneg_pos_diag_tensor(),
            expected=[
                ("degree", "1", "reference"),
                ("nonneg-pos-diag", "holds", "direct"),
                ("r", "holds-up-to-sampling", "reference"),
            ],
            note="all entries nonnegative, diagonal strictly positive",
        ),
        CatalogEntry(
            name="strict-copositive",
            kind="tensor",
            payload=_strict_copositive_tensor(),
            expected=[
                ("degree", "1", "reference"),
                ("strictly-copositive", "holds-up-to-sampling", "derived"),
                ("z", "fails", "direct"),
                ("nonneg-pos-diag", "fails", "direct"),
                ("r", "holds-up-to-sampling", "reference"),
            ],
            note="strictly copositive via a sign-mixed coupling, outside the "
            "Z and nonnegative classes",
        ),
        CatalogEntry(
            name="strong-m",
            kind="tensor",
            payload=_offdiag_strong_m_tensor(),
            expected=[
                ("degree", "1", "reference"),
                ("z", "holds", "direct"),
                ("strong-m", "holds", "derived"),
                ("r", "holds-up-to-sampling", "reference"),
            ],
            note="Z-tensor with f(e) = (0.9, 1) > 0 certifying the strong "
            "M property",
        ),
        CatalogEntry(
            name="two-solution",
            kind="instance",
            payload=two_solution_instance(coupled_square_tensor()),
            expected=[],
            note="diagonal-corrected coupled square map; enumeration returns "
            "exactly the origin and the all-ones vector",
            extras={"expected_solutions": [[0.0, 0.0], [1.0, 1.0]], "radius": 3.0},
        ),
        CatalogEntry(
            name="copositive-cone",
            kind="tensor",
            payload=norm_scaled_power_map(SKEW_MATRIX, 1, 1).leading,
            expected=[
                ("copositive", "holds", "direct"),
                ("strictly-copositive", "fails", "derived"),
                ("r0", "fails", "derived"),
            ],
            note="norm-scaled rotation; the pairing <f(x), x> vanishes "
            "identically, the solution cone is the ray through (1,0)",
            extras={"sol_cone_generator": [1.0, 0.0]},
        ),
    ]
    rng = np.random.default_rng(12345)
    for i in range(10):
        n = 2 if i < 5 else 3
        A = _sdd_matrix(rng, n)
        expected = [
            ("degree", "1", "reference"),
            ("r", "holds-up-to-sampling", "reference"),
        ]
        if i < 2:
            expected.append(("gus", "holds-up-to-sampling", "reference"))
        entries.append(
            CatalogEntry(
                name=f"r-matrix-power-{i + 1:02d}",
                kind="tensor",
                payload=matrix_power_tensor(A, 3),
                expected=expected,
                note="cube power of a strictly diagonally dominant matrix "
                "with positive diagonal (a P-matrix, hence R)",
                extras={"matrix": A.tolist(), "k": 3},
            )
        )
    return entries


def check_catalog_entry(entry: CatalogEntry, cfg: SolveConfig = SolveConfig()) -> list[dict]:
    """Re-run every expected verdict of a catalog entry; returns one record
    per expectation with observed value and pass flag.

    "degree" is the local degree of the entry's tensor; "X-leading" is the
    classify property X of the leading term of the entry's map, any other
    name that property of the map itself.
    """
    records = []
    for prop, expected, tag in entry.expected:
        if prop == "degree":
            observed = str(tensor_degree(entry.tensor, cfg).value)
        else:
            check = property_check(prop.removesuffix("-leading"))
            target = leading_term(entry.map) if prop.endswith("-leading") else entry.map
            observed = check(target, cfg).verdict
        records.append(
            {
                "property": prop,
                "expected": expected,
                "observed": observed,
                "tag": tag,
                "ok": observed == expected,
            }
        )
    return records
