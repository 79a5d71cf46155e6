"""Core data types and operations for polynomial complementarity problems.

Conventions
-----------
A tensor of order m and dimension n is a dense real coefficient array of
shape (n,)*m. Applying it to x in R^n contracts the trailing m-1 axes:

    (T x^{m-1})_i = sum over (i2,...,im) of T[i, i2, ..., im] x_{i2} ... x_{im}

No symmetrization is applied; evaluation always sums over all index tuples.
An order-1 tensor is a constant vector, an order-2 tensor is a matrix acting
as usual.

A polynomial map is a sum of tensor terms of distinct orders 2..m,

    f(x) = T_m x^{m-1} + ... + T_2 x,

so f(0) = 0 and deg f = m-1 >= 1. The leading term f_inf(x) = T_m x^{m-1}
is the limit of f(lambda x) / lambda^{m-1} as lambda grows. Constant terms
in input files are folded into q when an instance is assembled, using
PCP(f, q) == PCP(f - f(0), f(0) + q).

An instance pairs a map f with a shift q. x solves it iff

    x >= 0,  y = f(x) + q >= 0,  <x, y> = 0,

equivalently min{x, f(x) + q} = 0 componentwise (the min relation).

Componentwise signed powers y^[k] (odd k only) and their inverse roots
y^[1/k] are the order-preserving bijections used throughout.
"""

from __future__ import annotations

import dataclasses
import json
import numbers
from functools import cached_property
from typing import Iterable, Union

import numpy as np

from ._core_numpy import NumpyKernel
from .errors import InvalidInputError

__all__ = [
    "Tensor",
    "PolynomialMap",
    "PcpInstance",
    "leading_term",
    "min_map",
    "componentwise_power",
    "componentwise_root",
    "fd_jacobian",
    "as_map",
    "tensor_from_json",
    "tensor_to_json",
    "map_from_json",
    "map_to_json",
    "instance_from_json",
    "instance_to_json",
    "load_tensor",
    "save_tensor",
    "load_map",
    "load_instance",
    "save_instance",
]


def _as_vector(x, dim: int, name: str = "x") -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise InvalidInputError(f"{name} must have shape ({dim},), got {x.shape}")
    if not np.all(np.isfinite(x)):
        raise InvalidInputError(f"{name} has non-finite entries")
    return x


class Tensor:
    """Dense coefficient tensor of order m >= 1 and dimension n >= 1."""

    def __init__(self, coeffs):
        coeffs = np.asarray(coeffs, dtype=np.float64)
        if coeffs.ndim < 1:
            raise InvalidInputError("tensor must have order >= 1")
        n = coeffs.shape[0]
        if n < 1:
            raise InvalidInputError("tensor dimension must be >= 1")
        if any(s != n for s in coeffs.shape):
            raise InvalidInputError(
                f"tensor must be cubical, got shape {coeffs.shape}"
            )
        if not np.all(np.isfinite(coeffs)):
            raise InvalidInputError("tensor has non-finite coefficients")
        coeffs = np.ascontiguousarray(coeffs)
        coeffs.flags.writeable = False
        self.coeffs = coeffs
        self.order = coeffs.ndim
        self.dim = n

    @cached_property
    def _kernel(self):
        return NumpyKernel(self.coeffs)

    def apply(self, x) -> np.ndarray:
        x = _as_vector(x, self.dim)
        return self._kernel.apply(x[None, :])[0]

    def apply_batch(self, X: np.ndarray) -> np.ndarray:
        return self._kernel.apply(np.atleast_2d(np.asarray(X, dtype=np.float64)))

    def jacobian(self, x) -> np.ndarray:
        x = _as_vector(x, self.dim)
        return self._kernel.jacobian(x[None, :])[0]

    def jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        return self._kernel.jacobian(np.atleast_2d(np.asarray(X, dtype=np.float64)))

    def is_zero(self) -> bool:
        return not np.any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, Tensor)
            and self.coeffs.shape == other.coeffs.shape
            and np.array_equal(self.coeffs, other.coeffs)
        )

    def __hash__(self):
        return hash((self.coeffs.shape, self.coeffs.tobytes()))

    def __repr__(self):
        return f"Tensor(order={self.order}, dim={self.dim})"


class PolynomialMap:
    """Sum of tensor terms of distinct orders 2..m with nonzero top term.

    Order-1 (constant) terms are deliberately not representable here; input
    loaders fold them into q.
    """

    def __init__(self, terms: Iterable[Tensor]):
        terms = list(terms)
        if not terms:
            raise InvalidInputError("polynomial map needs at least one term")
        dim = terms[0].dim
        by_order: dict[int, Tensor] = {}
        for t in terms:
            if not isinstance(t, Tensor):
                t = Tensor(t)
            if t.dim != dim:
                raise InvalidInputError(
                    f"inconsistent term dimensions: {t.dim} vs {dim}"
                )
            if t.order < 2:
                raise InvalidInputError(
                    "order-1 (constant) terms are folded into q, not stored in a map"
                )
            if t.order in by_order:
                raise InvalidInputError(f"duplicate term of order {t.order}")
            by_order[t.order] = t
        top = max(by_order)
        if by_order[top].is_zero():
            raise InvalidInputError("leading term must be nonzero")
        self.dim = dim
        self.terms = dict(sorted(by_order.items()))
        self.order = top
        self.degree = top - 1

    @classmethod
    def from_tensor(cls, t: Tensor) -> "PolynomialMap":
        return cls([t])

    @property
    def leading(self) -> Tensor:
        return self.terms[self.order]

    def is_homogeneous(self) -> bool:
        return len(self.terms) == 1

    def eval(self, x) -> np.ndarray:
        x = _as_vector(x, self.dim)
        return self.eval_batch(x[None, :])[0]

    def eval_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.zeros((X.shape[0], self.dim))
        for t in self.terms.values():
            out += t.apply_batch(X)
        return out

    def jacobian(self, x) -> np.ndarray:
        x = _as_vector(x, self.dim)
        return self.jacobian_batch(x[None, :])[0]

    def jacobian_batch(self, X: np.ndarray) -> np.ndarray:
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.zeros((X.shape[0], self.dim, self.dim))
        for t in self.terms.values():
            out += t.jacobian_batch(X)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, PolynomialMap)
            and self.dim == other.dim
            and self.terms == other.terms
        )

    def __repr__(self):
        orders = sorted(self.terms)
        return f"PolynomialMap(dim={self.dim}, orders={orders})"


MapLike = Union[Tensor, PolynomialMap]


def as_map(f: MapLike) -> PolynomialMap:
    """Coerce a tensor to the homogeneous map it induces."""
    if isinstance(f, PolynomialMap):
        return f
    if isinstance(f, Tensor):
        return PolynomialMap.from_tensor(f)
    raise InvalidInputError(f"expected Tensor or PolynomialMap, got {type(f)!r}")


class PcpInstance:
    """A map f together with the shift q of the problem min{x, f(x)+q} = 0."""

    def __init__(self, f: MapLike, q):
        self.map = as_map(f)
        self.q = _as_vector(q, self.map.dim, "q")
        self.q.flags.writeable = False
        self.dim = self.map.dim

    def y(self, x) -> np.ndarray:
        return self.map.eval(x) + self.q

    def residual(self, x) -> np.ndarray:
        return min_map(self.map, self.q, x)

    def __repr__(self):
        return f"PcpInstance(dim={self.dim}, map_order={self.map.order})"


# --- operations ---------------------------------------------------------


def leading_term(f: MapLike) -> PolynomialMap:
    """Homogeneous top-order part of f, the limit of f(lambda x)/lambda^{m-1}."""
    return PolynomialMap.from_tensor(as_map(f).leading)


def min_map(f: MapLike, q, x) -> np.ndarray:
    """Componentwise min{x, f(x)+q}; its zeros are exactly the solutions."""
    f = as_map(f)
    x = _as_vector(x, f.dim)
    q = _as_vector(q, f.dim, "q")
    return np.minimum(x, f.eval(x) + q)


def _check_odd(k) -> int:
    if not isinstance(k, (int, np.integer)) or isinstance(k, bool):
        raise InvalidInputError(f"exponent must be an integer, got {k!r}")
    if k < 1 or k % 2 == 0:
        raise InvalidInputError(
            f"componentwise powers are defined for odd k >= 1 only, got {k}"
        )
    return int(k)


def componentwise_power(y, k: int) -> np.ndarray:
    """y^[k]: componentwise k-th power, odd k, sign-preserving."""
    k = _check_odd(k)
    y = np.asarray(y, dtype=np.float64)
    return y**k


def componentwise_root(y, k: int) -> np.ndarray:
    """y^[1/k]: componentwise signed k-th root, inverse of y^[k] for odd k."""
    k = _check_odd(k)
    y = np.asarray(y, dtype=np.float64)
    return np.sign(y) * np.abs(y) ** (1.0 / k)


def fd_jacobian(f: MapLike, x, step: float = 1e-6) -> np.ndarray:
    """Central-difference Jacobian, used to cross-check the analytic one."""
    f = as_map(f)
    x = _as_vector(x, f.dim)
    J = np.empty((f.dim, f.dim))
    for j in range(f.dim):
        h = np.zeros(f.dim)
        h[j] = step
        J[:, j] = (f.eval(x + h) - f.eval(x - h)) / (2.0 * step)
    return J


# --- JSON formats -------------------------------------------------------
#
# Tensor file:   {"order": m, "dim": n,
#                 "entries": [{"idx": [i1,...,im], "val": v}, ...]}
#                with 1-based indices; duplicate idx tuples are rejected.
# Map file:      {"dim": n, "terms": [<tensor>, ...]}
#                an order-1 term is returned separately as a constant vector.
# Instance file: {"dim": n, "map": <map>, "q": [...]}
#                constants from the map are folded into q on load.


def _json_int(v, where: str) -> int:
    """v as an int when it is an integral JSON number (3 or 3.0); anything
    else, 2.7, true or "3" included, raises InvalidInputError."""
    integral = isinstance(v, numbers.Integral) or (isinstance(v, float) and v.is_integer())
    if isinstance(v, bool) or not integral:
        raise InvalidInputError(f"{where} must be an integer, got {v!r}")
    return int(v)


def tensor_from_json(obj: dict, where: str = "tensor") -> Tensor:
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{where}: expected an object, got {type(obj).__name__}")
    try:
        order = _json_int(obj["order"], f"{where}: order")
        dim = _json_int(obj["dim"], f"{where}: dim")
        entries = obj["entries"]
    except KeyError as exc:
        raise InvalidInputError(f"{where}: missing field {exc}") from exc
    if order < 1:
        raise InvalidInputError(f"{where}: order must be >= 1, got {order}")
    if dim < 1:
        raise InvalidInputError(f"{where}: dim must be >= 1, got {dim}")
    coeffs = np.zeros((dim,) * order)
    seen = set()
    if not isinstance(entries, list):
        raise InvalidInputError(f"{where}: entries must be a list")
    for pos, entry in enumerate(entries):
        loc = f"{where}: entries[{pos}]"
        if not isinstance(entry, dict) or "idx" not in entry or "val" not in entry:
            raise InvalidInputError(f"{loc}: expected an object with idx and val")
        idx = entry["idx"]
        if not isinstance(idx, list) or len(idx) != order:
            raise InvalidInputError(f"{loc}: idx must list {order} indices")
        idx = tuple(_json_int(i, f"{loc}: idx") for i in idx)
        if any(i < 1 or i > dim for i in idx):
            raise InvalidInputError(f"{loc}: index out of range 1..{dim}: {list(idx)}")
        if idx in seen:
            raise InvalidInputError(f"{loc}: duplicate idx {list(idx)}")
        seen.add(idx)
        try:
            val = float(entry["val"])
        except (TypeError, ValueError) as exc:
            raise InvalidInputError(f"{loc}: non-numeric val") from exc
        if not np.isfinite(val):
            raise InvalidInputError(f"{loc}: non-finite val")
        coeffs[tuple(i - 1 for i in idx)] = val
    return Tensor(coeffs)


def tensor_to_json(t: Tensor) -> dict:
    entries = []
    for idx in np.argwhere(t.coeffs != 0.0):
        entries.append(
            {"idx": [int(i) + 1 for i in idx], "val": float(t.coeffs[tuple(idx)])}
        )
    return {"order": t.order, "dim": t.dim, "entries": entries}


def map_from_json(obj: dict, where: str = "map") -> tuple[PolynomialMap, np.ndarray]:
    """Parse a map file; returns (map, constant) with the constant to be
    folded into q by the caller."""
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{where}: expected an object, got {type(obj).__name__}")
    try:
        dim = _json_int(obj["dim"], f"{where}: dim")
        terms = obj["terms"]
    except KeyError as exc:
        raise InvalidInputError(f"{where}: missing field {exc}") from exc
    if dim < 1:
        raise InvalidInputError(f"{where}: dim must be >= 1, got {dim}")
    if not isinstance(terms, list) or not terms:
        raise InvalidInputError(f"{where}: terms must be a non-empty list")
    const = np.zeros(dim)
    kept = []
    for pos, term in enumerate(terms):
        t = tensor_from_json(term, where=f"{where}: terms[{pos}]")
        if t.dim != dim:
            raise InvalidInputError(
                f"{where}: terms[{pos}] has dim {t.dim}, expected {dim}"
            )
        if t.order == 1:
            const += t.coeffs
        else:
            kept.append(t)
    if not kept:
        raise InvalidInputError(f"{where}: needs at least one term of order >= 2")
    return PolynomialMap(kept), const


def map_to_json(f: PolynomialMap) -> dict:
    return {"dim": f.dim, "terms": [tensor_to_json(t) for t in f.terms.values()]}


def instance_from_json(obj: dict, where: str = "instance") -> PcpInstance:
    if not isinstance(obj, dict):
        raise InvalidInputError(f"{where}: expected an object, got {type(obj).__name__}")
    if "map" not in obj or "q" not in obj:
        raise InvalidInputError(f"{where}: needs map and q fields")
    f, const = map_from_json(obj["map"], where=f"{where}: map")
    q = _float_array(obj["q"], f"{where}: q")
    if q.shape != (f.dim,):
        raise InvalidInputError(f"{where}: q must have length {f.dim}")
    return PcpInstance(f, q + const)


def instance_to_json(inst: PcpInstance) -> dict:
    return {
        "dim": inst.dim,
        "map": map_to_json(inst.map),
        "q": [float(v) for v in inst.q],
    }


def _jsonable(v):
    """Plain JSON value of v: a dataclass becomes the dict of its fields, a
    numpy array a nested list and a numpy scalar a Python number, at every
    depth of dicts, lists and tuples."""
    if dataclasses.is_dataclass(v):
        return {f.name: _jsonable(getattr(v, f.name)) for f in dataclasses.fields(v)}
    if isinstance(v, np.ndarray):
        return v.tolist()
    if isinstance(v, np.generic):
        return v.item()
    if isinstance(v, dict):
        return {k: _jsonable(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_jsonable(x) for x in v]
    return v


class Report:
    """Mixin giving a dataclass report its canonical JSON: schema 1 plus
    every field through _jsonable, with wall_time_s only when include_timing
    is set, so equal inputs and seeds give equal json.dumps(sort_keys=True)."""

    def to_json(self, include_timing: bool = False) -> dict:
        out = {"schema": 1, **_jsonable(self)}
        if not include_timing:
            out.pop("wall_time_s", None)
        return out


def _read_json(path: str, text: str | None = None):
    """JSON value of the file at path, or of text (then path only names it
    in errors); unreadable files and invalid JSON raise InvalidInputError."""
    try:
        if text is None:
            with open(path) as fh:
                text = fh.read()
        return json.loads(text)
    except (OSError, UnicodeDecodeError) as exc:
        raise InvalidInputError(f"{path}: {getattr(exc, 'strerror', None) or exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInputError(f"{path}: invalid JSON ({exc})") from exc


def _float_array(data, where: str) -> np.ndarray:
    """float64 array of JSON data; non-numeric or ragged data raises
    InvalidInputError."""
    try:
        return np.asarray(data, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise InvalidInputError(f"{where}: expected an array of numbers ({exc})") from exc


def load_tensor(path: str) -> Tensor:
    return tensor_from_json(_read_json(path), where=path)


def save_tensor(path: str, t: Tensor) -> None:
    with open(path, "w") as fh:
        json.dump(tensor_to_json(t), fh, indent=1)


def load_map(path: str) -> tuple[PolynomialMap, np.ndarray]:
    return map_from_json(_read_json(path), where=path)


def load_instance(path: str) -> PcpInstance:
    return instance_from_json(_read_json(path), where=path)


def save_instance(path: str, inst: PcpInstance) -> None:
    with open(path, "w") as fh:
        json.dump(instance_to_json(inst), fh, indent=1)
