"""Central numeric tolerances.

Every tolerance used by the solvers, classifiers, and degree routines lives in
one frozen record so tests and callers can override them coherently instead of
chasing scattered module constants.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields, replace

from .errors import InvalidInputError


@dataclass(frozen=True)
class Tolerances:
    """Numeric tolerances shared across the package.

    feasibility / complementarity: acceptance thresholds for verified
        solutions of a complementarity problem.
    root: residual threshold below which a polished point counts as a root.
    dedupe: infinity-norm distance under which two solutions are merged.
    tie_margin: minimum slack between the two branches of the min map
        required for a preimage to count as regular.
    zero_on_circle: norm below which a sample on the winding circle is
        treated as a zero of the map (degenerate input).
    dual_strict: strictness margin for dual-cone interior tests.
    singular_det: absolute determinant below which a square system is
        treated as singular.
    """

    feasibility: float = 1e-8
    complementarity: float = 1e-8
    root: float = 1e-10
    dedupe: float = 1e-6
    tie_margin: float = 1e-6
    zero_on_circle: float = 1e-9
    dual_strict: float = 1e-6
    singular_det: float = 1e-12

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not is_positive_real(v):
                raise InvalidInputError(
                    f"tolerance {f.name} must be a finite number > 0, got {v!r}"
                )

    def override(self, **kwargs) -> "Tolerances":
        """Return a copy with the given fields replaced."""
        return replace(self, **kwargs)


def is_positive_real(v) -> bool:
    """True for a finite real number > 0 (bools excluded)."""
    return (isinstance(v, numbers.Real) and not isinstance(v, bool)
            and math.isfinite(v) and v > 0)


DEFAULT_TOLERANCES = Tolerances()
