"""Name of the kernel backend.

Every tensor is evaluated by the numpy kernels in pcpkit._core_numpy;
backend_name() is what solve and enumerate_solutions record in their
diagnostics.
"""

from __future__ import annotations

# Read by perfbench/kernels.py, which times a compiled column when this is set.
_HAVE_COMPILED = False


def backend_name() -> str:
    return "numpy"
