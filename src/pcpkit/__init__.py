"""Polynomial complementarity toolkit.

Find x >= 0 with f(x) + q >= 0 and <x, f(x)+q> = 0 for polynomial maps f,
including the homogeneous tensor case f(x) = A x^(m-1). The package bundles
a batched semismooth Newton solver with pattern enumeration and grid
certificates, local degree computation (regular-value counting plus a 2-D
winding cross-check), homotopy and stability probes, classic LCP machinery
(Lemke pivoting, pattern enumeration, matrix degree), structured-class
verdicts, and factories for the reference catalog the test suites check
against.

The tensor kernels are plain NumPy (pcpkit._core_numpy); the package has no
compiled parts.
"""

from .backend import backend_name
from .classify import (
    ClassVerdict,
    ConeSample,
    dual_interior_test,
    gus_probe,
    is_copositive,
    is_nonneg_pos_diag,
    is_R,
    is_R0,
    is_strong_M,
    is_Z_tensor,
    p_property_check,
    sol_cone_sample,
    strong_q_probe,
)
from .config import DEFAULT_TOLERANCES, Tolerances
from .constructions import (
    CatalogEntry,
    coupled_square_tensor,
    example_catalog,
    matrix_power_tensor,
    norm_scaled_power_map,
    two_solution_instance,
)
from .degree import (
    DegreeEstimate,
    HomotopyReport,
    StabilityReport,
    homotopy_invariance_check,
    local_degree_min_map,
    stability_radius_probe,
    tensor_degree,
    winding_degree_2d,
)
from .errors import (
    BudgetExhaustedError,
    DegenerateInputError,
    InvalidInputError,
    PcpKitError,
)
from .lcp import LcpInstance, LcpResult, lcp_degree, lcp_enumerate, lemke_solve
from .solver import (
    BoundednessReport,
    SolveConfig,
    SolveReport,
    UnsolvableCertificate,
    VerifyReport,
    ZeroConeReport,
    boundedness_probe,
    certify_unsolvable,
    check_sol_infty_zero,
    enumerate_solutions,
    solve,
    verify_solution,
)
from .tensor_core import (
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
    load_map,
    load_tensor,
    map_from_json,
    map_to_json,
    min_map,
    save_instance,
    save_tensor,
    tensor_from_json,
    tensor_to_json,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "backend_name",
    # core types
    "Tensor",
    "PolynomialMap",
    "PcpInstance",
    "LcpInstance",
    "Tolerances",
    "DEFAULT_TOLERANCES",
    "SolveConfig",
    # errors
    "PcpKitError",
    "InvalidInputError",
    "DegenerateInputError",
    "BudgetExhaustedError",
    # tensor ops
    "as_map",
    "leading_term",
    "min_map",
    "componentwise_power",
    "componentwise_root",
    "fd_jacobian",
    # io
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
    # solver
    "solve",
    "enumerate_solutions",
    "verify_solution",
    "check_sol_infty_zero",
    "boundedness_probe",
    "certify_unsolvable",
    "SolveReport",
    "VerifyReport",
    "ZeroConeReport",
    "BoundednessReport",
    "UnsolvableCertificate",
    # degree
    "DegreeEstimate",
    "tensor_degree",
    "local_degree_min_map",
    "winding_degree_2d",
    "homotopy_invariance_check",
    "HomotopyReport",
    "stability_radius_probe",
    "StabilityReport",
    # lcp
    "lemke_solve",
    "lcp_enumerate",
    "lcp_degree",
    "LcpResult",
    # classifiers
    "ClassVerdict",
    "ConeSample",
    "is_R0",
    "is_R",
    "is_copositive",
    "is_Z_tensor",
    "is_strong_M",
    "is_nonneg_pos_diag",
    "gus_probe",
    "strong_q_probe",
    "p_property_check",
    "sol_cone_sample",
    "dual_interior_test",
    # constructions
    "CatalogEntry",
    "matrix_power_tensor",
    "norm_scaled_power_map",
    "two_solution_instance",
    "coupled_square_tensor",
    "example_catalog",
]
