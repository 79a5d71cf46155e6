import json

import numpy as np
import pytest

from pcpkit.classify import is_R0, sol_cone_sample
from pcpkit.cli import run_scenario
from pcpkit.constructions import example_catalog
from pcpkit.degree import homotopy_invariance_check, stability_radius_probe, tensor_degree
from pcpkit.lcp import lcp_enumerate
from pcpkit.solver import (
    SolveConfig,
    boundedness_probe,
    certify_unsolvable,
    check_sol_infty_zero,
    enumerate_solutions,
    solve,
    verify_solution,
)
from pcpkit.tensor_core import PcpInstance, PolynomialMap, Report, Tensor

CATALOG = {e.name: e for e in example_catalog()}
CUBE = CATALOG["diag-cube"].tensor
NOT_R0 = CATALOG["copositive-cone"].tensor
INST = PcpInstance(CUBE, np.array([-1.0, -1.0]))

# a report of every class, keyed by the class name (and a suffix after "-")
REPORTS = {
    "SolveReport": lambda: solve(INST),
    "SolveReport-enumerate": lambda: enumerate_solutions(INST),
    "ZeroConeReport": lambda: check_sol_infty_zero(NOT_R0),
    "BoundednessReport": lambda: boundedness_probe(CUBE, [np.array([-1.0, 2.0])]),
    "UnsolvableCertificate": lambda: certify_unsolvable(INST, [(0.0, 1.5)] * 2, step=0.1),
    "ClassVerdict": lambda: is_R0(NOT_R0),
    "ConeSample": lambda: sol_cone_sample(NOT_R0),
    "DegreeEstimate": lambda: tensor_degree(CUBE),
    "HomotopyReport": lambda: homotopy_invariance_check(
        PolynomialMap([CUBE, Tensor(0.5 * np.eye(2))]), "to-leading-term", q=-np.ones(2)
    ),
    "StabilityReport": lambda: stability_radius_probe(CUBE, scales=(1e-3,)),
    "LcpResult": lambda: lcp_enumerate(np.array([[-1.0, 1.0], [3.0, -2.0]]), np.array([1.0, -1.0])),
    "ScenarioReport": lambda: run_scenario("remark5"),
}
# records nested in reports: the same converter, without the schema tag
RECORDS = {
    "VerifyReport": lambda: verify_solution(INST, np.ones(2)),
    "SolveConfig": lambda: SolveConfig(),
}
_PLAIN = (dict, list, str, int, float, bool, type(None))


def _assert_plain(v):
    """v holds only the types json.loads returns, at every depth."""
    assert type(v) in _PLAIN, type(v)
    if isinstance(v, dict):
        v = list(v.values())
    if isinstance(v, list):
        for x in v:
            _assert_plain(x)


def test_every_report_class_has_a_case():
    cases = {name.split("-")[0] for name in REPORTS}
    assert cases == {cls.__name__ for cls in Report.__subclasses__()}


@pytest.mark.parametrize("name", sorted(REPORTS) + sorted(RECORDS))
def test_report_json_is_canonical(name):
    obj = {**REPORTS, **RECORDS}[name]()
    assert type(obj).__name__ == name.split("-")[0]
    out = obj.to_json()
    assert out.get("schema") == (1 if name in REPORTS else None)
    _assert_plain(out)
    text = json.dumps(out, sort_keys=True)
    assert json.dumps(json.loads(text), sort_keys=True) == text
    assert "wall_time_s" not in out
    if name in REPORTS:
        timed = obj.to_json(include_timing=True)
        assert ("wall_time_s" in timed) == hasattr(obj, "wall_time_s")
        assert {k: v for k, v in timed.items() if k != "wall_time_s"} == out
