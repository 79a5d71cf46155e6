import ast
import dataclasses
import inspect
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def test_declared_dependencies_match_the_package_imports():
    tomllib = pytest.importorskip("tomllib")
    imported = set()
    for path in (ROOT / "src" / "pcpkit").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    third_party = imported - set(sys.stdlib_module_names) - {"pcpkit"}
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    declared = {re.split(r"[\s<>=!~;\[]", d, maxsplit=1)[0] for d in project["dependencies"]}
    assert third_party == declared == {"numpy"}


def test_seed_and_knobs_have_one_source():
    import pcpkit
    from pcpkit import solver

    params = {
        name: set(inspect.signature(obj).parameters)
        for name in pcpkit.__all__
        if inspect.isfunction(obj := getattr(pcpkit, name))
    }
    assert [name for name, p in params.items() if {"seed", "cfg"} <= p] == []
    assert [name for name, p in params.items() if "seed" in p] == ["lcp_degree"]
    assert "restarts" not in params["is_strong_M"]
    assert "max_pivots" not in params["lemke_solve"]
    assert not {"radius", "samples"} & params["winding_degree_2d"]
    assert "n_random" not in params["is_R"]
    # the engine owns its step rule; the config keeps the values callers vary
    assert [f.name for f in dataclasses.fields(pcpkit.SolveConfig)] == [
        "seed", "search_radius", "grid_per_axis", "pattern_dim_cap", "confirm_grid", "tolerances"
    ]
    engine = set(inspect.signature(solver._newton_batch).parameters)
    assert not {"armijo_factor", "max_halvings"} & engine
