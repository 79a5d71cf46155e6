import argparse
import json
import os
import subprocess
import sys

import numpy as np
import pytest

from pcpkit import cli
from pcpkit.constructions import matrix_power_tensor
from pcpkit.tensor_core import (
    instance_to_json,
    load_tensor,
    map_to_json,
    tensor_to_json,
    PolynomialMap,
    Tensor,
)


def _example1_tensor_file(tmp_path):
    A = np.array([[-1.0, 1.0], [3.0, -2.0]])
    t = Tensor(np.einsum("ij,ik,il->ijkl", A, A, A))
    p = tmp_path / "example1.json"
    p.write_text(json.dumps(tensor_to_json(t)))
    return str(p)


def _example3_map_file(tmp_path):
    c = np.zeros((2, 2, 2))
    c[0, 0, 1] = 1.0
    c[0, 1, 0] = 1.0
    c[0, 1, 1] = -2.0
    c[1, 0, 0] = 3.0
    c[1, 0, 1] = -2.0
    c[1, 1, 0] = -2.0
    c[1, 1, 1] = 1.0
    p = tmp_path / "example3_map.json"
    p.write_text(json.dumps(map_to_json(PolynomialMap([Tensor(c)]))))
    return str(p)


def _diag_cube_file(tmp_path):
    c = np.zeros((2, 2, 2, 2))
    c[0, 0, 0, 0] = 1.0
    c[1, 1, 1, 1] = 1.0
    p = tmp_path / "diag_cube.json"
    p.write_text(json.dumps(tensor_to_json(Tensor(c))))
    return str(p)


def test_solve_map_with_inline_q(tmp_path, capsys):
    mp = _example3_map_file(tmp_path)
    rc = cli.main(["--json", "solve", "--map", mp, "--q", "[-1, -1.75]"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["result"]["status"] == "solved"
    x = out["result"]["solutions"][0]
    assert np.abs(np.array(x) - [1.5, 1.0]).max() < 1e-8


def test_solve_accepts_unicode_minus(tmp_path, capsys):
    mp = _example3_map_file(tmp_path)
    rc = cli.main(["solve", "--map", mp, "--q", "[−1, −1.75]"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "status: solved" in out


def test_solve_unsolvable_exits_one(tmp_path, capsys):
    mp = _example3_map_file(tmp_path)
    rc = cli.main(["solve", "--map", mp, "--q", "[-1, -1]"])
    assert rc == 1
    assert "budget-exhausted" in capsys.readouterr().out


def test_solve_requires_exactly_one_input(tmp_path, capsys):
    mp = _example3_map_file(tmp_path)
    tp = _diag_cube_file(tmp_path)
    rc = cli.main(["solve", "--q", "[1, 1]"])
    assert rc == 2
    rc = cli.main(["solve", "--map", mp, "--tensor", tp, "--q", "[1, 1]"])
    assert rc == 2


def test_enumerate_instance_file(tmp_path, capsys):
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[0, 0, 1] = -0.5
    c[0, 1, 0] = -0.5
    c[1, 1, 1] = 1.0
    c[1, 0, 1] = -0.5
    c[1, 1, 0] = -0.5
    from pcpkit.tensor_core import PcpInstance

    f = PolynomialMap([Tensor(c), Tensor(np.diag([-1.0, -1.0]))])
    p = tmp_path / "two.json"
    p.write_text(json.dumps(instance_to_json(PcpInstance(f, np.ones(2)))))
    rc = cli.main(["--json", "enumerate", "--instance", str(p), "--radius", "3"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    sols = out["result"]["solutions"]
    assert len(sols) == 2
    assert out["result"]["completeness"] == "certified-complete"


def test_classify_tensor_properties(tmp_path, capsys):
    tp = _diag_cube_file(tmp_path)
    rc = cli.main(["--json", "classify", "--tensor", tp, "--properties", "r0,z,strong-m"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    verdicts = {v["property"]: v["verdict"] for v in out["result"]}
    assert verdicts["r0"] == "holds-up-to-sampling"
    assert verdicts["z"] == "holds"
    assert verdicts["strong-m"] == "holds"


def test_classify_coefficient_checks_need_tensor(tmp_path, capsys):
    # non-homogeneous maps have no single coefficient tensor to scan
    c = np.zeros((2, 2, 2, 2))
    c[0, 0, 0, 0] = 1.0
    c[1, 1, 1, 1] = 1.0
    f = PolynomialMap([Tensor(c), Tensor(np.eye(2))])
    p = tmp_path / "mixed_map.json"
    p.write_text(json.dumps(map_to_json(f)))
    rc = cli.main(["classify", "--map", str(p), "--properties", "z"])
    assert rc == 2
    assert "coefficient check" in capsys.readouterr().err


def test_classify_unknown_property(tmp_path, capsys):
    tp = _diag_cube_file(tmp_path)
    rc = cli.main(["classify", "--tensor", tp, "--properties", "frobnitz"])
    assert rc == 2


def test_degree_both_methods(tmp_path, capsys):
    tp = _example1_tensor_file(tmp_path)
    rc = cli.main(["--json", "degree", "--tensor", tp])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["result"]["value"] == -1
    assert out["result"]["diagnostics"]["methods_agree"]


def test_degree_single_methods(tmp_path, capsys):
    tp = _example1_tensor_file(tmp_path)
    rc = cli.main(["--json", "degree", "--tensor", tp, "--method", "winding"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["result"]["value"] == -1
    rc = cli.main(["--json", "degree", "--tensor", tp, "--method", "rv"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0 and out["result"]["value"] == -1


def test_construct_matrix_power_writes_file(tmp_path, capsys):
    m = tmp_path / "m.json"
    m.write_text("[[-1, 1], [3, -2]]")
    out_path = tmp_path / "power.json"
    rc = cli.main(
        ["construct", "matrix-power", "--matrix", str(m), "--k", "3", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert rc == 0
    t = load_tensor(str(out_path))
    ref = matrix_power_tensor(np.array([[-1.0, 1.0], [3.0, -2.0]]), 3)
    assert np.allclose(t.coeffs, ref.coeffs)


def test_construct_accepts_inline_matrix(tmp_path, capsys):
    out_path = tmp_path / "power.json"
    rc = cli.main(
        ["construct", "matrix-power", "--matrix", "[[-1, 1], [3, -2]]",
         "--k", "3", "--out", str(out_path)]
    )
    capsys.readouterr()
    assert rc == 0
    t = load_tensor(str(out_path))
    ref = matrix_power_tensor(np.array([[-1.0, 1.0], [3.0, -2.0]]), 3)
    assert np.allclose(t.coeffs, ref.coeffs)


def test_construct_two_solution(tmp_path, capsys):
    tp = tmp_path / "sq.json"
    c = np.zeros((2, 2, 2))
    c[0, 0, 0] = 1.0
    c[0, 0, 1] = -0.5
    c[0, 1, 0] = -0.5
    c[1, 1, 1] = 1.0
    c[1, 0, 1] = -0.5
    c[1, 1, 0] = -0.5
    tp.write_text(json.dumps(tensor_to_json(Tensor(c))))
    rc = cli.main(["--json", "construct", "two-solution", "--tensor", str(tp)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["result"]["q"] == [1.0, 1.0]


def test_catalog_list(capsys):
    rc = cli.main(["--json", "catalog", "list"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    names = [e["name"] for e in out["result"]]
    assert "example1" in names and "r-matrix-power-01" in names


def test_catalog_check_single_entry(capsys):
    rc = cli.main(["catalog", "check", "--name", "diag-cube"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "MISMATCH" not in out


def test_catalog_check_unknown_name(capsys):
    rc = cli.main(["catalog", "check", "--name", "not-a-thing"])
    assert rc == 2


def test_reproduce_scenario(capsys):
    rc = cli.main(["reproduce", "remark5"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: PASS" in out


def test_reproduce_copositive_cone_scenario(capsys):
    rc = cli.main(["reproduce", "copositive-S"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "result: PASS" in out


def test_json_output_is_deterministic(tmp_path, capsys):
    mp = _example3_map_file(tmp_path)
    argv = ["--json", "solve", "--map", mp, "--q", "[-1, -1.75]"]
    cli.main(argv)
    first = capsys.readouterr().out
    cli.main(argv)
    second = capsys.readouterr().out
    assert first == second


def test_config_file_overrides(tmp_path, capsys):
    mp = _example3_map_file(tmp_path)
    cfgp = tmp_path / "cfg.json"
    cfgp.write_text(json.dumps({"search_radius": 15.0, "seed": 3}))
    rc = cli.main(["--json", "--config", str(cfgp), "solve", "--map", mp, "--q", "[-1, -1.09375]"])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["result"]["config"]["search_radius"] == 15.0
    assert out["result"]["seed"] == 3


def test_cli_import_leaves_scipy_optimize_unloaded():
    # no module loads scipy: not the CLI, and not any of the classify checks
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code = (
        "import sys, numpy as np, pcpkit.cli\n"
        "from pcpkit.classify import PROPERTIES, property_check\n"
        "from pcpkit.solver import SolveConfig\n"
        "from pcpkit.tensor_core import Tensor\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "C = np.zeros((2, 2, 2, 2)); C[0, 0, 0, 0] = C[1, 1, 1, 1] = 1.0\n"
        "for name in PROPERTIES:\n"
        "    property_check(name)(Tensor(C), SolveConfig())\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.split("\n")[:2] == ["[]", "[]"]


def test_cli_p_verdict_is_strict_json(tmp_path, capsys):
    # the polish finds this tensor's violation; an unbounded one drifts to
    # pairs near 1e103 where psi overflows to -inf, which is not JSON
    c = np.zeros((2, 2, 2))
    c[0, 0, 0], c[0, 0, 1], c[0, 1, 0], c[0, 1, 1] = 2.677, -0.002, -1.087, 1.594
    c[1, 0, 0], c[1, 0, 1], c[1, 1, 0], c[1, 1, 1] = -1.031, -1.035, 1.813, 0.447
    p = tmp_path / "t.json"
    p.write_text(json.dumps(tensor_to_json(Tensor(c))))
    assert cli.main(["--json", "classify", "--tensor", str(p), "--properties", "p"]) == 0

    def refuse(name):
        raise ValueError(f"non-standard JSON constant {name}")

    out = json.loads(capsys.readouterr().out, parse_constant=refuse)
    (v,) = out["result"]
    assert v["verdict"] == "fails"
    x, y = np.array(v["witness"]["x"]), np.array(v["witness"]["y"])
    f = PolynomialMap([Tensor(c)])
    assert min(x.min(), y.min()) >= 0.0 and max(x.max(), y.max()) <= 2.0
    assert np.abs(x - y).max() >= 1e-3
    assert np.max((x - y) * (f.eval(x) - f.eval(y))) <= 0.0


_EYE2 = {"dim": 2, "order": 2,
         "entries": [{"idx": [1, 1], "val": 1.0}, {"idx": [2, 2], "val": 1.0}]}
# Files the JSON readers refuse: (--tensor/--map/--instance, content, error text).
_BAD_FILES = {
    "tensor-missing-entries": ("tensor", {"dim": 2, "order": 2}, "missing field 'entries'"),
    "tensor-entries-not-a-list": ("tensor", {**_EYE2, "entries": {}}, "entries must be a list"),
    "tensor-short-idx": ("tensor", {**_EYE2, "entries": [{"idx": [1], "val": 1.0}]},
                         "idx must list 2 indices"),
    "tensor-duplicate-idx": ("tensor", {**_EYE2, "entries": [{"idx": [1, 1], "val": 1.0}] * 2},
                             "duplicate idx [1, 1]"),
    "tensor-string-val": ("tensor", {**_EYE2, "entries": [{"idx": [1, 1], "val": "a"}]},
                          "non-numeric val"),
    "tensor-nan-val": ("tensor", {**_EYE2, "entries": [{"idx": [1, 1], "val": float("nan")}]},
                       "non-finite val"),
    "map-mixed-dims": ("map", {"dim": 2, "terms": [_EYE2, {"dim": 3, "order": 3, "entries": []}]},
                       "terms[1] has dim 3, expected 2"),
    "map-no-order-two-term": ("map", {"dim": 2, "terms": [{"dim": 2, "order": 1, "entries": []}]},
                              "needs at least one term of order >= 2"),
    # T x^2 = 0 although T has nonzero coefficients: no leading term of order 3
    "instance-vanishing-leading-term": (
        "instance",
        {"dim": 2, "q": [1.0, 1.0], "map": {"dim": 2, "terms": [
            {"dim": 2, "order": 3, "entries": [
                {"idx": [1, 1, 2], "val": 1.0}, {"idx": [1, 2, 1], "val": -1.0},
                {"idx": [2, 1, 2], "val": 2.0}, {"idx": [2, 2, 1], "val": -2.0}]},
            {"dim": 2, "order": 2, "entries": [
                {"idx": [1, 1], "val": 2.0}, {"idx": [2, 2], "val": 3.0}]}]}},
        "leading term must be nonzero: the order-3 term's map vanishes identically",
    ),
    "instance-short-q": ("instance", {"dim": 2, "map": {"dim": 2, "terms": [_EYE2]}, "q": [1.0]},
                         "q must have length 2"),
}


def _malformed_argv(case, tmp_path):
    if case in _BAD_FILES:
        kind, obj, _ = _BAD_FILES[case]
        path = tmp_path / f"{kind}.json"
        path.write_text(json.dumps(obj))
        return ["solve", f"--{kind}", str(path)] + ([] if kind == "instance" else ["--q", "[1, 1]"])
    sq = tmp_path / "sq.json"
    sq.write_text(json.dumps(tensor_to_json(Tensor(np.eye(2)))))
    if case == "truncated-q-file":
        (tmp_path / "q.json").write_text("[1, ")
        return ["solve", "--tensor", str(sq), "--q", str(tmp_path / "q.json")]
    if case == "string-q-file":
        (tmp_path / "q.json").write_text('["a", "b"]')
        return ["solve", "--tensor", str(sq), "--q", str(tmp_path / "q.json")]
    if case == "string-q-instance":
        from pcpkit.tensor_core import PcpInstance

        obj = instance_to_json(PcpInstance(Tensor(np.eye(2)), np.ones(2)))
        obj["q"] = ["a", 1]
        (tmp_path / "inst.json").write_text(json.dumps(obj))
        return ["solve", "--instance", str(tmp_path / "inst.json")]
    if case == "ragged-matrix":
        return ["construct", "matrix-power", "--matrix", "[[1,2],[3]]", "--k", "3"]
    if case == "fractional-order-tensor":
        obj = tensor_to_json(Tensor(np.eye(2)))
        obj["order"] = 2.7
        (tmp_path / "t.json").write_text(json.dumps(obj))
        return ["solve", "--tensor", str(tmp_path / "t.json"), "--q", "[1, 1]"]
    if case == "jacobian-fd-config":
        (tmp_path / "cfg.json").write_text(json.dumps({"tolerances": {"jacobian_fd": 1e-5}}))
        return ["--config", str(tmp_path / "cfg.json"), "solve", "--tensor", str(sq), "--q", "[1, 1]"]
    assert case == "negative-halvings-config"  # a removed engine key: unknown field
    (tmp_path / "cfg.json").write_text(json.dumps({"max_halvings": -1}))
    return ["--config", str(tmp_path / "cfg.json"), "solve", "--tensor", str(sq), "--q", "[1, 1]"]


@pytest.mark.parametrize(
    "case",
    ["truncated-q-file", "string-q-file", "string-q-instance", "ragged-matrix",
     "negative-halvings-config", "fractional-order-tensor", "jacobian-fd-config", *_BAD_FILES],
)
def test_malformed_input_exits_two(case, tmp_path, capsys):
    rc = cli.main(_malformed_argv(case, tmp_path))
    err = capsys.readouterr().err
    assert rc == 2
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    if case in _BAD_FILES:
        assert _BAD_FILES[case][2] in lines[0]


def test_classify_checks_every_name_before_running(tmp_path, capsys, monkeypatch):
    from pcpkit import classify

    def never(*args, **kwargs):
        raise AssertionError("a check ran before the names were validated")

    monkeypatch.setattr(classify, "is_R0", never)  # the first step of is_R
    tp = _diag_cube_file(tmp_path)
    rc = cli.main(["classify", "--tensor", tp, "--properties", "r,frobnitz"])
    assert rc == 2
    assert "frobnitz" in capsys.readouterr().err


def test_classify_properties_help_lists_the_table():
    from pcpkit.classify import PROPERTIES

    parser = cli._build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    opt = next(a for a in sub.choices["classify"]._actions if a.dest == "properties")
    assert opt.help.split(": ", 1)[1].split(", ") == list(PROPERTIES)
