"""Command-line front end.

Subcommands: solve, enumerate, classify, degree, construct, catalog, and
reproduce (named end-to-end scenario checks). Global flags: --seed, --config
(JSON overrides for the solve configuration), --json (machine output; byte
identical for identical argv, seed, and config). Exit codes: 0 success,
1 check/solve failure, 2 usage or input error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
import time

import numpy as np

from .classify import (
    PROPERTIES,
    dual_interior_test,
    is_copositive,
    is_R,
    is_R0,
    property_check,
    sol_cone_sample,
    strong_q_probe,
)
from .config import DEFAULT_TOLERANCES
from .constructions import (
    EXAMPLE1_MATRIX,
    check_catalog_entry,
    example2_instance,
    example3_q,
    example_catalog,
    matrix_power_tensor,
    norm_scaled_power_map,
    two_solution_instance,
)
from .degree import local_degree_min_map, tensor_degree, winding_degree_2d
from .errors import InvalidInputError, PcpKitError
from .lcp import lcp_degree
from .solver import (
    SolveConfig,
    certify_unsolvable,
    enumerate_solutions,
    solve,
    verify_solution,
)
from .tensor_core import (
    PcpInstance,
    PolynomialMap,
    Report,
    _float_array,
    _read_json,
    instance_to_json,
    leading_term,
    load_instance,
    load_map,
    load_tensor,
    map_to_json,
    tensor_to_json,
)

__all__ = ["main", "ScenarioReport", "run_scenario", "SCENARIOS"]


# --- plumbing ----------------------------------------------------------------


def _json_arg(text: str, flag: str):
    """JSON value of an inline "[...]" argument or of the file it names."""
    # tolerate the unicode minus that copy-paste loves to introduce
    text = text.strip().replace("−", "-")
    if text.startswith("["):
        return _read_json(flag, text)
    return _read_json(text)


def _build_config(args) -> SolveConfig:
    kw = {}
    if getattr(args, "config", None):
        data = _read_json(args.config)
        if not isinstance(data, dict):
            raise InvalidInputError(f"{args.config}: expected an object")
        fields = {f.name for f in dataclasses.fields(SolveConfig)}
        for key, val in data.items():
            if key not in fields:
                raise InvalidInputError(f"{args.config}: unknown field {key!r}")
            if key == "tolerances":
                if not isinstance(val, dict):
                    raise InvalidInputError(
                        f"{args.config}: tolerances must be an object"
                    )
                try:
                    val = DEFAULT_TOLERANCES.override(**val)
                except TypeError as exc:
                    raise InvalidInputError(f"{args.config}: tolerances: {exc}") from exc
            kw[key] = val
    if getattr(args, "seed", None) is not None:
        kw["seed"] = args.seed
    if getattr(args, "radius", None) is not None:
        kw["search_radius"] = args.radius
    return SolveConfig(**kw)


def _instance_from_args(args, cfg: SolveConfig) -> PcpInstance:
    given = [to for to in ("tensor", "map", "instance") if getattr(args, to, None)]
    if len(given) != 1:
        raise InvalidInputError("give exactly one of --tensor, --map, --instance")
    if args.instance:
        if getattr(args, "q", None):
            raise InvalidInputError("--q conflicts with --instance (q is inside)")
        return load_instance(args.instance)
    if getattr(args, "q", None) is None:
        raise InvalidInputError("--q is required with --tensor/--map")
    q = _float_array(_json_arg(args.q, "--q"), "--q")
    if q.ndim != 1:
        raise InvalidInputError("--q must be a flat vector")
    if args.tensor:
        f = PolynomialMap([load_tensor(args.tensor)])
    else:
        f, const = load_map(args.map)
        q = q + const
    return PcpInstance(f, q)


def _emit(args, human_lines, result) -> None:
    if args.json:
        payload = {"schema": 1, "command": args.command, "result": result}
        print(json.dumps(payload, sort_keys=True, indent=1))
    else:
        for line in human_lines:
            print(line)


def _fmt(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return str(bool(x))
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return f"{float(x):.12g}"
    if isinstance(x, np.ndarray):
        return "[" + ", ".join(f"{float(v):.12g}" for v in x) + "]"
    return str(x)


# --- scenarios ----------------------------------------------------------------


@dataclasses.dataclass
class ScenarioReport(Report):
    scenario: str
    seed: int
    checks: list  # dicts: name, expected, observed, tag, ok
    wall_time_s: float = 0.0

    @property
    def passed(self) -> bool:
        return all(c["ok"] for c in self.checks)

    def to_json(self, include_timing: bool = False) -> dict:
        return {**super().to_json(include_timing), "passed": self.passed}


def _chk(name: str, expected, observed, tag: str, ok=None) -> dict:
    expected, observed = _fmt(expected), _fmt(observed)
    return {
        "name": name,
        "expected": expected,
        "observed": observed,
        "tag": tag,
        "ok": bool(expected == observed if ok is None else ok),
    }


def _scenario_example1(cfg: SolveConfig) -> list[dict]:
    checks = []
    est_m = lcp_degree(EXAMPLE1_MATRIX, seed=cfg.seed, tols=cfg.tolerances)
    checks.append(_chk("matrix degree", "-1", est_m.value, "reference"))
    T = matrix_power_tensor(EXAMPLE1_MATRIX, 3)
    est_t = tensor_degree(T, seed=cfg.seed, cfg=cfg)
    checks.append(_chk("tensor degree", "-1", est_t.value, "reference"))
    checks.append(
        _chk(
            "degree methods agree",
            "True",
            est_t.diagnostics.get("methods_agree"),
            "derived",
        )
    )
    r0 = is_R0(T, seed=cfg.seed, cfg=cfg)
    checks.append(_chk("r0", "holds-up-to-sampling", r0.verdict, "reference"))
    r = is_R(T, seed=cfg.seed, cfg=cfg)
    checks.append(_chk("r", "fails", r.verdict, "reference"))
    checks.append(
        _chk(
            "r failure is witnessed",
            "True",
            r.witness is not None and "nonzero_solution" in r.witness,
            "derived",
        )
    )
    sq = strong_q_probe(T, trials=50, seed=cfg.seed, cfg=cfg)
    checks.append(
        _chk("strong-q", "holds-up-to-sampling", sq.verdict, "reference")
    )
    checks.append(
        _chk("strong-q trials solved", "50", sq.evidence.get("solved"), "derived")
    )
    return checks


def _scenario_example2(cfg: SolveConfig) -> list[dict]:
    checks = []
    lead = leading_term(example2_instance().map)
    S = sol_cone_sample(lead, seed=cfg.seed, cfg=cfg)
    checks.append(_chk("cone generator count", "1", len(S.generators), "reference"))
    if S.generators:
        g = S.generators[0]
        angle = float(np.arccos(np.clip(g[0], -1.0, 1.0)))
        checks.append(
            _chk(
                "generator angle to (1,0) <= 1e-4",
                "True",
                angle <= 1e-4,
                "reference",
                ok=angle <= 1e-4,
            )
        )
    cop = is_copositive(lead, seed=cfg.seed, cfg=cfg)
    checks.append(_chk("leading term copositive", "holds", cop.verdict, "reference"))
    checks.append(
        _chk(
            "q=(2,-2) in dual interior",
            "interior",
            dual_interior_test(np.array([2.0, -2.0]), S, cfg.tolerances),
            "reference",
        )
    )
    inst = example2_instance()
    cert = certify_unsolvable(inst, [(0.0, 1.1), (0.0, 1.1)], 1e-3, cfg.tolerances)
    checks.append(
        _chk("box certificate", "no-solution-certified", cert.status, "reference")
    )
    checks.append(
        _chk(
            "certificate margin positive",
            "True",
            cert.min_residual > cert.threshold,
            "derived",
        )
    )
    rep = solve(inst, cfg)
    checks.append(_chk("solve outcome", "budget-exhausted", rep.status, "reference"))
    checks.append(
        _chk("no false solution", "0", len(rep.solutions), "derived")
    )
    return checks


def _scenario_example3(cfg: SolveConfig) -> list[dict]:
    checks = []
    entry = {e.name: e for e in example_catalog()}["example3"]
    F = entry.map
    cfg15 = cfg.with_radius(15.0)
    for k in range(1, 11):
        inst = PcpInstance(F, example3_q(k))
        rep = solve(inst, cfg15)
        target = np.array([k + 1.0 / (2.0 * k), float(k)])
        if rep.status == "solved" and rep.solutions:
            x = rep.solutions[0]
            err = float(np.abs(x - target).max())
            ok = err <= 1e-8 or verify_solution(inst, x, cfg.tolerances.feasibility).ok
            observed = f"x={_fmt(x)} err={err:.3e}"
        else:
            ok = False
            observed = rep.status
        checks.append(
            _chk(
                f"q_{k} solved near (k+1/(2k), k)",
                f"x={_fmt(target)}",
                observed,
                "reference",
                ok=ok,
            )
        )
    inst = PcpInstance(F, np.array([-1.0, -1.0]))
    rep = enumerate_solutions(inst, cfg.with_radius(1000.0))
    checks.append(
        _chk("no solution for the limit q", "0", len(rep.solutions), "reference")
    )
    all_active = rep.diagnostics["patterns"].get("1,2", {})
    checks.append(
        _chk(
            "all-active pattern inconsistent",
            "inconsistent",
            all_active.get("status"),
            "reference",
        )
    )
    return checks


def _match_sets(A: list, B: list, tol: float) -> bool:
    if len(A) != len(B):
        return False
    used = [False] * len(B)
    for a in A:
        hit = None
        for j, b in enumerate(B):
            if not used[j] and float(np.abs(a - b).max()) <= tol:
                hit = j
                break
        if hit is None:
            return False
        used[hit] = True
    return True


def _scenario_eq4(cfg: SolveConfig) -> list[dict]:
    from .lcp import lcp_enumerate
    from .tensor_core import componentwise_root

    rng = np.random.default_rng(cfg.seed)
    combos = [(2, 3), (2, 5), (3, 3), (3, 5)]
    matches = 0
    redraws = 0
    mismatches = []
    for i in range(50):
        n, k = combos[i % 4]
        for _ in range(10):
            A = rng.normal(size=(n, n))
            q = 1.5 * rng.normal(size=n)
            base = lcp_enumerate(A, componentwise_root(q, k), tols=cfg.tolerances)
            if not base.non_isolated_suspected:
                break
            redraws += 1
        T = matrix_power_tensor(A, k)
        norms = [float(np.abs(x).max()) for x in base.solutions] + [1.0]
        radius = max(5.0, 2.0 * max(norms))
        rep = enumerate_solutions(PcpInstance(PolynomialMap([T]), q),
                                  cfg.with_radius(radius))
        if _match_sets(base.solutions, rep.solutions, 1e-6):
            matches += 1
        else:
            mismatches.append(i)
    checks = [
        _chk("solution sets agree", "50/50", f"{matches}/50", "reference",
             ok=matches == 50)
    ]
    if mismatches:
        checks.append(
            _chk("mismatching draws", "[]", str(mismatches), "derived", ok=False)
        )
    return checks


def _scenario_r_degree_one(cfg: SolveConfig) -> list[dict]:
    checks = []
    wanted = ["diag-cube", "nonneg-posdiag", "strict-copositive", "strong-m"]
    wanted += [f"r-matrix-power-{i:02d}" for i in range(1, 11)]
    catalog = {e.name: e for e in example_catalog()}
    for name in wanted:
        est = tensor_degree(catalog[name].tensor, seed=cfg.seed, cfg=cfg)
        checks.append(_chk(f"degree of {name}", "1", est.value, "reference"))
    return checks


def _scenario_remark5(cfg: SolveConfig) -> list[dict]:
    entry = {e.name: e for e in example_catalog()}["two-solution"]
    inst = entry.payload
    rep = enumerate_solutions(inst, cfg.with_radius(3.0))
    checks = [
        _chk("solution count", "2", len(rep.solutions), "reference"),
        _chk("completeness", "certified-complete", rep.completeness, "derived"),
    ]
    n = inst.dim
    targets = [np.zeros(n), np.ones(n)]
    for t, name in zip(targets, ("origin", "all-ones")):
        ok = any(float(np.abs(x - t).max()) <= 1e-8 for x in rep.solutions)
        checks.append(_chk(f"{name} among solutions", "True", ok, "reference", ok=ok))
    extras = [
        x
        for x in rep.solutions
        if all(float(np.abs(x - t).max()) > 1e-8 for t in targets)
    ]
    checks.append(_chk("no further solutions", "0", len(extras), "reference"))
    return checks


def _scenario_copositive_s(cfg: SolveConfig) -> list[dict]:
    checks = []
    entry = {e.name: e for e in example_catalog()}["copositive-cone"]
    lead = entry.payload
    cop = is_copositive(lead, seed=cfg.seed, cfg=cfg)
    checks.append(_chk("map copositive", "holds", cop.verdict, "direct"))
    S = sol_cone_sample(lead, seed=cfg.seed, cfg=cfg)
    checks.append(_chk("cone generator count", "1", len(S.generators), "reference"))
    for q in (
        np.array([2.0, -2.0]),
        np.array([1.0, -1.0]),
        np.array([1.0, 0.5]),
        np.array([3.0, -0.1]),
        np.array([0.5, 2.0]),
    ):
        verdict = dual_interior_test(q, S, cfg.tolerances)
        rep = solve(PcpInstance(PolynomialMap([lead]), q), cfg)
        good = (
            verdict == "interior"
            and rep.status == "solved"
            and bool(rep.verifications and rep.verifications[0].ok)
        )
        checks.append(
            _chk(
                f"q={_fmt(q)} interior and solvable",
                "interior/solved",
                f"{verdict}/{rep.status}",
                "reference",
                ok=good,
            )
        )
    rep = solve(example2_instance(), cfg)
    checks.append(
        _chk(
            "excluded counterexample stays unsolved",
            "budget-exhausted",
            rep.status,
            "reference",
        )
    )
    return checks


SCENARIOS = {
    "example1": _scenario_example1,
    "example2": _scenario_example2,
    "example3": _scenario_example3,
    "eq4-equivalence": _scenario_eq4,
    "r-degree-one": _scenario_r_degree_one,
    "remark5": _scenario_remark5,
    "copositive-S": _scenario_copositive_s,
}


def run_scenario(name: str, cfg: SolveConfig = SolveConfig()) -> ScenarioReport:
    if name not in SCENARIOS:
        raise InvalidInputError(
            f"unknown scenario {name!r}; choose from {sorted(SCENARIOS)}"
        )
    t0 = time.perf_counter()
    checks = SCENARIOS[name](cfg)
    return ScenarioReport(
        scenario=name,
        seed=cfg.seed,
        checks=checks,
        wall_time_s=time.perf_counter() - t0,
    )


# --- subcommand handlers -------------------------------------------------------


def _cmd_solve(args) -> int:
    cfg = _build_config(args)
    inst = _instance_from_args(args, cfg)
    rep = solve(inst, cfg)
    lines = [f"status: {rep.status}"]
    if rep.solutions:
        lines.append(f"x = {_fmt(rep.solutions[0])}")
        lines.append(f"residual = {rep.residuals[0]:.3e}")
    _emit(args, lines, rep.to_json())
    return 0 if rep.status == "solved" else 1


def _cmd_enumerate(args) -> int:
    cfg = _build_config(args)
    inst = _instance_from_args(args, cfg)
    rep = enumerate_solutions(inst, cfg)
    lines = [
        f"status: {rep.status}",
        f"completeness: {rep.completeness}",
        f"solutions: {len(rep.solutions)}",
    ]
    lines += [f"  x = {_fmt(x)}" for x in rep.solutions]
    _emit(args, lines, rep.to_json())
    return 0


def _cmd_classify(args) -> int:
    cfg = _build_config(args)
    given = [to for to in ("tensor", "map") if getattr(args, to, None)]
    if len(given) != 1:
        raise InvalidInputError("give exactly one of --tensor, --map")
    if args.tensor:
        target = PolynomialMap([load_tensor(args.tensor)])
    else:
        target, const = load_map(args.map)
        if np.abs(const).max() > 0:
            raise InvalidInputError("classification needs f(0)=0; drop the constant")
    props = [p.strip() for p in args.properties.split(",") if p.strip()]
    checks = [property_check(p) for p in props]
    verdicts = [check(target, cfg) for check in checks]
    lines = []
    for v in verdicts:
        lines.append(f"{v.property}: {v.verdict}")
        if v.witness is not None:
            lines.append(f"  witness: {json.dumps(v.witness, sort_keys=True)}")
    _emit(args, lines, [v.to_json() for v in verdicts])
    return 0


def _cmd_degree(args) -> int:
    cfg = _build_config(args)
    T = load_tensor(args.tensor)
    if args.method == "winding":
        w = winding_degree_2d(leading_term(PolynomialMap([T])), tols=cfg.tolerances)
        lines = [f"degree: {w} (winding-2d)"]
        payload = {"value": w, "method": "winding-2d"}
    elif args.method == "rv":
        est = local_degree_min_map(
            leading_term(PolynomialMap([T])), seed=cfg.seed, cfg=cfg
        )
        lines = [f"degree: {est.value} ({est.method})"]
        payload = est.to_json()
    else:
        est = tensor_degree(T, seed=cfg.seed, cfg=cfg)
        lines = [f"degree: {est.value} ({est.method})"]
        if "winding" in est.diagnostics:
            lines.append(f"winding cross-check: {est.diagnostics['winding']}")
        payload = est.to_json()
    _emit(args, lines, payload)
    return 0


def _cmd_construct(args) -> int:
    if args.what in ("matrix-power", "norm-scaled"):
        data = _json_arg(args.matrix, "--matrix")
        if isinstance(data, dict) and "matrix" in data:
            data = data["matrix"]
        A = _float_array(data, "--matrix")
    if args.what == "matrix-power":
        T = matrix_power_tensor(A, args.k)
        obj = tensor_to_json(T)
        desc = f"order-{T.order} tensor (dim {T.dim})"
    elif args.what == "norm-scaled":
        f = norm_scaled_power_map(A, args.k, args.r)
        obj = map_to_json(f)
        desc = f"homogeneous map of order {f.order} (dim {f.dim})"
    else:  # two-solution
        T = load_tensor(args.tensor)
        inst = two_solution_instance(T)
        obj = instance_to_json(inst)
        desc = f"instance with q=e in dim {inst.dim}"
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(obj, fh, indent=1, sort_keys=True)
        lines = [f"wrote {desc} to {args.out}"]
    else:
        lines = [json.dumps(obj, sort_keys=True, indent=1)]
    _emit(args, lines, obj)
    return 0


def _cmd_catalog(args) -> int:
    entries = example_catalog()
    if args.action == "list":
        lines = []
        payload = []
        for e in entries:
            lines.append(f"{e.name:22s} [{e.kind}] {e.note}")
            payload.append(
                {
                    "name": e.name,
                    "kind": e.kind,
                    "note": e.note,
                    "expected": [list(t) for t in e.expected],
                }
            )
        _emit(args, lines, payload)
        return 0
    # action == "check"
    cfg = _build_config(args)
    names = [args.name] if args.name else [e.name for e in entries]
    by = {e.name: e for e in entries}
    lines = []
    payload = []
    failed = False
    for name in names:
        if name not in by:
            raise InvalidInputError(f"unknown catalog entry {name!r}")
        recs = check_catalog_entry(by[name], cfg)
        for r in recs:
            mark = "ok" if r["ok"] else "MISMATCH"
            lines.append(
                f"{name}: {r['property']} expected={r['expected']} "
                f"observed={r['observed']} [{r['tag']}] {mark}"
            )
            failed = failed or not r["ok"]
        payload.append({"name": name, "records": recs})
    _emit(args, lines, payload)
    return 1 if failed else 0


def _cmd_reproduce(args) -> int:
    cfg = _build_config(args)
    rep = run_scenario(args.scenario, cfg)
    lines = [f"scenario: {rep.scenario}"]
    for c in rep.checks:
        mark = "PASS" if c["ok"] else "FAIL"
        lines.append(
            f"  [{mark}] {c['name']}: expected {c['expected']}, "
            f"observed {c['observed']} [{c['tag']}]"
        )
    lines.append(
        f"result: {'PASS' if rep.passed else 'FAIL'} "
        f"({sum(c['ok'] for c in rep.checks)}/{len(rep.checks)} checks, "
        f"{rep.wall_time_s:.1f}s)"
    )
    _emit(args, lines, rep.to_json())
    return 0 if rep.passed else 1


# --- entry point ---------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pcpkit",
        description="Polynomial complementarity toolkit: solve, enumerate, "
        "classify, and measure degrees of tensor/polynomial "
        "complementarity problems.",
    )
    parser.add_argument("--seed", type=int, default=None, help="seed override")
    parser.add_argument("--config", default=None, help="JSON config overrides")
    parser.add_argument("--json", action="store_true", help="machine output")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_inputs(p, with_q=True):
        p.add_argument("--tensor", default=None, help="tensor JSON file")
        p.add_argument("--map", default=None, help="polynomial map JSON file")
        p.add_argument("--instance", default=None, help="instance JSON file")
        if with_q:
            p.add_argument("--q", default=None,
                           help="constant vector: inline JSON or a file path")
        p.add_argument("--radius", type=float, default=None,
                       help="search radius override")

    p = sub.add_parser("solve", help="find one solution")
    add_inputs(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("enumerate", help="find all solutions in the radius")
    add_inputs(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("classify", help="membership verdicts")
    p.add_argument("--tensor", default=None)
    p.add_argument("--map", default=None)
    p.add_argument("--properties", required=True,
                   help=f"comma list from: {', '.join(PROPERTIES)}")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("degree", help="local degree of the min map at 0")
    p.add_argument("--tensor", required=True)
    p.add_argument("--method", choices=("rv", "winding", "both"), default="both")
    p.set_defaults(func=_cmd_degree)

    p = sub.add_parser("construct", help="build tensors, maps, and instances")
    ps = p.add_subparsers(dest="what", required=True)
    pp = ps.add_parser("matrix-power", help="tensor with T x^k = (Ax)^[k]")
    pp.add_argument("--matrix", required=True,
                    help="square matrix: inline JSON or a file path")
    pp.add_argument("--k", type=int, required=True)
    pp.add_argument("--out", default=None)
    pp.set_defaults(func=_cmd_construct)
    pp = ps.add_parser("norm-scaled", help="map ||x||^(2r) (Ax)^[k]")
    pp.add_argument("--matrix", required=True,
                    help="square matrix: inline JSON or a file path")
    pp.add_argument("--k", type=int, default=1)
    pp.add_argument("--r", type=int, default=1)
    pp.add_argument("--out", default=None)
    pp.set_defaults(func=_cmd_construct)
    pp = ps.add_parser("two-solution", help="instance solved by 0 and e")
    pp.add_argument("--tensor", required=True)
    pp.add_argument("--out", default=None)
    pp.set_defaults(func=_cmd_construct)

    p = sub.add_parser("catalog", help="reference objects with expected verdicts")
    pc = p.add_subparsers(dest="action", required=True)
    pl = pc.add_parser("list", help="names and notes")
    pl.set_defaults(func=_cmd_catalog)
    pl = pc.add_parser("check", help="re-run expected verdicts")
    pl.add_argument("--name", default=None)
    pl.set_defaults(func=_cmd_catalog)

    p = sub.add_parser("reproduce", help="run a named scenario end to end")
    p.add_argument("scenario", choices=sorted(SCENARIOS))
    p.set_defaults(func=_cmd_reproduce)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PcpKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
