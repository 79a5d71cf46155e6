"""pcpkit benchmark: one seeded workload per call, end to end or traced.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from src/.
--trace 0 measures setup_s (median cold import of pcpkit and pcpkit.cli over
SETUP_REPS fresh interpreters) and the workload's end-to-end figures;
--trace 1 reruns the workload with layer wrappers and reports the per-layer
figures. Either way the workload runs in a fresh process with numpy's BLAS
pinned to one thread, and the last line of standard output is the JSON
result, with the metrics BENCHMARK.json lists for the mode. Full results and
spans go to perfbench/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("solve", "enumerate", "degree", "certify")
SETUP_REPS = 5
SETUP_CODE = (
    "import time; t = time.perf_counter(); import pcpkit, pcpkit.cli; "
    "print(time.perf_counter() - t)"
)
WORKER_TIMEOUT_S = 150


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def _python(args: list[str], env: dict, timeout: float) -> str:
    done = subprocess.run([sys.executable, *args], env=env, cwd=ROOT, timeout=timeout,
                          stdout=subprocess.PIPE, check=True, text=True)
    return done.stdout.strip().splitlines()[-1]


def setup_seconds(env: dict) -> float:
    """Median import time of pcpkit and pcpkit.cli in fresh interpreters,
    after one unmeasured import that writes the bytecode caches."""
    _python(["-c", SETUP_CODE], env, 60)
    return statistics.median(float(_python(["-c", SETUP_CODE], env, 60)) for _ in range(SETUP_REPS))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pcpkit" / "__init__.py").is_file():
        print(f"perfbench: no pcpkit source at {ROOT / 'src' / 'pcpkit'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    env = _env()
    worker = [str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds)]
    if args.trace:
        worker += ["--trace-out", str(OUT / f"spans-{tag}.json")]
    else:
        setup_s = setup_seconds(env)
    res = json.loads(_python(worker, env, WORKER_TIMEOUT_S))
    if args.trace:
        metrics = res["per_layer"]
    else:
        metrics = dict(res["end_to_end"], setup_s=setup_s)
        res["setup_s"] = setup_s
    (OUT / f"result-{tag}.json").write_text(json.dumps(res, indent=1) + "\n")
    for label, verdict in res["failures"].items():
        print(f"perfbench: {label}: {verdict}", file=sys.stderr)
    print(json.dumps({
        "correct": res["wrong"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": unit} for k, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
