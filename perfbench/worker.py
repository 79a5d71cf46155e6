"""Run one workload in this process and print its figures as one JSON line.

A closed loop with one caller: the ops of the seeded list run one at a time,
in whole passes over the list, until the next pass would end after
--seconds (at least MIN_PASSES passes). Each op's latency is its best over
the passes; every attempt is checked. With --trace-out the layer wrappers
are installed and the spans are written there at the end.

Started by run.py, which sets PYTHONPATH and pins BLAS to one thread.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import time
from collections import defaultdict

MIN_PASSES = 3
# workloads with fewer ops report their slowest op as the tail
TAIL_MIN_OPS = 40
TAIL_BEYOND = 10


def run_passes(ops, seconds: float, tracer=None, min_passes: int = MIN_PASSES) -> dict:
    from workloads import OK, WRONG

    best = [math.inf] * len(ops)
    counts: dict[str, float] = defaultdict(float)
    attempted = failed = wrong = passes = 0
    failures: dict[str, str] = {}
    begin = time.perf_counter()
    while True:
        gc.collect()
        for i, op in enumerate(ops):
            if tracer is not None:
                tracer.active = True
                span = tracer.open("op")
            t0 = time.perf_counter()
            try:
                result, verdict = op.run(), None
            except Exception as exc:  # an op that raises counts as failed
                result, verdict = None, f"raised {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                tracer.active = False
            attempted += 1
            if verdict is None:
                verdict = op.check(result)
            if verdict == OK:
                best[i] = min(best[i], dt)
                for name, v in op.counts(result).items():
                    counts[name] += v
            else:
                failed += 1
                wrong += verdict == WRONG
                failures[op.label] = verdict
        passes += 1
        elapsed = time.perf_counter() - begin
        if passes >= min_passes and elapsed * (passes + 1) / passes > seconds:
            break
    return {
        "best": best,
        "counts": {k: v / passes for k, v in counts.items()},
        "attempted": attempted,
        "failed": failed,
        "wrong": wrong,
        "passes": passes,
        "failures": failures,
    }


def end_to_end(best: list[float]) -> dict[str, float]:
    lat = sorted(t for t in best if math.isfinite(t))
    if not lat:
        return {}
    tail = lat[-1 - TAIL_BEYOND] if len(lat) >= TAIL_MIN_OPS else lat[-1]
    return {
        "ops_per_s": len(lat) / sum(lat),
        "latency_p50_s": statistics.median(lat),
        "latency_tail_s": tail,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def report_counts(counts: dict[str, float]) -> dict[str, float]:
    """Per-layer counts read from the program's reports, per pass."""
    names = [
        "solver.newton_starts",
        "solver.newton_iterations",
        "solver.pattern_fallbacks",
        "solver.patterns_with_roots",
        "solver.certified_complete",
        "solver.certify.grid_points",
        "degree.preimage_sweeps",
        "degree.preimages",
    ]
    out = {name: counts.get(name, 0.0) for name in names}
    starts = counts.get("solver.newton_starts", 0.0)
    out["solver.newton.converged_per_start"] = (
        counts.get("solver.newton_converged", 0.0) / starts if starts else 0.0
    )
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-out", default=None)
    args = ap.parse_args(argv)

    import pcpkit
    import tracing
    from workloads import WORKLOADS

    ops = WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace_out:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    res = run_passes(ops, args.seconds, tracer)
    metrics = end_to_end(res["best"])
    layers = None
    if tracer is not None:
        layers = tracing.layer_metrics(tracer, res["passes"])
        layers.update(report_counts(res["counts"]))
        tracer.write(args.trace_out)
    print(json.dumps({
        "attempted": res["attempted"],
        "failed": res["failed"],
        "wrong": res["wrong"],
        "failures": res["failures"],
        "passes": res["passes"],
        "backend": pcpkit.backend_name(),
        "ops": [op.label for op in ops],
        "best_s": res["best"],
        "end_to_end": metrics,
        "per_layer": layers,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
