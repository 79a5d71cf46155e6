"""Spans at pcpkit's layer boundaries, recorded from outside the program.

install() wraps the public callable at each boundary in the current process
only; the wrappers record nothing until the tracer is switched on, which the
harness does for the duration of each timed operation. A span is
[name, start, end, parent]; its layer is the part of the name before the
first dot, and its self time is its duration minus its direct children's.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.active = False
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr: str, name: str, rows=None) -> None:
        """Replace owner.attr by a wrapper recording a span and the call
        count; rows(args, result) adds to the row count when given."""
        orig = getattr(owner, attr)

        @functools.wraps(orig)
        def traced(*args, **kwargs):
            if not self.active:
                return orig(*args, **kwargs)
            idx = self.open(name)
            try:
                out = orig(*args, **kwargs)
            finally:
                self.close(idx)
            self.counts[name + ".calls"] += 1
            if rows is not None:
                self.counts[name + ".rows"] += rows(args, out)
            return out

        setattr(owner, attr, traced)

    def times(self) -> tuple[dict, dict]:
        """(total, self) seconds per span name."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), c in zip(self.spans, child):
            total[name] += end - start
            own[name] += end - start - c
        return total, own

    def write(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def install(tracer: Tracer) -> None:
    from pcpkit import degree, solver, tensor_core

    def first_rows(args, out):
        return out.shape[0]

    def batch_rows(args, out):
        return args[0].shape[0] if np.ndim(args[0]) == 3 else 1

    tracer.wrap(tensor_core.Tensor, "apply_batch", "kernel.apply", first_rows)
    tracer.wrap(tensor_core.Tensor, "jacobian_batch", "kernel.jacobian", first_rows)
    tracer.wrap(tensor_core.PolynomialMap, "eval_batch", "map.eval")
    tracer.wrap(tensor_core.PolynomialMap, "jacobian_batch", "map.jacobian")
    tracer.wrap(np.linalg, "solve", "linalg.solve", batch_rows)
    tracer.wrap(np.linalg, "det", "linalg.det")
    tracer.wrap(np.linalg, "lstsq", "linalg.lstsq")
    tracer.wrap(solver, "solve", "solver.solve")
    tracer.wrap(solver, "enumerate_solutions", "solver.enumerate")
    tracer.wrap(solver, "verify_solution", "solver.verify")
    tracer.wrap(solver, "certify_unsolvable", "solver.certify")
    tracer.wrap(degree, "tensor_degree", "degree.tensor_degree")
    tracer.wrap(degree, "winding_degree_2d", "degree.winding")
    # degree imported the zero-cone check by name: wrap both references
    tracer.wrap(degree, "check_sol_infty_zero", "degree.zero_cone")
    solver.check_sol_infty_zero = degree.check_sol_infty_zero


def layer_metrics(tracer: Tracer, passes: int) -> dict[str, float]:
    """Per-pass layer figures from the recorded spans and counts."""
    total, own = tracer.times()
    c = tracer.counts

    def layer_sum(table, layer):
        return sum(v for k, v in table.items() if k.split(".")[0] == layer)

    calls = c["kernel.apply.calls"] + c["kernel.jacobian.calls"]
    rows = c["kernel.apply.rows"] + c["kernel.jacobian.rows"]
    out = {
        "kernel.apply.calls": c["kernel.apply.calls"],
        "kernel.apply.rows": c["kernel.apply.rows"],
        "kernel.apply.s": total["kernel.apply"],
        "kernel.jacobian.calls": c["kernel.jacobian.calls"],
        "kernel.jacobian.rows": c["kernel.jacobian.rows"],
        "kernel.jacobian.s": total["kernel.jacobian"],
        "map.eval.calls": c["map.eval.calls"],
        "map.jacobian.calls": c["map.jacobian.calls"],
        "map.self_s": layer_sum(own, "map"),
        "linalg.solve.calls": c["linalg.solve.calls"],
        "linalg.solve.rows": c["linalg.solve.rows"],
        "linalg.det.calls": c["linalg.det.calls"],
        "linalg.lstsq.calls": c["linalg.lstsq.calls"],
        "linalg.s": layer_sum(total, "linalg"),
        "solver.self_s": layer_sum(own, "solver"),
        "solver.verify.calls": c["solver.verify.calls"],
        "solver.verify.s": total["solver.verify"],
        "solver.certify.s": total["solver.certify"],
        "degree.self_s": layer_sum(own, "degree"),
        "degree.zero_cone.s": total["degree.zero_cone"],
        "degree.winding.s": total["degree.winding"],
    }
    out = {k: v / passes for k, v in out.items()}
    out["kernel.rows_per_call"] = rows / calls if calls else 0.0
    return out
