"""What perfbench uses of the package still exists and runs.

perfbench/kernels.py imports the kernel and the backend module and checks
the kernel against its own einsum contraction; perfbench/tracing.py wraps
named attributes of pcpkit's modules and of np.linalg; perfbench/worker.py
records pcpkit.backend_name(). A rename in the package would break them
silently, since Tier-1 does not run the benchmark.
"""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pcpkit
from pcpkit import solver

ROOT = Path(__file__).resolve().parents[1]


def test_kernel_bench_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, "perfbench/kernels.py", "--repeats", "1", "--batch", "16"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert "active backend: numpy" in done.stdout


class _Recorder:
    """Stands in for tracing.Tracer: records each wrap without wrapping."""

    def __init__(self):
        self.wrapped = []

    def wrap(self, owner, attr, name, rows=None):
        assert callable(getattr(owner, attr, None)), f"{owner!r} has no {attr}"
        self.wrapped.append(name)


def test_tracing_targets_exist(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", ROOT / "perfbench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    # install() also rebinds solver.check_sol_infty_zero; undo that afterwards
    monkeypatch.setattr(solver, "check_sol_infty_zero", solver.check_sol_infty_zero)
    recorder = _Recorder()
    tracing.install(recorder)
    assert "kernel.apply" in recorder.wrapped and "kernel.jacobian" in recorder.wrapped
    assert pcpkit.backend_name() == "numpy"
