"""Kernel micro-bench: single-point and batched apply/jacobian per backend.

Times the numpy kernels, and the compiled ones too when pcpkit._core_c
imports, over a grid of dimensions and orders; best of --repeats, in
microseconds per call. When both backends are present their outputs must
agree; the numpy apply must always match a plain einsum contraction.

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python3 perfbench/kernels.py
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from pcpkit import backend
from pcpkit._core_numpy import NumpyKernel

CASES = ((2, 3), (2, 4), (3, 4), (4, 3), (3, 6), (8, 3))


def _best_of(fn, repeats: int) -> float:
    best = np.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _contract(coeffs: np.ndarray, X: np.ndarray) -> np.ndarray:
    out = np.broadcast_to(coeffs, (X.shape[0],) + coeffs.shape)
    while out.ndim > 2:
        out = np.einsum("b...j,bj->b...", out, X)
    return out


def bench_case(n: int, order: int, batch: int, repeats: int, rng) -> list[str]:
    coeffs = rng.normal(size=(n,) * order)
    kernels = {"numpy": NumpyKernel(coeffs)}
    if backend._HAVE_COMPILED:
        kernels["compiled"] = backend.CompiledKernel(coeffs)
    x1 = rng.normal(size=(1, n))
    xb = rng.normal(size=(batch, n))
    ref = kernels["numpy"]
    scale = max(1.0, float(np.abs(ref.apply(xb)).max()))
    assert np.allclose(ref.apply(xb), _contract(coeffs, xb), rtol=0, atol=1e-10 * scale)

    rows = []
    for label, X in (("single", x1), (f"batch{batch}", xb)):
        # amortize timer resolution on the tiny single-point case
        loops = 200 if X.shape[0] == 1 else 1
        for op in ("apply", "jacobian"):
            want = getattr(ref, op)(X)
            times = []
            for kernel in kernels.values():
                fn = getattr(kernel, op)
                assert np.allclose(fn(X), want, atol=1e-10 * max(1.0, np.abs(want).max()))
                times.append(_best_of(lambda: [fn(X) for _ in range(loops)], repeats) / loops)
            cells = " ".join(f"{t * 1e6:>12.1f}" for t in times)
            speedup = f" {times[0] / times[1]:>8.2f}x" if len(times) == 2 else ""
            rows.append(f"{n:>3} {order:>5} {label:>9} {op:>8} {cells}{speedup}")
    return rows


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--batch", type=int, default=512)
    args = ap.parse_args()

    rng = np.random.default_rng(0)
    names = ["numpy_us"] + (["compiled_us", "speedup"] if backend._HAVE_COMPILED else [])
    print(f"active backend: {backend.backend_name()}")
    print(f"{'dim':>3} {'order':>5} {'shape':>9} {'op':>8} " + " ".join(f"{h:>12}" for h in names))
    for n, order in CASES:
        for row in bench_case(n, order, args.batch, args.repeats, rng):
            print(row)


if __name__ == "__main__":
    main()
