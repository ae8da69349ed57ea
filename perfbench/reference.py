"""Reproduce the single-call reference timings quoted in README.md.

    python3 perfbench/reference.py    # every row, about 2 minutes

Times library calls directly, at the sizes of the ROADMAP's measured
baseline, with BLAS pinned to the same thread count as the benchmark.
Cheap rows report the median of five calls; the two long rows run once.
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from run import BLAS_THREADS  # noqa: E402

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import warnings  # noqa: E402

import numpy as np  # noqa: E402

import graphflock as gf  # noqa: E402


def timed(fn, repeat: int) -> float:
    samples = []
    for _ in range(repeat):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)

    c2000 = gf.cycle(2000)
    lap = gf.laplacian(c2000)
    mu2000 = gf.empirical_measure(c2000)
    cycle_limit = gf.limit_measure("cycle_limit")
    er = gf.erdos_renyi(50, 0.3, seed=7)
    c200 = gf.cycle(200)
    prof = gf.equilibrium_profile(gf.build_kernel(c200, 1.0, 1.0, 1.0, steps=1000))
    cfg = gf.SimConfig(n_paths=10_000, dt=1.0 / 500, seed=202, record_times=(1.0,))
    rows = [
        ("laplacian_eigensystem(cycle(2000))", lambda: gf.laplacian_eigensystem(c2000), 5),
        ("eigvalsh(laplacian(cycle(2000)))", lambda: np.linalg.eigvalsh(lap), 5),
        ("solve_f(cycle_limit), 2000 RK4 steps", lambda: gf.solve_f(cycle_limit, 1.0, 1.0), 5),
        ("solve_f(empirical cycle(2000)), 2000 steps", lambda: gf.solve_f(mu2000, 1.0, 1.0), 5),
        ("build_kernel(complete(300))", lambda: gf.build_kernel(gf.complete(300), 1.0, 1.0, 1.0), 5),
        ("nash_audit(erdos_renyi(50,0.3,7), mf_profile)", lambda: gf.nash_audit(er, gf.mf_profile(er, 1.0, 1.0), 1.0, 1.0), 1),
        ("simulate(cycle(200)), 10^4 paths x 500 steps", lambda: gf.simulate(c200, prof, 1.0, cfg), 1),
    ]
    print(f"# BLAS threads {BLAS_THREADS}, numpy {np.__version__}")
    for label, fn, repeat in rows:
        print(f"{label:48s} {timed(fn, repeat):8.3f} s  (median of {repeat})", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
