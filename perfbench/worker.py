"""Run one workload's command list in this fresh interpreter.

Started by run.py with the BLAS thread variables already set and
PYTHONPATH pointing at the checkout's ``src``.  Imports graphflock.cli,
then runs whole rounds of the workload's commands in-process through
``graphflock.cli.main(argv)`` until the requested seconds have passed,
each round writing its artifacts to its own directory.  With --trace 1
the program's public functions are wrapped (see spans.py) and rounds
alternate between traced and untraced, so that the difference of their
wall times is the tracing overhead, free of the host's slow drift.

Prints one JSON object: per-round wall times and exit codes, peak RSS,
the BLAS thread count in effect and, for traced rounds, layer totals.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import resource
import sys
import time
from pathlib import Path

import workloads


def blas_threads() -> str:
    """Thread count reported by the OpenBLAS library numpy loaded."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line})
    except OSError:
        return "unknown"
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return "unknown"


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    VmHWM, not ru_maxrss: Linux carries into ru_maxrss the high-water mark
    of the address space replaced by exec, which under vfork is the parent's.
    """
    try:
        with open("/proc/self/status", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--out-dir", required=True)
    args = parser.parse_args()

    import graphflock.cli as cli

    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    ops = workloads.ops(args.workload, args.seed)
    out_dir = Path(args.out_dir)
    rounds = []
    start = time.perf_counter()
    while len(rounds) < (2 if tracer else 1) or time.perf_counter() - start < args.seconds:
        round_dir = out_dir / f"r{len(rounds)}"
        round_dir.mkdir(parents=True)
        outs = [str(round_dir / f"{op.label}.{op.suffix}") for op in ops]
        traced = tracer is not None and len(rounds) % 2 == 0
        if tracer:
            tracer.enable(traced)
        before = tracer.snapshot() if traced else None
        codes, seconds = [], []
        t0 = time.perf_counter()
        for op, out in zip(ops, outs):
            t_op = time.perf_counter()
            try:
                code = cli.main([*op.argv, "--out", out])
            except Exception as exc:  # a crash fails the operation, not the run
                code = f"{type(exc).__name__}: {exc}"
            seconds.append(time.perf_counter() - t_op)
            codes.append(code)
        wall = time.perf_counter() - t0
        record = {"wall_s": wall, "codes": codes, "op_s": seconds, "traced": traced}
        if traced:
            after = tracer.snapshot()
            record["self_s"] = {k: v - before["self_s"].get(k, 0.0) for k, v in after["self_s"].items()}
            record["counts"] = {k: v - before["counts"].get(k, 0.0) for k, v in after["counts"].items()}
            record["counts"]["cli.output_kb"] = sum(os.path.getsize(o) for o in outs if os.path.exists(o)) / 1024.0
        rounds.append(record)

    result = {
        "rounds": rounds,
        "labels": [op.label for op in ops],
        "peak_rss_mb": peak_rss_mb(),
        "blas_threads": blas_threads(),
        "graphflock": cli.__file__,
    }
    if tracer:
        result["missing_targets"] = tracer.missing
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
