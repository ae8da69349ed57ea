"""graphflock benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --all [--seed N] [--seconds S]

Run from anywhere inside a checkout that has ``src/graphflock``.  One run:

1. starts the workload in a fresh interpreter (worker.py) with BLAS
   threads pinned, which runs whole rounds of the workload's CLI commands
   for S seconds, traced or not;
2. with --trace 0, starts SETUP_SAMPLES more fresh interpreters, half
   before the workload and half after it, that only import
   graphflock.cli, and takes the median start-to-ready time (``setup_s``);
3. checks every artifact against computations made apart from the program
   (checks.py).  An operation fails on a nonzero exit code or a failed
   check; ``correct`` is false when an artifact that was written is wrong.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json untraced, its per-layer metrics traced.  --all runs every
workload both ways and prints a table with the tracing overhead.
With --trace 1, rounds alternate between traced and untraced; the
per-layer metrics come from the traced ones.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: BLAS threads for every workload process: two, the program's default on
#: a two-core host, but never more than the host has cores.
BLAS_THREADS = min(2, os.cpu_count() or 1)

#: Fresh interpreters started per run to time the import of graphflock.cli,
#: about one second each.  Half run before the workload and half after it,
#: so that the median spans the run's whole window of host speed.
SETUP_SAMPLES = 11

#: A run must end within this many seconds, checks included.
RUN_DEADLINE_S = 170.0

sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def benchmark_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def measure_setup(env: dict, count: int) -> list[float]:
    """Start-to-ready seconds of fresh interpreters importing graphflock.cli."""
    code = "import time, graphflock.cli as c; print(repr(time.time())); print(c.__file__)"
    samples = []
    for _ in range(count):
        t0 = time.time()
        proc = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing graphflock.cli failed:\n{proc.stderr}")
        ready, origin = proc.stdout.split()
        _require_checkout(origin)
        samples.append(float(ready) - t0)
    return samples


def _require_checkout(origin: str) -> None:
    if not Path(origin).resolve().is_relative_to(SRC):
        raise RuntimeError(f"graphflock was imported from {origin}, not from {SRC}")


def run_worker(workload, seed, seconds, trace, env, out_dir, timeout) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace), "--out-dir", str(out_dir)]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    _require_checkout(result["graphflock"])
    return result


def check_rounds(workload, seed, result, out_dir):
    """(attempted, failed, correct, reasons) over every round's artifacts."""
    import checks

    table = checks.CHECKS[workload](seed)
    suffixes = {op.label: op.suffix for op in workloads.ops(workload, seed)}
    verdicts = {}
    attempted = failed = 0
    correct = True
    reasons = set()
    for index, record in enumerate(result["rounds"]):
        for label, code in zip(result["labels"], record["codes"]):
            attempted += 1
            if code != 0:
                failed += 1
                reasons.add(f"{label}: exit code {code}")
                continue
            path = out_dir / f"r{index}" / f"{label}.{suffixes[label]}"
            digest = hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None
            key = (label, digest)
            if key not in verdicts:
                try:
                    if digest is None:
                        raise checks.CheckFailed("exit code 0 but no artifact written")
                    table[label](path)
                    verdicts[key] = None
                except Exception as exc:  # any error while checking refutes the artifact
                    verdicts[key] = f"{label}: {type(exc).__name__}: {exc}"
            if verdicts[key] is not None:
                failed += 1
                correct = False
                reasons.add(verdicts[key])
    return attempted, failed, correct, sorted(reasons)


def _median(values):
    return statistics.median(values) if values else 0.0


def layer_metrics(rounds, names) -> dict:
    """Median over traced rounds of each per-layer metric (untouched layers
    read 0), and the tracing overhead: the difference between the median
    wall times of the traced and the interleaved untraced rounds."""
    traced = [r for r in rounds if r["traced"]]
    per_round = []
    for record in traced:
        values = dict(record["counts"])
        for layer, seconds in record["self_s"].items():
            values[layer + "_s"] = seconds
        values["trace.wall_s"] = record["wall_s"]
        values["trace.residual_s"] = record["wall_s"] - sum(record["self_s"].values())
        per_round.append(values)
    metrics = {name: _median([v.get(name, 0.0) for v in per_round]) for name in names}
    untraced_wall = _median([r["wall_s"] for r in rounds if not r["traced"]])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    return metrics


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, list[str]]:
    started = time.monotonic()
    spec = benchmark_spec()
    env = child_env()
    info = []
    setup = measure_setup(env, (SETUP_SAMPLES + 1) // 2) if not trace else []
    out_dir = ROOT / ".perfbench_out" / f"{workload}-{seed}-{trace}-{os.getpid()}"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    try:
        timeout = RUN_DEADLINE_S - (time.monotonic() - started) - 25.0
        result = run_worker(workload, seed, seconds, trace, env, out_dir, timeout)
        if not trace:
            setup += measure_setup(env, SETUP_SAMPLES // 2)
        attempted, failed, correct, reasons = check_rounds(workload, seed, result, out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    rounds = result["rounds"]
    if trace:
        names = [m["name"] for m in spec["per_layer"]]
        values = layer_metrics(rounds, names)
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        if result.get("missing_targets"):
            info.append("untraced (missing in the program): " + ", ".join(result["missing_targets"]))
    else:
        values = {
            "wall_s": _median([r["wall_s"] for r in rounds]),
            "setup_s": _median(setup),
            "peak_rss_mb": result["peak_rss_mb"],
        }
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        info.append("setup samples s: " + " ".join(f"{s:.4f}" for s in setup))
    info.append(
        f"workload={workload} seed={seed} trace={trace} rounds={len(rounds)} "
        f"blas_threads={result['blas_threads']} (OPENBLAS_NUM_THREADS={env['OPENBLAS_NUM_THREADS']})"
    )
    info.append("round wall s: " + " ".join(f"{r['wall_s']:.4f}" for r in rounds))
    for i, label in enumerate(result["labels"]):
        op_median = _median([r["op_s"][i] for r in rounds])
        info.append(f"  {label:24s} {op_median:8.4f} s  exit {rounds[0]['codes'][i]}")
    info.extend("failed: " + reason for reason in reasons)
    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    return report, info


def run_all(seed: int, seconds: float) -> int:
    spec = benchmark_spec()
    summary = {}
    for workload in workloads.WORKLOADS:
        plain, _ = run_once(workload, seed, seconds, 0)
        traced, _ = run_once(workload, seed, seconds, 1)
        summary[workload] = {"untraced": plain, "traced": traced}
        print(f"== {workload}: attempted {plain['attempted']}, failed {plain['failed']}, correct {plain['correct']}"
              f" (traced: attempted {traced['attempted']}, failed {traced['failed']}, correct {traced['correct']})")
        for name, m in list(plain["metrics"].items()) + list(traced["metrics"].items()):
            print(f"   {name:40s} {m['value']:14.6g} {m['unit']}")
        traced_wall = traced["metrics"]["trace.wall_s"]["value"]
        overhead = traced["metrics"]["trace.overhead_s"]["value"]
        residual = traced["metrics"]["trace.residual_s"]["value"]
        print(f"   tracing overhead {overhead * 100 / (traced_wall - overhead):+.2f}%,"
              f" residual {residual * 100 / traced_wall:.4f}% of the traced round")
        sys.stdout.flush()
    print(json.dumps({"seed": seed, "seconds": seconds, "run_seconds": spec["run_seconds"], "workloads": summary}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "graphflock" / "cli.py").is_file():
        print(f"error: no graphflock sources at {SRC / 'graphflock'}; run inside a graphflock checkout", file=sys.stderr)
        return 2
    if args.all == (args.workload is not None):
        parser.error("give exactly one of --workload and --all")
    seconds = args.seconds if args.seconds is not None else float(benchmark_spec()["run_seconds"])
    if args.all:
        return run_all(args.seed, seconds)
    try:
        report, info = run_once(args.workload, args.seed, seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in info:
        print("# " + line)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
