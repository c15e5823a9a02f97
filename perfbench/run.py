"""Benchmark of eag: cold-process workloads with end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pure-box --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each pass answers the workload's whole call list once, in a fresh worker
process (worker.py) so that every lru_cache starts cold.  Passes repeat
until ``--seconds`` of measuring have passed; there is always at least one.
Untraced runs first start workers that only import ``eag.cli``, for more
set-up samples.  With ``--trace 1`` one more pass runs with the tracer
installed and gives the per-layer metrics; ``trace.overhead_s`` is its wall
time minus the median untraced one.

The bounded timings are CPU time of the worker process, scaled to a
reference machine speed (speed.py): ``setup_s`` up to the return of
``import eag.cli``, and ``ref_cpu_s`` for one pass.  On a shared virtual
machine the wall clock also counts the time the host runs other guests
(steal time), and the host's speed drifts by a third within minutes; CPU
time leaves out the first, the scaling the second.  The raw CPU and
wall-clock figures and the measured ``speed`` are printed beside them, not
bounded.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The lines before it print every metric by name and unit, together with
the per-call latencies ``call_p50_ms`` and ``call_tail_ms`` (with the
percentile and call count behind the tail), ``failed_ratio`` (failed /
attempted) and the environment.  Full results and the traced spans go to
``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("pure-box", "kernel-oracles", "desk-session")
OUT_DIR = Path(".perfbench_out")

#: worker starts that only measure set-up, beside one per pass (untraced runs)
SETUP_STARTS = 10
#: a run must end within this many seconds
RUN_BUDGET_S = 170.0
#: a traced pass takes at most this many times an untraced one
TRACE_SLOWDOWN = 2.0
#: one client, no hidden parallelism: BLAS pools get one thread (at most nproc)
BLAS_THREADS = 1

#: the end-to-end metrics, each with a bound in BENCHMARK.json
END_TO_END_UNITS = {"setup_s": "s", "ref_cpu_s": "s", "peak_rss_mb": "MB"}
#: printed beside them but not bounded: on a small shared machine their
#: run-to-run spread is wider than the largest bound a metric may have
REPORTED_UNITS = {"cpu_s": "s", "wall_s": "s", "setup_cpu_s": "s", "setup_wall_s": "s",
                  "speed": "ratio", "call_p50_ms": "ms", "call_tail_ms": "ms",
                  "failed_ratio": "ratio"}


class BenchError(Exception):
    """The benchmark itself could not run (not a wrong answer)."""


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def tail_percentile(n: int) -> int:
    """Highest whole percentile with at least ten of ``n`` calls beyond it."""
    return max(0, math.floor(100 * (n - 10) / n))


def nearest_rank(sorted_values: list[float], q: int) -> float:
    k = max(1, math.ceil(q / 100 * len(sorted_values)))
    return sorted_values[k - 1]


def environment() -> dict:
    nproc = len(os.sched_getaffinity(0))
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": importlib.metadata.version("numpy"),
            "scipy": importlib.metadata.version("scipy"),
            "blas_threads": BLAS_THREADS}


def worker_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # fixed hashing, so that set iteration order repeats from run to run
    env["PYTHONHASHSEED"] = "0"
    return env


class Runner:
    """Starts workers for one workload run, within the run's time budget."""

    def __init__(self, root: Path, deadline: float):
        self.root = root
        self.env = worker_env(root)
        self.deadline = deadline

    def start(self, *args: str) -> dict:
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise BenchError("run budget exhausted")
        launched = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(WORKER), repr(launched), *args],
                cwd=self.root, env=self.env, capture_output=True, text=True,
                timeout=remaining)
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"worker {args} exceeded the run budget") from exc
        if proc.returncode != 0 or not proc.stdout.strip():
            raise BenchError(f"worker {args} exited {proc.returncode}: "
                             f"{proc.stderr.strip()[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload: str, seed: int, seconds: int, trace: bool, root: Path) -> dict:
    """Measure one workload; returns the summary printed and saved."""
    t_begin = time.perf_counter()
    runner = Runner(root, t_begin + RUN_BUDGET_S)
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.json"
    setups = [] if trace else [runner.start() for _ in range(SETUP_STARTS)]
    passes = []
    t_measure = t_prev = time.perf_counter()
    while True:
        passes.append(runner.start(workload, str(seed), "0", str(spans_path)))
        now = time.perf_counter()
        needed = (now - t_prev) * (1 + (TRACE_SLOWDOWN if trace else 0))
        t_prev = now
        if now - t_measure >= seconds or now + needed > runner.deadline:
            break
    traced = runner.start(workload, str(seed), "1", str(spans_path)) if trace else None
    setups += passes

    n_calls = passes[0]["attempted"]
    q = tail_percentile(n_calls)
    p50s, tails = [], []
    for p in passes:
        lat = sorted(p["latencies_s"])
        p50s.append(statistics.median(lat) * 1e3)
        tails.append(nearest_rank(lat, q) * 1e3)
    wall_s = statistics.median(p["wall_s"] for p in passes)
    all_passes = passes + ([traced] if traced else [])
    attempted = sum(p["attempted"] for p in all_passes)
    failed = sum(p["failed"] for p in all_passes)
    summary = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "env": environment(), "passes": len(passes), "calls_per_pass": n_calls,
        "tail_percentile": q, "setup_samples": len(setups),
        "attempted": attempted, "failed": failed,
        "failures": [f for p in all_passes for f in p["failures"]][:20],
        "end_to_end": {
            "setup_s": statistics.median(s["setup_s"] for s in setups),
            "ref_cpu_s": statistics.median(p["ref_cpu_s"] for p in passes),
            "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
        },
        "reported": {
            "cpu_s": statistics.median(p["cpu_s"] for p in passes),
            "wall_s": wall_s,
            "setup_cpu_s": statistics.median(s["setup_cpu_s"] for s in setups),
            "setup_wall_s": statistics.median(s["setup_wall_s"] for s in setups),
            "speed": statistics.median(p["speed"] for p in passes),
            "call_p50_ms": statistics.median(p50s),
            "call_tail_ms": statistics.median(tails),
            "failed_ratio": failed / attempted,
        },
        "per_pass": [{"setup_s": p["setup_s"], "ref_cpu_s": p["ref_cpu_s"],
                      "cpu_s": p["cpu_s"], "wall_s": p["wall_s"], "speed": p["speed"],
                      "call_p50_ms": m,
                      "call_tail_ms": t, "peak_rss_mb": p["peak_rss_mb"]}
                     for p, m, t in zip(passes, p50s, tails)],
        "run_s": time.perf_counter() - t_begin,
    }
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_s"] = traced["wall_s"] - wall_s
        summary["per_layer"] = layers
        summary["spans"] = traced["spans"]
        summary["spans_file"] = str(spans_path)
    (OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(summary, indent=1), encoding="utf-8")
    return summary


def report(summary: dict) -> dict:
    """Print the human-readable lines; return the metrics for the JSON line."""
    env = summary["env"]
    print(f"== {summary['workload']} seed {summary['seed']}: {summary['passes']} cold "
          f"pass(es) of {summary['calls_per_pass']} calls, one client in a closed loop")
    print(f"env: nproc={env['nproc']} python={env['python']} numpy={env['numpy']} "
          f"scipy={env['scipy']} blas_threads={env['blas_threads']}")
    for reason in summary["failures"]:
        print(f"  failed: {reason}")
    notes = {
        "setup_s": f"CPU time at reference speed, median of {summary['setup_samples']} "
                   "worker starts",
        "ref_cpu_s": "CPU time of one pass at reference speed, median over passes",
        "cpu_s": "not bounded",
        "setup_cpu_s": "not bounded",
        "speed": "measured speed / reference speed; not bounded",
        "call_tail_ms": f"p{summary['tail_percentile']} of {summary['calls_per_pass']} "
                        "calls per pass; not bounded",
        "wall_s": "not bounded",
        "setup_wall_s": "not bounded",
        "call_p50_ms": "not bounded",
        "failed_ratio": f"{summary['failed']} of {summary['attempted']} calls",
    }
    for name, value in summary["reported"].items():
        print(f"{name:45s} {value:14.6f} {REPORTED_UNITS[name]}  ({notes[name]})")
    metrics = {}
    if "per_layer" in summary:
        layers = summary["per_layer"]
        for name in sorted(layers):
            metrics[name] = {"value": layers[name], "unit": layer_unit(name)}
        accounted = sum(v for k, v in layers.items() if k.endswith(".self_s"))
        print(f"trace: {summary['spans']} spans in {summary['spans_file']}; layer self "
              f"times + driver = {accounted:.4f} s of traced wall_s "
              f"{layers['trace.wall_s']:.4f} s")
    else:
        for name, value in summary["end_to_end"].items():
            metrics[name] = {"value": value, "unit": END_TO_END_UNITS[name]}
    for name, m in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name:45s} {m['value']:14.6f} {m['unit']}{note}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    root = Path.cwd()
    if not (root / "src" / "eag" / "cli.py").is_file():
        print(f"error: {root} holds no eag source tree (src/eag); run from the "
              "repository root", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    combined, correct, attempted, failed = {}, True, 0, 0
    try:
        for workload in names:
            summary = run_workload(workload, args.seed, args.seconds, bool(args.trace), root)
            metrics = report(summary)
            correct &= summary["failed"] == 0
            attempted += summary["attempted"]
            failed += summary["failed"]
            if args.workload == "all":
                metrics = {f"{workload}/{k}": v for k, v in metrics.items()}
            combined.update(metrics)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
