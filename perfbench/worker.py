"""One cold pass of a workload, in a fresh interpreter.

run.py starts this script once per pass, so every lru_cache in eag starts
empty as it does in a new user session.  Set-up is the CPU time the process
has used when ``import eag.cli`` returns, scaled to the reference speed of
speed.py.  The first argument is run.py's ``time.perf_counter()`` just before
the start, for the wall-clock set-up time beside it.  With no further
arguments the script only measures set-up.  It prints one JSON object on
stdout.

    python3 perfbench/worker.py LAUNCHED [WORKLOAD SEED TRACE SPANS_PATH]
"""

import time
import sys

import eag.cli  # noqa: F401  (the set-up being measured)

READY = time.perf_counter()
READY_CPU = time.process_time()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

#: speed samples taken for the set-up figure
SETUP_SAMPLES = 3


def run_pass(workload: str, seed: int, trace: bool, root: Path, ref: dict):
    """Answer every call once, in order, then check the answers.

    Returns the pass result and the tracer (None when untraced).  An
    untraced pass samples the machine's speed between calls (speed.py); a
    traced one does not, so that its spans account for its wall time.
    """
    calls = workloads.build_calls(workload, seed, ref)
    answers: list = [None] * len(calls)
    errors: dict[int, str] = {}
    latencies: list[float] = []
    tracer = tracing.Tracer() if trace else None
    if tracer:
        tracer.install()
    clock, cpu = time.perf_counter, time.process_time
    samples = [] if tracer else [speed.sample()]
    cpu_s = sampling_s = 0.0
    try:
        start = last_sample = clock()
        for i, call in enumerate(calls):
            if tracer:
                tracer.call_id = i
            elif clock() - last_sample >= speed.EVERY_S:
                t = clock()
                samples.append(speed.sample())
                last_sample = clock()
                sampling_s += last_sample - t
            t0, c0 = clock(), cpu()
            try:
                answers[i] = workloads.execute(call)
            except Exception as exc:  # every call is attempted; failures are counted
                errors[i] = f"{call.op}{call.args}: {type(exc).__name__}: {exc}"
            cpu_s += cpu() - c0
            latencies.append(clock() - t0)
        wall_s = clock() - start - sampling_s
    finally:
        if tracer:
            tracer.restore()
    if not tracer:
        samples.append(speed.sample())
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    failed = workloads.check_answers(calls, answers, errors, root)
    result = {
        "wall_s": wall_s,
        "cpu_s": cpu_s,
        "latencies_s": latencies,
        "peak_rss_mb": peak_rss_mb,
        "attempted": len(calls),
        "failed": len(failed),
        "failures": [failed[i] for i in sorted(failed)][:20],
    }
    if tracer:
        result["layers"] = tracer.metrics(wall_s)
        result["spans"] = len(tracer.spans)
    else:
        result["speed"] = speed.factor(samples)
        result["ref_cpu_s"] = cpu_s * result["speed"]
    return result, tracer


def main(argv: list[str]) -> int:
    setup_speed = speed.factor([speed.sample() for _ in range(SETUP_SAMPLES)])
    result: dict = {"setup_s": READY_CPU * setup_speed, "setup_cpu_s": READY_CPU,
                    "setup_wall_s": READY - float(argv[0])}
    if len(argv) > 1:
        workload, seed, trace, spans_path = argv[1], int(argv[2]), argv[3] == "1", argv[4]
        root = Path.cwd()
        passed, tracer = run_pass(workload, seed, trace, root, workloads.load_reference())
        result.update(passed)
        if tracer:
            Path(spans_path).write_text(json.dumps(tracer.span_table()), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
