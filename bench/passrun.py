"""One benchmark pass in a fresh interpreter.

    python3 bench/passrun.py --workload NAME --seed N --trace 0|1 [--spans FILE]

A pass runs its workload's task list once, back to back, with the
interpreter's caches cold, as every `ellsoule` CLI invocation has them.
Outputs are checked only after the last task, so checking costs no task
time.

Host speed on a shared machine drifts by 20-40% within minutes, and a slow
phase slows every computation alike.  So the pass times a fixed calibration
loop before the first task and again after every CAL_EVERY_S of task time,
and rescales each task's latency by the loop times bracketing it to
reference-host seconds: measured seconds * REF_CAL_S / calibration seconds.

The pass prints one JSON line: the time its first task started
(`time.monotonic`, comparable with the parent's clock), per-task latencies
as measured and rescaled, the pass's speed factor, peak RSS, failures, a
fingerprint of every output, and with --trace 1 the per-layer span summary
and work counts.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

REF_CAL_S = 0.02  # about calibrate() on the host that measured the baseline
CAL_EVERY_S = 0.1


def calibrate() -> float:
    """Seconds for a fixed piece of small-Fraction arithmetic, the kind the
    library's inner loops do; timed next to the tasks, it tracks host speed."""
    third = Fraction(1, 3)
    start = time.perf_counter()
    for i in range(4500):
        Fraction(i % 17, i % 13 + 1) * third + Fraction(i % 11, 5)
    return time.perf_counter() - start


def import_path() -> None:
    """Put the checkout's own sources first, whatever is installed."""
    if not (SRC / "ellsoule" / "__init__.py").is_file():
        raise SystemExit(f"error: no ellsoule sources under {SRC}")
    sys.path.insert(0, str(SRC))


def run_pass(workload: str, seed: int, traced: bool, reference=None, spans_path=None) -> dict:
    import workloads

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    if reference is None:
        reference = workloads.load_reference()
    tasks = workloads.build(workload, seed)

    outputs: dict[str, object] = {}
    errors: dict[str, str] = {}
    latencies: list[float] = []
    speeds: list[float] = []  # REF_CAL_S / calibration, around each task
    clock = time.perf_counter
    first = time.monotonic()
    calibrate()  # warm-up
    cal = calibrate()
    setup_speed = REF_CAL_S / cal
    segment: list[float] = []  # latencies since the last calibration
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.start_task(i)
        t0 = clock()
        try:
            outputs[task.key] = task.call()
        except Exception as e:  # a failing task is counted, not fatal
            errors[task.key] = f"{type(e).__name__}: {e}"
        segment.append(clock() - t0)
        if tracer is not None:
            tracer.stop_task()
        if sum(segment) >= CAL_EVERY_S or i == len(tasks) - 1:
            before, cal = cal, calibrate()
            speeds += [2 * REF_CAL_S / (before + cal)] * len(segment)
            latencies += segment
            segment = []
    task_s = [t * v for t, v in zip(latencies, speeds)]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures: list[str] = []
    fingerprints: list[str] = []
    bytes_out = 0
    for task in tasks:
        if task.key in errors:
            failures.append(f"{task.key}: {errors[task.key]}")
            fingerprints.append("error")
            continue
        out = outputs[task.key]
        msg = task.check(out, outputs, reference)
        if msg is not None:
            failures.append(f"{task.key}: {msg}")
        fingerprints.append(task.fingerprint(out)[:16])
        if isinstance(out, tuple):  # CLI (exit code, stdout)
            bytes_out += len(out[1].encode())

    result = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "first_task": first,
        "latencies": latencies,
        "task_s": task_s,
        "wall_raw_s": sum(latencies),
        "wall_s": sum(task_s),
        "speed": sum(task_s) / sum(latencies),
        "setup_speed": setup_speed,
        "rss_mb": rss_mb,
        "attempted": len(tasks),
        "failures": failures,
        "fingerprints": fingerprints,
        "bytes_out": bytes_out,
    }
    if tracer is not None:
        summary = tracer.summary()
        for prefix in workloads.UNTOUCHED[workload]:
            hit = sorted(n for n in summary if n.startswith(prefix))
            if hit:
                failures.append(f"calls into {prefix[:-1]}, which {workload} bypasses: {hit}")
        want = sum(t.theta_calls for t in tasks)
        got = summary.get("units.theta_series", {}).get("calls", 0)
        if got != want:
            failures.append(f"units.theta_series called {got} times, expected {want}")
        result["summary"] = summary
        result["counters"] = tracer.counters
        if spans_path:
            tracer.write(spans_path)
    return result


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", metavar="FILE", help="write the traced spans here")
    args = parser.parse_args()
    import_path()
    result = run_pass(args.workload, args.seed, bool(args.trace), spans_path=args.spans)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
