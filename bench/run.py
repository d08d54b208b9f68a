"""ellsoule benchmark: runs passes of a workload and reports its metrics.

    python3 bench/run.py --workload theta_dense|theta_sparse|rational|all
                         [--seed N] [--seconds S] [--trace 0|1]

Runs passes of one workload, each in a fresh interpreter (`passrun.py`),
one after another, until the next pass would end after --seconds.  Every
pass runs the same seeded task list, so the run reports medians over passes
and latencies pooled over them.

--trace 0 reports the end-to-end metrics.  --trace 1 alternates untraced
and traced passes and reports the per-layer metrics of the traced ones plus
the traced/untraced wall ratio.  The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  The lines
before it print every metric with its unit and sample count.

The benchmark imports ellsoule from `src/` of the checkout it sits in, and
exits with code 2 without a result when those sources are missing.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"  # spans of the last traced pass of each workload

WORKLOADS = ("theta_dense", "theta_sparse", "rational")
DEFAULT_SEED = 1
MIN_PASSES = 3  # per kind of pass in a run
MIN_TASKS = 100  # pooled latencies, so that 10 lie beyond p90
HARD_CAP_S = 150  # a run stops starting passes after this, minimums or not
PASS_TIMEOUT_S = 120

COUNT = "count"


def _layer_metric_names() -> dict[str, str]:
    """Per-layer metric -> unit.  `<layer>.<field>` sums over the layer's
    spans; `<layer>.<op>.<field>` reads one span name (see layer_values)."""
    names = {
        "cyclotomic.mul.calls": COUNT,
        "cyclotomic.mul.self_s": "s",
        "cyclotomic.mul.coord_products": COUNT,
        "cyclotomic.add.calls": COUNT,
        "cyclotomic.add.self_s": "s",
        "cyclotomic.inverse.calls": COUNT,
        "cyclotomic.inverse.self_s": "s",
        "cyclotomic.self_s": "s",
        "puiseux.mul.calls": COUNT,
        "puiseux.mul.self_s": "s",
        "puiseux.mul.term_pairs": COUNT,
        "puiseux.mul.useful_ratio": "ratio",
        "puiseux.invert.calls": COUNT,
        "puiseux.invert.self_s": "s",
        "puiseux.invert.window_sum": COUNT,
        "puiseux.pow.calls": COUNT,
        "puiseux.max_window": COUNT,
        "puiseux.self_s": "s",
        "units.theta_series.calls": COUNT,
        "units.theta_series.total_s": "s",
        "units.norm_check_theta.total_s": "s",
        "units.residue_elliptic_soule.total_s": "s",
        "units.epsilon_cusp_eval.total_s": "s",
        "units.self_s": "s",
        "formal.class_init.calls": COUNT,
        "formal.class_init.symbols_in": COUNT,
        "formal.class_init.self_s": "s",
        "formal.psi_residue.calls": COUNT,
        "formal.psi_residue.total_s": "s",
        "formal.dir_closed.total_s": "s",
        "formal.dir_via_me.total_s": "s",
        "formal.self_s": "s",
    }
    for layer in ("bernoulli", "measures", "tsym", "moments", "numutil"):
        names[f"{layer}.calls"] = COUNT
        names[f"{layer}.self_s"] = "s"
    names["serialize.self_s"] = "s"
    names["serialize.bytes_out"] = "bytes"
    names["cli.self_s"] = "s"
    for suite in ("dir", "moments", "tsym", "measures", "bernoulli"):
        names[f"verify.suite.{suite}.total_s"] = "s"
    names["trace.overhead_ratio"] = "ratio"
    return names


PER_LAYER = _layer_metric_names()


def layer_values(p: dict) -> dict[str, float]:
    """Per-layer metrics of one traced pass, except the overhead ratio."""
    summary, counters = p["summary"], p["counters"]

    def scale(field):  # times to reference-host seconds, as the tasks' are
        return p["speed"] if field.endswith("_s") else 1

    def span(name, field):
        return summary.get(name, {}).get(field, 0) * scale(field)

    def layer(prefix, field):
        return scale(field) * sum(
            r[field] for n, r in summary.items() if n.startswith(prefix + ".")
        )

    out: dict[str, float] = {}
    for metric in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if metric in counters:
            out[metric] = counters[metric]
        elif metric.startswith("verify.suite."):
            out[metric] = span("verify.suite_" + metric.split(".")[2], "total_s")
        elif head in LAYERS and field in ("calls", "self_s"):
            out[metric] = layer(head, field)
        elif field in ("calls", "self_s", "total_s"):
            out[metric] = span(head, field)
    pairs = counters["puiseux.mul.term_pairs"]
    out["puiseux.mul.useful_ratio"] = counters["puiseux.mul.useful_pairs"] / pairs if pairs else 0.0
    out["serialize.bytes_out"] = p["bytes_out"]
    return out


# -- passes ---------------------------------------------------------------


def run_pass(workload: str, seed: int, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced))]
    if traced:
        OUT.mkdir(exist_ok=True)
        cmd += ["--spans", str(OUT / f"spans-{workload}.tsv")]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PASS_TIMEOUT_S,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {PASS_TIMEOUT_S} s"}
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or ["no output"]
        return {"error": f"pass exited with {proc.returncode}: {tail[0]}"}
    p = json.loads(proc.stdout.strip().splitlines()[-1])
    p["pass_s"] = time.monotonic() - spawned
    p["setup_raw_s"] = p["first_task"] - spawned
    p["setup_s"] = p["setup_raw_s"] * p["setup_speed"]
    return p


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run passes until the next one would overrun `seconds`; aggregate."""
    started = time.monotonic()
    kinds = (False, True) if trace else (False,)
    passes: dict[bool, list[dict]] = {k: [] for k in kinds}
    errors: list[str] = []
    i = 0
    while True:
        traced = kinds[i % len(kinds)]
        i += 1
        p = run_pass(workload, seed, traced)
        if "error" in p:
            errors.append(p["error"])
            break
        passes[traced].append(p)
        elapsed = time.monotonic() - started
        done = [q for k in kinds for q in passes[k]]
        next_s = statistics.median(q["pass_s"] for q in passes[kinds[i % len(kinds)]] or done)
        enough = all(len(passes[k]) >= MIN_PASSES for k in kinds) and (
            trace or sum(len(q["task_s"]) for q in done) >= MIN_TASKS
        )
        if (enough and elapsed + next_s > seconds) or elapsed > HARD_CAP_S:
            break
    return aggregate(workload, passes, errors, trace)


def check_passes(done: list[dict], errors: list[str]) -> tuple[int, list[str]]:
    """Failed task count and messages: task failures, pass errors, and
    outputs that differ between passes (traced or not, the inputs are equal)."""
    failures = errors + [f for q in done for f in q["failures"]]
    failed = len(failures)
    for q in done[1:]:
        diff = sum(a != b for a, b in zip(done[0]["fingerprints"], q["fingerprints"]))
        if diff:
            failed += diff
            kind = "traced" if q["traced"] else "untraced"
            failures.append(f"{diff} outputs of a {kind} pass differ from the first pass")
    return failed, failures


def aggregate(workload: str, passes: dict, errors: list[str], trace: bool) -> dict:
    done = [q for k in passes for q in passes[k]]
    attempted = sum(q["attempted"] for q in done) or 1
    failed, failures = check_passes(done, errors)
    untraced = passes[False]
    metrics: dict[str, tuple[float, str, str]] = {}
    notes: list[str] = []
    if untraced and not trace:
        pool = [x for q in untraced for x in q["task_s"]]
        deciles = statistics.quantiles(pool, n=10) if len(pool) > 1 else pool * 9
        beyond = sum(1 for x in pool if x > deciles[8])

        def med(key):
            return statistics.median(q[key] for q in untraced)

        n = f"{len(untraced)} passes"
        metrics["wall_s"] = (med("wall_s"), "s", f"{n}; {med('wall_raw_s'):.4g} s as measured")
        metrics["task_p50_s"] = (deciles[4], "s", f"{len(pool)} tasks")
        metrics["task_p90_s"] = (deciles[8], "s", f"{len(pool)} tasks, {beyond} beyond p90")
        metrics["setup_s"] = (med("setup_s"), "s", f"{n}; {med('setup_raw_s'):.4g} s as measured")
        metrics["peak_rss_mb"] = (med("rss_mb"), "MB", n)
        notes.append(f"host speed {med('speed'):.3f} of the reference host (median over {n})")
    if trace and passes[True] and untraced:
        traced = passes[True]
        per_pass = [layer_values(q) for q in traced]
        n = f"{len(traced)} traced passes"
        for metric, unit in PER_LAYER.items():
            if metric == "trace.overhead_ratio":
                continue
            values = [v[metric] for v in per_pass]
            if unit == "s":
                metrics[metric] = (statistics.median(values), unit, n)
            else:
                if len(set(values)) != 1:
                    failed += 1
                    failures.append(f"{metric} differs between traced passes: {values}")
                metrics[metric] = (values[0], unit, n)
        ratio = statistics.median(q["wall_s"] for q in traced) / statistics.median(
            q["wall_s"] for q in untraced)
        metrics["trace.overhead_ratio"] = (ratio, "ratio", f"{len(traced)}+{len(untraced)} passes")
    return {
        "workload": workload,
        "passes": len(done),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "metrics": metrics,
        "notes": notes,
    }


def report(res: dict) -> None:
    print(f"== {res['workload']}: {res['passes']} passes, {res['attempted']} tasks")
    for name, (value, unit, n) in res["metrics"].items():
        print(f"  {name:40s} {value:14.6g} {unit:6s} ({n})")
    print(f"  {'fail_ratio':40s} {res['failed'] / res['attempted']:14.6g} {'':6s} "
          f"({res['failed']}/{res['attempted']} tasks)")
    for note in res["notes"]:
        print(f"  {note}")
    for msg in res["failures"][:10]:
        print(f"  FAIL {msg}")


def main() -> int:
    parser = argparse.ArgumentParser(description="ellsoule benchmark")
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "ellsoule" / "__init__.py").is_file():
        print(f"error: no ellsoule sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = [run_workload(w, args.seed, args.seconds, bool(args.trace)) for w in names]
    for res in results:
        report(res)
    if any(not res["metrics"] for res in results):
        print("error: a workload produced no metrics", file=sys.stderr)
        return 1
    prefix = len(results) > 1
    metrics = {
        (f"{res['workload']}/{name}" if prefix else name): {"value": value, "unit": unit}
        for res in results
        for name, (value, unit, _) in res["metrics"].items()
    }
    failed = sum(res["failed"] for res in results)
    attempted = sum(res["attempted"] for res in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
