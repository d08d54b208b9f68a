"""Self-test of the benchmark.

    python3 -m pytest bench/test_bench.py

Exact work counts repeat between traced passes of one seed, tracing leaves
every output unchanged, a wrong reference digest is reported as a failure,
and run.py refuses to run without the ellsoule sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import passrun  # noqa: E402
import run as bench_run  # noqa: E402

SEED = 5
# metrics that count work rather than time it, so must repeat exactly
EXACT = (".calls", "coord_products", "term_pairs", "symbols_in", "bytes_out",
         "window_sum", "max_window", "useful_ratio")


def one_pass(workload: str, traced: bool) -> dict:
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(SEED), "--trace", str(int(traced))]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=120)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", bench_run.WORKLOADS)
def test_traced_counts_repeat_and_outputs_match_untraced(workload):
    first, second = one_pass(workload, True), one_pass(workload, True)
    plain = one_pass(workload, False)
    assert first["failures"] == second["failures"] == plain["failures"] == []
    a, b = bench_run.layer_values(first), bench_run.layer_values(second)
    exact = sorted(k for k in a if k.endswith(EXACT))
    assert len(exact) > 20
    assert {k: a[k] for k in exact} == {k: b[k] for k in exact}
    assert first["fingerprints"] == second["fingerprints"] == plain["fingerprints"]


def test_corrupted_reference_digest_is_a_failure():
    passrun.import_path()
    import workloads

    reference = workloads.load_reference()
    key = next(t.key for t in workloads.build("theta_sparse", SEED) if t.key.startswith("qexp:"))
    reference[key] = "0" * 64
    result = passrun.run_pass("theta_sparse", SEED, False, reference=reference)
    assert result["failures"] == [f"{key}: output differs from the reference digest"]
    assert bench_run.check_passes([result], []) == (1, result["failures"])


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "rational", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
