"""Freeze the reference digests of every CLI output any seed can generate.

    python3 bench/freeze.py

Writes `reference.json` next to this file: sha256 of the standard output of
each `ellsoule` CLI task in `workloads.reference_tasks()`.  Run it only on a
commit whose outputs are the reference: a later change must reproduce these
bytes exactly, so refreezing after a change hides any output it altered.
"""

from __future__ import annotations

import json
import subprocess

from passrun import ROOT, import_path


def main() -> None:
    import_path()
    import workloads

    digests = {}
    for task in workloads.reference_tasks():
        rc, text = task.call()
        if rc != 0:
            raise SystemExit(f"error: {task.key} exited with {rc}")
        digests[task.key] = workloads.sha(text)
    commit = subprocess.run(
        ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True, text=True
    ).stdout.strip()
    doc = {"frozen_at": commit or "unknown", "digests": dict(sorted(digests.items()))}
    workloads.REFERENCE.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"{len(digests)} digests written to {workloads.REFERENCE}")


if __name__ == "__main__":
    main()
