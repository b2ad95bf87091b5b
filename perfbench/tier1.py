#!/usr/bin/env python3
"""One-shot Tier-1 wall time, recorded beside the workloads.

    python3 perfbench/tier1.py

Runs the repository's Tier-1 command (the one in ROADMAP.md) once from the
checkout root with the same single BLAS thread as the workloads, and prints
one JSON object with the wall time, the exit code, the pytest summary line
and the environment.  The record is also written to
``.perfbench/results/tier1.json``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import run  # sets the BLAS thread variables before anything loads NumPy


def main() -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(run.SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"],
        cwd=run.ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=1800,
    )
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    record = {
        "tier1_wall_s": wall,
        "exit_code": proc.returncode,
        "summary": lines[-1] if lines else "",
        "environment": run._environment(),
    }
    results = run.OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    with open(results / "tier1.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record))
    return 0 if proc.returncode == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
