"""Check every benchmark workload's first pass against its pinned counts.

    python3 .github/pass0_gate.py

Runs ``perfbench/worker.py --seed 1 --passes 1`` once per workload and
exits 1 if an operation failed, or if a pass-0 count or the input hash
differs from the values below. A change that moves one of them changes
what the benchmark measures, and has to say so here.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

WORKER = Path(__file__).resolve().parent.parent / "perfbench" / "worker.py"

#: per workload: the input hash, then the pass-0 counts that must match
EXPECTED = {
    "tables": ("5b4818f81c7256e6", {"cells": 30, "cells_matched": 29, "distance_sum": 156}),
    "ged_search": ("26d56c3d0425d1ed",
                   {"pairs": 216, "distance_sum": 1523.0, "oracle_checked": 10}),
    "episodes": ("c20a72f6fdc1ec58",
                 {"episodes": 383, "ticks": 19170, "events": 9960, "skill_starts": 4312,
                  "useful_starts": 3925, "preempts": 269, "timeouts": 2,
                  "tree_machine_divergences": 20}),
    "authoring": ("f7e3d2fe01433cb9",
                  {"documents_sha256": "8f88245a0552b48a", "document_bytes": 302028}),
}


def check(workload: str) -> list:
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
               "--passes", "1"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        return [f"worker exited with {done.returncode}: {done.stderr.strip()}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    inputs, counts = EXPECTED[workload]
    problems = [f"failed operation: {problem}" for problem in result["problems"]]
    if result["failed"]:
        problems.append(f"{result['failed']} failed operations")
    if result["inputs_sha256"] != inputs:
        problems.append(f"inputs {result['inputs_sha256']}, expected {inputs}")
    for name, want in counts.items():
        got = result["counts"].get(name)
        if got != want:
            problems.append(f"{name} {got!r}, expected {want!r}")
    return problems


def main() -> int:
    failed = False
    for workload in EXPECTED:
        problems = check(workload)
        for problem in problems:
            print(f"{workload}: {problem}")
        if not problems:
            print(f"{workload}: ok")
        failed = failed or bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
