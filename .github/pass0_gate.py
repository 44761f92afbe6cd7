"""Check every benchmark workload's first pass against its pinned counts.

    python3 .github/pass0_gate.py

Runs ``perfbench/worker.py --seed 1 --passes 1`` once per workload, and
once more with ``--trace 1`` for each workload in ``EXPECTED_CALLS``, and
exits 1 if an operation failed, or if a pass-0 count, a traced call count
or the input hash differs from the values below. A change that moves one
of them changes what the benchmark measures, and has to say so here.
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

#: per workload: the traced pass-0 call counts that must match, so a change
#: to the exact search's work fails here even where its results do not move
EXPECTED_CALLS = {
    "ged_search": {"metrics.GedCostModel.edge_group_cost": 1381, "metrics.ged_exact": 216},
    "tables": {"metrics.GedCostModel.edge_group_cost": 113, "metrics.ged_exact": 18},
}


def run_worker(workload: str, *extra: str) -> tuple:
    """(the worker's JSON result, the problems it reported) for pass 0."""
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", "1",
               "--passes", "1", *extra]
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    if done.returncode != 0:
        return None, [f"worker exited with {done.returncode}: {done.stderr.strip()}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = [f"failed operation: {problem}" for problem in result["problems"]]
    if result["failed"]:
        problems.append(f"{result['failed']} failed operations")
    return result, problems


def mismatches(got: dict, want: dict, where: str = "") -> list:
    return [f"{where}{name} {got.get(name)!r}, expected {value!r}"
            for name, value in want.items() if got.get(name) != value]


def check(workload: str) -> list:
    result, problems = run_worker(workload)
    if result is None:
        return problems
    inputs, counts = EXPECTED[workload]
    if result["inputs_sha256"] != inputs:
        problems.append(f"inputs {result['inputs_sha256']}, expected {inputs}")
    problems += mismatches(result["counts"], counts)
    if workload in EXPECTED_CALLS:
        result, traced = run_worker(workload, "--trace", "1")
        problems += [f"traced: {problem}" for problem in traced]
        if result is not None:
            problems += mismatches(result["calls"], EXPECTED_CALLS[workload], "traced calls ")
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
