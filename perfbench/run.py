"""policylab benchmark: four workloads, end-to-end metrics, a traced run.

    python3 perfbench/run.py --workload ged_search --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all        # every workload, one after another
    python3 perfbench/run.py --workload tables --trace 1

Each workload runs in its own fresh single-threaded interpreter
(``worker.py``), one at a time: a closed loop with one caller. Set-up
time is the median of several fresh interpreters timed from outside up
to the first operation being ready. Every output is checked; a failed
check makes the run incorrect and the exit code 1.

``--trace 1`` is the separate traced run: every workload is run for one
pass untraced and one pass traced, and the per-layer self times and call
counts are summed over the four; the traced minus untraced time is the
tracing overhead per workload. The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("tables", "ged_search", "episodes", "authoring")
SETUP_PROBES = 8
#: a worker that has not finished by then is killed; a run must end in 180 s
WORKER_TIMEOUT_S = 170

#: what the generic end-to-end metrics are called on each workload
NAMES = {
    "tables": ("tables_per_s", "report_p50_ms", "report_p95_ms"),
    "ged_search": ("ged_pairs_per_s", "ged_pair_p50_ms", "ged_pair_p95_ms"),
    "episodes": ("sim_ticks_per_s", "episode_p50_ms", "episode_p95_ms"),
    "authoring": ("policies_per_s", "authoring_p50_ms", "authoring_p95_ms"),
}


def spawn(workload: str, seed: int, *options: str) -> str:
    command = [sys.executable, str(WORKER), "--workload", workload, "--seed", str(seed),
               *options]
    done = subprocess.run(command, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"error: the {workload} worker exited with {done.returncode}")
    return done.stdout


def worker(workload: str, seed: int, *options: str) -> dict:
    return json.loads(spawn(workload, seed, *options).strip().splitlines()[-1])


def setup_seconds(workload: str, seed: int, probes: int) -> list:
    """Fresh interpreter to first operation ready, timed from outside."""
    times = []
    for _ in range(probes):
        started = time.perf_counter()
        spawn(workload, seed, "--setup-only")
        times.append(time.perf_counter() - started)
    return times


def measure(workload: str, seed: int, seconds: float, end_to_end: list) -> dict:
    # probes on both sides of the measured run sample two moments of a busy host
    setup = setup_seconds(workload, seed, SETUP_PROBES // 2)
    result = worker(workload, seed, "--seconds", str(seconds))
    setup += setup_seconds(workload, seed, SETUP_PROBES - SETUP_PROBES // 2)
    timed = result["ops"] > 0
    values = {
        "setup_s": statistics.median(setup),
        "peak_rss_mb": result["peak_rss_mb"],
        "work_per_s": result["work"] / result["op_seconds"] if timed else 0.0,
        "op_p50_ms": result["op_p50_s"] * 1e3 if timed else 0.0,
        "op_p95_ms": result["op_p95_s"] * 1e3 if timed else 0.0,
    }
    units = {metric["name"]: metric["unit"] for metric in end_to_end}
    aliases = dict(zip(("work_per_s", "op_p50_ms", "op_p95_ms"), NAMES[workload]))
    rows = [(aliases.get(name, name), value, units[name],
             f"  (as {name})" if name in aliases else "") for name, value in values.items()]
    rows.append(("failed_ratio", result["failed"] / result["attempted"], "ratio", ""))
    rows += [(name, value, "s", "") for name, value in result["parts"].items()]
    print(f"workload {workload}  seed {seed}  passes {result['passes']}  "
          f"operations {result['attempted']}  timed {result['op_seconds']:.3f} s")
    for name, value, unit, alias in rows:
        print(f"  {name:<22} {value:>14.6g} {unit}{alias}")
    print(f"  setup probes           {' '.join(f'{value:.4f}' for value in setup)} s")
    print(f"  operations timed       {result['ops']}")
    print(f"  counts (pass 0)        {json.dumps(result['counts'], sort_keys=True)}")
    print(f"  inputs (pass 0)        sha256 {result['inputs_sha256']}")
    for problem in result["problems"]:
        print(f"  FAILED: {problem}")
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }


def traced(seed: int, spans_dir: Path, per_layer: list) -> dict:
    """One pass of every workload, untraced then traced."""
    spans_dir.mkdir(parents=True, exist_ok=True)
    self_s, calls, counts, overhead = Counter(), Counter(), {}, {}
    attempted = failed = 0
    for workload in WORKLOADS:
        plain = worker(workload, seed, "--passes", "1")
        spans = spans_dir / f"{workload}-seed{seed}.jsonl"
        run = worker(workload, seed, "--passes", "1", "--trace", "1", "--spans", str(spans))
        overhead[workload] = run["op_seconds"] - plain["op_seconds"]
        attempted += plain["attempted"] + run["attempted"]
        failed += plain["failed"] + run["failed"]
        self_s.update(run["self_s"])
        calls.update(run["calls"])
        counts[workload] = run["counts"]
        print(f"workload {workload}  seed {seed}  operations {run['attempted']}  "
              f"untraced {plain['op_seconds']:.4f} s  traced {run['op_seconds']:.4f} s  "
              f"overhead {overhead[workload]:+.4f} s  spans {run['spans']} -> {spans}")
        print(f"  counts (pass 0)        {json.dumps(run['counts'], sort_keys=True)}")
        print(f"  from-imports rebound   {', '.join(run['rebound'])}")
        for problem in plain["problems"] + run["problems"]:
            print(f"  FAILED: {problem}")
        top = sorted(run["self_s"].items(), key=lambda pair: -pair[1])[:8]
        for name, value in top:
            print(f"  {name:<44} self {value:10.6f} s  calls {run['calls'].get(name, 0)}")

    episodes = counts["episodes"]
    values = {f"{name}.self_s": value for name, value in self_s.items()}
    values.update({f"{name}.calls": value for name, value in calls.items() if "@" not in name})
    edge = "metrics.GedCostModel.edge_group_cost"
    for kind in ("bt", "fsm", "hfsm", "random"):
        values[f"{edge}.{kind}.calls"] = calls[f"{edge}@metrics.ged_exact.{kind}"]
    values["metrics.ged_exact.complete_ratio"] = (
        calls["metrics.ged_exact.complete"] / calls["metrics.ged_exact"])
    values["experiments.builders.self_s"] = sum(
        value for name, value in self_s.items() if name.startswith("experiments."))
    for name in ("ticks", "events", "skill_starts", "preempts", "timeouts"):
        values[f"simworld.{name}"] = episodes[name]
    values["simworld.useful_start_ratio"] = episodes["useful_starts"] / episodes["skill_starts"]
    for workload, value in overhead.items():
        values[f"trace.{workload}.overhead_s"] = value
    print("per-layer metrics, summed over one traced pass of every workload")
    layer = {}
    for metric in per_layer:
        name, unit = metric["name"], metric["unit"]
        layer[name] = {"value": values[name], "unit": unit}
        print(f"  {name:<50} {values[name]:>14.6g} {unit}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": layer}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long each workload measures (not used by --trace 1)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "policylab" / "__init__.py").is_file():
        print(f"error: no policylab sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.trace:
        results = [traced(args.seed, HERE / "out", spec["per_layer"])]
    else:
        selected = WORKLOADS if args.workload == "all" else (args.workload,)
        results = [measure(workload, args.seed, args.seconds, spec["end_to_end"])
                   for workload in selected]
    for result in results:
        print(json.dumps(result))
    return 0 if all(result["correct"] for result in results) else 1


if __name__ == "__main__":
    sys.exit(main())
