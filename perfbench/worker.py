"""One workload in one fresh, single-threaded interpreter.

Run by ``run.py``; prints a single JSON line with the raw results.
``--setup-only`` stops once the first operation is ready, which is what
the set-up probes time from outside.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

STARTED = time.perf_counter()
HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402  (imports policylab from src)


def peak_rss_mb() -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return peak / 2**20 if sys.platform == "darwin" else peak / 2**10


def percentile_95(values: list) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=20)[18]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--passes", type=int, default=0, help="stop after this many passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the trace spans here as JSON lines")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        tracer.enabled = True
    workload = workloads.WORKLOADS[args.workload](args.seed)
    inputs = workload.pass_inputs(0)
    ready = time.perf_counter()
    if tracer:
        tracer.enabled = False
    if args.setup_only:
        return 0
    fingerprint = hashlib.sha256()
    for item in inputs:
        fingerprint.update(workload.fingerprint(item).encode())

    latencies, problems = [], []
    attempted = failed = 0
    work = 0.0
    index = 0
    while True:
        for item in inputs:
            attempted += 1
            if tracer:
                tracer.operation = attempted
                tracer.enabled = True
            begin = time.perf_counter()
            try:
                result = workload.run(item)
            except Exception as exc:  # a raising operation is a failed one
                failed += 1
                problems.append(f"pass {index}: {type(exc).__name__}: {exc}")
                continue
            finally:
                elapsed = time.perf_counter() - begin
                if tracer:
                    tracer.enabled = False
            latencies.append(elapsed)
            work += workload.work(item, result)
            try:
                issues = workload.check(item, result, index == 0)
            except Exception as exc:  # so does one whose outputs break a check
                issues = [f"pass {index}: check raised {type(exc).__name__}: {exc}"]
            if issues:
                failed += 1
                problems.extend(issues)
        index += 1
        if index == 1:  # a fixed amount of work, so a faster program is not charged more
            peak_after_first_pass = peak_rss_mb()
        # another pass only if one of average length still ends inside the window
        spent = time.perf_counter() - ready
        if index == args.passes or (not args.passes and spent / index * (index + 1) > args.seconds):
            break
        inputs = workload.pass_inputs(index)
    late = workload.finish()
    failed += len(late)
    problems.extend(late)

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "passes": index,
        "attempted": attempted,
        "failed": failed,
        "problems": problems[:20],
        "ops": len(latencies),
        "op_seconds": sum(latencies),
        "op_p50_s": statistics.median(latencies) if latencies else None,
        "op_p95_s": percentile_95(latencies) if latencies else None,
        "work": work,
        "parts": {name: statistics.median(values)
                  for name, values in workload.parts.items() if values},
        "counts": workload.counts,
        "inputs_sha256": fingerprint.hexdigest()[:16],
        "setup_in_process_s": ready - STARTED,
        "peak_rss_mb": peak_after_first_pass,
    }
    if tracer:
        out["self_s"] = dict(tracer.self_s)
        out["calls"] = {name if isinstance(name, str) else "@".join(name): count
                        for name, count in tracer.calls.items()}
        out["rebound"] = tracer.rebound
        out["spans"] = len(tracer.spans)
        if args.spans:
            tracer.write(args.spans)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
