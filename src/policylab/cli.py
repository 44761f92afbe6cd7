"""Command line entry point.

Subcommands: build (synthesize a policy), to-hfsm (transform a tree),
run (execute a policy in a scenario), metrics (structure measures) and
report (reproduce the reference tables).

Exit codes: 0 success, 1 input or parse error, 2 policy FAILURE (run) or
report mismatch, 3 episode timeout, 4 edit distance search stopped by its
time budget or its heap cap.
The environment variable POLICYLAB_GED_BUDGET (non-negative integer seconds)
overrides the edit distance search budget.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import bt, documents, fsm, hfsm, metrics, planner, report, simworld
from .core import BudgetError, PolicyError

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_FAILURE = 2
EXIT_TIMEOUT = 3
EXIT_INCOMPLETE = 4


def _ged_budget() -> float:
    raw = os.environ.get("POLICYLAB_GED_BUDGET")
    if raw is None:
        return metrics.DEFAULT_GED_BUDGET
    try:
        budget = int(raw)
        if budget >= 0:
            return float(budget)
    except ValueError:
        pass
    raise PolicyError(f"POLICYLAB_GED_BUDGET must be a non-negative integer, got {raw!r}")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise PolicyError(f"cannot read {path}: {exc.strerror}")
    except UnicodeDecodeError as exc:
        raise PolicyError(f"cannot read {path}: not UTF-8: {exc.reason} at byte {exc.start}")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        try:
            Path(path).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise PolicyError(f"cannot write {path}: {exc.strerror}")


def _graph_and_counts(path: str) -> tuple[metrics.PolicyGraph, dict]:
    """The graph encoding and the element counts of a policy document."""
    policy = documents.parse_policy_document(_read(path))
    graph = metrics.policy_graph(policy)
    if graph.kind == "bt":
        return graph, bt.count_elements(policy)
    if graph.kind == "fsm":
        return graph, fsm.count_elements(policy)
    total = graph.order() + graph.size()
    return graph, {"nodes": graph.order(), "edges": graph.size(),
                   "graphical": total, "active": total}


# ---------------------------------------------------------------------------
# subcommands


def cmd_build(args) -> int:
    goal = documents.parse_goal_document(_read(args.goal))
    library = documents.parse_library_document(_read(args.library))
    if args.kind != "bt" and args.ordering != "safe":
        raise PolicyError("--ordering applies to behavior tree synthesis only")
    tree, plan = planner.synthesize(goal, library, args.ordering)
    for note in plan.notes:
        print(f"warning: {note}", file=sys.stderr)
    if args.kind == "bt":
        policy = tree
    elif args.kind == "fsm-seq":
        policy = fsm.build_sequential(plan)
    else:
        policy = fsm.build_fault_tolerant(plan)
    _write(args.output, documents.serialize_policy(policy))
    return EXIT_OK


def cmd_to_hfsm(args) -> int:
    policy = documents.parse_policy_document(_read(args.policy))
    if not isinstance(policy, bt.PolicyTree):
        raise PolicyError("to-hfsm expects a behavior tree document")
    _write(args.output, documents.serialize_policy(hfsm.from_bt(policy)))
    return EXIT_OK


def cmd_run(args) -> int:
    policy = documents.parse_policy_document(_read(args.policy))
    scenario = documents.parse_scenario_document(_read(args.scenario))
    if args.max_ticks is not None:
        scenario = replace(scenario, max_ticks=args.max_ticks)
    trace = simworld.run_episode(policy, scenario)
    if args.trace:
        _write(args.trace, trace.to_jsonl())
    started = len(trace.skill_events("skill_start"))
    print(f"outcome: {trace.outcome}")
    print(f"ticks: {trace.ticks}")
    print(f"skills started: {started}")
    if trace.timed_out:
        return EXIT_TIMEOUT
    return EXIT_OK if trace.outcome == "SUCCESS" else EXIT_FAILURE


#: what ``metrics --ged`` names as the limit that stopped an incomplete search
_LIMITS = {"budget": "time budget exhausted", "heap": "heap cap exhausted"}


def cmd_metrics(args) -> int:
    if args.ged is not None:
        (first, _), (second, _) = map(_graph_and_counts, args.ged)
        result = metrics.ged_exact(first, second, budget=_ged_budget())
        marker = ("" if result.complete
                  else f" INCOMPLETE (upper bound: {_LIMITS[result.exhausted]})")
        print(f"ged: {result.distance:g}{marker}")
        print(f"edit script ({len(result.script.ops)} ops, "
              f"{result.script.n_star} vertex ops):")
        for op in result.script.ops:
            print("  " + " ".join(str(part) for part in op))
        return EXIT_OK if result.complete else EXIT_INCOMPLETE
    if args.cc is not None:
        graph, _ = _graph_and_counts(args.cc)
        print(f"cyclomatic complexity: {metrics.cyclomatic(graph)}")
        return EXIT_OK
    if args.counts is not None:
        _, counts = _graph_and_counts(args.counts)
        for key in ("nodes", "edges", "graphical", "active"):
            print(f"{key}: {counts[key]}")
        return EXIT_OK
    if args.effort is not None:
        sequential, connected = args.effort
        print(f"effort: {metrics.effort(sequential, connected)}")
        return EXIT_OK
    if args.estimate is not None:
        kind, actions, connected = args.estimate
        try:
            actions, connected = int(actions), int(connected)
        except ValueError:
            raise PolicyError(f"--estimate: M and MFC must be integers, "
                              f"got {actions!r} and {connected!r}") from None
        estimate = metrics.formula_estimates(kind, actions, connected)
        print(f"graphical: ~{estimate['graphical']:g}")
        print(f"active: ~{estimate['active']:g}")
        return EXIT_OK
    raise PolicyError("choose one of --ged/--cc/--counts/--effort/--estimate")


def cmd_report(args) -> int:
    result = report.build_report(args.table, budget=_ged_budget())
    print(result.to_text(), end="")
    if args.output:
        _write(args.output, result.to_json())
    return EXIT_OK if result.ok else EXIT_FAILURE


# ---------------------------------------------------------------------------
# argument parsing


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="policylab",
        description="Build, transform, run and measure task-switching policies.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    build = sub.add_parser("build", help="synthesize a policy from a goal and library")
    build.add_argument("goal", help="goal document (JSON)")
    build.add_argument("library", help="action library document (JSON)")
    build.add_argument("--kind", choices=("bt", "fsm-seq", "fsm-ft"), default="bt")
    build.add_argument("--ordering", choices=("safe", "naive"), default="safe")
    build.add_argument("-o", "--output", help="output path (default: stdout)")
    build.set_defaults(func=cmd_build)

    to_hfsm = sub.add_parser("to-hfsm", help="transform a tree into a nested machine")
    to_hfsm.add_argument("policy", help="behavior tree document")
    to_hfsm.add_argument("-o", "--output", help="output path (default: stdout)")
    to_hfsm.set_defaults(func=cmd_to_hfsm)

    run = sub.add_parser("run", help="execute a policy in a scenario")
    run.add_argument("policy", help="policy document")
    run.add_argument("scenario", help="scenario document")
    run.add_argument("--max-ticks", type=int, default=None)
    run.add_argument("--trace", help="write the episode trace as JSON lines")
    run.set_defaults(func=cmd_run)

    measure = sub.add_parser("metrics", help="structure measures")
    group = measure.add_mutually_exclusive_group(required=True)
    group.add_argument("--ged", nargs=2, metavar=("A", "B"),
                       help="exact edit distance between two policy documents")
    group.add_argument("--cc", metavar="POLICY", help="cyclomatic complexity")
    group.add_argument("--counts", metavar="POLICY", help="element counts")
    group.add_argument("--effort", nargs=2, type=int, metavar=("MS", "MFC"),
                       help="operations to make a sequential machine fault tolerant")
    group.add_argument("--estimate", nargs=3, metavar=("KIND", "M", "MFC"),
                       help="closed-form element estimates for bt/fsm/hfsm")
    measure.set_defaults(func=cmd_metrics)

    rep = sub.add_parser("report", help="reproduce the reference tables")
    rep.add_argument("--table", type=int, choices=(2, 3), required=True)
    rep.add_argument("-o", "--output", help="also write the report as JSON")
    rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PolicyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE if isinstance(exc, BudgetError) else EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
