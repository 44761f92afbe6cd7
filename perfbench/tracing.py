"""Spans around the calls into each policylab module, installed from outside.

``instrument`` rebinds public module and class attributes to wrappers
that open a span, so nothing under ``src/`` changes. A caller that holds
a ``from``-imported reference (``experiments.backchain``,
``report.load_policy``) is found by identity and rebound too. Hot
functions only count their calls, which costs far less than a span.

Spans stay in memory; ``Tracer.write`` puts them out at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict

from policylab import (
    bt, documents, experiments, fixtures, fsm, hfsm, metrics, planner, report, simworld,
)

#: (owner, attribute): functions and methods timed with a span
SPANNED = [
    (metrics, "ged_exact"), (metrics, "ged_anchored"),
    (metrics, "bt_to_graph"), (metrics, "fsm_to_graph"), (metrics, "hfsm_to_graph"),
    (bt, "tick"), (bt, "halt_unvisited"), (bt, "insert_subtree"),
    (hfsm, "step"), (hfsm, "halt_unvisited"), (hfsm, "from_bt"),
    (fsm, "step"), (fsm, "build_fault_tolerant"), (fsm, "build_sequential"),
    (simworld, "run_episode"), (simworld.World, "advance"),
    (planner, "backchain"), (planner, "extract_plan"),
    (documents, "parse_policy_document"), (documents, "serialize_policy"),
    (fixtures, "load_policy"), (fixtures, "load_scenario"),
    (report, "build_report"),
]
#: called too often for a span each: call counts only
COUNTED = [
    (metrics.GedCostModel, "edge_group_cost"),
    (simworld.World, "evaluate"),
]
#: every public builder and recipe of the experiments module
EXPERIMENT_BUILDERS = sorted(
    name for name, value in vars(experiments).items()
    if inspect.isfunction(value) and value.__module__ == experiments.__name__
    and not name.startswith("_")
)
SPANNED += [(experiments, name) for name in EXPERIMENT_BUILDERS]


def qualified(owner, attribute: str) -> str:
    if inspect.isclass(owner):
        return f"{owner.__module__.rsplit('.', 1)[-1]}.{owner.__name__}.{attribute}"
    return f"{owner.__name__.rsplit('.', 1)[-1]}.{attribute}"


class Tracer:
    """Open spans on a stack; closed spans and per-name totals in memory."""

    def __init__(self):
        self.enabled = False
        self.operation = -1
        self._stack = []  # open frames: [name, start, child seconds, span index]
        self.spans = []  # (operation, name, start, end, parent span index)
        self.self_s = defaultdict(float)
        self.calls = Counter()
        self.rebound = []

    def open(self, name: str) -> list:
        parent = self._stack[-1][3] if self._stack else -1
        frame = [name, time.perf_counter(), 0.0, len(self.spans)]
        self.spans.append((self.operation, name, frame[1], None, parent))
        self._stack.append(frame)
        return frame

    def close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        operation, _, _, _, parent = self.spans[index]
        self.spans[index] = (operation, name, start, end, parent)
        duration = end - start
        self.self_s[name] += duration - child
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += duration

    def count(self, name: str) -> None:
        self.calls[name] += 1
        if self._stack:
            self.calls[(name, self._stack[-1][0])] += 1

    def write(self, path) -> None:
        with open(path, "w") as out:
            for operation, name, start, end, parent in self.spans:
                out.write(json.dumps({"op": operation, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")


def _spanned(tracer: Tracer, name: str, fn):
    is_search = fn is metrics.ged_exact  # split by what it compares, count completions

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.enabled:
            return fn(*args, **kwargs)
        frame = tracer.open(f"{name}.{args[0].kind or 'random'}" if is_search else name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(frame)
        if is_search:
            tracer.calls[name] += 1
            tracer.calls[f"{name}.complete"] += result.complete
        return result
    return wrapper


def _counted(tracer: Tracer, name: str, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.count(name)
        return fn(*args, **kwargs)
    return wrapper


def instrument(tracer: Tracer) -> None:
    """Rebind every traced attribute, then every ``from``-import of one."""
    wrappers = {}
    for table, make in ((SPANNED, _spanned), (COUNTED, _counted)):
        for owner, attribute in table:
            original = getattr(owner, attribute)
            wrapper = make(tracer, qualified(owner, attribute), original)
            setattr(owner, attribute, wrapper)
            wrappers[id(original)] = (original, wrapper)
    for module_name, module in sorted(sys.modules.items()):
        if not module_name.startswith("policylab") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            found = wrappers.get(id(value))
            if found is not None and found[0] is value:
                setattr(module, attribute, found[1])
                tracer.rebound.append(f"{module_name}.{attribute}")
