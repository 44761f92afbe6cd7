"""Reproduction of the two structure-metric tables.

Every cell is computed from parsed fixtures, builders and the metrics
module, then diffed against the recorded reference values. One
reference inconsistency is known and documented: the docking machine's
edit distance is recorded both as 6 (running text) and as 8 (table);
the exact value under the stated cost model decides which one the
report matches.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from . import bt, experiments, fsm, hfsm, metrics
from .fixtures import load_policy
from .metrics import DEFAULT_GED_BUDGET


@dataclass
class Cell:
    row: str
    column: str
    computed: object
    expected: object
    status: str  # match | documented | mismatch
    note: str = ""

    def label(self) -> str:
        if self.status == "match":
            return str(self.computed)
        if self.status == "documented":
            return f"{self.computed} (documented: reference says {self.expected})"
        return f"{self.computed} != {self.expected}"


@dataclass
class Report:
    title: str
    columns: list
    rows: list = field(default_factory=list)  # (row name, {column: Cell})
    notes: list = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(cell.status != "mismatch"
                   for _, cells in self.rows for cell in cells.values())

    @property
    def matched(self) -> int:
        return sum(cell.status == "match"
                   for _, cells in self.rows for cell in cells.values())

    @property
    def total(self) -> int:
        return sum(len(cells) for _, cells in self.rows)

    def to_text(self) -> str:
        header = [self.title, ""]
        widths = {column: len(column) for column in self.columns}
        name_width = max(len(name) for name, _ in self.rows)
        body = []
        for name, cells in self.rows:
            rendered = {column: cells[column].label() if column in cells else "-"
                        for column in self.columns}
            for column, text in rendered.items():
                widths[column] = max(widths[column], len(text))
            body.append((name, rendered))
        head = "  ".join(["modification".ljust(name_width)]
                         + [column.ljust(widths[column]) for column in self.columns])
        lines = header + [head, "-" * len(head)]
        for name, rendered in body:
            lines.append("  ".join(
                [name.ljust(name_width)]
                + [rendered[column].ljust(widths[column]) for column in self.columns]
            ))
        lines.append("")
        lines.append(f"{self.matched}/{self.total} cells matched")
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> str:
        payload = {
            "title": self.title,
            "ok": self.ok,
            "matched": self.matched,
            "total": self.total,
            "cells": [
                {"row": name, "column": column, "computed": cell.computed,
                 "expected": cell.expected, "status": cell.status,
                 **({"note": cell.note} if cell.note else {})}
                for name, cells in self.rows for column, cell in sorted(cells.items())
            ],
            "notes": self.notes,
        }
        return json.dumps(payload, indent=2) + "\n"


def _cell(row: str, column: str, computed, expected, documented=None, note="") -> Cell:
    if computed == expected:
        return Cell(row, column, computed, expected, "match")
    if documented is not None and computed == documented:
        return Cell(row, column, computed, expected, "documented", note)
    return Cell(row, column, computed, expected, "mismatch", note)


# ---------------------------------------------------------------------------
# modification distances (three representations, four case studies)

_DISTANCE_EXPECTED = {
    "tuck_arm": {"bt": 6, "fsm": 5, "hfsm": 12},
    "safe_move_to": {"bt": 2, "fsm": 4, "hfsm": 4},
    "dock": {"bt": 8, "fsm": 5, "hfsm": 17},
    "recharge_battery": {"bt": 8, "fsm": 8, "hfsm": 17},
}

_DISTANCE_FIXTURES = {
    "tuck_arm": ("fetch_bt_tuck", "fetch_fsm_tuck"),
    "safe_move_to": ("fetch_bt_safe_move", "fetch_fsm_safe_move"),
    "dock": ("fetch_bt_dock", "fetch_fsm_dock"),
    "recharge_battery": ("fetch_bt_recharge", "fetch_fsm_recharge"),
}


def _exact(g1, g2, budget: float) -> int:
    result = metrics.ged_exact(g1, g2, budget=budget)
    if not result.complete:
        raise RuntimeError("edit distance search exhausted its budget")
    return int(result.distance)


def modification_distance_report(base: Path | None = None,
                                 budget: float = DEFAULT_GED_BUDGET) -> Report:
    """Edit distances of the four modified policies to their baselines."""
    report = Report(
        title="Structure edit distances of the modification case studies",
        columns=["bt", "fsm", "hfsm"],
    )
    base_bt = load_policy("fetch_bt", base)
    base_fsm = load_policy("fetch_fsm", base)
    bt_graph = metrics.bt_to_graph(base_bt)
    fsm_graph = metrics.fsm_to_graph(base_fsm)
    hfsm_graph = metrics.hfsm_to_graph(hfsm.from_bt(base_bt))

    for row, (bt_name, fsm_name) in _DISTANCE_FIXTURES.items():
        changed_bt = load_policy(bt_name, base)
        changed_fsm = load_policy(fsm_name, base)
        expected = _DISTANCE_EXPECTED[row]
        cells = {
            "bt": _cell(row, "bt",
                        _exact(bt_graph, metrics.bt_to_graph(changed_bt), budget),
                        expected["bt"]),
            "fsm": _cell(row, "fsm",
                         _exact(fsm_graph, metrics.fsm_to_graph(changed_fsm), budget),
                         expected["fsm"]),
            "hfsm": _cell(row, "hfsm",
                          _exact(hfsm_graph,
                                 metrics.hfsm_to_graph(hfsm.from_bt(changed_bt)),
                                 budget),
                          expected["hfsm"]),
        }
        report.rows.append((row, cells))
    return report


# ---------------------------------------------------------------------------
# experiment structure table (complexity, distance, element counts)

_DOCKING_ED_TEXT_VALUE = 6  # running text; the table quotes 8 for the same edit
_DOCKING_NOTE = ("the reference quotes both 6 (text) and 8 (table) for this edit; "
                 "the exact distance under the stated cost model is reported")


def experiment_table_report(base: Path | None = None,
                            budget: float = DEFAULT_GED_BUDGET) -> Report:
    """Cyclomatic complexity, edit distance and element counts per experiment."""
    report = Report(
        title="Structure metrics of the experiment policies (tree/machine)",
        columns=["cc", "ed", "graphical", "active"],
    )

    fetch_bt = load_policy("fetch_bt", base)
    fetch_fsm = load_policy("fetch_fsm", base)
    recharge_bt = load_policy("fetch_bt_recharge", base)
    recharge_fsm = load_policy("fetch_fsm_recharge", base)
    docking_bt = experiments.bt_with_dock(load_policy("fetch_bt_recharge", base))
    docking_fsm = experiments.fsm_with_dock(load_policy("fetch_fsm_recharge", base))
    scal_bt = experiments.scalability_bt()
    scal_fsm = experiments.scalability_fsm()
    scal_bt_recharge = experiments.scalability_bt_with_recharge()
    scal_fsm_recharge = experiments.scalability_fsm_with_recharge()

    def counts(tree, machine):
        return bt.count_elements(tree), fsm.count_elements(machine)

    def cc(tree, machine):
        return (metrics.cyclomatic(metrics.bt_to_graph(tree)),
                metrics.cyclomatic(metrics.fsm_to_graph(machine)))

    rows = []

    def add_row(name, tree, machine, expect, ed=None, ed_documented=None, ed_note=""):
        tree_counts, machine_counts = counts(tree, machine)
        tree_cc, machine_cc = cc(tree, machine)
        cells = {
            "cc": _cell(name, "cc", [tree_cc, machine_cc], expect["cc"]),
            "graphical": _cell(name, "graphical",
                               [tree_counts["graphical"], machine_counts["graphical"]],
                               expect["graphical"]),
            "active": _cell(name, "active",
                            [tree_counts["active"], machine_counts["active"]],
                            expect["active"]),
        }
        if ed is not None:
            cells["ed"] = _cell(name, "ed", ed, expect["ed"],
                                documented=ed_documented, note=ed_note)
        rows.append((name, cells))

    add_row("development/baseline", fetch_bt, fetch_fsm,
            {"cc": [1, 14], "graphical": [27, 24], "active": [14, 24]})

    ed_recharge = [
        _exact(metrics.bt_to_graph(fetch_bt), metrics.bt_to_graph(recharge_bt), budget),
        _exact(metrics.fsm_to_graph(fetch_fsm), metrics.fsm_to_graph(recharge_fsm), budget),
    ]
    add_row("development/recharge", recharge_bt, recharge_fsm,
            {"cc": [1, 20], "ed": [8, 8], "graphical": [35, 32], "active": [18, 32]},
            ed=ed_recharge)

    ed_docking = [
        _exact(metrics.bt_to_graph(recharge_bt), metrics.bt_to_graph(docking_bt), budget),
        _exact(metrics.fsm_to_graph(recharge_fsm), metrics.fsm_to_graph(docking_fsm), budget),
    ]
    add_row("development/docking", docking_bt, docking_fsm,
            {"cc": [1, 24], "ed": [6, 8], "graphical": [41, 38], "active": [21, 38]},
            ed=ed_docking,
            ed_documented=[6, _DOCKING_ED_TEXT_VALUE],
            ed_note=_DOCKING_NOTE)

    add_row("scalability/baseline", scal_bt, scal_fsm,
            {"cc": [1, 68], "graphical": [153, 114], "active": [77, 114]})

    ed_scalability = [
        _exact(metrics.bt_to_graph(scal_bt), metrics.bt_to_graph(scal_bt_recharge), budget),
        _exact(metrics.fsm_to_graph(scal_fsm), metrics.fsm_to_graph(scal_fsm_recharge),
               budget),
    ]
    add_row("scalability/recharge", scal_bt_recharge, scal_fsm_recharge,
            {"cc": [1, 92], "ed": [6, 26], "graphical": [159, 140], "active": [80, 140]},
            ed=ed_scalability)

    report.rows = rows
    documented = [cell for _, cells in rows for cell in cells.values()
                  if cell.status == "documented"]
    for cell in documented:
        report.notes.append(f"{cell.row}/{cell.column}: {cell.note}")
    return report


def build_report(table: int, base: Path | None = None,
                 budget: float = DEFAULT_GED_BUDGET) -> Report:
    if table == 2:
        return modification_distance_report(base, budget)
    if table == 3:
        return experiment_table_report(base, budget)
    raise ValueError(f"no table {table}; choose 2 or 3")
