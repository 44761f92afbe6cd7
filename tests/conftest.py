"""Shared test helpers: a scripted world stub, canonical structures and
the packaged documents."""

from __future__ import annotations

import json
from dataclasses import replace
from pathlib import Path

import pytest

from policylab import bt, documents, experiments, fixtures, hfsm, metrics, simworld
from policylab.core import MOTION_SKILLS, RUNNING, Status


class ScriptedWorld:
    """Minimal tick-protocol stub with hand-set conditions and durations.

    Conditions are true iff their key is in ``truths``. Started skills
    run for ``durations[name]`` advances (default 2) and then finish
    with ``results[name]`` (default SUCCESS). starts/cancels are applied
    immediately, which is what the engine unit tests want.
    """

    def __init__(self, truths=(), durations=None, results=None):
        self.truths = set(truths)
        self.durations = dict(durations or {})
        self.results = dict(results or {})
        self.running: dict = {}
        self.finished: dict = {}
        self.started: list = []
        self.cancelled: list = []

    def set_true(self, *keys):
        self.truths.update(keys)

    def set_false(self, *keys):
        self.truths.difference_update(keys)

    def evaluate(self, literal) -> bool:
        return literal.key() in self.truths

    def skill_status(self, key):
        return Status.RUNNING if key in self.running else self.finished.get(key)

    def request_start(self, key) -> None:
        self.started.append(key)
        if key not in self.running:
            self.finished.pop(key, None)
            self.running[key] = self.durations.get(key[0], 2)

    def request_cancel(self, key) -> None:
        if key in self.running:
            del self.running[key]
            self.finished[key] = Status.FAILURE
            self.cancelled.append(key)

    def advance(self, ticks: int = 1) -> None:
        for _ in range(ticks):
            for key in list(self.running):
                self.running[key] -= 1
                if self.running[key] <= 0:
                    del self.running[key]
                    self.finished[key] = self.results.get(key[0], Status.SUCCESS)


def world_invariant_violations(world: simworld.World) -> list:
    """The invariants of ``world``'s state that do not hold, in words."""
    state, found = world.state, []
    if state.holding is not None and state.holding in state.item_locations:
        found.append(f"held {state.holding} is also at {state.item_locations[state.holding]}")
    if state.robot_location != simworld.TRANSIT and state.robot_location not in state.stations:
        found.append(f"robot at {state.robot_location!r}, not a station")
    if state.docked and state.robot_location != "dock":
        found.append(f"docked at {state.robot_location!r}")
    motions = sorted(runtime.name for runtime in world.runtimes.values()
                     if runtime.status is RUNNING and runtime.name in MOTION_SKILLS)
    if len(motions) > 1:
        found.append(f"motions {motions} run at once")
    if not 0 <= state.battery <= 100:
        found.append(f"battery {state.battery}")
    found += [f"{item} at {station!r}, not a station"
              for item, station in state.item_locations.items() if station not in state.stations]
    return found


class CheckedWorld(simworld.World):
    """A world that asserts its invariants when it starts and after every advance."""

    def __init__(self, scenario: simworld.Scenario):
        super().__init__(scenario)
        self.check("start")

    def advance(self) -> None:
        super().advance()
        self.check("advance")

    def check(self, when: str) -> None:
        violations = world_invariant_violations(self)
        if violations:
            raise AssertionError(f"tick {self.state.tick} {when}: {'; '.join(violations)}")


@pytest.fixture
def checked_worlds(monkeypatch):
    """Episodes run under this fixture check the world's invariants."""
    monkeypatch.setattr(simworld, "World", CheckedWorld)


@pytest.fixture
def fetch_tree():
    return experiments.fetch_bt()


@pytest.fixture
def fetch_machine():
    return experiments.fetch_fsm()


@pytest.fixture
def scripted_world():
    return ScriptedWorld()


def packaged_documents() -> list:
    """The 28 packaged documents: policies, libraries and goals, then scenarios."""
    root = fixtures.data_dir()
    return sorted(root.glob("*.json")) + sorted((root / "scenarios").glob("*.json"))


def packaged_policies() -> list:
    """The names of the packaged policies."""
    return sorted(path.stem for path in fixtures.data_dir().glob("*.json")
                  if not path.stem.endswith(("_library", "_goal")))


def encoded_afresh(name: str, representation: str):
    """The ``representation`` graph of the packaged policy ``name``, encoded
    from a new parse of its file: what ``fixtures.policy_graphs`` should hold."""
    policy = documents.parse_policy_document(fixtures.policy_path(name).read_text())
    if isinstance(policy, bt.PolicyTree) and representation == "hfsm":
        policy = hfsm.from_bt(policy)
    encoders = {"bt": metrics.bt_to_graph, "fsm": metrics.fsm_to_graph,
                "hfsm": metrics.hfsm_to_graph}
    return encoders[representation](policy)


def packaged_scenarios() -> list:
    """The names of the packaged scenarios."""
    return sorted(path.stem for path in (fixtures.data_dir() / "scenarios").glob("*.json"))


def codec(path: Path) -> tuple:
    """(parse, serialize) for the document kind at ``path``."""
    if path.parent.name == "scenarios":
        return documents.parse_scenario_document, documents.serialize_scenario
    if path.stem.endswith("_library"):
        return documents.parse_library_document, documents.serialize_library
    if path.stem.endswith("_goal"):
        return documents.parse_goal_document, documents.serialize_goal
    return documents.parse_policy_document, documents.serialize_policy


def relocation_scenario(tick: int = 10) -> simworld.Scenario:
    """The cube is knocked out of the gripper at ``tick``, while the robot is
    en route: the packaged post_success scenario with its knock moved."""
    return replace(fixtures.load_scenario("post_success"), name="relocation",
                   perturbations=(simworld.Perturbation(
                       tick, "set_item_location", ("cube2", "fetch1")),))


def _parallel_over_two(**threshold) -> dict:
    """A tree whose root is a parallel node over two children."""
    return {"version": 1, "kind": "bt", "root": 0, "nodes": [
        {"id": 0, "type": "parallel", "name": "both", "children": [1, 2], **threshold},
        {"id": 1, "type": "action", "name": "tuck", "skill": "tuck", "args": []},
        {"id": 2, "type": "condition", "name": "docked?", "predicate": "docked",
         "args": []}]}


def _packaged_policy(name: str, **fields) -> dict:
    """The packaged policy document ``name`` with its top-level ``fields`` replaced."""
    return {**json.loads(fixtures.policy_path(name).read_text()), **fields}


def _fetch_fsm_with(index: int, **fields) -> dict:
    """The packaged fetch_fsm document with entry ``index`` of its states updated."""
    doc = _packaged_policy("fetch_fsm")
    doc["states"][index].update(fields)
    return doc


def _connected_twice() -> dict:
    """The packaged fetch_fsm_recharge document with its connected list doubled."""
    doc = _packaged_policy("fetch_fsm_recharge")
    doc["connected"] *= 2
    return doc


#: the packaged fetch_fsm_recharge document's interrupt to its recharge state
RECHARGE_INTERRUPT = {"pred": "battery_above", "args": [20], "negated": True, "target": 6}


def _recharge_fsm_interrupts(index: int, *interrupts: dict) -> dict:
    """The packaged fetch_fsm_recharge document with ``interrupts`` appended
    to those of its state entry ``index``."""
    doc = _packaged_policy("fetch_fsm_recharge")
    state = doc["states"][index]
    state["interrupts"] = [*state.get("interrupts", []), *interrupts]
    return doc


#: (case, policy document, error) for the defects a policy document reaches
#: only through ``PolicyTree.validate`` and ``StateMachine.validate``
POLICY_DEFECTS = [
    ("threshold above the children", _parallel_over_two(threshold=3),
     "node 0: parallel threshold out of range"),
    ("threshold left out", _parallel_over_two(), "node 0: parallel threshold out of range"),
    ("outcome with transitions", _fetch_fsm_with(5, transitions={"SUCCESS": 0}),
     "outcome state 5 cannot have transitions"),
    ("selector without a success edge", _fetch_fsm_with(0, transitions={"RUNNING": 0}),
     "state 0: SUCCESS transition unresolvable"),
    ("plan state without a post", _fetch_fsm_with(1, post=None),
     "plan state 1 has no post for the selector to dispatch on"),
    ("plan order repeats a state", _packaged_policy("fetch_fsm", plan_order=[1, 1, 2, 3, 4]),
     "plan_order[1]: repeats state 1"),
    ("connected state listed twice", _connected_twice(), "connected[1]: repeats state 6"),
    ("interrupt listed twice", _recharge_fsm_interrupts(2, RECHARGE_INTERRUPT),
     "state 2: interrupts[1] repeats the edge !battery_above(20) to state 6"),
    ("interrupt on an outcome", _recharge_fsm_interrupts(5, RECHARGE_INTERRUPT),
     "outcome state 5 cannot have interrupts"),
    ("interrupt to its own state", _recharge_fsm_interrupts(1, {**RECHARGE_INTERRUPT, "target": 1}),
     "state 1: interrupts[1] targets its own state"),
    ("selector interrupt on a dispatch edge",
     _recharge_fsm_interrupts(0, {"pred": "robot_at", "args": ["fetch1"], "target": 2}),
     "state 0: interrupts[1] repeats the edge robot_at(fetch1) to state 2"),
]
