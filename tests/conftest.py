"""Shared test helpers: a scripted world stub, canonical structures and
the packaged documents."""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path

import pytest

from policylab import documents, experiments, fixtures, simworld
from policylab.core import Status


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
