"""Access to the packaged policy, task and scenario documents.

The derived JSON files under ``data/`` are the serialized outputs of the
builders in :mod:`policylab.experiments`, frozen with stable node ids so
that identity-anchored comparisons and report regeneration stay
deterministic; ``write_fixtures`` regenerates them. The hand-written
trees and the scenarios have no builder: each file is its definition.

Each packaged policy is parsed once per process, and each of its graphs
is encoded once per process, both keyed by the file's whole text.
"""

from __future__ import annotations

import functools
from pathlib import Path

from . import bt, documents, experiments, hfsm, metrics
from .core import DocumentError
from .simworld import Scenario


_DATA_DIR = Path(__file__).parent / "data"


def data_dir() -> Path:
    return _DATA_DIR


def policy_path(name: str) -> Path:
    return data_dir() / f"{name}.json"


def _load(path: Path, what: str, name: str, parse):
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as error:
        raise DocumentError(f"{what} {name!r} not found at {path}") from error
    except UnicodeDecodeError as error:
        raise DocumentError(f"{what} {name!r} at {path} is not UTF-8: {error.reason} "
                            f"at byte {error.start}") from None
    return parse(text)


@functools.cache
def _parsed_policy(text: str):
    """The policy ``text`` spells, parsed once per process: a rewritten file
    has a new text, and callers get copies, never this object."""
    return documents.parse_policy_document(text)


def load_policy(name: str):
    """A fresh copy of the packaged policy ``name``."""
    return _load(policy_path(name), "fixture", name, _parsed_policy).copy()


@functools.cache
def _policy_graph(text: str, representation: str):
    """The ``representation`` graph of the policy ``text`` spells, encoded once
    per process from the parsed original, which the encoders only read."""
    policy = _parsed_policy(text)
    if representation == "hfsm" and isinstance(policy, bt.PolicyTree):
        policy = hfsm.from_bt(policy)
    graph = metrics.policy_graph(policy)
    if graph.kind != representation:
        raise ValueError(f"a {graph.kind} policy has no {representation} graph")
    return graph


def policy_graphs(name: str, *representations: str) -> dict:
    """Representation -> graph of the packaged policy ``name``, read once: a
    policy has its own kind's graph (``bt``, ``fsm`` or ``hfsm``), and a tree
    also ``hfsm``, the nested machine built from it. Every caller shares the
    graphs, so none may change them."""
    return _load(policy_path(name), "fixture", name, lambda text: {
        representation: _policy_graph(text, representation)
        for representation in representations})


def load_library(name: str):
    """The packaged action library ``name``; with ``load_goal``, the fixture
    API for the library and goal documents, which only tests call today."""
    return _load(data_dir() / f"{name}_library.json", "library fixture", name,
                 documents.parse_library_document)


def load_goal(name: str):
    """The packaged goal ``name``, the counterpart of ``load_library``."""
    return _load(data_dir() / f"{name}_goal.json", "goal fixture", name,
                 documents.parse_goal_document)


def scenario_path(name: str) -> Path:
    return data_dir() / "scenarios" / f"{name}.json"


def load_scenario(name: str) -> Scenario:
    return _load(scenario_path(name), "scenario fixture", name,
                 documents.parse_scenario_document)


def write_fixtures(target: Path | None = None) -> list[Path]:
    """Regenerate the derived packaged documents from the canonical builders."""
    root = target or data_dir()
    root.mkdir(parents=True, exist_ok=True)
    written = []

    for name, builder in experiments.FIXTURE_BUILDERS.items():
        path = root / f"{name}.json"
        path.write_text(documents.serialize_policy(builder()))
        written.append(path)

    for task, builder in experiments.TASKS.items():
        goal, library = builder()
        lib_path = root / f"{task}_library.json"
        lib_path.write_text(documents.serialize_library(library))
        goal_path = root / f"{task}_goal.json"
        goal_path.write_text(documents.serialize_goal(goal))
        written += [lib_path, goal_path]
    return written


if __name__ == "__main__":  # regenerate the derived packaged data in place
    for written_path in write_fixtures():
        print(written_path)
