"""Access to the packaged policy, task and scenario documents.

The derived JSON files under ``data/`` are the serialized outputs of the
builders in :mod:`policylab.experiments`, frozen with stable node ids so
that identity-anchored comparisons and report regeneration stay
deterministic; ``write_fixtures`` regenerates them. The hand-written
trees and the scenarios have no builder: each file is its definition.
"""

from __future__ import annotations

from pathlib import Path

from . import documents, experiments
from .core import DocumentError
from .simworld import Scenario


def data_dir() -> Path:
    return Path(__file__).parent / "data"


def policy_path(name: str) -> Path:
    return data_dir() / f"{name}.json"


def _load(path: Path, what: str, name: str, parse):
    if not path.is_file():
        raise DocumentError(f"{what} {name!r} not found at {path}")
    return parse(path.read_text())


def load_policy(name: str):
    return _load(policy_path(name), "fixture", name, documents.parse_policy_document)


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

    tasks = {
        "fetch": (experiments.fetch_library(), experiments.fetch_goal()),
        "fetch_safe": (experiments.fetch_library(with_safe_move=True),
                       experiments.fetch_goal()),
        "scalability": (experiments.scalability_library(),
                        experiments.scalability_goal()),
    }
    for task, (library, goal) in tasks.items():
        lib_path = root / f"{task}_library.json"
        lib_path.write_text(documents.serialize_library(library))
        goal_path = root / f"{task}_goal.json"
        goal_path.write_text(documents.serialize_goal(goal))
        written += [lib_path, goal_path]
    return written


if __name__ == "__main__":  # regenerate the derived packaged data in place
    for written_path in write_fixtures():
        print(written_path)
