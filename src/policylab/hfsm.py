"""Hierarchical state machines that mimic behavior trees.

Every robot behavior is a machine exposing SUCCESS, FAILURE and RUNNING
as outcomes; container machines nest children and route a child's
outcome either to a sibling or to one of their own outcomes, depending
on whether the container plays the sequence or the fallback role. The
construction is a structural bijection with the source tree, and a step
of the executor issues exactly the commands one tree tick would.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from .bt import PolicyTree, TickWorld
from .core import ConditionLiteral, Status, ValidationError

CONTAINER_KINDS = ("sequence_container", "fallback_container")
LEAF_KINDS = ("action", "condition")

#: outcomes every container exposes
OUTCOMES = (Status.SUCCESS, Status.FAILURE, Status.RUNNING)


@dataclass
class HfsmContainer:
    id: int
    kind: str
    name: str = ""
    children: list["HfsmContainer"] = field(default_factory=list)
    skill: str = ""
    args: tuple = ()
    literal: Optional[ConditionLiteral] = None
    # engine bookkeeping, meaningful on the root container only: the
    # action leaves whose skills were started and not yet seen finished,
    # by id, and the ids the latest step visited
    active_leaves: dict[int, "HfsmContainer"] = field(
        default_factory=dict, compare=False, repr=False)
    last_visited: set = field(default_factory=set)

    def skill_key(self) -> tuple:
        return (self.skill, tuple(self.args))

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def reset_runtime(self) -> None:
        self.active_leaves.clear()
        self.last_visited.clear()


def from_bt(tree: PolicyTree) -> HfsmContainer:
    """Build the nested machine that behaves exactly like ``tree``.

    Only sequence and fallback control nodes translate; parallel and
    memory variants have no counterpart in this construction.
    """

    def convert(node_id: int) -> HfsmContainer:
        node = tree.node(node_id)
        if node.kind == "sequence":
            kind = "sequence_container"
        elif node.kind == "fallback":
            kind = "fallback_container"
        elif node.kind in LEAF_KINDS:
            kind = node.kind
        else:
            raise ValidationError(
                f"cannot express {node.kind} node {node_id} as a nested machine"
            )
        return HfsmContainer(
            id=node.id,
            kind=kind,
            name=node.name,
            children=[convert(child) for child in node.children],
            skill=node.skill,
            args=tuple(node.args),
            literal=node.literal,
        )

    return convert(tree.root)


# ---------------------------------------------------------------------------
# executor

# Container wiring: where does a child's outcome transfer execution?
# ("exit", status) leaves the container with that outcome, "advance" enters
# the next child.
_SEQUENCE_WIRING = {
    Status.SUCCESS: "advance",
    Status.FAILURE: ("exit", Status.FAILURE),
    Status.RUNNING: ("exit", Status.RUNNING),
}
_FALLBACK_WIRING = {
    Status.SUCCESS: ("exit", Status.SUCCESS),
    Status.FAILURE: "advance",
    Status.RUNNING: ("exit", Status.RUNNING),
}


def step(machine: HfsmContainer, world: TickWorld) -> Status:
    """Evaluate the machine once from its entry point.

    RUNNING re-enters the same leaf on the next step without restarting
    its skill, mirroring the tree engine.
    """
    visited: set[int] = set()
    status = _run(machine, machine, world, visited)
    machine.last_visited = visited
    return status


def _run(machine: HfsmContainer, node: HfsmContainer, world: TickWorld,
         visited: set[int]) -> Status:
    visited.add(node.id)

    if node.kind == "condition":
        return Status.SUCCESS if world.evaluate(node.literal) else Status.FAILURE

    if node.kind == "action":
        key = node.skill_key()
        if node.id in machine.active_leaves:
            if world.skill_running(*key):
                return Status.RUNNING
            del machine.active_leaves[node.id]
            result = world.skill_result(*key)
            return result if result is not None else Status.FAILURE
        world.request_start(*key)
        machine.active_leaves[node.id] = node
        return Status.RUNNING

    wiring = _SEQUENCE_WIRING if node.kind == "sequence_container" else _FALLBACK_WIRING
    index = 0
    while index < len(node.children):
        outcome = _run(machine, node.children[index], world, visited)
        route = wiring[outcome]
        if route == "advance":
            index += 1
            continue
        return route[1]
    # ran off the last child: the advancing outcome becomes the container's own
    return Status.SUCCESS if node.kind == "sequence_container" else Status.FAILURE


def halt_unvisited(machine: HfsmContainer, world: TickWorld) -> set[tuple]:
    """Cancel skills of action leaves preempted by the latest step.

    Only the active leaves the step did not visit are looked at, so the
    cost follows the number of running leaves, not the machine's size.
    """
    cancelled: set[tuple] = set()
    for leaf_id in sorted(machine.active_leaves.keys() - machine.last_visited):
        key = machine.active_leaves.pop(leaf_id).skill_key()
        if world.skill_running(*key):
            world.request_cancel(*key)
            cancelled.add(key)
    return cancelled
