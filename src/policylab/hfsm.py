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

from .bt import LEAF_KINDS, PolicyTree, TickWorld
from .core import ConditionLiteral, FAILURE, RUNNING, SUCCESS, Status, ValidationError

#: tree control kind -> the container kind that plays its role
CONTAINERS = {"sequence": "sequence_container", "fallback": "fallback_container"}
CONTAINER_KINDS = tuple(CONTAINERS.values())


@dataclass
class HfsmContainer:
    id: int
    kind: str
    name: str = ""
    children: list["HfsmContainer"] = field(default_factory=list)
    skill: str = ""
    args: tuple = ()
    literal: Optional[ConditionLiteral] = None
    # engine bookkeeping, meaningful on the root container only and left
    # out of == and repr: the action leaves whose skills were started and
    # not yet seen finished, by id, and the ids the latest step visited
    active_leaves: dict[int, "HfsmContainer"] = field(
        default_factory=dict, compare=False, repr=False)
    last_visited: set = field(default_factory=set, compare=False, repr=False)

    def skill_key(self) -> tuple:
        return (self.skill, tuple(self.args))

    def walk(self):
        yield self
        for child in self.children:
            yield from child.walk()

    def copy(self) -> "HfsmContainer":
        """An equal machine that shares no list, dict or set with this one;
        the engine bookkeeping starts empty."""
        return HfsmContainer(self.id, self.kind, self.name,
                             [child.copy() for child in self.children],
                             self.skill, self.args, self.literal)

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
        if node.kind not in CONTAINERS and node.kind not in LEAF_KINDS:
            raise ValidationError(
                f"cannot express {node.kind} node {node_id} as a nested machine"
            )
        return HfsmContainer(
            id=node.id,
            kind=CONTAINERS.get(node.kind, node.kind),
            name=node.name,
            children=[convert(child) for child in node.children],
            skill=node.skill,
            args=tuple(node.args),
            literal=node.literal,
        )

    return convert(tree.root)


# ---------------------------------------------------------------------------
# executor

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
        return SUCCESS if world.evaluate(node.literal) else FAILURE

    if node.kind == "action":
        key = node.skill_key()
        if node.id in machine.active_leaves:
            status = world.skill_status(key)
            if status is RUNNING:
                return RUNNING
            del machine.active_leaves[node.id]
            return status if status is not None else FAILURE
        world.request_start(key)
        machine.active_leaves[node.id] = node
        return RUNNING

    # a child's advancing outcome (SUCCESS in a sequence, FAILURE in a
    # fallback) enters the next sibling; any other leaves the container
    # with that outcome, and running off the last child leaves with the
    # advancing one
    advancing = SUCCESS if node.kind == "sequence_container" else FAILURE
    for child in node.children:
        outcome = _run(machine, child, world, visited)
        if outcome is not advancing:
            return outcome
    return advancing


def halt_unvisited(machine: HfsmContainer, world: TickWorld) -> set[tuple]:
    """Cancel skills of action leaves preempted by the latest step.

    Only the active leaves the step did not visit are looked at, so the
    cost follows the number of running leaves, not the machine's size.
    """
    cancelled: set[tuple] = set()
    for leaf_id in sorted(machine.active_leaves.keys() - machine.last_visited):
        key = machine.active_leaves.pop(leaf_id).skill_key()
        if world.skill_status(key) is RUNNING:
            world.request_cancel(key)
            cancelled.add(key)
    return cancelled
