"""Behavior tree data model, tick engine and constant-touch edit operations.

The engine talks to its environment through a small protocol (see
:class:`TickWorld`): condition evaluation plus a start/poll/cancel skill
lifecycle. Skill starts are *requested* during a tick and applied by the
caller afterwards, so one tick always sees one consistent world snapshot
and preemption can cancel the losing branch before the winner's skill
actually starts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Protocol

from .core import ConditionLiteral, EditError, MOTION_SKILLS, Status, ValidationError

CONTROL_KINDS = ("sequence", "fallback", "parallel", "memory_sequence")
LEAF_KINDS = ("action", "condition")
NODE_KINDS = CONTROL_KINDS + LEAF_KINDS


class TickWorld(Protocol):
    """What a tree needs from its environment during one tick."""

    def evaluate(self, literal: ConditionLiteral) -> bool: ...

    def skill_running(self, skill: str, args: tuple) -> bool: ...

    def skill_result(self, skill: str, args: tuple) -> Optional[Status]: ...

    def request_start(self, skill: str, args: tuple) -> None: ...

    def request_cancel(self, skill: str, args: tuple) -> None: ...


@dataclass
class BtNode:
    id: int
    kind: str
    name: str = ""
    children: list[int] = field(default_factory=list)
    skill: str = ""
    args: tuple = ()
    literal: Optional[ConditionLiteral] = None
    threshold: int = 0  # parallel only: children successes required

    def is_control(self) -> bool:
        return self.kind in CONTROL_KINDS

    def skill_key(self) -> tuple:
        return (self.skill, tuple(self.args))


@dataclass
class PolicyTree:
    """A rooted behavior tree plus per-episode engine bookkeeping."""

    nodes: dict[int, BtNode] = field(default_factory=dict)
    root: int = 0
    # engine bookkeeping, reset between episodes and left out of == and repr
    last_tick_visited: set[int] = field(default_factory=set, compare=False, repr=False)
    memory_marks: dict[int, int] = field(default_factory=dict, compare=False, repr=False)
    active_actions: set[int] = field(default_factory=set, compare=False, repr=False)

    def node(self, node_id: int) -> BtNode:
        try:
            return self.nodes[node_id]
        except KeyError:
            raise EditError(f"unknown node id {node_id}") from None

    def next_id(self) -> int:
        return max(self.nodes) + 1 if self.nodes else 0

    def parent_of(self, node_id: int) -> Optional[int]:
        for nid, node in self.nodes.items():
            if node_id in node.children:
                return nid
        return None

    def subtree_ids(self, node_id: int) -> set[int]:
        out, stack = set(), [node_id]
        while stack:
            nid = stack.pop()
            out.add(nid)
            stack.extend(self.node(nid).children)
        return out

    def reset_runtime(self) -> None:
        self.last_tick_visited.clear()
        self.memory_marks.clear()
        self.active_actions.clear()

    def validate(self) -> None:
        """Check the structural invariants: single rooted tree, leaf kinds.

        A parallel node may hold motion actions under one child only: the
        world runs one motion at a time.
        """
        if self.root not in self.nodes:
            raise ValidationError(f"root id {self.root} not among nodes")
        parents: dict[int, int] = {}
        parallels = []
        for nid, node in self.nodes.items():
            if node.kind not in NODE_KINDS:
                raise ValidationError(f"node {nid}: unknown kind {node.kind!r}")
            if node.children and not node.is_control():
                raise ValidationError(f"node {nid}: {node.kind} leaves cannot have children")
            if node.kind in ("sequence", "fallback", "memory_sequence") and not node.children:
                raise ValidationError(f"node {nid}: {node.kind} needs at least one child")
            if node.kind == "parallel":
                if not 1 <= node.threshold <= len(node.children):
                    raise ValidationError(f"node {nid}: parallel threshold out of range")
                parallels.append(node)
            for child in node.children:
                if child not in self.nodes:
                    raise ValidationError(f"node {nid}: dangling child reference {child}")
                if child in parents:
                    raise ValidationError(f"node {child} has two parents")
                parents[child] = nid
        # with one parent per node and none for the root, the walk below
        # cannot meet a node twice, so a cycle cannot keep it going
        if self.root in parents:
            raise ValidationError("root must not be a child")
        reachable = self.subtree_ids(self.root)
        if reachable != set(self.nodes):
            orphans = sorted(set(self.nodes) - reachable)
            raise ValidationError(f"nodes unreachable from root: {orphans}")
        for node in parallels:
            moving = sum(any(self.nodes[nid].kind == "action"
                             and self.nodes[nid].skill in MOTION_SKILLS
                             for nid in self.subtree_ids(child)) for child in node.children)
            if moving > 1:
                raise ValidationError(f"node {node.id}: parallel has motion actions under "
                                      f"{moving} children, but one motion runs at a time")


# ---------------------------------------------------------------------------
# tick engine


def tick(tree: PolicyTree, world: TickWorld) -> Status:
    """Run one depth-first evaluation pass from the root.

    Returns the root status and records the visited set on the tree.
    Actions request skill starts on first visit and are polled while
    their own last status was RUNNING.
    """
    visited: set[int] = set()
    status = _tick_node(tree, tree.root, world, visited)
    tree.last_tick_visited = visited
    return status


def _tick_node(tree: PolicyTree, node_id: int, world: TickWorld, visited: set[int]) -> Status:
    node = tree.node(node_id)
    visited.add(node_id)

    if node.kind == "condition":
        status = Status.SUCCESS if world.evaluate(node.literal) else Status.FAILURE
    elif node.kind == "action":
        status = _tick_action(tree, node, world)
    elif node.kind == "sequence":
        status = Status.SUCCESS
        for child in node.children:
            status = _tick_node(tree, child, world, visited)
            if status is not Status.SUCCESS:
                break
    elif node.kind == "fallback":
        status = Status.FAILURE
        for child in node.children:
            status = _tick_node(tree, child, world, visited)
            if status is not Status.FAILURE:
                break
    elif node.kind == "memory_sequence":
        status = _tick_memory_sequence(tree, node, world, visited)
    elif node.kind == "parallel":
        status = _tick_parallel(tree, node, world, visited)
    else:  # pragma: no cover - validate() rejects unknown kinds
        raise ValidationError(f"cannot tick node kind {node.kind!r}")

    return status


def _tick_action(tree: PolicyTree, node: BtNode, world: TickWorld) -> Status:
    key = node.skill_key()
    if node.id in tree.active_actions:
        if world.skill_running(*key):
            return Status.RUNNING
        tree.active_actions.discard(node.id)
        result = world.skill_result(*key)
        # A cancelled or vanished runtime while we believed we were running
        # reads as a failed attempt; the next visit starts afresh.
        return result if result is not None else Status.FAILURE
    world.request_start(*key)
    tree.active_actions.add(node.id)
    return Status.RUNNING


def _tick_memory_sequence(tree, node, world, visited) -> Status:
    start = tree.memory_marks.get(node.id, 0)
    for index in range(start, len(node.children)):
        status = _tick_node(tree, node.children[index], world, visited)
        if status is Status.RUNNING:
            tree.memory_marks[node.id] = index
            return status
        if status is Status.FAILURE:
            tree.memory_marks[node.id] = 0
            return status
        tree.memory_marks[node.id] = index + 1
    tree.memory_marks[node.id] = 0
    return Status.SUCCESS


class _StartBuffer:
    """``world`` with the start requests held back until the caller forwards them."""

    def __init__(self, world: TickWorld):
        self.world = world
        self.starts: list[tuple] = []

    def request_start(self, skill: str, args: tuple) -> None:
        self.starts.append((skill, args))

    def __getattr__(self, name: str):
        return getattr(self.world, name)


def _tick_parallel(tree, node, world, visited) -> Status:
    """Tick every child; a decided parallel halts the children still running.

    A halted child's subtree leaves the visited set, so ``halt_unvisited``
    cancels its skills, and the starts it requested this tick are dropped.
    """
    buffers = [_StartBuffer(world) for _ in node.children]
    results = [_tick_node(tree, child, buffer, visited)
               for child, buffer in zip(node.children, buffers)]
    successes = sum(r is Status.SUCCESS for r in results)
    failures = sum(r is Status.FAILURE for r in results)
    if successes >= node.threshold:
        status = Status.SUCCESS
    elif failures > len(node.children) - node.threshold:
        status = Status.FAILURE
    else:
        status = Status.RUNNING
    for child, buffer, result in zip(node.children, buffers, results):
        if status is not Status.RUNNING and result is Status.RUNNING:
            visited.difference_update(tree.subtree_ids(child))
        else:
            for key in buffer.starts:
                world.request_start(*key)
    return status


def halt_unvisited(tree: PolicyTree, world: TickWorld) -> set[tuple]:
    """Cancel skills of actions that were running but lost this tick's pass.

    Must be called after :func:`tick`. Returns the set of cancelled
    (skill, args) keys; cancelling an already finished skill is a no-op
    and is not reported.
    """
    cancelled: set[tuple] = set()
    for node_id in sorted(tree.active_actions - tree.last_tick_visited):
        node = tree.node(node_id)
        key = node.skill_key()
        if world.skill_running(*key):
            world.request_cancel(*key)
            cancelled.add(key)
        tree.active_actions.discard(node_id)
    return cancelled


# ---------------------------------------------------------------------------
# edit operations


def _check_disjoint(tree: PolicyTree, sub: PolicyTree) -> None:
    overlap = set(tree.nodes) & set(sub.nodes)
    if overlap:
        raise EditError(f"subtree ids collide with tree: {sorted(overlap)}")


def insert_subtree(tree: PolicyTree, parent: int, index: int, sub: PolicyTree) -> PolicyTree:
    """Graft ``sub`` as the index-th child of ``parent``.

    Only the parent node among pre-existing nodes is touched, whatever
    the tree size.
    """
    node = tree.node(parent)
    if not node.is_control():
        raise EditError(f"cannot insert under {node.kind} leaf {parent}")
    if not 0 <= index <= len(node.children):
        raise EditError(f"child index {index} out of range for node {parent}")
    _check_disjoint(tree, sub)
    tree.nodes.update(sub.nodes)
    node.children.insert(index, sub.root)
    return tree


def remove_subtree(tree: PolicyTree, node_id: int) -> PolicyTree:
    """Detach a node and its descendants; only the parent is touched.

    Kept in the library though only tests call it: it is one of the
    paper's modification operations, the tree side of ``fsm.remove_state``.
    """
    if node_id == tree.root:
        raise EditError("cannot remove the root")
    doomed = tree.subtree_ids(node_id)
    parent = tree.parent_of(node_id)
    if parent is None:
        raise EditError(f"node {node_id} has no parent")
    tree.node(parent).children.remove(node_id)
    for nid in doomed:
        del tree.nodes[nid]
        tree.memory_marks.pop(nid, None)
        tree.active_actions.discard(nid)
    return tree


def prepend_priority_subtree(tree: PolicyTree, sub: PolicyTree) -> PolicyTree:
    """Give ``sub`` the highest priority.

    If the root is already a sequence the subtree becomes its first
    child; otherwise a new sequence root is created over [sub, old root].
    """
    return _attach_at_root(tree, sub, first=True)


def append_subtree(tree: PolicyTree, sub: PolicyTree) -> PolicyTree:
    """Attach ``sub`` after everything else, mirroring prepend."""
    return _attach_at_root(tree, sub, first=False)


def _attach_at_root(tree: PolicyTree, sub: PolicyTree, first: bool) -> PolicyTree:
    _check_disjoint(tree, sub)
    root = tree.node(tree.root)
    if root.kind == "sequence":
        tree.nodes.update(sub.nodes)
        root.children.insert(0 if first else len(root.children), sub.root)
        return tree
    new_id = max(tree.next_id(), max(sub.nodes) + 1)
    children = [sub.root, tree.root] if first else [tree.root, sub.root]
    tree.nodes.update(sub.nodes)
    tree.nodes[new_id] = BtNode(id=new_id, kind="sequence", name="root", children=children)
    tree.root = new_id
    return tree


def count_elements(tree: PolicyTree) -> dict:
    """Node/edge/graphical/active element counts of the tree."""
    nodes = len(tree.nodes)
    edges = sum(len(n.children) for n in tree.nodes.values())
    return {"nodes": nodes, "edges": edges, "graphical": nodes + edges, "active": nodes}


# ---------------------------------------------------------------------------
# small construction helpers used by the planner, fixtures and tests


class TreeBuilder:
    """Allocates ids monotonically while assembling a tree."""

    def __init__(self, start: int = 0):
        self._next = start
        self.nodes: dict[int, BtNode] = {}

    def add(self, kind: str, name: str = "", *, children: Iterable[int] = (),
            skill: str = "", args: tuple = (), literal: ConditionLiteral | None = None,
            threshold: int = 0) -> int:
        nid = self._next
        self._next += 1
        self.nodes[nid] = BtNode(
            id=nid, kind=kind, name=name, children=list(children),
            skill=skill, args=tuple(args), literal=literal, threshold=threshold,
        )
        return nid

    def condition(self, literal: ConditionLiteral) -> int:
        return self.add("condition", f"{literal.key()}?", literal=literal)

    def action(self, skill: str, args: tuple = (), name: str = "") -> int:
        label = name or f"{skill}({', '.join(str(a) for a in args)})!"
        return self.add("action", label, skill=skill, args=tuple(args))

    def build(self, root: int) -> PolicyTree:
        tree = PolicyTree(nodes=self.nodes, root=root)
        tree.validate()
        return tree
