"""Canonical tasks and the policy modification recipes.

Two tasks anchor everything: the single-cube fetch (move, pick, move,
place) and the scalability task, which :func:`generated_task` builds
with five cubes (search, one fetch round per cube, dock) and which it
grows to any size. The modification recipes reproduce the four case
studies used by the structure metrics: tucking the arm after grasping,
a safer motion alternative, docking at the end, and battery recharge as
a connected high-priority behavior.

The libraries and goals are built here, as are the trees and machines
derived from them by the planner and the recipes. The scalability tree
and machine are synthesized once per process (``_scalability_policies``,
a ``functools.cache``) and every caller gets copies, as
:mod:`policylab.fixtures` does for each parsed document. The hand-written
trees and the scenarios have no builder: their packaged documents
define them (see :mod:`policylab.fixtures`).
"""

from __future__ import annotations

import functools

from . import bt, fsm
from .core import ActionSpec, ConditionLiteral as L, EditError, Goal, Guard, validate_action_library
from .planner import backchain, extract_plan, synthesize

CUBE = "cube2"
FETCH_STATION = "fetch1"
BATTERY_THRESHOLD = 20

BATTERY_OK = L("battery_above", (BATTERY_THRESHOLD,))
LOW_BATTERY = Guard(BATTERY_OK, negated=True)


# ---------------------------------------------------------------------------
# action libraries and goals


def fetch_library(with_safe_move: bool = False):
    """The four-action fetch task; optionally a safer motion alternative.

    The place action deliberately declares its navigation precondition
    first: the naive expansion order then yields the chattering
    controller, while the safe order repairs it.
    """
    specs = [
        ActionSpec("move_to", (FETCH_STATION,),
                   postconditions=(L("robot_at", (FETCH_STATION,)),),
                   skill="move_to"),
    ]
    if with_safe_move:
        specs.append(ActionSpec("safe_move_to", (FETCH_STATION,),
                                postconditions=(L("robot_at", (FETCH_STATION,)),),
                                skill="safe_move_to"))
    specs += [
        ActionSpec("pick", (CUBE,),
                   preconditions=(L("robot_at", (FETCH_STATION,)),),
                   postconditions=(L("in_hand", (CUBE,)),),
                   skill="pick"),
        ActionSpec("move_to", ("delivery",),
                   postconditions=(L("robot_at", ("delivery",)),),
                   skill="move_to"),
        ActionSpec("place", (CUBE,),
                   preconditions=(L("robot_at", ("delivery",)), L("in_hand", (CUBE,))),
                   postconditions=(L("object_at", (CUBE, "delivery")),),
                   skill="place"),
    ]
    return validate_action_library(specs)


def fetch_goal() -> Goal:
    return Goal(conditions=(L("object_at", (CUBE, "delivery")),))


def generated_task(tables, goal_order=None):
    """(goal, library) of the grown task: search, fetch each cube, dock.

    Cube ``n`` sits on station ``fetch{tables[n-1]}``; the goal lists the
    cubes delivered in ``goal_order`` (cube numbers, 1..n by default).
    """
    cubes = {number: f"cube{number}" for number in range(1, len(tables) + 1)}
    specs = [ActionSpec("search", (), postconditions=(L("found"),))]
    for cube, table in zip(cubes.values(), tables):
        station = f"fetch{table}"
        specs += [
            ActionSpec("move_to", (station,), postconditions=(L("robot_at", (station,)),)),
            ActionSpec("pick", (cube,), preconditions=(L("robot_at", (station,)),),
                       postconditions=(L("in_hand", (cube,)),)),
            ActionSpec("place", (cube,),
                       preconditions=(L("robot_at", ("delivery",)), L("in_hand", (cube,))),
                       postconditions=(L("object_at", (cube, "delivery")),)),
        ]
    specs += [ActionSpec("move_to", ("delivery",), postconditions=(L("robot_at", ("delivery",)),)),
              ActionSpec("dock", (), postconditions=(L("docked"),))]
    delivered = [L("object_at", (cubes[number], "delivery")) for number in goal_order or cubes]
    return Goal(conditions=(L("found"), *delivered, L("docked"))), validate_action_library(specs)


# ---------------------------------------------------------------------------
# base policies


def fetch_bt(ordering: str = "safe") -> bt.PolicyTree:
    return backchain(fetch_goal(), fetch_library(), ordering)


def fetch_plan():
    return extract_plan(fetch_goal(), fetch_library())


def fetch_fsm_sequential() -> fsm.StateMachine:
    return fsm.build_sequential(fetch_plan())


def fetch_fsm() -> fsm.StateMachine:
    return fsm.build_fault_tolerant(fetch_plan())


def scalability_bt() -> bt.PolicyTree:
    return _scalability_policies()[0].copy()


def scalability_fsm() -> fsm.StateMachine:
    return _scalability_policies()[1].copy()


def scalability_policies() -> tuple[bt.PolicyTree, fsm.StateMachine]:
    """Fresh copies of the scalability tree and fault-tolerant machine."""
    tree, machine = _scalability_policies()
    return tree.copy(), machine.copy()


@functools.cache
def _scalability_policies() -> tuple[bt.PolicyTree, fsm.StateMachine]:
    """The scalability tree and machine from one planner expansion per
    process; callers get copies, never these objects."""
    tree, plan = synthesize(*generated_task(range(1, 6)))
    return tree, fsm.build_fault_tolerant(plan)


# ---------------------------------------------------------------------------
# node lookup helpers


def find_action(tree: bt.PolicyTree, skill: str, args=None) -> int:
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        if node.kind == "action" and node.skill == skill:
            if args is None or tuple(node.args) == tuple(args):
                return nid
    raise EditError(f"no action node running skill {skill!r}")


def find_condition_parent(tree: bt.PolicyTree, literal: L) -> int:
    for nid in sorted(tree.nodes):
        node = tree.nodes[nid]
        if node.kind == "condition" and node.literal == literal:
            return tree.parent_of(nid)
    raise EditError(f"no condition node for {literal}")


def find_state(machine: fsm.StateMachine, skill: str, args=None) -> int:
    for sid in sorted(machine.states):
        state = machine.states[sid]
        if state.kind == "skill" and state.skill == skill:
            if args is None or tuple(state.args) == tuple(args):
                return sid
    raise EditError(f"no state running skill {skill!r}")


# ---------------------------------------------------------------------------
# behavior tree modification recipes


def _guarded_subtree(start: int, literal: L, skill: str) -> bt.PolicyTree:
    builder = bt.TreeBuilder(start)
    condition = builder.condition(literal)
    action = builder.action(skill)
    root = builder.add("fallback", f"{literal.key()}?", children=[condition, action])
    return builder.build(root)


def tuck_subtree(start: int) -> bt.PolicyTree:
    return _guarded_subtree(start, L("arm_tucked"), "tuck")


def recharge_subtree(start: int) -> bt.PolicyTree:
    return _guarded_subtree(start, BATTERY_OK, "recharge")


def dock_subtree(start: int) -> bt.PolicyTree:
    return _guarded_subtree(start, L("docked"), "dock")


def bt_with_tuck(tree: bt.PolicyTree) -> bt.PolicyTree:
    """Tuck the arm right after grasping.

    The subtree goes between the grasp guard and the delivery guard, so
    it runs once the cube is in hand and is skipped while grasping is
    still in progress.
    """
    grasp_guard = find_condition_parent(tree, L("in_hand", (CUBE,)))
    parent = tree.parent_of(grasp_guard)
    index = tree.node(parent).children.index(grasp_guard) + 1
    return bt.insert_subtree(tree, parent, index, tuck_subtree(tree.next_id()))


def bt_with_safe_move(tree: bt.PolicyTree) -> bt.PolicyTree:
    """Fall back to a slower, safer motion when the normal one fails."""
    fallback = find_condition_parent(tree, L("robot_at", (FETCH_STATION,)))
    builder = bt.TreeBuilder(tree.next_id())
    leaf = builder.action("safe_move_to", (FETCH_STATION,))
    index = len(tree.node(fallback).children)
    return bt.insert_subtree(tree, fallback, index, builder.build(leaf))


def bt_with_recharge(tree: bt.PolicyTree) -> bt.PolicyTree:
    """Recharging takes priority over everything else."""
    return bt.prepend_priority_subtree(tree, recharge_subtree(tree.next_id()))


def bt_with_dock(tree: bt.PolicyTree) -> bt.PolicyTree:
    """Dock once the rest of the task has succeeded."""
    return bt.append_subtree(tree, dock_subtree(tree.next_id()))


def development_bt() -> bt.PolicyTree:
    """Fetch plus recharge plus dock, grown step by step."""
    return bt_with_dock(bt_with_recharge(fetch_bt()))


# ---------------------------------------------------------------------------
# state machine modification recipes


def fsm_with_tuck(machine: fsm.StateMachine) -> fsm.StateMachine:
    pick = find_state(machine, "pick")
    tuck = fsm.FsmState(
        id=machine.next_id(), kind="skill", name="tuck()!", skill="tuck",
        dispatch_pre=(L("in_hand", (CUBE,)),), achieves=L("arm_tucked"),
    )
    return fsm.add_sequential_state(machine, pick, tuck)


def fsm_with_safe_move(machine: fsm.StateMachine) -> fsm.StateMachine:
    mover = find_state(machine, "move_to", (FETCH_STATION,))
    safer = fsm.FsmState(
        id=machine.next_id(), kind="skill",
        name=f"safe_move_to({FETCH_STATION})!", skill="safe_move_to",
        args=(FETCH_STATION,),
    )
    return fsm.add_alternative_state(machine, mover, safer)


def fsm_with_recharge(machine: fsm.StateMachine) -> fsm.StateMachine:
    recharge = fsm.FsmState(
        id=machine.next_id(), kind="skill", name="recharge()!", skill="recharge",
    )
    return fsm.add_connected_state(machine, recharge, LOW_BATTERY)


def fsm_with_dock(machine: fsm.StateMachine) -> fsm.StateMachine:
    place = find_state(machine, "place")
    task_done = tuple(machine.goal)
    dock = fsm.FsmState(
        id=machine.next_id(), kind="skill", name="dock()!", skill="dock",
        dispatch_pre=task_done, achieves=L("docked"),
    )
    machine.goal = task_done + (L("docked"),)
    return fsm.add_sequential_state(machine, place, dock)


def development_fsm() -> fsm.StateMachine:
    return fsm_with_dock(fsm_with_recharge(fetch_fsm()))


#: fixture name -> builder of each derived policy document, with stable node ids
FIXTURE_BUILDERS = {
    "fetch_bt": fetch_bt,
    "fetch_bt_naive": lambda: fetch_bt("naive"),
    "fetch_bt_tuck": lambda: bt_with_tuck(fetch_bt()),
    "fetch_bt_safe_move": lambda: bt_with_safe_move(fetch_bt(ordering="safe")),
    "fetch_bt_dock": lambda: bt_with_dock(fetch_bt()),
    "fetch_bt_recharge": lambda: bt_with_recharge(fetch_bt()),
    "fetch_fsm_sequential": fetch_fsm_sequential,
    "fetch_fsm": fetch_fsm,
    "fetch_fsm_tuck": lambda: fsm_with_tuck(fetch_fsm()),
    "fetch_fsm_safe_move": lambda: fsm_with_safe_move(fetch_fsm()),
    "fetch_fsm_dock": lambda: fsm_with_dock(fetch_fsm()),
    "fetch_fsm_recharge": lambda: fsm_with_recharge(fetch_fsm()),
}

#: task name -> builder of its (goal, library), written as packaged documents
TASKS = {
    "fetch": lambda: (fetch_goal(), fetch_library()),
    "fetch_safe": lambda: (fetch_goal(), fetch_library(with_safe_move=True)),
    "scalability": lambda: generated_task(range(1, 6)),
}
