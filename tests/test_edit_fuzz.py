"""Random edits of packaged policies: each edit refuses or leaves a policy
that reads back and runs.

Each trial takes one of eight packaged policies and makes one to five
edits, drawn from the four tree edits or the four machine edits, with
random targets, ids, indices, states and subtrees; some grafts are
chains that would take the tree past ``bt.MAX_DEPTH`` levels. An edit
that raises ``EditError`` must leave the serialized policy as it was.
After any other edit the policy must serialize, parse back to the same
bytes and run on the baseline scenario to an outcome or a
``PolicyError``, in a world that keeps its invariants. A machine left
after machine edits counts as many edges as its graph holds.
"""

import random
from collections import Counter

from policylab import bt, documents, fixtures, fsm, metrics, simworld
from policylab.core import ConditionLiteral as L, EditError, Guard, PolicyError

POLICIES = ("fetch_bt", "fetch_bt_recharge", "fetch_bt_memory", "fetch_bt_compact",
            "fetch_fsm", "fetch_fsm_recharge", "fetch_fsm_sequential", "fetch_fsm_dock")
TRIALS = 300
SEED = 20261020
LITERALS = (L("robot_at", ("fetch1",)), L("robot_at", ("delivery",)), L("in_hand", ("cube2",)),
            L("object_at", ("cube2", "delivery")), L("battery_above", (20,)),
            L("arm_tucked"), L("docked"), L("found"))
#: (skill, args) pairs the simulator can run; at most one moves the base
MOTIONS = (("move_to", ("fetch1",)), ("move_to", ("delivery",)), ("safe_move_to", ("fetch1",)),
           ("recharge", ()), ("dock", ()), ("search", ()))
STILL = (("pick", ("cube2",)), ("place", ("cube2",)), ("tuck", ()))
CONTROLS = ("sequence", "fallback", "memory_sequence", "parallel")


def random_subtree(rng: random.Random, start: int) -> bt.PolicyTree:
    """A valid tree with ids from ``start`` on: a few levels of random
    nodes, or now and then a chain of one-child sequences up to
    ``bt.MAX_DEPTH`` levels deep, which most grafts take past it."""
    builder = bt.TreeBuilder(start)
    if rng.random() < 0.1:
        node = builder.action(*rng.choice(STILL))
        for _ in range(rng.randint(bt.MAX_DEPTH - 10, bt.MAX_DEPTH - 1)):
            node = builder.add("sequence", "s", children=[node])
        return builder.build(node)
    return builder.build(grow(builder, rng, rng.randint(1, 4), motion=True))


def grow(builder: bt.TreeBuilder, rng: random.Random, levels: int, motion: bool) -> int:
    """A random node of at most ``levels`` levels; it holds a motion action
    only if ``motion`` allows one, and a parallel node allows one under a
    single child."""
    if levels == 1 or rng.random() < 0.3:
        if rng.random() < 0.4:
            return builder.condition(rng.choice(LITERALS))
        return builder.action(*rng.choice(MOTIONS + STILL if motion else STILL))
    kind = rng.choice(CONTROLS)
    count = rng.randint(1, 3)
    moving = rng.randrange(count) if kind == "parallel" else None
    children = [grow(builder, rng, levels - 1, motion and moving in (None, index))
                for index in range(count)]
    return builder.add(kind, kind, children=children,
                       threshold=rng.randint(1, count) if kind == "parallel" else 0)


def some_id(rng: random.Random, ids) -> int:
    """Mostly one of ``ids``, now and then one next to them or below them."""
    ids = sorted(ids)
    return rng.choice(ids) if rng.random() < 0.85 else rng.choice((-1, ids[-1] + 1))


def fresh_id(rng: random.Random, ids) -> int:
    """Mostly the next free id, now and then one already in use."""
    return max(ids) + 1 if rng.random() < 0.9 else rng.choice(sorted(ids))


def tree_edit(rng: random.Random, tree: bt.PolicyTree) -> str:
    """Make one random tree edit; its name."""
    edit = rng.choice(("insert", "remove", "prepend", "append"))
    if edit == "remove":
        bt.remove_subtree(tree, some_id(rng, tree.nodes))
        return edit
    sub = random_subtree(rng, fresh_id(rng, tree.nodes))
    if edit == "insert":  # mostly under a control node, where a graft can go
        controls = [nid for nid, node in tree.nodes.items() if node.is_control()]
        parent = some_id(rng, controls if rng.random() < 0.8 else tree.nodes)
        width = len(tree.nodes[parent].children) if parent in tree.nodes else 0
        bt.insert_subtree(tree, parent, rng.randint(-1, width + 1), sub)
    elif edit == "prepend":
        bt.prepend_priority_subtree(tree, sub)
    else:
        bt.append_subtree(tree, sub)
    return edit


def machine_edit(rng: random.Random, machine: fsm.StateMachine) -> str:
    """Make one random machine edit; its name."""
    edit = rng.choice(("sequential", "alternative", "connected", "remove"))
    if edit == "remove":
        fsm.remove_state(machine, some_id(rng, machine.states))
        return edit
    skill, args = rng.choice(MOTIONS + STILL)
    state = fsm.FsmState(
        fresh_id(rng, machine.states), rng.choice(("skill",) * 8 + ("selector", "outcome")),
        f"{skill}!", skill, args, tuple(rng.sample(LITERALS, rng.randint(0, 2))),
        rng.choice(LITERALS + (None,)))
    if edit == "connected":
        fsm.add_connected_state(machine, state, Guard(rng.choice(LITERALS), rng.random() < 0.5))
    else:
        add = fsm.add_sequential_state if edit == "sequential" else fsm.add_alternative_state
        add(machine, some_id(rng, machine.states), state)
    return edit


def test_an_edit_refuses_or_leaves_a_policy_that_reads_back_and_runs(checked_worlds):
    rng = random.Random(SEED)
    baseline = fixtures.load_scenario("baseline")
    edits, ends, faults = Counter(), Counter(), []
    for trial in range(TRIALS):
        name = rng.choice(POLICIES)
        policy = fixtures.load_policy(name)
        edit = tree_edit if isinstance(policy, bt.PolicyTree) else machine_edit
        for _ in range(rng.randint(1, 5)):
            before = documents.serialize_policy(policy)
            try:
                made = edit(rng, policy)
            except EditError:
                edits["refused"] += 1
                if documents.serialize_policy(policy) != before:
                    faults.append(f"trial {trial} ({name}): a refused edit changed the policy")
                continue
            edits[made] += 1
            text = documents.serialize_policy(policy)
            try:
                again = documents.parse_policy_document(text)
            except PolicyError as exc:
                faults.append(f"trial {trial} ({name}): after {made}, {exc}")
                break
            if documents.serialize_policy(again) != text:
                faults.append(f"trial {trial} ({name}): after {made}, the bytes drifted")
            try:
                ends[simworld.run_episode(again, baseline).outcome] += 1
            except PolicyError as exc:
                ends[type(exc).__name__] += 1
    assert faults == []
    # every edit ran, both ways
    assert set(edits) == {"refused", "insert", "remove", "prepend", "append", "sequential",
                          "alternative", "connected"}, edits
    assert sum(ends.values()) == sum(edits.values()) - edits["refused"], ends


def test_an_edited_machine_counts_the_edges_of_its_graph():
    rng = random.Random(SEED)
    names = [name for name in POLICIES if "_fsm" in name]
    checked = 0
    for _ in range(TRIALS):
        machine = fixtures.load_policy(rng.choice(names))
        for _ in range(rng.randint(1, 5)):
            try:
                machine_edit(rng, machine)
            except EditError:
                continue
            assert fsm.count_elements(machine)["edges"] == metrics.fsm_to_graph(machine).size()
            checked += 1
    assert checked > TRIALS
