"""Behavior tree engine semantics and edit operations."""

import copy

import pytest

from policylab import bt, documents, experiments, fixtures, hfsm, simworld
from policylab.core import ConditionLiteral as L, EditError, Status, ValidationError


FETCH_CONDITIONS = (
    "object_at(cube2, delivery)", "in_hand(cube2)",
    "robot_at(fetch1)", "robot_at(delivery)",
)


def snapshot(tree):
    return {nid: (node.kind, node.name, tuple(node.children))
            for nid, node in tree.nodes.items()}


def touched_existing(before, tree):
    after = snapshot(tree)
    return [nid for nid in before if nid in after and before[nid] != after[nid]]


class TestTick:
    def test_goal_satisfied_short_circuits_without_skills(self, fetch_tree, scripted_world):
        scripted_world.set_true(*FETCH_CONDITIONS)
        assert bt.tick(fetch_tree, scripted_world) is Status.SUCCESS
        assert scripted_world.started == []

    def test_fresh_world_starts_the_first_navigation(self, fetch_tree, scripted_world):
        assert bt.tick(fetch_tree, scripted_world) is Status.RUNNING
        assert scripted_world.started == [("move_to", ("fetch1",))]

    def test_running_skill_is_polled_not_restarted(self, fetch_tree, scripted_world):
        bt.tick(fetch_tree, scripted_world)
        bt.tick(fetch_tree, scripted_world)
        assert scripted_world.started == [("move_to", ("fetch1",))]

    def test_low_battery_preempts_the_running_motion(self, scripted_world):
        tree = experiments.bt_with_recharge(experiments.fetch_bt())
        scripted_world.set_true("battery_above(20)")
        bt.tick(tree, scripted_world)
        assert ("move_to", ("fetch1",)) in scripted_world.started
        scripted_world.set_false("battery_above(20)")
        status = bt.tick(tree, scripted_world)
        cancelled = bt.halt_unvisited(tree, scripted_world)
        assert status is Status.RUNNING
        assert scripted_world.started[-1] == ("recharge", ())
        assert cancelled == {("move_to", ("fetch1",))}

    def test_fallback_short_circuit_leaves_later_children_unvisited(self, fetch_tree, scripted_world):
        scripted_world.set_true("robot_at(fetch1)")
        bt.tick(fetch_tree, scripted_world)
        mover = experiments.find_action(fetch_tree, "move_to", ("fetch1",))
        assert mover not in fetch_tree.last_tick_visited
        assert ("move_to", ("fetch1",)) not in scripted_world.started

    def test_determinism_same_snapshot_same_outcome(self, scripted_world):
        one, two = experiments.fetch_bt(), experiments.fetch_bt()
        other = copy.deepcopy(scripted_world)
        assert bt.tick(one, scripted_world) == bt.tick(two, other)
        assert one.last_tick_visited == two.last_tick_visited
        assert scripted_world.started == other.started

    def test_at_most_one_action_runs_without_parallel_nodes(self, scripted_world):
        tree = experiments.bt_with_recharge(experiments.fetch_bt())
        scripted_world.set_true("battery_above(20)")
        for _ in range(12):
            bt.tick(tree, scripted_world)
            bt.halt_unvisited(tree, scripted_world)
            assert len(tree.active_actions) <= 1
            scripted_world.advance()

    def test_condition_evaluation_error_is_not_failure(self, fetch_tree):
        class Broken:
            def evaluate(self, literal):
                raise RuntimeError("sensor offline")

        with pytest.raises(RuntimeError, match="sensor offline"):
            bt.tick(fetch_tree, Broken())


class TestHalt:
    def test_identical_visits_cancel_nothing(self, fetch_tree, scripted_world):
        bt.tick(fetch_tree, scripted_world)
        assert bt.halt_unvisited(fetch_tree, scripted_world) == set()
        bt.tick(fetch_tree, scripted_world)
        assert bt.halt_unvisited(fetch_tree, scripted_world) == set()

    def test_finished_skill_is_not_reported_cancelled(self, fetch_tree, scripted_world):
        bt.tick(fetch_tree, scripted_world)
        scripted_world.advance(5)  # move completes
        scripted_world.set_true("robot_at(fetch1)")
        bt.tick(fetch_tree, scripted_world)
        assert bt.halt_unvisited(fetch_tree, scripted_world) == set()


class TestMemorySequence:
    def test_succeeded_children_are_skipped(self, scripted_world):
        tree = fixtures.load_policy("fetch_bt_memory")
        scripted_world.durations = {"move_to": 1, "pick": 1, "place": 1}
        bt.tick(tree, scripted_world)
        scripted_world.advance()
        bt.tick(tree, scripted_world)  # move done, pick starts
        scripted_world.advance()
        bt.tick(tree, scripted_world)
        assert scripted_world.started[:3] == [
            ("move_to", ("fetch1",)), ("pick", ("cube2",)), ("move_to", ("delivery",)),
        ]
        # the first mover never restarts while the sequence is under way
        assert scripted_world.started.count(("move_to", ("fetch1",))) == 1

    def test_failure_resets_the_marks(self, scripted_world):
        tree = fixtures.load_policy("fetch_bt_memory")
        scripted_world.durations = {"move_to": 1, "pick": 1}
        scripted_world.results = {"pick": Status.FAILURE}
        bt.tick(tree, scripted_world)
        scripted_world.advance()
        bt.tick(tree, scripted_world)
        scripted_world.advance()
        assert bt.tick(tree, scripted_world) is Status.FAILURE
        root = tree.root
        assert tree.memory_marks[root] == 0


class TestParallel:
    def build(self, threshold):
        builder = bt.TreeBuilder()
        checks = [builder.condition(L("docked")), builder.condition(L("arm_tucked")),
                  builder.condition(L("found"))]
        root = builder.add("parallel", "together", children=checks, threshold=threshold)
        return builder.build(root)

    def test_success_at_threshold(self, scripted_world):
        scripted_world.set_true("docked()", "arm_tucked()")
        assert bt.tick(self.build(2), scripted_world) is Status.SUCCESS

    def test_failure_when_threshold_unreachable(self, scripted_world):
        scripted_world.set_true("docked()")
        assert bt.tick(self.build(3), scripted_world) is Status.FAILURE

    def test_running_while_undecided(self, scripted_world):
        builder = bt.TreeBuilder()
        children = [builder.condition(L("docked")), builder.action("tuck")]
        root = builder.add("parallel", "p", children=children, threshold=2)
        tree = builder.build(root)
        scripted_world.set_true("docked()")
        assert bt.tick(tree, scripted_world) is Status.RUNNING

    def test_motion_under_two_children_is_rejected(self):
        builder = bt.TreeBuilder()
        look = builder.add("sequence", "s", children=[builder.action("search")])
        children = [builder.action("move_to", ("fetch1",)), builder.action("pick", ("cube2",)),
                    look]
        root = builder.add("parallel", "p", children=children, threshold=1)
        with pytest.raises(ValidationError, match=f"node {root}: parallel has motion actions "
                                                  "under 2 children"):
            builder.build(root)

    def test_motion_under_one_child_is_accepted(self):
        builder = bt.TreeBuilder()
        children = [builder.action("move_to", ("fetch1",)), builder.action("pick", ("cube2",))]
        builder.build(builder.add("parallel", "p", children=children, threshold=1))

    def one_of_docked_or_tuck(self):
        builder = bt.TreeBuilder()
        children = [builder.condition(L("docked")), builder.action("tuck")]
        return builder.build(builder.add("parallel", "p", children=children, threshold=1))

    def test_decided_parallel_halts_its_running_children(self, scripted_world):
        tree = self.one_of_docked_or_tuck()
        assert bt.tick(tree, scripted_world) is Status.RUNNING
        bt.halt_unvisited(tree, scripted_world)
        scripted_world.set_true("docked()")
        assert bt.tick(tree, scripted_world) is Status.SUCCESS
        assert bt.halt_unvisited(tree, scripted_world) == {("tuck", ())}
        assert scripted_world.cancelled == [("tuck", ())]

    def test_decided_parallel_drops_the_starts_of_this_tick(self, scripted_world):
        tree = self.one_of_docked_or_tuck()
        scripted_world.set_true("docked()")
        assert bt.tick(tree, scripted_world) is Status.SUCCESS
        bt.halt_unvisited(tree, scripted_world)
        assert scripted_world.started == [] and tree.active_actions == set()

    def test_halted_memory_sequence_restarts_from_its_first_child(self, scripted_world):
        builder = bt.TreeBuilder()
        steps = builder.add("memory_sequence", "tuck then pick",
                            children=[builder.action("tuck"), builder.action("pick", ("cube2",))])
        children = [builder.condition(L("docked")), steps]
        tree = builder.build(builder.add("parallel", "p", children=children, threshold=1))
        bt.tick(tree, scripted_world)
        scripted_world.advance(2)
        assert bt.tick(tree, scripted_world) is Status.RUNNING
        assert scripted_world.started == [("tuck", ()), ("pick", ("cube2",))]
        scripted_world.set_true("docked()")
        assert bt.tick(tree, scripted_world) is Status.SUCCESS
        bt.halt_unvisited(tree, scripted_world)
        scripted_world.set_false("docked()")
        assert bt.tick(tree, scripted_world) is Status.RUNNING
        assert scripted_world.started[-1] == ("tuck", ())


class TestEdits:
    def test_insert_touches_exactly_the_parent(self, fetch_tree):
        before = snapshot(fetch_tree)
        pick = experiments.find_action(fetch_tree, "pick")
        parent = fetch_tree.parent_of(pick)
        sub = experiments.tuck_subtree(fetch_tree.next_id())
        bt.insert_subtree(fetch_tree, parent, 2, sub)
        assert touched_existing(before, fetch_tree) == [parent]
        assert len(fetch_tree.nodes) == 17

    def test_insert_then_remove_restores_the_structure(self, fetch_tree):
        reference = snapshot(fetch_tree)
        pick = experiments.find_action(fetch_tree, "pick")
        parent = fetch_tree.parent_of(pick)
        sub = experiments.tuck_subtree(fetch_tree.next_id())
        bt.insert_subtree(fetch_tree, parent, 2, sub)
        bt.remove_subtree(fetch_tree, sub.root)
        assert snapshot(fetch_tree) == reference

    def test_remove_leaf_counts(self, fetch_tree):
        place = experiments.find_action(fetch_tree, "place")
        before = snapshot(fetch_tree)
        bt.remove_subtree(fetch_tree, place)
        counts = bt.count_elements(fetch_tree)
        assert (counts["nodes"], counts["edges"]) == (13, 12)
        assert len(touched_existing(before, fetch_tree)) == 1

    def test_remove_unknown_and_root_rejected(self, fetch_tree):
        with pytest.raises(EditError, match="unknown node"):
            bt.remove_subtree(fetch_tree, 999)
        with pytest.raises(EditError, match="root"):
            bt.remove_subtree(fetch_tree, fetch_tree.root)

    def test_insert_under_leaf_rejected(self, fetch_tree):
        pick = experiments.find_action(fetch_tree, "pick")
        sub = experiments.tuck_subtree(fetch_tree.next_id())
        with pytest.raises(EditError, match="leaf"):
            bt.insert_subtree(fetch_tree, pick, 0, sub)

    def test_id_collision_rejected(self, fetch_tree):
        sub = experiments.tuck_subtree(0)
        with pytest.raises(EditError, match="collide"):
            bt.insert_subtree(fetch_tree, fetch_tree.root, 0, sub)

    def test_prepend_creates_a_sequence_root_once(self, fetch_tree):
        bt.prepend_priority_subtree(fetch_tree, experiments.recharge_subtree(fetch_tree.next_id()))
        assert fetch_tree.node(fetch_tree.root).kind == "sequence"
        assert len(fetch_tree.nodes) == 18
        # root already a sequence: appending only grows the child list
        root = fetch_tree.root
        bt.append_subtree(fetch_tree, experiments.dock_subtree(fetch_tree.next_id()))
        assert fetch_tree.root == root
        assert len(fetch_tree.node(root).children) == 3
        assert len(fetch_tree.nodes) == 21

    def test_count_single_node(self):
        builder = bt.TreeBuilder()
        tree = builder.build(builder.action("tuck"))
        assert bt.count_elements(tree) == {
            "nodes": 1, "edges": 0, "graphical": 1, "active": 1,
        }


#: (case, adds the root to a builder, error); a tree read from a document
#: meets these checks in the reader first, with the node's path
BUILDER_DEFECTS = [
    ("unknown kind", lambda b: b.add("decorator", "d", children=[b.action("tuck")]),
     "unknown kind 'decorator'"),
    ("condition with children",
     lambda b: b.add("condition", "c", children=[b.action("tuck")], literal=L("docked")),
     "condition leaves cannot have children"),
    ("empty sequence", lambda b: b.add("sequence", "s"), "sequence needs at least one child"),
]


@pytest.mark.parametrize("add_root, message", [case[1:] for case in BUILDER_DEFECTS],
                         ids=[case[0] for case in BUILDER_DEFECTS])
def test_builder_rejects_a_malformed_node(add_root, message):
    builder = bt.TreeBuilder()
    root = add_root(builder)
    with pytest.raises(ValidationError, match=f"^node {root}: {message}$"):
        builder.build(root)


def test_runtime_bookkeeping_stays_out_of_equality_and_repr(fetch_tree):
    simworld.run_episode(fetch_tree, fixtures.load_scenario("baseline"))
    assert fetch_tree.last_tick_visited
    assert fetch_tree == experiments.fetch_bt()
    for name in ("last_tick_visited", "memory_marks", "active_actions"):
        assert name not in repr(fetch_tree)


def chain(levels: int, start: int = 0) -> tuple:
    """A builder holding ``levels`` levels, one-child sequences over a
    fallback that docks unless docked, and the root id; node ``levels - k + 1``
    is at level k, down to the fallback, with ids counted from ``start``."""
    builder = bt.TreeBuilder(start)
    node = builder.add("fallback", "dock unless docked",
                       children=[builder.condition(L("docked")), builder.action("dock")])
    for _ in range(levels - 2):
        node = builder.add("sequence", "s", children=[node])
    return builder, node


def test_a_tree_deeper_than_the_limit_names_the_first_node_past_it():
    builder, root = chain(bt.MAX_DEPTH + 5)
    with pytest.raises(ValidationError, match=f"^node 5: more than {bt.MAX_DEPTH} levels deep$"):
        builder.build(root)


def test_a_tree_at_the_limit_converts_compares_round_trips_and_runs():
    builder, root = chain(bt.MAX_DEPTH)
    tree = builder.build(root)
    nested = hfsm.from_bt(tree)
    scenario = fixtures.load_scenario("baseline")
    traces = []
    for policy in (tree, nested):
        text = documents.serialize_policy(policy)
        assert documents.parse_policy_document(text) == policy == policy.copy()
        assert repr(policy) == repr(policy.copy())
        trace = simworld.run_episode(policy, scenario)
        assert trace.outcome == "SUCCESS"
        traces.append(trace.to_jsonl())
    assert nested == hfsm.from_bt(tree.copy())
    assert traces[0] == traces[1]


def test_a_graft_past_the_limit_is_refused_and_changes_nothing():
    builder, root = chain(bt.MAX_DEPTH)
    tree = builder.build(root)
    builder, root = chain(bt.MAX_DEPTH, start=1000)
    sub = builder.build(root)
    builder, root = chain(bt.MAX_DEPTH - 1, start=2000)
    fallback_root = builder.build(builder.add("fallback", "f", children=[root]))
    builder, root = chain(2, start=3000)
    two_levels = builder.build(root)
    leaf = bt.TreeBuilder(4000)
    leaf = leaf.build(leaf.action("tuck"))
    before = [documents.serialize_policy(policy) for policy in (tree, sub, fallback_root)]
    edits = [lambda: bt.insert_subtree(tree, tree.root, 0, sub),
             lambda: bt.insert_subtree(tree, 2, 0, two_levels),  # under the level-99 fallback
             lambda: bt.prepend_priority_subtree(tree, sub),
             lambda: bt.append_subtree(tree, sub),
             lambda: bt.prepend_priority_subtree(fallback_root, leaf)]  # a new root on top
    for edit in edits:
        with pytest.raises(EditError, match=f"more than {bt.MAX_DEPTH} levels deep"):
            edit()
        after = [documents.serialize_policy(policy) for policy in (tree, sub, fallback_root)]
        assert after == before


def test_a_graft_up_to_the_limit_serializes_and_parses():
    builder, root = chain(bt.MAX_DEPTH)
    tree = builder.build(root)
    builder, root = chain(bt.MAX_DEPTH - 1, start=1000)
    bt.insert_subtree(tree, tree.root, 0, builder.build(root))
    text = documents.serialize_policy(tree)
    assert documents.parse_policy_document(text) == tree
