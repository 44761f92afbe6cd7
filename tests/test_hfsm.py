"""The tree-mimicking nested machine: construction and execution."""

import copy

import pytest

from policylab import bt, experiments, fixtures, hfsm, metrics, simworld
from policylab.core import ConditionLiteral as L, Status, ValidationError


class TestFromBt:
    def test_pick_place_subtree_shape(self):
        machine = hfsm.from_bt(fixtures.load_policy("pick_place_subtree"))
        assert machine.kind == "sequence_container"
        fallback, mover = machine.children
        assert fallback.kind == "fallback_container"
        assert [child.kind for child in fallback.children] == ["condition", "action"]
        assert mover.kind == "action"

    def test_structural_bijection(self, fetch_tree):
        machine = hfsm.from_bt(fetch_tree)
        assert {node.id for node in machine.walk()} == set(fetch_tree.nodes)

    def test_single_action_degenerates_to_a_leaf(self):
        builder = bt.TreeBuilder()
        tree = builder.build(builder.action("tuck"))
        machine = hfsm.from_bt(tree)
        assert machine.kind == "action" and not machine.children

    def test_graph_encoding_of_the_fetch_tree(self, fetch_tree):
        graph = metrics.hfsm_to_graph(hfsm.from_bt(fetch_tree))
        assert (graph.order(), graph.size()) == (17, 44)

    def test_parallel_rejected(self):
        builder = bt.TreeBuilder()
        children = [builder.condition(L("docked")), builder.condition(L("found"))]
        root = builder.add("parallel", "p", children=children, threshold=1)
        with pytest.raises(ValidationError,
                           match=f"^cannot express parallel node {root} as a nested machine$"):
            hfsm.from_bt(builder.build(root))

    def test_memory_sequence_rejected(self):
        with pytest.raises(ValidationError,
                           match="^cannot express memory_sequence node 4 as a nested machine$"):
            hfsm.from_bt(fixtures.load_policy("fetch_bt_memory"))

    def test_distinct_trees_give_distinct_encodings(self, fetch_tree):
        machine = hfsm.from_bt(fetch_tree)
        other = hfsm.from_bt(experiments.bt_with_tuck(experiments.fetch_bt()))
        assert not metrics.isomorphic(metrics.hfsm_to_graph(machine),
                                      metrics.hfsm_to_graph(other))


class TestStep:
    def test_fresh_world_matches_a_tree_tick(self, fetch_tree, scripted_world):
        machine = hfsm.from_bt(fetch_tree)
        mirror = copy.deepcopy(scripted_world)
        assert hfsm.step(machine, scripted_world) is bt.tick(fetch_tree, mirror)
        assert scripted_world.started == mirror.started == [("move_to", ("fetch1",))]
        assert machine.last_visited == fetch_tree.last_tick_visited

    def test_goal_satisfied_needs_no_skills(self, fetch_tree, scripted_world):
        machine = hfsm.from_bt(fetch_tree)
        scripted_world.set_true("object_at(cube2, delivery)")
        assert hfsm.step(machine, scripted_world) is Status.SUCCESS
        assert scripted_world.started == []

    def test_running_leaf_is_polled_not_restarted(self, fetch_tree, scripted_world):
        machine = hfsm.from_bt(fetch_tree)
        hfsm.step(machine, scripted_world)
        hfsm.step(machine, scripted_world)
        assert scripted_world.started == [("move_to", ("fetch1",))]

    def test_halt_cancels_preempted_leaves(self, scripted_world):
        machine = hfsm.from_bt(experiments.bt_with_recharge(experiments.fetch_bt()))
        scripted_world.set_true("battery_above(20)")
        hfsm.step(machine, scripted_world)
        scripted_world.set_false("battery_above(20)")
        hfsm.step(machine, scripted_world)
        cancelled = hfsm.halt_unvisited(machine, scripted_world)
        assert cancelled == {("move_to", ("fetch1",))}

    def test_active_leaves_map_ids_to_their_leaves(self, fetch_tree, scripted_world):
        machine = hfsm.from_bt(fetch_tree)
        hfsm.step(machine, scripted_world)
        [(leaf_id, leaf)] = machine.active_leaves.items()
        assert leaf.id == leaf_id and leaf.kind == "action"
        assert leaf.skill_key() == ("move_to", ("fetch1",))

    def test_finished_leaf_is_dropped_without_a_cancel(self, scripted_world):
        machine = hfsm.from_bt(experiments.bt_with_recharge(experiments.fetch_bt()))
        scripted_world.set_true("battery_above(20)")
        hfsm.step(machine, scripted_world)
        [move_leaf] = machine.active_leaves
        scripted_world.advance(2)  # move_to finishes before the preempting step
        scripted_world.set_false("battery_above(20)")
        hfsm.step(machine, scripted_world)
        assert move_leaf not in machine.last_visited
        assert hfsm.halt_unvisited(machine, scripted_world) == set()
        assert scripted_world.cancelled == []
        assert move_leaf not in machine.active_leaves
        assert [leaf.skill for leaf in machine.active_leaves.values()] == ["recharge"]

    def test_step_without_preemption_keeps_the_active_leaves(self, fetch_tree,
                                                            scripted_world):
        machine = hfsm.from_bt(fetch_tree)
        hfsm.step(machine, scripted_world)
        active = dict(machine.active_leaves)
        hfsm.step(machine, scripted_world)
        assert hfsm.halt_unvisited(machine, scripted_world) == set()
        assert machine.active_leaves == active
        assert scripted_world.cancelled == []

    def test_stepping_and_halting_never_walk_the_machine(self, monkeypatch):
        machine = hfsm.from_bt(experiments.bt_with_recharge(experiments.fetch_bt()))

        def refuse_walk(self):
            raise AssertionError("the executor walked the machine")

        monkeypatch.setattr(hfsm.HfsmContainer, "walk", refuse_walk)
        trace = simworld.run_episode(machine, fixtures.load_scenario("recharge"))
        assert trace.outcome == "SUCCESS"
        assert trace.skill_events("skill_preempt")

    def test_runtime_bookkeeping_stays_out_of_equality_and_repr(self, fetch_tree,
                                                               scripted_world):
        machine = hfsm.from_bt(fetch_tree)
        hfsm.step(machine, scripted_world)
        assert machine.active_leaves and machine.last_visited
        assert machine == hfsm.from_bt(fetch_tree)
        assert "active_leaves" not in repr(machine)
        assert "last_visited" not in repr(machine)

    @pytest.mark.parametrize("result", [Status.SUCCESS, Status.FAILURE, None],
                             ids=["success", "failure", "runtime-gone"])
    def test_leaf_visited_after_its_skill_ended_returns_its_result(self, result,
                                                                   scripted_world):
        builder = bt.TreeBuilder()
        tree = builder.build(builder.action("tuck"))
        machine = hfsm.from_bt(tree)
        tree_world = copy.deepcopy(scripted_world)
        hfsm.step(machine, scripted_world)
        bt.tick(tree, tree_world)
        for world in (scripted_world, tree_world):
            if result is None:  # the world forgot the skill: no runtime, no result
                world.running.clear()
            else:
                world.results["tuck"] = result
                world.advance(2)
        expected = Status.FAILURE if result is None else result
        assert hfsm.step(machine, scripted_world) is expected
        assert bt.tick(tree, tree_world) is expected
        assert machine.active_leaves == {}
        assert scripted_world.started == [("tuck", ())]
