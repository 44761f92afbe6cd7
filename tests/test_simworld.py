"""Simulator semantics: skills, conditions, episodes, traces."""

import json
import random
from dataclasses import replace

import pytest

from policylab import experiments, fixtures, hfsm, simworld
from policylab.core import ConditionLiteral as L, DocumentError, Status, TRANSIT, WorldError
from policylab.simworld import (
    Perturbation,
    Scenario,
    World,
    detect_chattering,
    parse_scenario_document,
    run_episode,
    serialize_scenario,
    traces_equivalent,
)


def fresh_world(**overrides):
    return World(replace(experiments.baseline_scenario(), **overrides))


class TestSkillLifecycle:
    def test_motion_runs_for_its_duration_then_arrives(self):
        world = fresh_world()
        world.start_skill("move_to", ("delivery",))
        assert world.state.robot_location == TRANSIT
        for _ in range(4):
            world.advance()
            assert world.skill_running("move_to", ("delivery",))
        world.advance()
        assert world.skill_result("move_to", ("delivery",)) is Status.SUCCESS
        assert world.state.robot_location == "delivery"

    def test_pick_away_from_the_item_fails_immediately(self):
        world = fresh_world()
        world.start_skill("pick", ("cube2",))
        assert world.skill_result("pick", ("cube2",)) is Status.FAILURE
        ends = world.events[-1]
        assert ends.kind == "skill_end" and ends.payload["outcome"] == "failure"

    def test_recharge_refills_the_battery(self):
        world = fresh_world(battery=17.0)
        world.start_skill("recharge", ())
        world.advance()
        world.advance()
        assert world.state.battery == 100.0
        assert world.state.robot_location == "recharge"

    def test_second_motion_skill_is_an_error(self):
        world = fresh_world()
        world.start_skill("move_to", ("delivery",))
        with pytest.raises(WorldError, match="motion skill"):
            world.start_skill("dock", ())

    def test_restarting_a_running_skill_joins_it(self):
        world = fresh_world()
        first = world.start_skill("move_to", ("delivery",))
        again = world.start_skill("move_to", ("delivery",))
        assert first is again
        assert sum(1 for e in world.events if e.kind == "skill_start") == 1

    def test_cancel_strands_the_robot_in_transit(self):
        world = fresh_world()
        world.start_skill("move_to", ("delivery",))
        world.advance()
        world.request_cancel("move_to", ("delivery",))
        assert world.state.robot_location == TRANSIT
        assert not world.skill_running("move_to", ("delivery",))

    def test_unknown_skill_rejected(self):
        with pytest.raises(WorldError, match="unknown skill"):
            fresh_world().start_skill("levitate", ())


class TestEvaluate:
    def test_battery_threshold(self):
        world = fresh_world(battery=15.0)
        assert not world.evaluate(L("battery_above", (20,)))
        world.state.battery = 21.0
        assert world.evaluate(L("battery_above", (20,)))

    def test_place_establishes_the_object_location(self):
        world = fresh_world()
        world.state.robot_location = "delivery"
        world.state.holding = "cube2"
        world.state.item_locations.pop("cube2", None)
        world.start_skill("place", ("cube2",))
        for _ in range(3):
            world.advance()
        assert world.evaluate(L("object_at", ("cube2", "delivery")))

    def test_transit_matches_no_station(self):
        world = fresh_world()
        world.start_skill("move_to", ("delivery",))
        assert not world.evaluate(L("robot_at", ("delivery",)))
        assert not world.evaluate(L("robot_at", ("center",)))

    def test_unknown_station_is_an_error_not_failure(self):
        with pytest.raises(WorldError, match="unknown station"):
            fresh_world().evaluate(L("robot_at", ("moonbase",)))


class TestEpisodes:
    def test_baseline_trace(self, fetch_tree):
        trace = run_episode(fetch_tree, experiments.baseline_scenario())
        assert trace.outcome == "SUCCESS" and not trace.timed_out
        assert trace.skill_lifecycle() == [
            ("move_to", ("fetch1",), "success"),
            ("pick", ("cube2",), "success"),
            ("move_to", ("delivery",), "success"),
            ("place", ("cube2",), "success"),
        ]

    def test_traces_are_deterministic(self, fetch_tree):
        first = run_episode(experiments.fetch_bt(), experiments.baseline_scenario())
        second = run_episode(experiments.fetch_bt(), experiments.baseline_scenario())
        assert first.to_jsonl() == second.to_jsonl()

    def test_battery_clamps_at_zero_and_drains_during_motion(self):
        world = fresh_world(battery=5.0)
        world.start_skill("move_to", ("delivery",))
        levels = [world.state.battery]
        for _ in range(5):
            world.advance()
            levels.append(world.state.battery)
        assert levels == [5.0, 3.0, 1.0, 0.0, 0.0, 0.0]
        assert all(later <= earlier for earlier, later in zip(levels, levels[1:]))

    def test_recovery_reexecutes_exactly_the_undone_steps(self, fetch_tree):
        trace = run_episode(fetch_tree, experiments.relocation_scenario())
        lifecycle = trace.skill_lifecycle()
        relocated_at = next(e.tick for e in trace.events if e.kind == "perturbation")
        suffix = [entry for entry in lifecycle[2:]]  # after the first move+pick
        assert suffix == [
            ("move_to", ("delivery",), "cancelled"),
            ("move_to", ("fetch1",), "success"),
            ("pick", ("cube2",), "success"),
            ("move_to", ("delivery",), "success"),
            ("place", ("cube2",), "success"),
        ]
        # the re-execution equals a fresh run from the perturbed situation
        fresh = run_episode(
            experiments.fetch_bt(),
            replace(experiments.baseline_scenario(), robot_location=TRANSIT),
        )
        assert [entry[:2] for entry in fresh.skill_lifecycle()] \
            == [entry[:2] for entry in suffix[1:]]
        assert relocated_at == 10

    def test_sequential_machine_fails_without_recovery(self):
        scenario = replace(experiments.baseline_scenario(),
                           failures=(("move_to", ("fetch1",), 1),))
        trace = run_episode(experiments.fetch_fsm_sequential(), scenario)
        assert trace.outcome == "FAILURE"
        assert trace.skill_lifecycle() == [("move_to", ("fetch1",), "failure")]

    def test_fault_tolerant_machine_retries_after_a_transient_failure(self):
        scenario = replace(experiments.baseline_scenario(),
                           failures=(("move_to", ("fetch1",), 1),))
        trace = run_episode(experiments.fetch_fsm(), scenario)
        assert trace.outcome == "SUCCESS"
        assert trace.skill_lifecycle()[0] == ("move_to", ("fetch1",), "failure")
        assert trace.skill_lifecycle()[1] == ("move_to", ("fetch1",), "success")

    def test_alternative_strategy_takes_over_in_the_machine(self):
        scenario = replace(experiments.baseline_scenario(),
                           failures=(("move_to", ("fetch1",), 1),))
        machine = experiments.fsm_with_safe_move(experiments.fetch_fsm())
        trace = run_episode(machine, scenario)
        assert trace.outcome == "SUCCESS"
        assert trace.skill_lifecycle()[:2] == [
            ("move_to", ("fetch1",), "failure"),
            ("safe_move_to", ("fetch1",), "success"),
        ]

    def test_timeout_is_flagged(self, fetch_tree):
        scenario = replace(experiments.baseline_scenario(), max_ticks=3)
        trace = run_episode(fetch_tree, scenario)
        assert trace.outcome == "TIMEOUT" and trace.timed_out


class TestEquivalence:
    def test_projection_ignores_absolute_ticks(self, fetch_tree):
        slow = replace(experiments.baseline_scenario(),
                       durations={"move_to": 9}, max_ticks=200)
        fast = experiments.baseline_scenario()
        assert traces_equivalent(run_episode(experiments.fetch_bt(), slow),
                                 run_episode(fetch_tree, fast))

    def test_tree_and_machines_tell_the_same_story(self, fetch_tree):
        scenario = experiments.baseline_scenario()
        tree_trace = run_episode(fetch_tree, scenario)
        machine_trace = run_episode(experiments.fetch_fsm(),
                                    experiments.baseline_scenario())
        nested_trace = run_episode(hfsm.from_bt(experiments.fetch_bt()),
                                   experiments.baseline_scenario())
        assert traces_equivalent(tree_trace, machine_trace)
        assert traces_equivalent(tree_trace, nested_trace)

    def test_divergent_policies_are_not_equivalent(self, fetch_tree):
        baseline = run_episode(fetch_tree, experiments.baseline_scenario())
        chattering = run_episode(experiments.fetch_bt("naive"),
                                 experiments.baseline_scenario())
        assert not traces_equivalent(baseline, chattering)

    def test_tuck_variants_agree_and_tuck_after_grasping(self):
        tree_trace = run_episode(experiments.bt_with_tuck(experiments.fetch_bt()),
                                 experiments.baseline_scenario())
        machine_trace = run_episode(experiments.fsm_with_tuck(experiments.fetch_fsm()),
                                    experiments.baseline_scenario())
        skills = [entry[0] for entry in tree_trace.skill_lifecycle()]
        assert skills == ["move_to", "pick", "tuck", "move_to", "place"]
        assert traces_equivalent(tree_trace, machine_trace)


def _battery_drop(tick: int):
    return replace(experiments.recharge_scenario(),
                   perturbations=(Perturbation(tick, "set_battery", (15,)),))


#: case -> (tree builder, scenario with one perturbation at a given tick)
PREEMPTION_CASES = {
    "recharge": (lambda: experiments.bt_with_recharge(experiments.fetch_bt()),
                 _battery_drop),
    "knocked_cube": (experiments.fetch_bt, experiments.relocation_scenario),
}
# perturbation ticks drawn within the 21-tick unperturbed fetch episode
PREEMPTION_TICKS = sorted(random.Random(7).sample(range(1, 21), 12))


class TestNestedMachineUnderPreemption:
    @pytest.mark.parametrize("case", sorted(PREEMPTION_CASES))
    def test_nested_machine_mirrors_the_tree(self, case):
        build_tree, scenario_at = PREEMPTION_CASES[case]
        preempted = 0
        for tick in PREEMPTION_TICKS:
            tree = build_tree()
            nested = hfsm.from_bt(tree)
            tree_trace = run_episode(tree, scenario_at(tick))
            nested_trace = run_episode(nested, scenario_at(tick))
            assert traces_equivalent(tree_trace, nested_trace), f"{case} @ tick {tick}"
            assert nested_trace.outcome == tree_trace.outcome
            preempted += len(nested_trace.skill_events("skill_preempt"))
        # the sweep must actually exercise the preemption path
        assert preempted > 0


class TestChattering:
    def test_naive_ordering_chatters_forever(self):
        trace = run_episode(experiments.fetch_bt("naive"),
                            experiments.baseline_scenario())
        assert trace.outcome == "TIMEOUT"
        assert detect_chattering(trace)
        preempts = [e for e in trace.events if e.kind == "skill_preempt"]
        assert len(preempts) >= 3
        assert {tuple(e.payload["args"]) for e in preempts} == {("fetch1",)}

    def test_safe_ordering_does_not_chatter(self, fetch_tree):
        trace = run_episode(fetch_tree, experiments.baseline_scenario())
        assert trace.outcome == "SUCCESS"
        assert not detect_chattering(trace)
        # on an unperturbed run the safe ordering never cancels anything
        assert trace.skill_events("skill_preempt") == []

    def test_single_preemption_recovery_is_not_chattering(self):
        trace = run_episode(experiments.bt_with_recharge(experiments.fetch_bt()),
                            experiments.recharge_scenario())
        assert not detect_chattering(trace)

    def test_empty_trace(self):
        assert not detect_chattering(simworld.Trace())


class TestScenarioDocuments:
    def test_round_trip(self):
        scenario = experiments.recharge_scenario()
        text = serialize_scenario(scenario)
        assert serialize_scenario(parse_scenario_document(text)) == text

    def test_perturbation_ticks_must_increase(self):
        with pytest.raises(Exception, match="strictly increasing"):
            Scenario(perturbations=(
                Perturbation(5, "set_battery", (10,)),
                Perturbation(5, "set_battery", (20,)),
            )).validate()

    def test_unknown_perturbation_event(self):
        with pytest.raises(Exception, match="unknown perturbation"):
            Scenario(perturbations=(Perturbation(1, "teleport", ()),)).validate()

    @staticmethod
    def _baseline_with(**fields) -> str:
        doc = experiments.baseline_scenario().to_dict()
        doc.update(fields)
        return json.dumps(doc)

    def test_battery_must_be_a_number(self):
        with pytest.raises(DocumentError, match="battery: expected a number"):
            parse_scenario_document(self._baseline_with(battery="full"))

    def test_max_ticks_must_be_an_integer(self):
        with pytest.raises(DocumentError, match="max_ticks: expected an integer"):
            parse_scenario_document(self._baseline_with(max_ticks="10"))

    def test_set_battery_needs_its_argument(self):
        text = self._baseline_with(perturbations=[{"tick": 3, "event": "set_battery"}])
        with pytest.raises(DocumentError, match=r"perturbations\[0\]\.args: set_battery"):
            parse_scenario_document(text)

    @pytest.mark.parametrize("event, args", [
        ("set_item_location", ["cube2"]),
        ("set_item_location", ["cube2", "moon"]),
        ("set_item_location", ["cube9", "fetch1"]),
        ("set_battery", [True]),
        ("force_fail_next", ["fly"]),
        ("force_fail_next", []),
    ])
    def test_perturbation_arguments_are_checked(self, event, args):
        text = self._baseline_with(
            perturbations=[{"tick": 3, "event": event, "args": args}])
        with pytest.raises(DocumentError, match=r"perturbations\[0\]\.args"):
            parse_scenario_document(text)

    def test_packaged_scenarios_still_parse_unchanged(self):
        for name in sorted(experiments.SCENARIO_BUILDERS):
            text = fixtures.scenario_path(name).read_text()
            assert serialize_scenario(parse_scenario_document(text)) == text

    def test_trace_jsonl_has_stable_field_order(self, fetch_tree):
        trace = run_episode(fetch_tree, experiments.baseline_scenario())
        first = trace.to_jsonl().splitlines()[0]
        assert first.startswith('{"tick": 0, "kind": "skill_start"')
