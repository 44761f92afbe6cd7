"""Simulator semantics: skills, conditions, episodes, traces."""

import json
import random
from dataclasses import FrozenInstanceError, replace

import pytest

from conftest import (
    ScriptedWorld, packaged_policies, packaged_scenarios, relocation_scenario,
)
from policylab import bt, experiments, fixtures, fsm, hfsm, simworld
from policylab.core import (
    _PREDICATE_ARITY, ConditionLiteral as L, DocumentError, Status, TRANSIT,
    ValidationError, WorldError,
)
from policylab.documents import parse_scenario_document, serialize_scenario
from policylab.simworld import (
    Perturbation,
    Scenario,
    World,
    detect_chattering,
    run_episode,
    traces_equivalent,
)


#: the trace of the tuck machine in the post_success scenario from tick 18,
#: where the perturbation takes the cube out of the hand during ``place``
POST_SUCCESS_TUCK_MACHINE_TAIL = [
    '{"tick": 18, "kind": "perturbation", "event": "set_item_location", '
    '"args": ["cube2", "fetch1"]}',
    '{"tick": 18, "kind": "skill_end", "skill": "place", "args": ["cube2"], '
    '"outcome": "failure", "reason": "not holding cube2"}',
    '{"tick": 19, "kind": "skill_start", "skill": "move_to", "args": ["fetch1"]}',
    '{"tick": 23, "kind": "skill_end", "skill": "move_to", "args": ["fetch1"], '
    '"outcome": "success"}',
    '{"tick": 24, "kind": "skill_start", "skill": "pick", "args": ["cube2"]}',
    '{"tick": 26, "kind": "skill_end", "skill": "pick", "args": ["cube2"], '
    '"outcome": "success"}',
    '{"tick": 27, "kind": "skill_start", "skill": "tuck", "args": []}',
    '{"tick": 29, "kind": "skill_end", "skill": "tuck", "args": [], "outcome": "success"}',
    '{"tick": 30, "kind": "skill_start", "skill": "move_to", "args": ["delivery"]}',
    '{"tick": 34, "kind": "skill_end", "skill": "move_to", "args": ["delivery"], '
    '"outcome": "success"}',
    '{"tick": 35, "kind": "skill_start", "skill": "place", "args": ["cube2"]}',
    '{"tick": 37, "kind": "skill_end", "skill": "place", "args": ["cube2"], '
    '"outcome": "success"}',
    '{"tick": 38, "kind": "policy_status", "status": "SUCCESS"}',
    '{"tick": 39, "kind": "episode_end", "outcome": "SUCCESS", "timed_out": false}',
]


def fresh_world(**overrides):
    return World(replace(fixtures.load_scenario("baseline"), **overrides))


TO_DELIVERY = ("move_to", ("delivery",))


class TestSkillLifecycle:
    def test_world_and_the_stub_define_the_whole_tick_protocol(self):
        members = [name for name in vars(bt.TickWorld) if not name.startswith("_")]
        assert members == ["evaluate", "skill_status", "request_start", "request_cancel"]
        for world in (World, ScriptedWorld):
            assert all(callable(getattr(world, name, None)) for name in members), world

    def test_status_is_none_before_the_first_start(self):
        world = fresh_world()
        assert world.skill_status(TO_DELIVERY) is None
        world.request_start(TO_DELIVERY)
        assert world.skill_status(TO_DELIVERY) is None  # requested, not started
        world.apply_starts()
        assert world.skill_status(TO_DELIVERY) is Status.RUNNING

    def test_motion_runs_for_its_duration_then_arrives(self):
        world = fresh_world()
        world.start_skill(*TO_DELIVERY)
        assert world.state.robot_location == TRANSIT
        for _ in range(4):
            world.advance()
            assert world.skill_status(TO_DELIVERY) is Status.RUNNING
        world.advance()
        assert world.skill_status(TO_DELIVERY) is Status.SUCCESS
        assert world.state.robot_location == "delivery"

    def test_pick_away_from_the_item_fails_immediately(self):
        world = fresh_world()
        world.start_skill("pick", ("cube2",))
        assert world.skill_status(("pick", ("cube2",))) is Status.FAILURE
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
        world.start_skill(*TO_DELIVERY)
        world.advance()
        world.request_cancel(TO_DELIVERY)
        assert world.state.robot_location == TRANSIT
        assert world.skill_status(TO_DELIVERY) is Status.FAILURE
        assert [e.kind for e in world.events] == ["skill_start", "skill_preempt"]

    def test_cancelling_a_finished_skill_does_nothing(self):
        world = fresh_world()
        world.start_skill(*TO_DELIVERY)
        for _ in range(5):
            world.advance()
        events = list(world.events)
        world.request_cancel(TO_DELIVERY)
        world.request_cancel(("pick", ("cube2",)))  # never started
        assert world.skill_status(TO_DELIVERY) is Status.SUCCESS
        assert world.events == events

    def test_unknown_skill_rejected(self):
        with pytest.raises(WorldError, match="unknown skill"):
            fresh_world().start_skill("levitate", ())

    @pytest.mark.parametrize("skill", ["dock", "recharge"])
    def test_a_station_skill_needs_its_station(self, skill):
        stations = tuple(s for s in fixtures.load_scenario("baseline").stations if s != skill)
        world = fresh_world(stations=stations)
        with pytest.raises(WorldError, match=f"^{skill} needs a '{skill}' station the scenario lacks$"):
            world.start_skill(skill, ())


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

    @pytest.mark.parametrize("predicate", sorted(_PREDICATE_ARITY))
    def test_every_predicate_a_policy_may_test_is_answered(self, predicate):
        # a predicate added to core without a case here fails this test,
        # not an episode; stations stand in for every argument but a level
        arity = _PREDICATE_ARITY[predicate]
        args = (50,) if predicate == "battery_above" else ("center",) * arity
        assert fresh_world().evaluate(L(predicate, args)) in (True, False)


class TestEpisodes:
    def test_baseline_trace(self, fetch_tree):
        trace = run_episode(fetch_tree, fixtures.load_scenario("baseline"))
        assert trace.outcome == "SUCCESS" and not trace.timed_out
        assert trace.skill_lifecycle() == [
            ("move_to", ("fetch1",), "success"),
            ("pick", ("cube2",), "success"),
            ("move_to", ("delivery",), "success"),
            ("place", ("cube2",), "success"),
        ]

    def test_traces_are_deterministic(self, fetch_tree):
        first = run_episode(experiments.fetch_bt(), fixtures.load_scenario("baseline"))
        second = run_episode(experiments.fetch_bt(), fixtures.load_scenario("baseline"))
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
        trace = run_episode(fetch_tree, relocation_scenario())
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
            replace(fixtures.load_scenario("baseline"), robot_location=TRANSIT),
        )
        assert [entry[:2] for entry in fresh.skill_lifecycle()] \
            == [entry[:2] for entry in suffix[1:]]
        assert relocated_at == 10

    def test_sequential_machine_fails_without_recovery(self):
        scenario = replace(fixtures.load_scenario("baseline"),
                           failures=(("move_to", ("fetch1",), 1),))
        trace = run_episode(experiments.fetch_fsm_sequential(), scenario)
        assert trace.outcome == "FAILURE"
        assert trace.skill_lifecycle() == [("move_to", ("fetch1",), "failure")]

    def test_fault_tolerant_machine_retries_after_a_transient_failure(self):
        scenario = replace(fixtures.load_scenario("baseline"),
                           failures=(("move_to", ("fetch1",), 1),))
        trace = run_episode(experiments.fetch_fsm(), scenario)
        assert trace.outcome == "SUCCESS"
        assert trace.skill_lifecycle()[0] == ("move_to", ("fetch1",), "failure")
        assert trace.skill_lifecycle()[1] == ("move_to", ("fetch1",), "success")

    def test_alternative_strategy_takes_over_in_the_machine(self):
        scenario = replace(fixtures.load_scenario("baseline"),
                           failures=(("move_to", ("fetch1",), 1),))
        machine = experiments.fsm_with_safe_move(experiments.fetch_fsm())
        trace = run_episode(machine, scenario)
        assert trace.outcome == "SUCCESS"
        assert trace.skill_lifecycle()[:2] == [
            ("move_to", ("fetch1",), "failure"),
            ("safe_move_to", ("fetch1",), "success"),
        ]

    def test_timeout_is_flagged(self, fetch_tree):
        scenario = replace(fixtures.load_scenario("baseline"), max_ticks=3)
        trace = run_episode(fetch_tree, scenario)
        assert trace.outcome == "TIMEOUT" and trace.timed_out

    def test_forced_failure_fails_the_next_start_of_that_skill(self, fetch_tree):
        scenario = replace(fixtures.load_scenario("baseline"), perturbations=(
            Perturbation(5, "force_fail_next", ("pick",)),))
        trace = run_episode(fetch_tree, scenario)
        assert trace.outcome == "SUCCESS"
        assert trace.skill_lifecycle()[1:3] == [("pick", ("cube2",), "failure"),
                                                ("pick", ("cube2",), "success")]
        failed = [e for e in trace.skill_events("skill_end")
                  if e.payload["outcome"] == "failure"]
        assert [(e.tick, e.payload["reason"]) for e in failed] == [(7, "injected failure")]

    def test_place_fails_when_the_item_left_the_hand_while_it_ran(self):
        """The cube is knocked back to its table in the tick ``place``
        completes: the world does not report it placed, and the machine
        fetches it again."""
        machine = fixtures.load_policy("fetch_fsm_tuck")
        trace = run_episode(machine, fixtures.load_scenario("post_success"))
        assert trace.to_jsonl().splitlines()[10:] == POST_SUCCESS_TUCK_MACHINE_TAIL

    def test_failed_parallel_leaves_the_motion_to_the_next_branch(self):
        """The parallel fails on ``docked`` in the tick its other child asks
        for ``safe_move_to``: that start is dropped, so the fallback's next
        branch can move the robot."""
        builder = bt.TreeBuilder()
        both = builder.add("parallel", "both", threshold=2, children=[
            builder.condition(L("docked")), builder.action("safe_move_to", ("delivery",))])
        root = builder.add("fallback", "root",
                           children=[both, builder.action("move_to", ("fetch1",))])
        trace = run_episode(builder.build(root), fixtures.load_scenario("baseline"))
        starts = [(event.payload["skill"], event.payload["args"])
                  for event in trace.skill_events("skill_start")]
        assert starts[0] == ("move_to", ["fetch1"])
        assert ("safe_move_to", ["delivery"]) not in starts


class TestEquivalence:
    def test_projection_ignores_absolute_ticks(self, fetch_tree):
        slow = replace(fixtures.load_scenario("baseline"),
                       durations={"move_to": 9}, max_ticks=200)
        fast = fixtures.load_scenario("baseline")
        assert traces_equivalent(run_episode(experiments.fetch_bt(), slow),
                                 run_episode(fetch_tree, fast))

    def test_tree_and_machines_tell_the_same_story(self, fetch_tree):
        scenario = fixtures.load_scenario("baseline")
        tree_trace = run_episode(fetch_tree, scenario)
        machine_trace = run_episode(experiments.fetch_fsm(),
                                    fixtures.load_scenario("baseline"))
        nested_trace = run_episode(hfsm.from_bt(experiments.fetch_bt()),
                                   fixtures.load_scenario("baseline"))
        assert traces_equivalent(tree_trace, machine_trace)
        assert nested_trace.to_jsonl() == tree_trace.to_jsonl()

    def test_divergent_policies_are_not_equivalent(self, fetch_tree):
        baseline = run_episode(fetch_tree, fixtures.load_scenario("baseline"))
        chattering = run_episode(experiments.fetch_bt("naive"),
                                 fixtures.load_scenario("baseline"))
        assert not traces_equivalent(baseline, chattering)

    def test_tuck_variants_agree_and_tuck_after_grasping(self):
        tree_trace = run_episode(experiments.bt_with_tuck(experiments.fetch_bt()),
                                 fixtures.load_scenario("baseline"))
        machine_trace = run_episode(experiments.fsm_with_tuck(experiments.fetch_fsm()),
                                    fixtures.load_scenario("baseline"))
        skills = [entry[0] for entry in tree_trace.skill_lifecycle()]
        assert skills == ["move_to", "pick", "tuck", "move_to", "place"]
        assert traces_equivalent(tree_trace, machine_trace)


def _battery_drop(tick: int):
    return replace(fixtures.load_scenario("recharge"),
                   perturbations=(Perturbation(tick, "set_battery", (15,)),))


#: case -> (tree builder, scenario with one perturbation at a given tick)
PREEMPTION_CASES = {
    "recharge": (lambda: experiments.bt_with_recharge(experiments.fetch_bt()),
                 _battery_drop),
    "knocked_cube": (experiments.fetch_bt, relocation_scenario),
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
            assert nested_trace.to_jsonl() == tree_trace.to_jsonl(), f"{case} @ tick {tick}"
            assert nested_trace.outcome == tree_trace.outcome
            preempted += len(nested_trace.skill_events("skill_preempt"))
        # the sweep must actually exercise the preemption path
        assert preempted > 0


class TestScalabilityRecoveryLoop:
    """Knocking a delivered cube2 back to fetch2 at tick 79, while cube4 is
    in the hand, is a known representation difference.

    The tree and its nested machine react: they drop the delivery, go back
    to fetch2 and retry ``pick(cube2)``, which fails while cube4 is held.
    The closed predicate set has no hand-empty condition to route them to
    ``place(cube4)`` first, so they retry until ``max_ticks``. The
    fault-tolerant machine never rechecks a finished step: it delivers
    cube4 and cube5 and docks. Its SUCCESS outcome then finds cube2 still
    at fetch2 and hands control back to the selector, which fetches and
    delivers cube2 and docks again before the machine ends SUCCESS.
    """

    def test_tree_and_nested_machine_time_out_and_the_machine_succeeds(self):
        knock = Perturbation(79, "set_item_location", ("cube2", "fetch2"))
        scenario = replace(fixtures.load_scenario("scalability"), perturbations=(knock,))
        tree, machine = experiments.scalability_policies()
        nested = hfsm.from_bt(tree)
        traces = {"tree": run_episode(tree, scenario), "nested": run_episode(nested, scenario)}
        for name, trace in traces.items():
            assert (trace.outcome, trace.ticks, trace.timed_out) == ("TIMEOUT", 400, True), name
            picks = [event for event in trace.events
                     if event.payload.get("skill") == "pick"
                     and event.payload["args"] == ["cube2"]]
            assert sum(event.kind == "skill_start" for event in picks) == 159, name
            assert sum(event.payload.get("reason") == "already holding cube4"
                       for event in picks) == 158, name
        assert traces["nested"].to_jsonl() == traces["tree"].to_jsonl()
        trace = run_episode(machine, scenario)
        assert (trace.outcome, trace.ticks, trace.timed_out) == ("SUCCESS", 129, False)
        # cube2 ends at delivery: its last skill is a place after a move there
        lifecycle = trace.skill_lifecycle()
        last = max(index for index, (_, args, _) in enumerate(lifecycle)
                   if args == ("cube2",))
        assert lifecycle[last] == ("place", ("cube2",), "success")
        moves = [args for skill, args, outcome in lifecycle[:last]
                 if skill == "move_to" and outcome == "success"]
        assert moves[-1] == ("delivery",)


class TestChattering:
    def test_naive_ordering_chatters_forever(self):
        trace = run_episode(experiments.fetch_bt("naive"),
                            fixtures.load_scenario("baseline"))
        assert trace.outcome == "TIMEOUT"
        assert detect_chattering(trace)
        preempts = [e for e in trace.events if e.kind == "skill_preempt"]
        assert len(preempts) >= 3
        assert {tuple(e.payload["args"]) for e in preempts} == {("fetch1",)}

    def test_safe_ordering_does_not_chatter(self, fetch_tree):
        trace = run_episode(fetch_tree, fixtures.load_scenario("baseline"))
        assert trace.outcome == "SUCCESS"
        assert not detect_chattering(trace)
        # on an unperturbed run the safe ordering never cancels anything
        assert trace.skill_events("skill_preempt") == []

    def test_single_preemption_recovery_is_not_chattering(self):
        trace = run_episode(experiments.bt_with_recharge(experiments.fetch_bt()),
                            fixtures.load_scenario("recharge"))
        assert not detect_chattering(trace)

    def test_empty_trace(self):
        assert not detect_chattering(simworld.Trace())


class TestScenarioDocuments:
    def test_round_trip(self):
        scenario = fixtures.load_scenario("recharge")
        text = serialize_scenario(scenario)
        assert serialize_scenario(parse_scenario_document(text)) == text

    def test_perturbation_ticks_must_increase(self):
        with pytest.raises(Exception, match="strictly increasing"):
            Scenario(perturbations=(
                Perturbation(5, "set_battery", (10,)),
                Perturbation(5, "set_battery", (20,)),
            ))

    def test_unknown_perturbation_event(self):
        with pytest.raises(Exception, match="unknown perturbation"):
            Scenario(perturbations=(Perturbation(1, "teleport", ()),))

    def test_item_names_must_be_strings(self):
        # json would write the key as "1", which reads back as another scenario
        with pytest.raises(DocumentError, match="items: expected string keys, got 1"):
            Scenario(items={1: "fetch1"})

    @staticmethod
    def _baseline_with(**fields) -> str:
        doc = json.loads(serialize_scenario(fixtures.load_scenario("baseline")))
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

    @pytest.mark.parametrize("fields, message", [
        ({"failures": [{"skill": "fly", "invocation": 1}]},
         r"failures\[0\]\.skill: unknown skill 'fly'"),
        ({"failures": [{"invocation": 1}]}, r"failures\[0\]: missing field 'skill'"),
        ({"items": "ab"}, r"items: expected an object"),
        ({"durations": [["move_to"]]}, r"durations: expected an object"),
        ({"durations": {"fly": 3}}, r"durations\.fly: unknown skill"),
        ({"stations": "center"}, r"stations: expected a list"),
        ({"perturbations": [{"event": "set_battery", "args": [5]}]},
         r"perturbations\[0\]: missing field 'tick'"),
        ({"max_ticks": 0}, r"max_ticks: must be at least 1"),
        ({"max_ticks": -5}, r"max_ticks: must be at least 1"),
        ({"version": 7}, r"version: unsupported value 7"),
        ({"failures": [{"skill": "pick", "args": [[1]], "invocation": 1}]},
         r"failures\[0\]\.args\[0\]: expected a string or a number, got \[1\]"),
        ({"failures": [{"skill": "pick", "args": [True], "invocation": 1}]},
         r"failures\[0\]\.args\[0\]: expected a string or a number, got True"),
        ({"failures": [{"skill": "pick", "args": "cube2", "invocation": 1}]},
         r"failures\[0\]\.args: expected a list"),
        # unchecked, a tick below 0 would hold back every later perturbation,
        # invocation 0 would never fail and a negative drain would charge
        ({"perturbations": [{"tick": -1, "event": "set_battery", "args": [5]},
                            {"tick": 3, "event": "set_battery", "args": [10]}]},
         r"^perturbations\[0\]\.tick: must be at least 0, got -1$"),
        ({"failures": [{"skill": "pick", "args": None, "invocation": 0}]},
         r"^failures\[0\]\.invocation: must be at least 1, got 0$"),
        ({"drain_per_motion_tick": -5},
         r"^drain_per_motion_tick: must be at least 0, got -5$"),
        # unchecked, 0 and negative counts of ticks would silently mean 1, and a
        # station that is not a string would end the episode in a TypeError
        ({"durations": {"move_to": 0}}, r"^durations\.move_to: must be at least 1, got 0$"),
        ({"durations": {"pick": -3}}, r"^durations\.pick: must be at least 1, got -3$"),
        ({"success_hold_ticks": 0}, r"^success_hold_ticks: must be at least 1, got 0$"),
        ({"success_hold_ticks": -2}, r"^success_hold_ticks: must be at least 1, got -2$"),
        ({"stations": ["center", "fetch1", [0], "delivery"]},
         r"^stations\[2\]: expected a string, got \[0\]$"),
        ({"stations": ["center", {}]}, r"^stations\[1\]: expected a string, got \{\}$"),
        # unchecked, a marker that is not a string would end the episode in a
        # TypeError, and a held item also placed at a station would be in two places
        ({"markers": [[1]]}, r"^markers\[0\]: expected a string, got \[1\]$"),
        ({"markers": ["a", {}]}, r"^markers\[1\]: expected a string, got \{\}$"),
        ({"holding": [0]}, r"^holding: expected a string or null, got \[0\]$"),
        ({"holding": 5}, r"^holding: expected a string or null, got 5$"),
        ({"holding": "cube2"}, r"^holding: 'cube2' is also placed at 'fetch1'$"),
        # unchecked, a flag that is not a boolean would be written back as it
        # came, and a world could start docked away from the dock
        ({"docked": 5}, r"^docked: expected true or false, got 5$"),
        ({"docked": None}, r"^docked: expected true or false, got None$"),
        ({"arm_tucked": "x"}, r"^arm_tucked: expected true or false, got 'x'$"),
        ({"arm_tucked": 1}, r"^arm_tucked: expected true or false, got 1$"),
        ({"docked": True}, r"^docked: true needs robot_location 'dock'$"),
        # unchecked, a pick without its cube would end the episode in an IndexError
        ({"failures": [{"skill": "pick", "args": [], "invocation": 1}]},
         r"^failures\[0\]\.args: pick takes 1 argument\(s\), got 0$"),
        ({"failures": [{"skill": "tuck", "args": ["arm"], "invocation": 1}]},
         r"^failures\[0\]\.args: tuck takes 0 argument\(s\), got 1$"),
        # unchecked, a misspelt field would run with its default
        ({"max_tick": 5}, r"^max_tick: unknown field$"),
        ({"failures": [{"skill": "pick", "args": ["cube2"], "invocaton": 2}]},
         r"^failures\[0\]\.invocaton: unknown field$"),
        ({"perturbations": [{"tick": 3, "event": "set_battery", "args": [5], "at": 4}]},
         r"^perturbations\[0\]\.at: unknown field$"),
    ])
    def test_malformed_fields_are_named(self, fields, message):
        with pytest.raises(DocumentError, match=message):
            parse_scenario_document(self._baseline_with(**fields))

    def test_a_robot_docked_at_the_dock_is_legal(self, checked_worlds):
        scenario = parse_scenario_document(self._baseline_with(docked=True,
                                                               robot_location="dock"))
        assert scenario.docked and scenario.robot_location == "dock"
        assert run_episode(fixtures.load_policy("fetch_bt"), scenario).outcome == "SUCCESS"
        with pytest.raises(DocumentError, match="^docked: expected true or false, got 5$"):
            replace(scenario, docked=5)

    def test_a_held_item_placed_nowhere_is_legal(self):
        scenario = parse_scenario_document(self._baseline_with(holding="x"))
        assert scenario.holding == "x"

    def test_absent_fields_take_the_dataclass_defaults(self):
        assert parse_scenario_document('{"version": 1}') == Scenario()

    def test_a_scenario_is_a_value(self):
        scenario = fixtures.load_scenario("baseline")
        with pytest.raises(FrozenInstanceError):
            scenario.max_ticks = 3
        assert not hasattr(scenario, "validate")
        assert replace(scenario, max_ticks=3).max_ticks == 3
        with pytest.raises(DocumentError, match="max_ticks: must be at least 1, got 0"):
            replace(scenario, max_ticks=0)

    def test_items_and_durations_cannot_be_changed_in_place(self):
        scenario = fixtures.load_scenario("baseline")
        with pytest.raises(TypeError):
            scenario.items["cube2"] = "moon"  # a station the scenario does not have
        with pytest.raises(TypeError):
            scenario.durations["move_to"] = 0
        items = dict(scenario.items)
        made = replace(scenario, items=items)
        items["cube2"] = "moon"
        assert made.items["cube2"] != "moon" and made == scenario

    def test_a_scenario_is_checked_once_when_it_is_made(self, monkeypatch, fetch_tree):
        checks, check = [], Scenario.__post_init__

        def counted(self):
            checks.append(self.name)
            check(self)

        monkeypatch.setattr(Scenario, "__post_init__", counted)
        scenario = parse_scenario_document(
            fixtures.scenario_path("recharge").read_text())
        run_episode(fetch_tree, scenario)
        World(scenario)
        assert checks == ["recharge"]

    def test_packaged_scenarios_still_parse_unchanged(self):
        for name in packaged_scenarios():
            text = fixtures.scenario_path(name).read_text()
            assert serialize_scenario(parse_scenario_document(text)) == text

    def test_trace_jsonl_has_stable_field_order(self, fetch_tree):
        trace = run_episode(fetch_tree, fixtures.load_scenario("baseline"))
        first = trace.to_jsonl().splitlines()[0]
        assert first.startswith('{"tick": 0, "kind": "skill_start"')


class TestEngineLookup:
    """``run_episode`` calls the engine functions through their modules, so a
    wrapper bound on the module (as the benchmark's tracer does) sees every call.
    The runner evaluates only on ticks where an input may have changed, so the
    calls are pinned per engine, beside the episode length."""

    def test_wrappers_bound_on_the_modules_see_every_call(self, monkeypatch):
        calls = {}
        for module, name in ((bt, "tick"), (bt, "halt_unvisited"), (fsm, "step"),
                             (hfsm, "step"), (hfsm, "halt_unvisited")):
            def counting(*args, _original=getattr(module, name),
                         _key=f"{module.__name__.rsplit('.', 1)[-1]}.{name}"):
                calls[_key] = calls.get(_key, 0) + 1
                return _original(*args)
            monkeypatch.setattr(module, name, counting)

        scenario = fixtures.load_scenario("recharge")
        tree = experiments.bt_with_recharge(experiments.fetch_bt())
        ticks = {
            "bt": run_episode(tree, scenario).ticks,
            "fsm": run_episode(experiments.fsm_with_recharge(experiments.fetch_fsm()),
                               scenario).ticks,
            "hfsm": run_episode(hfsm.from_bt(tree), scenario).ticks,
        }
        assert ticks == {"bt": 25, "fsm": 21, "hfsm": 25}
        assert calls == {
            "bt.tick": 14, "bt.halt_unvisited": 14,
            "fsm.step": 13,
            "hfsm.step": 14, "hfsm.halt_unvisited": 14,
        }


# ---------------------------------------------------------------------------
# the runner against an evaluation on every tick


def reference_engine(policy):
    """The engine dispatch of the per-tick loop below, kept verbatim."""
    if isinstance(policy, bt.PolicyTree):
        return bt.tick, bt.halt_unvisited
    if isinstance(policy, fsm.StateMachine):
        return fsm.step, None
    if isinstance(policy, hfsm.HfsmContainer):
        return hfsm.step, hfsm.halt_unvisited
    raise WorldError(f"cannot run a {type(policy).__name__}")


def reference_run_episode(policy, scenario):
    """``run_episode`` as it was when it evaluated the policy on every tick."""
    world = World(scenario)
    evaluate, preempt = reference_engine(policy)
    policy.reset_runtime()
    last_status = None
    success_streak = 0
    outcome, timed_out = "TIMEOUT", True
    ticks = 0

    for tick_index in range(scenario.max_ticks):
        ticks = tick_index + 1
        world.begin_tick(tick_index)
        status = evaluate(policy, world)
        if preempt is not None:
            preempt(policy, world)
        world.apply_starts()
        world.advance()
        if status is not last_status:
            world._log("policy_status", status=status.value)
            last_status = status

        if preempt is None and policy.terminated is not None:  # machines only
            outcome, timed_out = policy.terminated.value, False
            break
        if status is Status.SUCCESS:
            success_streak += 1
            if success_streak >= scenario.success_hold_ticks:
                outcome, timed_out = "SUCCESS", False
                break
        else:
            success_streak = 0

    return simworld.Trace(events=world.events, outcome=outcome, ticks=ticks,
                          timed_out=timed_out)


def episode_record(run, policy, scenario):
    try:
        trace = run(policy, scenario)
    except WorldError as error:
        return ("raised", type(error).__name__, str(error))
    return (trace.to_jsonl(), trace.outcome)


RANDOM_STATIONS = ("center", "fetch1", "delivery", "recharge", "dock")
RANDOM_ACTIONS = ([("move_to", (station,)) for station in RANDOM_STATIONS]
                  + [("safe_move_to", ("delivery",)), ("pick", ("cube2",)),
                     ("place", ("cube2",)), ("tuck", ()), ("dock", ()), ("recharge", ())])


def random_literal(rng):
    roll = rng.randrange(7)
    if roll == 0:
        return L("robot_at", (rng.choice(RANDOM_STATIONS),))
    if roll == 1:
        return L("in_hand", ("cube2",))
    if roll == 2:
        return L("object_at", ("cube2", rng.choice(("fetch1", "delivery"))))
    if roll in (3, 4):
        return L("battery_above", (rng.choice((10, 25, 40, 50, 65, 80, 95)),))
    return L(rng.choice(("arm_tucked", "docked", "found")))


def random_tree(rng, nested_only):
    """A seeded random tree over the fetch world that ``validate`` accepts:
    a draw with a parallel node over two motions is drawn again. With
    ``nested_only`` it uses sequences and fallbacks only, so it has a
    nested machine."""
    controls = ("sequence", "fallback") if nested_only else bt.CONTROL_KINDS

    def grow(depth):
        if depth >= 3 or (depth > 0 and rng.random() < 0.4):
            if rng.random() < 0.5:
                return builder.condition(random_literal(rng))
            skill, args = rng.choice(RANDOM_ACTIONS)
            return builder.action(skill, args)
        kind = rng.choice(controls)
        children = [grow(depth + 1) for _ in range(rng.randint(1, 4))]
        threshold = rng.randint(1, len(children)) if kind == "parallel" else 0
        return builder.add(kind, kind, children=children, threshold=threshold)

    while True:
        builder = bt.TreeBuilder()
        try:
            return builder.build(grow(0))
        except ValidationError:
            continue


def random_scenario(rng):
    """The fetch world with random drain, battery, perturbations and failures."""
    max_ticks = rng.randint(20, 70)
    ticks = sorted(rng.sample(range(1, max_ticks), rng.randint(0, 4)))
    perturbations = []
    for tick in ticks:
        kind = rng.randrange(3)
        if kind == 0:
            event = ("set_item_location", ("cube2", rng.choice(("fetch1", "delivery"))))
        elif kind == 1:
            event = ("set_battery", (rng.choice((5, 15, 30, 55, 90)),))
        else:
            event = ("force_fail_next", (rng.choice(sorted(simworld.KNOWN_SKILLS)),))
        perturbations.append(Perturbation(tick, *event))
    failures = tuple((skill, None, rng.randint(1, 3))
                     for skill in rng.sample(["move_to", "pick", "place", "tuck"],
                                             rng.randint(0, 2)))
    return replace(
        fixtures.load_scenario("baseline"),
        battery=float(rng.randint(10, 100)),
        drain_per_motion_tick=round(rng.uniform(0, 3.5), 2),
        markers=rng.choice(((), ("cube2",))),
        perturbations=tuple(perturbations),
        failures=failures,
        max_ticks=max_ticks,
        success_hold_ticks=rng.randint(1, 6),
    )


def fixture_variants(tree_name, scenario_name):
    """The benchmark's variant recipe on one case, at every tick: each skill
    failing on its 1st, 2nd and 3rd invocation, a knock, a battery drop to
    15 and a forced failure."""
    base = fixtures.load_scenario(scenario_name)
    tree = fixtures.load_policy(tree_name)
    skills = sorted({node.skill for node in tree.nodes.values() if node.kind == "action"})
    length = run_episode(tree, base).ticks
    out = [base]
    out += [replace(base, failures=base.failures + ((skill, None, nth),))
            for skill in skills for nth in (1, 2, 3)]
    taken = {p.tick for p in base.perturbations}
    for tick in range(1, length):
        if tick in taken:
            continue
        for event in (Perturbation(tick, "set_item_location", ("cube2", "fetch1")),
                      Perturbation(tick, "set_battery", (15,)),
                      Perturbation(tick, "force_fail_next", (skills[tick % len(skills)],))):
            out.append(replace(base, perturbations=tuple(sorted(
                base.perturbations + (event,), key=lambda p: p.tick))))
    return out


class TestTreeAndNestedMachineByteForByte:
    """``hfsm.from_bt`` of a tree issues, on every step, exactly the commands
    one tick of the tree would, so the two traces are the same bytes."""

    def test_seeded_random_trees(self):
        rng = random.Random(20241021)
        for index in range(500):
            tree = random_tree(rng, nested_only=True)
            nested = hfsm.from_bt(tree)
            scenario = random_scenario(rng)
            want = run_episode(tree, scenario).to_jsonl()
            assert run_episode(nested, scenario).to_jsonl() == want, index


class TestRunnerMatchesThePerTickLoop:
    """Skipping the evaluations that could only repeat the previous one leaves
    every trace, outcome and raised error as evaluating on every tick does."""

    def assert_same(self, policy, scenario, where):
        got = episode_record(run_episode, policy, scenario)
        want = episode_record(reference_run_episode, policy, scenario)
        assert got == want, where
        return got

    def test_packaged_policies_and_scenarios(self, checked_worlds):
        scenarios = packaged_scenarios()
        runs = 0
        for name in packaged_policies():
            for scenario in scenarios:
                self.assert_same(fixtures.load_policy(name),
                                 fixtures.load_scenario(scenario), (name, scenario))
                runs += 1
        assert runs == 96

    @pytest.mark.parametrize("tree_name, machine_name, scenario_name", [
        ("fetch_bt", "fetch_fsm", "baseline"),
        ("fetch_bt_recharge", "fetch_fsm_recharge", "recharge"),
    ])
    def test_fixture_variants(self, tree_name, machine_name, scenario_name):
        tree = fixtures.load_policy(tree_name)
        policies = (tree, fixtures.load_policy(machine_name), hfsm.from_bt(tree))
        for index, scenario in enumerate(fixture_variants(tree_name, scenario_name)):
            for policy in policies:
                self.assert_same(policy, scenario, (index, type(policy).__name__))

    def test_seeded_random_trees(self):
        rng = random.Random(20241018)
        kinds = set()
        for index in range(360):
            tree = random_tree(rng, nested_only=index % 3 == 0)
            kinds.update(node.kind for node in tree.nodes.values())
            scenario = random_scenario(rng)
            # a tree validate accepts never asks the world for two motions at once
            assert self.assert_same(tree, scenario, (index, "tree"))[0] != "raised", index
            if index % 3 == 0:
                self.assert_same(hfsm.from_bt(tree), scenario, (index, "nested"))
        assert {"parallel", "memory_sequence"} <= kinds

    def test_packaged_machines_in_seeded_random_scenarios(self):
        rng = random.Random(20241019)
        names = [name for name in packaged_policies() if "_fsm" in name]
        for index in range(120):
            name = names[index % len(names)]
            self.assert_same(fixtures.load_policy(name), random_scenario(rng), (index, name))
