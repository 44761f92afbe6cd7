"""State machine builders, insertion procedures and the step engine."""

import pytest

from conftest import ScriptedWorld, packaged_policies
from policylab import documents, experiments, fixtures, fsm, simworld
from policylab.core import ConditionLiteral as L, EditError, Status, ValidationError
from policylab.planner import Plan, PlanStep, synthesize
from policylab.core import ActionSpec


def synthetic_plan(steps: int) -> Plan:
    plan_steps = []
    for index in range(steps):
        station = f"fetch{index + 1}"
        spec = ActionSpec("move_to", (station,),
                          postconditions=(L("robot_at", (station,)),))
        plan_steps.append(PlanStep(spec=spec, achieves=L("robot_at", (station,))))
    return Plan(steps=plan_steps, goal=(plan_steps[-1].achieves,))


def machine_snapshot(machine):
    return {sid: (dict(state.transitions), tuple(state.interrupts))
            for sid, state in machine.states.items()}


def touched_existing(before, machine):
    after = machine_snapshot(machine)
    return sorted(sid for sid in before if sid in after and before[sid] != after[sid])


class TestBuilders:
    def test_sequential_counts(self):
        machine = experiments.fetch_fsm_sequential()
        counts = fsm.count_elements(machine)
        assert (counts["nodes"], counts["edges"]) == (5, 4)

    def test_sequential_single_action(self):
        machine = fsm.build_sequential(synthetic_plan(1))
        counts = fsm.count_elements(machine)
        assert (counts["nodes"], counts["edges"]) == (2, 1)

    def test_sequential_long_plan(self):
        machine = fsm.build_sequential(synthetic_plan(22))
        counts = fsm.count_elements(machine)
        assert (counts["nodes"], counts["edges"]) == (23, 22)

    def test_fault_tolerant_counts(self, fetch_machine):
        counts = fsm.count_elements(fetch_machine)
        assert (counts["nodes"], counts["edges"]) == (6, 18)

    def test_fault_tolerant_transition_shape(self, fetch_machine):
        selector = fetch_machine.selector_id
        for sid in fetch_machine.plan_order:
            state = fetch_machine.state(sid)
            assert state.transitions["RUNNING"] == sid
            assert state.transitions["FAILURE"] == selector
            assert "SUCCESS" in state.transitions

    def test_fault_tolerant_scales_linearly(self):
        machine = fsm.build_fault_tolerant(synthetic_plan(22))
        counts = fsm.count_elements(machine)
        assert (counts["nodes"], counts["edges"]) == (24, 90)

    def test_single_action_fault_tolerant(self):
        machine = fsm.build_fault_tolerant(synthetic_plan(1))
        counts = fsm.count_elements(machine)
        assert (counts["nodes"], counts["edges"]) == (3, 6)

    def test_empty_plan_rejected(self):
        with pytest.raises(ValidationError, match="empty plan"):
            fsm.build_sequential(Plan(steps=[], goal=()))

    def test_missing_dispatch_postcondition_rejected(self):
        step = PlanStep(spec=ActionSpec("tuck", (), postconditions=(L("arm_tucked"),)),
                        achieves=None)
        with pytest.raises(ValidationError, match="dispatch"):
            fsm.build_fault_tolerant(Plan(steps=[step], goal=(L("arm_tucked"),)))

    def test_edge_count_matches_the_drawn_edges(self):
        names = [name for name in packaged_policies() if "_fsm" in name]
        machines = [fixtures.load_policy(name) for name in names]
        for cubes in range(1, 10):
            _, plan = synthesize(*experiments.generated_task(range(1, cubes + 1)))
            machines += [fsm.build_sequential(plan), fsm.build_fault_tolerant(plan)]
        machines += [recipe(experiments.fetch_fsm())
                     for recipe in (experiments.fsm_with_tuck, experiments.fsm_with_safe_move,
                                    experiments.fsm_with_dock, experiments.fsm_with_recharge)]
        assert len(machines) == len(names) + 22
        for machine in machines:
            assert fsm.count_elements(machine)["edges"] == sum(1 for _ in fsm.iter_edges(machine))


class TestInsertions:
    def test_sequential_insert_counts_and_wiring(self, fetch_machine):
        machine = experiments.fsm_with_tuck(fetch_machine)
        counts = fsm.count_elements(machine)
        assert (counts["nodes"], counts["edges"]) == (7, 22)
        tuck = experiments.find_state(machine, "tuck")
        pick = experiments.find_state(machine, "pick")
        assert machine.state(pick).transitions["SUCCESS"] == tuck
        assert machine.state(tuck).transitions["FAILURE"] == machine.selector_id
        assert tuck in machine.plan_order

    def test_sequential_insert_before_the_outcome(self, fetch_machine):
        machine = experiments.fsm_with_dock(fetch_machine)
        counts = fsm.count_elements(machine)
        assert (counts["nodes"], counts["edges"]) == (7, 22)
        dock = experiments.find_state(machine, "dock")
        outcome = next(iter(machine.outcome_ids()))
        assert machine.state(dock).transitions["SUCCESS"] == outcome
        assert machine.plan_order[-1] == dock

    def test_alternative_counts_and_entry(self, fetch_machine):
        machine = experiments.fsm_with_safe_move(fetch_machine)
        counts = fsm.count_elements(machine)
        assert (counts["nodes"], counts["edges"]) == (7, 21)
        safer = experiments.find_state(machine, "safe_move_to")
        primary = experiments.find_state(machine, "move_to", ("fetch1",))
        state = machine.state(safer)
        assert state.rank == 1
        assert state.dispatch_pre == machine.state(primary).dispatch_pre
        assert "FAILURE" not in state.transitions  # resolves to the selector
        assert machine.resolve(state, "FAILURE") == machine.selector_id
        # the primary's failure edge is untouched
        assert machine.state(primary).transitions["FAILURE"] == machine.selector_id

    def test_alternative_of_an_alternative_chains(self, fetch_machine):
        machine = experiments.fsm_with_safe_move(fetch_machine)
        safer = experiments.find_state(machine, "safe_move_to")
        third = fsm.FsmState(id=machine.next_id(), kind="skill",
                             name="crawl!", skill="safe_move_to", args=("fetch1",))
        fsm.add_alternative_state(machine, safer, third)
        assert machine.state(third.id).rank == 2
        order = machine.plan_order
        assert order.index(safer) + 1 == order.index(third.id)

    def test_alternative_requires_failure_edge_to_selector(self):
        machine = experiments.fetch_fsm_sequential()
        alt = fsm.FsmState(id=99, kind="skill", name="x", skill="tuck")
        with pytest.raises(EditError):
            fsm.add_alternative_state(machine, 0, alt)

    def test_alternative_rejects_selector_as_preceding(self, fetch_machine):
        alt = fsm.FsmState(id=99, kind="skill", name="x", skill="tuck")
        with pytest.raises(EditError, match="selector"):
            fsm.add_alternative_state(fetch_machine, fetch_machine.selector_id, alt)

    def test_connected_state_counts(self, fetch_machine):
        machine = experiments.fsm_with_recharge(fetch_machine)
        counts = fsm.count_elements(machine)
        assert (counts["nodes"], counts["edges"]) == (7, 25)

    def test_connected_state_touches_every_non_outcome_state(self, fetch_machine):
        before = machine_snapshot(fetch_machine)
        machine = experiments.fsm_with_recharge(fetch_machine)
        recharge = experiments.find_state(machine, "recharge")
        touched = touched_existing(before, machine)
        expected = sorted(set(machine.states) - machine.outcome_ids() - {recharge})
        assert touched == expected

    def test_connected_state_on_minimal_machine(self):
        machine = fsm.StateMachine(initial=0)
        machine.states[0] = fsm.FsmState(id=0, kind="selector", name="SELECTOR",
                                         transitions={"RUNNING": 0, "SUCCESS": 1})
        machine.states[1] = fsm.FsmState(id=1, kind="outcome", name="SUCCESS",
                                         outcome=Status.SUCCESS)
        recharge = fsm.FsmState(id=2, kind="skill", name="recharge!", skill="recharge")
        fsm.add_connected_state(machine, recharge, experiments.LOW_BATTERY)
        assert len(machine.states[0].interrupts) == 1
        assert len(machine.states[2].transitions) == 2

    def test_id_collision_rejected(self, fetch_machine):
        clash = fsm.FsmState(id=0, kind="skill", name="x", skill="tuck")
        with pytest.raises(EditError, match="already"):
            fsm.add_connected_state(fetch_machine, clash, experiments.LOW_BATTERY)


class TestRemoval:
    def test_add_then_remove_restores_the_machine(self, fetch_machine):
        reference = machine_snapshot(fetch_machine)
        machine = experiments.fsm_with_recharge(fetch_machine)
        recharge = experiments.find_state(machine, "recharge")
        fsm.remove_state(machine, recharge)
        assert machine_snapshot(machine) == reference
        assert machine.connected == []

    def test_sequential_insert_then_remove_restores_the_machine(self, fetch_machine):
        reference = machine_snapshot(fetch_machine)
        order = list(fetch_machine.plan_order)
        machine = experiments.fsm_with_tuck(fetch_machine)
        fsm.remove_state(machine, experiments.find_state(machine, "tuck"))
        assert machine_snapshot(machine) == reference
        assert machine.plan_order == order

    def test_remove_splices_the_success_chain(self, fetch_machine):
        pick = experiments.find_state(fetch_machine, "pick")
        follower = fetch_machine.state(pick).transitions["SUCCESS"]
        mover = experiments.find_state(fetch_machine, "move_to", ("fetch1",))
        fsm.remove_state(fetch_machine, pick)
        assert len(fetch_machine.states) == 5
        assert fetch_machine.state(mover).transitions["SUCCESS"] == follower
        assert pick not in fetch_machine.plan_order
        fetch_machine.validate()

    def test_remove_touches_only_referencing_states(self, fetch_machine):
        machine = experiments.fsm_with_recharge(fetch_machine)
        recharge = experiments.find_state(machine, "recharge")
        before = machine_snapshot(machine)
        fsm.remove_state(machine, recharge)
        referencing = sorted(
            sid for sid, (transitions, interrupts) in before.items()
            if sid != recharge and (
                recharge in transitions.values()
                or any(target == recharge for _, target in interrupts))
        )
        assert touched_existing(before, machine) == referencing

    def test_remove_selector_and_unknown_rejected(self, fetch_machine):
        with pytest.raises(EditError, match="selector"):
            fsm.remove_state(fetch_machine, fetch_machine.selector_id)
        with pytest.raises(EditError, match="unknown"):
            fsm.remove_state(fetch_machine, 99)


def recharge_machine():
    return experiments.fsm_with_recharge(experiments.fetch_fsm())


def recharge(machine):
    return experiments.find_state(machine, "recharge")


def starting_at_the_connected_state():
    """Valid: the recharge state has no SUCCESS edge and falls back to the selector."""
    machine = recharge_machine()
    machine.initial = recharge(machine)
    machine.validate()
    return machine


def starting_at_a_success_self_loop():
    machine = experiments.fetch_fsm()
    first = machine.plan_order[0]
    machine.initial = first
    machine.states[first].transitions["SUCCESS"] = first
    machine.validate()
    return machine


def selector_succeeding_to_the_last_step():
    """Valid: the last step has no SUCCESS edge and falls back to the selector,
    whose own SUCCESS edge leads to that step."""
    machine = experiments.fetch_fsm()
    last = machine.plan_order[-1]
    del machine.states[last].transitions["SUCCESS"]
    machine.states[machine.selector_id].transitions["SUCCESS"] = last
    machine.validate()
    return machine


def looping_second_step():
    machine = experiments.fetch_fsm_sequential()
    second = machine.plan_order[1]
    machine.states[second].transitions["SUCCESS"] = second
    machine.validate()
    return machine


def new_skill(machine, sid=None):
    return fsm.FsmState(id=machine.next_id() if sid is None else sid, kind="skill",
                        name="tuck()!", skill="tuck")


def watching(machine, target=None):
    """A new skill state with a low-battery interrupt to ``target``, or to itself."""
    state = new_skill(machine)
    state.interrupts.append((experiments.LOW_BATTERY, state.id if target is None else target))
    return state


#: (case, machine, edit): each edit is refused before it changes the machine
REFUSED_EDITS = [
    ("sequential after the selector", experiments.fetch_fsm,
     lambda m: fsm.add_sequential_state(m, m.selector_id, new_skill(m))),
    ("sequential after a connected state", recharge_machine,
     lambda m: fsm.add_sequential_state(m, recharge(m), new_skill(m))),
    ("alternative after a connected state", recharge_machine,
     lambda m: fsm.add_alternative_state(m, recharge(m), new_skill(m))),
    ("sequential without a selector", experiments.fetch_fsm_sequential,
     lambda m: fsm.add_sequential_state(m, m.plan_order[0], new_skill(m))),
    ("sequential without a post", experiments.fetch_fsm,
     lambda m: fsm.add_sequential_state(m, m.plan_order[0], new_skill(m))),
    ("sequential with a taken id", experiments.fetch_fsm,
     lambda m: fsm.add_sequential_state(m, m.plan_order[0], new_skill(m, m.plan_order[-1]))),
    ("sequential of an outcome state", experiments.fetch_fsm,
     lambda m: fsm.add_sequential_state(m, m.plan_order[0],
                                        fsm.FsmState(id=m.next_id(), kind="outcome"))),
    ("connected selector state", experiments.fetch_fsm,
     lambda m: fsm.add_connected_state(m, fsm.FsmState(id=m.next_id(), kind="selector"),
                                       experiments.LOW_BATTERY)),
    ("connected state without a selector", experiments.fetch_fsm_sequential,
     lambda m: fsm.add_connected_state(m, new_skill(m), experiments.LOW_BATTERY)),
    ("remove an initial state without a success edge", starting_at_the_connected_state,
     lambda m: fsm.remove_state(m, m.initial)),
    ("remove an initial state whose success edge loops", starting_at_a_success_self_loop,
     lambda m: fsm.remove_state(m, m.initial)),
    ("remove the outcome of a sequential machine", experiments.fetch_fsm_sequential,
     lambda m: fsm.remove_state(m, min(m.outcome_ids()))),
    ("remove the outcome of a selector machine", experiments.fetch_fsm,
     lambda m: fsm.remove_state(m, min(m.outcome_ids()))),
    ("remove the selector's success target without one of its own",
     selector_succeeding_to_the_last_step, lambda m: fsm.remove_state(m, m.plan_order[-1])),
    ("remove a success target that loops, without a selector", looping_second_step,
     lambda m: fsm.remove_state(m, m.plan_order[1])),
    ("connected state watching itself", experiments.fetch_fsm,
     lambda m: fsm.add_connected_state(m, watching(m), experiments.LOW_BATTERY)),
    ("alternative watching a connected state twice", recharge_machine,
     lambda m: fsm.add_alternative_state(m, m.plan_order[0], watching(m, recharge(m)))),
    ("alternative watching a missing state", experiments.fetch_fsm,
     lambda m: fsm.add_alternative_state(m, m.plan_order[0], watching(m, 99))),
]


def test_only_the_plan_states_of_a_selector_machine_need_a_post():
    sequential = experiments.fetch_fsm_sequential()
    sequential.states[sequential.plan_order[0]].achieves = None
    sequential.validate()
    recharge = fixtures.load_policy("fetch_fsm_recharge")
    assert [sid for sid, _ in recharge.connected] == [6] and recharge.states[6].achieves is None
    tolerant = experiments.fetch_fsm()
    tolerant.states[tolerant.plan_order[-1]].achieves = None
    with pytest.raises(ValidationError, match=f"^plan state {tolerant.plan_order[-1]} has no post"):
        tolerant.validate()


@pytest.mark.parametrize("build, edit", [case[1:] for case in REFUSED_EDITS],
                         ids=[case[0] for case in REFUSED_EDITS])
def test_a_refused_edit_leaves_the_machine_unchanged(build, edit):
    machine = build()
    before = documents.serialize_policy(machine)
    with pytest.raises(EditError):
        edit(machine)
    assert documents.serialize_policy(machine) == before


class TestStep:
    def test_fresh_world_dispatches_the_first_mover(self, fetch_machine, scripted_world):
        assert fsm.step(fetch_machine, scripted_world) is Status.RUNNING
        assert scripted_world.started == [("move_to", ("fetch1",))]

    def test_dispatch_skips_already_executed_steps(self, fetch_machine, scripted_world):
        scripted_world.set_true("in_hand(cube2)")
        fsm.step(fetch_machine, scripted_world)
        assert scripted_world.started == [("move_to", ("delivery",))]

    def test_goal_satisfied_reaches_the_outcome_immediately(self, fetch_machine, scripted_world):
        scripted_world.set_true("object_at(cube2, delivery)")
        assert fsm.step(fetch_machine, scripted_world) is Status.SUCCESS
        assert fetch_machine.terminated is Status.SUCCESS
        assert scripted_world.started == []

    def test_deadlock_surfaces_as_failure(self, scripted_world):
        machine = experiments.fetch_fsm()
        scripted_world.set_true("robot_at(fetch1)", "in_hand(cube2)",
                                "robot_at(delivery)")
        # every context holds yet every effect is already achieved except the
        # goal, which no step can reach: force it by satisfying all effects
        scripted_world.set_true("robot_at(fetch1)")
        machine.goal = (L("docked"),)
        for state in machine.states.values():
            if state.kind == "skill":
                state.achieves = L("in_hand", ("cube2",))
        assert fsm.step(machine, scripted_world) is Status.FAILURE
        assert machine.terminated is Status.FAILURE

    def test_success_chains_within_one_step(self, fetch_machine, scripted_world):
        fsm.step(fetch_machine, scripted_world)
        scripted_world.advance(2)  # default stub duration finishes the move
        scripted_world.set_true("robot_at(fetch1)")
        assert fsm.step(fetch_machine, scripted_world) is Status.RUNNING
        assert scripted_world.started[-1] == ("pick", ("cube2",))

    def test_interrupt_cancels_and_jumps_same_step(self, scripted_world):
        machine = experiments.fsm_with_recharge(experiments.fetch_fsm())
        scripted_world.set_true("battery_above(20)")
        fsm.step(machine, scripted_world)
        scripted_world.set_false("battery_above(20)")
        assert fsm.step(machine, scripted_world) is Status.RUNNING
        assert scripted_world.cancelled == [("move_to", ("fetch1",))]
        assert scripted_world.started[-1] == ("recharge", ())

    def test_terminated_machine_emits_no_commands(self, fetch_machine, scripted_world):
        scripted_world.set_true("object_at(cube2, delivery)")
        fsm.step(fetch_machine, scripted_world)
        scripted_world.set_false("object_at(cube2, delivery)")
        assert fsm.step(fetch_machine, scripted_world) is Status.SUCCESS
        assert scripted_world.started == []


class TestSuccessNeedsTheGoal:
    """A machine with a selector ends SUCCESS only while its goal holds."""

    def placed_cube2(self, machine, world):
        """Run the fetch machine's ``place`` to success from the delivery station."""
        world.set_true("in_hand(cube2)", "robot_at(delivery)")
        assert fsm.step(machine, world) is Status.RUNNING
        assert world.started == [("place", ("cube2",))]
        world.advance(2)
        world.set_false("in_hand(cube2)")

    def test_place_without_the_goal_dispatches_again(self, fetch_machine, scripted_world):
        self.placed_cube2(fetch_machine, scripted_world)  # cube2 not at delivery
        assert fsm.step(fetch_machine, scripted_world) is Status.RUNNING
        assert fetch_machine.terminated is None
        assert scripted_world.started[-1] == ("move_to", ("fetch1",))

    def test_place_with_the_goal_ends_success(self, fetch_machine, scripted_world):
        self.placed_cube2(fetch_machine, scripted_world)
        scripted_world.set_true("object_at(cube2, delivery)")
        assert fsm.step(fetch_machine, scripted_world) is Status.SUCCESS
        assert fetch_machine.terminated is Status.SUCCESS
        assert len(scripted_world.started) == 1

    def test_sequential_machine_reports_its_last_skill(self):
        machine, world = experiments.fetch_fsm_sequential(), ScriptedWorld()
        for _ in range(4):
            assert fsm.step(machine, world) is Status.RUNNING
            world.advance(2)
        assert fsm.step(machine, world) is Status.SUCCESS  # goal never set true
        assert [skill for skill, _ in world.started] == ["move_to", "pick", "move_to", "place"]


class TestValidation:
    def test_totality_holds_after_every_builder_and_edit(self):
        machines = [
            experiments.fetch_fsm_sequential(),
            experiments.fetch_fsm(),
            experiments.fsm_with_tuck(experiments.fetch_fsm()),
            experiments.fsm_with_safe_move(experiments.fetch_fsm()),
            experiments.fsm_with_dock(experiments.fetch_fsm()),
            experiments.fsm_with_recharge(experiments.fetch_fsm()),
            experiments.development_fsm(),
            experiments.fsm_with_recharge(experiments.scalability_fsm()),
        ]
        for machine in machines:
            machine.validate()
            selectors = [s for s in machine.states.values() if s.kind == "selector"]
            assert len(selectors) == (0 if machine is machines[0] else 1)

    def test_two_selectors_rejected(self, fetch_machine):
        fetch_machine.states[99] = fsm.FsmState(id=99, kind="selector", name="extra")
        with pytest.raises(ValidationError, match="selector"):
            fetch_machine.validate()

    def test_unresolvable_success_rejected(self):
        machine = fsm.StateMachine(initial=0)
        machine.states[0] = fsm.FsmState(id=0, kind="skill", name="s", skill="tuck")
        with pytest.raises(ValidationError, match="SUCCESS"):
            machine.validate()

    def test_selector_needs_a_drawn_success_edge(self, fetch_machine):
        # without one, the selector would hand a holding goal back to itself
        del fetch_machine.states[fetch_machine.selector_id].transitions["SUCCESS"]
        with pytest.raises(ValidationError,
                           match=r"^state 0: SUCCESS transition unresolvable$"):
            fetch_machine.validate()


def test_runtime_bookkeeping_stays_out_of_equality_and_repr(fetch_machine):
    simworld.run_episode(fetch_machine, fixtures.load_scenario("baseline"))
    assert fetch_machine.terminated is Status.SUCCESS
    assert fetch_machine == experiments.fetch_fsm()
    for name in ("current", "terminated", "started", "failed"):
        assert f"{name}=" not in repr(fetch_machine)
