"""Backchaining synthesis, plan extraction and precondition ordering."""

import logging

import pytest

from policylab import documents, experiments, metrics, planner
from policylab.core import ActionSpec, ConditionLiteral as L, Goal, PlanError, validate_action_library
from policylab.planner import backchain, extract_plan, synthesize


def leaf_actions(tree):
    out = []

    def walk(nid):
        node = tree.node(nid)
        if node.kind == "action":
            out.append((node.skill, tuple(node.args)))
        for child in node.children:
            walk(child)

    walk(tree.root)
    return out


class TestBackchain:
    def test_safe_tree_matches_the_frozen_fixture(self):
        from policylab import fixtures
        built = metrics.bt_to_graph(experiments.fetch_bt())
        frozen = metrics.bt_to_graph(fixtures.load_policy("fetch_bt"))
        assert metrics.ged_exact(built, frozen).distance == 0

    def test_naive_ordering_swaps_the_navigation_guard(self):
        from policylab import fixtures
        built = metrics.bt_to_graph(experiments.fetch_bt("naive"))
        frozen = metrics.bt_to_graph(fixtures.load_policy("fetch_bt_naive"))
        assert metrics.ged_exact(built, frozen).distance == 0
        # as unordered graphs the two orderings coincide; the difference is
        # the child order of the sequence expanding the place action
        naive, safe = experiments.fetch_bt("naive"), experiments.fetch_bt()

        def place_guard_order(tree):
            place = experiments.find_action(tree, "place")
            parent = tree.node(tree.parent_of(place))
            guards = []
            for child in parent.children[:-1]:
                fallback = tree.node(child)
                guards.append(str(tree.node(fallback.children[0]).literal))
            return guards

        assert place_guard_order(safe) == ["in_hand(cube2)", "robot_at(delivery)"]
        assert place_guard_order(naive) == ["robot_at(delivery)", "in_hand(cube2)"]

    def test_control_nodes_strictly_alternate(self):
        for tree in (experiments.fetch_bt(), experiments.fetch_bt("naive"),
                     experiments.scalability_bt()):
            for nid, node in tree.nodes.items():
                for child in node.children:
                    kind = tree.node(child).kind
                    if node.kind == "fallback":
                        assert kind != "fallback", (nid, child)
                    if node.kind == "sequence":
                        assert kind != "sequence", (nid, child)

    def test_multiple_achievers_expand_in_declaration_order(self):
        tree = backchain(experiments.fetch_goal(),
                         experiments.fetch_library(with_safe_move=True))
        assert len(tree.nodes) == 15
        actions = leaf_actions(tree)
        assert actions.index(("move_to", ("fetch1",))) < actions.index(
            ("safe_move_to", ("fetch1",)))

    def test_unachievable_goal_names_the_condition(self):
        with pytest.raises(PlanError, match=r"unachievable condition docked\(\)"):
            backchain(Goal(conditions=(L("docked"),)), experiments.fetch_library())

    def test_initially_true_condition_degenerates_to_a_guarded_check(self):
        goal = Goal(conditions=(L("docked"),), initially=(L("docked"),))
        tree = backchain(goal, experiments.fetch_library())
        assert len(tree.nodes) == 2
        root = tree.node(tree.root)
        assert root.kind == "fallback"
        assert tree.node(root.children[0]).kind == "condition"

    def test_expansion_cycle_is_caught(self):
        library = validate_action_library([
            ActionSpec("a", (), preconditions=(L("arm_tucked"),),
                       postconditions=(L("docked"),)),
            ActionSpec("b", (), preconditions=(L("docked"),),
                       postconditions=(L("arm_tucked"),)),
        ])
        with pytest.raises(PlanError, match="cycle|depth"):
            backchain(Goal(conditions=(L("docked"),)), library)

    def test_depth_limit_is_enforced(self):
        specs = [ActionSpec("goal_step", (),
                            preconditions=(L("robot_at", ("s0",)),),
                            postconditions=(L("docked"),))]
        for index in range(12):
            specs.append(ActionSpec(
                f"hop{index}", (),
                preconditions=(L("robot_at", (f"s{index + 1}",)),),
                postconditions=(L("robot_at", (f"s{index}",)),),
            ))
        specs.append(ActionSpec("hop_last", (),
                                postconditions=(L("robot_at", ("s12",)),)))
        library = validate_action_library(specs)
        with pytest.raises(PlanError, match="depth limit 10"):
            backchain(Goal(conditions=(L("docked"),)), library)

    def test_side_effect_condition_becomes_a_reference_check(self, caplog):
        both = ActionSpec("deliver_and_dock", (),
                          postconditions=(L("object_at", ("cube2", "delivery")),
                                          L("docked")))
        library = validate_action_library([both])
        goal = Goal(conditions=(L("object_at", ("cube2", "delivery")), L("docked")))
        with caplog.at_level(logging.WARNING):
            tree = backchain(goal, library)
        assert "reference check" in caplog.text
        assert [skill for skill, _ in leaf_actions(tree)] == ["deliver_and_dock"]
        plan = extract_plan(goal, library)
        assert len(plan.steps) == 1


class TestExtractPlan:
    def test_fetch_plan_order(self):
        plan = experiments.fetch_plan()
        assert [step.spec.label() for step in plan.steps] == [
            "move_to(fetch1)!", "pick(cube2)!", "move_to(delivery)!", "place(cube2)!",
        ]

    def test_plan_equals_the_tree_leaf_sequence(self):
        for goal, library in (
            (experiments.fetch_goal(), experiments.fetch_library()),
            experiments.TASKS["scalability"](),
        ):
            plan = extract_plan(goal, library)
            tree = backchain(goal, library)
            assert [(s.spec.skill, tuple(s.spec.params)) for s in plan.steps] \
                == leaf_actions(tree)

    def test_scalability_plan_has_22_steps(self):
        plan = extract_plan(*experiments.TASKS["scalability"]())
        assert len(plan.steps) == 22
        assert plan.steps[0].spec.skill == "search"
        assert plan.steps[-1].spec.skill == "dock"

    def test_single_action_goal(self):
        library = validate_action_library([
            ActionSpec("dock", (), postconditions=(L("docked"),)),
        ])
        plan = extract_plan(Goal(conditions=(L("docked"),)), library)
        assert len(plan.steps) == 1

    def test_dispatch_contexts_carry_the_causal_links(self):
        plan = extract_plan(*experiments.TASKS["scalability"]())
        by_label = {(s.spec.name, s.spec.params): s for s in plan.steps}
        pick3 = by_label[("pick", ("cube3",))]
        assert set(map(str, pick3.dispatch_pre)) == {
            "found()", "object_at(cube1, delivery)", "object_at(cube2, delivery)",
            "robot_at(fetch3)",
        }

    def test_a_plan_that_undoes_a_goal_condition_is_refused(self):
        # moving to delivery leaves fetch1, so the first condition is lost again
        goal = Goal((L("robot_at", ("fetch1",)), L("robot_at", ("delivery",))))
        library = experiments.fetch_library()
        for synthesis in (backchain, extract_plan):
            with pytest.raises(PlanError, match=r"^plan leaves goal condition "
                                                r"robot_at\(fetch1\) unmet$"):
                synthesis(goal, library)


class TestSynthesize:
    @pytest.mark.parametrize("task", sorted(experiments.TASKS))
    @pytest.mark.parametrize("ordering", ["safe", "naive"])
    def test_tree_equals_the_backchained_one(self, task, ordering):
        goal, library = experiments.TASKS[task]()
        tree, _ = synthesize(goal, library, ordering)
        assert documents.serialize_policy(tree) == \
            documents.serialize_policy(backchain(goal, library, ordering))

    @pytest.mark.parametrize("task", sorted(experiments.TASKS))
    def test_plan_equals_the_extracted_one(self, task):
        goal, library = experiments.TASKS[task]()
        _, plan = synthesize(goal, library)
        expected = extract_plan(goal, library)
        assert plan.steps == expected.steps
        assert plan.goal == expected.goal


def order_preconditions(action: ActionSpec, plan, initially=()) -> list:
    """Sort an action's preconditions by when the plan achieves them: the
    reference the synthesis ordering is checked against.

    Conditions that hold initially and are never produced by a step come
    first; ties keep the declared order.
    """
    initially = tuple(initially)

    def sort_index(literal: L) -> int:
        achieved_at = [
            index for index, step in enumerate(plan.steps)
            if literal in step.spec.postconditions
        ]
        if achieved_at:
            return achieved_at[-1]
        if literal in initially:
            return -1
        raise PlanError(
            f"{literal} is not achieved by any plan step and does not hold initially"
        )

    return sorted(action.preconditions, key=sort_index)


class TestOrderPreconditions:
    def test_grasping_comes_before_navigating(self):
        plan = experiments.fetch_plan()
        place = plan.steps[-1].spec
        ordered = order_preconditions(place, plan)
        assert [str(lit) for lit in ordered] == [
            "in_hand(cube2)", "robot_at(delivery)",
        ]

    def test_singleton_is_unchanged(self):
        plan = experiments.fetch_plan()
        pick = plan.steps[1].spec
        assert order_preconditions(pick, plan) == list(pick.preconditions)

    def test_initially_true_conditions_sort_first(self):
        plan = experiments.fetch_plan()
        action = ActionSpec("place", ("cube2",),
                            preconditions=(L("robot_at", ("delivery",)), L("found")),
                            postconditions=(L("object_at", ("cube2", "delivery")),))
        ordered = order_preconditions(action, plan, initially=(L("found"),))
        assert str(ordered[0]) == "found()"

    def test_unachieved_precondition_is_an_error(self):
        plan = experiments.fetch_plan()
        action = ActionSpec("dock", (), preconditions=(L("docked"),),
                            postconditions=(L("arm_tucked"),))
        with pytest.raises(PlanError, match="docked"):
            order_preconditions(action, plan)

    def test_matches_the_synthesis_ordering_on_the_canonical_tasks(self):
        for goal, library in (
            (experiments.fetch_goal(), experiments.fetch_library()),
            experiments.TASKS["scalability"](),
        ):
            plan = extract_plan(goal, library)
            tree = backchain(goal, library)
            for step in plan.steps:
                if len(step.spec.preconditions) < 2:
                    continue
                action = experiments.find_action(tree, step.spec.skill,
                                                 step.spec.params)
                parent = tree.node(tree.parent_of(action))
                expanded = [
                    tree.node(tree.node(child).children[0]).literal
                    for child in parent.children[:-1]
                ]
                ordered = order_preconditions(step.spec, plan, goal.initially)
                assert expanded == ordered, step.spec.label()

    def test_a_closure_does_not_depend_on_the_closures_computed_before_it(self):
        # a and b achieve each other's precondition: the walk from either
        # stops where it meets the action it started from
        at, tucked = L("robot_at", ("fetch1",)), L("arm_tucked")
        library = validate_action_library([
            ActionSpec("a", preconditions=(at,), postconditions=(tucked,)),
            ActionSpec("b", preconditions=(tucked,), postconditions=(at,))])
        fresh = planner._Expansion(Goal((tucked,)), library, "safe")
        expansion = planner._Expansion(Goal((tucked,)), library, "safe")
        assert expansion._post_closure(tucked) == frozenset({tucked, at})
        assert expansion._post_closure(at) == fresh._post_closure(at) == frozenset({tucked, at})
