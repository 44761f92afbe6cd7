"""Vocabulary types and action library validation."""

import ast
import inspect

import pytest

from policylab import bt, core, fsm, hfsm, metrics, simworld
from policylab.core import (
    ActionSpec,
    ConditionLiteral as L,
    Guard,
    Status,
    ValidationError,
    validate_action_library,
)
from policylab.experiments import fetch_library


def test_status_values():
    assert {s.value for s in Status} == {"SUCCESS", "FAILURE", "RUNNING"}


def test_status_constants_are_the_members():
    assert core.SUCCESS is Status.SUCCESS
    assert core.FAILURE is Status.FAILURE
    assert core.RUNNING is Status.RUNNING


@pytest.mark.parametrize("module", [bt, hfsm, fsm, simworld, metrics],
                         ids=lambda module: module.__name__)
def test_engine_functions_read_the_status_constants(module):
    """A ``Status.X`` read goes through ``EnumType`` each time; the engines
    run per node and per tick, so their functions read ``core.X`` instead."""
    reads = []
    for function in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            reads += [f"{getattr(function, 'name', 'lambda')}:{node.lineno}"
                      for node in ast.walk(function)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name) and node.value.id == "Status"
                      and node.attr in ("SUCCESS", "FAILURE", "RUNNING")]
    assert reads == []


class TestConditionLiteral:
    def test_key_form(self):
        assert L("robot_at", ("fetch1",)).key() == "robot_at(fetch1)"
        assert L("object_at", ("cube2", "delivery")).key() == "object_at(cube2, delivery)"
        assert L("docked").key() == "docked()"

    def test_kept_key_stays_out_of_equality_hash_and_repr(self):
        used, fresh = (L("object_at", ("cube2", "delivery")) for _ in range(2))
        assert used.key() is used.key()
        assert (used == fresh, hash(used), repr(used)) == (True, hash(fresh), repr(fresh))

    def test_unknown_predicate_rejected(self):
        with pytest.raises(ValidationError, match="unknown predicate"):
            L("grasped", ("cube2",))

    def test_arity_checked(self):
        with pytest.raises(ValidationError, match="argument"):
            L("robot_at", ("a", "b"))

    @pytest.mark.parametrize("threshold", [-1, 101, "lots"])
    def test_battery_threshold_range(self, threshold):
        with pytest.raises(ValidationError):
            L("battery_above", (threshold,))

    @pytest.mark.parametrize("threshold", [True, False])
    def test_battery_threshold_is_not_a_boolean(self, threshold):
        # as the document reader, which reads JSON true as no number
        with pytest.raises(ValidationError, match=rf"\[0, 100\], got {threshold}$"):
            L("battery_above", (threshold,))

    def test_battery_threshold_ok(self):
        assert L("battery_above", (20,)).key() == "battery_above(20)"


def test_guard_negation():
    guard = Guard(L("battery_above", (20,)), negated=True)
    assert guard.key() == "!battery_above(20)"
    assert guard.holds(lambda lit: False)
    assert not guard.holds(lambda lit: True)


class TestLibraryValidation:
    def test_fetch_library_index(self):
        library = fetch_library()
        assert len(library.achievers) == 4
        for literal, achievers in library.achievers.items():
            assert len(achievers) == 1, literal

    def test_two_achievers_keep_declaration_order(self):
        library = fetch_library(with_safe_move=True)
        achievers = library.achievers_of(L("robot_at", ("fetch1",)))
        assert [spec.name for spec in achievers] == ["move_to", "safe_move_to"]

    def test_empty_library(self):
        with pytest.raises(ValidationError, match="empty library"):
            validate_action_library([])

    def test_duplicate_identity(self):
        spec = ActionSpec("move_to", ("fetch1",),
                          postconditions=(L("robot_at", ("fetch1",)),))
        with pytest.raises(ValidationError, match="duplicate action"):
            validate_action_library([spec, spec])

    def test_same_name_different_params_is_fine(self):
        specs = [
            ActionSpec("move_to", (station,),
                       postconditions=(L("robot_at", (station,)),))
            for station in ("fetch1", "delivery")
        ]
        assert len(validate_action_library(specs).achievers) == 2

    def test_self_loop_rejected_and_names_literal(self):
        loop = ActionSpec("dock", (),
                          preconditions=(L("docked"),),
                          postconditions=(L("docked"),))
        with pytest.raises(ValidationError, match=r"docked\(\)"):
            validate_action_library([loop])

    def test_missing_postconditions(self):
        with pytest.raises(ValidationError, match="no postconditions"):
            validate_action_library([ActionSpec("noop", ())])

    def test_repeated_postcondition(self):
        spec = ActionSpec("dock", (),
                          postconditions=(L("docked"), L("docked")))
        with pytest.raises(ValidationError, match="repeats"):
            validate_action_library([spec])
