"""Document formats: schema checks and round-trip stability."""

import json

import pytest

from policylab import documents, fixtures
from policylab.bt import PolicyTree
from policylab.core import DocumentError
from policylab.fsm import StateMachine
from policylab.hfsm import HfsmContainer


def test_fetch_tree_fixture_has_fourteen_nodes():
    tree = fixtures.load_policy("fetch_bt")
    assert isinstance(tree, PolicyTree)
    assert len(tree.nodes) == 14


def test_round_trip_is_byte_identical_over_the_corpus():
    for name in fixtures.available_policies():
        text = fixtures.policy_path(name).read_text()
        policy = documents.parse_policy_document(text)
        once = documents.serialize_policy(policy)
        again = documents.serialize_policy(documents.parse_policy_document(once))
        assert once == again, name


def test_policy_kinds_parse_to_their_types():
    assert isinstance(fixtures.load_policy("fetch_fsm"), StateMachine)
    assert isinstance(fixtures.load_policy("pick_place_hfsm"), HfsmContainer)


def test_dangling_child_reference():
    doc = {
        "version": 1, "kind": "bt", "root": 0,
        "nodes": [{"id": 0, "type": "sequence", "name": "root", "children": [7]}],
    }
    with pytest.raises(DocumentError, match="dangling"):
        documents.parse_policy_document(json.dumps(doc))


def test_unknown_node_kind():
    doc = {
        "version": 1, "kind": "bt", "root": 0,
        "nodes": [{"id": 0, "type": "decorator", "name": "x"}],
    }
    with pytest.raises(DocumentError, match="unknown node kind"):
        documents.parse_policy_document(json.dumps(doc))


@pytest.mark.parametrize("node, message", [
    ({"id": 1, "type": "sequence_container", "name": "empty", "children": []},
     r"nodes\[1\]: sequence_container needs at least one child"),
    ({"id": 1, "type": "action", "name": "tuck", "skill": "tuck", "args": [],
      "children": [2]},
     r"nodes\[1\]: action leaves cannot have children"),
    ({"id": 1, "type": "condition", "name": "docked?", "predicate": "docked",
      "args": [], "children": [2]},
     r"nodes\[1\]: condition leaves cannot have children"),
])
def test_nested_machine_container_and_leaf_rules(node, message):
    doc = {"version": 1, "kind": "hfsm", "root": 0, "nodes": [
        {"id": 0, "type": "fallback_container", "name": "root", "children": [1]},
        node,
        {"id": 2, "type": "condition", "name": "docked?", "predicate": "docked", "args": []},
    ]}
    with pytest.raises(DocumentError, match=message):
        documents.parse_policy_document(json.dumps(doc))


def test_unknown_policy_kind():
    with pytest.raises(DocumentError, match="unknown policy kind"):
        documents.parse_policy_document(json.dumps({"kind": "petri", "nodes": []}))


def test_malformed_json_reports_position():
    with pytest.raises(DocumentError, match="line 1"):
        documents.parse_policy_document("{not json")


def test_unknown_predicate_in_condition_node():
    doc = {
        "version": 1, "kind": "bt", "root": 0,
        "nodes": [{"id": 0, "type": "condition", "name": "x",
                   "predicate": "grasped", "args": []}],
    }
    with pytest.raises(DocumentError):
        documents.parse_policy_document(json.dumps(doc))


def test_fsm_transition_target_must_exist():
    doc = {
        "version": 1, "kind": "fsm", "initial": 0, "plan_order": [0], "goal": [],
        "states": [
            {"id": 0, "type": "skill", "name": "s", "skill": "tuck", "args": [],
             "pre": [], "post": None, "transitions": {"SUCCESS": 9}},
        ],
    }
    with pytest.raises(DocumentError, match="missing"):
        documents.parse_policy_document(json.dumps(doc))


def test_library_and_goal_round_trip():
    library = fixtures.load_library("fetch")
    text = documents.serialize_library(library)
    again = documents.parse_library_document(text)
    assert documents.serialize_library(again) == text

    goal = fixtures.load_goal("fetch")
    text = documents.serialize_goal(goal)
    assert documents.serialize_goal(documents.parse_goal_document(text)) == text


def test_library_document_errors_carry_the_field_path():
    doc = {"version": 1,
           "actions": [{"name": "pick", "post": [{"pred": "grasped", "args": []}]}]}
    with pytest.raises(DocumentError, match=r"actions\[0\].post\[0\]"):
        documents.parse_library_document(json.dumps(doc))


def test_library_level_defects_still_rejected():
    doc = {"version": 1, "actions": [{"name": "pick"}]}
    with pytest.raises(DocumentError, match="no postconditions"):
        documents.parse_library_document(json.dumps(doc))
