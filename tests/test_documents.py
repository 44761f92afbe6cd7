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


MISTYPED_CONTAINERS = [  # (fixture document, path to the field, value, error)
    ("fetch_bt.json", ["nodes"], 5, "nodes: expected a list, got 5"),
    ("fetch_bt.json", ["nodes", 13, "children"], 5,
     r"nodes\[13\]\.children: expected a list, got 5"),
    ("fetch_bt.json", ["nodes", 3, "args"], 4, r"nodes\[3\]\.args: expected a list, got 4"),
    ("fetch_bt.json", ["nodes", 0, "args"], "cube2",
     r"nodes\[0\]\.args: expected a list, got 'cube2'"),
    ("pick_place_hfsm.json", ["nodes"], 7, "nodes: expected a list, got 7"),
    ("pick_place_hfsm.json", ["nodes", 2, "children"], 5,
     r"nodes\[2\]\.children: expected a list, got 5"),
    ("pick_place_hfsm.json", ["nodes", 1, "args"], 4, r"node 1\.args: expected a list, got 4"),
    ("fetch_fsm.json", ["states"], 5, "states: expected a list, got 5"),
    ("fetch_fsm.json", ["states", 0, "transitions"], [1],
     r"states\[0\]\.transitions: expected an object, got \[1\]"),
    ("fetch_fsm.json", ["states", 2, "pre"], 3, r"states\[2\]\.pre: expected a list, got 3"),
    ("fetch_fsm.json", ["states", 1, "args"], 4, r"states\[1\]\.args: expected a list, got 4"),
    ("fetch_fsm.json", ["states", 1, "interrupts"], 1,
     r"states\[1\]\.interrupts: expected a list, got 1"),
    ("fetch_fsm.json", ["plan_order"], 5, "plan_order: expected a list, got 5"),
    ("fetch_fsm.json", ["goal"], {"pred": "docked"}, "goal: expected a list, got {"),
    ("fetch_fsm.json", ["connected"], 1, "connected: expected a list, got 1"),
    ("fetch_library.json", ["actions"], 1, "actions: expected a list, got 1"),
    ("fetch_library.json", ["actions", 0, "params"], 1,
     r"actions\[0\]\.params: expected a list, got 1"),
    ("fetch_library.json", ["actions", 1, "pre"], 1,
     r"actions\[1\]\.pre: expected a list, got 1"),
    ("fetch_library.json", ["actions", 1, "post"], 1,
     r"actions\[1\]\.post: expected a list, got 1"),
    ("fetch_goal.json", ["goal"], 1, "goal: expected a list, got 1"),
    ("fetch_goal.json", ["initially"], 1, "initially: expected a list, got 1"),
]


@pytest.mark.parametrize("name, path, value, message", MISTYPED_CONTAINERS, ids=[
    f"{name[:-5]}:{'.'.join(map(str, path))}" for name, path, _, _ in MISTYPED_CONTAINERS])
def test_container_field_of_the_wrong_json_type(name, path, value, message):
    doc = json.loads((fixtures.data_dir() / name).read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    parse = {"fetch_library.json": documents.parse_library_document,
             "fetch_goal.json": documents.parse_goal_document}.get(
        name, documents.parse_policy_document)
    with pytest.raises(DocumentError, match=message):
        parse(json.dumps(doc))


@pytest.mark.parametrize("status, message", [
    ("BAD", r"states\[5\]\.status: expected SUCCESS, FAILURE or RUNNING, got 'BAD'"),
    (None, r"states\[5\]: missing field 'status'"),
    (5, r"states\[5\]\.status: expected SUCCESS, FAILURE or RUNNING, got 5"),
    ([0], r"states\[5\]\.status: expected SUCCESS, FAILURE or RUNNING, got \[0\]"),
], ids=["unknown", "missing", "number", "list"])
def test_outcome_state_status_is_checked(status, message):
    doc = json.loads(fixtures.policy_path("fetch_fsm").read_text())
    outcome = doc["states"][5]
    assert outcome["type"] == "outcome"
    if status is None:
        del outcome["status"]
    else:
        outcome["status"] = status
    with pytest.raises(DocumentError, match=message):
        documents.parse_policy_document(json.dumps(doc))
