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


#: (case, nodes as (id, role, children), root, message); a role is spelled
#: per document kind by NODE_LIST_TYPES, and a {role} in a message by its type
STRUCTURAL_RULES = [
    ("dangling child", [(0, "control", [7])], 0, "node 0: dangling child reference 7"),
    ("duplicate id", [(0, "control", [1]), (1, "leaf", []), (1, "leaf", [])], 0,
     r"nodes\[2\]\.id: duplicate id 1"),
    ("two parents", [(0, "control", [1, 2]), (1, "control", [2]), (2, "leaf", [])], 0,
     "node 2 has two parents"),
    ("unreachable node", [(0, "control", [1]), (1, "leaf", []), (2, "leaf", [])], 0,
     r"nodes unreachable from root: \[2\]"),
    ("cycle off the root", [(0, "control", [1]), (1, "leaf", []), (2, "control", [3]),
                            (3, "control", [2])], 0,
     r"nodes unreachable from root: \[2, 3\]"),
    # the parent lies off the root, so no walk from the root can loop here;
    # the cycle through the root runs in a separate process in test_cli
    ("root listed as a child", [(0, "control", [1]), (1, "leaf", []), (2, "control", [0])],
     0, "root must not be a child"),
    ("root missing", [(0, "control", [1]), (1, "leaf", [])], 5, "root id 5 not among nodes"),
    ("empty control", [(0, "control", [1]), (1, "control", [])], 0,
     r"nodes\[1\]: {control} needs at least one child"),
    ("leaf with children", [(0, "control", [1]), (1, "leaf", [2]), (2, "leaf", [])], 0,
     r"nodes\[1\]: {leaf} leaves cannot have children"),
    ("action with children", [(0, "control", [1]), (1, "action", [2]), (2, "leaf", [])], 0,
     r"nodes\[1\]: {action} leaves cannot have children"),
]

NODE_LIST_TYPES = {"bt": {"control": "sequence", "leaf": "condition", "action": "action"},
                   "hfsm": {"control": "sequence_container", "leaf": "condition",
                            "action": "action"}}
ROLE_FIELDS = {"control": {}, "leaf": {"predicate": "docked", "args": []},
               "action": {"skill": "tuck", "args": []}}


@pytest.mark.parametrize("kind", NODE_LIST_TYPES)
@pytest.mark.parametrize("nodes, root, message",
                         [case[1:] for case in STRUCTURAL_RULES],
                         ids=[case[0] for case in STRUCTURAL_RULES])
def test_structural_rules_hold_for_both_node_list_kinds(kind, nodes, root, message):
    types = NODE_LIST_TYPES[kind]
    doc = {"version": 1, "kind": kind, "root": root, "nodes": [
        {"id": nid, "type": types[role], "name": f"n{nid}", "children": children,
         **ROLE_FIELDS[role]}
        for nid, role, children in nodes]}
    with pytest.raises(DocumentError, match=message.format(**types)):
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


MISTYPED_FIELDS = [  # (fixture document, path to the field, value, error)
    ("fetch_bt.json", ["nodes"], 5, "nodes: expected a list, got 5"),
    ("fetch_bt.json", ["nodes", 13, "children"], 5,
     r"nodes\[13\]\.children: expected a list, got 5"),
    ("fetch_bt.json", ["nodes", 3, "args"], 4, r"nodes\[3\]\.args: expected a list, got 4"),
    ("fetch_bt.json", ["nodes", 0, "args"], "cube2",
     r"nodes\[0\]\.args: expected a list, got 'cube2'"),
    ("pick_place_hfsm.json", ["nodes"], 7, "nodes: expected a list, got 7"),
    ("pick_place_hfsm.json", ["nodes", 2, "children"], 5,
     r"nodes\[2\]\.children: expected a list, got 5"),
    ("pick_place_hfsm.json", ["nodes", 1, "args"], 4,
     r"nodes\[1\]\.args: expected a list, got 4"),
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
    # ids are integers, and JSON true is not one
    ("fetch_bt.json", ["nodes", 0, "id"], [0],
     r"nodes\[0\]\.id: expected an integer id, got \[0\]"),
    ("fetch_bt.json", ["root"], [13], r"root: expected an integer id, got \[13\]"),
    ("fetch_bt.json", ["nodes", 5, "id"], True,
     r"nodes\[5\]\.id: expected an integer id, got True"),
    ("fetch_bt.json", ["nodes", 13, "children", 1], [12],
     r"nodes\[13\]\.children\[1\]: expected an integer id, got \[12\]"),
    ("pick_place_hfsm.json", ["nodes", 4, "id"], "4",
     r"nodes\[4\]\.id: expected an integer id, got '4'"),
    ("pick_place_hfsm.json", ["root"], [4], r"root: expected an integer id, got \[4\]"),
    ("pick_place_hfsm.json", ["nodes", 2, "children", 0], 0.0,
     r"nodes\[2\]\.children\[0\]: expected an integer id, got 0\.0"),
    ("fetch_fsm.json", ["initial"], [0], r"initial: expected an integer id, got \[0\]"),
    ("fetch_fsm.json", ["states", 1, "id"], [1],
     r"states\[1\]\.id: expected an integer id, got \[1\]"),
    ("fetch_fsm.json", ["plan_order", 2], [3],
     r"plan_order\[2\]: expected an integer id, got \[3\]"),
    ("fetch_fsm.json", ["states", 1, "transitions", "FAILURE"], [0],
     r"states\[1\]\.transitions\.FAILURE: expected an integer id, got \[0\]"),
    ("fetch_fsm_recharge.json", ["states", 2, "interrupts", 0, "target"], [6],
     r"states\[2\]\.interrupts\[0\]\.target: expected an integer id, got \[6\]"),
    ("fetch_fsm_recharge.json", ["connected", 0, "state"], {"id": 6},
     r"connected\[0\]\.state: expected an integer id, got \{'id': 6\}"),
]


@pytest.mark.parametrize("name, path, value, message", MISTYPED_FIELDS, ids=[
    f"{name[:-5]}:{'.'.join(map(str, path))}" for name, path, _, _ in MISTYPED_FIELDS])
def test_container_field_of_the_wrong_json_type(name, path, value, message):
    parse = {"fetch_library.json": documents.parse_library_document,
             "fetch_goal.json": documents.parse_goal_document}.get(
        name, documents.parse_policy_document)
    with pytest.raises(DocumentError, match=message):
        parse(mutated(name, path, value))


def mutated(name: str, path: list, value) -> str:
    """The packaged document ``name`` with the field at ``path`` set to ``value``."""
    doc = json.loads((fixtures.data_dir() / name).read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("name, path, message", [
    ("fetch_bt.json", ["nodes", 3, "skill"], r"nodes\[3\]\.skill: unknown skill 'fly'"),
    ("pick_place_hfsm.json", ["nodes", 1, "skill"],
     r"nodes\[1\]\.skill: unknown skill 'fly'"),
    ("fetch_fsm.json", ["states", 4, "skill"], r"states\[4\]\.skill: unknown skill 'fly'"),
], ids=["bt", "hfsm", "fsm"])
def test_action_skill_must_be_known(name, path, message):
    with pytest.raises(DocumentError, match=message):
        documents.parse_policy_document(mutated(name, path, "fly"))


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
