"""Document formats: schema checks and round-trip stability."""

import json
import math
import random
import re

import pytest

from conftest import POLICY_DEFECTS, codec, packaged_documents, packaged_policies
from policylab import bt, documents, experiments, fixtures, fsm, hfsm, planner
from policylab.bt import PolicyTree
from policylab.core import ConditionLiteral, DocumentError, Guard, KNOWN_SKILLS, Status
from policylab.documents import VERSION, _literal_doc
from policylab.fsm import StateMachine
from policylab.hfsm import HfsmContainer


def test_fetch_tree_fixture_has_fourteen_nodes():
    tree = fixtures.load_policy("fetch_bt")
    assert isinstance(tree, PolicyTree)
    assert len(tree.nodes) == 14


def test_round_trip_is_byte_identical_over_the_corpus():
    paths = packaged_documents()
    assert len(paths) == 28
    for path in paths:
        parse, serialize = codec(path)
        text = path.read_text()
        assert serialize(parse(text)) == text, path.name


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


def test_parallel_over_two_motions_names_the_node():
    doc = {"version": 1, "kind": "bt", "root": 0, "nodes": [
        {"id": 0, "type": "parallel", "name": "both", "children": [1, 2], "threshold": 1},
        {"id": 1, "type": "action", "name": "go", "skill": "move_to", "args": ["fetch1"]},
        {"id": 2, "type": "sequence", "name": "s", "children": [3]},
        {"id": 3, "type": "action", "name": "look", "skill": "search", "args": []}]}
    with pytest.raises(DocumentError, match=r"^node 0: parallel has motion actions "
                                            r"under 2 children"):
        documents.parse_policy_document(json.dumps(doc))
    doc["nodes"][3]["skill"] = "tuck"
    assert isinstance(documents.parse_policy_document(json.dumps(doc)), PolicyTree)


@pytest.mark.parametrize("threshold", ["2", None, True, 1.5])
def test_parallel_threshold_must_be_an_integer(threshold):
    doc = {"version": 1, "kind": "bt", "root": 0, "nodes": [
        {"id": 0, "type": "parallel", "name": "both", "children": [1, 2], "threshold": 2},
        {"id": 1, "type": "action", "name": "tuck", "skill": "tuck", "args": []},
        {"id": 2, "type": "condition", "name": "docked?", "predicate": "docked", "args": []}]}
    assert documents.parse_policy_document(json.dumps(doc)).nodes[0].threshold == 2
    doc["nodes"][0]["threshold"] = threshold
    with pytest.raises(DocumentError, match=rf"^nodes\[0\]\.threshold: expected an integer, "
                                            rf"got {re.escape(repr(threshold))}$"):
        documents.parse_policy_document(json.dumps(doc))


def test_parallel_threshold_round_trips():
    doc = {"version": 1, "kind": "bt", "root": 0, "nodes": [
        {"id": 0, "type": "parallel", "name": "both", "children": [1, 2], "threshold": 2},
        {"id": 1, "type": "action", "name": "go", "skill": "move_to", "args": ["fetch1"]},
        {"id": 2, "type": "condition", "name": "docked?", "predicate": "docked",
         "args": []}]}
    text = json.dumps(doc, indent=2) + "\n"
    assert documents.serialize_policy(documents.parse_policy_document(text)) == text


def test_parallel_inside_a_cycle_reaches_the_structure_check():
    doc = {"version": 1, "kind": "bt", "root": 0, "nodes": [
        {"id": 0, "type": "parallel", "name": "p", "children": [1], "threshold": 1},
        {"id": 1, "type": "sequence", "name": "s", "children": [0]}]}
    with pytest.raises(DocumentError, match="root must not be a child"):
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


@pytest.mark.parametrize("doc, message", [case[1:] for case in POLICY_DEFECTS],
                         ids=[case[0] for case in POLICY_DEFECTS])
def test_policy_defects_found_by_the_type_checks(doc, message):
    with pytest.raises(DocumentError, match=f"^{re.escape(message)}$"):
        documents.parse_policy_document(json.dumps(doc))


def test_unknown_policy_kind():
    with pytest.raises(DocumentError, match="unknown policy kind"):
        documents.parse_policy_document(json.dumps({"kind": "petri", "nodes": []}))


def test_malformed_json_reports_position():
    with pytest.raises(DocumentError, match="line 1"):
        documents.parse_policy_document("{not json")


@pytest.mark.parametrize("parse", [documents.parse_policy_document,
                                   documents.parse_library_document,
                                   documents.parse_goal_document,
                                   documents.parse_scenario_document])
def test_json_nested_too_deeply_is_a_document_error(parse):
    with pytest.raises(DocumentError, match="^top level: nested too deeply$"):
        parse("[" * 100_000)


def test_bytes_that_are_not_utf8_are_a_document_error():
    with pytest.raises(DocumentError, match="not UTF-8: invalid start byte at byte 0"):
        documents.parse_policy_document(b"\xff")


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


@pytest.mark.parametrize("field, value, message", [
    ("type", "hub", r"states\[1\]\.type: unknown state kind 'hub'"),
    ("id", 0, r"states\[1\]\.id: duplicate id 0"),
    ("transitions", {"DONE": 2}, r"states\[1\]\.transitions: unknown label 'DONE'"),
], ids=["unknown-type", "duplicate-id", "unknown-label"])
def test_machine_state_defects_name_the_field(field, value, message):
    doc = json.loads(fixtures.policy_path("fetch_fsm").read_text())
    doc["states"][1][field] = value
    with pytest.raises(DocumentError, match=message):
        documents.parse_policy_document(json.dumps(doc))


def test_a_well_formed_policy_builds_no_error_path(monkeypatch):
    # the checkers join a field path only to raise; one built eagerly would
    # cost every read of a well-formed document
    texts = [fixtures.policy_path(name).read_text() for name in packaged_policies()]
    for cubes in range(1, 10):
        tree, plan = planner.synthesize(*experiments.generated_task(range(1, cubes + 1)))
        texts += [documents.serialize_policy(policy) for policy in (
            tree, fsm.build_sequential(plan), fsm.build_fault_tolerant(plan), hfsm.from_bt(tree))]

    def joined(*pieces):
        raise AssertionError(f"the path of {pieces} was built")

    monkeypatch.setattr(documents, "_path", joined)
    for text in texts:
        assert documents.serialize_policy(documents.parse_policy_document(text)) == text
    with pytest.raises(AssertionError, match=r"the path of \('nodes', 0, 'name'\) was built"):
        documents.parse_policy_document(mutated("fetch_bt.json", ["nodes", 0, "name"], 5))


def test_library_and_goal_round_trip():
    library = fixtures.load_library("fetch")
    text = documents.serialize_library(library)
    again = documents.parse_library_document(text)
    assert documents.serialize_library(again) == text

    goal = fixtures.load_goal("fetch")
    text = documents.serialize_goal(goal)
    assert documents.serialize_goal(documents.parse_goal_document(text)) == text


def test_goal_with_initial_conditions_round_trips():
    doc = {"version": 1, "goal": [{"pred": "docked", "args": []}],
           "initially": [{"pred": "robot_at", "args": ["fetch1"]}]}
    text = json.dumps(doc, indent=2) + "\n"
    assert documents.serialize_goal(documents.parse_goal_document(text)) == text


def test_empty_goal_is_rejected():
    with pytest.raises(DocumentError, match="^goal must contain at least one condition$"):
        documents.parse_goal_document(json.dumps({"version": 1, "goal": []}))


def test_library_document_errors_carry_the_field_path():
    doc = {"version": 1,
           "actions": [{"name": "pick", "post": [{"pred": "grasped", "args": []}]}]}
    with pytest.raises(DocumentError, match=r"actions\[0\].post\[0\]"):
        documents.parse_library_document(json.dumps(doc))


def test_library_level_defects_still_rejected():
    doc = {"version": 1, "actions": [{"name": "pick", "params": ["cube2"]}]}
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
    # predicates and action names are strings; args entries are strings or numbers
    ("fetch_bt.json", ["nodes", 0, "predicate"], ["robot_at"],
     r"nodes\[0\]\.predicate: expected a string, got \['robot_at'\]"),
    ("fetch_fsm.json", ["states", 1, "post", "pred"], ["robot_at"],
     r"states\[1\]\.post\.pred: expected a string, got \['robot_at'\]"),
    ("fetch_library.json", ["actions", 1, "pre", 0, "pred"], [0],
     r"actions\[1\]\.pre\[0\]\.pred: expected a string, got \[0\]"),
    ("fetch_library.json", ["actions", 0, "name"], [1],
     r"actions\[0\]\.name: expected a string, got \[1\]"),
    ("fetch_bt.json", ["nodes", 3, "args", 0], [1],
     r"nodes\[3\]\.args\[0\]: expected a string or a number, got \[1\]"),
    ("fetch_bt.json", ["nodes", 0, "args", 1], None,
     r"nodes\[0\]\.args\[1\]: expected a string or a number, got None"),
    ("pick_place_hfsm.json", ["nodes", 1, "args", 0], True,
     r"nodes\[1\]\.args\[0\]: expected a string or a number, got True"),
    ("fetch_fsm.json", ["states", 1, "args", 0], {"x": 1},
     r"states\[1\]\.args\[0\]: expected a string or a number, got \{'x': 1\}"),
    ("fetch_goal.json", ["goal", 0, "args", 1], [],
     r"goal\[0\]\.args\[1\]: expected a string or a number, got \[\]"),
    ("fetch_library.json", ["actions", 1, "params", 0], [1],
     r"actions\[1\]\.params\[0\]: expected a string or a number, got \[1\]"),
    ("fetch_library.json", ["actions", 0, "params", 0], {},
     r"actions\[0\]\.params\[0\]: expected a string or a number, got \{\}"),
    # a rank is an integer, and a guard's negated flag is true or false
    ("fetch_fsm_safe_move.json", ["states", 6, "rank"], "1",
     r"states\[6\]\.rank: expected an integer, got '1'"),
    ("fetch_fsm_recharge.json", ["states", 2, "interrupts", 0, "negated"], "false",
     r"states\[2\]\.interrupts\[0\]\.negated: expected true or false, got 'false'"),
    # a node's or state's name is a string
    ("fetch_bt.json", ["nodes", 0, "name"], 5, r"nodes\[0\]\.name: expected a string, got 5"),
    ("pick_place_hfsm.json", ["nodes", 2, "name"], None,
     r"nodes\[2\]\.name: expected a string, got None"),
    ("fetch_fsm.json", ["states", 1, "name"], [0],
     r"states\[1\]\.name: expected a string, got \[0\]"),
    ("fetch_fsm.json", ["states", 0, "name"], True,
     r"states\[0\]\.name: expected a string, got True"),
    ("fetch_fsm.json", ["states", 5, "name"], {},
     r"states\[5\]\.name: expected a string, got \{\}"),
]


@pytest.mark.parametrize("name, path, value, message", MISTYPED_FIELDS, ids=[
    f"{name[:-5]}:{'.'.join(map(str, path))}" for name, path, _, _ in MISTYPED_FIELDS])
def test_container_field_of_the_wrong_json_type(name, path, value, message):
    with pytest.raises(DocumentError, match=message):
        parser(name)(mutated(name, path, value))


def parser(name: str):
    """The parser of the packaged document ``name``."""
    return codec(fixtures.data_dir() / name)[0]


def mutated(name: str, path: list, value) -> str:
    """The packaged document ``name`` with the field at ``path`` set to ``value``."""
    doc = json.loads((fixtures.data_dir() / name).read_text())
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return json.dumps(doc)


@pytest.mark.parametrize("name, path, message", [
    ("fetch_fsm.json", ["plan_order", 0], r"plan_order\[0\]: names missing state 99"),
    ("fetch_fsm_recharge.json", ["connected", 0, "state"],
     r"connected\[0\]: names missing state 99"),
], ids=["plan_order", "connected"])
def test_machine_entries_must_name_a_state(name, path, message):
    with pytest.raises(DocumentError, match=message):
        documents.parse_policy_document(mutated(name, path, 99))


@pytest.mark.parametrize("name, path, message", [
    ("fetch_bt.json", ["nodes", 3, "skill"], r"nodes\[3\]\.skill: unknown skill 'fly'"),
    ("pick_place_hfsm.json", ["nodes", 1, "skill"],
     r"nodes\[1\]\.skill: unknown skill 'fly'"),
    ("fetch_fsm.json", ["states", 4, "skill"], r"states\[4\]\.skill: unknown skill 'fly'"),
    ("fetch_library.json", ["actions", 0, "skill"],
     r"actions\[0\]\.skill: unknown skill 'fly'"),
], ids=["bt", "hfsm", "fsm", "library"])
def test_action_skill_must_be_known(name, path, message):
    with pytest.raises(DocumentError, match=message):
        parser(name)(mutated(name, path, "fly"))


@pytest.mark.parametrize("name, path, args, message", [
    ("fetch_bt.json", ["nodes", 5, "args"], [], r"^nodes\[5\]\.args: pick takes 1 "),
    ("fetch_bt.json", ["nodes", 3, "args"], ["fetch1", "extra", 3],
     r"^nodes\[3\]\.args: move_to takes 1 argument\(s\), got 3$"),
    ("pick_place_hfsm.json", ["nodes", 1, "args"], [],
     r"^nodes\[1\]\.args: pick takes 1 argument\(s\), got 0$"),
    ("fetch_fsm.json", ["states", 2, "args"], [], r"^states\[2\]\.args: pick takes 1 "),
    ("fetch_library.json", ["actions", 1, "params"], ["cube2", "cube3"],
     r"^actions\[1\]\.params: pick takes 1 argument\(s\), got 2$"),
], ids=["bt_short", "bt_long", "hfsm", "fsm", "library"])
def test_skill_arguments_must_match_the_skill(name, path, args, message):
    with pytest.raises(DocumentError, match=message):
        parser(name)(mutated(name, path, args))


def test_library_action_without_a_skill_runs_the_skill_of_its_name():
    post = [{"pred": "docked", "args": []}]
    library = documents.parse_library_document(json.dumps(
        {"version": 1, "actions": [{"name": "dock", "post": post}]}))
    assert library.specs[0].skill == "dock"
    with pytest.raises(DocumentError, match=r"actions\[0\]\.name: unknown skill 'fly'"):
        documents.parse_library_document(json.dumps(
            {"version": 1, "actions": [{"name": "fly", "post": post}]}))


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


# ---------------------------------------------------------------------------
# the policy writer against json.dumps(indent=2)


@pytest.mark.parametrize("cubes", range(1, 10))
def test_writer_matches_json_on_synthesized_policies(cubes):
    # the policy writer's output is the reference document as json writes it
    goal, library = experiments.generated_task(range(1, cubes + 1))
    safe = planner.backchain(goal, library, "safe")
    plan = planner.extract_plan(goal, library)
    for policy in (safe, planner.backchain(goal, library, "naive"), fsm.build_sequential(plan),
                   fsm.build_fault_tolerant(plan), hfsm.from_bt(safe)):
        assert_written_as_reference(policy)


#: pieces of keys and strings: quotes, escapes, control, non-ASCII and non-BMP characters
STRING_PIECES = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "a", "key", " ",
                 "\u00e9", "\u2028", "\u4e2d", "\U0001f916", "\U0010ffff"]
SCALARS = [0, -1, 1, 10**30, -10**30, 0.0, -0.0, 1e-7, 1e300, -2.5, math.nan, math.inf,
           -math.inf, True, False, None]


def random_string(rng: random.Random) -> str:
    return "".join(rng.choice(STRING_PIECES) for _ in range(rng.randint(0, 4)))


def random_value(rng: random.Random, depth: int = 0):
    """A JSON value with containers nested at most 4 deep; tuples stand for lists."""
    roll = rng.random()
    if depth == 4 or roll < 0.4:
        pick = rng.random()
        if pick < 0.4:
            return random_string(rng)
        if pick < 0.5:
            return rng.randint(-10**6, 10**6)
        if pick < 0.6:
            return rng.uniform(-1, 1) * 10.0 ** rng.randint(-12, 12)
        return rng.choice(SCALARS)
    items = [random_value(rng, depth + 1) for _ in range(rng.randint(0, 4))]
    if roll < 0.65:
        return {random_string(rng): item for item in items}
    return items if roll < 0.85 else tuple(items)


# ---------------------------------------------------------------------------
# the policy writer against the document builders it replaced
#
# ``serialize_policy`` writes each entry straight from the policy object;
# the builders below are the dict documents it used to build, kept as the
# reference its output is compared with.


def _node_entry(node, children) -> dict:
    """A tree or nested-machine node's entry; ``children`` is None on a leaf."""
    entry: dict = {"id": node.id, "type": node.kind, "name": node.name}
    if children is not None:
        entry["children"] = children
    if node.kind == "parallel":
        entry["threshold"] = node.threshold
    if node.kind == "action":
        entry["skill"] = node.skill
        entry["args"] = list(node.args)
    if node.kind == "condition":
        entry["predicate"] = node.literal.predicate
        entry["args"] = list(node.literal.args)
    return entry


def _bt_doc(tree: PolicyTree) -> dict:
    nodes = [_node_entry(node, list(node.children) if node.is_control() else None)
             for node in sorted(tree.nodes.values(), key=lambda n: n.id)]
    return {"version": VERSION, "kind": "bt", "root": tree.root, "nodes": nodes}


def _guard_doc(guard: Guard) -> dict:
    doc = _literal_doc(guard.literal)
    doc["negated"] = guard.negated
    return doc


def _fsm_doc(machine: StateMachine) -> dict:
    states = []
    for sid in sorted(machine.states):
        state = machine.states[sid]
        entry: dict = {"id": sid, "type": state.kind, "name": state.name}
        if state.kind == "skill":
            entry["skill"] = state.skill
            entry["args"] = list(state.args)
            entry["pre"] = [_literal_doc(lit) for lit in state.dispatch_pre]
            entry["post"] = _literal_doc(state.achieves) if state.achieves else None
            if state.rank:
                entry["rank"] = state.rank
        if state.kind == "outcome":
            entry["status"] = state.outcome.value
        if state.interrupts:
            entry["interrupts"] = [
                dict(_guard_doc(guard), target=target)
                for guard, target in state.interrupts
            ]
        if state.transitions:
            entry["transitions"] = {
                label: state.transitions[label]
                for label in ("SUCCESS", "FAILURE", "RUNNING")
                if label in state.transitions
            }
        states.append(entry)
    doc: dict = {
        "version": VERSION,
        "kind": "fsm",
        "initial": machine.initial,
        "plan_order": list(machine.plan_order),
        "goal": [_literal_doc(lit) for lit in machine.goal],
        "states": states,
    }
    if machine.connected:
        doc["connected"] = [
            dict(_guard_doc(guard), state=sid) for sid, guard in machine.connected
        ]
    return doc


def _hfsm_doc(root: HfsmContainer) -> dict:
    nodes = [_node_entry(node, [child.id for child in node.children]
                         if node.kind in hfsm.CONTAINER_KINDS else None)
             for node in sorted(root.walk(), key=lambda n: n.id)]
    return {"version": VERSION, "kind": "hfsm", "root": root.id, "nodes": nodes}


def reference_doc(policy) -> dict:
    """The document the policy writer must write, as the builders above made it."""
    if isinstance(policy, PolicyTree):
        return _bt_doc(policy)
    if isinstance(policy, StateMachine):
        return _fsm_doc(policy)
    return _hfsm_doc(policy)


def assert_written_as_reference(policy):
    assert documents.serialize_policy(policy) == json.dumps(reference_doc(policy),
                                                            indent=2) + "\n"


def test_policy_writer_matches_the_reference_on_every_packaged_policy():
    names = packaged_policies()
    assert len(names) == 16
    for name in names:
        assert_written_as_reference(fixtures.load_policy(name))


#: names and symbols with quotes, backslashes, control and non-ASCII characters
NAMES = ["", "fetch1", 'say "hi"', "back\\slash", "tab\there", "café", "中\U0001f916"]


def random_literal(rng: random.Random) -> ConditionLiteral:
    """Any predicate; ``battery_above`` at an int or a float level."""
    predicate = rng.choice(["robot_at", "in_hand", "object_at", "battery_above",
                            "arm_tucked", "docked", "found"])
    if predicate == "battery_above":
        return ConditionLiteral(predicate, (rng.choice([20, 20.5, 0, 100, 99.75]),))
    arity = {"robot_at": 1, "in_hand": 1, "object_at": 2}.get(predicate, 0)
    return ConditionLiteral(predicate, tuple(rng.choice(NAMES) for _ in range(arity)))


def random_args(rng: random.Random) -> tuple:
    return tuple(rng.choice([*NAMES, 0, 20, -3, 20.5, 1e-7])
                 for _ in range(rng.randint(0, 3)))


def random_tree(rng: random.Random) -> PolicyTree:
    """Nodes of every kind, a parallel one with its threshold, and ids not in order."""
    ids = rng.sample(range(40), rng.randint(1, 12))
    nodes = {}
    for position, nid in enumerate(ids):
        later = ids[position + 1:]
        kind = rng.choice(bt.NODE_KINDS) if later else rng.choice(bt.LEAF_KINDS)
        node = bt.BtNode(nid, kind, rng.choice(NAMES))
        if kind in bt.CONTROL_KINDS:
            node.children = rng.sample(later, rng.randint(1, min(3, len(later))))
            node.threshold = rng.randint(1, len(node.children)) if kind == "parallel" else 0
        elif kind == "action":
            node.skill, node.args = rng.choice(sorted(KNOWN_SKILLS)), random_args(rng)
        else:
            node.literal = random_literal(rng)
        nodes[nid] = node
    return PolicyTree(nodes, ids[0])


def random_nested(rng: random.Random) -> HfsmContainer:
    """A nested machine of both container kinds over both leaf kinds."""
    counter = iter(rng.sample(range(60), 60))

    def grow(depth: int) -> HfsmContainer:
        if depth < 3 and rng.random() < 0.5:
            kind = rng.choice(hfsm.CONTAINER_KINDS)
            return HfsmContainer(next(counter), kind, rng.choice(NAMES),
                                 [grow(depth + 1) for _ in range(rng.randint(1, 3))])
        if rng.random() < 0.5:
            return HfsmContainer(next(counter), "action", rng.choice(NAMES),
                                 skill=rng.choice(sorted(KNOWN_SKILLS)), args=random_args(rng))
        return HfsmContainer(next(counter), "condition", rng.choice(NAMES),
                             literal=random_literal(rng))

    return grow(0)


def random_machine(rng: random.Random) -> StateMachine:
    """Skill, selector and outcome states with every optional field present or not:
    ranks, interrupts, each subset of transitions, connected states."""
    ids = rng.sample(range(30), rng.randint(1, 10))
    states = {}
    for sid in ids:
        kind = rng.choice(fsm.STATE_KINDS)
        state = fsm.FsmState(sid, kind, rng.choice(NAMES))
        if kind == "skill":
            state.skill, state.args = rng.choice(sorted(KNOWN_SKILLS)), random_args(rng)
            state.dispatch_pre = tuple(random_literal(rng) for _ in range(rng.randint(0, 3)))
            state.achieves = random_literal(rng) if rng.random() < 0.7 else None
            state.rank = rng.choice([0, 0, 1, 2])
        elif kind == "outcome":
            state.outcome = rng.choice(list(Status))
        state.interrupts = [(Guard(random_literal(rng), rng.random() < 0.5), rng.choice(ids))
                            for _ in range(rng.choice([0, 0, 1, 2]))]
        labels = rng.sample([status.value for status in Status], rng.randint(0, 3))
        state.transitions = {label: rng.choice(ids) for label in labels}
        states[sid] = state
    connected = [(rng.choice(ids), Guard(random_literal(rng), rng.random() < 0.5))
                 for _ in range(rng.choice([0, 0, 1, 2]))]
    return StateMachine(states, rng.choice(ids), rng.sample(ids, rng.randint(0, len(ids))),
                        tuple(random_literal(rng) for _ in range(rng.randint(0, 3))), connected)


def test_policy_writer_matches_the_reference_on_seeded_random_policies():
    rng = random.Random(20261020)
    subsets = set()
    for _ in range(400):
        for policy in (random_tree(rng), random_nested(rng), random_machine(rng)):
            assert_written_as_reference(policy)
            if isinstance(policy, StateMachine):
                subsets.update(frozenset(state.transitions) for state in policy.states.values())
    assert len(subsets) == 8  # each subset of the three labels was written


def test_policy_writer_writes_unusual_python_values_as_json_does():
    tree = fixtures.load_policy("fetch_bt")
    tree.nodes[0].name = None
    tree.nodes[3].args = (True, ["nested", 1], {"key": 2.5}, math.inf)
    assert_written_as_reference(tree)
    # values at depth, with NaN, infinities, -0.0, escapes and non-BMP characters,
    # as a node's name and as an action's argument a level deeper
    rng = random.Random(20240917)
    for _ in range(3000):
        value = random_value(rng)
        tree.nodes[0].name, tree.nodes[3].args = value, (value,)
        assert_written_as_reference(tree)
