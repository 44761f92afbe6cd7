"""Document formats: schema checks and round-trip stability."""

import json
import math
import random

import pytest

from conftest import codec, packaged_documents
from policylab import documents, fixtures, fsm, hfsm, planner
from policylab.bt import PolicyTree
from policylab.core import (ActionSpec, ConditionLiteral as L, DocumentError, Goal,
                            validate_action_library)
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
    with pytest.raises(DocumentError, match=r"^nodes\[0\]: parallel has motion actions "
                                            r"under 2 children"):
        documents.parse_policy_document(json.dumps(doc))
    doc["nodes"][3]["skill"] = "tuck"
    assert isinstance(documents.parse_policy_document(json.dumps(doc)), PolicyTree)


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
# the indented writer against json.dumps(indent=2)


def assert_written_as_json_does(value):
    assert documents._dump(value) == json.dumps(value, indent=2) + "\n"


def test_writer_matches_json_on_every_packaged_document():
    paths = sorted(fixtures.data_dir().rglob("*.json"))
    assert len(paths) == 28
    for path in paths:
        assert_written_as_json_does(json.loads(path.read_text()))


def fetch_task(cubes: int):
    """A goal/library pair: search, fetch each cube from its own table, then dock."""
    specs = [ActionSpec("search", (), postconditions=(L("found"),))]
    for number in range(1, cubes + 1):
        cube, station = f"cube{number}", f"fetch{number}"
        specs += [
            ActionSpec("move_to", (station,), postconditions=(L("robot_at", (station,)),)),
            ActionSpec("pick", (cube,), preconditions=(L("robot_at", (station,)),),
                       postconditions=(L("in_hand", (cube,)),)),
            ActionSpec("place", (cube,),
                       preconditions=(L("robot_at", ("delivery",)), L("in_hand", (cube,))),
                       postconditions=(L("object_at", (cube, "delivery")),)),
        ]
    specs += [ActionSpec("move_to", ("delivery",),
                         postconditions=(L("robot_at", ("delivery",)),)),
              ActionSpec("dock", (), postconditions=(L("docked"),))]
    cubes_delivered = [L("object_at", (f"cube{n}", "delivery")) for n in range(1, cubes + 1)]
    goal = Goal(conditions=(L("found"), *cubes_delivered, L("docked")))
    return goal, validate_action_library(specs)


@pytest.mark.parametrize("cubes", range(1, 7))
def test_writer_matches_json_on_synthesized_policies(cubes):
    goal, library = fetch_task(cubes)
    safe = planner.backchain(goal, library, "safe")
    plan = planner.extract_plan(goal, library)
    for policy in (safe, planner.backchain(goal, library, "naive"), fsm.build_sequential(plan),
                   fsm.build_fault_tolerant(plan), hfsm.from_bt(safe)):
        text = documents.serialize_policy(policy)
        assert text == json.dumps(json.loads(text), indent=2) + "\n"


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


def test_writer_matches_json_on_seeded_random_values():
    rng = random.Random(20240917)
    for _ in range(3000):
        assert_written_as_json_does(random_value(rng))


@pytest.mark.parametrize("value", [{"args": {1, 2}}, {"goal": [{1: "a"}]}],
                         ids=["set value", "integer key"])
def test_writer_rejects_what_json_documents_cannot_hold(value):
    with pytest.raises(TypeError):
        documents._dump(value)
