"""The packaged-policy loader parses each document once per process, so every
load must hand out a copy that equals a fresh parse and shares nothing
mutable with the parsed original or with any other load."""

import dataclasses
import json
import shutil

import pytest

from conftest import packaged_policies
from policylab import bt, documents, experiments, fixtures, fsm, hfsm, planner
from policylab.core import ConditionLiteral as L, DocumentError, Guard, Status


def containers(value, found=None) -> dict:
    """id -> object for every list, dict and set reachable from ``value``
    through containers, tuples and dataclass fields."""
    found = {} if found is None else found
    if isinstance(value, (list, dict, set)):
        if id(value) in found:
            return found
        found[id(value)] = value
        items = [*value.keys(), *value.values()] if isinstance(value, dict) else value
    elif isinstance(value, tuple):
        items = value
    elif dataclasses.is_dataclass(value):
        items = [getattr(value, f.name) for f in dataclasses.fields(value)]
    else:
        return found
    for item in items:
        containers(item, found)
    return found


def default(f: dataclasses.Field):
    return f.default_factory() if callable(f.default_factory) else f.default


def every_field_set(cls, **values):
    """A ``cls`` with each of its fields given in ``values``, none at its default."""
    assert set(values) == {f.name for f in dataclasses.fields(cls)}, cls.__name__
    for f in dataclasses.fields(cls):
        assert values[f.name] != default(f), f"{cls.__name__}.{f.name}"
    return cls(**values)


def full_tree() -> bt.PolicyTree:
    node = every_field_set(bt.BtNode, id=5, kind="parallel", name="both", children=[6],
                           skill="tuck", args=("x",), literal=L("docked"), threshold=1)
    leaf = bt.BtNode(6, "action", "tuck()!", skill="tuck")
    return every_field_set(bt.PolicyTree, nodes={5: node, 6: leaf}, root=5,
                           last_tick_visited={5, 6}, memory_marks={5: 1},
                           active_actions={6})


def full_machine() -> fsm.StateMachine:
    state = every_field_set(
        fsm.FsmState, id=2, kind="skill", name="tuck()!", skill="tuck", args=("x",),
        dispatch_pre=(L("docked"),), achieves=L("arm_tucked"),
        interrupts=[(Guard(L("docked"), negated=True), 3)], transitions={"SUCCESS": 3},
        rank=1, outcome=Status.SUCCESS)
    outcome = fsm.FsmState(3, "outcome", "SUCCESS", outcome=Status.SUCCESS)
    return every_field_set(fsm.StateMachine, states={2: state, 3: outcome}, initial=2,
                           plan_order=[2], goal=(L("arm_tucked"),),
                           connected=[(3, Guard(L("docked")))], current=2,
                           terminated=Status.FAILURE, started={2}, failed={2})


def full_nested_machine() -> hfsm.HfsmContainer:
    leaf = hfsm.HfsmContainer(2, "action", "tuck()!", skill="tuck")
    return every_field_set(hfsm.HfsmContainer, id=1, kind="sequence_container",
                           name="root", children=[leaf], skill="tuck", args=("x",),
                           literal=L("docked"), active_leaves={2: leaf}, last_visited={1, 2})


@pytest.mark.parametrize("build", [full_tree, full_machine, full_nested_machine],
                         ids=["tree", "machine", "nested machine"])
def test_copy_is_equal_and_shares_no_container(build):
    original = build()
    clone = original.copy()
    assert clone == original
    assert not containers(original).keys() & containers(clone).keys()
    for f in dataclasses.fields(clone):
        if not f.compare:  # engine bookkeeping starts empty
            assert getattr(clone, f.name) == default(f), f.name


def test_a_load_equals_a_fresh_parse():
    for name in packaged_policies():
        text = fixtures.policy_path(name).read_text()
        first, second = fixtures.load_policy(name), fixtures.load_policy(name)
        assert first == second == documents.parse_policy_document(text), name
        assert documents.serialize_policy(first) == text, name
        assert not containers(first).keys() & containers(second).keys(), name


def test_mutating_a_load_leaves_the_next_load_unchanged():
    tree = fixtures.load_policy("fetch_bt")
    tree.nodes[tree.root].children.clear()
    tree.nodes.clear()
    machine = fixtures.load_policy("fetch_fsm_recharge")
    for state in machine.states.values():
        state.transitions.clear()
        state.interrupts.clear()
    machine.plan_order.clear()
    machine.connected.clear()
    machine.states.clear()
    nested = fixtures.load_policy("pick_place_hfsm")
    nested.children[0].children.clear()
    nested.children.clear()
    for name in ("fetch_bt", "fetch_fsm_recharge", "pick_place_hfsm"):
        text = fixtures.policy_path(name).read_text()
        assert documents.serialize_policy(fixtures.load_policy(name)) == text, name


def test_growing_the_scalability_policies_leaves_the_next_call_unchanged():
    tree, machine = experiments.scalability_policies()
    experiments.bt_with_recharge(tree)
    experiments.fsm_with_recharge(machine)
    fresh_tree, plan = planner.synthesize(*experiments.TASKS["scalability"]())
    fresh = fresh_tree, fsm.build_fault_tolerant(plan)
    for got, want in zip(experiments.scalability_policies(), fresh):
        assert documents.serialize_policy(got) == documents.serialize_policy(want)


def test_an_unreadable_fixture_is_a_document_error(tmp_path, monkeypatch):
    with pytest.raises(DocumentError, match="fixture 'no_such_policy' not found"):
        fixtures.load_policy("no_such_policy")
    monkeypatch.setattr(fixtures, "data_dir", lambda: tmp_path)
    fixtures.policy_path("fetch_bt").mkdir()  # a directory where the file should be
    with pytest.raises(DocumentError, match="fixture 'fetch_bt' not found"):
        fixtures.load_policy("fetch_bt")
    fixtures.policy_path("fetch_bt").rmdir()
    fixtures.policy_path("fetch_bt").write_bytes(b"\xff\xfe{}")
    with pytest.raises(DocumentError, match="fixture 'fetch_bt' at .* is not UTF-8: "
                                            "invalid start byte at byte 0"):
        fixtures.load_policy("fetch_bt")


def test_a_rewritten_fixture_is_read_anew(tmp_path, monkeypatch):
    shutil.copytree(fixtures.data_dir(), tmp_path / "data")
    monkeypatch.setattr(fixtures, "data_dir", lambda: tmp_path / "data")
    path = fixtures.policy_path("fetch_bt")
    doc = json.loads(path.read_text())
    assert fixtures.load_policy("fetch_bt").nodes[0].name == doc["nodes"][0]["name"]
    doc["nodes"][0]["name"] = "renamed"
    path.write_text(json.dumps(doc))
    assert fixtures.load_policy("fetch_bt").nodes[0].name == "renamed"
    path.write_text("{")
    with pytest.raises(DocumentError, match="line 1, column 2"):
        fixtures.load_policy("fetch_bt")
