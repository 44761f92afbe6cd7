"""Serialized document formats: policies, action libraries, goals, scenarios.

All documents are UTF-8 JSON with a ``version: 1`` field. Serialization
is canonical (fixed key order, nodes sorted by id, two-space indent) so
that parse/serialize round-trips are byte identical.

Every indented document is written by one in-house writer, ``_dump``.
Its output is byte-identical to ``json.dumps(doc, indent=2)`` plus a
newline, which a differential test pins; it exists because any
``indent`` sends ``json`` to its pure-Python encoder, about twice as slow.
"""

from __future__ import annotations

import json
from dataclasses import fields
from json.encoder import encode_basestring_ascii as _quote
from typing import Union

from . import bt, fsm, hfsm, simworld
from .core import (
    ActionLibrary,
    ActionSpec,
    ConditionLiteral,
    DocumentError,
    Goal,
    Guard,
    KNOWN_SKILLS,
    Status,
    ValidationError,
    validate_action_library,
)

Policy = Union[bt.PolicyTree, fsm.StateMachine, hfsm.HfsmContainer]

VERSION = 1


def _load(data) -> dict:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    if not isinstance(doc, dict):
        raise DocumentError("top level: expected an object")
    if doc.get("version", VERSION) != VERSION:
        raise DocumentError(f"version: unsupported value {doc.get('version')!r}")
    return doc


#: how ``json`` spells the floats that ``float.__repr__`` writes as these
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _dump(doc) -> str:
    """``json.dumps(doc, indent=2) + "\\n"``, byte for byte; dict keys must be strings."""
    out: list = []
    _write(doc, out.append, "\n")
    out.append("\n")
    return "".join(out)


def _write(value, write, newline: str) -> None:
    """Pass the JSON text of ``value`` to ``write`` in pieces.

    ``newline`` is a line break plus the indent of the line ``value``
    starts on; its items go one level deeper.
    """
    if isinstance(value, str):
        write(_quote(value))
    elif isinstance(value, dict):
        if not value:
            write("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"keys must be str, not {type(key).__name__}")
            write(separator + _quote(key) + ": ")
            _write(item, write, inner)
            separator = "," + inner
        write(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            write("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            write(separator)
            _write(item, write, inner)
            separator = "," + inner
        write(newline + "]")
    elif value is None:
        write("null")
    elif value is True:
        write("true")
    elif value is False:
        write("false")
    elif isinstance(value, int):
        write(int.__repr__(value))
    elif isinstance(value, float):
        text = float.__repr__(value)
        write(_NON_FINITE.get(text, text))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _expect(value, kind: type, path: str):
    """``value`` when it has the JSON container type ``kind`` (list or dict)."""
    if not isinstance(value, kind):
        expected = "a list" if kind is list else "an object"
        raise DocumentError(f"{path}: expected {expected}, got {value!r}")
    return value


def _id(value, path: str, key: str = ""):
    """``value`` when it is an integer id (JSON ``true`` is not one).

    The error names field ``key`` of ``path``, or ``path`` itself; the
    string is only built for an error, as ids are checked on every node.
    """
    if type(value) is not int:
        where = f"{path}.{key}" if key else path
        raise DocumentError(f"{where}: expected an integer id, got {value!r}")
    return value


def _ids(values, path: str) -> list:
    """``values`` when it is a list of integer ids."""
    for index, value in enumerate(_expect(values, list, path)):
        if type(value) is not int:
            _id(value, f"{path}[{index}]")
    return values


def _integer(entry: dict, path: str, key: str) -> int:
    """Field ``key`` of ``entry``, 0 when absent, when it is an integer
    (JSON ``true`` is not one)."""
    value = entry.get(key, 0)
    if type(value) is not int:
        raise DocumentError(f"{path}.{key}: expected an integer, got {value!r}")
    return value


def _string(value, path: str, key: str) -> str:
    """``value`` when it is a string; the error names field ``key`` of ``path``."""
    if not isinstance(value, str):
        raise DocumentError(f"{path}.{key}: expected a string, got {value!r}")
    return value


#: the JSON types of a skill or literal argument (JSON ``true`` is not one)
_ARG_TYPES = {str, int, float}


def _args(entry: dict, path: str, key: str = "args") -> tuple:
    """Field ``key`` of ``entry``: a list of strings and numbers.

    Only an error builds the field's path, as ``_id`` does.
    """
    values = entry.get(key, [])
    if not isinstance(values, list):
        _expect(values, list, f"{path}.{key}")
    for index, value in enumerate(values):
        if type(value) not in _ARG_TYPES:
            raise DocumentError(f"{path}.{key}[{index}]: expected a string or a number, "
                                f"got {value!r}")
    return tuple(values)


def _skill(entry: dict, path: str, key: str = "skill") -> str:
    """Field ``key`` of ``entry`` when it names a skill in ``KNOWN_SKILLS``."""
    skill = entry.get(key, "")
    if not isinstance(skill, str) or skill not in KNOWN_SKILLS:
        raise DocumentError(f"{path}.{key}: unknown skill {skill!r}")
    return skill


def _require(mapping: dict, key: str, path: str):
    if not isinstance(mapping, dict):
        raise DocumentError(f"{path}: expected an object")
    if key not in mapping:
        raise DocumentError(f"{path}: missing field {key!r}")
    return mapping[key]


def _literal_from(obj, path: str, key: str = "pred") -> ConditionLiteral:
    """A literal object; condition nodes name the predicate ``predicate``."""
    if not isinstance(obj, dict):
        raise DocumentError(f"{path}: expected a literal object")
    try:
        return ConditionLiteral(_string(_require(obj, key, path), path, key), _args(obj, path))
    except ValidationError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def _literals(values, path: str) -> tuple:
    """A list of literal objects; entry ``i`` is named ``path[i]``."""
    return tuple(_literal_from(lit, f"{path}[{i}]")
                 for i, lit in enumerate(_expect(values, list, path)))


def _literal_doc(literal: ConditionLiteral) -> dict:
    return {"pred": literal.predicate, "args": list(literal.args)}


def _guard_from(obj, path: str) -> Guard:
    literal = _literal_from(obj, path)
    negated = obj.get("negated", False)
    if type(negated) is not bool:
        raise DocumentError(f"{path}.negated: expected true or false, got {negated!r}")
    return Guard(literal, negated)


def _guard_doc(guard: Guard) -> dict:
    doc = _literal_doc(guard.literal)
    doc["negated"] = guard.negated
    return doc


# ---------------------------------------------------------------------------
# policies


def parse_policy_document(data) -> Policy:
    """Parse a policy of any of the three kinds from JSON text or bytes."""
    doc = _load(data)
    kind = _require(doc, "kind", "top level")
    if kind == "bt":
        return _parse_nodes(doc, _TREE_TYPES)
    if kind == "fsm":
        return _parse_fsm(doc)
    if kind == "hfsm":
        return hfsm.from_bt(_parse_nodes(doc, _NESTED_TYPES))
    raise DocumentError(f"kind: unknown policy kind {kind!r}")


def serialize_policy(policy: Policy) -> str:
    """Canonical JSON for any policy object."""
    if isinstance(policy, bt.PolicyTree):
        return _dump(_bt_doc(policy))
    if isinstance(policy, fsm.StateMachine):
        return _dump(_fsm_doc(policy))
    if isinstance(policy, hfsm.HfsmContainer):
        return _dump(_hfsm_doc(policy))
    raise DocumentError(f"cannot serialize {type(policy).__name__}")


#: node ``type`` in a document -> tree node kind, for each node-list kind;
#: a nested machine is read as the tree it mirrors node for node
_TREE_TYPES = {kind: kind for kind in bt.NODE_KINDS}
_NESTED_TYPES = {"sequence_container": "sequence", "fallback_container": "fallback",
                 "action": "action", "condition": "condition"}


def _parse_nodes(doc: dict, types: dict) -> bt.PolicyTree:
    """The tree a ``nodes`` list and ``root`` spell.

    Each entry is checked here, where its path is known; the structure
    (one parent per node, no cycle, nothing unreachable) is checked by
    ``PolicyTree.validate``.
    """
    nodes: dict[int, bt.BtNode] = {}
    for index, entry in enumerate(_expect(_require(doc, "nodes", "top level"), list,
                                          "nodes")):
        path = f"nodes[{index}]"
        nid = _id(_require(entry, "id", path), path, "id")
        ntype = _require(entry, "type", path)
        kind = types.get(ntype) if isinstance(ntype, str) else None
        if kind is None:
            raise DocumentError(f"{path}.type: unknown node kind {ntype!r}")
        children = _ids(entry.get("children", []), f"{path}.children")
        if kind in bt.LEAF_KINDS and children:
            raise DocumentError(f"{path}: {ntype} leaves cannot have children")
        if kind in bt.CONTROL_KINDS and not children:
            raise DocumentError(f"{path}: {ntype} needs at least one child")
        if nid in nodes:
            raise DocumentError(f"{path}.id: duplicate id {nid}")
        nodes[nid] = bt.BtNode(
            id=nid,
            kind=kind,
            name=entry.get("name", ""),
            children=list(children),
            skill=_skill(entry, path) if kind == "action" else entry.get("skill", ""),
            args=_args(entry, path) if kind == "action" else (),
            literal=_literal_from(entry, path, "predicate") if kind == "condition" else None,
            threshold=_integer(entry, path, "threshold"),
        )
    for index, node in enumerate(nodes.values()):
        if node.kind == "parallel":
            moving = sum(bt.holds_motion(nodes, child) for child in node.children)
            if moving > 1:
                raise DocumentError(f"nodes[{index}]: parallel has motion actions under "
                                    f"{moving} children, but one motion runs at a time")
    tree = bt.PolicyTree(nodes=nodes, root=_id(_require(doc, "root", "top level"), "root"))
    try:
        tree.validate()
    except ValidationError as exc:
        raise DocumentError(str(exc)) from None
    return tree


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


def _bt_doc(tree: bt.PolicyTree) -> dict:
    nodes = [_node_entry(node, list(node.children) if node.is_control() else None)
             for node in sorted(tree.nodes.values(), key=lambda n: n.id)]
    return {"version": VERSION, "kind": "bt", "root": tree.root, "nodes": nodes}


_STATUS_LABELS = {status.value for status in Status}


def _parse_fsm(doc: dict) -> fsm.StateMachine:
    machine = fsm.StateMachine(initial=_id(_require(doc, "initial", "top level"), "initial"))
    for index, entry in enumerate(_expect(_require(doc, "states", "top level"), list,
                                          "states")):
        path = f"states[{index}]"
        sid = _id(_require(entry, "id", path), path, "id")
        stype = _require(entry, "type", path)
        if stype not in fsm.STATE_KINDS:
            raise DocumentError(f"{path}.type: unknown state kind {stype!r}")
        if sid in machine.states:
            raise DocumentError(f"{path}.id: duplicate id {sid}")
        transitions = {}
        where = f"{path}.transitions"
        for label, target in _expect(entry.get("transitions", {}), dict, where).items():
            if label not in _STATUS_LABELS:
                raise DocumentError(f"{where}: unknown label {label!r}")
            transitions[label] = _id(target, where, label)
        outcome = None
        if stype == "outcome":
            status = _require(entry, "status", path)
            if not isinstance(status, str) or status not in _STATUS_LABELS:
                raise DocumentError(f"{path}.status: expected SUCCESS, FAILURE or RUNNING, "
                                    f"got {status!r}")
            outcome = Status(status)
        state = fsm.FsmState(
            id=sid,
            kind=stype,
            name=entry.get("name", ""),
            skill=_skill(entry, path) if stype == "skill" else entry.get("skill", ""),
            args=_args(entry, path),
            dispatch_pre=_literals(entry.get("pre", []), f"{path}.pre"),
            achieves=(
                _literal_from(entry["post"], f"{path}.post")
                if entry.get("post") is not None else None
            ),
            interrupts=[
                _interrupt_from(item, f"{path}.interrupts[{i}]")
                for i, item in enumerate(_expect(entry.get("interrupts", []), list,
                                                 f"{path}.interrupts"))
            ],
            transitions=transitions,
            rank=_integer(entry, path, "rank"),
            outcome=outcome,
        )
        machine.states[sid] = state
    machine.plan_order = list(_ids(doc.get("plan_order", []), "plan_order"))
    machine.goal = _literals(doc.get("goal", []), "goal")
    machine.connected = [
        _connection_from(item, f"connected[{i}]")
        for i, item in enumerate(_expect(doc.get("connected", []), list, "connected"))
    ]
    try:
        machine.validate()
    except ValidationError as exc:
        raise DocumentError(str(exc)) from None
    return machine


def _interrupt_from(item, path: str) -> tuple:
    return _guard_from(item, path), _id(_require(item, "target", path), path, "target")


def _connection_from(item, path: str) -> tuple:
    return _id(_require(item, "state", path), path, "state"), _guard_from(item, path)


def _fsm_doc(machine: fsm.StateMachine) -> dict:
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


def _hfsm_doc(root: hfsm.HfsmContainer) -> dict:
    nodes = [_node_entry(node, [child.id for child in node.children]
                         if node.kind in hfsm.CONTAINER_KINDS else None)
             for node in sorted(root.walk(), key=lambda n: n.id)]
    return {"version": VERSION, "kind": "hfsm", "root": root.id, "nodes": nodes}


# ---------------------------------------------------------------------------
# action libraries and goals


def parse_library_document(data) -> ActionLibrary:
    doc = _load(data)
    specs = []
    for index, entry in enumerate(_expect(_require(doc, "actions", "top level"), list,
                                          "actions")):
        path = f"actions[{index}]"
        specs.append(ActionSpec(
            name=_string(_require(entry, "name", path), path, "name"),
            params=_args(entry, path, "params"),
            preconditions=_literals(entry.get("pre", []), f"{path}.pre"),
            postconditions=_literals(entry.get("post", []), f"{path}.post"),
            # an action without a skill runs the skill of its name
            skill=_skill(entry, path, "skill" if "skill" in entry else "name"),
        ))
    try:
        return validate_action_library(specs)
    except ValidationError as exc:
        raise DocumentError(str(exc)) from None


def serialize_library(library: ActionLibrary) -> str:
    actions = []
    for spec in library.specs:
        actions.append({
            "name": spec.name,
            "params": list(spec.params),
            "pre": [_literal_doc(lit) for lit in spec.preconditions],
            "post": [_literal_doc(lit) for lit in spec.postconditions],
            "skill": spec.skill,
        })
    return _dump({"version": VERSION, "actions": actions})


def parse_goal_document(data) -> Goal:
    doc = _load(data)
    try:
        return Goal(conditions=_literals(_require(doc, "goal", "top level"), "goal"),
                    initially=_literals(doc.get("initially", []), "initially"))
    except ValidationError as exc:
        raise DocumentError(str(exc)) from None


def serialize_goal(goal: Goal) -> str:
    doc = {
        "version": VERSION,
        "goal": [_literal_doc(lit) for lit in goal.conditions],
    }
    if goal.initially:
        doc["initially"] = [_literal_doc(lit) for lit in goal.initially]
    return _dump(doc)


# ---------------------------------------------------------------------------
# scenarios


def parse_scenario_document(data) -> simworld.Scenario:
    """The scenario ``data`` spells, checked as it is made; absent fields
    keep their defaults."""
    doc = _load(data)
    values = {}
    for f in fields(simworld.Scenario):
        if f.name not in doc:
            continue
        value = doc[f.name]
        if f.name in _SCENARIO_ENTRIES:
            entries = enumerate(_expect(value, list, f.name))
            value = tuple(_SCENARIO_ENTRIES[f.name](entry, f"{f.name}[{i}]")
                          for i, entry in entries)
        elif isinstance(f.default, tuple):
            value = tuple(_expect(value, list, f.name))
        elif f.default_factory is dict:
            value = dict(_expect(value, dict, f.name))
        values[f.name] = value
    return simworld.Scenario(**values)


def _failure_from(entry, path: str) -> tuple:
    skill = _require(entry, "skill", path)
    args = None if entry.get("args") is None else _args(entry, path)
    return skill, args, entry.get("invocation", 1)


def _perturbation_from(entry, path: str) -> simworld.Perturbation:
    return simworld.Perturbation(_require(entry, "tick", path), _require(entry, "event", path),
                                 tuple(_expect(entry.get("args", []), list, f"{path}.args")))


#: scenario field -> reader of one entry of its list
_SCENARIO_ENTRIES = {"failures": _failure_from, "perturbations": _perturbation_from}


def serialize_scenario(scenario: simworld.Scenario) -> str:
    return _dump(_scenario_doc(scenario))


def _scenario_doc(scenario: simworld.Scenario) -> dict:
    """Every field in declaration order; ``_dump`` writes tuples as lists."""
    doc = {"version": VERSION, **{f.name: getattr(scenario, f.name) for f in fields(scenario)}}
    doc["failures"] = [{"skill": skill, "args": args, "invocation": nth}
                       for skill, args, nth in scenario.failures]
    doc["perturbations"] = [{"tick": p.tick, "event": p.event, "args": p.args}
                            for p in scenario.perturbations]
    return doc
