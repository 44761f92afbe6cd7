"""Serialized document formats: policies, action libraries, goals.

All documents are UTF-8 JSON with a ``version: 1`` field. Serialization
is canonical (fixed key order, nodes sorted by id, two-space indent) so
that parse/serialize round-trips are byte identical.
"""

from __future__ import annotations

import json
from typing import Union

from . import bt, fsm, hfsm
from .core import (
    ActionLibrary,
    ActionSpec,
    ConditionLiteral,
    DocumentError,
    Goal,
    Guard,
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


def _dump(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def _expect(value, kind: type, path: str):
    """``value`` when it has the JSON container type ``kind`` (list or dict)."""
    if not isinstance(value, kind):
        expected = "a list" if kind is list else "an object"
        raise DocumentError(f"{path}: expected {expected}, got {value!r}")
    return value


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
        return ConditionLiteral(_require(obj, key, path),
                                tuple(_expect(obj.get("args", []), list, f"{path}.args")))
    except ValidationError as exc:
        raise DocumentError(f"{path}: {exc}") from None


def _literal_doc(literal: ConditionLiteral) -> dict:
    return {"pred": literal.predicate, "args": list(literal.args)}


def _guard_from(obj, path: str) -> Guard:
    return Guard(_literal_from(obj, path), bool(obj.get("negated", False)))


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
        return _parse_bt(doc)
    if kind == "fsm":
        return _parse_fsm(doc)
    if kind == "hfsm":
        return _parse_hfsm(doc)
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


def _parse_bt(doc: dict) -> bt.PolicyTree:
    nodes: dict[int, bt.BtNode] = {}
    for index, entry in enumerate(_expect(_require(doc, "nodes", "top level"), list,
                                          "nodes")):
        path = f"nodes[{index}]"
        nid = _require(entry, "id", path)
        ntype = _require(entry, "type", path)
        if ntype not in bt.NODE_KINDS:
            raise DocumentError(f"{path}.type: unknown node kind {ntype!r}")
        node = bt.BtNode(
            id=nid,
            kind=ntype,
            name=entry.get("name", ""),
            children=list(_expect(entry.get("children", []), list, f"{path}.children")),
            skill=entry.get("skill", ""),
            args=(tuple(_expect(entry.get("args", []), list, f"{path}.args"))
                  if ntype == "action" else ()),
            literal=_literal_from(entry, path, "predicate") if ntype == "condition" else None,
            threshold=entry.get("threshold", 0),
        )
        if nid in nodes:
            raise DocumentError(f"{path}.id: duplicate id {nid}")
        nodes[nid] = node
    tree = bt.PolicyTree(nodes=nodes, root=_require(doc, "root", "top level"))
    for nid, node in nodes.items():
        for child in node.children:
            if child not in nodes:
                raise DocumentError(f"node {nid}: dangling child reference {child}")
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
    machine = fsm.StateMachine(initial=_require(doc, "initial", "top level"))
    for index, entry in enumerate(_expect(_require(doc, "states", "top level"), list,
                                          "states")):
        path = f"states[{index}]"
        sid = _require(entry, "id", path)
        stype = _require(entry, "type", path)
        if stype not in fsm.STATE_KINDS:
            raise DocumentError(f"{path}.type: unknown state kind {stype!r}")
        if sid in machine.states:
            raise DocumentError(f"{path}.id: duplicate id {sid}")
        transitions = {}
        for label, target in _expect(entry.get("transitions", {}), dict,
                                     f"{path}.transitions").items():
            if label not in _STATUS_LABELS:
                raise DocumentError(f"{path}.transitions: unknown label {label!r}")
            transitions[label] = target
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
            skill=entry.get("skill", ""),
            args=tuple(_expect(entry.get("args", []), list, f"{path}.args")),
            dispatch_pre=tuple(
                _literal_from(lit, f"{path}.pre[{i}]")
                for i, lit in enumerate(_expect(entry.get("pre", []), list, f"{path}.pre"))
            ),
            achieves=(
                _literal_from(entry["post"], f"{path}.post")
                if entry.get("post") is not None else None
            ),
            interrupts=[
                (_guard_from(item, f"{path}.interrupts[{i}]"),
                 _require(item, "target", f"{path}.interrupts[{i}]"))
                for i, item in enumerate(_expect(entry.get("interrupts", []), list,
                                                 f"{path}.interrupts"))
            ],
            transitions=transitions,
            rank=entry.get("rank", 0),
            outcome=outcome,
        )
        machine.states[sid] = state
    machine.plan_order = list(_expect(doc.get("plan_order", []), list, "plan_order"))
    machine.goal = tuple(
        _literal_from(lit, f"goal[{i}]")
        for i, lit in enumerate(_expect(doc.get("goal", []), list, "goal"))
    )
    machine.connected = [
        (_require(item, "state", f"connected[{i}]"),
         _guard_from(item, f"connected[{i}]"))
        for i, item in enumerate(_expect(doc.get("connected", []), list, "connected"))
    ]
    try:
        machine.validate()
    except ValidationError as exc:
        raise DocumentError(str(exc)) from None
    return machine


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


def _parse_hfsm(doc: dict) -> hfsm.HfsmContainer:
    entries: dict[int, dict] = {}
    for index, entry in enumerate(_expect(_require(doc, "nodes", "top level"), list,
                                          "nodes")):
        path = f"nodes[{index}]"
        nid = _require(entry, "id", path)
        ntype = _require(entry, "type", path)
        if ntype not in hfsm.CONTAINER_KINDS + hfsm.LEAF_KINDS:
            raise DocumentError(f"{path}.type: unknown container kind {ntype!r}")
        if nid in entries:
            raise DocumentError(f"{path}.id: duplicate id {nid}")
        children = _expect(entry.get("children", []), list, f"{path}.children")
        if ntype in hfsm.LEAF_KINDS and children:
            raise DocumentError(f"{path}: {ntype} leaves cannot have children")
        if ntype in hfsm.CONTAINER_KINDS and not children:
            raise DocumentError(f"{path}: {ntype} needs at least one child")
        entries[nid] = entry
    referenced: list = []
    for entry in entries.values():
        referenced.extend(entry.get("children", ()))
    for child in referenced:
        if referenced.count(child) > 1:
            raise DocumentError(f"container {child} has two parents")

    def build(nid: int, seen: tuple) -> hfsm.HfsmContainer:
        if nid not in entries:
            raise DocumentError(f"dangling container reference {nid}")
        if nid in seen:
            raise DocumentError(f"container {nid} nests itself")
        entry = entries[nid]
        ntype = entry["type"]
        return hfsm.HfsmContainer(
            id=nid,
            kind=ntype,
            name=entry.get("name", ""),
            children=[build(child, seen + (nid,))
                      for child in entry.get("children", ())],
            skill=entry.get("skill", ""),
            args=(tuple(_expect(entry.get("args", []), list, f"node {nid}.args"))
                  if ntype == "action" else ()),
            literal=(_literal_from(entry, f"node {nid}", "predicate")
                     if ntype == "condition" else None),
        )

    root = build(_require(doc, "root", "top level"), ())
    reached = {node.id for node in root.walk()}
    if reached != set(entries):
        orphans = sorted(set(entries) - reached)
        raise DocumentError(f"containers unreachable from root: {orphans}")
    return root


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
        try:
            specs.append(ActionSpec(
                name=_require(entry, "name", path),
                params=tuple(_expect(entry.get("params", []), list, f"{path}.params")),
                preconditions=tuple(
                    _literal_from(lit, f"{path}.pre[{i}]")
                    for i, lit in enumerate(_expect(entry.get("pre", []), list, f"{path}.pre"))
                ),
                postconditions=tuple(
                    _literal_from(lit, f"{path}.post[{i}]")
                    for i, lit in enumerate(_expect(entry.get("post", []), list,
                                                    f"{path}.post"))
                ),
                skill=entry.get("skill", ""),
            ))
        except ValidationError as exc:
            raise DocumentError(f"{path}: {exc}") from None
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
        return Goal(
            conditions=tuple(
                _literal_from(lit, f"goal[{i}]")
                for i, lit in enumerate(_expect(_require(doc, "goal", "top level"), list,
                                                "goal"))
            ),
            initially=tuple(
                _literal_from(lit, f"initially[{i}]")
                for i, lit in enumerate(_expect(doc.get("initially", []), list, "initially"))
            ),
        )
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
