"""Serialized document formats: policies, action libraries, goals, scenarios.

All documents are UTF-8 JSON with a ``version: 1`` field. Serialization
is canonical (fixed key order, nodes sorted by id, two-space indent) so
that parse/serialize round-trips are byte identical.

Every document is written byte for byte as ``json.dumps(doc, indent=2)``
plus a newline would write it. Libraries, goals and scenarios are built as
dicts and written by ``json.dumps``. Policies are written straight from
the object, one text per node or state entry (``serialize_policy``): any
``indent`` sends ``json`` to its pure-Python encoder, about twice as slow,
so only values outside the fixed entry layout go through ``json.dumps``.
A differential test pins the policy writer.

Each rule of the readers lives in one function: ``_entry`` checks what a
tree node and a machine state share, and ``_literal_from``, ``_args`` and
the guard readers check literals, argument lists and guards wherever
they appear. A checker takes its field path as pieces and joins them
with ``_path`` only to raise, so reading a well-formed document builds
no path.
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
    SKILL_ARITY,
    Status,
    ValidationError,
    check_skill_args,
    validate_action_library,
)

Policy = Union[bt.PolicyTree, fsm.StateMachine, hfsm.HfsmContainer]

VERSION = 1


def _load(data) -> dict:
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise DocumentError(f"not UTF-8: {exc.reason} at byte {exc.start}") from None
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise DocumentError("top level: nested too deeply") from None
    if not isinstance(doc, dict):
        raise DocumentError("top level: expected an object")
    if doc.get("version", VERSION) != VERSION:
        raise DocumentError(f"version: unsupported value {doc.get('version')!r}")
    return doc


def _path(*pieces) -> str:
    """The field path ``pieces`` spell, as in ``states[2].pre[0]``: an
    integer piece is a list index, a None piece is left out, and any other
    piece is a field name. The checkers below take their path as pieces,
    a list name, index, field and item, and join them only to raise."""
    path = pieces[0]
    for piece in pieces[1:]:
        if piece is not None:
            path += f"[{piece}]" if type(piece) is int else f".{piece}"
    return path


def _expect(value, kind: type, *where):
    """``value`` when it has the JSON container type ``kind`` (list or dict)."""
    if not isinstance(value, kind):
        expected = "a list" if kind is list else "an object"
        raise DocumentError(f"{_path(*where)}: expected {expected}, got {value!r}")
    return value


def _id(value, *where):
    """``value`` when it is an integer id (JSON ``true`` is not one)."""
    if type(value) is not int:
        raise DocumentError(f"{_path(*where)}: expected an integer id, got {value!r}")
    return value


def _ids(values, name: str, index=None, field=None) -> list:
    """``values`` when it is a list of integer ids."""
    if type(values) is not list:
        _expect(values, list, name, index, field)
    for value in values:
        if type(value) is not int:  # name the first entry that is no id
            _id(value, name, index, field, [type(v) is int for v in values].index(False))
    return values


def _integer(value, *where) -> int:
    """``value`` when it is an integer (JSON ``true`` is not one)."""
    if type(value) is not int:
        raise DocumentError(f"{_path(*where)}: expected an integer, got {value!r}")
    return value


def _string(value, *where) -> str:
    """``value`` when it is a string."""
    if not isinstance(value, str):
        raise DocumentError(f"{_path(*where)}: expected a string, got {value!r}")
    return value


#: the JSON types of a skill or literal argument (JSON ``true`` is not one)
_ARG_TYPES = {str, int, float}


def _args(entry: dict, name: str, index=None, field=None, item=None,
          key: str = "args") -> tuple:
    """Field ``key`` of ``entry``: a list of strings and numbers."""
    values = entry.get(key, [])
    if type(values) is not list:
        _expect(values, list, name, index, field, item, key)
    for value in values:
        if type(value) not in _ARG_TYPES:  # name the first entry of another type
            position = [type(v) in _ARG_TYPES for v in values].index(False)
            raise DocumentError(f"{_path(name, index, field, item, key, position)}: expected "
                                f"a string or a number, got {value!r}")
    return tuple(values)


def _skill(entry: dict, *where, key: str = "skill") -> str:
    """Field ``key`` of ``entry`` when it names a skill in ``KNOWN_SKILLS``."""
    skill = entry.get(key, "")
    if not isinstance(skill, str) or skill not in KNOWN_SKILLS:
        raise DocumentError(f"{_path(*where, key)}: unknown skill {skill!r}")
    return skill


def _require(mapping: dict, key: str, *where):
    if not isinstance(mapping, dict):
        raise DocumentError(f"{_path(*where)}: expected an object")
    if key not in mapping:
        raise DocumentError(f"{_path(*where)}: missing field {key!r}")
    return mapping[key]


def _literal_from(obj, name: str, index=None, field=None, item=None,
                  key: str = "pred") -> ConditionLiteral:
    """A literal object; condition nodes name the predicate ``predicate``."""
    if type(obj) is not dict:
        raise DocumentError(f"{_path(name, index, field, item)}: expected a literal object")
    predicate = obj.get(key)
    if type(predicate) is not str:
        _string(_require(obj, key, name, index, field, item), name, index, field, item, key)
    try:
        return ConditionLiteral(predicate, _args(obj, name, index, field, item))
    except ValidationError as exc:
        raise DocumentError(f"{_path(name, index, field, item)}: {exc}") from None


def _literals(values, name: str, index=None, field=None) -> tuple:
    """A list of literal objects, each named by its item index."""
    if type(values) is not list:
        _expect(values, list, name, index, field)
    return tuple([_literal_from(literal, name, index, field, item)
                  for item, literal in enumerate(values)])


def _literal_doc(literal: ConditionLiteral) -> dict:
    return {"pred": literal.predicate, "args": list(literal.args)}


def _guard_from(obj, name: str, index=None, field=None, item=None) -> Guard:
    literal = _literal_from(obj, name, index, field, item)
    negated = obj.get("negated", False)
    if type(negated) is not bool:
        raise DocumentError(f"{_path(name, index, field, item, 'negated')}: expected true or "
                            f"false, got {negated!r}")
    return Guard(literal, negated)


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
    """Canonical JSON for any policy object, written straight from it."""
    if isinstance(policy, bt.PolicyTree):
        entries = [_node_text(node, node.children if node.is_control() else None)
                   for node in sorted(policy.nodes.values(), key=lambda n: n.id)]
        return _node_list_text("bt", policy.root, entries)
    if isinstance(policy, fsm.StateMachine):
        return _fsm_text(policy)
    if isinstance(policy, hfsm.HfsmContainer):
        entries = [_node_text(node, [child.id for child in node.children]
                              if node.kind in hfsm.CONTAINER_KINDS else None)
                   for node in sorted(policy.walk(), key=lambda n: n.id)]
        return _node_list_text("hfsm", policy.id, entries)
    raise DocumentError(f"cannot serialize {type(policy).__name__}")


# What the policy writer below writes is ``json.dumps(doc, indent=2)`` of
# the document, byte for byte; the fixed layout of a node or state entry
# puts each field at a known indent, so a whole entry is one f-string. The
# newline constants hold a line break plus the indent of the line they start.
_N2, _N4, _N6, _N8 = ("\n" + " " * width for width in (2, 4, 6, 8))


def _value(value, newline: str) -> str:
    """The JSON text of a scalar field or list entry on the line ``newline``
    starts: exact strings and integers inline, anything else as ``json.dumps``
    writes it. JSON text holds no raw newline inside a string, so each
    ``"\\n"`` in it is a line break of the structure."""
    kind = type(value)
    if kind is str:
        return _quote(value)
    if kind is int:
        return int.__repr__(value)
    return json.dumps(value, indent=2).replace("\n", newline)


def _join(items: list, newline: str) -> str:
    """A JSON list of written ``items`` whose line starts at ``newline``;
    the items were written one level deeper."""
    if not items:
        return "[]"
    inner = newline + "  "
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _list(values, newline: str) -> str:
    """A JSON list of ids or arguments whose line starts at ``newline``."""
    if not values:
        return "[]"
    inner = newline + "  "
    items = []
    for value in values:  # ``_value``, with its two common cases inline
        kind = type(value)
        if kind is str:
            items.append(_quote(value))
        elif kind is int:
            items.append(int.__repr__(value))
        else:
            items.append(_value(value, inner))
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _literal_text(literal: ConditionLiteral, newline: str, extra: str = "") -> str:
    """A literal object starting on the line ``newline`` starts; ``extra``
    holds any further fields, each written after a comma."""
    inner = newline + "  "
    predicate = literal.predicate
    predicate = _quote(predicate) if type(predicate) is str else _value(predicate, inner)
    return (f'{{{inner}"pred": {predicate},{inner}"args": {_list(literal.args, inner)}'
            f'{extra}{newline}}}')


def _guard_text(guard: Guard, newline: str, key: str, target) -> str:
    """A guard object with its ``key`` field (``target`` or ``state``)."""
    inner = newline + "  "
    return _literal_text(guard.literal, newline, f',{inner}"negated": '
                         f'{_value(guard.negated, inner)},{inner}"{key}": {_value(target, inner)}')


def _entry_head(nid, kind, name) -> str:
    """The ``id``, ``type`` and ``name`` fields that open a node or state entry."""
    if type(nid) is int and type(kind) is str and type(name) is str:  # ``_value`` inline
        return f'{{{_N6}"id": {nid},{_N6}"type": {_quote(kind)},{_N6}"name": {_quote(name)}'
    return (f'{{{_N6}"id": {_value(nid, _N6)},{_N6}"type": {_value(kind, _N6)},'
            f'{_N6}"name": {_value(name, _N6)}')


def _node_text(node, children) -> str:
    """A tree or nested-machine node's entry; ``children`` is None on a leaf."""
    kind = node.kind
    text = _entry_head(node.id, kind, node.name)
    if children is not None:
        text += f',{_N6}"children": {_list(children, _N6)}'
    if kind == "parallel":
        text += f',{_N6}"threshold": {_value(node.threshold, _N6)}'
    elif kind == "action":
        text += f',{_N6}"skill": {_value(node.skill, _N6)},{_N6}"args": {_list(node.args, _N6)}'
    elif kind == "condition":
        text += (f',{_N6}"predicate": {_value(node.literal.predicate, _N6)},'
                 f'{_N6}"args": {_list(node.literal.args, _N6)}')
    return text + _N4 + "}"


def _node_list_text(kind: str, root, entries: list) -> str:
    return (f'{{{_N2}"version": {VERSION},{_N2}"kind": "{kind}",{_N2}"root": '
            f'{_value(root, _N2)},{_N2}"nodes": {_join(entries, _N2)}\n}}\n')


def _fsm_text(machine: fsm.StateMachine) -> str:
    states = []
    for sid in sorted(machine.states):
        state = machine.states[sid]
        text = _entry_head(sid, state.kind, state.name)
        if state.kind == "skill":
            post = ("null" if state.achieves is None
                    else _literal_text(state.achieves, _N6))
            pre = _join([_literal_text(lit, _N8) for lit in state.dispatch_pre], _N6)
            text += (f',{_N6}"skill": {_value(state.skill, _N6)},'
                     f'{_N6}"args": {_list(state.args, _N6)},{_N6}"pre": {pre},'
                     f'{_N6}"post": {post}')
            if state.rank:
                text += f',{_N6}"rank": {_value(state.rank, _N6)}'
        if state.kind == "outcome":
            text += f',{_N6}"status": {_value(state.outcome.value, _N6)}'
        if state.interrupts:
            interrupts = [_guard_text(guard, _N8, "target", target)
                          for guard, target in state.interrupts]
            text += f',{_N6}"interrupts": {_join(interrupts, _N6)}'
        if state.transitions:
            drawn = [f'"{label}": {_value(state.transitions[label], _N8)}'
                     for label in _STATUS_ORDER if label in state.transitions]
            edges = "{" + _N8 + ("," + _N8).join(drawn) + _N6 + "}" if drawn else "{}"
            text += f',{_N6}"transitions": {edges}'
        states.append(text + _N4 + "}")
    goal = _join([_literal_text(lit, _N4) for lit in machine.goal], _N2)
    text = (f'{{{_N2}"version": {VERSION},{_N2}"kind": "fsm",'
            f'{_N2}"initial": {_value(machine.initial, _N2)},'
            f'{_N2}"plan_order": {_list(machine.plan_order, _N2)},{_N2}"goal": {goal},'
            f'{_N2}"states": {_join(states, _N2)}')
    if machine.connected:
        connected = [_guard_text(guard, _N4, "state", sid) for sid, guard in machine.connected]
        text += f',{_N2}"connected": {_join(connected, _N2)}'
    return text + "\n}\n"


#: node ``type`` in a document -> tree node kind, for each node-list kind;
#: a nested machine is read as the tree it mirrors node for node
_TREE_TYPES = {kind: kind for kind in bt.NODE_KINDS}
_NESTED_TYPES = {container: kind for kind, container in hfsm.CONTAINERS.items()}
_NESTED_TYPES.update((kind, kind) for kind in bt.LEAF_KINDS)
#: state ``type`` in a document -> state kind
_STATE_TYPES = {kind: kind for kind in fsm.STATE_KINDS}
#: the node and state kinds that run a skill
_SKILLED = frozenset({"action", "skill"})


def _entry(entry, entries: str, index: int, types: dict, ids: dict) -> tuple:
    """The id, kind, name, skill and arguments of entry ``index`` of the
    ``entries`` list (``nodes`` or ``states``), for both policy readers.

    ``types`` maps each ``type`` the list may hold to its kind, and ``ids``
    holds the ids read so far. Only an action node or a skill state names
    a skill, and its arguments must be as many as the skill takes; any
    other entry gets no skill and no arguments.
    """
    nid = entry.get("id") if type(entry) is dict else None
    if type(nid) is not int:
        _id(_require(entry, "id", entries, index), entries, index, "id")
    etype = entry.get("type")
    kind = types.get(etype) if type(etype) is str else None
    if kind is None:
        etype = _require(entry, "type", entries, index)
        raise DocumentError(f"{_path(entries, index, 'type')}: unknown {entries[:-1]} kind "
                            f"{etype!r}")
    if nid in ids:
        raise DocumentError(f"{_path(entries, index, 'id')}: duplicate id {nid}")
    name = entry.get("name", "")
    if type(name) is not str:
        _string(name, entries, index, "name")
    skill, args = "", ()
    if kind in _SKILLED:
        skill = entry.get("skill", "")
        if type(skill) is not str or skill not in KNOWN_SKILLS:
            _skill(entry, entries, index)
        args = _args(entry, entries, index)
        if len(args) != SKILL_ARITY[skill]:
            check_skill_args(skill, args, _path(entries, index, "args"), DocumentError)
    return nid, kind, name, skill, args


def _parse_nodes(doc: dict, types: dict) -> bt.PolicyTree:
    """The tree a ``nodes`` list and ``root`` spell.

    ``_entry`` checks what a node shares with a machine state; the
    children, a condition's literal and a parallel threshold are checked
    here. A well-formed field costs at most one checker call, and only a
    defect builds its path. The structure (one parent per node, no cycle,
    nothing unreachable, bounded depth) and the rule that a parallel node
    holds motion actions under one child only are checked by
    ``PolicyTree.validate``, whose finding names the node by its id.
    """
    nodes: dict[int, bt.BtNode] = {}
    for index, entry in enumerate(_expect(_require(doc, "nodes", "top level"), list, "nodes")):
        nid, kind, name, skill, args = _entry(entry, "nodes", index, types, nodes)
        children = _ids(entry.get("children", []), "nodes", index, "children")
        if kind in bt.LEAF_KINDS and children:
            raise DocumentError(f"nodes[{index}]: {entry['type']} leaves cannot have children")
        if kind in bt.CONTROL_KINDS and not children:
            raise DocumentError(f"nodes[{index}]: {entry['type']} needs at least one child")
        literal = (_literal_from(entry, "nodes", index, key="predicate")
                   if kind == "condition" else None)
        threshold = entry.get("threshold", 0)
        if type(threshold) is not int:
            _integer(threshold, "nodes", index, "threshold")
        nodes[nid] = bt.BtNode(nid, kind, name, children, skill, args, literal, threshold)
    tree = bt.PolicyTree(nodes=nodes, root=_id(_require(doc, "root", "top level"), "root"))
    try:
        tree.validate()
    except ValidationError as exc:
        raise DocumentError(str(exc)) from None
    return tree


_STATUS_LABELS = {status.value for status in Status}
#: the order a state's drawn transitions are written in
_STATUS_ORDER = ("SUCCESS", "FAILURE", "RUNNING")


def _parse_fsm(doc: dict) -> fsm.StateMachine:
    """The machine a ``states`` list spells.

    ``_entry`` checks what a state shares with a tree node; the rest of a
    state is checked here, as ``_parse_nodes`` checks the rest of a node.
    Which states exist, and what the plan order, connected states and
    edges name, is checked by ``StateMachine.validate``.
    """
    machine = fsm.StateMachine(initial=_id(_require(doc, "initial", "top level"), "initial"))
    states = machine.states
    for index, entry in enumerate(_expect(_require(doc, "states", "top level"), list,
                                          "states")):
        sid, kind, name, skill, args = _entry(entry, "states", index, _STATE_TYPES, states)
        if kind != "skill":  # checked on every state, as its other fields are
            args = _args(entry, "states", index)
        transitions = entry.get("transitions", {})
        if type(transitions) is not dict:
            _expect(transitions, dict, "states", index, "transitions")
        for label, target in transitions.items():
            if label not in _STATUS_LABELS:
                raise DocumentError(f"states[{index}].transitions: unknown label {label!r}")
            if type(target) is not int:
                _id(target, "states", index, "transitions", label)
        outcome = None
        if kind == "outcome":
            status = entry.get("status")
            if type(status) is not str or status not in _STATUS_LABELS:
                status = _require(entry, "status", "states", index)
                raise DocumentError(f"states[{index}].status: expected SUCCESS, FAILURE or "
                                    f"RUNNING, got {status!r}")
            outcome = Status(status)
        dispatch_pre = _literals(entry.get("pre", []), "states", index, "pre")
        post = entry.get("post")
        achieves = None if post is None else _literal_from(post, "states", index, "post")
        interrupts = entry.get("interrupts", [])
        if type(interrupts) is not list:
            _expect(interrupts, list, "states", index, "interrupts")
        interrupts = [_interrupt_from(item, "states", index, "interrupts", i)
                      for i, item in enumerate(interrupts)]
        rank = entry.get("rank", 0)
        if type(rank) is not int:
            _integer(rank, "states", index, "rank")
        states[sid] = fsm.FsmState(sid, kind, name, skill, args, dispatch_pre, achieves,
                                   interrupts, transitions, rank, outcome)
    machine.plan_order = list(_ids(doc.get("plan_order", []), "plan_order"))
    machine.goal = _literals(doc.get("goal", []), "goal")
    machine.connected = [_connection_from(item, "connected", i) for i, item
                         in enumerate(_expect(doc.get("connected", []), list, "connected"))]
    try:
        machine.validate()
    except ValidationError as exc:
        raise DocumentError(str(exc)) from None
    return machine


def _interrupt_from(item, *where) -> tuple:
    return _guard_from(item, *where), _id(_require(item, "target", *where), *where, "target")


def _connection_from(item, *where) -> tuple:
    return _id(_require(item, "state", *where), *where, "state"), _guard_from(item, *where)


# ---------------------------------------------------------------------------
# action libraries and goals


def parse_library_document(data) -> ActionLibrary:
    doc = _load(data)
    specs = []
    for index, entry in enumerate(_expect(_require(doc, "actions", "top level"), list,
                                          "actions")):
        name = _string(_require(entry, "name", "actions", index), "actions", index, "name")
        params = _args(entry, "actions", index, key="params")
        preconditions = _literals(entry.get("pre", []), "actions", index, "pre")
        postconditions = _literals(entry.get("post", []), "actions", index, "post")
        # an action without a skill runs the skill of its name
        skill = _skill(entry, "actions", index, key="skill" if "skill" in entry else "name")
        check_skill_args(skill, params, _path("actions", index, "params"), DocumentError)
        specs.append(ActionSpec(name, params, preconditions, postconditions, skill))
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
    return json.dumps({"version": VERSION, "actions": actions}, indent=2) + "\n"


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
    return json.dumps(doc, indent=2) + "\n"


# ---------------------------------------------------------------------------
# scenarios


def parse_scenario_document(data) -> simworld.Scenario:
    """The scenario ``data`` spells, checked as it is made; absent fields
    keep their defaults, and a field the scenario does not have is refused,
    so a misspelt one is not silently left at its default."""
    doc = _load(data)
    scenario_fields = fields(simworld.Scenario)
    _known_fields(doc, {"version", *(f.name for f in scenario_fields)})
    values = {}
    for f in scenario_fields:
        if f.name not in doc:
            continue
        value = doc[f.name]
        if f.name in _SCENARIO_ENTRIES:
            entries = enumerate(_expect(value, list, f.name))
            value = tuple(_SCENARIO_ENTRIES[f.name](entry, f.name, i) for i, entry in entries)
        elif isinstance(f.default, tuple):
            value = tuple(_expect(value, list, f.name))
        elif f.default_factory is dict:
            value = dict(_expect(value, dict, f.name))
        values[f.name] = value
    return simworld.Scenario(**values)


def _known_fields(mapping: dict, known, *where) -> None:
    """Raise naming the first key of ``mapping`` that is not in ``known``."""
    for key in mapping:
        if key not in known:
            raise DocumentError(f"{_path(*where, key)}: unknown field")


def _failure_from(entry, name: str, index: int) -> tuple:
    skill = _require(entry, "skill", name, index)
    _known_fields(entry, ("skill", "args", "invocation"), name, index)
    args = None if entry.get("args") is None else _args(entry, name, index)
    return skill, args, entry.get("invocation", 1)


def _perturbation_from(entry, name: str, index: int) -> simworld.Perturbation:
    tick = _require(entry, "tick", name, index)
    _known_fields(entry, ("tick", "event", "args"), name, index)
    return simworld.Perturbation(tick, _require(entry, "event", name, index),
                                 tuple(_expect(entry.get("args", []), list, name, index, "args")))


#: scenario field -> reader of one entry of its list
_SCENARIO_ENTRIES = {"failures": _failure_from, "perturbations": _perturbation_from}


def serialize_scenario(scenario: simworld.Scenario) -> str:
    return json.dumps(_scenario_doc(scenario), indent=2) + "\n"


def _scenario_doc(scenario: simworld.Scenario) -> dict:
    """Every field in declaration order; ``json.dumps`` writes tuples as lists."""
    doc = {"version": VERSION, **{f.name: getattr(scenario, f.name) for f in fields(scenario)}}
    doc["items"], doc["durations"] = dict(scenario.items), dict(scenario.durations)
    doc["failures"] = [{"skill": skill, "args": args, "invocation": nth}
                       for skill, args, nth in scenario.failures]
    doc["perturbations"] = [{"tick": p.tick, "event": p.event, "args": p.args}
                            for p in scenario.perturbations]
    return doc
