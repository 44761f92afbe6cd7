"""Finite state machines: sequential and fault-tolerant designs.

The fault-tolerant design routes every failure through a single selector
state that inspects the world and re-dispatches execution to the furthest
step whose context holds and whose effect is still missing. Connected
states (battery recharge and the like) are reachable from every state
through watched interrupt conditions.

Transition semantics: a state's ``transitions`` dict carries the drawn
edges only. Statuses without an explicit edge resolve implicitly;
RUNNING stays in place, and SUCCESS/FAILURE fall back to the selector
when the machine has one (a machine without a selector terminates with
FAILURE on an unmapped failure). The selector's own SUCCESS edge, taken
once the goal holds, is always drawn. This keeps the stored structure
equal to what the diagrams show while the engine remains total.

A machine with a selector ends SUCCESS only while every goal literal
holds: reaching the SUCCESS outcome with the goal false hands control
back to the selector. A machine without one reports what its last skill
did. The engine asks the world one question per running skill,
``skill_status(key)``, as the tree engine does (see ``bt.TickWorld``).

The edit operations are the paper's machine-side modifications. Each
takes only what the machine cannot tell it, reads the rest (next state,
selector) off the machine, and checks before it changes anything: a
refused edit raises ``EditError`` and leaves the machine as it was.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .core import (
    ConditionLiteral, EditError, FAILURE, Guard, RUNNING, SUCCESS, Status, ValidationError,
)
from .planner import Plan

STATE_KINDS = ("skill", "selector", "outcome")

_SUCCESS = Status.SUCCESS.value
_FAILURE = Status.FAILURE.value
_RUNNING = Status.RUNNING.value


@dataclass
class FsmState:
    id: int
    kind: str
    name: str = ""
    skill: str = ""
    args: tuple = ()
    #: conjunction of literals that must hold for the selector to dispatch here
    dispatch_pre: tuple = ()
    #: the effect this state contributes; dispatch skips states whose effect holds
    achieves: Optional[ConditionLiteral] = None
    #: ordered (guard, target) pairs checked on every evaluation, first match wins
    interrupts: list = field(default_factory=list)
    #: drawn status edges: {"SUCCESS"|"FAILURE"|"RUNNING": state id}
    transitions: dict = field(default_factory=dict)
    #: 0 for plan states, >0 for alternative strategies of the same step
    rank: int = 0
    outcome: Optional[Status] = None

    def skill_key(self) -> tuple:
        return (self.skill, tuple(self.args))

    def dispatch_label(self) -> str:
        if not self.dispatch_pre:
            return "true"
        return " & ".join(lit.key() for lit in self.dispatch_pre)


@dataclass
class StateMachine:
    states: dict[int, FsmState] = field(default_factory=dict)
    initial: int = 0
    #: execution sequence the selector scans; includes alternatives, excludes
    #: connected states
    plan_order: list[int] = field(default_factory=list)
    goal: tuple = ()
    #: connected states as (state id, trigger guard), in priority order
    connected: list = field(default_factory=list)
    # runtime bookkeeping, reset between episodes and left out of == and repr
    current: Optional[int] = field(default=None, compare=False, repr=False)
    terminated: Optional[Status] = field(default=None, compare=False, repr=False)
    started: set = field(default_factory=set, compare=False, repr=False)
    failed: set = field(default_factory=set, compare=False, repr=False)

    def state(self, state_id: int) -> FsmState:
        try:
            return self.states[state_id]
        except KeyError:
            raise EditError(f"unknown state id {state_id}") from None

    def next_id(self) -> int:
        return max(self.states) + 1 if self.states else 0

    @property
    def selector_id(self) -> Optional[int]:
        for state in self.states.values():
            if state.kind == "selector":
                return state.id
        return None

    def outcome_ids(self) -> set[int]:
        return {s.id for s in self.states.values() if s.kind == "outcome"}

    def copy(self) -> "StateMachine":
        """An equal machine that shares no list, dict or set with this one;
        the runtime bookkeeping starts empty."""
        states = {sid: FsmState(s.id, s.kind, s.name, s.skill, s.args, s.dispatch_pre,
                                s.achieves, list(s.interrupts), dict(s.transitions),
                                s.rank, s.outcome)
                  for sid, s in self.states.items()}
        return StateMachine(states, self.initial, list(self.plan_order), self.goal,
                            list(self.connected))

    def reset_runtime(self) -> None:
        self.current = None
        self.terminated = None
        self.started.clear()
        self.failed.clear()

    def resolve(self, state: FsmState, label: str) -> Optional[int]:
        """Target of a status edge, applying the implicit rules."""
        if label in state.transitions:
            return state.transitions[label]
        if label == _RUNNING:
            return state.id
        selector = self.selector_id
        if selector is not None:
            return selector
        return None  # no selector: unmapped FAILURE terminates the machine

    def validate(self) -> None:
        selectors = [s for s in self.states.values() if s.kind == "selector"]
        if len(selectors) > 1:
            raise ValidationError("more than one selector state")
        has_selector = bool(selectors)
        if self.initial not in self.states:
            raise ValidationError(f"initial state {self.initial} does not exist")
        listed = (("plan_order", self.plan_order),
                  ("connected", [sid for sid, _ in self.connected]))
        for name, sids in listed:
            seen = set()
            for index, sid in enumerate(sids):
                if sid not in self.states:
                    raise ValidationError(f"{name}[{index}]: names missing state {sid}")
                if sid in seen:
                    raise ValidationError(f"{name}[{index}]: repeats state {sid}")
                seen.add(sid)
        for sid in self.plan_order:
            if self.states[sid].kind != "skill":
                raise ValidationError(f"plan order entry {sid} is not a skill state")
            # the selector dispatches a plan state only while its effect is missing
            if has_selector and self.states[sid].achieves is None:
                raise ValidationError(f"plan state {sid} has no post for the selector "
                                      f"to dispatch on")
        for state in self.states.values():
            if state.kind not in STATE_KINDS:
                raise ValidationError(f"state {state.id}: unknown kind {state.kind!r}")
            if state.kind == "outcome" and state.transitions:
                raise ValidationError(f"outcome state {state.id} cannot have transitions")
            for label, target in state.transitions.items():
                if target not in self.states:
                    raise ValidationError(
                        f"state {state.id}: transition {label} targets missing {target}"
                    )
            if state.interrupts:
                # the engine returns at an outcome before it reads interrupts
                if state.kind == "outcome":
                    raise ValidationError(f"outcome state {state.id} cannot have interrupts")
                fault = _interrupt_fault(self, state, state.interrupts)
                if fault is not None:
                    raise ValidationError(fault)
            # totality: a skill state's SUCCESS lands on a drawn edge or the
            # selector, and the selector's on a drawn edge; FAILURE always
            # resolves, to a drawn edge, the selector or machine failure
            if _SUCCESS not in state.transitions and (
                    state.kind == "selector" or state.kind == "skill" and not has_selector):
                raise ValidationError(
                    f"state {state.id}: SUCCESS transition unresolvable"
                )


def _interrupt_fault(sm: StateMachine, state: FsmState, interrupts) -> Optional[str]:
    """Why ``state`` cannot watch ``interrupts`` in ``sm``, or None.

    An interrupt leads to another state that exists, since the engine
    never takes one to the state it is in, and draws an edge the state
    does not have yet: the graph holds each edge once, so a repeat, or a
    selector interrupt with a dispatch edge's target and label, would be
    counted twice but drawn once.
    """
    drawn = ({(sid, sm.states[sid].dispatch_label()) for sid in sm.plan_order}
             if state.kind == "selector" else set())
    for index, (guard, target) in enumerate(interrupts):
        if target == state.id:
            return f"state {state.id}: interrupts[{index}] targets its own state"
        if target not in sm.states:
            return f"state {state.id}: interrupt targets missing {target}"
        label = guard.key()
        if (target, label) in drawn:
            return (f"state {state.id}: interrupts[{index}] repeats the edge {label} "
                    f"to state {target}")
        drawn.add((target, label))
    return None


def iter_edges(sm: StateMachine) -> Iterator[tuple]:
    """All drawn edges as (source, target, label) triples.

    Covers status transitions, interrupt conditions and the selector's
    dispatch edge to every plan state.
    """
    for state in sm.states.values():
        for label, target in state.transitions.items():
            yield (state.id, target, label)
        for guard, target in state.interrupts:
            yield (state.id, target, guard.key())
    selector = sm.selector_id
    if selector is not None:
        for sid in sm.plan_order:
            yield (selector, sid, sm.state(sid).dispatch_label())


def count_elements(sm: StateMachine) -> dict:
    """Node/edge counts; for a state machine every element is active."""
    nodes = len(sm.states)
    edges = sum(len(s.transitions) + len(s.interrupts) for s in sm.states.values())
    if sm.selector_id is not None:
        edges += len(sm.plan_order)  # the selector's dispatch edges
    total = nodes + edges
    return {"nodes": nodes, "edges": edges, "graphical": total, "active": total}


# ---------------------------------------------------------------------------
# builders


def _chain(sm: StateMachine, plan: Plan, first: int) -> int:
    """Add to ``sm`` a skill state per plan step, ids counting up from
    ``first``, each with a SUCCESS edge to the next, then the SUCCESS
    outcome that the last one leads to; the steps become the plan order.
    Returns the outcome's id."""
    if not plan.steps:
        raise ValidationError("empty plan")
    for sid, step in enumerate(plan.steps, first):
        spec = step.spec
        sm.states[sid] = FsmState(sid, "skill", spec.label(), spec.skill, tuple(spec.params),
                                  tuple(step.dispatch_pre), step.achieves,
                                  transitions={_SUCCESS: sid + 1})
    outcome_id = first + len(plan.steps)
    sm.states[outcome_id] = FsmState(outcome_id, "outcome", "SUCCESS", outcome=SUCCESS)
    sm.plan_order = list(range(first, outcome_id))
    return outcome_id


def build_sequential(plan: Plan) -> StateMachine:
    """One state per plan step, success-chained to a single outcome.

    It is the chain ``_chain`` builds from id 0, where the machine
    starts. There is no selector: any failure terminates the machine and
    the whole sequence has to be restarted by the caller. The machine
    reports what its last skill did, without checking the goal.
    """
    sm = StateMachine(goal=tuple(plan.goal))
    _chain(sm, plan, 0)
    sm.validate()
    return sm


def build_fault_tolerant(plan: Plan) -> StateMachine:
    """The reactive design: selector hub plus fully wired skill states.

    The selector is state 0, where execution starts, so a partially
    solved task is resumed, not restarted; ``_chain`` follows it from
    id 1. Every skill state gains a RUNNING self-loop, a FAILURE edge to
    the selector and a dispatch edge back from it.
    """
    for step in plan.steps:
        if step.achieves is None:
            raise ValidationError(
                f"{step.spec.label()} lacks a dispatch postcondition"
            )
    sm = StateMachine(goal=tuple(plan.goal))
    sm.states[0] = FsmState(0, "selector", "SELECTOR", transitions={_RUNNING: 0})
    sm.states[0].transitions[_SUCCESS] = _chain(sm, plan, 1)
    for sid in sm.plan_order:
        state = sm.states[sid]
        state.transitions = {_RUNNING: sid, _FAILURE: 0, **state.transitions}
    sm.validate()
    return sm


# ---------------------------------------------------------------------------
# edit operations


def _check_new_state(sm: StateMachine, new_state: FsmState, watched: list) -> int:
    """The selector to wire the fresh skill state ``new_state`` to, which
    will watch its own interrupts and then ``watched``."""
    if new_state.id in sm.states:
        raise EditError(f"state id {new_state.id} already in machine")
    if new_state.kind != "skill":
        raise EditError(f"a new state must be a skill state, not a {new_state.kind} state")
    selector = sm.selector_id
    if selector is None:
        raise EditError("adding a state requires a selector machine")
    fault = _interrupt_fault(sm, new_state, [*new_state.interrupts, *watched])
    if fault is not None:
        raise EditError(fault)
    return selector


def _check_plan_insertion(sm: StateMachine, preceding: int, new_state: FsmState) -> tuple:
    """The selector and the plan state ``preceding``'s drawn SUCCESS target."""
    selector = _check_new_state(sm, new_state, _watches(sm))
    if preceding not in sm.plan_order:
        raise EditError(f"state {preceding} is not in the plan order, which leaves out "
                        f"the selector, the outcomes and the connected states")
    following = sm.states[preceding].transitions.get(_SUCCESS)
    if following is None:
        raise EditError(f"state {preceding} has no success transition to follow")
    return selector, following


def _watches(sm: StateMachine) -> list:
    """The interrupt to each connected state, which a new plan state watches."""
    return [(guard, connected_id) for connected_id, guard in sm.connected]


def _insert_plan_state(sm: StateMachine, preceding: int, new_state: FsmState,
                       transitions: dict) -> StateMachine:
    """Add ``new_state``, watching every connected state, after ``preceding``."""
    new_state.transitions = transitions
    new_state.interrupts.extend(_watches(sm))
    sm.states[new_state.id] = new_state
    sm.plan_order.insert(sm.plan_order.index(preceding) + 1, new_state.id)
    sm.validate()
    return sm


def add_sequential_state(sm: StateMachine, preceding: int,
                         new_state: FsmState) -> StateMachine:
    """Insert a new execution step right after the plan state ``preceding``.

    The new state takes over ``preceding``'s drawn SUCCESS edge, so it
    runs next, and is wired into the selector like any other plan state.
    When that edge led to the outcome, the new step becomes the final one.
    A refused edit raises ``EditError`` and changes nothing.
    """
    selector, following = _check_plan_insertion(sm, preceding, new_state)
    if new_state.achieves is None:
        raise EditError(f"state {new_state.id} has no post for the selector to dispatch on")
    sm.states[preceding].transitions[_SUCCESS] = new_state.id
    return _insert_plan_state(sm, preceding, new_state, {
        _RUNNING: new_state.id,
        _FAILURE: selector,
        _SUCCESS: following,
    })


def add_alternative_state(sm: StateMachine, preceding: int,
                          new_state: FsmState) -> StateMachine:
    """Register a fallback strategy for the plan state ``preceding``.

    The alternative copies the preceding state's SUCCESS target and its
    dispatch condition, and is tried by the selector only after the
    primary strategy has failed. Its own failure falls back to the
    selector implicitly. A refused edit raises ``EditError`` and changes
    nothing.
    """
    _, following = _check_plan_insertion(sm, preceding, new_state)
    pred = sm.states[preceding]
    new_state.dispatch_pre = tuple(pred.dispatch_pre)
    new_state.achieves = pred.achieves
    new_state.rank = pred.rank + 1
    return _insert_plan_state(sm, preceding, new_state, {
        _RUNNING: new_state.id,
        _SUCCESS: following,
    })


def add_connected_state(sm: StateMachine, new_state: FsmState,
                        condition: Guard) -> StateMachine:
    """Make a new state reachable from every other state.

    Every existing non-outcome state, the selector included, registers
    the new state and gains a ``condition`` transition to it; the new
    state keeps a RUNNING self-loop and a FAILURE edge back to the
    selector. A refused edit raises ``EditError`` and changes nothing.
    """
    selector = _check_new_state(sm, new_state, [])
    for state in sm.states.values():
        if state.kind != "outcome":
            state.interrupts.append((condition, new_state.id))
    new_state.transitions = {
        _RUNNING: new_state.id,
        _FAILURE: selector,
    }
    sm.states[new_state.id] = new_state
    sm.connected.append((new_state.id, condition))
    sm.validate()
    return sm


def remove_state(sm: StateMachine, state_id: int) -> StateMachine:
    """Delete a state, splicing the success chain across the gap.

    Every transition and interrupt referencing the state is removed;
    success edges into it are retargeted to its own success target so no
    dangling plan entry remains. Only a skill state can go. Removing the
    selector or an outcome state, or a state with no success target when
    the machine would need one (to start from, or for a SUCCESS edge
    into it that has no selector to fall back to), raises ``EditError``
    and changes nothing. Kept in the library though only tests call it:
    it is one of the paper's modification operations.
    """
    victim = sm.state(state_id)
    if victim.kind != "skill":
        raise EditError(f"cannot remove the {victim.kind} state")
    bypass = victim.transitions.get(_SUCCESS)
    if bypass == state_id:
        bypass = None  # a success self-loop leaves with the state
    if bypass is None:
        if sm.initial == state_id:
            raise EditError("removing the initial state would orphan the machine")
        # a SUCCESS edge into the state goes with it; only a skill state of a
        # selector machine has the selector to fall back to
        selector = sm.selector_id
        for state in sm.states.values():
            if (state.id != state_id and state.transitions.get(_SUCCESS) == state_id
                    and (selector is None or state.id == selector)):
                raise EditError(f"removing state {state_id} would leave state {state.id} "
                                f"without a SUCCESS transition")
    for state in sm.states.values():
        if state.id == state_id:
            continue
        for label in list(state.transitions):
            if state.transitions[label] == state_id:
                if label == _SUCCESS and bypass is not None:
                    state.transitions[label] = bypass
                else:
                    del state.transitions[label]
        state.interrupts = [
            (guard, target) for guard, target in state.interrupts if target != state_id
        ]
    del sm.states[state_id]
    sm.plan_order = [sid for sid in sm.plan_order if sid != state_id]
    sm.connected = [(sid, guard) for sid, guard in sm.connected if sid != state_id]
    sm.failed.discard(state_id)
    sm.started.discard(state_id)
    if sm.initial == state_id:
        sm.initial = bypass
    sm.validate()
    return sm


# ---------------------------------------------------------------------------
# step engine


def step(sm: StateMachine, world) -> Status:
    """Advance the machine by one world tick.

    Instant transitions (interrupts, dispatch decisions, finished
    skills) chain within the same step; the call returns once a skill
    reports RUNNING or an outcome is reached. A terminated machine
    returns its outcome and emits no further commands.
    """
    if sm.terminated is not None:
        return sm.terminated
    if sm.current is None:
        sm.current = sm.initial

    for _ in range(len(sm.states) + 4):
        state = sm.state(sm.current)

        if state.kind == "outcome":
            selector = sm.selector_id
            if (state.outcome is SUCCESS and selector is not None
                    and not all(world.evaluate(lit) for lit in sm.goal)):
                sm.current = selector  # the goal was undone: dispatch again
                continue
            sm.terminated = state.outcome
            return state.outcome

        jumped = False
        for guard, target in state.interrupts:
            if target != state.id and guard.holds(world.evaluate):
                _exit_state(sm, state, world)
                sm.current = target
                jumped = True
                break
        if jumped:
            continue

        if state.kind == "selector":
            if all(world.evaluate(lit) for lit in sm.goal):
                sm.current = sm.resolve(state, _SUCCESS)
                continue
            target = _dispatch(sm, world)
            if target is None:
                sm.terminated = FAILURE  # deadlock surfaced, not hidden
                return FAILURE
            sm.current = target
            continue

        # skill state
        key = state.skill_key()
        if state.id not in sm.started:
            world.request_start(key)
            sm.started.add(state.id)
            return RUNNING
        result = world.skill_status(key)
        if result is RUNNING:
            return RUNNING
        sm.started.discard(state.id)
        if result is SUCCESS:
            sm.current = sm.resolve(state, _SUCCESS)
        else:
            sm.failed.add(state.id)
            target = sm.resolve(state, _FAILURE)
            if target is None:
                sm.terminated = FAILURE
                return FAILURE
            sm.current = target
        continue

    raise ValidationError("state machine cycled without consuming a tick")


def _exit_state(sm: StateMachine, state: FsmState, world) -> None:
    if state.kind == "skill" and state.id in sm.started:
        world.request_cancel(state.skill_key())
        sm.started.discard(state.id)


def _dispatch(sm: StateMachine, world) -> Optional[int]:
    """Pick the furthest plan step whose context holds and effect is missing.

    Scanning from the goal end makes recovery resume at the furthest
    achieved progress. Alternative strategies of a step are grouped with
    it; the primary is preferred, failed members are skipped until the
    whole group is exhausted, at which point its flags clear and the
    primary is retried.
    """
    order = sm.plan_order
    index = len(order) - 1
    while index >= 0:
        group = [sm.state(order[index])]
        while index > 0:
            prev = sm.state(order[index - 1])
            if (prev.achieves == group[0].achieves
                    and prev.dispatch_pre == group[0].dispatch_pre):
                group.insert(0, prev)
                index -= 1
            else:
                break
        primary = group[0]
        context_holds = all(world.evaluate(lit) for lit in primary.dispatch_pre)
        effect_missing = not world.evaluate(primary.achieves)
        if context_holds and effect_missing:
            for member in group:
                if member.id not in sm.failed:
                    return member.id
            for member in group:  # all strategies failed: clear and retry
                sm.failed.discard(member.id)
            return primary.id
        index -= 1
    return None

