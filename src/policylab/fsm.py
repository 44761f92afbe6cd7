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
FAILURE on an unmapped failure). This keeps the stored structure equal to
what the diagrams show while the engine remains total.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from .core import ConditionLiteral, EditError, Guard, Status, ValidationError
from .planner import Plan, PlanStep

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
        entries = [(f"plan_order[{index}]", sid) for index, sid in enumerate(self.plan_order)]
        entries += [(f"connected[{index}]", sid) for index, (sid, _) in enumerate(self.connected)]
        for path, sid in entries:
            if sid not in self.states:
                raise ValidationError(f"{path}: names missing state {sid}")
        for sid in self.plan_order:
            if self.states[sid].kind != "skill":
                raise ValidationError(f"plan order entry {sid} is not a skill state")
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
            for _, target in state.interrupts:
                if target not in self.states:
                    raise ValidationError(
                        f"state {state.id}: interrupt targets missing {target}"
                    )
            if state.kind == "skill":
                # totality: SUCCESS must land somewhere; FAILURE may fall back to
                # the selector or, without one, to machine-level failure
                if self.resolve(state, _SUCCESS) is None:
                    raise ValidationError(
                        f"state {state.id}: SUCCESS transition unresolvable"
                    )
                if has_selector and self.resolve(state, _FAILURE) is None:
                    raise ValidationError(
                        f"state {state.id}: FAILURE transition unresolvable"
                    )


def iter_edges(sm: StateMachine) -> Iterator[tuple]:
    """All drawn edges as (source, target, label) triples.

    Covers status transitions, interrupt conditions and the selector's
    dispatch edge to every plan state.
    """
    for state in sm.states.values():
        for label, target in sorted(state.transitions.items()):
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
    edges = sum(1 for _ in iter_edges(sm))
    total = nodes + edges
    return {"nodes": nodes, "edges": edges, "graphical": total, "active": total}


# ---------------------------------------------------------------------------
# builders


def _skill_state(sid: int, step: PlanStep) -> FsmState:
    spec = step.spec
    return FsmState(
        id=sid,
        kind="skill",
        name=spec.label(),
        skill=spec.skill,
        args=tuple(spec.params),
        dispatch_pre=tuple(step.dispatch_pre),
        achieves=step.achieves,
    )


def build_sequential(plan: Plan) -> StateMachine:
    """One state per plan step, success-chained to a single outcome.

    There is no selector: any failure terminates the machine and the
    whole sequence has to be restarted by the caller.
    """
    if not plan.steps:
        raise ValidationError("empty plan")
    sm = StateMachine(goal=tuple(plan.goal))
    for index, step in enumerate(plan.steps):
        sm.states[index] = _skill_state(index, step)
    outcome_id = len(plan.steps)
    sm.states[outcome_id] = FsmState(
        id=outcome_id, kind="outcome", name="SUCCESS", outcome=Status.SUCCESS
    )
    for index in range(len(plan.steps)):
        sm.states[index].transitions[_SUCCESS] = index + 1
    sm.initial = 0
    sm.plan_order = list(range(len(plan.steps)))
    sm.validate()
    return sm


def build_fault_tolerant(plan: Plan) -> StateMachine:
    """The reactive design: selector hub plus fully wired skill states.

    Every skill state has a RUNNING self-loop, a FAILURE edge to the
    selector and a dispatch edge back from it; execution starts at the
    selector so a partially solved task is resumed, not restarted.
    """
    if not plan.steps:
        raise ValidationError("empty plan")
    for step in plan.steps:
        if step.achieves is None:
            raise ValidationError(
                f"{step.spec.label()} lacks a dispatch postcondition"
            )
    sm = StateMachine(goal=tuple(plan.goal))
    selector_id = 0
    first_skill = 1
    outcome_id = len(plan.steps) + 1
    sm.states[selector_id] = FsmState(
        id=selector_id,
        kind="selector",
        name="SELECTOR",
        transitions={_RUNNING: selector_id, _SUCCESS: outcome_id},
    )
    for offset, step in enumerate(plan.steps):
        sid = first_skill + offset
        state = _skill_state(sid, step)
        state.transitions = {
            _RUNNING: sid,
            _FAILURE: selector_id,
            _SUCCESS: sid + 1 if offset + 1 < len(plan.steps) else outcome_id,
        }
        sm.states[sid] = state
    sm.states[outcome_id] = FsmState(
        id=outcome_id, kind="outcome", name="SUCCESS", outcome=Status.SUCCESS
    )
    sm.initial = selector_id
    sm.plan_order = list(range(first_skill, first_skill + len(plan.steps)))
    sm.validate()
    return sm


# ---------------------------------------------------------------------------
# edit operations


def _check_fresh(sm: StateMachine, state: FsmState) -> None:
    if state.id in sm.states:
        raise EditError(f"state id {state.id} already in machine")


def _wire_connected_interrupts(sm: StateMachine, state: FsmState) -> None:
    for connected_id, guard in sm.connected:
        state.interrupts.append((guard, connected_id))


def add_sequential_state(sm: StateMachine, preceding: int, new_state: FsmState,
                         following: int) -> StateMachine:
    """Insert a new execution step between two chained states.

    The old success edge is removed, the new state takes its place and
    is wired into the selector like any other plan state. When
    ``following`` is the outcome, the new step becomes the final one.
    """
    _check_fresh(sm, new_state)
    pred = sm.state(preceding)
    if pred.transitions.get(_SUCCESS) != following:
        raise EditError(
            f"no success transition {preceding} -> {following} to split"
        )
    selector = sm.selector_id
    if selector is None:
        raise EditError("sequential insertion requires a selector machine")
    pred.transitions[_SUCCESS] = new_state.id
    new_state.transitions = {
        _RUNNING: new_state.id,
        _FAILURE: selector,
        _SUCCESS: following,
    }
    _wire_connected_interrupts(sm, new_state)
    sm.states[new_state.id] = new_state
    sm.plan_order.insert(sm.plan_order.index(preceding) + 1, new_state.id)
    sm.validate()
    return sm


def add_alternative_state(sm: StateMachine, preceding: int, new_state: FsmState,
                          following: int) -> StateMachine:
    """Register a fallback strategy for an existing step.

    The alternative copies the preceding state's success edge and its
    dispatch condition, and is tried by the selector only after the
    primary strategy has failed. Its own failure falls back to the
    selector implicitly.
    """
    _check_fresh(sm, new_state)
    pred = sm.state(preceding)
    if pred.kind != "skill":
        raise EditError(f"cannot attach an alternative to a {pred.kind} state")
    selector = sm.selector_id
    if selector is None or sm.resolve(pred, _FAILURE) != selector:
        raise EditError(
            f"state {preceding} has no failure route to the selector"
        )
    if pred.transitions.get(_SUCCESS) != following:
        raise EditError(
            f"state {preceding} does not chain to {following} on success"
        )
    new_state.transitions = {
        _RUNNING: new_state.id,
        _SUCCESS: following,
    }
    new_state.dispatch_pre = tuple(pred.dispatch_pre)
    new_state.achieves = pred.achieves
    new_state.rank = pred.rank + 1
    _wire_connected_interrupts(sm, new_state)
    sm.states[new_state.id] = new_state
    sm.plan_order.insert(sm.plan_order.index(preceding) + 1, new_state.id)
    sm.validate()
    return sm


def add_connected_state(sm: StateMachine, new_state: FsmState, condition: Guard,
                        selector_condition: Guard) -> StateMachine:
    """Make a new state reachable from every other state.

    Every existing non-outcome state registers the new state and gains a
    condition transition to it (the selector under its own condition);
    the new state keeps a RUNNING self-loop and a FAILURE edge back to
    the selector.
    """
    _check_fresh(sm, new_state)
    selector = sm.selector_id
    if selector is None:
        raise EditError("connected states require a selector machine")
    for state in sm.states.values():
        if state.kind == "outcome":
            continue
        guard = selector_condition if state.kind == "selector" else condition
        state.interrupts.append((guard, new_state.id))
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
    dangling plan entry remains. Kept in the library though only tests
    call it: it is one of the paper's modification operations.
    """
    victim = sm.state(state_id)
    if victim.kind == "selector":
        raise EditError("cannot remove the selector state")
    bypass = victim.transitions.get(_SUCCESS)
    for state in sm.states.values():
        if state.id == state_id:
            continue
        for label in list(state.transitions):
            if state.transitions[label] == state_id:
                if label == _SUCCESS and bypass is not None and bypass != state_id:
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
        if bypass is None:
            raise EditError("removing the initial state would orphan the machine")
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
                sm.terminated = Status.FAILURE  # deadlock surfaced, not hidden
                return Status.FAILURE
            sm.current = target
            continue

        # skill state
        key = state.skill_key()
        if state.id not in sm.started:
            world.request_start(*key)
            sm.started.add(state.id)
            return Status.RUNNING
        if world.skill_running(*key):
            return Status.RUNNING
        result = world.skill_result(*key)
        sm.started.discard(state.id)
        if result is Status.SUCCESS:
            sm.current = sm.resolve(state, _SUCCESS)
        else:
            sm.failed.add(state.id)
            target = sm.resolve(state, _FAILURE)
            if target is None:
                sm.terminated = Status.FAILURE
                return Status.FAILURE
            sm.current = target
        continue

    raise ValidationError("state machine cycled without consuming a tick")


def _exit_state(sm: StateMachine, state: FsmState, world) -> None:
    if state.kind == "skill" and state.id in sm.started:
        key = state.skill_key()
        if world.skill_running(*key):
            world.request_cancel(*key)
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

