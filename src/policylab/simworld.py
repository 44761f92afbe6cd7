"""Deterministic discrete-tick mobile manipulation world.

Space is symbolic: the robot is either at a named station or in TRANSIT
while a motion skill runs. Skills follow a start/poll/cancel lifecycle
with scenario-defined tick durations; a cancelled motion leaves the
robot stranded in TRANSIT and a restarted one pays its full duration.

The episode runner drives any of the three policy engines tick by tick:
perturbations, policy evaluation against the tick-start snapshot,
preemption, buffered skill starts, then skill progress and battery
drain. A tick whose evaluation could only repeat the previous one
reuses its status instead (see :func:`run_episode`). Every skill
lifecycle event lands in the trace, which is the substrate for
cross-representation equivalence and chattering detection.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Optional

from . import bt, fsm, hfsm
from .core import (
    ConditionLiteral,
    DocumentError,
    KNOWN_SKILLS,
    MOTION_SKILLS,
    Status,
    TRANSIT,
    WorldError,
)

DEFAULT_STATIONS = (
    "center", "fetch1", "fetch2", "fetch3", "fetch4", "fetch5",
    "delivery", "recharge", "dock",
)

#: default durations in ticks; search visits one viewpoint per fetch table
DEFAULT_DURATIONS = {
    "move_to": 5,
    "safe_move_to": 7,
    "pick": 3,
    "place": 3,
    "tuck": 3,
    "dock": 3,
    "recharge": 2,
    "search": 20,
}


@dataclass
class WorldState:
    tick: int = 0
    robot_location: str = "center"
    battery: float = 100.0
    holding: Optional[str] = None
    arm_tucked: bool = True
    docked: bool = False
    item_locations: dict = field(default_factory=dict)
    found_markers: set = field(default_factory=set)
    stations: frozenset = frozenset(DEFAULT_STATIONS)


@dataclass
class SkillRuntime:
    name: str
    args: tuple
    state: str = "running"  # running | succeeded | failed | cancelled
    remaining: int = 0
    will_fail: bool = False
    reason: str = ""


@dataclass(frozen=True)
class Perturbation:
    tick: int
    event: str
    args: tuple = ()


def _is_number(value, integer: bool = False) -> bool:
    return isinstance(value, int if integer else (int, float)) and not isinstance(value, bool)


@dataclass
class Scenario:
    """Everything that makes an episode reproducible."""

    name: str = "scenario"
    stations: tuple = DEFAULT_STATIONS
    robot_location: str = "center"
    battery: float = 100.0
    holding: Optional[str] = None
    arm_tucked: bool = True
    docked: bool = False
    items: dict = field(default_factory=dict)
    markers: tuple = ()
    durations: dict = field(default_factory=dict)
    #: (skill name, args or None, nth invocation that fails)
    failures: tuple = ()
    drain_per_motion_tick: float = 2.0
    battery_threshold: float = 20.0
    perturbations: tuple = ()
    max_ticks: int = 200
    #: ticks a tree policy must hold SUCCESS before the episode ends
    success_hold_ticks: int = 5
    #: reproducibility bookkeeping; the failure model itself is fully scripted
    seed: int = 0

    def validate(self) -> None:
        numbers = [(name, getattr(self, name), False)
                   for name in ("battery", "drain_per_motion_tick", "battery_threshold")]
        numbers += [(name, getattr(self, name), True)
                    for name in ("max_ticks", "success_hold_ticks", "seed")]
        numbers += [(f"durations.{skill}", duration, True)
                    for skill, duration in self.durations.items()]
        numbers += [(f"failures[{index}].invocation", nth, True)
                    for index, (_, _, nth) in enumerate(self.failures)]
        numbers += [(f"perturbations[{index}].tick", p.tick, True)
                    for index, p in enumerate(self.perturbations)]
        for path, value, integer in numbers:
            if not _is_number(value, integer):
                expected = "an integer" if integer else "a number"
                raise DocumentError(f"{path}: expected {expected}, got {value!r}")
        if self.max_ticks < 1:
            raise DocumentError(f"max_ticks: must be at least 1, got {self.max_ticks}")
        skills = [(f"failures[{index}].skill", skill)
                  for index, (skill, _, _) in enumerate(self.failures)]
        skills += [(f"durations.{skill}", skill) for skill in self.durations]
        for path, skill in skills:
            if not (isinstance(skill, str) and skill in KNOWN_SKILLS):
                raise DocumentError(f"{path}: unknown skill {skill!r}")
        if self.robot_location != TRANSIT and self.robot_location not in self.stations:
            raise DocumentError(f"robot_location {self.robot_location!r} not a station")
        if not 0 <= self.battery <= 100:
            raise DocumentError("battery must be in [0, 100]")
        for item, station in self.items.items():
            if station not in self.stations:
                raise DocumentError(f"item {item!r} placed at unknown station {station!r}")
        for index, p in enumerate(self.perturbations):
            self._validate_perturbation(f"perturbations[{index}]", p)
        ticks = [p.tick for p in self.perturbations]
        if any(b <= a for a, b in zip(ticks, ticks[1:])):
            raise DocumentError("perturbation ticks must be strictly increasing")

    def _validate_perturbation(self, path: str, p: Perturbation) -> None:
        args = p.args
        if p.event == "set_item_location":
            valid = (len(args) == 2 and isinstance(args[0], str)
                     and args[0] in self.items and args[1] in self.stations)
            expected = "an item and a station of the scenario"
        elif p.event == "set_battery":
            valid = len(args) == 1 and _is_number(args[0])
            expected = "one number"
        elif p.event == "force_fail_next":
            valid = len(args) == 1 and isinstance(args[0], str) and args[0] in KNOWN_SKILLS
            expected = "one known skill"
        else:
            raise DocumentError(f"{path}.event: unknown perturbation event {p.event!r}")
        if not valid:
            raise DocumentError(f"{path}.args: {p.event} takes {expected}, got {list(args)!r}")


def serialize_scenario(scenario: Scenario) -> str:
    # perfbench's Episodes.fingerprint still calls this name; the next benchmark
    # change (ROADMAP item 8) points it at documents.serialize_scenario and deletes this
    from . import documents
    return documents.serialize_scenario(scenario)


# ---------------------------------------------------------------------------
# trace


@dataclass(frozen=True)
class TraceEvent:
    tick: int
    kind: str
    payload: dict

    def to_json(self) -> str:
        record = {"tick": self.tick, "kind": self.kind}
        record.update(self.payload)
        return json.dumps(record)


@dataclass
class Trace:
    events: list = field(default_factory=list)
    outcome: str = "TIMEOUT"
    ticks: int = 0
    timed_out: bool = False

    def to_jsonl(self) -> str:
        lines = [event.to_json() for event in self.events]
        lines.append(json.dumps(
            {"tick": self.ticks, "kind": "episode_end", "outcome": self.outcome,
             "timed_out": self.timed_out}
        ))
        return "\n".join(lines) + "\n"

    def skill_lifecycle(self) -> list[tuple]:
        """Ordered (skill, args, outcome) triples, independent of ticks."""
        out: list[tuple] = []
        open_slots: dict[tuple, int] = {}
        for event in self.events:
            if event.kind == "skill_start":
                key = (event.payload["skill"], tuple(event.payload["args"]))
                open_slots[key] = len(out)
                out.append((key[0], key[1], "unfinished"))
            elif event.kind in ("skill_end", "skill_preempt"):
                key = (event.payload["skill"], tuple(event.payload["args"]))
                slot = open_slots.pop(key, None)
                outcome = event.payload.get("outcome", "cancelled")
                if slot is not None:
                    out[slot] = (key[0], key[1], outcome)
        return out

    def skill_events(self, kind: str) -> list[TraceEvent]:
        return [event for event in self.events if event.kind == kind]


def traces_equivalent(first: Trace, second: Trace) -> bool:
    """Equality of ordered skill lifecycle projections, ignoring ticks."""
    return first.skill_lifecycle() == second.skill_lifecycle()


def detect_chattering(trace: Trace) -> bool:
    """Spot two motion goals repeatedly displacing each other.

    True when some pair of distinct motion skills alternates in the
    start sequence while at least three preemptions of either one
    happen within the alternating run.
    """
    starts = []
    for event in trace.events:
        if event.kind == "skill_start" and event.payload["skill"] in MOTION_SKILLS:
            starts.append(((event.payload["skill"], tuple(event.payload["args"])),
                           event.tick))
    preempts = [
        ((event.payload["skill"], tuple(event.payload["args"])), event.tick)
        for event in trace.events
        if event.kind == "skill_preempt" and event.payload["skill"] in MOTION_SKILLS
    ]
    index = 0
    while index < len(starts):
        # grow the longest strict two-skill alternation starting here
        end = index + 1
        while end < len(starts):
            key, _ = starts[end]
            prev_key, _ = starts[end - 1]
            expected = starts[end - 2][0] if end - 2 >= index else None
            if key == prev_key or (expected is not None and key != expected):
                break
            end += 1
        run = starts[index:end]
        if len(run) >= 3:
            pair = {run[0][0], run[1][0]}
            low, high = run[0][1], run[-1][1]
            hits = sum(1 for key, tick in preempts
                       if key in pair and low <= tick <= high)
            if hits >= 3:
                return True
        index = max(index + 1, end - 1)
    return False


# ---------------------------------------------------------------------------
# world


class World:
    """Mutable episode state implementing the engines' tick protocol."""

    def __init__(self, scenario: Scenario):
        scenario.validate()
        self.scenario = scenario
        self.state = WorldState(
            robot_location=scenario.robot_location,
            battery=scenario.battery,
            holding=scenario.holding,
            arm_tucked=scenario.arm_tucked,
            docked=scenario.docked,
            item_locations=dict(scenario.items),
            stations=frozenset(scenario.stations),
        )
        self.runtimes: dict[tuple, SkillRuntime] = {}
        self.invocations: dict[str, int] = {}
        self.force_fail: set[str] = set()
        self.pending_starts: list[tuple] = []
        self.events: list[TraceEvent] = []
        self._pending = list(scenario.perturbations)
        self._markers = frozenset(scenario.markers)
        # what the marked evaluation saw: the event count and battery at
        # its start, and every battery_above threshold it read
        self._mark = (0, scenario.battery)
        self._thresholds: set = set()

    # -- trace helpers -------------------------------------------------------

    def _log(self, kind: str, **payload) -> None:
        self.events.append(TraceEvent(self.state.tick, kind, payload))

    # -- condition evaluation --------------------------------------------------

    def evaluate(self, literal: ConditionLiteral) -> bool:
        state = self.state
        pred, args = literal.predicate, literal.args
        if pred == "robot_at":
            station = args[0]
            if station not in state.stations:
                raise WorldError(f"robot_at references unknown station {station!r}")
            return state.robot_location == station
        if pred == "in_hand":
            return state.holding == args[0]
        if pred == "object_at":
            item, station = args
            if station not in state.stations:
                raise WorldError(f"object_at references unknown station {station!r}")
            return state.item_locations.get(item) == station
        if pred == "battery_above":
            self._thresholds.add(args[0])
            return state.battery > args[0]
        if pred == "arm_tucked":
            return state.arm_tucked
        if pred == "docked":
            return state.docked
        if pred == "found":
            return self._markers <= state.found_markers
        raise WorldError(f"unknown predicate {pred!r}")

    def mark_evaluation(self) -> None:
        """Start recording what the next evaluation reads of the world."""
        self._mark = (len(self.events), self.state.battery)
        self._thresholds = set()

    def changed_since_mark(self) -> bool:
        """Whether an answer the marked evaluation got may differ now.

        Every change to the world but battery drain logs an event, so
        with no new event only a ``battery_above`` threshold the battery
        has crossed can answer differently.
        """
        count, battery = self._mark
        if len(self.events) != count:
            return True
        now = self.state.battery
        return any((battery > threshold) != (now > threshold)
                   for threshold in self._thresholds)

    # -- skill lifecycle -------------------------------------------------------

    def skill_running(self, name: str, args: tuple) -> bool:
        runtime = self.runtimes.get((name, tuple(args)))
        return runtime is not None and runtime.state == "running"

    def skill_result(self, name: str, args: tuple) -> Optional[Status]:
        runtime = self.runtimes.get((name, tuple(args)))
        if runtime is None or runtime.state == "running":
            return None
        return Status.SUCCESS if runtime.state == "succeeded" else Status.FAILURE

    def request_start(self, name: str, args: tuple) -> None:
        key = (name, tuple(args))
        if key not in self.pending_starts:
            self.pending_starts.append(key)

    def request_cancel(self, name: str, args: tuple) -> None:
        runtime = self.runtimes.get((name, tuple(args)))
        if runtime is not None and runtime.state == "running":
            runtime.state = "cancelled"
            self._log("skill_preempt", skill=name, args=list(args))

    def apply_starts(self) -> None:
        pending, self.pending_starts = self.pending_starts, []
        for name, args in pending:
            self.start_skill(name, args)

    def start_skill(self, name: str, args: tuple) -> SkillRuntime:
        args = tuple(args)
        if name not in KNOWN_SKILLS:
            raise WorldError(f"unknown skill {name!r}")
        existing = self.runtimes.get((name, args))
        if existing is not None and existing.state == "running":
            return existing  # goal already sent; polling continues
        if name in MOTION_SKILLS:
            for runtime in self.runtimes.values():
                if runtime.state == "running" and runtime.name in MOTION_SKILLS:
                    raise WorldError(
                        f"cannot start {name}: motion skill {runtime.name} still running"
                    )
        duration = self.scenario.durations.get(name, DEFAULT_DURATIONS[name])
        count = self.invocations.get(name, 0) + 1
        self.invocations[name] = count
        will_fail = name in self.force_fail
        self.force_fail.discard(name)
        for fail_name, fail_args, nth in self.scenario.failures:
            if fail_name == name and (fail_args is None or fail_args == args):
                if nth == count:
                    will_fail = True
        runtime = SkillRuntime(
            name=name, args=args, remaining=duration, will_fail=will_fail,
        )
        self._log("skill_start", skill=name, args=list(args))
        guard_error = self._start_guard(name, args)
        if guard_error:
            runtime.state = "failed"
            runtime.reason = guard_error
            self._log("skill_end", skill=name, args=list(args),
                      outcome="failure", reason=guard_error)
        else:
            self._start_effects(name, args)
        self.runtimes[(name, args)] = runtime
        return runtime

    def _start_guard(self, name: str, args: tuple) -> str:
        state = self.state
        if name == "pick":
            item = args[0]
            if state.holding is not None:
                return f"already holding {state.holding}"
            if state.item_locations.get(item) != state.robot_location:
                return f"{item} is not at {state.robot_location}"
        elif name == "place":
            item = args[0]
            if state.holding != item:
                return f"not holding {item}"
            if state.robot_location == TRANSIT:
                return "cannot place while in transit"
        elif name in ("move_to", "safe_move_to"):
            if args[0] not in state.stations:
                raise WorldError(f"{name} targets unknown station {args[0]!r}")
        return ""

    def _start_effects(self, name: str, args: tuple) -> None:
        if name in MOTION_SKILLS:
            self.state.robot_location = TRANSIT
            self.state.docked = False

    def _completion_effects(self, name: str, args: tuple) -> None:
        state = self.state
        if name in ("move_to", "safe_move_to"):
            state.robot_location = args[0]
        elif name == "pick":
            item = args[0]
            state.holding = item
            state.item_locations.pop(item, None)
            state.arm_tucked = False
        elif name == "place":
            item = args[0]
            state.item_locations[item] = state.robot_location
            state.holding = None
        elif name == "tuck":
            state.arm_tucked = True
        elif name == "recharge":
            state.robot_location = "recharge"
            state.battery = 100.0
        elif name == "dock":
            state.robot_location = "dock"
            state.docked = True
        elif name == "search":
            state.found_markers = set(self.scenario.markers)
            viewpoints = sorted(s for s in state.stations if s.startswith("fetch"))
            state.robot_location = viewpoints[-1] if viewpoints else "center"

    # -- per-tick phases -------------------------------------------------------

    def begin_tick(self, tick: int) -> None:
        self.state.tick = tick
        while self._pending and self._pending[0].tick == tick:
            perturbation = self._pending.pop(0)
            self._apply_perturbation(perturbation)

    def _apply_perturbation(self, perturbation: Perturbation) -> None:
        event, args = perturbation.event, perturbation.args
        if event == "set_item_location":
            item, station = args
            if station not in self.state.stations:
                raise WorldError(f"perturbation moves {item} to unknown {station!r}")
            self.state.item_locations[item] = station
            if self.state.holding == item:
                self.state.holding = None
        elif event == "set_battery":
            self.state.battery = max(0.0, min(100.0, float(args[0])))
        elif event == "force_fail_next":
            self.force_fail.add(args[0])
        else:
            raise WorldError(f"unknown perturbation {event!r}")
        self._log("perturbation", event=event, args=list(args))

    def advance(self) -> None:
        """Progress running skills one tick, then drain and complete."""
        completed = []
        motion_ticked = False
        for runtime in self.runtimes.values():
            if runtime.state != "running":
                continue
            runtime.remaining -= 1
            if runtime.name in MOTION_SKILLS:
                motion_ticked = True
            if runtime.remaining <= 0:
                completed.append(runtime)
        if motion_ticked and self.scenario.drain_per_motion_tick:
            self.state.battery = max(
                0.0, self.state.battery - self.scenario.drain_per_motion_tick
            )
        for runtime in completed:
            # the world may have changed since the start guard passed: a
            # skill whose guard fails now ends as it would have at start
            if runtime.will_fail:
                reason = "injected failure"
            else:
                reason = self._start_guard(runtime.name, runtime.args)
            if reason:
                runtime.state = "failed"
                runtime.reason = reason
                self._log("skill_end", skill=runtime.name, args=list(runtime.args),
                          outcome="failure", reason=reason)
            else:
                runtime.state = "succeeded"
                self._completion_effects(runtime.name, runtime.args)
                self._log("skill_end", skill=runtime.name, args=list(runtime.args),
                          outcome="success")


# ---------------------------------------------------------------------------
# episode runner


def _tree_bookkeeping(tree: bt.PolicyTree) -> tuple:
    return set(tree.active_actions), dict(tree.memory_marks)


def _machine_bookkeeping(sm: fsm.StateMachine) -> tuple:
    return sm.current, sm.terminated, set(sm.started), set(sm.failed)


def _nested_bookkeeping(machine: hfsm.HfsmContainer) -> set:
    return set(machine.active_leaves)


def _engine(policy: bt.PolicyTree | fsm.StateMachine | hfsm.HfsmContainer):
    """``(evaluate, preempt, bookkeeping)`` for ``policy``, with the engine
    functions read off their modules at each call. Machines cancel skills
    inside ``fsm.step``: no preempt. ``bookkeeping`` snapshots the engine
    state an evaluation reads besides the world."""
    if isinstance(policy, bt.PolicyTree):
        return bt.tick, bt.halt_unvisited, _tree_bookkeeping
    if isinstance(policy, fsm.StateMachine):
        return fsm.step, None, _machine_bookkeeping
    if isinstance(policy, hfsm.HfsmContainer):
        return hfsm.step, hfsm.halt_unvisited, _nested_bookkeeping
    raise WorldError(f"cannot run a {type(policy).__name__}")


def run_episode(policy: bt.PolicyTree | fsm.StateMachine | hfsm.HfsmContainer,
                scenario: Scenario) -> Trace:
    """Drive one policy through one scenario and collect the trace.

    Machines end the episode at their outcome. Trees keep being ticked
    after SUCCESS and end once the goal has held for
    ``scenario.success_hold_ticks`` consecutive ticks.

    An evaluation is a function of the engine's bookkeeping and the
    world's answers. When the last one was quiet (no start requested, no
    event logged, bookkeeping left as it found it) and the world has
    changed nothing it read, evaluating again would repeat it exactly,
    so the tick keeps the previous status and skips the engine call.
    """
    world = World(scenario)
    evaluate, preempt, bookkeeping = _engine(policy)
    policy.reset_runtime()
    last_status: Optional[Status] = None
    quiet = False
    success_streak = 0
    outcome, timed_out = "TIMEOUT", True
    ticks = 0

    for tick_index in range(scenario.max_ticks):
        ticks = tick_index + 1
        world.begin_tick(tick_index)
        if not quiet or world.changed_since_mark():
            before = bookkeeping(policy)
            world.mark_evaluation()
            status = evaluate(policy, world)
            if preempt is not None:
                preempt(policy, world)
            quiet = (not world.pending_starts and not world.changed_since_mark()
                     and bookkeeping(policy) == before)
        world.apply_starts()
        world.advance()
        if status is not last_status:
            world._log("policy_status", status=status.value)
            last_status = status

        if preempt is None and policy.terminated is not None:  # machines only
            outcome, timed_out = policy.terminated.value, False
            break
        if status is Status.SUCCESS:
            success_streak += 1
            if success_streak >= scenario.success_hold_ticks:
                outcome, timed_out = "SUCCESS", False
                break
        else:
            success_streak = 0

    return Trace(events=world.events, outcome=outcome, ticks=ticks,
                 timed_out=timed_out)
