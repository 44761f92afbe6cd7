"""Shared vocabulary for all policy representations.

Statuses, world condition literals, action specifications and the
validated action library that the planner and the state machine
builders consume.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class Status(enum.Enum):
    """Three-valued result of evaluating a policy or one of its nodes."""

    SUCCESS = "SUCCESS"
    FAILURE = "FAILURE"
    RUNNING = "RUNNING"

    def __str__(self) -> str:
        return self.value


#: the members as globals for the per-node engine loops: ``Status.X`` reads go through ``EnumType``
SUCCESS, FAILURE, RUNNING = Status.SUCCESS, Status.FAILURE, Status.RUNNING

#: Robot position while a motion skill is in flight; matches no station.
TRANSIT = "TRANSIT"

#: skills that move the base; at most one may run at a time
MOTION_SKILLS = frozenset({"move_to", "safe_move_to", "recharge", "dock", "search"})

#: every skill the simulator can run, name -> expected argument count;
#: policy documents may name no other, and the simulator reads a moving,
#: picking or placing skill's one argument
SKILL_ARITY = {
    "move_to": 1,
    "safe_move_to": 1,
    "pick": 1,
    "place": 1,
    "search": 0,
    "tuck": 0,
    "dock": 0,
    "recharge": 0,
}
KNOWN_SKILLS = frozenset(SKILL_ARITY)

#: Closed set of world predicates, name -> expected argument count.
#: Everything a policy may test must be here so that every document that
#: parses is also evaluable by the simulator.
_PREDICATE_ARITY = {
    "robot_at": 1,
    "in_hand": 1,
    "object_at": 2,
    "battery_above": 1,
    "arm_tucked": 0,
    "docked": 0,
    "found": 0,
}


class PolicyError(Exception):
    """Base class for everything this package raises on bad input."""


class ValidationError(PolicyError):
    """A domain object violates one of its declared invariants."""


class DocumentError(PolicyError):
    """A serialized document is malformed; message carries a field path."""


class PlanError(PolicyError):
    """Goal or preconditions cannot be satisfied from the action library."""


class EditError(PolicyError):
    """A structural edit operation was applied to an invalid target."""


class WorldError(PolicyError):
    """The simulator was asked something outside its closed world."""


class BudgetError(PolicyError):
    """An exact edit distance search ran out of its time budget."""


def check_skill_args(skill: str, args: tuple, where: str, error: type) -> None:
    """Raise ``error`` naming ``where`` unless ``args`` holds as many
    arguments as the known ``skill`` takes."""
    arity = SKILL_ARITY[skill]
    if len(args) != arity:
        raise error(f"{where}: {skill} takes {arity} argument(s), got {len(args)}")


@dataclass(frozen=True)
class ConditionLiteral:
    """A ground world predicate, e.g. ``robot_at(fetch1)``.

    Arguments are symbols (strings) except for ``battery_above`` whose
    single argument is a percentage in [0, 100].
    """

    predicate: str
    args: tuple = ()
    #: ``key()`` once built; not annotated, so not a field that ``==`` or ``hash`` reads
    _key = None

    def __post_init__(self):
        if self.predicate not in _PREDICATE_ARITY:
            raise ValidationError(f"unknown predicate {self.predicate!r}")
        object.__setattr__(self, "args", tuple(self.args))
        arity = _PREDICATE_ARITY[self.predicate]
        if len(self.args) != arity:
            raise ValidationError(
                f"{self.predicate} takes {arity} argument(s), got {len(self.args)}"
            )
        if self.predicate == "battery_above":
            level = self.args[0]
            # JSON ``true`` is no threshold, though ``bool`` is an ``int``
            if (type(level) is bool or not isinstance(level, (int, float))
                    or not 0 <= level <= 100):
                raise ValidationError(
                    f"battery_above threshold must be a number in [0, 100], got {level!r}"
                )

    def key(self) -> str:
        """Stable string form used as transition labels and display names."""
        key = self._key
        if key is None:
            key = f"{self.predicate}({', '.join(str(a) for a in self.args)})"
            object.__setattr__(self, "_key", key)
        return key

    def __str__(self) -> str:
        return self.key()


@dataclass(frozen=True)
class Guard:
    """A literal or its negation; used for interrupt transitions.

    ``Guard(battery_above(20), negated=True)`` fires when the battery is
    at or below the threshold.
    """

    literal: ConditionLiteral
    negated: bool = False

    def key(self) -> str:
        return ("!" if self.negated else "") + self.literal.key()

    def holds(self, evaluate) -> bool:
        value = evaluate(self.literal)
        return (not value) if self.negated else value

    def __str__(self) -> str:
        return self.key()


@dataclass(frozen=True)
class ActionSpec:
    """A named, ground robot action with ordered pre/postconditions."""

    name: str
    params: tuple = ()
    preconditions: tuple = ()
    postconditions: tuple = ()
    skill: str = ""

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(self.params))
        object.__setattr__(self, "preconditions", tuple(self.preconditions))
        object.__setattr__(self, "postconditions", tuple(self.postconditions))
        if not self.skill:
            object.__setattr__(self, "skill", self.name)

    @property
    def identity(self) -> tuple:
        return (self.name, self.params)

    def label(self) -> str:
        """Display form, e.g. ``move_to(delivery)!``."""
        return f"{self.name}({', '.join(str(p) for p in self.params)})!"


@dataclass(frozen=True)
class Goal:
    """Ordered conjunction of conditions the policy must achieve."""

    conditions: tuple
    initially: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "conditions", tuple(self.conditions))
        object.__setattr__(self, "initially", tuple(self.initially))
        if not self.conditions:
            raise ValidationError("goal must contain at least one condition")


@dataclass
class ActionLibrary:
    """Validated action collection indexed by achievable postcondition.

    ``achievers[literal]`` lists the actions that have ``literal`` among
    their postconditions, in declaration order.
    """

    specs: list[ActionSpec]
    achievers: dict[ConditionLiteral, list[ActionSpec]] = field(default_factory=dict)

    def achievers_of(self, literal: ConditionLiteral) -> list[ActionSpec]:
        return self.achievers.get(literal, [])


def validate_action_library(specs) -> ActionLibrary:
    """Check a list of ActionSpecs and build the postcondition index.

    Rejects empty input, duplicate (name, params) identities, actions
    without postconditions, duplicated postconditions within one spec,
    and direct self-loops where an action's precondition could only be
    achieved by the action itself.
    """
    specs = list(specs)
    if not specs:
        raise ValidationError("empty library")

    seen = set()
    for spec in specs:
        if spec.identity in seen:
            raise ValidationError(f"duplicate action {spec.label()}")
        seen.add(spec.identity)
        if not spec.postconditions:
            raise ValidationError(f"{spec.label()} declares no postconditions")
        if len(set(spec.postconditions)) != len(spec.postconditions):
            raise ValidationError(f"{spec.label()} repeats a postcondition")

    index: dict[ConditionLiteral, list[ActionSpec]] = {}
    for spec in specs:
        for literal in spec.postconditions:
            index.setdefault(literal, []).append(spec)

    # A literal that sits in both the pre and post set of one action can only
    # be achieved by running that same action first: a direct self-loop.
    for spec in specs:
        for literal in spec.preconditions:
            if index.get(literal) == [spec]:
                raise ValidationError(
                    f"{spec.label()} requires {literal} which only itself achieves "
                    f"(self-loop on {literal})"
                )

    return ActionLibrary(specs=specs, achievers=index)
