"""Backchaining synthesis of behavior trees and plan extraction.

Starting from the goal, unmet conditions are expanded with the actions
that achieve them, producing a tree of strictly alternating fallback and
sequence nodes. The same walk yields the linear plan handed to the state
machine builders, together with each step's dispatch context: the
conditions achieved earlier in the plan that the step still relies on.
``synthesize`` returns both from one expansion; ``backchain`` and
``extract_plan`` keep one of the two.

Precondition ordering is where chattering is decided. The ``safe``
ordering expands an action's preconditions in plan-execution order so
achieving a later one never invalidates an earlier one; ``naive`` keeps
the declared order, which reproduces the pathological controller where
two navigation goals preempt each other forever.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Optional

from .bt import PolicyTree, TreeBuilder
from .core import ActionLibrary, ActionSpec, ConditionLiteral, Goal, PlanError

log = logging.getLogger(__name__)

DEPTH_LIMIT = 10


@dataclass(frozen=True)
class PlanStep:
    """One executable plan entry.

    ``dispatch_pre`` is the step's context: conditions achieved by
    earlier steps that must still hold for a recovery dispatch to resume
    here. ``achieves`` is the condition the step was expanded for.
    """

    spec: ActionSpec
    dispatch_pre: tuple = ()
    achieves: Optional[ConditionLiteral] = None


@dataclass
class Plan:
    """Ordered ground steps whose execution satisfies the goal."""

    steps: list[PlanStep]
    goal: tuple = ()

    def __len__(self) -> int:
        return len(self.steps)


# ---------------------------------------------------------------------------
# symbolic world model

_FLAG_PREDICATES = ("arm_tucked", "docked", "found")


class _SymbolicState:
    """Idealized postcondition semantics for plan validation.

    The robot is at exactly one place, an item is either held or at one
    station, flags only ever become true.
    """

    def __init__(self, initially=()):
        self.robot_at: Optional[str] = None
        self.holding: set = set()
        self.item_at: dict = {}
        self.flags: set = set()
        for literal in initially:
            self.apply(literal)

    def apply(self, literal: ConditionLiteral) -> None:
        pred, args = literal.predicate, literal.args
        if pred == "robot_at":
            self.robot_at = args[0]
        elif pred == "in_hand":
            self.holding.add(args[0])
            self.item_at.pop(args[0], None)
        elif pred == "object_at":
            item, station = args
            self.item_at[item] = station
            self.holding.discard(item)
        elif pred in _FLAG_PREDICATES:
            self.flags.add(pred)
        # battery_above never appears as a postcondition

    def holds(self, literal: ConditionLiteral) -> bool:
        pred, args = literal.predicate, literal.args
        if pred == "robot_at":
            return self.robot_at == args[0]
        if pred == "in_hand":
            return args[0] in self.holding
        if pred == "object_at":
            return self.item_at.get(args[0]) == args[1]
        if pred in _FLAG_PREDICATES:
            return pred in self.flags
        return False

    def apply_action(self, spec: ActionSpec) -> None:
        for literal in spec.postconditions:
            self.apply(literal)


def _clobbers(post: ConditionLiteral, literal: ConditionLiteral) -> bool:
    """Whether establishing ``post`` can invalidate ``literal``."""
    if post == literal:
        return False
    if post.predicate == "robot_at" and literal.predicate == "robot_at":
        return True
    if post.predicate == "in_hand" and literal.predicate == "object_at":
        return post.args[0] == literal.args[0]
    if post.predicate == "object_at" and literal.predicate == "in_hand":
        return post.args[0] == literal.args[0]
    if post.predicate == "object_at" and literal.predicate == "object_at":
        return post.args[0] == literal.args[0]
    return False


# ---------------------------------------------------------------------------
# expansion walker


class _Expansion:
    def __init__(self, goal: Goal, library: ActionLibrary, ordering: str):
        if ordering not in ("safe", "naive"):
            raise PlanError(f"unknown ordering {ordering!r}")
        self.goal = goal
        self.library = library
        self.ordering = ordering
        self.builder = TreeBuilder()
        self.steps: list[PlanStep] = []
        self.links: list[tuple] = []  # (achiever index, consumer index, literal)
        #: action identity -> (condition it was expanded for, plan index)
        self.expanded: dict[tuple, tuple] = {}
        self.stack: list[tuple] = []

    # -- dependency analysis -------------------------------------------------

    def _post_closure(self, literal: ConditionLiteral, guard=frozenset()) -> frozenset:
        """All postconditions reachable while achieving ``literal``."""
        achievers = self.library.achievers_of(literal)
        if not achievers:
            return frozenset()
        spec = achievers[0]
        if spec.identity in guard:
            return frozenset()
        posts = set(spec.postconditions)
        for pre in spec.preconditions:
            posts |= self._post_closure(pre, guard | {spec.identity})
        return frozenset(posts)

    def _order_preconditions(self, spec: ActionSpec) -> list[ConditionLiteral]:
        if self.ordering == "naive" or len(spec.preconditions) < 2:
            return list(spec.preconditions)
        # Topological order: achieving b must come before a whenever b's
        # expansion would knock out an already-established a.
        pres = list(spec.preconditions)
        closures = {lit: self._post_closure(lit) for lit in pres}
        after: dict[ConditionLiteral, set] = {lit: set() for lit in pres}
        for a in pres:
            for b in pres:
                if a is b:
                    continue
                if any(_clobbers(post, a) for post in closures[b]):
                    after[a].add(b)  # a must wait until after b
        ordered: list[ConditionLiteral] = []
        remaining = list(pres)
        while remaining:
            ready = [lit for lit in remaining
                     if not (after[lit] & set(remaining))]
            if not ready:
                names = ", ".join(str(lit) for lit in remaining)
                raise PlanError(f"no consistent precondition order among: {names}")
            ordered.append(ready[0])
            remaining.remove(ready[0])
        return ordered

    # -- recursive expansion ---------------------------------------------------

    def expand_condition(self, literal: ConditionLiteral, depth: int,
                         on_plan: bool) -> tuple[int, Optional[int]]:
        """Expand one condition; returns (tree node id, achiever plan index)."""
        if depth > DEPTH_LIMIT:
            raise PlanError(f"expansion of {literal} exceeds depth limit {DEPTH_LIMIT}")
        achievers = self.library.achievers_of(literal)
        condition_id = self.builder.condition(literal)
        if not achievers:
            if literal not in self.goal.initially:
                raise PlanError(f"unachievable condition {literal}")
            fallback = self.builder.add("fallback", f"{literal.key()}?",
                                        children=[condition_id])
            return fallback, None

        children = [condition_id]
        achiever_index: Optional[int] = None
        for position, spec in enumerate(achievers):
            primary = position == 0
            prior = self.expanded.get(spec.identity)
            if prior is not None and prior[0] != literal:
                # The action was already expanded to achieve another of its
                # postconditions; re-expanding it here would duplicate the
                # subtree, so this occurrence keeps the condition check only.
                log.warning(
                    "condition %s is a side effect of already expanded %s; "
                    "keeping a reference check only", literal, spec.label(),
                )
                if primary:
                    achiever_index = prior[1]
                continue
            subtree, index = self.expand_action(spec, literal, depth,
                                                on_plan and primary)
            children.append(subtree)
            if primary:
                achiever_index = index
        fallback = self.builder.add("fallback", f"{literal.key()}?", children=children)
        return fallback, achiever_index

    def expand_action(self, spec: ActionSpec, purpose: ConditionLiteral,
                      depth: int, on_plan: bool) -> tuple[int, Optional[int]]:
        if spec.identity in self.stack:
            raise PlanError(f"expansion cycle through {spec.label()}")
        self.stack.append(spec.identity)
        try:
            ordered = self._order_preconditions(spec)
            expansions = []
            pre_links = []
            for pre in ordered:
                node, achiever = self.expand_condition(pre, depth + 1, on_plan)
                expansions.append(node)
                pre_links.append((achiever, pre))
            action_node = self.builder.action(spec.skill, spec.params,
                                              name=spec.label())
            index: Optional[int] = None
            if on_plan:
                index = len(self.steps)
                self.steps.append(PlanStep(spec=spec, achieves=purpose))
                self.expanded[spec.identity] = (purpose, index)
                for achiever, pre in pre_links:
                    if achiever is not None:
                        self.links.append((achiever, index, pre))
            else:
                self.expanded.setdefault(spec.identity, (purpose, None))
            if expansions:
                subtree = self.builder.add(
                    "sequence", spec.label(), children=expansions + [action_node]
                )
            else:
                subtree = action_node
            return subtree, index
        finally:
            self.stack.pop()

    def run(self) -> tuple[PolicyTree, Plan]:
        roots = []
        for literal in self.goal.conditions:
            node, achiever = self.expand_condition(literal, 0, on_plan=True)
            roots.append(node)
            if achiever is not None:
                self.links.append((achiever, None, literal))  # consumed by the goal
        if len(roots) == 1:
            root = roots[0]
        else:
            root = self.builder.add("sequence", "goal", children=roots)
        tree = self.builder.build(root)

        steps = self._steps_with_context()
        plan = Plan(steps=steps, goal=tuple(self.goal.conditions))
        if self.ordering == "safe":
            self._validate(plan)
        return tree, plan

    def _steps_with_context(self) -> list[PlanStep]:
        out = []
        for index, step in enumerate(self.steps):
            # a goal link (consumer None) crosses every later position
            context = []
            for achiever, consumer, literal in self.links:
                crosses = achiever < index and (consumer is None or index <= consumer)
                if crosses and literal not in context:
                    context.append(literal)
            out.append(PlanStep(spec=step.spec, dispatch_pre=tuple(context),
                                achieves=step.achieves))
        return out

    def _validate(self, plan: Plan) -> None:
        state = _SymbolicState(self.goal.initially)
        for step in plan.steps:
            for pre in step.spec.preconditions:
                if not state.holds(pre) and self.library.achievers_of(pre):
                    raise PlanError(
                        f"plan invalid: {pre} does not hold before {step.spec.label()}"
                    )
            state.apply_action(step.spec)
        for literal in plan.goal:
            if not state.holds(literal) and self.library.achievers_of(literal):
                raise PlanError(f"plan leaves goal condition {literal} unmet")


# ---------------------------------------------------------------------------
# public operations


def synthesize(goal: Goal, library: ActionLibrary,
               ordering: str = "safe") -> tuple[PolicyTree, Plan]:
    """The behavior tree achieving ``goal`` and its plan, from one expansion.

    The plan is the tree's left-to-right action sequence; under the
    ``safe`` ordering it is also validated against the symbolic world.
    """
    return _Expansion(goal, library, ordering).run()


def backchain(goal: Goal, library: ActionLibrary, ordering: str = "safe") -> PolicyTree:
    """Synthesize a behavior tree that achieves ``goal``."""
    return synthesize(goal, library, ordering)[0]


def extract_plan(goal: Goal, library: ActionLibrary) -> Plan:
    """Left-to-right action sequence of the safely ordered tree.

    This is the sequence handed to the state machine builders so that
    tree and machine encode the same task. Alternative achievers stay
    out of the plan; they are attached to machines as explicit
    alternative states instead.
    """
    return synthesize(goal, library)[1]
