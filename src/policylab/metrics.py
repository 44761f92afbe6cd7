"""Graph encodings and every quantitative structure measure.

All three policy kinds encode into one labeled directed multigraph type,
the substrate for graph edit distance, cyclomatic complexity and element
counting. The exact edit distance is a best-first search over partial
vertex mappings with an admissible bound, started from the anchored
mapping (identity on shared ids) as its incumbent; an incomplete result
returns the best mapping's cost, at worst the incumbent's, as an upper
bound. A tiny exhaustive solver serves as its ground-truth oracle on
small graphs.
"""

from __future__ import annotations

import heapq
import itertools
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from . import bt, fsm, hfsm
from .core import Status, ValidationError

DEFAULT_GED_BUDGET = 60.0
BRUTE_FORCE_LIMIT = 7

#: shared sink ids for the nested-machine encoding, stable across graphs
OUTCOME_SINKS = {Status.SUCCESS: -1, Status.FAILURE: -2, Status.RUNNING: -3}


@dataclass(frozen=True)
class PolicyGraph:
    """Labeled directed multigraph; self-loops allowed."""

    vertices: dict
    edges: frozenset
    sinks: frozenset = frozenset()
    kind: str = ""

    def __post_init__(self):
        object.__setattr__(self, "vertices", dict(self.vertices))
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "sinks", frozenset(self.sinks))
        for source, target, _ in self.edges:
            if source not in self.vertices or target not in self.vertices:
                raise ValidationError(f"edge ({source}, {target}) references missing vertex")

    def order(self) -> int:
        return len(self.vertices)

    def size(self) -> int:
        return len(self.edges)


# ---------------------------------------------------------------------------
# encoders


def bt_to_graph(tree: bt.PolicyTree) -> PolicyGraph:
    """One vertex per node, one parent-to-child edge per link."""
    vertices = {nid: f"{node.kind}:{node.name}" for nid, node in tree.nodes.items()}
    edges = set()
    leaves = set()
    for nid, node in tree.nodes.items():
        if node.children:
            for child in node.children:
                edges.add((nid, child, "child"))
        else:
            leaves.add(nid)
    return PolicyGraph(vertices=vertices, edges=edges, sinks=leaves, kind="bt")


def fsm_to_graph(machine: fsm.StateMachine) -> PolicyGraph:
    """States and outcomes as vertices, every drawn transition as an edge."""
    vertices = {sid: f"{state.kind}:{state.name}"
                for sid, state in machine.states.items()}
    edges = set(fsm.iter_edges(machine))
    return PolicyGraph(vertices=vertices, edges=edges,
                       sinks=machine.outcome_ids(), kind="fsm")


def hfsm_to_graph(machine: hfsm.HfsmContainer) -> PolicyGraph:
    """Node-local encoding of the nested machine.

    Each node contributes its own status exits as edges to three shared
    outcome sinks (conditions have no RUNNING exit) and containers add
    one entry edge to their first child; entry pseudo-states and
    internal return statuses are not materialized. Edits to one node
    therefore touch only its own vertex and edges, which is what makes
    the closed-form distance of this encoding exact.
    """
    vertices = {}
    edges = set()
    for status, sink in OUTCOME_SINKS.items():
        vertices[sink] = f"outcome:{status.value}"
    for node in machine.walk():
        if node.kind in hfsm.CONTAINER_KINDS:
            role = "control"
        else:
            role = node.kind
        vertices[node.id] = f"{role}:{node.name}"
        edges.add((node.id, OUTCOME_SINKS[Status.SUCCESS], "SUCCESS"))
        edges.add((node.id, OUTCOME_SINKS[Status.FAILURE], "FAILURE"))
        if node.kind != "condition":
            edges.add((node.id, OUTCOME_SINKS[Status.RUNNING], "RUNNING"))
        if node.kind in hfsm.CONTAINER_KINDS:
            edges.add((node.id, node.children[0].id, "enter"))
    return PolicyGraph(vertices=vertices, edges=edges,
                       sinks=frozenset(OUTCOME_SINKS.values()), kind="hfsm")


# ---------------------------------------------------------------------------
# cost model and edit scripts


@dataclass(frozen=True)
class GedCostModel:
    """Unit insert/delete, free substitution by default.

    This is the model under which the reference distances of all the
    modification case studies reproduce; set the substitution costs to
    make matching label sensitive.
    """

    node_insert: float = 1.0
    node_delete: float = 1.0
    node_substitute: float = 0.0
    edge_insert: float = 1.0
    edge_delete: float = 1.0
    edge_substitute: float = 0.0

    def __post_init__(self):
        for name in ("node_insert", "node_delete", "node_substitute",
                     "edge_insert", "edge_delete", "edge_substitute"):
            if getattr(self, name) < 0:
                raise ValidationError(f"{name} must be non-negative")

    def vertex_cost(self, label1: Optional[str], label2: Optional[str]) -> float:
        if label1 is None:
            return self.node_insert
        if label2 is None:
            return self.node_delete
        return 0.0 if label1 == label2 else self.node_substitute

    def edge_group_cost(self, labels1, labels2) -> float:
        """Cost of reconciling parallel edges between one mapped pair.

        Each side lists distinct labels: an edge set holds a (source,
        target, label) triple at most once.
        """
        matched = len(set(labels1).intersection(labels2))
        rest1 = len(labels1) - matched
        rest2 = len(labels2) - matched
        substitutions = min(rest1, rest2)
        return (substitutions * self.edge_substitute
                + (rest1 - substitutions) * self.edge_delete
                + (rest2 - substitutions) * self.edge_insert)


LABEL_SENSITIVE = GedCostModel(node_substitute=1.0, edge_substitute=1.0)


@dataclass
class EditScript:
    """Vertex/edge operations turning one graph into another."""

    ops: list = field(default_factory=list)
    cost: float = 0.0

    @property
    def n_star(self) -> int:
        """Number of vertex modifications in the script."""
        return sum(op[0] in ("delete_vertex", "insert_vertex", "substitute_vertex")
                   for op in self.ops)


@dataclass
class GedResult:
    distance: float
    complete: bool
    script: EditScript
    mapping: dict

    def __float__(self) -> float:
        return self.distance


def apply_script(graph: PolicyGraph, script: EditScript) -> PolicyGraph:
    """Replay an edit script; the result should be isomorphic to the target."""
    vertices = dict(graph.vertices)
    edges = set(graph.edges)
    for op in script.ops:
        tag = op[0]
        if tag == "delete_edge":
            edges.discard(op[1:])
        elif tag == "insert_edge":
            edges.add(op[1:])
        elif tag == "substitute_edge":
            _, source, target, old, new = op
            edges.discard((source, target, old))
            edges.add((source, target, new))
        elif tag == "delete_vertex":
            del vertices[op[1]]
        elif tag == "insert_vertex":
            vertices[op[1]] = op[2]
        elif tag == "substitute_vertex":
            vertices[op[1]] = op[2]
        else:
            raise ValidationError(f"unknown edit op {tag!r}")
    return PolicyGraph(vertices=vertices, edges=edges, kind=graph.kind)


def _script_for_mapping(g1: PolicyGraph, g2: PolicyGraph, mapping: dict,
                        cost: GedCostModel) -> EditScript:
    """Edit script induced by a complete vertex mapping (g1 id -> g2 id | None)."""
    ops = []
    total = 0.0
    inverse = {v2: v1 for v1, v2 in mapping.items() if v2 is not None}
    deleted = {v1 for v1, v2 in mapping.items() if v2 is None}
    inserted = [v2 for v2 in g2.vertices if v2 not in inverse]

    # vertex phase
    for v1 in deleted:
        total += cost.node_delete
    for v1, v2 in mapping.items():
        if v2 is not None and g1.vertices[v1] != g2.vertices[v2]:
            ops.append(("substitute_vertex", v1, g2.vertices[v2]))
            total += cost.node_substitute
    fresh = itertools.count(max([*g1.vertices, 0]) + 1)
    new_ids = {v2: next(fresh) for v2 in inserted}
    placed = {v2: new_ids[v2] for v2 in inserted}
    placed.update({v2: v1 for v2, v1 in inverse.items()})

    # edges touching a deleted or inserted vertex
    for source, target, label in sorted(g1.edges):
        if source in deleted or target in deleted:
            ops.append(("delete_edge", source, target, label))
            total += cost.edge_delete
    for source, target, label in sorted(g2.edges):
        if source not in inverse or target not in inverse:
            ops.append(("insert_edge", placed[source], placed[target], label))
            total += cost.edge_insert

    # edges between matched pairs, reconciled per ordered pair
    pairs = {}
    for source, target, label in g1.edges:
        if source not in deleted and target not in deleted:
            pairs.setdefault((source, target), ([], []))[0].append(label)
    for source, target, label in g2.edges:
        if source in inverse and target in inverse:
            pairs.setdefault((inverse[source], inverse[target]), ([], []))[1].append(label)
    for (source, target), (labels1, labels2) in sorted(pairs.items()):
        rest1 = sorted(set(labels1).difference(labels2))
        rest2 = sorted(set(labels2).difference(labels1))
        while rest1 and rest2:
            old, new = rest1.pop(), rest2.pop()
            ops.append(("substitute_edge", source, target, old, new))
            total += cost.edge_substitute
        for label in rest1:
            ops.append(("delete_edge", source, target, label))
            total += cost.edge_delete
        for label in rest2:
            ops.append(("insert_edge", source, target, label))
            total += cost.edge_insert

    # vertex deletions go after their incident edge deletions
    for v1 in sorted(deleted):
        ops.append(("delete_vertex", v1))
    for v2 in inserted:
        ops.insert(0, ("insert_vertex", new_ids[v2], g2.vertices[v2]))
        total += cost.node_insert
    return EditScript(ops=ops, cost=total)


# ---------------------------------------------------------------------------
# exact search


def ged_exact(g1: PolicyGraph, g2: PolicyGraph,
              cost: Optional[GedCostModel] = None,
              budget: float = DEFAULT_GED_BUDGET) -> GedResult:
    """Optimal edit distance via best-first search over vertex mappings.

    The search starts from the anchored incumbent, the identity mapping
    on shared ids costed under ``cost``, and expands only nodes whose
    admissible bound (the vertex count difference plus the
    not-yet-reconciled edge count difference) stays below the best cost
    known. When the root bound meets the incumbent, the incumbent is
    proven optimal without any expansion. When the time budget runs out
    the best mapping known, at worst the incumbent, is returned with its
    cost as an upper bound and ``complete`` set to False; the result is
    never silently wrong.
    """
    cost = cost or GedCostModel()
    deadline = time.monotonic() + budget

    degree = _degrees(g1)
    order = sorted(g1.vertices, key=lambda v: (-degree[v], v))
    g2_ids = sorted(g2.vertices)
    n1 = len(order)

    # edges indexed by ordered endpoint pair for fast incremental costs
    pair_labels1 = _pair_index(g1)
    pair_labels2 = _pair_index(g2)
    total_e1 = len(g1.edges)
    total_e2 = len(g2.edges)

    def heuristic(index: int, used: frozenset, settled_e1: int, settled_e2: int) -> float:
        rem1 = n1 - index
        rem2 = len(g2_ids) - len(used)
        if rem1 > rem2:
            vertex_bound = (rem1 - rem2) * cost.node_delete
        else:
            vertex_bound = (rem2 - rem1) * cost.node_insert
        open_e1 = total_e1 - settled_e1
        open_e2 = total_e2 - settled_e2
        if open_e1 > open_e2:
            edge_bound = (open_e1 - open_e2) * cost.edge_delete
        else:
            edge_bound = (open_e2 - open_e1) * cost.edge_insert
        return vertex_bound + edge_bound

    def assignment_cost(index: int, candidate, assigned: tuple) -> tuple:
        """(incremental cost, g1 edges settled, g2 edges settled)."""
        v1 = order[index]
        label2 = g2.vertices[candidate] if candidate is not None else None
        increment = cost.vertex_cost(g1.vertices[v1], label2)
        settled1 = 0
        settled2 = 0
        loops1 = pair_labels1.get((v1, v1), ())
        settled1 += len(loops1)
        if candidate is not None:
            loops2 = pair_labels2.get((candidate, candidate), ())
            settled2 += len(loops2)
            increment += cost.edge_group_cost(loops1, loops2)
        else:
            increment += len(loops1) * cost.edge_delete
        for j in range(index):
            other1 = order[j]
            other2 = assigned[j]
            for source1, target1, source2, target2 in (
                (v1, other1, candidate, other2),
                (other1, v1, other2, candidate),
            ):
                labels1 = pair_labels1.get((source1, target1), ())
                settled1 += len(labels1)
                if candidate is not None and other2 is not None:
                    labels2 = pair_labels2.get((source2, target2), ())
                    settled2 += len(labels2)
                    increment += cost.edge_group_cost(labels1, labels2)
                else:
                    increment += len(labels1) * cost.edge_delete
        return increment, settled1, settled2

    def finish_cost(used: frozenset) -> float:
        unused = [v for v in g2_ids if v not in used]
        extra = len(unused) * cost.node_insert
        unused_set = set(unused)
        dangling = sum(1 for s, t, _ in g2.edges if s in unused_set or t in unused_set)
        return extra + dangling * cost.edge_insert

    best_mapping = {v: v if v in g2.vertices else None for v in g1.vertices}
    script = _script_for_mapping(g1, g2, best_mapping, cost)
    best_cost = script.cost
    complete = True

    root_h = heuristic(0, frozenset(), 0, 0)
    counter = itertools.count()
    heap = [(root_h, 0, next(counter), 0.0, 0, (), frozenset(), 0, 0)]
    while heap:
        f, neg_depth, _, g_cost, index, assigned, used, settled1, settled2 = heapq.heappop(heap)
        if f >= best_cost:
            break
        if index == n1:
            total = g_cost + finish_cost(used)
            if total < best_cost:
                best_cost = total
                best_mapping = dict(zip(order, assigned))
                script = None
            continue
        if time.monotonic() > deadline:
            complete = False
            break

        candidates: list = [c for c in g2_ids if c not in used]
        candidates.append(None)
        scored = []
        for candidate in candidates:
            increment, ds1, ds2 = assignment_cost(index, candidate, assigned)
            new_g = g_cost + increment
            new_used = used | {candidate} if candidate is not None else used
            h = heuristic(index + 1, new_used, settled1 + ds1, settled2 + ds2)
            if new_g + h < best_cost:
                scored.append((new_g + h, candidate, new_g, new_used,
                               settled1 + ds1, settled2 + ds2))
        scored.sort(key=lambda item: (item[0], item[1] is None))
        for new_f, candidate, new_g, new_used, ns1, ns2 in scored:
            heapq.heappush(heap, (
                new_f, -(index + 1), next(counter), new_g, index + 1,
                assigned + (candidate,), new_used, ns1, ns2,
            ))

    if script is None:  # the search replaced the seed mapping
        script = _script_for_mapping(g1, g2, best_mapping, cost)
    return GedResult(distance=best_cost, complete=complete, script=script,
                     mapping=best_mapping)


def _degrees(graph: PolicyGraph) -> Counter:
    """Edges incident to each vertex; a self-loop counts once."""
    degree: Counter = Counter()
    for source, target, _ in graph.edges:
        degree[source] += 1
        if target != source:
            degree[target] += 1
    return degree


def _pair_index(graph: PolicyGraph) -> dict:
    index: dict = {}
    for source, target, label in graph.edges:
        index.setdefault((source, target), []).append(label)
    return index


# ---------------------------------------------------------------------------
# anchored mode


def ged_anchored(g1: PolicyGraph, g2: PolicyGraph,
                 anchor: Optional[dict] = None,
                 cost: Optional[GedCostModel] = None) -> GedResult:
    """Edit cost under a fixed identity correspondence on shared ids.

    An upper bound on the exact distance; this is what scales to large
    machines where optimal search is pointless because element identity
    is already known.
    """
    cost = cost or GedCostModel()
    if anchor is None:
        anchor = {v: v for v in g1.vertices if v in g2.vertices}
    targets = [t for t in anchor.values() if t is not None]
    if len(set(targets)) != len(targets):
        raise ValidationError("anchor maps two ids to one target")
    for v1, v2 in anchor.items():
        if v1 not in g1.vertices or (v2 is not None and v2 not in g2.vertices):
            raise ValidationError(f"anchor pair ({v1}, {v2}) references missing vertex")
    mapping = {v: anchor.get(v) for v in g1.vertices}
    script = _script_for_mapping(g1, g2, mapping, cost)
    return GedResult(distance=script.cost, complete=True, script=script,
                     mapping=mapping)


# ---------------------------------------------------------------------------
# exhaustive oracle


def brute_force_ged(g1: PolicyGraph, g2: PolicyGraph,
                    cost: Optional[GedCostModel] = None) -> float:
    """Ground truth on tiny graphs by enumerating injective mappings.

    Independent of the best-first solver: plain recursion over every
    map-or-delete choice, pruned only by the incumbent.
    """
    cost = cost or GedCostModel()
    if g1.order() > BRUTE_FORCE_LIMIT or g2.order() > BRUTE_FORCE_LIMIT:
        raise ValidationError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} vertices per graph"
        )
    order1 = sorted(g1.vertices)
    ids2 = sorted(g2.vertices)
    pair1 = _pair_index(g1)
    pair2 = _pair_index(g2)
    best = [float("inf")]

    def edge_cost_between(v1, c, chosen) -> float:
        subtotal = 0.0
        loops1 = pair1.get((v1, v1), ())
        if c is not None:
            subtotal += cost.edge_group_cost(loops1, pair2.get((c, c), ()))
        else:
            subtotal += len(loops1) * cost.edge_delete
        for w1, w2 in chosen:
            for a1, b1, a2, b2 in ((v1, w1, c, w2), (w1, v1, w2, c)):
                labels1 = pair1.get((a1, b1), ())
                if c is not None and w2 is not None:
                    subtotal += cost.edge_group_cost(labels1, pair2.get((a2, b2), ()))
                else:
                    subtotal += len(labels1) * cost.edge_delete
        return subtotal

    def recurse(index: int, chosen: list, running: float) -> None:
        if running >= best[0]:
            return
        if index == len(order1):
            used = {w2 for _, w2 in chosen if w2 is not None}
            total = running
            for v2 in ids2:
                if v2 not in used:
                    total += cost.node_insert
            covered = {(a2, b2) for _, a2 in chosen for _, b2 in chosen}
            for source, target, _ in g2.edges:
                if (source, target) not in covered:
                    total += cost.edge_insert
            best[0] = min(best[0], total)
            return
        v1 = order1[index]
        used = {w2 for _, w2 in chosen if w2 is not None}
        for candidate in ids2 + [None]:
            if candidate is not None and candidate in used:
                continue
            label2 = g2.vertices[candidate] if candidate is not None else None
            increment = cost.vertex_cost(g1.vertices[v1], label2)
            increment += edge_cost_between(v1, candidate, chosen)
            recurse(index + 1, chosen + [(v1, candidate)], running + increment)

    recurse(0, [], 0.0)
    return best[0]


# ---------------------------------------------------------------------------
# isomorphism (for validating edit scripts)


def isomorphic(g1: PolicyGraph, g2: PolicyGraph) -> bool:
    """Label- and structure-preserving isomorphism by backtracking."""
    if g1.order() != g2.order() or g1.size() != g2.size():
        return False
    if Counter(g1.vertices.values()) != Counter(g2.vertices.values()):
        return False
    pair1 = {k: Counter(v) for k, v in _pair_index(g1).items()}
    pair2 = {k: Counter(v) for k, v in _pair_index(g2).items()}
    degree = _degrees(g1)
    order1 = sorted(g1.vertices, key=lambda v: (-degree[v], v))
    ids2 = sorted(g2.vertices)

    def consistent(v1, v2, mapping) -> bool:
        if g1.vertices[v1] != g2.vertices[v2]:
            return False
        if pair1.get((v1, v1), Counter()) != pair2.get((v2, v2), Counter()):
            return False
        for w1, w2 in mapping.items():
            if pair1.get((v1, w1), Counter()) != pair2.get((v2, w2), Counter()):
                return False
            if pair1.get((w1, v1), Counter()) != pair2.get((w2, v2), Counter()):
                return False
        return True

    def backtrack(index: int, mapping: dict, used: set) -> bool:
        if index == len(order1):
            return True
        v1 = order1[index]
        for v2 in ids2:
            if v2 in used or not consistent(v1, v2, mapping):
                continue
            mapping[v1] = v2
            used.add(v2)
            if backtrack(index + 1, mapping, used):
                return True
            del mapping[v1]
            used.discard(v2)
        return False

    return backtrack(0, {}, set())


# ---------------------------------------------------------------------------
# scalar metrics


def cyclomatic(graph: PolicyGraph) -> int:
    """Arcs plus sinks minus nodes plus one.

    Tree graphs follow the single-exit convention (one sink regardless
    of leaf count), which pins their value at 1.
    """
    sinks = 1 if graph.kind == "bt" else len(graph.sinks)
    return graph.size() + sinks - graph.order() + 1


def ged_hfsm_formula(delta_conditions: int, delta_actions: int,
                     delta_controls: int) -> int:
    """Closed-form distance between nested machines from node-count deltas.

    Per-node coefficients are each node's footprint in the graph
    encoding: a condition is a vertex plus two exits, an action a vertex
    plus three, a control node a vertex plus four.
    """
    for value in (delta_conditions, delta_actions, delta_controls):
        if value < 0:
            raise ValidationError("node-count deltas must be non-negative")
    return 3 * delta_conditions + 4 * delta_actions + 5 * delta_controls


def effort(sequential_states: int, connected_states: int) -> int:
    """Operations to make a plain sequential machine fault tolerant."""
    if sequential_states < 0 or connected_states < 0:
        raise ValidationError("state counts must be non-negative")
    m_s, m_fc = sequential_states, connected_states
    return 3 * (m_s + 1) + m_fc * ((m_s + m_fc - 1) + 3)


def effort_m(total_states: int, connected_states: int) -> int:
    """Same effort expressed over the total state count."""
    if connected_states > total_states or connected_states < 0:
        raise ValidationError("connected states cannot exceed the total")
    return 3 * (total_states + 1) + connected_states * (total_states - 1)


@dataclass(frozen=True)
class StructureCounts:
    """Closed-form element accounting for a fault-tolerant machine."""

    actions: int
    connected: int = 0

    def __post_init__(self):
        if self.connected > self.actions or self.actions < 0 or self.connected < 0:
            raise ValidationError("invalid state counts")

    @property
    def t_fc(self) -> int:
        return self.connected * (self.actions - 1)

    @property
    def n(self) -> int:
        return self.actions + 1  # skill states plus the selector

    @property
    def t(self) -> int:
        return 4 * self.actions + 2

    @property
    def s(self) -> int:
        return 5 * self.actions + 4 + self.t_fc


def formula_estimates(kind: str, actions: int, connected: int = 0) -> dict:
    """Rule-of-thumb element counts as a function of the action count.

    These are approximations (the machine estimate can be off by one on
    real structures); exact numbers come from counting a built policy.
    """
    if actions < 0 or connected < 0:
        raise ValidationError("counts must be non-negative")
    if kind == "bt":
        return {"graphical": 7 * actions - 1, "active": 3.5 * actions}
    if kind == "fsm":
        counts = StructureCounts(actions=actions, connected=connected)
        return {"graphical": counts.s, "active": counts.s}
    if kind == "hfsm":
        return {"graphical": 36 * actions - 3, "active": 29 * actions - 3}
    raise ValidationError(f"unknown policy kind {kind!r}")


def fully_connected_elements(states: int) -> int:
    """Element count of the alternative everything-to-everything design."""
    if states < 0:
        raise ValidationError("state count must be non-negative")
    return states * (states - 1)
