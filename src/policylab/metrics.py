"""Graph encodings and every quantitative structure measure.

All three policy kinds encode into one labeled directed multigraph type,
the substrate for graph edit distance, cyclomatic complexity and element
counting. The exact edit distance is a best-first search over partial
vertex mappings, started from the anchored mapping (identity on shared
ids) as its incumbent. Its admissible bound prices the unreconciled
edges per placed vertex (those to unplaced vertices, which only its
image's can match) and among the unplaced vertices. The root bound,
counts alone, is checked against the incumbent before any set-up; only
a pair it does not prove gets its edges indexed into neighbour lists,
from which each search step is costed sparsely. An incomplete result
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

    def vertex_cost(self, label1: str, label2: Optional[str]) -> float:
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
    """Edit script induced by a complete vertex mapping (g1 id -> g2 id | None).

    Edges between matched vertices are compared as sets in g1 ids, so only
    the triples on one side and not the other are sorted and grouped.
    """
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

    # split each side's edges once: those touching a deleted or inserted
    # vertex, and the rest as a set in g1 ids (all of g1's if none is deleted)
    lost1, kept1 = [], g1.edges
    if deleted:
        kept1 = set()
        for edge in g1.edges:
            if edge[0] in deleted or edge[1] in deleted:
                lost1.append(edge)
            else:
                kept1.add(edge)
    new2, kept2 = [], set()
    for source, target, label in g2.edges:
        if source in inverse and target in inverse:
            kept2.add((inverse[source], inverse[target], label))
        else:
            new2.append((source, target, label))

    for source, target, label in sorted(lost1):
        ops.append(("delete_edge", source, target, label))
        total += cost.edge_delete
    for source, target, label in sorted(new2):
        ops.append(("insert_edge", placed[source], placed[target], label))
        total += cost.edge_insert

    # edges between matched pairs: only the unmatched triples, per ordered pair
    pairs = {}
    for source, target, label in kept1 - kept2:
        pairs.setdefault((source, target), ([], []))[0].append(label)
    for source, target, label in kept2 - kept1:
        pairs.setdefault((source, target), ([], []))[1].append(label)
    for (source, target), (rest1, rest2) in sorted(pairs.items()):
        rest1.sort()
        rest2.sort()
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
    admissible bound stays below the best cost known. The bound is the
    vertex count difference plus an edge term over the edges not yet
    reconciled. A cross edge, with one placed endpoint, can only match a
    cross edge in the same direction at that vertex's image, and an
    inner edge, with no placed endpoint, only another inner edge. So
    each mapped vertex adds its out and in count differences against its
    image, each deleted vertex the deletion of its cross edges, and the
    inner edges their count difference. Nothing is placed at the root,
    where the bound needs only the vertex and edge counts, so it is
    checked before any set-up: when it meets the incumbent, the
    incumbent is returned as proven optimal without building an index.
    Otherwise the edges are indexed once, in time linear in their
    number, into neighbour lists, and each step costs a candidate, and
    the cross counts it changes, from the edges it shares with vertices
    already placed, on either side, rather than from every placed pair.
    When the time budget runs out the best mapping known, at worst the
    incumbent, is returned with its cost as an upper bound and
    ``complete`` set to False; the result is never silently wrong.
    """
    cost = cost or GedCostModel()
    deadline = time.monotonic() + budget
    edge_delete, edge_insert = cost.edge_delete, cost.edge_insert

    best_mapping = {v: v if v in g2.vertices else None for v in g1.vertices}
    script = _script_for_mapping(g1, g2, best_mapping, cost)
    best_cost = script.cost
    n1, n2 = len(g1.vertices), len(g2.vertices)
    total_e1, total_e2 = len(g1.edges), len(g2.edges)

    def vertex_gap(rem1: int, rem2: int) -> float:
        if rem1 > rem2:
            return (rem1 - rem2) * cost.node_delete
        return (rem2 - rem1) * cost.node_insert

    def gap(open1: int, open2: int) -> float:
        """Least cost of reconciling two edge counts that pair up only
        with each other: the excess is deleted or inserted."""
        if open1 > open2:
            return (open1 - open2) * edge_delete
        return (open2 - open1) * edge_insert

    # nothing is placed at the root, so every edge is inner
    root_h = vertex_gap(n1, n2) + gap(total_e1, total_e2)
    if root_h >= best_cost:
        return GedResult(distance=best_cost, complete=True, script=script,
                         mapping=best_mapping)

    degree = _degrees(g1)
    order = sorted(g1.vertices, key=lambda v: (-degree[v], v))
    position = {v: i for i, v in enumerate(order)}
    g2_ids = sorted(g2.vertices)
    loops1, neighbours1 = _neighbours(g1)
    loops2, neighbours2 = _neighbours(g2)
    # per position: the earlier positions it shares an edge with, and the
    # cost of deleting its vertex with every g1 edge that settles; per
    # depth: the g1 cross counts, out and in for each placed position in
    # turn, and the inner count
    earlier1, deleting = [], []
    cross1, inner1 = [()], [total_e1]
    for i, v in enumerate(order):
        earlier = {}
        counts = list(cross1[i])
        settled = len(loops1.get(v, ()))
        out = into = 0
        for w, (to_w, from_w) in neighbours1[v].items():
            j = position[w]
            if j < i:
                earlier[j] = to_w, from_w
                counts[2 * j] -= len(from_w)
                counts[2 * j + 1] -= len(to_w)
                settled += len(to_w) + len(from_w)
            else:
                out += len(to_w)
                into += len(from_w)
        earlier1.append(earlier)
        deleting.append(cost.vertex_cost(g1.vertices[v], None) + settled * edge_delete)
        cross1.append((*counts, out, into))
        inner1.append(inner1[i] - len(loops1.get(v, ())) - out - into)

    def group_cost(labels1, labels2) -> float:
        if labels1 and labels2:
            return cost.edge_group_cost(labels1, labels2)
        return len(labels1) * edge_delete + len(labels2) * edge_insert

    def assignment_cost(index: int, candidate, assigned: tuple, placed: dict,
                        cross2: tuple) -> tuple:
        """(incremental cost, bound change, changed counts, out2, in2).

        ``placed`` maps g2 ids to positions and ``cross2`` holds their g2
        cross counts. The candidate's edges to placed vertices leave those
        counts, which changes their bound terms (against the g1 counts
        once ``index`` is placed); its edges to unplaced vertices become
        its own cross counts, out2 and in2.
        """
        v1 = order[index]
        increment = cost.vertex_cost(g1.vertices[v1], g2.vertices[candidate])
        increment += group_cost(loops1.get(v1, ()), loops2.get(candidate, ()))
        earlier = earlier1[index]
        around = neighbours2[candidate]
        for j, (out1, into1) in earlier.items():
            labels2 = around.get(assigned[j])  # None: deleted, or no edge in g2
            if labels2 is None:
                increment += (len(out1) + len(into1)) * edge_delete
            else:
                increment += group_cost(out1, labels2[0]) + group_cost(into1, labels2[1])
        counts1 = cross1[index + 1]
        change = 0.0
        changed = []
        out2 = in2 = 0
        for other2, (to_other, from_other) in around.items():
            j = placed.get(other2)
            if j is None:
                out2 += len(to_other)
                in2 += len(from_other)
                continue
            if j not in earlier:
                increment += (len(to_other) + len(from_other)) * edge_insert
            # other2 -> candidate leaves j's out count, candidate -> other2 its in count
            for slot, settled in ((2 * j, len(from_other)), (2 * j + 1, len(to_other))):
                if settled:
                    was = cross2[slot]
                    change += gap(counts1[slot], was - settled) - gap(counts1[slot], was)
                    changed.append((slot, was - settled))
        return increment, change, changed, out2, in2

    complete = True
    counter = itertools.count()
    heap = [(root_h, 0, next(counter), 0.0, (), (), total_e2)]
    while heap:
        f, neg_depth, _, g_cost, assigned, cross2, inner2 = heapq.heappop(heap)
        if f >= best_cost:
            break
        index = -neg_depth
        placed = {v2: j for j, v2 in enumerate(assigned) if v2 is not None}
        if index == n1:
            # g2 vertices left unplaced are inserted with every edge touching them
            total = g_cost + ((n2 - len(placed)) * cost.node_insert
                              + (inner2 + sum(cross2)) * edge_insert)
            if total < best_cost:
                best_cost = total
                best_mapping = dict(zip(order, assigned))
                script = None
            continue
        if time.monotonic() > deadline:
            complete = False
            break

        # the placed positions' terms against the g1 counts once this
        # position is placed; a candidate changes only those it touches
        counts1 = cross1[index + 1]
        out1, in1 = counts1[-2:]
        inner = inner1[index + 1]
        base = sum(map(gap, counts1, cross2))
        rem1, rem2 = n1 - index - 1, n2 - len(placed)
        mapped_h = vertex_gap(rem1, rem2 - 1) + base
        scored = []
        for candidate in g2_ids:
            if candidate in placed:
                continue
            increment, change, changed, out2, in2 = assignment_cost(
                index, candidate, assigned, placed, cross2)
            new_g = g_cost + increment
            new_inner2 = inner2 - len(loops2.get(candidate, ())) - out2 - in2
            new_f = new_g + (mapped_h + change + gap(out1, out2) + gap(in1, in2)
                             + gap(inner, new_inner2))
            if new_f < best_cost:
                scored.append((new_f, candidate, new_g, changed, out2, in2, new_inner2))
        new_g = g_cost + deleting[index]
        new_f = new_g + (vertex_gap(rem1, rem2) + base + (out1 + in1) * edge_delete
                         + gap(inner, inner2))
        if new_f < best_cost:
            scored.append((new_f, None, new_g, (), 0, 0, inner2))
        scored.sort(key=lambda item: item[0])  # stable: ties keep g2 id order, deletion last
        for new_f, candidate, new_g, changed, out2, in2, new_inner2 in scored:
            child = list(cross2)
            for slot, count in changed:
                child[slot] = count
            child += (out2, in2)
            heapq.heappush(heap, (
                new_f, -(index + 1), next(counter), new_g,
                assigned + (candidate,), tuple(child), new_inner2,
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


def _neighbours(graph: PolicyGraph) -> tuple:
    """Self-loop labels per vertex, and per vertex ``v`` a map from each
    other vertex ``w`` it shares an edge with to (labels v->w, labels w->v)."""
    loops: dict = {}
    neighbours: dict = {v: {} for v in graph.vertices}
    for (source, target), labels in _pair_index(graph).items():
        if source == target:
            loops[source] = labels
            continue
        _, into = neighbours[source].get(target, ((), ()))
        neighbours[source][target] = (labels, into)
        out, _ = neighbours[target].get(source, ((), ()))
        neighbours[target][source] = (out, labels)
    return loops, neighbours


# ---------------------------------------------------------------------------
# anchored mode


def ged_anchored(g1: PolicyGraph, g2: PolicyGraph,
                 cost: Optional[GedCostModel] = None) -> GedResult:
    """Edit cost under the identity correspondence on shared ids.

    An upper bound on the exact distance; this is what scales to large
    machines where optimal search is pointless because element identity
    is already known.
    """
    cost = cost or GedCostModel()
    mapping = {v: v if v in g2.vertices else None for v in g1.vertices}
    script = _script_for_mapping(g1, g2, mapping, cost)
    return GedResult(distance=script.cost, complete=True, script=script,
                     mapping=mapping)


# ---------------------------------------------------------------------------
# exhaustive oracle


def _label_sets(graph: PolicyGraph) -> dict:
    """(source, target) -> the frozenset of labels on its edges.

    The oracle's and the isomorphism checker's own index, so that neither
    shares code with the search it checks.
    """
    pairs: dict = {}
    for source, target, label in graph.edges:
        pairs[source, target] = pairs.get((source, target), frozenset()) | {label}
    return pairs


def brute_force_ged(g1: PolicyGraph, g2: PolicyGraph,
                    cost: Optional[GedCostModel] = None) -> float:
    """Ground truth on tiny graphs by enumerating injective mappings.

    Independent of the best-first solver: plain recursion over every
    map-or-delete choice, pruned only by the incumbent, with its own
    vertex and edge costing on the label sets of ``_label_sets``. The
    costs of every vertex and vertex-pair choice are tabled before the
    recursion starts.
    """
    cost = cost or GedCostModel()
    if g1.order() > BRUTE_FORCE_LIMIT or g2.order() > BRUTE_FORCE_LIMIT:
        raise ValidationError(
            f"brute force limited to {BRUTE_FORCE_LIMIT} vertices per graph"
        )
    order1 = sorted(g1.vertices)
    ids2 = sorted(g2.vertices)
    pair1 = _label_sets(g1)
    pair2 = _label_sets(g2)
    none = frozenset()
    targets = ids2 + [None]  # candidate k is g2 vertex ids2[k], or deletion at the end
    deleted = len(ids2)

    def labels_cost(labels1: frozenset, labels2: frozenset) -> float:
        """Labels on one side only pair up as substitutions, the rest are
        deleted or inserted; a deleted vertex (None) has no labels."""
        if labels1 == labels2:
            return 0.0
        only1 = len(labels1 - labels2)
        only2 = len(labels2 - labels1)
        paired = min(only1, only2)
        return (paired * cost.edge_substitute + (only1 - paired) * cost.edge_delete
                + (only2 - paired) * cost.edge_insert)

    # vertex[i][k]: order1[i] onto candidate k, its self-loops included;
    # edges[i][k][j][m]: the edges between order1[i] on k and order1[j] on m
    vertex = [[(cost.node_delete if c is None else
                cost.node_substitute if g1.vertices[v1] != g2.vertices[c] else 0.0)
               + labels_cost(pair1.get((v1, v1), none), pair2.get((c, c), none))
               for c in targets] for v1 in order1]
    edges = [[[[labels_cost(pair1.get((v1, w1), none), pair2.get((c, w2), none))
                + labels_cost(pair1.get((w1, v1), none), pair2.get((w2, c), none))
                for w2 in targets] for w1 in order1[:i]] for c in targets]
             for i, v1 in enumerate(order1)]
    edges2 = [(ids2.index(source), ids2.index(target)) for source, target, _ in g2.edges]
    chosen: list = []
    used: set = set()
    best = [float("inf")]

    def recurse(index: int, running: float) -> None:
        if running >= best[0]:
            return
        if index == len(order1):
            unmapped = sum(source not in used or target not in used
                           for source, target in edges2)
            best[0] = min(best[0], running + (len(ids2) - len(used)) * cost.node_insert
                          + unmapped * cost.edge_insert)
            return
        for k in range(deleted + 1):
            if k in used:
                continue
            row = edges[index][k]
            increment = vertex[index][k] + sum(row[j][m] for j, m in enumerate(chosen))
            chosen.append(k)
            if k != deleted:
                used.add(k)
            recurse(index + 1, running + increment)
            chosen.pop()
            used.discard(k)

    recurse(0, 0.0)
    return best[0]


# ---------------------------------------------------------------------------
# isomorphism (for validating edit scripts)


def isomorphic(g1: PolicyGraph, g2: PolicyGraph) -> bool:
    """Label- and structure-preserving isomorphism by backtracking."""
    if g1.order() != g2.order() or g1.size() != g2.size():
        return False
    if sorted(g1.vertices.values()) != sorted(g2.vertices.values()):
        return False
    pair1 = _label_sets(g1)
    pair2 = _label_sets(g2)
    none = frozenset()
    degree = dict.fromkeys(g1.vertices, 0)
    for source, target, _ in g1.edges:
        degree[source] += 1
        degree[target] += source != target
    order1 = sorted(g1.vertices, key=lambda v: (-degree[v], v))
    ids2 = sorted(g2.vertices)

    def consistent(v1, v2, mapping) -> bool:
        if g1.vertices[v1] != g2.vertices[v2]:
            return False
        if pair1.get((v1, v1), none) != pair2.get((v2, v2), none):
            return False
        for w1, w2 in mapping.items():
            if pair1.get((v1, w1), none) != pair2.get((v2, w2), none):
                return False
            if pair1.get((w1, v1), none) != pair2.get((w2, v2), none):
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
    plus three, a control node a vertex plus four. Kept in the library
    though only tests call it: it is one of the paper's closed forms.
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
    """Same effort expressed over the total state count.

    Kept in the library though only tests call it: it is one of the
    paper's closed forms.
    """
    if connected_states > total_states or connected_states < 0:
        raise ValidationError("connected states cannot exceed the total")
    return 3 * (total_states + 1) + connected_states * (total_states - 1)


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
        if connected > actions:
            raise ValidationError("connected states cannot exceed the actions")
        elements = 5 * actions + 4 + connected * (actions - 1)
        return {"graphical": elements, "active": elements}
    if kind == "hfsm":
        return {"graphical": 36 * actions - 3, "active": 29 * actions - 3}
    raise ValidationError(f"unknown policy kind {kind!r}")


def fully_connected_elements(states: int) -> int:
    """Element count of the alternative everything-to-everything design.

    Kept in the library though only tests call it: it is one of the
    paper's closed forms.
    """
    if states < 0:
        raise ValidationError("state count must be non-negative")
    return states * (states - 1)
