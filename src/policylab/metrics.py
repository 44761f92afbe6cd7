"""Graph encodings and every quantitative structure measure.

All three policy kinds encode into one labeled directed multigraph type,
the substrate for graph edit distance, cyclomatic complexity and element
counting. The exact edit distance is a best-first search over partial
vertex mappings of the graph with fewer edges, started from the anchored
mapping (identity on shared ids) as its incumbent. Its admissible bound
prices the unreconciled edges per placed vertex (those to unplaced
vertices, which only its image's can match) and among the unplaced
vertices. The root bound, counts alone, is checked against the incumbent
before any set-up; only a pair it does not prove gets its edges indexed
into neighbour lists, from which each search step is costed sparsely.
The bound is also consistent (no child's f below its parent's), so an
expansion costs its candidates in order only until one ties its f, and
the rest only if the search comes back to them. An incomplete result
returns the best mapping's cost, at worst the incumbent's, as an upper
bound. The incumbent is costed by set arithmetic on the two edge sets,
and a result's edit script is built from its mapping only when it is
first read, so a caller that needs only the distance builds none. A tiny
exhaustive solver serves as its ground-truth oracle on small graphs.
"""

from __future__ import annotations

import heapq
import itertools
import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from . import bt, fsm, hfsm
from .core import FAILURE, RUNNING, SUCCESS, ValidationError

DEFAULT_GED_BUDGET = 60.0
#: live entries at which the exact search's heap stops it, as its time
#: budget does: about 120 MB, far above any heap a complete search of the
#: packaged or benchmark pairs reaches (a few thousand entries at most)
GED_HEAP_CAP = 2**18
BRUTE_FORCE_LIMIT = 7

#: shared sink ids for the nested-machine encoding, stable across graphs
OUTCOME_SINKS = {SUCCESS: -1, FAILURE: -2, RUNNING: -3}


@dataclass(frozen=True)
class PolicyGraph:
    """Labeled directed multigraph; self-loops allowed."""

    vertices: dict
    edges: frozenset
    kind: str = ""

    def __post_init__(self):
        object.__setattr__(self, "vertices", dict(self.vertices))
        object.__setattr__(self, "edges", frozenset(self.edges))
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
    edges = {(nid, child, "child") for nid, node in tree.nodes.items() for child in node.children}
    return PolicyGraph(vertices=vertices, edges=edges, kind="bt")


def fsm_to_graph(machine: fsm.StateMachine) -> PolicyGraph:
    """States and outcomes as vertices, every drawn transition as an edge."""
    vertices = {sid: f"{state.kind}:{state.name}"
                for sid, state in machine.states.items()}
    return PolicyGraph(vertices=vertices, edges=fsm.iter_edges(machine), kind="fsm")


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
    # read once: each lookup hashes a Status in Python code
    succeeded, failed, running = (OUTCOME_SINKS[SUCCESS], OUTCOME_SINKS[FAILURE],
                                  OUTCOME_SINKS[RUNNING])
    for node in machine.walk():
        if node.kind in hfsm.CONTAINER_KINDS:
            role = "control"
        else:
            role = node.kind
        vertices[node.id] = f"{role}:{node.name}"
        edges.add((node.id, succeeded, "SUCCESS"))
        edges.add((node.id, failed, "FAILURE"))
        if node.kind != "condition":
            edges.add((node.id, running, "RUNNING"))
        if node.kind in hfsm.CONTAINER_KINDS:
            edges.add((node.id, node.children[0].id, "enter"))
    return PolicyGraph(vertices=vertices, edges=edges, kind="hfsm")


def policy_graph(policy) -> PolicyGraph:
    """The graph of a policy in its own kind: tree, machine or nested machine."""
    if isinstance(policy, bt.PolicyTree):
        return bt_to_graph(policy)
    if isinstance(policy, fsm.StateMachine):
        return fsm_to_graph(policy)
    return hfsm_to_graph(policy)


# ---------------------------------------------------------------------------
# cost model and edit scripts


@dataclass(frozen=True)
class GedCostModel:
    """Unit insertions and deletions; label changes free unless ``labels``.

    Inserting or deleting a vertex or an edge costs 1. A label change
    costs 0 by default, the model under which the reference distances of
    all the modification case studies reproduce, and 1 when ``labels`` is
    set (``LABEL_SENSITIVE``): relabelling a mapped vertex, or changing
    the label of an edge between one mapped vertex pair. Every cost is a
    whole number.
    """

    labels: bool = False

    def vertex_cost(self, label1: str, label2: str) -> float:
        """Cost of mapping a vertex labeled ``label1`` onto one labeled ``label2``."""
        return 1.0 if self.labels and label1 != label2 else 0.0

    def edge_group_cost(self, labels1, labels2) -> float:
        """Cost of reconciling parallel edges between one mapped pair.

        Each side lists distinct labels: an edge set holds a (source,
        target, label) triple at most once. A label on one side only is
        substituted for one on the other while both have some left, and
        the excess is deleted or inserted.
        """
        if not self.labels:
            return abs(len(labels1) - len(labels2))
        return max(len(labels1), len(labels2)) - len(set(labels1).intersection(labels2))


#: the model ``ged_exact`` and ``ged_anchored`` use when given none: it is
#: frozen, so every call shares it
DEFAULT_COST = GedCostModel()
LABEL_SENSITIVE = GedCostModel(labels=True)


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
    """An edit distance, whether it is proven, and the vertex mapping
    (g1 id -> g2 id | None) that attains it.

    ``script`` is built from the mapping on its first read, once. An
    incomplete result's ``exhausted`` names what stopped the search:
    ``"budget"`` for its time budget, ``"heap"`` for ``GED_HEAP_CAP``.
    """

    distance: float
    complete: bool
    mapping: dict
    g1: PolicyGraph = field(repr=False, compare=False)
    g2: PolicyGraph = field(repr=False, compare=False)
    model: GedCostModel = field(repr=False, compare=False)
    exhausted: str = ""

    @cached_property
    def script(self) -> EditScript:
        return _script_for_mapping(self.g1, self.g2, self.mapping, self.model)


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
    It reconciles every matched pair untuned, as no timed path builds a script.
    Each op costs 1, but a substitution costs 0 unless ``cost.labels``."""
    ops = []
    inverse = {v2: v1 for v1, v2 in mapping.items() if v2 is not None}
    deleted = {v1 for v1, v2 in mapping.items() if v2 is None}
    inserted = [v2 for v2 in g2.vertices if v2 not in inverse]

    # vertex phase
    for v1, v2 in mapping.items():
        if v2 is not None and g1.vertices[v1] != g2.vertices[v2]:
            ops.append(("substitute_vertex", v1, g2.vertices[v2]))
    fresh = itertools.count(max([*g1.vertices, 0]) + 1)
    new_ids = {v2: next(fresh) for v2 in inserted}
    placed = {v2: new_ids[v2] for v2 in inserted}
    placed.update({v2: v1 for v2, v1 in inverse.items()})

    # edges touching a deleted or inserted vertex
    for source, target, label in sorted(g1.edges):
        if source in deleted or target in deleted:
            ops.append(("delete_edge", source, target, label))
    for source, target, label in sorted(g2.edges):
        if source not in inverse or target not in inverse:
            ops.append(("insert_edge", placed[source], placed[target], label))

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
        for label in rest1:
            ops.append(("delete_edge", source, target, label))
        for label in rest2:
            ops.append(("insert_edge", source, target, label))

    # vertex deletions go after their incident edge deletions
    for v1 in sorted(deleted):
        ops.append(("delete_vertex", v1))
    for v2 in inserted:
        ops.insert(0, ("insert_vertex", new_ids[v2], g2.vertices[v2]))
    free = 0 if cost.labels else sum(op[0].startswith("substitute_") for op in ops)
    return EditScript(ops=ops, cost=float(len(ops) - free))


def _anchored_cost(g1: PolicyGraph, g2: PolicyGraph, cost: GedCostModel) -> float:
    """Cost of the anchored mapping's script, without building it.

    The mapping is the identity on shared ids, so the edges to reconcile
    are the two edge-set differences. A removed and an added edge pair up
    as a substitution only on the same (source, target), as
    ``edge_group_cost`` pairs them; an edge that touches a deleted or an
    inserted vertex has no such partner, so it is deleted or inserted.
    """
    total = len(g1.vertices.keys() ^ g2.vertices.keys())  # deleted and inserted
    if cost.labels:
        total += sum(g1.vertices[v] != g2.vertices[v]
                     for v in g1.vertices.keys() & g2.vertices.keys())
    removed, added = g1.edges - g2.edges, g2.edges - g1.edges
    substitutions = 0
    if removed and added:
        ends: dict = {}  # (source, target) -> removed edges not yet paired
        for source, target, _ in removed:
            ends[source, target] = ends.get((source, target), 0) + 1
        for source, target, _ in added:
            unpaired = ends.get((source, target))
            if unpaired:
                ends[source, target] = unpaired - 1
                substitutions += 1
    # a substitution stands for one deletion and one insertion
    saved = substitutions if cost.labels else 2 * substitutions
    return float(total + len(removed) + len(added) - saved)


# ---------------------------------------------------------------------------
# exact search


def ged_exact(g1: PolicyGraph, g2: PolicyGraph,
              cost: Optional[GedCostModel] = None,
              budget: float = DEFAULT_GED_BUDGET) -> GedResult:
    """Optimal edit distance via best-first search over vertex mappings.

    The search places the vertices of the graph with fewer edges, ``g1``
    on a tie: its bound settles edges as their endpoints are placed, so
    the sparser side costs fewer steps. When ``g2`` has fewer edges the
    search runs from ``g2`` to ``g1`` under the same model, where each
    insertion is a deletion at the same unit cost and the other way
    round, and its mapping is inverted. The distance is the same either
    way; the mapping, and so the script, may be another one of equal
    cost. What follows calls the graph placed ``g1``.

    The search starts from the anchored incumbent, the identity mapping
    on shared ids costed under ``cost`` by ``_anchored_cost``, and no
    script is built on the way: the result's ``script`` is built from
    its mapping when a caller first reads it. It expands only nodes whose
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
    Otherwise each graph's edges are indexed in one pass, into self-loops,
    neighbour lists and degrees, and each step costs a candidate, and the
    cross counts it changes, from the edges it shares with vertices
    already placed, on either side, rather than from every placed pair.

    The bound is also consistent: no child's f (cost so far plus bound)
    is below its parent's. Each bound term is a count gap, and
    gap(a + x, b + y) <= gap(a, b) + gap(x, y); a step takes x edges of
    g1 and y of g2 out of one counted pool and charges at least
    gap(x, y) for settling them (vertices likewise). So an expansion
    costs its candidates in order, g2 ids then deletion, only until a
    child ties the parent's f: nothing it has not costed can pop before
    that child, and the rest waits in a resume entry until the search
    reaches it. Nodes pop in the same order as when every candidate is
    costed at once, with the same mapping and script.

    When the time budget runs out, or the heap holds ``GED_HEAP_CAP``
    entries, the best mapping known, at worst the incumbent, is returned
    with its cost as an upper bound, ``complete`` set to False and
    ``exhausted`` naming which limit was reached; the result is never
    silently wrong.
    """
    cost = cost or DEFAULT_COST
    if len(g1.edges) <= len(g2.edges):
        return _search(g1, g2, cost, budget)
    result = _search(g2, g1, cost, budget)
    images = {v1: v2 for v2, v1 in result.mapping.items() if v1 is not None}
    return GedResult(distance=result.distance, complete=result.complete,
                     mapping={v1: images.get(v1) for v1 in g1.vertices},
                     g1=g1, g2=g2, model=cost, exhausted=result.exhausted)


def _search(g1: PolicyGraph, g2: PolicyGraph, cost: GedCostModel,
            budget: float) -> GedResult:
    """``ged_exact``'s search, placing ``g1``'s vertices whatever the edge
    counts. Past the root bound, ``_index`` builds each graph's index in
    one pass over its edges: ``g1``'s degrees order the placement, and
    both graphs' self-loops and neighbour lists cost each step."""
    deadline = time.monotonic() + budget

    best_mapping = {v: v if v in g2.vertices else None for v in g1.vertices}
    best_cost = _anchored_cost(g1, g2, cost)
    n1, n2 = len(g1.vertices), len(g2.vertices)
    total_e1, total_e2 = len(g1.edges), len(g2.edges)

    def gap(open1: int, open2: int) -> int:
        """Least cost of reconciling two vertex or edge counts that pair up
        only with each other: the excess is deleted or inserted."""
        return abs(open1 - open2)

    # nothing is placed at the root, so every edge is inner
    root_h = gap(n1, n2) + gap(total_e1, total_e2)
    if root_h >= best_cost:
        return GedResult(distance=best_cost, complete=True, mapping=best_mapping,
                         g1=g1, g2=g2, model=cost)

    loops1, neighbours1, degree = _index(g1)
    loops2, neighbours2, _ = _index(g2)
    order = sorted(g1.vertices, key=lambda v: (-degree[v], v))
    position = {v: i for i, v in enumerate(order)}
    g2_ids = sorted(g2.vertices)
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
        deleting.append(1 + settled)
        cross1.append((*counts, out, into))
        inner1.append(inner1[i] - len(loops1.get(v, ())) - out - into)

    def group_cost(labels1, labels2) -> float:
        if labels1 and labels2:
            return cost.edge_group_cost(labels1, labels2)
        return len(labels1) + len(labels2)

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
                increment += len(out1) + len(into1)
            else:
                increment += group_cost(out1, labels2[0]) + group_cost(into1, labels2[1])
        counts1 = cross1[index + 1]
        change = 0
        changed = []
        out2 = in2 = 0
        for other2, (to_other, from_other) in around.items():
            j = placed.get(other2)
            if j is None:
                out2 += len(to_other)
                in2 += len(from_other)
                continue
            if j not in earlier:
                increment += len(to_other) + len(from_other)
            # other2 -> candidate leaves j's out count, candidate -> other2 its in count
            for slot, settled in ((2 * j, len(from_other)), (2 * j + 1, len(to_other))):
                if settled:
                    was = cross2[slot]
                    change += gap(counts1[slot], was - settled) - gap(counts1[slot], was)
                    changed.append((slot, was - settled))
        return increment, change, changed, out2, in2

    # A node is keyed (f, -depth, the number of the expansion that made
    # it, its candidate position), with g2 vertices at their places in
    # g2_ids and deletion at n2: among equal f, deeper first, then earlier
    # expansions, then candidate order. An expansion stops costing
    # candidates right after a child ties its f and leaves a resume entry
    # keyed at that f, with the next position and the context the rest
    # of the scan needs. The bound is consistent, so no child costed
    # later sorts below that entry.
    exhausted = ""
    expansions = 0
    heap = [(root_h, 0, -1, 0, 0.0, (), (), total_e2)]
    while heap:
        entry = heapq.heappop(heap)
        f = entry[0]
        if f >= best_cost:
            break
        if len(entry) == 5:  # a resume entry
            _, _, number, start, (g_cost, assigned, placed, cross2, inner2, base) = entry
            index = len(assigned)
        else:
            _, neg_depth, _, _, g_cost, assigned, cross2, inner2 = entry
            index = -neg_depth
            placed = {v2: j for j, v2 in enumerate(assigned) if v2 is not None}
            if index == n1:
                # g2 vertices left unplaced are inserted with every edge touching them
                total = g_cost + (n2 - len(placed)) + inner2 + sum(cross2)
                if total < best_cost:
                    best_cost = total
                    best_mapping = dict(zip(order, assigned))
                continue
            # the placed positions' terms against the g1 counts once this
            # position is placed; a candidate changes only those it touches
            base = sum(map(gap, cross1[index + 1], cross2))
            number, start = expansions, 0
            expansions += 1
        if len(heap) >= GED_HEAP_CAP:
            exhausted = "heap"
            break
        if time.monotonic() > deadline:
            exhausted = "budget"
            break

        counts1 = cross1[index + 1]
        out1, in1 = counts1[-2:]
        inner = inner1[index + 1]
        rem1, rem2 = n1 - index - 1, n2 - len(placed)
        mapped_h = gap(rem1, rem2 - 1) + base
        for position in range(start, n2):
            candidate = g2_ids[position]
            if candidate in placed:
                continue
            increment, change, changed, out2, in2 = assignment_cost(
                index, candidate, assigned, placed, cross2)
            new_g = g_cost + increment
            new_inner2 = inner2 - len(loops2.get(candidate, ())) - out2 - in2
            new_f = new_g + (mapped_h + change + gap(out1, out2) + gap(in1, in2)
                             + gap(inner, new_inner2))
            if new_f < best_cost:
                child = list(cross2)
                for slot, count in changed:
                    child[slot] = count
                child += (out2, in2)
                heapq.heappush(heap, (new_f, -(index + 1), number, position, new_g,
                                      assigned + (candidate,), tuple(child), new_inner2))
                if new_f <= f:
                    context = g_cost, assigned, placed, cross2, inner2, base
                    heapq.heappush(heap, (f, -(index + 1), number, position + 1, context))
                    break
        else:
            new_g = g_cost + deleting[index]
            new_f = new_g + (gap(rem1, rem2) + base + out1 + in1 + gap(inner, inner2))
            if new_f < best_cost:
                heapq.heappush(heap, (new_f, -(index + 1), number, n2, new_g,
                                      assigned + (None,), cross2 + (0, 0), inner2))

    return GedResult(distance=best_cost, complete=not exhausted, mapping=best_mapping,
                     g1=g1, g2=g2, model=cost, exhausted=exhausted)


def _index(graph: PolicyGraph) -> tuple:
    """One pass over the edges: the self-loop labels per vertex; per vertex
    ``v`` a map from each other vertex ``w`` it shares an edge with to
    (labels v->w, labels w->v); and the edges incident to each vertex, a
    self-loop counted once. ``w``'s entry for ``v`` holds the same two
    lists the other way round, so each edge is appended once."""
    loops: dict = {}
    neighbours: dict = {v: {} for v in graph.vertices}
    degree = dict.fromkeys(graph.vertices, 0)
    for source, target, label in graph.edges:
        degree[source] += 1
        if source == target:
            loops.setdefault(source, []).append(label)
            continue
        degree[target] += 1
        pair = neighbours[source].get(target)
        if pair is None:
            pair = neighbours[source][target] = [], []
            neighbours[target][source] = pair[1], pair[0]
        pair[0].append(label)
    return loops, neighbours, degree


# ---------------------------------------------------------------------------
# anchored mode


def ged_anchored(g1: PolicyGraph, g2: PolicyGraph,
                 cost: Optional[GedCostModel] = None) -> GedResult:
    """Edit cost under the identity correspondence on shared ids.

    An upper bound on the exact distance; this is what scales to large
    machines where optimal search is pointless because element identity
    is already known. As for ``ged_exact``, the script is built on first
    read.
    """
    cost = cost or DEFAULT_COST
    mapping = {v: v if v in g2.vertices else None for v in g1.vertices}
    return GedResult(distance=_anchored_cost(g1, g2, cost), complete=True,
                     mapping=mapping, g1=g1, g2=g2, model=cost)


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
    vertex and edge costing on the label sets of ``_label_sets``. It
    reads only ``cost.labels``, the price of a substitution (0 or 1), and
    prices every insertion and deletion at 1 itself. The costs of every
    vertex and vertex-pair choice are tabled before the recursion starts.
    """
    substitute = 1 if (cost or DEFAULT_COST).labels else 0
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
        return paired * substitute + (only1 - paired) + (only2 - paired)

    # vertex[i][k]: order1[i] onto candidate k, its self-loops included;
    # edges[i][k][j][m]: the edges between order1[i] on k and order1[j] on m
    vertex = [[(1 if c is None else
                substitute if g1.vertices[v1] != g2.vertices[c] else 0)
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
            best[0] = min(best[0], running + (len(ids2) - len(used)) + unmapped)
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

    The sinks are the outcome vertices, those labeled ``outcome:``, so a
    graph rebuilt by ``apply_script`` measures like the one it matches.
    Tree graphs follow the single-exit convention (one sink regardless
    of leaf count), which pins their value at 1.
    """
    if graph.kind == "bt":
        sinks = 1
    else:
        sinks = sum(label.startswith("outcome:") for label in graph.vertices.values())
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
