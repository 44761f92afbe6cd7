"""Graph encodings, edit distance solvers and the closed-form measures."""

import heapq
import itertools
import random
import time
from dataclasses import dataclass, field
from typing import Optional

import pytest

from conftest import packaged_policies
from policylab import bt, experiments, fixtures, fsm, hfsm, metrics, planner, report
from policylab.core import ValidationError
from policylab.metrics import (
    GedCostModel,
    GedResult,
    PolicyGraph,
    apply_script,
    brute_force_ged,
    cyclomatic,
    effort,
    effort_m,
    formula_estimates,
    fully_connected_elements,
    ged_anchored,
    ged_exact,
    ged_hfsm_formula,
    isomorphic,
)


def random_graph(rng, max_vertices=7):
    n = rng.randint(2, max_vertices)
    vertices = {i: rng.choice("abc") for i in range(n)}
    edges = set()
    for _ in range(rng.randint(0, 2 * n)):
        edges.add((rng.randrange(n), rng.randrange(n), rng.choice("xy")))
    return PolicyGraph(vertices=vertices, edges=edges)


def dense_graph(rng, n):
    """``n`` vertices and between n and 2n distinct edges."""
    vertices = {i: rng.choice("abc") for i in range(n)}
    triples = list(itertools.product(range(n), range(n), "xy"))
    return PolicyGraph(vertices=vertices, edges=rng.sample(triples, rng.randint(n, 2 * n)))


def path_graph(n):
    return PolicyGraph(
        vertices={i: "v" for i in range(n)},
        edges={(i, i + 1, "e") for i in range(n - 1)},
    )


class TestEncoders:
    def test_tree_graph_counts(self, fetch_tree):
        graph = metrics.bt_to_graph(fetch_tree)
        assert (graph.order(), graph.size()) == (14, 13)
        assert graph.kind == "bt"
        # a tree has no outcome vertex; cyclomatic counts its one exit
        assert not any(label.startswith("outcome:") for label in graph.vertices.values())

    def test_machine_graph_counts(self, fetch_machine):
        graph = metrics.fsm_to_graph(fetch_machine)
        assert (graph.order(), graph.size()) == (6, 18)
        assert {vid for vid, label in graph.vertices.items()
                if label.startswith("outcome:")} == fetch_machine.outcome_ids()

    def test_sequential_machine_graph(self):
        graph = metrics.fsm_to_graph(experiments.fetch_fsm_sequential())
        assert (graph.order(), graph.size()) == (5, 4)

    def test_nested_machine_graphs(self):
        cases = {
            experiments.fetch_bt: (17, 44),
            lambda: experiments.bt_with_tuck(experiments.fetch_bt()): (20, 53),
            lambda: experiments.bt_with_safe_move(experiments.fetch_bt()): (18, 47),
            lambda: experiments.bt_with_dock(experiments.fetch_bt()): (21, 57),
            lambda: experiments.bt_with_recharge(experiments.fetch_bt()): (21, 57),
        }
        for builder, expected in cases.items():
            graph = metrics.hfsm_to_graph(hfsm.from_bt(builder()))
            assert (graph.order(), graph.size()) == expected

    def test_single_vertex_graph(self):
        graph = PolicyGraph(vertices={0: "x"}, edges=set())
        assert (graph.order(), graph.size()) == (1, 0)

    def test_edges_must_reference_vertices(self):
        with pytest.raises(ValidationError, match="missing vertex"):
            PolicyGraph(vertices={0: "x"}, edges={(0, 1, "e")})


class TestExactDistance:
    def test_identity_is_zero(self, fetch_tree):
        graph = metrics.bt_to_graph(fetch_tree)
        result = ged_exact(graph, graph)
        assert result.distance == 0 and result.complete

    def test_forced_path_extension(self):
        result = ged_exact(path_graph(3), path_graph(4))
        assert result.distance == 2  # one vertex plus one edge

    def test_symmetry_on_sampled_pairs(self):
        rng = random.Random(7)
        for _ in range(25):
            g1, g2 = random_graph(rng), random_graph(rng)
            assert ged_exact(g1, g2).distance == ged_exact(g2, g1).distance

    def test_lower_bound_respected(self):
        rng = random.Random(11)
        for _ in range(25):
            g1, g2 = random_graph(rng), random_graph(rng)
            bound = abs(g1.order() - g2.order()) + abs(g1.size() - g2.size())
            assert ged_exact(g1, g2).distance >= bound

    def test_oracle_agreement(self):
        rng = random.Random(13)
        for _ in range(60):
            g1, g2 = random_graph(rng, max_vertices=6), random_graph(rng, max_vertices=6)
            assert ged_exact(g1, g2).distance == brute_force_ged(g1, g2)

    @pytest.mark.parametrize("model", [metrics.LABEL_SENSITIVE], ids=["label_sensitive"])
    def test_oracle_agreement_under_label_models(self, model):
        # the default model prices parallel edges by count alone, so a
        # label-matching charge shows only under this one
        rng = random.Random(13)
        for index in range(60):
            g1, g2 = random_graph(rng, max_vertices=6), random_graph(rng, max_vertices=6)
            assert ged_exact(g1, g2, cost=model).distance == \
                brute_force_ged(g1, g2, model), index

    def test_dense_pairs_match_the_oracle(self):
        # many edges per placed vertex, so the cross-edge bound prunes hard
        rng = random.Random(37)
        for index in range(30):
            g1, g2 = dense_graph(rng, 6), dense_graph(rng, 6)
            result = ged_exact(g1, g2, cost=metrics.LABEL_SENSITIVE)
            assert result.complete, index
            assert result.distance == brute_force_ged(g1, g2, metrics.LABEL_SENSITIVE), index

    def test_scripts_reproduce_the_target(self):
        rng = random.Random(17)
        for _ in range(40):
            g1, g2 = random_graph(rng), random_graph(rng)
            result = ged_exact(g1, g2)
            assert isomorphic(apply_script(g1, result.script), g2)

    def test_budget_exhaustion_is_flagged_not_wrong(self, fetch_machine):
        # the root bound (5) stays below the anchored incumbent (7) here,
        # so a zero budget leaves a gap the search has not closed
        g1 = metrics.fsm_to_graph(fetch_machine)
        g2 = metrics.fsm_to_graph(experiments.fsm_with_tuck(experiments.fetch_fsm()))
        result = ged_exact(g1, g2, budget=0.0)
        assert not result.complete
        assert result.distance >= 5  # an upper bound on the true distance

    def test_label_sensitive_model_charges_substitutions(self):
        g1 = PolicyGraph(vertices={0: "a"}, edges=set())
        g2 = PolicyGraph(vertices={0: "b"}, edges=set())
        assert ged_exact(g1, g2).distance == 0
        assert ged_exact(g1, g2, cost=metrics.LABEL_SENSITIVE).distance == 1


REFERENCE_DISTANCES = {  # table 2: (bt, fsm, hfsm)
    "tuck": (6, 5, 12),
    "safe_move": (2, 4, 4),
    "dock": (8, 5, 17),
    "recharge": (8, 8, 17),
}
ROOT_GAP_PAIRS = {("fsm", "tuck"), ("fsm", "dock")}  # root bound 5, incumbent 7


def reference_pairs():
    base_bt = fixtures.load_policy("fetch_bt")
    base_fsm = fixtures.load_policy("fetch_fsm")
    for name, (want_bt, want_fsm, want_h) in REFERENCE_DISTANCES.items():
        tree = fixtures.load_policy(f"fetch_bt_{name}")
        machine = fixtures.load_policy(f"fetch_fsm_{name}")
        yield "bt", name, metrics.bt_to_graph(base_bt), metrics.bt_to_graph(tree), want_bt
        yield ("fsm", name, metrics.fsm_to_graph(base_fsm),
               metrics.fsm_to_graph(machine), want_fsm)
        yield ("hfsm", name, metrics.hfsm_to_graph(hfsm.from_bt(base_bt)),
               metrics.hfsm_to_graph(hfsm.from_bt(tree)), want_h)


def replayed_pairs():
    """Each table-2 pair both ways, and each modified policy onto itself,
    per representation: (representation, case, g1, g2)."""
    for kind, name, base, changed, _ in reference_pairs():
        for case, g1, g2 in (("forward", base, changed), ("backward", changed, base),
                             ("itself", changed, changed)):
            yield kind, f"{name} {case}", g1, g2


def test_a_replayed_graph_measures_like_its_target():
    cells = 0
    for kind, case, g1, g2 in replayed_pairs():
        replayed = apply_script(g1, ged_exact(g1, g2).script)
        assert isomorphic(replayed, g2), (kind, case)
        assert cyclomatic(replayed) == cyclomatic(g2), (kind, case)
        cells += 1
    assert cells == 36


def test_machine_counts_agree_with_the_graph():
    machines = [fixtures.load_policy(name) for name in packaged_policies() if "_fsm" in name]
    assert len(machines) == 6
    for cubes in range(1, 10):
        _, plan = planner.synthesize(*experiments.generated_task(range(1, cubes + 1)))
        machines += [fsm.build_sequential(plan), fsm.build_fault_tolerant(plan)]
    for machine in machines:
        assert fsm.count_elements(machine)["edges"] == metrics.fsm_to_graph(machine).size()


class TestSeededSearch:
    def test_root_bound_proves_the_anchored_incumbent(self):
        proven = 0
        for kind, name, g1, g2, want in reference_pairs():
            if (kind, name) in ROOT_GAP_PAIRS:
                continue
            result = ged_exact(g1, g2, budget=0.0)
            assert result.complete, (kind, name)
            assert result.distance == want, (kind, name)
            proven += 1
        assert proven == 10

    def test_gap_pairs_return_the_incumbent_at_zero_budget(self):
        for kind, name, g1, g2, want in reference_pairs():
            if (kind, name) not in ROOT_GAP_PAIRS:
                continue
            result = ged_exact(g1, g2, budget=0.0)
            assert not result.complete, name
            assert result.distance == 7 > want, name
            assert isomorphic(apply_script(g1, result.script), g2), name

    def test_incumbent_is_costed_with_the_callers_model(self):
        rng = random.Random(23)
        for index in range(150):
            g1, g2 = random_graph(rng, max_vertices=6), random_graph(rng, max_vertices=6)
            result = ged_exact(g1, g2, cost=metrics.LABEL_SENSITIVE)
            assert result.complete, index
            assert result.distance == brute_force_ged(g1, g2, metrics.LABEL_SENSITIVE), index
            assert result.script.cost == result.distance, index
            assert isomorphic(apply_script(g1, result.script), g2), index


class EmptyGroupsRefused(GedCostModel):
    """A model that fails if the search reconciles two empty label groups."""

    def edge_group_cost(self, labels1, labels2) -> float:
        if not labels1 and not labels2:
            raise AssertionError("edge_group_cost called on two empty groups")
        return super().edge_group_cost(labels1, labels2)


class TestIndex:
    def test_index_matches_a_naive_recount(self):
        rng = random.Random(37)
        for index in range(200):
            n = rng.randint(1, 6)
            # dense enough for self-loops, antiparallel pairs and several
            # labels on one pair, with a vertex or two left isolated
            edges = {(rng.randrange(n), rng.randrange(n), rng.choice("xyz"))
                     for _ in range(rng.randint(0, 4 * n))}
            graph = PolicyGraph(vertices={v: "v" for v in range(n + 2)}, edges=edges)
            loops, neighbours, degree = metrics._index(graph)
            looped = {s for s, t, _ in edges if s == t}
            assert {v: sorted(labels) for v, labels in loops.items()} == {
                v: sorted(l for s, t, l in edges if s == t == v) for v in looped}, index
            for v in graph.vertices:
                others = {t for s, t, _ in edges if s == v} | {s for s, t, _ in edges if t == v}
                others.discard(v)
                assert set(neighbours[v]) == others, index
                for w, (to_w, from_w) in neighbours[v].items():
                    assert sorted(to_w) == sorted(
                        l for s, t, l in edges if (s, t) == (v, w)), index
                    assert sorted(from_w) == sorted(
                        l for s, t, l in edges if (s, t) == (w, v)), index
                assert degree[v] == sum(v in (s, t) for s, t, _ in edges), index


class TestSparseSearch:
    def test_pairs_proven_at_the_root_build_no_index(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("index built for a pair the root bound proves")

        monkeypatch.setattr(metrics, "_index", refuse)
        base = metrics.bt_to_graph(fixtures.load_policy("fetch_bt"))
        tuck = metrics.bt_to_graph(fixtures.load_policy("fetch_bt_tuck"))
        result = ged_exact(base, tuck)
        assert result.complete
        assert result.distance == 6

    def test_heap_cap_stops_the_search_with_an_upper_bound(self, monkeypatch):
        # the search never improves on the anchored incumbent here, and its
        # heap keeps growing while it tries
        g1 = metrics.bt_to_graph(fixtures.load_policy("fetch_bt"))
        g2 = metrics.fsm_to_graph(experiments.scalability_fsm())
        root_bound = abs(g1.order() - g2.order()) + abs(g1.size() - g2.size())
        monkeypatch.setattr(metrics, "GED_HEAP_CAP", 2000)
        began = time.monotonic()
        result = ged_exact(g1, g2, budget=600.0)
        assert time.monotonic() - began < 1.0
        assert not result.complete
        assert result.exhausted == "heap"
        assert root_bound <= result.distance <= ged_anchored(g1, g2).distance
        assert result.script.cost == result.distance

    def test_empty_label_groups_are_never_reconciled(self):
        refusing = EmptyGroupsRefused()
        rng = random.Random(31)
        for index in range(60):
            g1, g2 = random_graph(rng), random_graph(rng)
            assert ged_exact(g1, g2, cost=refusing).distance == \
                ged_exact(g1, g2).distance, index
        for kind, name, g1, g2, want in reference_pairs():
            if (kind, name) in ROOT_GAP_PAIRS:
                result = ged_exact(g1, g2, cost=refusing)
                assert result.complete and result.distance == want, name


def experiment_pairs():
    """The six edit distance pairs of the experiment table, as graphs."""
    rows = {}
    policies = None
    for name, build, ed_from, _, _ in report._EXPERIMENTS:
        policies = build(policies)
        rows[name] = metrics.bt_to_graph(policies[0]), metrics.fsm_to_graph(policies[1])
        if ed_from is not None:
            yield from zip(rows[ed_from], rows[name])


def report_pairs():
    """The 18 graph pairs of tables 2 and 3: the reference pairs, then the
    experiment pairs."""
    return [(g1, g2) for _, _, g1, g2, _ in reference_pairs()] + list(experiment_pairs())


def random_injective_mapping(rng, g1, g2):
    targets = list(g2.vertices) + [None] * len(g1.vertices)
    rng.shuffle(targets)
    return dict(zip(g1.vertices, targets))


MODELS = (GedCostModel(), metrics.LABEL_SENSITIVE)


def op_price(op: tuple, model: GedCostModel) -> int:
    """Each insertion and deletion costs 1, a substitution 1 only under ``labels``."""
    return 0 if op[0] in ("substitute_vertex", "substitute_edge") and not model.labels else 1


class TestScriptForMapping:
    """The script of any complete mapping turns g1 into g2, and costs what
    its ops cost one by one."""

    def test_random_pairs_and_mappings(self):
        rng = random.Random(41)
        for index in range(1200):
            g1, g2 = random_graph(rng), random_graph(rng)
            mapping = random_injective_mapping(rng, g1, g2)
            for model in MODELS:
                script = metrics._script_for_mapping(g1, g2, mapping, model)
                assert isomorphic(apply_script(g1, script), g2), (index, model)
                assert script.cost == sum(op_price(op, model) for op in script.ops), \
                    (index, model)


def reference_ged_exact(g1: PolicyGraph, g2: PolicyGraph,
                        cost: Optional[GedCostModel] = None,
                        budget: float = metrics.DEFAULT_GED_BUDGET) -> GedResult:
    """The previous ``ged_exact``, kept as the reference with only its
    prices written as units: each expansion costs every candidate, sorts
    them and pushes them all."""
    cost = cost or GedCostModel()
    deadline = time.monotonic() + budget

    best_mapping = {v: v if v in g2.vertices else None for v in g1.vertices}
    best_cost = metrics._script_for_mapping(g1, g2, best_mapping, cost).cost
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

    loops1, neighbours1, degree = metrics._index(g1)
    loops2, neighbours2, _ = metrics._index(g2)
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
            total = g_cost + (n2 - len(placed)) + inner2 + sum(cross2)
            if total < best_cost:
                best_cost = total
                best_mapping = dict(zip(order, assigned))
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
        mapped_h = gap(rem1, rem2 - 1) + base
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
        new_f = new_g + (gap(rem1, rem2) + base + out1 + in1 + gap(inner, inner2))
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

    return GedResult(distance=best_cost, complete=complete, mapping=best_mapping,
                     g1=g1, g2=g2, model=cost)


@dataclass(frozen=True)
class CountingCandidates(GedCostModel):
    """A model that records each candidate the search costs: the one
    vertex costing."""

    costed: list = field(default_factory=list, compare=False)

    def vertex_cost(self, label1: str, label2: str) -> float:
        self.costed.append((label1, label2))
        return super().vertex_cost(label1, label2)


def same_result(got: GedResult, want: GedResult) -> bool:
    return (got.distance, got.mapping, got.script.ops, got.complete) == \
        (want.distance, want.mapping, want.script.ops, want.complete)


def search(g1: PolicyGraph, g2: PolicyGraph, model: GedCostModel) -> GedResult:
    """The search core, placing g1's vertices whatever the edge counts."""
    return metrics._search(g1, g2, model, metrics.DEFAULT_GED_BUDGET)


class TestLazyExpansion:
    """Costing candidates only as far as the search reaches them pops the
    same nodes in the same order as costing them all at once."""

    # the eager reference places g1's vertices, so it is compared with the
    # search core; ged_exact may place g2's (see TestOrientation)
    @pytest.mark.parametrize("model", MODELS, ids=["default", "label_sensitive"])
    def test_same_result_as_the_eager_search(self, model):
        for index, (g1, g2) in enumerate(report_pairs()):
            assert same_result(search(g1, g2, model),
                               reference_ged_exact(g1, g2, cost=model)), ("report", index)
        rng = random.Random(43)
        for index in range(1000):
            g1, g2 = random_graph(rng), random_graph(rng)
            assert same_result(search(g1, g2, model),
                               reference_ged_exact(g1, g2, cost=model)), index

    def test_searching_report_pairs_cost_fewer_candidates(self):
        # fetch_fsm to tuck and to dock, and recharge to docking, search;
        # costing every candidate took 27, 27 and 35
        costed = {}
        for index, (g1, g2) in enumerate(report_pairs()):
            model = CountingCandidates()
            result = ged_exact(g1, g2, cost=model)
            assert result.complete, index
            if model.costed:
                costed[index] = len(model.costed)
        assert costed == {1: 12, 7: 10, 15: 16}


class TestAnchoredDistance:
    def test_identity_graphs(self, fetch_tree):
        graph = metrics.bt_to_graph(fetch_tree)
        assert ged_anchored(graph, graph).distance == 0

    def test_upper_bounds_exact_on_the_fixture_pairs(self, fetch_tree):
        base = metrics.bt_to_graph(fetch_tree)
        for recipe in (experiments.bt_with_tuck, experiments.bt_with_safe_move,
                       experiments.bt_with_dock, experiments.bt_with_recharge):
            other = metrics.bt_to_graph(recipe(experiments.fetch_bt()))
            anchored = ged_anchored(base, other).distance
            exact = ged_exact(base, other).distance
            assert anchored >= exact

    def test_scalability_distances(self):
        bt_pair = (metrics.bt_to_graph(experiments.scalability_bt()),
                   metrics.bt_to_graph(
                       experiments.bt_with_recharge(experiments.scalability_bt())))
        fsm_pair = (metrics.fsm_to_graph(experiments.scalability_fsm()),
                    metrics.fsm_to_graph(
                        experiments.fsm_with_recharge(experiments.scalability_fsm())))
        assert ged_anchored(*bt_pair).distance == 6
        assert ged_anchored(*fsm_pair).distance == 26

    def test_anchored_script_applies(self, fetch_tree):
        base = metrics.bt_to_graph(fetch_tree)
        other = metrics.bt_to_graph(experiments.bt_with_recharge(experiments.fetch_bt()))
        result = ged_anchored(base, other)
        assert isomorphic(apply_script(base, result.script), other)
        assert result.script.n_star == 4


class TestLazyScript:
    """The anchored incumbent is costed without a script, and a result
    builds its script from its mapping only when it is read."""

    def assert_seed_cost(self, g1, g2, where):
        anchored = {v: v if v in g2.vertices else None for v in g1.vertices}
        for model in MODELS:
            want = metrics._script_for_mapping(g1, g2, anchored, model).cost
            assert metrics._anchored_cost(g1, g2, model) == want, (where, model)

    def test_the_seed_cost_is_the_anchored_scripts_cost(self):
        for index, (g1, g2) in enumerate(report_pairs()):
            self.assert_seed_cost(g1, g2, ("report", index))
        rng = random.Random(53)
        for index in range(500):
            self.assert_seed_cost(random_graph(rng), random_graph(rng), index)

    def test_the_report_builds_no_script(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("edit script built for a distance only")

        monkeypatch.setattr(metrics, "_script_for_mapping", refuse)
        for table in (2, 3):
            assert report.build_report(table).ok, table

    def test_the_script_is_built_once(self):
        base = metrics.bt_to_graph(fixtures.load_policy("fetch_bt"))
        tuck = metrics.bt_to_graph(fixtures.load_policy("fetch_bt_tuck"))
        for result in (ged_exact(base, tuck), ged_anchored(base, tuck)):
            assert result.script is result.script
            assert result.script.cost == result.distance == 6
            assert result.model is metrics.DEFAULT_COST  # shared, not built per call


def inverted(mapping: dict, vertices) -> dict:
    """The mapping of ``vertices`` that ``mapping`` (onto them) inverts;
    a vertex nothing maps onto gets None."""
    return {v1: next((v2 for v2, image in mapping.items() if image == v1), None)
            for v1 in vertices}


def denser_first_pairs(count: int) -> list:
    """Seeded random pairs whose first graph has more edges."""
    rng = random.Random(59)
    pairs = []
    while len(pairs) < count:
        g1, g2 = random_graph(rng, max_vertices=6), random_graph(rng, max_vertices=6)
        if len(g1.edges) > len(g2.edges):
            pairs.append((g1, g2))
    return pairs


class TestOrientation:
    """``ged_exact`` places the vertices of the graph with fewer edges: a
    denser first graph is searched from the second one under the same
    model, and the mapping inverted."""

    @pytest.mark.parametrize("model", [*MODELS, CountingCandidates(labels=True)],
                             ids=["default", "label_sensitive", "counting"])
    def test_denser_first_pairs_invert_the_reversed_search(self, model):
        for index, (g1, g2) in enumerate(denser_first_pairs(40)):
            result = ged_exact(g1, g2, cost=model)
            core = search(g2, g1, model)
            assert result.mapping == inverted(core.mapping, g1.vertices), index
            assert result.complete and result.distance == core.distance, index
            assert result.distance == brute_force_ged(g1, g2, model), index
            assert result.model is model and result.script.cost == result.distance, index
            assert isomorphic(apply_script(g1, result.script), g2), index

    def test_an_edge_tie_keeps_the_given_order(self):
        # two edges each; searched the other way, every model maps them otherwise
        g1 = PolicyGraph(vertices={0: "b", 1: "c", 2: "b", 3: "b"},
                         edges={(1, 2, "y"), (2, 2, "x")})
        g2 = PolicyGraph(vertices={0: "a", 1: "b", 2: "a", 3: "c"},
                         edges={(2, 1, "y"), (0, 3, "y")})
        for model in MODELS:
            backwards = search(g2, g1, model)
            assert search(g1, g2, model).mapping != inverted(backwards.mapping,
                                                             g1.vertices), model
            assert same_result(ged_exact(g1, g2, cost=model), search(g1, g2, model)), model


def test_brute_force_size_limit():
    with pytest.raises(ValidationError, match="limited"):
        brute_force_ged(path_graph(8), path_graph(3))


class TestScalarMetrics:
    def test_cyclomatic_of_machines(self, fetch_machine):
        assert cyclomatic(metrics.fsm_to_graph(fetch_machine)) == 14
        recharge = experiments.fsm_with_recharge(experiments.fetch_fsm())
        assert cyclomatic(metrics.fsm_to_graph(recharge)) == 20

    def test_every_tree_scores_one(self):
        for tree in (experiments.fetch_bt(), experiments.scalability_bt(),
                     experiments.development_bt(), fixtures.load_policy("fetch_bt_compact")):
            assert cyclomatic(metrics.bt_to_graph(tree)) == 1

    def test_effort_examples(self):
        assert effort(4, 0) == 15
        assert effort(0, 0) == 3
        assert effort(4, 1) == effort_m(5, 1) == 22

    def test_effort_forms_agree_on_a_grid(self):
        for sequential in range(21):
            for connected in range(21):
                assert effort(sequential, connected) == \
                    effort_m(sequential + connected, connected)

    def test_hfsm_distance_formula(self):
        assert ged_hfsm_formula(1, 1, 1) == 12
        assert ged_hfsm_formula(0, 0, 0) == 0
        assert ged_hfsm_formula(1, 1, 2) == 17
        with pytest.raises(ValidationError):
            ged_hfsm_formula(-1, 0, 0)

    def test_formula_estimates_match_the_built_baselines(self, fetch_tree, fetch_machine):
        from policylab import bt as bt_mod, fsm as fsm_mod
        tree_estimate = formula_estimates("bt", 4)
        tree_counts = bt_mod.count_elements(fetch_tree)
        assert tree_estimate["graphical"] == tree_counts["graphical"] == 27
        assert tree_estimate["active"] == tree_counts["active"] == 14

        machine_estimate = formula_estimates("fsm", 4)
        machine_counts = fsm_mod.count_elements(fetch_machine)
        assert machine_estimate["graphical"] == machine_counts["graphical"] == 24

    def test_machine_estimate_is_approximate_within_one(self):
        from policylab import fsm as fsm_mod
        machine = experiments.fsm_with_recharge(experiments.fetch_fsm())
        actual = fsm_mod.count_elements(machine)["graphical"]
        estimate = formula_estimates("fsm", 5, 1)["graphical"]
        assert estimate == 33 and actual == 32
        assert abs(estimate - actual) <= 1

    def test_fully_connected_alternative(self):
        assert fully_connected_elements(5) == 20
        assert formula_estimates("hfsm", 4) == {"graphical": 141, "active": 113}

    def test_structure_counts_consistency(self):
        estimate = formula_estimates("fsm", 5, 1)
        assert estimate == {"graphical": 5 * 5 + 4 + 4, "active": 5 * 5 + 4 + 4}
        with pytest.raises(ValidationError, match="cannot exceed"):
            formula_estimates("fsm", 1, 2)


def generated_tasks():
    """Tables and goal order of tasks with 1-9 cubes: in order, then seeded."""
    rng = random.Random(7)
    for cubes in range(1, 10):
        yield list(range(1, cubes + 1)), None
        yield rng.sample(range(1, 10), cubes), rng.sample(range(1, cubes + 1), cubes)


def test_closed_forms_hold_over_generated_task_sizes():
    # the paper's maintainability claim as the task grows: the tree's
    # recharge edit stays at 6 while the machine's grows with the plan
    for tables, goal_order in generated_tasks():
        tree, plan = planner.synthesize(*experiments.generated_task(tables, goal_order))
        machine = fsm.build_fault_tolerant(plan)
        steps = len(plan.steps)
        assert steps == 4 * len(tables) + 2, tables
        tree_counts = bt.count_elements(tree)
        assert (tree_counts["graphical"], tree_counts["active"]) == (7 * steps - 1, 3.5 * steps)
        assert formula_estimates("bt", steps) == {"graphical": 7 * steps - 1,
                                                  "active": 3.5 * steps}
        machine_graphical = fsm.count_elements(machine)["graphical"]
        assert machine_graphical == formula_estimates("fsm", steps)["graphical"] == 5 * steps + 4
        tree_graph, machine_graph = metrics.bt_to_graph(tree), metrics.fsm_to_graph(machine)
        assert (cyclomatic(tree_graph), cyclomatic(machine_graph)) == (1, 3 * steps + 2)
        tree_edit = ged_exact(tree_graph,
                              metrics.bt_to_graph(experiments.bt_with_recharge(tree)))
        machine_edit = ged_exact(machine_graph,
                                 metrics.fsm_to_graph(experiments.fsm_with_recharge(machine)))
        assert (tree_edit.distance, tree_edit.complete) == (6, True), tables
        assert (machine_edit.distance, machine_edit.complete) == (steps + 4, True), tables
