"""Graph encodings, edit distance solvers and the closed-form measures."""

import itertools
import random

import pytest

from policylab import experiments, fixtures, hfsm, metrics, report
from policylab.core import ValidationError
from policylab.metrics import (
    EditScript,
    GedCostModel,
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


#: insert and delete prices differ, so a swapped one-sided charge shows
ASYMMETRIC = GedCostModel(node_insert=2, node_delete=1, node_substitute=1,
                          edge_insert=3, edge_delete=1, edge_substitute=2)


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
        assert len(graph.sinks) == 8  # leaves: four conditions, four actions

    def test_machine_graph_counts(self, fetch_machine):
        graph = metrics.fsm_to_graph(fetch_machine)
        assert (graph.order(), graph.size()) == (6, 18)
        assert graph.sinks == frozenset(fetch_machine.outcome_ids())

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

    @pytest.mark.parametrize("model", [metrics.LABEL_SENSITIVE, ASYMMETRIC],
                             ids=["label_sensitive", "asymmetric"])
    def test_oracle_agreement_under_label_models(self, model):
        # the default model prices parallel edges by count alone, so a
        # label-matching or one-sided charge shows only under these
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
            result = ged_exact(g1, g2, cost=ASYMMETRIC)
            assert result.complete, index
            assert result.distance == brute_force_ged(g1, g2, ASYMMETRIC), index

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

    def test_negative_costs_rejected(self):
        with pytest.raises(ValidationError):
            GedCostModel(node_insert=-1)


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


class TestSparseSearch:
    def test_asymmetric_model_matches_the_oracle(self):
        rng = random.Random(29)
        for index in range(100):
            g1, g2 = random_graph(rng, max_vertices=6), random_graph(rng, max_vertices=6)
            result = ged_exact(g1, g2, cost=ASYMMETRIC)
            assert result.complete, index
            assert result.distance == brute_force_ged(g1, g2, ASYMMETRIC), index
            assert result.script.cost == result.distance, index
            assert isomorphic(apply_script(g1, result.script), g2), index

    def test_pairs_proven_at_the_root_build_no_index(self, monkeypatch):
        def refuse(graph):
            raise AssertionError("index built for a pair the root bound proves")

        monkeypatch.setattr(metrics, "_pair_index", refuse)
        monkeypatch.setattr(metrics, "_degrees", refuse)
        base = metrics.bt_to_graph(fixtures.load_policy("fetch_bt"))
        tuck = metrics.bt_to_graph(fixtures.load_policy("fetch_bt_tuck"))
        result = ged_exact(base, tuck)
        assert result.complete
        assert result.distance == 6

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


def reference_script_for_mapping(g1: PolicyGraph, g2: PolicyGraph, mapping: dict,
                                 cost: GedCostModel) -> EditScript:
    """The previous ``_script_for_mapping``, kept verbatim as the reference:
    it sorts every edge and reconciles every matched pair."""
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


def random_injective_mapping(rng, g1, g2):
    targets = list(g2.vertices) + [None] * len(g1.vertices)
    rng.shuffle(targets)
    return dict(zip(g1.vertices, targets))


#: fractional and asymmetric, so a change in summation order shows in the cost
FRACTIONAL = GedCostModel(node_insert=0.7, node_delete=1.3, node_substitute=0.1,
                          edge_insert=0.3, edge_delete=1.1, edge_substitute=0.45)
SCRIPT_MODELS = (GedCostModel(), metrics.LABEL_SENSITIVE, FRACTIONAL)


class TestScriptForMapping:
    """Edit scripts reconcile only the edges that differ, with the same ops,
    in the same order, and the same cost as reconciling every edge."""

    def assert_same_script(self, g1, g2, mapping, where):
        for model in SCRIPT_MODELS:
            got = metrics._script_for_mapping(g1, g2, mapping, model)
            want = reference_script_for_mapping(g1, g2, mapping, model)
            assert got.ops == want.ops, (where, model)
            assert got.cost == want.cost, (where, model)

    def test_report_pairs(self):
        pairs = [(g1, g2) for _, _, g1, g2, _ in reference_pairs()]
        pairs += experiment_pairs()
        assert len(pairs) == 18
        rng = random.Random(37)
        for index, (g1, g2) in enumerate(pairs):
            anchored = {v: v if v in g2.vertices else None for v in g1.vertices}
            self.assert_same_script(g1, g2, anchored, (index, "anchored"))
            self.assert_same_script(g1, g2, ged_exact(g1, g2).mapping, (index, "exact"))
            for draw in range(5):
                mapping = random_injective_mapping(rng, g1, g2)
                self.assert_same_script(g1, g2, mapping, (index, draw))

    def test_random_pairs_and_mappings(self):
        rng = random.Random(41)
        for index in range(1200):
            g1, g2 = random_graph(rng), random_graph(rng)
            self.assert_same_script(g1, g2, random_injective_mapping(rng, g1, g2), index)


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
