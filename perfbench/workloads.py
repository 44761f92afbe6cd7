"""The four benchmark workloads, driven through policylab's public API.

A workload is built from ``(seed)`` in set-up, then hands out passes of
inputs: pass ``k`` is generated from ``(seed, k)`` alone, so the same
seed always yields the same inputs and pass 0 carries the deterministic
counts. Each input is one operation: ``run`` is the timed call into the
program, ``check`` runs afterwards, outside the timed region, and returns
the list of violated checks. ``work`` is how many units of the
workload's throughput metric one operation completed.

The program sees only the generated inputs, never the seed.
"""

from __future__ import annotations

import dataclasses
import hashlib
import random
import time
from collections import Counter

from policylab import (  # noqa: F401  (cli: part of the cold start users pay)
    bt, cli, documents, experiments, fixtures, fsm, hfsm, metrics, planner, report,
    simworld,
)
from policylab.core import ActionSpec, ConditionLiteral as L, Goal, validate_action_library
from policylab.simworld import Perturbation


class Workload:
    """Defaults: one unit of work per operation, no timed parts, no late checks."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.parts = {}  # timed sub-steps of an operation: name -> seconds per operation
        self.counts = Counter()  # deterministic counts over pass 0

    def rng(self, index: int) -> random.Random:
        return random.Random(f"{self.name}/{self.seed}/{index}")

    def work(self, item, result) -> float:
        return 1

    def finish(self) -> list:
        """Checks too slow to run between operations; run once measuring is over."""
        return []


class Tables(Workload):
    """``build_report(2)`` and ``build_report(3)`` on the packaged fixtures.

    One operation regenerates both reference tables, which is what
    ``policylab report --table 2`` and ``--table 3`` do. Nearly all of
    it is exact edit distance on related pairs, where one graph is an
    edit of the other. The inputs are the fixtures, so the seed is unused.
    """

    name = "tables"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.parts = {"table2_s": [], "table3_s": []}

    def pass_inputs(self, index: int) -> list:
        return [index]

    def fingerprint(self, item) -> str:
        return "fixtures"

    def run(self, item):
        started = time.perf_counter()
        table2 = report.build_report(2)
        middle = time.perf_counter()
        table3 = report.build_report(3)
        self.parts["table2_s"].append(middle - started)
        self.parts["table3_s"].append(time.perf_counter() - middle)
        return table2, table3

    def work(self, item, result) -> float:
        return 2

    def check(self, item, result, first_pass: bool) -> list:
        problems = [f"table {table.title!r} has a mismatched cell"
                    for table in result if not table.ok]
        if first_pass:
            cells = [cell for table in result for _, row in table.rows
                     for cell in row.values()]
            distances = [cell.computed for cell in cells if cell.column in ("bt", "fsm", "hfsm")]
            distances += [sum(cell.computed) for cell in cells if cell.column == "ed"]
            self.counts.update(cells=len(cells), distance_sum=sum(distances),
                               cells_matched=sum(table.matched for table in result))
        return problems


def random_graph(rng: random.Random, n: int, density: float) -> metrics.PolicyGraph:
    """The acceptance gate's oracle-pair shape: 2-7 vertices, up to 2n edges.

    ``density`` in [0, 1) picks the edge count among 0..2n.
    """
    vertices = {i: rng.choice("abc") for i in range(n)}
    edges = {(rng.randrange(n), rng.randrange(n), rng.choice("xy"))
             for _ in range(int(density * (2 * n + 1)))}
    return metrics.PolicyGraph(vertices=vertices, edges=edges)


def random_pairs(rng: random.Random, blocks: int) -> list:
    """Pairs in blocks of 36, one per (order of g1, order of g2) cell.

    Each graph is drawn as in the acceptance gate: order uniform in 2..7,
    edge count uniform in 0..2n. Sampling is stratified over the orders and
    the edge densities inside each block, because a few dense 7-vertex pairs
    hold most of the search time and plain sampling would make the workload's
    total depend on how many of them a seed happens to draw.
    """
    cells = [(n1, n2) for n1 in range(2, 8) for n2 in range(2, 8)]
    pairs = []
    for _ in range(blocks):
        rng.shuffle(cells)
        strata = [[(i + rng.random()) / len(cells) for i in range(len(cells))]
                  for _ in range(2)]
        for stratum in strata:
            rng.shuffle(stratum)
        for (n1, n2), d1, d2 in zip(cells, *strata):
            pairs.append((random_graph(rng, n1, d1), random_graph(rng, n2, d2)))
    return pairs


class GedSearch(Workload):
    """``metrics.ged_exact`` on seeded random unrelated graph pairs.

    The anchored and greedy incumbents are loose on unrelated pairs, so
    the best-first search does the work; the cost is heavily skewed, a
    few dense 6-7 vertex pairs take most of the time. Every pass is a
    fresh sample so a run covers thousands of distinct pairs.
    """

    name = "ged_search"
    blocks_per_pass = 6
    #: pairs of pass 0 also checked against the exhaustive oracle; the
    #: oracle takes up to seconds per 7-vertex pair, so not every pair
    oracle_pairs = 10

    def __init__(self, seed: int):
        super().__init__(seed)
        self._oracle = []

    def pass_inputs(self, index: int) -> list:
        pairs = random_pairs(self.rng(index), self.blocks_per_pass)
        return [(index, position, g1, g2) for position, (g1, g2) in enumerate(pairs)]

    def fingerprint(self, item) -> str:
        return repr([(sorted(graph.vertices.items()), sorted(graph.edges))
                     for graph in item[2:]])

    def run(self, item):
        _, _, g1, g2 = item
        return metrics.ged_exact(g1, g2)

    def check(self, item, result, first_pass: bool) -> list:
        index, position, g1, g2 = item
        where = f"pass {index} pair {position}"
        if not result.complete:
            return [f"{where}: search ran out of budget"]
        problems = []
        if not metrics.isomorphic(metrics.apply_script(g1, result.script), g2):
            problems.append(f"{where}: edit script does not rebuild the target")
        if result.distance > metrics.ged_anchored(g1, g2).distance:
            problems.append(f"{where}: distance exceeds the anchored upper bound")
        if first_pass:
            self.counts["pairs"] += 1
            self.counts["distance_sum"] += result.distance
            if position < self.oracle_pairs:
                self._oracle.append((where, g1, g2, result.distance))
        return problems

    def finish(self) -> list:
        problems = []
        for where, g1, g2, distance in self._oracle:
            self.counts["oracle_checked"] += 1
            if distance != metrics.brute_force_ged(g1, g2):
                problems.append(f"{where}: distance differs from the oracle")
        return problems


@dataclasses.dataclass
class CaseStudy:
    name: str
    tree: object
    machine: object
    nested: object
    scenario: object
    skills: tuple
    items: tuple
    length: int


class Episodes(Workload):
    """The cross-representation variant sweep through ``simworld.run_episode``.

    For each case study (fetch, recharge, development/docking,
    scalability) the variants are: the fixture scenario itself, each
    skill failing on its 1st, 2nd or 3rd invocation, and each
    perturbation at seeded ticks. Every variant runs on the tree, the
    fault-tolerant machine and the nested machine; naive-ordering trees
    chatter on the baseline and chattering scenarios. No edit distance.
    """

    name = "episodes"
    ticks_per_perturbation = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        self._pending = {}
        builders = {
            "baseline": lambda: (fixtures.load_policy("fetch_bt"),
                                 fixtures.load_policy("fetch_fsm")),
            "recharge": lambda: (fixtures.load_policy("fetch_bt_recharge"),
                                 fixtures.load_policy("fetch_fsm_recharge")),
            "docking": lambda: (experiments.development_bt(),
                                experiments.development_fsm()),
            "scalability": lambda: (experiments.scalability_bt(),
                                    experiments.scalability_fsm()),
        }
        self.cases = []
        for name, build in builders.items():
            tree, machine = build()
            scenario = fixtures.load_scenario(name)
            skills = tuple(sorted({node.skill for node in tree.nodes.values()
                                   if node.kind == "action"}))
            base = simworld.run_episode(tree, scenario)
            self.cases.append(CaseStudy(name, tree, machine, hfsm.from_bt(tree), scenario,
                                        skills, tuple(sorted(scenario.items)), base.ticks))
        self.naive = fixtures.load_policy("fetch_bt_naive")
        self.naive_scenarios = [fixtures.load_scenario("baseline"),
                                fixtures.load_scenario("chattering")]

    def _variants(self, case: CaseStudy, rng: random.Random) -> list:
        base = case.scenario
        out = [("fixture", base)]
        for skill in case.skills:
            for nth in (1, 2, 3):
                out.append((f"fail {skill} #{nth}", dataclasses.replace(
                    base, failures=base.failures + ((skill, None, nth),))))
        taken = {p.tick for p in base.perturbations}
        free = [tick for tick in range(1, case.length) if tick not in taken]
        for kind in ("knock", "battery", "force_fail"):
            for tick in sorted(rng.sample(free, min(self.ticks_per_perturbation, len(free)))):
                if kind == "knock":
                    item = rng.choice(case.items)
                    event = Perturbation(tick, "set_item_location",
                                         (item, base.items[item]))
                elif kind == "battery":
                    event = Perturbation(tick, "set_battery", (15,))
                else:
                    event = Perturbation(tick, "force_fail_next", (rng.choice(case.skills),))
                perturbations = tuple(sorted(base.perturbations + (event,),
                                             key=lambda p: p.tick))
                out.append((f"{kind}@{tick}", dataclasses.replace(
                    base, perturbations=perturbations)))
        return out

    def pass_inputs(self, index: int) -> list:
        rng = self.rng(index)
        items = []
        for case in self.cases:
            for label, scenario in self._variants(case, rng):
                variant = (index, case.name, label)
                for engine, policy in (("tree", case.tree), ("machine", case.machine),
                                       ("nested", case.nested)):
                    items.append((variant, engine, policy, scenario))
        for scenario in self.naive_scenarios:
            items.append(((index, "naive", scenario.name), "naive", self.naive, scenario))
        return items

    def fingerprint(self, item) -> str:
        (_, case, label), engine, _, scenario = item
        return f"{case} {label} {engine} {simworld.serialize_scenario(scenario)}"

    def run(self, item):
        _, _, policy, scenario = item
        return simworld.run_episode(policy, scenario)

    def work(self, item, result) -> float:
        return result.ticks

    def check(self, item, result, first_pass: bool) -> list:
        (index, case, label), engine, _, _ = item
        where = f"pass {index} {case} {label} on the {engine}"
        problems = []
        if engine == "naive":
            if not (result.timed_out and simworld.detect_chattering(result)):
                problems.append(f"{where}: naive ordering was not caught chattering")
        elif label == "fixture" and result.outcome != "SUCCESS":
            problems.append(f"{where}: fixture scenario ended {result.outcome}")
        if engine != "naive":
            traces = self._pending.setdefault(item[0], {})
            traces[engine] = result
            if len(traces) == 3:
                del self._pending[item[0]]
                if not simworld.traces_equivalent(traces["tree"], traces["nested"]):
                    problems.append(f"pass {index} {case} {label}: "
                                    "tree and nested machine traces differ")
                if first_pass:
                    self.counts["tree_machine_divergences"] += not simworld.traces_equivalent(
                        traces["tree"], traces["machine"])
        if first_pass:
            lifecycle = result.skill_lifecycle()
            self.counts.update({
                "episodes": 1,
                "ticks": result.ticks,
                "events": len(result.events),
                "skill_starts": len(lifecycle),
                "useful_starts": sum(outcome == "success" for _, _, outcome in lifecycle),
                "preempts": len(result.skill_events("skill_preempt")),
                "timeouts": int(result.timed_out),
                f"outcome_{result.outcome}": 1,
            })
        return problems


def authoring_task(rng: random.Random, items: int):
    """A goal/library pair after the scalability recipe, with ``items`` cubes.

    Search, then one fetch round per cube from its own table, then dock.
    Tables and the order in which the goal lists the cubes are seeded.
    """
    tables = rng.sample(range(1, 10), items)
    specs = [ActionSpec("search", (), postconditions=(L("found"),), skill="search")]
    for number, table in enumerate(tables, start=1):
        cube, station = f"cube{number}", f"fetch{table}"
        specs.append(ActionSpec("move_to", (station,),
                                postconditions=(L("robot_at", (station,)),)))
        specs.append(ActionSpec("pick", (cube,),
                                preconditions=(L("robot_at", (station,)),),
                                postconditions=(L("in_hand", (cube,)),)))
        specs.append(ActionSpec("place", (cube,),
                                preconditions=(L("robot_at", ("delivery",)),
                                               L("in_hand", (cube,))),
                                postconditions=(L("object_at", (cube, "delivery")),)))
    specs.append(ActionSpec("move_to", ("delivery",),
                            postconditions=(L("robot_at", ("delivery",)),)))
    specs.append(ActionSpec("dock", (), postconditions=(L("docked"),)))
    cubes = [L("object_at", (f"cube{number}", "delivery")) for number in range(1, items + 1)]
    rng.shuffle(cubes)
    goal = Goal(conditions=(L("found"), *cubes, L("docked")))
    edited_cube = f"cube{rng.randint(1, items)}"
    return goal, validate_action_library(specs), edited_cube


class Authoring(Workload):
    """Synthesis, building, documents, one edit and the structure metrics.

    One operation takes a generated goal/library pair through the whole
    authoring path: both precondition orderings and plan extraction, the
    sequential and fault-tolerant machine builders and the nested machine,
    a serialize/parse round trip of every policy, one subtree insertion,
    then the graph encoders, cyclomatic complexity, element counts and the
    anchored distance of the edit. A pass has one task per cube count.
    """

    name = "authoring"
    max_items = 6
    #: anchored distance of inserting a guarded 3-node subtree: 3 vertices, 3 edges
    edit_distance = 6

    def __init__(self, seed: int):
        super().__init__(seed)
        self._digest = hashlib.sha256()

    def pass_inputs(self, index: int) -> list:
        rng = self.rng(index)
        return [(index, items, *authoring_task(rng, items))
                for items in range(1, self.max_items + 1)]

    def fingerprint(self, item) -> str:
        _, _, goal, library, edited_cube = item
        return (documents.serialize_goal(goal) + documents.serialize_library(library)
                + edited_cube)

    def run(self, item):
        _, _, goal, library, edited_cube = item
        safe = planner.backchain(goal, library, "safe")
        naive = planner.backchain(goal, library, "naive")
        plan = planner.extract_plan(goal, library)
        sequential = fsm.build_sequential(plan)
        tolerant = fsm.build_fault_tolerant(plan)
        nested = hfsm.from_bt(safe)
        texts = [documents.serialize_policy(policy)
                 for policy in (safe, naive, sequential, tolerant, nested)]
        parsed = [documents.parse_policy_document(text) for text in texts]
        edited = parsed[0]
        pick = experiments.find_action(edited, "pick", (edited_cube,))
        bt.insert_subtree(edited, edited.parent_of(pick), 0,
                          experiments.tuck_subtree(edited.next_id()))
        base_graph = metrics.bt_to_graph(safe)
        machine_graph = metrics.fsm_to_graph(tolerant)
        nested_graph = metrics.hfsm_to_graph(nested)
        measures = {
            "cyclomatic": metrics.cyclomatic(machine_graph) + metrics.cyclomatic(base_graph),
            "graphical": (bt.count_elements(safe)["graphical"]
                          + fsm.count_elements(tolerant)["graphical"]),
            "nested_vertices": nested_graph.order(),
            "edit_distance": metrics.ged_anchored(base_graph,
                                                  metrics.bt_to_graph(edited)).distance,
        }
        return texts, parsed, measures, len(plan)

    def check(self, item, result, first_pass: bool) -> list:
        index, items, _, _, _ = item
        texts, parsed, measures, plan_steps = result
        where = f"pass {index} task with {items} cubes"
        problems = []
        # the first parsed policy carries the edit, so its round trip is re-parsed
        reparsed = [documents.parse_policy_document(texts[0]), *parsed[1:]]
        for text, policy in zip(texts, reparsed):
            if documents.serialize_policy(policy) != text:
                problems.append(f"{where}: {type(policy).__name__} does not round-trip")
        if measures["edit_distance"] != self.edit_distance:
            problems.append(f"{where}: anchored distance of the edit is "
                            f"{measures['edit_distance']}, not {self.edit_distance}")
        if first_pass:
            for text in texts:
                self._digest.update(text.encode())
            self.counts["documents_sha256"] = self._digest.hexdigest()[:16]
            self.counts.update(measures, plan_steps=plan_steps,
                               document_bytes=sum(len(text) for text in texts))
        return problems


WORKLOADS = {cls.name: cls for cls in (Tables, GedSearch, Episodes, Authoring)}
