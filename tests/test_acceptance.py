"""Acceptance gate: one test per criterion, exact tolerances, no slack.

Each test prints a PASS line naming the criterion once its assertions
hold (run with ``pytest -s`` to see them). Expected values are the
published reference numbers; where the reference disagrees with itself
(the docking machine's edit distance) the computed exact value must hit
one of the two published figures and the report documents which.
"""

import random
import time

import pytest

from conftest import relocation_scenario
from policylab import bt, experiments, fixtures, fsm, hfsm, metrics, report, simworld
from policylab.core import ActionSpec, ConditionLiteral as L
from policylab.planner import Plan, PlanStep


def announce(number: int, text: str) -> None:
    print(f"PASS criterion {number}: {text}")


def exact(g1, g2, limit=60.0):
    started = time.monotonic()
    result = metrics.ged_exact(g1, g2, budget=limit)
    elapsed = time.monotonic() - started
    assert result.complete, "edit distance search must finish within its budget"
    assert elapsed < limit
    return result.distance


def test_criterion_1_modification_distances():
    base_bt = metrics.bt_to_graph(fixtures.load_policy("fetch_bt"))
    base_fsm = metrics.fsm_to_graph(fixtures.load_policy("fetch_fsm"))
    base_h = metrics.hfsm_to_graph(hfsm.from_bt(fixtures.load_policy("fetch_bt")))
    expected = {
        "tuck": (6, 5, 12),
        "safe_move": (2, 4, 4),
        "dock": (8, 5, 17),
        "recharge": (8, 8, 17),
    }
    for name, (want_bt, want_fsm, want_h) in expected.items():
        tree = fixtures.load_policy(f"fetch_bt_{name}")
        machine = fixtures.load_policy(f"fetch_fsm_{name}")
        assert exact(base_bt, metrics.bt_to_graph(tree)) == want_bt, name
        assert exact(base_fsm, metrics.fsm_to_graph(machine)) == want_fsm, name
        assert exact(base_h, metrics.hfsm_to_graph(hfsm.from_bt(tree))) == want_h, name
    announce(1, "modification distances reproduce exactly "
                "(bt 6/2/8/8, fsm 5/4/5/8, hfsm 12/4/17/17), each pair under 60 s")


def test_criterion_2_cyclomatic_column():
    started = time.monotonic()
    machines = [
        experiments.fetch_fsm(),
        experiments.fsm_with_recharge(experiments.fetch_fsm()),
        experiments.development_fsm(),
        experiments.scalability_fsm(),
        experiments.fsm_with_recharge(experiments.scalability_fsm()),
    ]
    values = [metrics.cyclomatic(metrics.fsm_to_graph(m)) for m in machines]
    assert values == [14, 20, 24, 68, 92]
    trees = [
        experiments.fetch_bt(),
        experiments.bt_with_recharge(experiments.fetch_bt()),
        experiments.development_bt(),
        experiments.scalability_bt(),
        experiments.bt_with_recharge(experiments.scalability_bt()),
    ]
    assert [metrics.cyclomatic(metrics.bt_to_graph(t)) for t in trees] == [1] * 5
    assert time.monotonic() - started < 1.0
    announce(2, "cyclomatic complexity is 14/20/24/68/92 for the machines "
                "and 1 for every tree, in under a second")


def test_criterion_3_element_counts():
    rows = [
        (experiments.fetch_bt(), experiments.fetch_fsm(), (27, 24), (14, 24)),
        (experiments.bt_with_recharge(experiments.fetch_bt()),
         experiments.fsm_with_recharge(experiments.fetch_fsm()), (35, 32), (18, 32)),
        (experiments.development_bt(), experiments.development_fsm(),
         (41, 38), (21, 38)),
        (experiments.scalability_bt(), experiments.scalability_fsm(),
         (153, 114), (77, 114)),
        (experiments.bt_with_recharge(experiments.scalability_bt()),
         experiments.fsm_with_recharge(experiments.scalability_fsm()),
         (159, 140), (80, 140)),
    ]
    for tree, machine, graphical, active in rows:
        tree_counts = bt.count_elements(tree)
        machine_counts = fsm.count_elements(machine)
        assert (tree_counts["graphical"], machine_counts["graphical"]) == graphical
        assert (tree_counts["active"], machine_counts["active"]) == active
    announce(3, "graphical elements 27/24, 35/32, 41/38, 153/114, 159/140 and "
                "active elements 14/24, 18/32, 21/38, 77/114, 80/140")


def test_criterion_4_experiment_edit_distances():
    base_bt = metrics.bt_to_graph(fixtures.load_policy("fetch_bt"))
    base_fsm = metrics.fsm_to_graph(fixtures.load_policy("fetch_fsm"))
    recharge_bt = metrics.bt_to_graph(fixtures.load_policy("fetch_bt_recharge"))
    recharge_fsm = metrics.fsm_to_graph(fixtures.load_policy("fetch_fsm_recharge"))
    assert exact(base_bt, recharge_bt) == 8
    assert exact(base_fsm, recharge_fsm) == 8

    docking_bt = metrics.bt_to_graph(
        experiments.bt_with_dock(fixtures.load_policy("fetch_bt_recharge")))
    assert exact(recharge_bt, docking_bt) == 6

    docking_fsm = metrics.fsm_to_graph(
        experiments.fsm_with_dock(fixtures.load_policy("fetch_fsm_recharge")))
    machine_docking = int(exact(recharge_fsm, docking_fsm))
    assert machine_docking in (6, 8)  # the reference quotes both
    table = report.experiment_table_report()
    docking_cell = dict(table.rows)["development/docking"]["ed"]
    assert docking_cell.status == "documented"
    assert docking_cell.computed == [6, machine_docking]

    scal_bt = metrics.bt_to_graph(experiments.scalability_bt())
    scal_bt_re = metrics.bt_to_graph(
        experiments.bt_with_recharge(experiments.scalability_bt()))
    scal_fsm = metrics.fsm_to_graph(experiments.scalability_fsm())
    scal_fsm_re = metrics.fsm_to_graph(
        experiments.fsm_with_recharge(experiments.scalability_fsm()))
    assert metrics.ged_anchored(scal_bt, scal_bt_re).distance == 6
    assert metrics.ged_anchored(scal_fsm, scal_fsm_re).distance == 26
    announce(4, f"recharge distances 8/8 exact, docking 6 for the tree and "
                f"{machine_docking} (documented) for the machine, scalability "
                f"6/26 anchored")


def test_criterion_5_effort():
    assert metrics.effort(4, 0) == 15
    sequential = metrics.fsm_to_graph(fixtures.load_policy("fetch_fsm_sequential"))
    fault_tolerant = metrics.fsm_to_graph(fixtures.load_policy("fetch_fsm"))
    assert exact(sequential, fault_tolerant) == 15
    for m_s in range(21):
        for m_fc in range(21):
            assert metrics.effort(m_s, m_fc) == metrics.effort_m(m_s + m_fc, m_fc)
    announce(5, "effort(4,0) = 15 equals the sequential-to-reactive edit "
                "distance; both closed forms agree on the full 21x21 grid")


def test_criterion_6_planner_fidelity():
    safe = metrics.bt_to_graph(experiments.fetch_bt())
    naive = metrics.bt_to_graph(experiments.fetch_bt("naive"))
    assert exact(safe, metrics.bt_to_graph(fixtures.load_policy("fetch_bt"))) == 0
    assert exact(naive, metrics.bt_to_graph(fixtures.load_policy("fetch_bt_naive"))) == 0
    announce(6, "safe synthesis is isomorphic to the frozen baseline tree and "
                "naive synthesis to the chattering one (distance 0)")


def _equivalence_case(scenario_name):
    if scenario_name == "scalability":
        tree = experiments.scalability_bt()
        machine = experiments.scalability_fsm()
    elif scenario_name == "recharge":
        tree = experiments.bt_with_recharge(experiments.fetch_bt())
        machine = experiments.fsm_with_recharge(experiments.fetch_fsm())
    elif scenario_name == "docking":
        tree = experiments.development_bt()
        machine = experiments.development_fsm()
    else:
        tree = experiments.fetch_bt()
        machine = experiments.fetch_fsm()
    return tree, machine


def test_criterion_7_behavioral_equivalence():
    for name in ("baseline", "recharge", "docking", "scalability"):
        tree, machine = _equivalence_case(name)
        nested = hfsm.from_bt(tree)
        traces = []
        for policy in (tree, machine, nested):
            scenario = fixtures.load_scenario(name)
            started = time.monotonic()
            trace = simworld.run_episode(policy, scenario)
            assert time.monotonic() - started < 5.0
            assert trace.outcome == "SUCCESS", (name, type(policy).__name__)
            traces.append(trace)
        assert simworld.traces_equivalent(traces[0], traces[1]), name
        assert simworld.traces_equivalent(traces[0], traces[2]), name
        assert simworld.traces_equivalent(traces[1], traces[2]), name
    announce(7, "tree, machine and nested machine traces are pairwise "
                "equivalent on all four scenarios, each episode under 5 s")


def test_criterion_8_reactivity_probes():
    # battery collapse triggers recharging in the very same tick
    for policy in (experiments.bt_with_recharge(experiments.fetch_bt()),
                   experiments.fsm_with_recharge(experiments.fetch_fsm())):
        trace = simworld.run_episode(policy, fixtures.load_scenario("recharge"))
        perturbed_at = next(e.tick for e in trace.events if e.kind == "perturbation")
        recharge_start = next(e.tick for e in trace.events
                              if e.kind == "skill_start"
                              and e.payload["skill"] == "recharge")
        assert recharge_start == perturbed_at

    # losing the cube mid-delivery makes both designs pick again
    for policy in (experiments.fetch_bt(), experiments.fetch_fsm()):
        trace = simworld.run_episode(policy, relocation_scenario())
        picks = [e for e in trace.events
                 if e.kind == "skill_start" and e.payload["skill"] == "pick"]
        assert len(picks) == 2
        assert trace.outcome == "SUCCESS"

    # after success only the tree reacts to the cube being moved back
    tree_trace = simworld.run_episode(experiments.fetch_bt(),
                                      fixtures.load_scenario("post_success"))
    first_success = next(e.tick for e in tree_trace.events
                         if e.kind == "policy_status"
                         and e.payload["status"] == "SUCCESS")
    late_picks = [e for e in tree_trace.events
                  if e.kind == "skill_start" and e.payload["skill"] == "pick"
                  and e.tick > first_success]
    assert late_picks and tree_trace.outcome == "SUCCESS"

    machine_trace = simworld.run_episode(experiments.fetch_fsm(),
                                         fixtures.load_scenario("post_success"))
    assert machine_trace.outcome == "SUCCESS"
    assert len(machine_trace.skill_events("skill_start")) == 4  # nothing after the outcome
    announce(8, "same-tick recharge starts, re-picking after mid-task cube loss "
                "in both designs, and post-success re-picking in the tree only")


def test_criterion_9_chattering():
    scenario = fixtures.load_scenario("baseline")
    naive = simworld.run_episode(experiments.fetch_bt("naive"), scenario)
    assert naive.outcome == "TIMEOUT" and naive.timed_out
    assert simworld.detect_chattering(naive)

    safe = simworld.run_episode(experiments.fetch_bt(),
                                fixtures.load_scenario("baseline"))
    assert safe.outcome == "SUCCESS"
    assert not simworld.detect_chattering(safe)
    announce(9, "the naive ordering chatters to timeout, the safe ordering "
                "succeeds without chattering, on the same scenario")


def test_criterion_10_distance_oracle():
    rng = random.Random(20240815)

    def sample():
        n = rng.randint(2, 7)
        vertices = {i: rng.choice("abc") for i in range(n)}
        edges = {(rng.randrange(n), rng.randrange(n), rng.choice("xy"))
                 for _ in range(rng.randint(0, 2 * n))}
        return metrics.PolicyGraph(vertices=vertices, edges=edges)

    # under the default model reconciling parallel edges costs |n1 - n2|
    # whatever labels match, so the label-sensitive model checks the matching
    sensitive = metrics.LABEL_SENSITIVE
    for index in range(200):
        g1, g2 = sample(), sample()
        result = metrics.ged_exact(g1, g2, budget=30.0)
        assert result.complete
        assert result.distance == metrics.brute_force_ged(g1, g2), index
        rebuilt = metrics.apply_script(g1, result.script)
        assert metrics.isomorphic(rebuilt, g2), index
        result = metrics.ged_exact(g1, g2, sensitive, budget=30.0)
        assert result.complete
        assert result.distance == metrics.brute_force_ged(g1, g2, sensitive), index
    announce(10, "exact search equals the exhaustive oracle on 200 seeded "
                 "pairs, under the default and the label-sensitive model, and "
                 "every witnessing edit script rebuilds the target")


def _tree_of_size(target: int):
    builder = bt.TreeBuilder()
    children = []
    index = 0
    while 1 + 3 * len(children) < target:
        station = f"fetch{index % 5 + 1}"
        condition = builder.condition(L("robot_at", (station,)))
        action = builder.action("move_to", (station,))
        children.append(builder.add("fallback", f"hop{index}",
                                    children=[condition, action]))
        index += 1
    root = builder.add("sequence", "tour", children=children)
    tree = builder.build(root)
    return tree


def _machine_of_states(count: int):
    steps = []
    for index in range(count - 2):
        station = f"fetch{index}"
        spec = ActionSpec("move_to", (station,),
                          postconditions=(L("robot_at", (station,)),))
        steps.append(PlanStep(spec=spec, achieves=L("robot_at", (station,))))
    return fsm.build_fault_tolerant(Plan(steps=steps, goal=(steps[-1].achieves,)))


def test_criterion_11_edit_locality():
    for size in (14, 80, 500):
        tree = experiments.fetch_bt() if size == 14 else _tree_of_size(size)
        if size == 14:
            assert len(tree.nodes) == 14
        before = {nid: (node.kind, node.name, tuple(node.children))
                  for nid, node in tree.nodes.items()}
        parent = tree.root if size != 14 else tree.parent_of(
            experiments.find_action(tree, "pick"))
        sub = experiments.tuck_subtree(tree.next_id())
        bt.insert_subtree(tree, parent, 0, sub)
        after = {nid: (node.kind, node.name, tuple(node.children))
                 for nid, node in tree.nodes.items()}
        touched = [nid for nid in before if before[nid] != after[nid]]
        assert touched == [parent], f"insert touched {touched} at size {size}"

        before = after
        bt.remove_subtree(tree, sub.root)
        final = {nid: (node.kind, node.name, tuple(node.children))
                 for nid, node in tree.nodes.items()}
        touched = [nid for nid in before if nid in final and before[nid] != final[nid]]
        assert touched == [parent], f"remove touched {touched} at size {size}"

    touched_counts = []
    for states in (6, 25, 100):
        machine = experiments.fetch_fsm() if states == 6 else _machine_of_states(states)
        assert len(machine.states) == states
        before = {sid: (dict(state.transitions), tuple(state.interrupts))
                  for sid, state in machine.states.items()}
        recharge = fsm.FsmState(id=machine.next_id(), kind="skill",
                                name="recharge!", skill="recharge")
        fsm.add_connected_state(machine, recharge, experiments.LOW_BATTERY,
                                experiments.LOW_BATTERY)
        after = {sid: (dict(state.transitions), tuple(state.interrupts))
                 for sid, state in machine.states.items()}
        touched = [sid for sid in before if before[sid] != after[sid]]
        expected = states - len(machine.outcome_ids())
        assert len(touched) == expected
        touched_counts.append(len(touched))
    assert touched_counts == [5, 24, 99]  # grows linearly with the state count
    announce(11, "tree edits touch exactly one pre-existing node at sizes "
                 "14/80/500; connecting a state touches 5/24/99 states")
