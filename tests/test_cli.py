"""Command line behavior: outputs, exit codes, report regeneration."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from conftest import POLICY_DEFECTS
from policylab import cli, documents, fixtures, metrics, report
from policylab.bt import PolicyTree
from policylab.fsm import StateMachine
from policylab.hfsm import HfsmContainer


def data(name: str) -> str:
    return str(fixtures.policy_path(name))


def scenario(name: str) -> str:
    return str(fixtures.scenario_path(name))


def goal_and_library():
    base = fixtures.data_dir()
    return str(base / "fetch_goal.json"), str(base / "fetch_library.json")


def run_in_a_process(args: list) -> subprocess.CompletedProcess:
    """``python -m policylab.cli ARGS`` in a fresh interpreter, with a timeout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-m", "policylab.cli", *args],
                          capture_output=True, text=True, timeout=30, env=env)


#: full ``metrics --ged`` output for the two table-2 pairs the root bound
#: does not prove; a change in search order changes the printed script
SEARCHED_PAIR_OUTPUT = {
    "fetch_fsm_tuck": """\
ged: 5
edit script (10 ops, 4 vertex ops):
  insert_vertex 6 outcome:SUCCESS
  substitute_vertex 3 skill:tuck()!
  substitute_vertex 4 skill:move_to(delivery)!
  substitute_vertex 5 skill:place(cube2)!
  insert_edge 0 6 SUCCESS
  insert_edge 5 6 SUCCESS
  substitute_edge 0 4 in_hand(cube2) & robot_at(delivery) in_hand(cube2)
  substitute_edge 0 5 SUCCESS in_hand(cube2) & robot_at(delivery)
  insert_edge 5 0 FAILURE
  insert_edge 5 5 RUNNING
""",
    "fetch_fsm_dock": """\
ged: 5
edit script (7 ops, 2 vertex ops):
  insert_vertex 6 outcome:SUCCESS
  substitute_vertex 5 skill:dock()!
  insert_edge 0 6 SUCCESS
  insert_edge 5 6 SUCCESS
  substitute_edge 0 5 SUCCESS object_at(cube2, delivery)
  insert_edge 5 0 FAILURE
  insert_edge 5 5 RUNNING
""",
}


class TestBuild:
    def test_tree_output(self, tmp_path, capsys):
        goal, library = goal_and_library()
        out = tmp_path / "bt.json"
        assert cli.main(["build", goal, library, "--kind", "bt", "-o", str(out)]) == 0
        tree = documents.parse_policy_document(out.read_text())
        assert isinstance(tree, PolicyTree) and len(tree.nodes) == 14

    def test_fault_tolerant_machine_output(self, tmp_path):
        goal, library = goal_and_library()
        out = tmp_path / "fsm.json"
        assert cli.main(["build", goal, library, "--kind", "fsm-ft",
                         "-o", str(out)]) == 0
        machine = documents.parse_policy_document(out.read_text())
        assert isinstance(machine, StateMachine) and len(machine.states) == 6

    def test_naive_ordering_round_trips(self, tmp_path):
        goal, library = goal_and_library()
        out = tmp_path / "naive.json"
        assert cli.main(["build", goal, library, "--ordering", "naive",
                         "-o", str(out)]) == 0
        assert out.read_text() == fixtures.policy_path("fetch_bt_naive").read_text()

    def test_planner_error_exits_nonzero(self, tmp_path, capsys):
        goal = tmp_path / "goal.json"
        goal.write_text(json.dumps({"version": 1, "goal": [{"pred": "docked"}]}))
        _, library = goal_and_library()
        assert cli.main(["build", str(goal), library]) == 1
        assert "unachievable" in capsys.readouterr().err

    def test_empty_goal_exits_one(self, tmp_path, capsys):
        goal = tmp_path / "goal.json"
        goal.write_text(json.dumps({"version": 1, "goal": []}))
        _, library = goal_and_library()
        assert cli.main(["build", str(goal), library]) == 1
        assert capsys.readouterr().err == "error: goal must contain at least one condition\n"

    @pytest.mark.parametrize("kind", ["bt", "fsm-ft"])
    def test_goal_the_plan_undoes_exits_one(self, kind, tmp_path, capsys):
        goal = tmp_path / "goal.json"
        goal.write_text(json.dumps({"version": 1, "goal": [
            {"pred": "robot_at", "args": ["fetch1"]},
            {"pred": "robot_at", "args": ["delivery"]}]}))
        _, library = goal_and_library()
        assert cli.main(["build", str(goal), library, "--kind", kind]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: plan leaves goal condition robot_at(fetch1) unmet\n"

    def test_library_with_a_list_param_exits_one(self, tmp_path, capsys):
        goal, library = goal_and_library()
        doc = json.loads(Path(library).read_text())
        doc["actions"][1]["params"] = [[1]]
        path = tmp_path / "library.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["build", goal, str(path)]) == 1
        assert capsys.readouterr().err == ("error: actions[1].params[0]: "
                                           "expected a string or a number, got [1]\n")

    @pytest.mark.parametrize("kind", ["bt", "fsm-ft"])
    def test_library_with_an_unknown_skill_exits_one(self, kind, tmp_path, capsys):
        goal, _ = goal_and_library()
        library = tmp_path / "library.json"
        library.write_text(json.dumps({"version": 1, "actions": [
            {"name": "deliver_and_dock", "params": [], "pre": [],
             "post": [{"pred": "object_at", "args": ["cube2", "delivery"]}],
             "skill": "deliver_and_dock"}]}))
        assert cli.main(["build", goal, str(library), "--kind", kind]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: actions[0].skill: unknown skill 'deliver_and_dock'\n"

    def side_effect_task(self, tmp_path) -> list:
        # one action achieves both goal conditions, so the planner keeps the
        # second as a reference check and the plan carries a note saying so
        post = [{"pred": "object_at", "args": ["cube2", "delivery"]},
                {"pred": "docked", "args": []}]
        goal = tmp_path / "goal.json"
        goal.write_text(json.dumps({"version": 1, "goal": post}))
        library = tmp_path / "library.json"
        library.write_text(json.dumps({"version": 1, "actions": [
            {"name": "deliver_and_dock", "params": [], "pre": [], "post": post,
             "skill": "dock"}]}))
        return ["build", str(goal), str(library)]

    SIDE_EFFECT_WARNING = ("warning: condition docked() is a side effect of already "
                           "expanded deliver_and_dock()!; keeping a reference check only\n")

    def test_side_effect_warning_reaches_stderr(self, tmp_path):
        done = run_in_a_process(self.side_effect_task(tmp_path))
        assert done.returncode == 0
        assert done.stderr == self.SIDE_EFFECT_WARNING
        assert isinstance(documents.parse_policy_document(done.stdout), PolicyTree)

    def test_side_effect_warning_is_printed_once_per_call(self, tmp_path, capsys):
        argv = self.side_effect_task(tmp_path)
        for _ in range(2):
            assert cli.main(argv) == 0
            assert capsys.readouterr().err == self.SIDE_EFFECT_WARNING

    def test_side_effect_warning_is_printed_once_per_machine_build(self, tmp_path, capsys):
        argv = self.side_effect_task(tmp_path) + ["--kind", "fsm-ft"]
        for _ in range(2):
            assert cli.main(argv) == 0
            captured = capsys.readouterr()
            assert captured.err == self.SIDE_EFFECT_WARNING
            assert isinstance(documents.parse_policy_document(captured.out), StateMachine)

    def test_failed_build_prints_only_its_error(self, tmp_path, capsys):
        argv = self.side_effect_task(tmp_path)
        goal = json.loads(Path(argv[1]).read_text())
        goal["goal"].append({"pred": "found", "args": []})
        Path(argv[1]).write_text(json.dumps(goal))
        assert cli.main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: unachievable condition found()\n"

    def test_ordering_rejected_for_machines(self, capsys):
        goal, library = goal_and_library()
        assert cli.main(["build", goal, library, "--kind", "fsm-ft",
                         "--ordering", "naive"]) == 1


class TestToHfsm:
    def test_tree_converts(self, tmp_path):
        out = tmp_path / "h.json"
        assert cli.main(["to-hfsm", data("pick_place_subtree"), "-o", str(out)]) == 0
        machine = documents.parse_policy_document(out.read_text())
        assert isinstance(machine, HfsmContainer)
        assert out.read_text() == fixtures.policy_path("pick_place_hfsm").read_text()

    def test_machine_input_rejected(self, capsys):
        assert cli.main(["to-hfsm", data("fetch_fsm")]) == 1
        assert "behavior tree" in capsys.readouterr().err


class TestRun:
    def test_success_exit_zero_and_trace_written(self, tmp_path, capsys):
        trace_path = tmp_path / "trace.jsonl"
        code = cli.main(["run", data("fetch_bt"), scenario("baseline"),
                         "--trace", str(trace_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "outcome: SUCCESS" in out and "skills started: 4" in out
        lines = trace_path.read_text().splitlines()
        assert json.loads(lines[0])["kind"] == "skill_start"
        assert json.loads(lines[-1])["kind"] == "episode_end"

    def test_failure_exit_two(self, tmp_path):
        scenario_doc = json.loads(fixtures.scenario_path("baseline").read_text())
        scenario_doc["failures"] = [{"skill": "move_to", "args": None, "invocation": 1}]
        path = tmp_path / "failing.json"
        path.write_text(json.dumps(scenario_doc))
        assert cli.main(["run", data("fetch_fsm_sequential"), str(path)]) == 2

    def test_timeout_exit_three(self):
        assert cli.main(["run", data("fetch_bt_naive"), scenario("baseline")]) == 3

    def test_max_ticks_override(self, capsys):
        assert cli.main(["run", data("fetch_bt"), scenario("baseline"),
                         "--max-ticks", "2"]) == 3

    def test_malformed_scenario_exit_one(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{]")
        assert cli.main(["run", data("fetch_bt"), str(path)]) == 1

    def test_misspelt_scenario_field_exits_one(self, tmp_path, capsys):
        scenario_doc = json.loads(fixtures.scenario_path("baseline").read_text())
        scenario_doc["max_tick"] = scenario_doc.pop("max_ticks")
        path = tmp_path / "misspelt.json"
        path.write_text(json.dumps(scenario_doc))
        assert cli.main(["run", data("fetch_bt"), str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: max_tick: unknown field\n"
        assert captured.out == ""

    def test_a_policy_given_as_the_scenario_exits_one(self, capsys):
        assert cli.main(["run", data("fetch_bt"), data("fetch_fsm")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: kind: unknown field\n"
        assert captured.out == ""

    def test_perturbation_without_args_exits_one(self, tmp_path, capsys):
        scenario_doc = json.loads(fixtures.scenario_path("recharge").read_text())
        scenario_doc["perturbations"][0].pop("args")
        path = tmp_path / "no_args.json"
        path.write_text(json.dumps(scenario_doc))
        assert cli.main(["run", data("fetch_bt_recharge"), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: perturbations[0].args")
        assert "Traceback" not in err

    def test_failure_with_a_list_arg_exits_one(self, tmp_path, capsys):
        scenario_doc = json.loads(fixtures.scenario_path("baseline").read_text())
        scenario_doc["failures"] = [{"skill": "pick", "args": [[1]], "invocation": 1}]
        path = tmp_path / "list_arg.json"
        path.write_text(json.dumps(scenario_doc))
        assert cli.main(["run", data("fetch_bt"), str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: failures[0].args[0]: "
                                "expected a string or a number, got [1]\n")
        assert captured.out == ""

    def test_station_that_is_not_a_string_exits_one(self, tmp_path, capsys):
        scenario_doc = json.loads(fixtures.scenario_path("baseline").read_text())
        scenario_doc["stations"][2] = [0]
        path = tmp_path / "list_station.json"
        path.write_text(json.dumps(scenario_doc))
        assert cli.main(["run", data("fetch_bt"), str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: stations[2]: expected a string, got [0]\n"
        assert captured.out == ""

    def test_parallel_over_two_motions_exits_one_before_the_episode(self, tmp_path,
                                                                    capsys):
        policy = tmp_path / "parallel.json"
        policy.write_text(json.dumps({"version": 1, "kind": "bt", "root": 0, "nodes": [
            {"id": 0, "type": "parallel", "name": "p", "children": [1, 2], "threshold": 2},
            {"id": 1, "type": "action", "name": "a", "skill": "move_to", "args": ["fetch1"]},
            {"id": 2, "type": "action", "name": "b", "skill": "move_to",
             "args": ["delivery"]}]}))
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["run", str(policy), scenario("baseline"),
                         "--trace", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.err == ("error: node 0: parallel has motion actions under "
                                "2 children, but one motion runs at a time\n")
        assert captured.out == "" and not trace.exists()

    @pytest.mark.parametrize("ticks", ["0", "-5"])
    def test_max_ticks_below_one_exits_one(self, ticks, capsys):
        assert cli.main(["run", data("fetch_bt"), scenario("baseline"),
                         "--max-ticks", ticks]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: max_ticks: must be at least 1")

    def test_skill_without_its_argument_exits_one(self, tmp_path, capsys):
        doc = json.loads(fixtures.policy_path("fetch_bt").read_text())
        assert doc["nodes"][5]["skill"] == "pick"
        doc["nodes"][5]["args"] = []
        policy = tmp_path / "pick.json"
        policy.write_text(json.dumps(doc))
        assert cli.main(["run", str(policy), scenario("baseline")]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: nodes[5].args: pick takes 1 argument(s), got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("doc, message", [case[1:] for case in POLICY_DEFECTS],
                             ids=[case[0] for case in POLICY_DEFECTS])
    def test_policy_defect_exits_one_before_the_episode(self, doc, message, tmp_path,
                                                        capsys):
        policy = tmp_path / "defect.json"
        policy.write_text(json.dumps(doc))
        trace = tmp_path / "trace.jsonl"
        assert cli.main(["run", str(policy), scenario("baseline"),
                         "--trace", str(trace)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == "" and not trace.exists()


class TestMetrics:
    def test_ged_prints_distance_and_script(self, capsys):
        code = cli.main(["metrics", "--ged", data("fetch_bt"), data("fetch_bt_tuck")])
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("ged: 6")
        assert "insert_vertex" in out

    def test_ged_budget_exhaustion_exits_four(self, capsys, monkeypatch):
        monkeypatch.setenv("POLICYLAB_GED_BUDGET", "0")
        # a pair whose root bound (5) stays below the anchored incumbent (7)
        code = cli.main(["metrics", "--ged", data("fetch_fsm"), data("fetch_fsm_tuck")])
        out = capsys.readouterr().out
        assert code == 4
        assert " INCOMPLETE (upper bound: time budget exhausted)\n" in out

    def test_ged_heap_cap_exits_four(self, capsys, monkeypatch):
        monkeypatch.setattr(metrics, "GED_HEAP_CAP", 1)
        code = cli.main(["metrics", "--ged", data("fetch_fsm"), data("fetch_fsm_tuck")])
        assert code == 4
        assert " INCOMPLETE (upper bound: heap cap exhausted)\n" in capsys.readouterr().out

    @pytest.mark.parametrize("target", sorted(SEARCHED_PAIR_OUTPUT))
    def test_searched_pairs_print_the_pinned_script(self, target, capsys):
        assert cli.main(["metrics", "--ged", data("fetch_fsm"), data(target)]) == 0
        assert capsys.readouterr().out == SEARCHED_PAIR_OUTPUT[target]

    def test_cc_counts_effort_estimate(self, capsys):
        assert cli.main(["metrics", "--cc", data("fetch_fsm")]) == 0
        assert "14" in capsys.readouterr().out
        assert cli.main(["metrics", "--counts", data("fetch_bt")]) == 0
        assert "graphical: 27" in capsys.readouterr().out
        assert cli.main(["metrics", "--effort", "4", "0"]) == 0
        assert "15" in capsys.readouterr().out
        assert cli.main(["metrics", "--estimate", "bt", "4", "0"]) == 0
        assert "~27" in capsys.readouterr().out

    def test_cc_and_counts_of_a_nested_machine(self, capsys):
        assert cli.main(["metrics", "--cc", data("pick_place_hfsm")]) == 0
        assert capsys.readouterr().out == "cyclomatic complexity: 12\n"
        assert cli.main(["metrics", "--counts", data("pick_place_hfsm")]) == 0
        assert capsys.readouterr().out == "nodes: 8\nedges: 16\ngraphical: 24\nactive: 24\n"

    @pytest.mark.parametrize("option", ["--cc", "--counts"])
    def test_an_empty_path_is_a_read_error(self, option, capsys):
        # an option given an empty value still picks its mode
        assert cli.main(["metrics", option, ""]) == 1
        assert capsys.readouterr().err == "error: cannot read : Is a directory\n"

    def test_estimate_with_a_non_integer_count_exits_one(self, capsys):
        assert cli.main(["metrics", "--estimate", "bt", "x", "1"]) == 1
        assert capsys.readouterr().err.startswith("error: --estimate: M and MFC must be")

    @pytest.mark.parametrize("option", ["--cc", "--counts"])
    def test_nested_machine_with_an_empty_container_exits_one(self, option, tmp_path,
                                                              capsys):
        doc = {"version": 1, "kind": "hfsm", "root": 0, "nodes": [
            {"id": 0, "type": "sequence_container", "name": "root", "children": []}]}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["metrics", option, str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: nodes[0]: sequence_container")


    @pytest.mark.parametrize("option", ["--cc", "--counts", "--ged"])
    def test_policy_with_a_mistyped_container_exits_one(self, option, tmp_path, capsys):
        doc = json.loads(fixtures.policy_path("fetch_fsm").read_text())
        doc["states"][0]["transitions"] = [1]
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(doc))
        paths = [str(path), data("fetch_fsm")] if option == "--ged" else [str(path)]
        assert cli.main(["metrics", option, *paths]) == 1
        assert capsys.readouterr().err == \
            "error: states[0].transitions: expected an object, got [1]\n"

    @pytest.mark.parametrize("kind, control", [("bt", "sequence"),
                                               ("hfsm", "sequence_container")])
    def test_root_inside_a_cycle_exits_one_without_hanging(self, kind, control, tmp_path):
        # a separate process with a timeout, so a walk that never ends fails
        # this test instead of hanging the suite
        doc = {"version": 1, "kind": kind, "root": 0, "nodes": [
            {"id": 0, "type": control, "name": "a", "children": [1]},
            {"id": 1, "type": control, "name": "b", "children": [0]}]}
        path = tmp_path / "cycle.json"
        path.write_text(json.dumps(doc))
        done = run_in_a_process(["metrics", "--cc", str(path)])
        assert done.returncode == 1
        assert done.stderr == "error: root must not be a child\n"

    @pytest.mark.parametrize("path, value, message", [
        (["nodes", 0, "id"], [0], "error: nodes[0].id: expected an integer id, got [0]\n"),
        (["nodes", 3, "skill"], "fly", "error: nodes[3].skill: unknown skill 'fly'\n"),
        (["nodes", 0, "predicate"], ["robot_at"],
         "error: nodes[0].predicate: expected a string, got ['robot_at']\n"),
    ], ids=["list id", "unknown skill", "list predicate"])
    def test_tree_with_a_bad_node_field_exits_one(self, path, value, message, tmp_path,
                                                  capsys):
        doc = json.loads(fixtures.policy_path("fetch_bt").read_text())
        doc[path[0]][path[1]][path[2]] = value
        policy = tmp_path / "bad.json"
        policy.write_text(json.dumps(doc))
        assert cli.main(["metrics", "--cc", str(policy)]) == 1
        assert capsys.readouterr().err == message

    def test_parallel_with_a_string_threshold_exits_one(self, tmp_path, capsys):
        doc = {"version": 1, "kind": "bt", "root": 0, "nodes": [
            {"id": 0, "type": "parallel", "name": "both", "children": [1], "threshold": "1"},
            {"id": 1, "type": "action", "name": "tuck", "skill": "tuck", "args": []}]}
        policy = tmp_path / "parallel.json"
        policy.write_text(json.dumps(doc))
        assert cli.main(["metrics", "--cc", str(policy)]) == 1
        assert capsys.readouterr().err == \
            "error: nodes[0].threshold: expected an integer, got '1'\n"

    @pytest.mark.parametrize("name, path", [
        ("fetch_fsm", ["plan_order", 0]),
        ("fetch_fsm_recharge", ["connected", 0, "state"]),
    ], ids=["plan_order", "connected"])
    @pytest.mark.parametrize("command", [["metrics", "--counts"], ["run"]],
                             ids=["counts", "run"])
    def test_machine_entry_naming_no_state_exits_one(self, name, path, command, tmp_path,
                                                     capsys):
        doc = json.loads(fixtures.policy_path(name).read_text())
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = 99
        policy = tmp_path / "dangling.json"
        policy.write_text(json.dumps(doc))
        scenarios = [scenario("recharge")] if command == ["run"] else []
        assert cli.main([*command, str(policy), *scenarios]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {path[0]}[0]: names missing state 99\n"
        assert captured.out == ""

    def test_outcome_state_with_an_unknown_status_exits_one(self, tmp_path, capsys):
        doc = json.loads(fixtures.policy_path("fetch_fsm").read_text())
        doc["states"][5]["status"] = "BAD"
        path = tmp_path / "bad_status.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["metrics", "--cc", str(path)]) == 1
        assert capsys.readouterr().err == ("error: states[5].status: expected SUCCESS, "
                                           "FAILURE or RUNNING, got 'BAD'\n")


class TestReport:
    def test_modification_distances_fully_match(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["report", "--table", "2", "-o", str(out)]) == 0
        assert "12/12 cells matched" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert payload["ok"] and payload["matched"] == payload["total"] == 12

    def test_experiment_table_matches_with_documented_deviation(self, capsys, tmp_path):
        out = tmp_path / "r.json"
        assert cli.main(["report", "--table", "3", "-o", str(out)]) == 0
        text = capsys.readouterr().out
        assert "documented" in text
        payload = json.loads(out.read_text())
        assert payload["ok"]
        statuses = {cell["status"] for cell in payload["cells"]}
        assert statuses == {"match", "documented"}

    def test_cells_are_computed_not_embedded(self, tmp_path, monkeypatch):
        corrupted = tmp_path / "data"
        shutil.copytree(fixtures.data_dir(), corrupted)
        doc = json.loads((corrupted / "fetch_bt_tuck.json").read_text())
        tuck = next(n for n in doc["nodes"]
                    if n["type"] == "action" and n["skill"] == "tuck")
        parent = next(n for n in doc["nodes"] if tuck["id"] in n.get("children", ()))
        parent["children"].remove(tuck["id"])
        doc["nodes"].remove(tuck)
        (corrupted / "fetch_bt_tuck.json").write_text(json.dumps(doc))
        monkeypatch.setattr(fixtures, "data_dir", lambda: corrupted)
        result = report.build_report(2)
        assert not result.ok
        broken = [cell for _, cells in result.rows for cell in cells.values()
                  if cell.status == "mismatch"]
        assert broken and broken[0].row == "tuck_arm"

    def test_missing_fixture_dir_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fixtures, "data_dir", lambda: tmp_path / "absent")
        assert cli.main(["report", "--table", "2"]) == 1

    @pytest.mark.parametrize("value", ["-5", "abc"])
    def test_malformed_budget_exits_one(self, value, capsys, monkeypatch):
        monkeypatch.setenv("POLICYLAB_GED_BUDGET", value)
        assert cli.main(["report", "--table", "2"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: POLICYLAB_GED_BUDGET must be a non-negative "
                                f"integer, got {value!r}\n")

    @pytest.mark.parametrize("table, cell", [
        ("2", "tuck_arm/fsm"), ("3", "development/docking/ed"),
    ])
    def test_budget_exhaustion_exits_four(self, table, cell, capsys, monkeypatch):
        monkeypatch.setenv("POLICYLAB_GED_BUDGET", "0")
        assert cli.main(["report", "--table", table]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: {cell}: edit distance search exhausted "
                                "its 0 s budget\n")

    def test_heap_cap_exits_four_and_is_named(self, capsys, monkeypatch):
        monkeypatch.setattr(metrics, "GED_HEAP_CAP", 1)
        assert cli.main(["report", "--table", "2"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: tuck_arm/fsm: edit distance search exhausted "
                                "its 1-entry heap cap\n")


@pytest.mark.parametrize("command", [
    ["run", data("fetch_bt"), scenario("baseline"), "--trace"],
    ["build", *goal_and_library(), "-o"],
    ["report", "--table", "2", "-o"],
], ids=["run", "build", "report"])
def test_unwritable_output_path_exits_one(command, tmp_path, capsys):
    path = tmp_path / "absent" / "out.json"
    assert cli.main([*command, str(path)]) == 1
    assert capsys.readouterr().err == (f"error: cannot write {path}: "
                                       "No such file or directory\n")


@pytest.mark.parametrize("command", [
    ["metrics", "--cc", "BAD"],
    ["run", "BAD", scenario("baseline")],
    ["run", data("fetch_bt"), "BAD"],
], ids=["metrics", "run policy", "run scenario"])
def test_a_file_that_is_not_utf8_exits_one(command, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    assert cli.main([str(path) if arg == "BAD" else arg for arg in command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot read {path}: not UTF-8: "
                            "invalid start byte at byte 0\n")


def sequence_chain(kind: str, levels: int) -> str:
    """A ``kind`` document of ``levels`` levels of one-child sequences, node i
    at level i + 1, over a tuck action."""
    sequence = "sequence" if kind == "bt" else "sequence_container"
    nodes = [{"id": i, "type": sequence, "name": "s", "children": [i + 1]}
             for i in range(levels - 1)]
    nodes.append({"id": levels - 1, "type": "action", "name": "tuck", "skill": "tuck"})
    return json.dumps({"version": 1, "kind": kind, "root": 0, "nodes": nodes})


@pytest.mark.parametrize("command, text, message", [
    (["metrics", "--cc", "DEEP"], "[" * 100_000, "top level: nested too deeply"),
    (["run", "DEEP", scenario("baseline")], "[" * 100_000, "top level: nested too deeply"),
    (["run", data("fetch_bt"), "DEEP"], "[" * 100_000, "top level: nested too deeply"),
    (["metrics", "--cc", "DEEP"], sequence_chain("bt", 3000),
     "node 100: more than 100 levels deep"),
    (["to-hfsm", "DEEP"], sequence_chain("bt", 3000), "node 100: more than 100 levels deep"),
    (["run", "DEEP", scenario("baseline")], sequence_chain("bt", 3000),
     "node 100: more than 100 levels deep"),
    (["metrics", "--cc", "DEEP"], sequence_chain("hfsm", 600),
     "node 100: more than 100 levels deep"),
], ids=["json metrics", "json run policy", "json run scenario", "tree metrics",
        "tree to-hfsm", "tree run", "nested machine metrics"])
def test_a_document_too_deep_exits_one(command, text, message, tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text(text)
    assert cli.main([str(path) if arg == "DEEP" else arg for arg in command]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
