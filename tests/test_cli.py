"""Command line behavior: outputs, exit codes, report regeneration."""

import json
import shutil

from policylab import cli, documents, fixtures, report
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

    def test_perturbation_without_args_exits_one(self, tmp_path, capsys):
        scenario_doc = json.loads(fixtures.scenario_path("recharge").read_text())
        scenario_doc["perturbations"][0].pop("args")
        path = tmp_path / "no_args.json"
        path.write_text(json.dumps(scenario_doc))
        assert cli.main(["run", data("fetch_bt_recharge"), str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: perturbations[0].args")
        assert "Traceback" not in err


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
        assert "INCOMPLETE" in out

    def test_cc_counts_effort_estimate(self, capsys):
        assert cli.main(["metrics", "--cc", data("fetch_fsm")]) == 0
        assert "14" in capsys.readouterr().out
        assert cli.main(["metrics", "--counts", data("fetch_bt")]) == 0
        assert "graphical: 27" in capsys.readouterr().out
        assert cli.main(["metrics", "--effort", "4", "0"]) == 0
        assert "15" in capsys.readouterr().out
        assert cli.main(["metrics", "--estimate", "bt", "4", "0"]) == 0
        assert "~27" in capsys.readouterr().out


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

    def test_cells_are_computed_not_embedded(self, tmp_path):
        corrupted = tmp_path / "data"
        shutil.copytree(fixtures.data_dir(), corrupted)
        doc = json.loads((corrupted / "fetch_bt_tuck.json").read_text())
        tuck = next(n for n in doc["nodes"]
                    if n["type"] == "action" and n["skill"] == "tuck")
        parent = next(n for n in doc["nodes"] if tuck["id"] in n.get("children", ()))
        parent["children"].remove(tuck["id"])
        doc["nodes"].remove(tuck)
        (corrupted / "fetch_bt_tuck.json").write_text(json.dumps(doc))
        result = report.build_report(2, base=corrupted)
        assert not result.ok
        broken = [cell for _, cells in result.rows for cell in cells.values()
                  if cell.status == "mismatch"]
        assert broken and broken[0].row == "tuck_arm"

    def test_missing_fixture_dir_exits_one(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fixtures, "data_dir", lambda: tmp_path / "absent")
        monkeypatch.setattr("policylab.report.load_policy",
                            lambda name, base=None: fixtures.load_policy(name, base))
        assert cli.main(["report", "--table", "2"]) == 1
