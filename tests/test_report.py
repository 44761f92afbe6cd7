"""Frozen outputs: the reference tables and the packaged documents."""

from pathlib import Path

import pytest

from conftest import encoded_afresh
from policylab import experiments, fixtures, metrics, planner, report

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("table", [2, 3])
def test_report_text_and_json_are_unchanged(table):
    result = report.build_report(table)
    assert result.to_text() == (GOLDEN / f"table{table}.txt").read_text()
    assert result.to_json() == (GOLDEN / f"table{table}.json").read_text()


def test_regenerated_fixtures_equal_the_packaged_ones(tmp_path):
    written = fixtures.write_fixtures(tmp_path)
    assert len(written) == 18
    for path in written:
        packaged = fixtures.data_dir() / path.relative_to(tmp_path)
        assert path.read_bytes() == packaged.read_bytes(), path.name


def test_experiment_table_expands_once_and_loads_four_fixtures(monkeypatch):
    # the scalability policies are synthesized once per process: the first
    # table after a cleared memo runs one planner expansion, later ones none
    runs = []
    loaded = []
    run = planner._Expansion.run
    load = report.load_policy

    def counting_run(self):
        runs.append(self.goal)
        return run(self)

    def counting_load(name):
        loaded.append(name)
        return load(name)

    monkeypatch.setattr(planner._Expansion, "run", counting_run)
    monkeypatch.setattr(report, "load_policy", counting_load)
    experiments._scalability_policies.cache_clear()
    fixtures_per_build = []
    for expansions in (1, 0):
        runs.clear()
        loaded.clear()
        assert report.build_report(3).ok
        assert len(runs) == expansions
        assert len(loaded) == len(set(loaded)) == 4
        fixtures_per_build.append(sorted(loaded))
    assert fixtures_per_build[0] == fixtures_per_build[1]


def test_the_distance_table_encodes_each_fixture_once(monkeypatch):
    # its 15 graphs are encoded on the first table after a cleared memo and
    # read back on later ones, and no policy is copied for them
    encoded = []
    for name in ("bt_to_graph", "fsm_to_graph", "hfsm_to_graph"):
        def counting(policy, encode=getattr(metrics, name)):
            encoded.append(encode)
            return encode(policy)
        monkeypatch.setattr(metrics, name, counting)

    def no_load(name):
        raise AssertionError(f"table 2 loaded a copy of {name}")

    monkeypatch.setattr(report, "load_policy", no_load)
    fixtures._policy_graph.cache_clear()
    for encodings in (15, 0):
        encoded.clear()
        assert report.build_report(2).ok
        assert len(encoded) == encodings
    monkeypatch.undo()
    graphs = [("fetch_bt", "bt"), ("fetch_bt", "hfsm"), ("fetch_fsm", "fsm")]
    for tree, machine, _ in report._DISTANCES.values():
        graphs += [(tree, "bt"), (tree, "hfsm"), (machine, "fsm")]
    for name, representation in graphs:
        assert fixtures.policy_graphs(name, representation)[representation] \
            == encoded_afresh(name, representation), (name, representation)
