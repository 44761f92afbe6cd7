"""Frozen outputs: the reference tables and the packaged documents."""

from pathlib import Path

import pytest

from policylab import fixtures, report

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("table", [2, 3])
def test_report_text_and_json_are_unchanged(table):
    result = report.build_report(table)
    assert result.to_text() == (GOLDEN / f"table{table}.txt").read_text()
    assert result.to_json() == (GOLDEN / f"table{table}.json").read_text()


def test_regenerated_fixtures_equal_the_packaged_ones(tmp_path):
    written = fixtures.write_fixtures(tmp_path)
    assert len(written) == 28
    for path in written:
        packaged = fixtures.data_dir() / path.relative_to(tmp_path)
        assert path.read_bytes() == packaged.read_bytes(), path.name
