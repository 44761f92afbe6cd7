"""Single-field mutations of every packaged document.

Each of the 28 packaged documents is mutated one JSON path at a time:
the whole document, every object field and the first three entries of
every list, each replaced by one of nine values; an argument list is
also cut by one entry and lengthened by one. A mutation must parse
or fail with a ``DocumentError``, never with another exception; what
parses must write the same bytes after another parse and, if it is a
policy or a scenario, run to an outcome or a ``PolicyError`` in a world
that keeps its invariants; and the CLI must report a sample of the
failures as one ``error:`` line and exit 1.
"""

import json
import random
from collections import Counter
from pathlib import Path

import pytest

from conftest import codec, packaged_documents
from policylab import cli, fixtures, simworld
from policylab.core import DocumentError, PolicyError

VALUES = (5, "x", [0], {}, None, -1, [[1]], 1.5, True)
LIST_ENTRIES = 3
SEED = 20240815
CLI_SAMPLE_PER_KIND = 6


def json_paths(value, prefix=()):
    """Every field path below ``value``, lists cut to their first entries."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value[:LIST_ENTRIES])
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


def mutated(doc, path: tuple, value) -> str:
    """``doc`` as JSON text with the field at ``path`` set to ``value``."""
    if not path:
        return json.dumps(value)
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    kept = parent[path[-1]]
    parent[path[-1]] = value
    try:
        return json.dumps(doc)
    finally:
        parent[path[-1]] = kept


def resized(doc, where: tuple) -> list:
    """For a skill's or a literal's argument list, that list one entry
    shorter and one entry longer; nothing for any other field."""
    if not where or where[-1] not in ("args", "params"):
        return []
    value = doc
    for key in where:
        value = value[key]
    if not isinstance(value, list):
        return []
    return [value[:-1], [*value, "extra"]] if value else [["extra"]]


def mutations():
    for path in packaged_documents():
        doc = json.loads(path.read_text())
        for where in [(), *json_paths(doc)]:
            for value in (*VALUES, *resized(doc, where)):
                yield path, where, value, mutated(doc, where, value)


@pytest.fixture(scope="module")
def outcomes():
    """Per mutation (document, path, value, parsed object or None), and escapes."""
    results, escapes = [], []
    for path, where, value, text in mutations():
        parse, _ = codec(path)
        try:
            results.append((path, where, value, parse(text)))
        except DocumentError:
            results.append((path, where, value, None))
        except Exception as exc:  # any other exception is what this test looks for
            escapes.append(f"{path.name} {list(where)} = {value!r}: "
                           f"{type(exc).__name__}: {exc}")
    return results, escapes


def test_every_mutation_parses_or_raises_a_document_error(outcomes):
    results, escapes = outcomes
    assert escapes == []
    assert len(packaged_documents()) == 28
    assert len(results) == 8874


def test_parsed_mutations_write_the_same_bytes_again(outcomes):
    results, _ = outcomes
    drifted = []
    for path, where, value, parsed in results:
        if parsed is None:
            continue
        parse, serialize = codec(path)
        text = serialize(parsed)
        if serialize(parse(text)) != text:
            drifted.append(f"{path.name} {list(where)} = {value!r}")
    assert drifted == []


def cli_commands(path: Path, mutant: str) -> list:
    """The CLI calls that read the mutated document at ``mutant``."""
    data = fixtures.data_dir()
    if path.parent.name == "scenarios":
        return [["run", str(fixtures.policy_path("fetch_bt")), mutant]]
    task = path.stem.rsplit("_", 1)[0]
    if path.stem.endswith("_library"):
        return [["build", str(data / f"{task}_goal.json"), mutant]]
    if path.stem.endswith("_goal"):
        return [["build", mutant, str(data / f"{task}_library.json")]]
    return [["metrics", "--cc", mutant],
            ["run", mutant, str(fixtures.scenario_path("baseline"))]]


def test_cli_reports_a_sample_of_failures_on_one_line(outcomes, tmp_path, capsys):
    results, _ = outcomes
    failed = {}
    for path, where, value, parsed in results:
        if parsed is None:
            failed.setdefault(codec(path), []).append((path, where, value))
    rng = random.Random(SEED)
    for kind in failed.values():  # policies, libraries, goals and scenarios alike
        for path, where, value in rng.sample(kind, CLI_SAMPLE_PER_KIND):
            mutant = tmp_path / path.name
            mutant.write_text(mutated(json.loads(path.read_text()), where, value))
            for command in cli_commands(path, str(mutant)):
                assert cli.main(command) == 1, (command[0], path.name, where, value)
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1, err


def test_parsed_policies_and_scenarios_run_to_an_outcome_or_a_policy_error(outcomes,
                                                                          checked_worlds):
    # each parsed policy on the baseline scenario, each parsed scenario under
    # fetch_bt, in a world that checks its invariants
    results, _ = outcomes
    baseline, fetch_bt = fixtures.load_scenario("baseline"), fixtures.load_policy("fetch_bt")
    ends, escapes = Counter(), []
    for path, where, value, parsed in results:
        if parsed is None or path.stem.endswith(("_library", "_goal")):
            continue
        if path.parent.name == "scenarios":
            policy, scenario = fetch_bt, parsed
        else:
            policy, scenario = parsed, baseline
        try:
            ends[simworld.run_episode(policy, scenario).outcome] += 1
        except PolicyError as exc:
            ends[type(exc).__name__] += 1
        except Exception as exc:  # any other exception is what this test looks for
            escapes.append(f"{path.name} {list(where)} = {value!r}: "
                           f"{type(exc).__name__}: {exc}")
    assert escapes == []
    assert sum(ends.values()) == 697, ends
