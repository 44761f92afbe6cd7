"""Every CLI output the reference tables do not cover, pinned by hash.

``tests/golden/outputs.txt`` holds one line per command: the command
(packaged documents named relative to the data directory, generated ones
under ``out/``), its exit code and a 16-hex sha256 prefix of its stdout.
A ``run`` line adds the hash of its trace, its outcome and its ticks, so
that a changed line reads as a behaviour change. The commands are the
96 packaged runs, ``build`` for every kind and ordering on the three
tasks, ``to-hfsm`` on every tree, ``metrics --cc``/``--counts`` on every
packaged policy and ``metrics --ged`` on the twelve table-2 pairs.

Regenerate the file, after a change that moves an output on purpose,
with ``PYTHONPATH=src python tests/test_outputs.py``.
"""

import difflib
import hashlib
import io
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from conftest import packaged_policies, packaged_scenarios
from policylab import cli, fixtures, report

MANIFEST = Path(__file__).parent / "golden" / "outputs.txt"
TASKS = ("fetch", "fetch_safe", "scalability")
KINDS = ("bt", "fsm-seq", "fsm-ft")
ORDERINGS = ("safe", "naive")


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def manifest_lines(out: Path) -> list:
    """The manifest's lines, with every generated file written under ``out``."""
    data = fixtures.data_dir()
    trace = out / "trace.jsonl"

    def call(*argv) -> tuple:
        """The manifest line of one command, and its stdout."""
        argv = [str(arg) for arg in argv]
        stdout = io.StringIO()
        trace.unlink(missing_ok=True)
        with redirect_stdout(stdout), redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        shown = " ".join(arg.replace(f"{data}/", "").replace(f"{out}/", "out/")
                         for arg in argv)
        fields = [shown, f"exit {code}", f"stdout {_digest(stdout.getvalue())}"]
        if argv[0] == "run":
            fields.append(f"trace {_digest(trace.read_text()) if trace.exists() else '-'}")
            fields += [row.replace(":", "") for row in stdout.getvalue().splitlines()
                       if row.startswith(("outcome:", "ticks:"))]
        return " | ".join(fields), stdout.getvalue()

    def line(*argv) -> str:
        return call(*argv)[0]

    lines = [line("run", fixtures.policy_path(policy), fixtures.scenario_path(scenario),
                  "--trace", trace)
             for policy in packaged_policies() for scenario in packaged_scenarios()]
    lines += [line("build", data / f"{task}_goal.json", data / f"{task}_library.json",
                   "--kind", kind, "--ordering", ordering)
              for task in TASKS for kind in KINDS for ordering in ORDERINGS]
    trees = [name for name in packaged_policies()
             if '"kind": "bt"' in fixtures.policy_path(name).read_text()]
    for tree in trees:  # the nested machines are measured by the table-2 lines below
        text, nested = call("to-hfsm", fixtures.policy_path(tree))
        (out / f"{tree}.hfsm.json").write_text(nested)
        lines.append(text)
    lines += [line("metrics", option, fixtures.policy_path(policy))
              for policy in packaged_policies() for option in ("--cc", "--counts")]
    baseline = ("fetch_bt", "fetch_fsm")
    for tree, machine, _ in report._DISTANCES.values():
        lines += [line("metrics", "--ged", fixtures.policy_path(before),
                       fixtures.policy_path(after))
                  for before, after in zip(baseline, (tree, machine))]
        lines.append(line("metrics", "--ged", out / "fetch_bt.hfsm.json",
                          out / f"{tree}.hfsm.json"))
    return lines


def test_every_output_matches_the_manifest(tmp_path):
    lines = manifest_lines(tmp_path)
    pinned = MANIFEST.read_text().splitlines()
    assert len(lines) == 96 + 18 + 9 + 32 + 12
    if lines != pinned:
        diff = difflib.unified_diff(pinned, lines, "golden/outputs.txt", "now", lineterm="", n=0)
        raise AssertionError("outputs moved:\n" + "\n".join(diff))


if __name__ == "__main__":  # rewrite the manifest from the outputs of this checkout
    with tempfile.TemporaryDirectory() as scratch:
        MANIFEST.write_text("\n".join(manifest_lines(Path(scratch))) + "\n")
    print(MANIFEST, file=sys.stderr)
