"""The benchmark's own test: its counts are exact and its inputs are seeded.

    python3 perfbench/selftest.py            # about two minutes

Two traced runs with the same seed must report identical deterministic
counts and call counts, and another seed must generate other inputs. A
change that only makes the program faster leaves all of these unchanged.
"""

from __future__ import annotations

import unittest

from run import worker

SEED = 11


def traced_pass(workload: str, seed: int) -> dict:
    return worker(workload, seed, "--passes", "1", "--trace", "1")


class CountsAreExact(unittest.TestCase):
    def check_workload(self, workload: str, seeded: bool = True) -> None:
        first = traced_pass(workload, SEED)
        second = traced_pass(workload, SEED)
        for run in (first, second):
            self.assertEqual(run["failed"], 0, run["problems"])
        self.assertEqual(first["counts"], second["counts"])
        self.assertEqual(first["calls"], second["calls"])
        self.assertEqual(first["inputs_sha256"], second["inputs_sha256"])
        if seeded:
            other = worker(workload, SEED + 1, "--passes", "1")
            self.assertNotEqual(first["inputs_sha256"], other["inputs_sha256"])
            self.assertNotEqual(first["counts"], other["counts"])

    def test_tables(self):
        self.check_workload("tables", seeded=False)

    def test_ged_search(self):
        self.check_workload("ged_search")

    def test_episodes(self):
        self.check_workload("episodes")

    def test_authoring(self):
        self.check_workload("authoring")


if __name__ == "__main__":
    unittest.main(verbosity=2)
