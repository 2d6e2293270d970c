#!/usr/bin/env python3
"""Self-test for dbtf_lint.py: every violation class trips, clean code passes."""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dbtf_lint

FIXTURES = Path(__file__).resolve().parent / "lint_fixtures"


def rules_in(diagnostics: list[str]) -> set[str]:
    return {d.split("[", 1)[1].split("]", 1)[0] for d in diagnostics}


class FixtureTest(unittest.TestCase):
    def lint(self, case: str) -> list[str]:
        root = FIXTURES / case
        self.assertTrue((root / "src").is_dir(), f"missing fixture {case}")
        return dbtf_lint.lint_tree(root)

    def test_worker_include_fixture_trips(self):
        diagnostics = self.lint("worker_include")
        self.assertEqual(rules_in(diagnostics), {"worker-include"})
        self.assertEqual(len(diagnostics), 1)
        self.assertIn("src/dbtf/session.h:6:", diagnostics[0])

    def test_naked_mutex_fixture_trips(self):
        diagnostics = self.lint("naked_mutex")
        self.assertEqual(rules_in(diagnostics), {"naked-mutex"})
        self.assertIn("mu_", diagnostics[0])

    def test_thread_construction_fixture_trips(self):
        diagnostics = self.lint("thread_construction")
        self.assertEqual(rules_in(diagnostics), {"thread-construction"})
        self.assertEqual(len(diagnostics), 1)

    def test_comm_stats_mutation_fixture_trips(self):
        diagnostics = self.lint("comm_stats_mutation")
        self.assertEqual(rules_in(diagnostics), {"comm-stats-mutation"})
        # Every Record* lane mutation and the Reset line are flagged.
        self.assertEqual(len(diagnostics), 3)

    def test_fault_handling_fixture_trips(self):
        diagnostics = self.lint("fault_handling")
        self.assertEqual(rules_in(diagnostics), {"fault-handling"})
        # Two sleeps plus one ad-hoc Status::Unavailable construction.
        self.assertEqual(len(diagnostics), 3)

    def test_filesystem_write_fixture_trips(self):
        diagnostics = self.lint("filesystem_write")
        self.assertEqual(rules_in(diagnostics), {"filesystem-write"})
        # One ofstream, one fopen, and one publishing rename.
        self.assertEqual(len(diagnostics), 3)

    def test_recovery_stats_mutation_fixture_trips(self):
        diagnostics = self.lint("recovery_stats_mutation")
        self.assertEqual(rules_in(diagnostics), {"recovery-stats-mutation"})
        self.assertEqual(len(diagnostics), 2)

    def test_transport_syscalls_fixture_trips(self):
        diagnostics = self.lint("transport_syscalls")
        self.assertEqual(rules_in(diagnostics), {"transport-syscalls"})
        # socket, bind, listen, fork, execv, kill, waitpid — one finding per
        # line; the "socket (" usage string and std::bind stay clean.
        self.assertEqual(len(diagnostics), 7)

    def test_async_seam_fixture_trips(self):
        diagnostics = self.lint("async_seam")
        self.assertEqual(rules_in(diagnostics), {"async-seam"})
        # std::future return, std::async call, std::promise member, and a
        # std::condition_variable member — one finding per line.
        self.assertEqual(len(diagnostics), 4)

    def test_async_seam_has_no_dist_exemption(self):
        diagnostics = self.lint("async_seam_dist")
        self.assertEqual(rules_in(diagnostics), {"async-seam"})
        # std::future return, std::promise member, and a
        # std::condition_variable member, all inside src/dist/.
        self.assertEqual(len(diagnostics), 3)
        for diagnostic in diagnostics:
            self.assertIn("src/dist/relay.h:", diagnostic)

    def test_clean_fixture_passes(self):
        self.assertEqual(self.lint("clean"), [])

    def test_repo_tree_is_clean(self):
        repo = Path(__file__).resolve().parent.parent
        self.assertEqual(dbtf_lint.lint_tree(repo), [])

    def test_cli_exit_codes(self):
        self.assertEqual(
            dbtf_lint.main(["--root", str(FIXTURES / "clean")]), 0)
        self.assertEqual(
            dbtf_lint.main(["--root", str(FIXTURES / "worker_include")]), 1)
        self.assertEqual(
            dbtf_lint.main(["--root", str(FIXTURES)]), 2)  # no src/ here


if __name__ == "__main__":
    unittest.main()
