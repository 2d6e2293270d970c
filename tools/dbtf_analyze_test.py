#!/usr/bin/env python3
"""Self-test for dbtf_analyze.py: every rule trips on its fixture, the clean
fixture and the real tree pass, and the lexer/structure layer holds up on
the constructs the rules depend on."""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import dbtf_analyze

FIXTURES = Path(__file__).resolve().parent / "analyze_fixtures"
REPO = Path(__file__).resolve().parent.parent


def run(case: str, rules: list[str] | None = None) -> list:
    root = FIXTURES / case
    assert (root / "src").is_dir(), f"missing fixture {case}"
    return dbtf_analyze.analyze(root, rules or list(dbtf_analyze.RULES))


def rules_in(findings: list) -> set[str]:
    return {f.rule for f in findings}


class LexerTest(unittest.TestCase):
    def test_comments_strings_and_pp_are_opaque(self):
        tokens = dbtf_analyze.lex(
            '// Status Bad();\n'
            '/* MutexLock l(mu_); */\n'
            '#define M(x) Status Bad##x()\n'
            'const char* s = "Status Bad();";\n')
        ids = [t.text for t in tokens if t.kind == "id"]
        self.assertNotIn("Bad", ids)
        self.assertNotIn("MutexLock", ids)

    def test_raw_string_is_one_token(self):
        tokens = dbtf_analyze.lex('auto s = R"(MutexLock l(mu_);)";')
        self.assertEqual(sum(1 for t in tokens if t.kind == "str"), 1)

    def test_line_numbers_survive_multiline_comments(self):
        tokens = dbtf_analyze.lex("/* a\nb\nc */\nint x;")
        self.assertEqual(tokens[0].line, 4)

    def test_pp_continuation_folds(self):
        tokens = dbtf_analyze.lex("#define M(x) \\\n  do_thing(x)\nint y;")
        self.assertEqual(tokens[0].kind, "pp")
        self.assertEqual(tokens[1].text, "int")
        self.assertEqual(tokens[1].line, 3)


class StructureTest(unittest.TestCase):
    def test_members_after_access_specifier(self):
        sf = dbtf_analyze.SourceFile("src/x.h", (
            "class C {\n"
            " public:\n"
            "  void F();\n"
            " private:\n"
            "  Mutex mu_;\n"
            "  int count_ = 0;\n"
            "};\n"))
        cls = dbtf_analyze.extract_classes(sf.tokens)[0]
        names = [m[0] for m in dbtf_analyze.extract_members(cls.body)]
        self.assertEqual(names, ["mu_", "count_"])

    def test_nested_template_closer_ends_the_declaration(self):
        sf = dbtf_analyze.SourceFile("src/x.h", (
            "class C {\n"
            "  Result<std::vector<int>> Snapshot() const;\n"
            "  Mutex mu_;\n"
            "};\n"))
        cls = dbtf_analyze.extract_classes(sf.tokens)[0]
        names = [m[0] for m in dbtf_analyze.extract_members(cls.body)]
        self.assertEqual(names, ["mu_"])

    def test_out_of_line_method_gets_class_qualifier(self):
        sf = dbtf_analyze.SourceFile(
            "src/x.cc", "int C::F(int x) { return x; }\n")
        fns = dbtf_analyze.extract_functions(sf.tokens)
        self.assertEqual([(f.name, f.qualifier) for f in fns], [("F", "C")])

    def test_constructor_init_list_body_found(self):
        sf = dbtf_analyze.SourceFile(
            "src/x.cc",
            "C::C(int x) : a_(x), b_{x} { DoThing(); }\n")
        fns = dbtf_analyze.extract_functions(sf.tokens)
        self.assertEqual(len(fns), 1)
        self.assertIn("DoThing", [t.text for t in fns[0].body])


class FixtureTest(unittest.TestCase):
    def test_clean_fixture_passes(self):
        self.assertEqual(run("clean"), [])

    def test_discarded_status_fixture_trips(self):
        findings = run("discarded_status")
        self.assertEqual(rules_in(findings), {"discarded-status"})
        self.assertEqual(len(findings), 2)
        lines = sorted(f.line for f in findings)
        self.assertEqual(lines, [16, 17])  # Flush(); store.Persist();

    def test_lock_cycle_fixture_trips(self):
        findings = run("lock_cycle")
        self.assertEqual(rules_in(findings), {"lock-order"})
        self.assertEqual(len(findings), 1)
        message = findings[0].message
        self.assertIn("Worker::mu_a_", message)
        self.assertIn("Worker::mu_b_", message)
        self.assertIn("Recount", message)  # the call-graph hop is named

    def test_lock_holder_cycle_fixture_trips(self):
        findings = run("lock_holder_cycle")
        self.assertEqual(rules_in(findings), {"lock-order"})
        self.assertEqual(len(findings), 1)
        message = findings[0].message
        self.assertIn("Router::mu_", message)
        self.assertIn("router.lanes_[]", message)

    def test_unannotated_guarded_fixture_trips(self):
        findings = run("unannotated_guarded")
        self.assertEqual(rules_in(findings), {"guarded-by"})
        self.assertEqual(len(findings), 1)
        self.assertIn("Counter::total_", findings[0].message)

    def test_kernel_confinement_fixture_trips(self):
        findings = run("kernel_confinement")
        self.assertEqual(rules_in(findings), {"kernel-confinement"})
        # Line 16 trips twice (std::popcount + the word loop carrying it),
        # line 22 once (dst[i] |= src[i]); the analyze-ignore'd loop in
        # SumWords stays silent.
        self.assertEqual(len(findings), 3)
        self.assertEqual(sorted(f.line for f in findings), [16, 16, 22])
        messages = " ".join(f.message for f in findings)
        self.assertIn("std::popcount", messages)
        self.assertIn("raw word loop over BitWord", messages)
        self.assertNotIn("SumWords", messages)

    def test_kernel_confinement_exempts_the_kernel_layer(self):
        # The clean fixture carries a kernels/portable.cc replica full of
        # banned idioms; the path exemption is what keeps it green.
        rel = "src/common/kernels/portable.cc"
        path = FIXTURES / "clean" / rel
        sf = dbtf_analyze.SourceFile(rel, path.read_text())
        # One finding per idiom: the std::popcount call and the word loop.
        self.assertEqual(len(dbtf_analyze._scan_kernel_confinement(sf)), 2)
        self.assertEqual(run("clean", rules=["kernel-confinement"]), [])

    def test_suppression_comment_silences_a_rule(self):
        root = FIXTURES / "unannotated_guarded"
        path = root / "src" / "dist" / "counter.h"
        original = path.read_text()
        try:
            patched = original.replace(
                "int total_ = 0;",
                "int total_ = 0;  // analyze-ignore(guarded-by): fixture")
            path.write_text(patched)
            self.assertEqual(run("unannotated_guarded"), [])
        finally:
            path.write_text(original)

    def test_every_rule_has_a_fixture_that_trips_it(self):
        tripped = set()
        for root in sorted(FIXTURES.iterdir()):
            if root.name != "clean":
                tripped |= rules_in(run(root.name))
        self.assertEqual(tripped, set(dbtf_analyze.RULES))


class SeamFixtureTest(unittest.TestCase):
    """The layering seams: each fixture trips exactly its rule, once per
    offending line."""

    CASES = {  # fixture -> (rule, findings)
        "worker_include": ("worker-include", 1),
        "naked_mutex": ("naked-mutex", 1),
        "thread_construction": ("thread-construction", 1),
        # Two Record* lane mutations and the comm().Reset() line.
        "comm_stats_mutation": ("comm-stats-mutation", 3),
        # Two sleeps plus one ad-hoc Status::Unavailable construction.
        "fault_handling": ("fault-handling", 3),
        # One ofstream, one fopen, and one publishing rename.
        "filesystem_write": ("filesystem-write", 3),
        "recovery_stats_mutation": ("recovery-stats-mutation", 2),
        # socket, bind, listen, fork, execv, kill, waitpid; the "socket ("
        # usage string and std::bind stay clean.
        "transport_syscalls": ("transport-syscalls", 7),
        # std::future return, std::async call, std::promise member, and a
        # std::condition_variable member.
        "async_seam": ("async-seam", 4),
        # The same minus std::async, inside src/dist/: no dist exemption.
        "async_seam_dist": ("async-seam", 3),
    }

    def test_each_fixture_trips_its_rule(self):
        for case, (rule, count) in self.CASES.items():
            with self.subTest(case=case):
                findings = run(case)
                self.assertEqual(rules_in(findings), {rule})
                self.assertEqual(len(findings), count)
        self.assertEqual([(f.path, f.line) for f in run("worker_include")],
                         [("src/dbtf/session.h", 6)])
        self.assertIn("'mu_'", run("naked_mutex")[0].message)
        self.assertEqual({f.path for f in run("async_seam_dist")},
                         {"src/dist/relay.h"})

    def test_container_of_mutexes_is_not_a_naked_mutex(self):
        sf = dbtf_analyze.SourceFile("src/dist/router.h", (
            "class Router {\n"
            "  std::vector<Mutex> delivery_locks_;\n"
            "};\n"))
        self.assertEqual(
            dbtf_analyze.check_seams([sf], list(dbtf_analyze.RULES)), [])

    def test_string_literals_are_not_code(self):
        # The clean fixture quotes sleep(, std::future, std::thread, fork(
        # and fopen( in literals; as code, the first two trip their rules.
        rel = "src/dbtf/help.h"
        text = (FIXTURES / "clean" / rel).read_text()
        self.assertIn("sleep(1)", text)
        self.assertIn("std::future", text)
        rules = list(dbtf_analyze.RULES)
        self.assertEqual(dbtf_analyze.check_seams(
            [dbtf_analyze.SourceFile(rel, text)], rules), [])
        as_code = dbtf_analyze.SourceFile(
            rel, "void F() { sleep(1); std::future<int> f; }\n")
        self.assertEqual(
            rules_in(dbtf_analyze.check_seams([as_code], rules)),
            {"fault-handling", "async-seam"})

    def test_global_qualifier_does_not_hide_a_syscall(self):
        sf = dbtf_analyze.SourceFile(
            "src/dbtf/spawn.cc",
            "int F() {\n  auto g = std::bind(&F);\n  return ::fork();\n}\n")
        findings = dbtf_analyze.check_seams([sf], list(dbtf_analyze.RULES))
        self.assertEqual([(f.rule, f.line) for f in findings],
                         [("transport-syscalls", 3)])

    def test_seams_skip_tests(self):
        sf = dbtf_analyze.SourceFile(
            "tests/runner_test.cc", "void F() { std::thread t([] {}); }\n")
        self.assertEqual(
            dbtf_analyze.check_seams([sf], list(dbtf_analyze.RULES)), [])

    def test_suppression_comment_silences_a_seam(self):
        text = "void F() { std::thread t([] {}); }\n"
        sf = dbtf_analyze.SourceFile("src/dbtf/runner.cc", text)
        rules = list(dbtf_analyze.RULES)
        self.assertEqual(
            rules_in(dbtf_analyze.check_seams([sf], rules)),
            {"thread-construction"})
        suppressed = dbtf_analyze.SourceFile(
            "src/dbtf/runner.cc",
            text.rstrip("\n")
            + "  // analyze-ignore(thread-construction): fixture\n")
        self.assertEqual(dbtf_analyze.check_seams([suppressed], rules), [])


class RepoTest(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        findings = dbtf_analyze.analyze(REPO, list(dbtf_analyze.RULES))
        self.assertEqual([f.render() for f in findings], [])

    def test_repo_rules_engage(self):
        """Guards against silent no-ops: the rules must actually see the
        repo's Status-returning functions and lock structure, not pass
        vacuously."""
        files = dbtf_analyze.load_files(REPO)
        by_rel = {sf.rel: sf for sf in files}

        names = dbtf_analyze.collect_status_returning(files)
        self.assertGreater(len(names), 50)
        self.assertIn("EncodeFrame", names | {"EncodeFrame"})  # sanity

        facts = dbtf_analyze.analyze_lock_facts(
            files, dbtf_analyze.LOCK_ORDER_PREFIXES)
        acquires = sum(len(f.acquires) for f in facts.values())
        self.assertGreater(acquires, 20)
        # The per-machine delivery locks are one lock family, held by a
        # MachineDelivery for its lifetime and taken before any charge
        # acquires Cluster::mu_.
        lock = "cluster.delivery_locks_[]"
        opened = facts["MachineDelivery::MachineDelivery"]
        self.assertIn(lock, opened.all_locks)
        self.assertIn((lock,), [held for held, callee, _ in opened.calls
                                if callee == "IsDead"])
        begin = facts["MachineDelivery::Begin"]
        self.assertIn((lock,), [held for held, callee, _ in begin.calls
                                if callee == "ChargeCompute"])

        guard_classes = dbtf_analyze.collect_guard_classes(files)
        self.assertIn("Cluster", guard_classes)
        self.assertIn("ThreadPool", guard_classes)

        # kernel-confinement must actually see the repo's kernel sources:
        # every backend is wall-to-wall banned idioms, saved only by the
        # path exemption.
        for rel in ("src/common/kernels/portable.cc",
                    "src/common/kernels/avx2.cc",
                    "src/common/kernels/avx512.cc"):
            hits = dbtf_analyze._scan_kernel_confinement(by_rel[rel])
            self.assertGreater(len(hits), 4, rel)
        ids = dbtf_analyze._bitword_identifiers(
            by_rel["src/common/kernels/portable.cc"].tokens)
        self.assertLessEqual({"w", "x", "y", "d", "mask"}, ids)

    def test_repo_seam_owners_engage(self):
        """Every seam exemption is load-bearing: the pattern occurs in the
        file that owns the seam, so the matchers see the repo's real code."""
        by_rel = {sf.rel: sf for sf in dbtf_analyze.load_files(REPO)}
        owners = {
            "worker-include": "src/dist/transport/inproc.cc",
            "naked-mutex": "src/common/mutex.h",
            "thread-construction": "src/dist/thread_pool.h",
            "comm-stats-mutation": "src/dist/cluster.cc",
            "fault-handling": "src/dist/cluster.cc",
            "recovery-stats-mutation": "src/dist/cluster.cc",
            "filesystem-write": "src/ckpt/checkpoint.cc",
            "transport-syscalls": "src/dist/transport/socket.cc",
            "async-seam": "src/dist/thread_pool.h",
        }
        for rule, rel in owners.items():
            toks = by_rel[rel].tokens
            self.assertTrue(any(seam.match(toks, i)
                                for seam in dbtf_analyze.SEAMS
                                if seam.rule == rule
                                for i in range(len(toks))), (rule, rel))

    def test_cli_exit_codes(self):
        self.assertEqual(dbtf_analyze.main(
            ["--root", str(FIXTURES / "clean")]), 0)
        self.assertEqual(dbtf_analyze.main(
            ["--root", str(FIXTURES / "discarded_status")]), 1)
        self.assertEqual(dbtf_analyze.main(
            ["--root", str(FIXTURES / "worker_include"),
             "--rule", "worker-include"]), 1)
        self.assertEqual(dbtf_analyze.main(["--root", str(FIXTURES)]), 2)

    def test_rule_filter(self):
        findings = run("discarded_status", rules=["lock-order"])
        self.assertEqual(findings, [])
        self.assertEqual(run("transport_syscalls", rules=["async-seam"]), [])


if __name__ == "__main__":
    unittest.main()
