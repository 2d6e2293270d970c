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
    return dbtf_analyze.analyze(root, rules or list(dbtf_analyze.RULES),
                                backend="internal")


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

    def test_unserialized_ckpt_field_fixture_trips(self):
        findings = run("unserialized_ckpt_field")
        self.assertEqual(rules_in(findings), {"ckpt-coverage"})
        # best_error is missing from both the Serialize* and Parse* side.
        self.assertEqual(len(findings), 2)
        for f in findings:
            self.assertIn("CheckpointState::best_error", f.message)

    def test_unhandled_wire_field_fixture_trips(self):
        findings = run("unhandled_wire_field")
        self.assertEqual(rules_in(findings), {"wire-coverage"})
        self.assertEqual(len(findings), 2)
        messages = sorted(f.message for f in findings)
        self.assertIn("FactorDelta::rows", messages[0])
        self.assertIn("ShutdownRequest", messages[1])

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


class RepoTest(unittest.TestCase):
    def test_repo_tree_is_clean(self):
        findings = dbtf_analyze.analyze(REPO, list(dbtf_analyze.RULES),
                                        backend="internal")
        self.assertEqual([f.render() for f in findings], [])

    def test_repo_rules_engage(self):
        """Guards against silent no-ops: the rules must actually see the
        repo's schema and lock structure, not pass vacuously."""
        files = dbtf_analyze.load_files(REPO)
        by_rel = {sf.rel: sf for sf in files}

        names = dbtf_analyze.collect_status_returning(files)
        self.assertGreater(len(names), 50)
        self.assertIn("EncodeFrame", names | {"EncodeFrame"})  # sanity

        header = by_rel["src/ckpt/checkpoint.h"]
        fields = dbtf_analyze._struct_fields(header, "CheckpointState")
        self.assertGreater(len(fields), 20)
        self.assertIn("rng_state", [f for f, _ in fields])

        messages = by_rel["src/dist/messages.h"]
        structs = [c.name for c in
                   dbtf_analyze.extract_classes(messages.tokens)
                   if dbtf_analyze.extract_members(c.body)]
        for expected in ("MatrixDelta", "FactorDelta", "RunUpdateColumn",
                         "CollectErrorsRequest", "CollectErrorsResponse",
                         "StorePartitionRequest"):
            self.assertIn(expected, structs)

        facts = dbtf_analyze.analyze_lock_facts(
            files, dbtf_analyze.LOCK_ORDER_PREFIXES)
        acquires = sum(len(f.acquires) for f in facts.values())
        self.assertGreater(acquires, 20)

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

    def test_cli_exit_codes(self):
        self.assertEqual(dbtf_analyze.main(
            ["--root", str(FIXTURES / "clean"), "--backend", "internal"]), 0)
        self.assertEqual(dbtf_analyze.main(
            ["--root", str(FIXTURES / "discarded_status"),
             "--backend", "internal"]), 1)
        self.assertEqual(dbtf_analyze.main(
            ["--root", str(FIXTURES), "--backend", "internal"]), 2)

    def test_rule_filter(self):
        findings = run("discarded_status", rules=["lock-order"])
        self.assertEqual(findings, [])


if __name__ == "__main__":
    unittest.main()
