#!/usr/bin/env python3
"""Unit tests for sops_lint (the repo-specific determinism/contract lint).

Runs under ctest (registered in CMakeLists.txt as SopsLint.UnitTests) and
standalone:

    python3 tools/test_sops_lint.py

The linter is exercised as a subprocess — exactly how CI and the ctest
gate invoke it — so exit codes and output format are what gets pinned.
The final test runs the real linter over the real src/ tree: the shipped
library must be clean, because the CI gate requires it.
"""
import os
import subprocess
import sys
import tempfile
import unittest

TOOLS_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(TOOLS_DIR)
sys.path.insert(0, TOOLS_DIR)

import semlint_fixtures  # noqa: E402


def run_lint(*args):
    return subprocess.run(
        [sys.executable, os.path.join(TOOLS_DIR, "sops_lint.py"), *args],
        capture_output=True, text=True)


class FixtureTree:
    """A temporary repo-shaped tree to lint."""

    def __init__(self):
        self.dir = tempfile.TemporaryDirectory()
        self.root = self.dir.name

    def write(self, relpath, text):
        path = os.path.join(self.root, relpath)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as f:
            f.write(text)
        return path

    def cleanup(self):
        self.dir.cleanup()


class LintRuleTest(unittest.TestCase):
    """One positive and one negative fixture per rule."""

    def setUp(self):
        self.tree = FixtureTree()

    def tearDown(self):
        self.tree.cleanup()

    def lint(self):
        return run_lint("--root", self.tree.root)

    def assert_finding(self, result, rule, path_fragment):
        self.assertEqual(result.returncode, 1, result.stdout + result.stderr)
        self.assertIn(f"[{rule}]", result.stdout)
        self.assertIn(path_fragment, result.stdout)

    def assert_clean(self, result):
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)
        self.assertIn("clean", result.stdout)

    # nondeterministic-seed ------------------------------------------------

    def test_random_device_in_core_is_a_finding(self):
        self.tree.write("src/core/seed.cpp",
                        "#include <random>\n"
                        "unsigned f() { std::random_device rd; return rd(); }\n")
        self.assert_finding(self.lint(), "nondeterministic-seed",
                            "src/core/seed.cpp:2")

    def test_rand_and_srand_are_findings(self):
        self.tree.write("src/rng/seed.cpp",
                        "#include <cstdlib>\n"
                        "void f() { srand(7); }\n"
                        "int g() { return rand(); }\n")
        result = self.lint()
        self.assert_finding(result, "nondeterministic-seed", "seed.cpp:2")
        self.assertIn("seed.cpp:3", result.stdout)

    def test_identifiers_containing_rand_are_not_findings(self):
        # operand(), rng::Random(...) — word-boundary check, not substring.
        self.tree.write("src/core/ok.cpp",
                        "int operand(int x);\n"
                        "int f() { return operand(3); }\n")
        self.assert_clean(self.lint())

    def test_random_device_outside_trajectory_dirs_is_allowed(self):
        # src/io does not own trajectories; the determinism rules are
        # scoped to src/core, src/amoebot, src/rng, src/sim.
        self.tree.write("src/io/entropy.cpp",
                        "#include <random>\n"
                        "unsigned f() { std::random_device rd; return rd(); }\n")
        self.assert_clean(self.lint())

    # wall-clock -----------------------------------------------------------

    def test_system_clock_in_sim_is_a_finding(self):
        self.tree.write("src/sim/clock.cpp",
                        "#include <chrono>\n"
                        "auto f() { return std::chrono::system_clock::now(); }\n")
        self.assert_finding(self.lint(), "wall-clock", "src/sim/clock.cpp:2")

    def test_time_nullptr_is_a_finding(self):
        self.tree.write("src/amoebot/clock.cpp",
                        "#include <ctime>\n"
                        "auto f() { return time(nullptr); }\n")
        self.assert_finding(self.lint(), "wall-clock", "clock.cpp:2")

    def test_steady_clock_is_allowed(self):
        # Monotonic timing for elapsed-seconds reporting and deadlines is
        # environment, not experiment.
        self.tree.write("src/core/timing.cpp",
                        "#include <chrono>\n"
                        "auto f() { return std::chrono::steady_clock::now(); }\n")
        self.assert_clean(self.lint())

    # unordered-iteration --------------------------------------------------

    def test_range_for_over_unordered_map_is_a_finding(self):
        self.tree.write("src/core/walk.cpp",
                        "#include <unordered_map>\n"
                        "int f() {\n"
                        "  std::unordered_map<int, int> m;\n"
                        "  int s = 0;\n"
                        "  for (auto& kv : m) s += kv.second;\n"
                        "  return s;\n"
                        "}\n")
        self.assert_finding(self.lint(), "unordered-iteration", "walk.cpp:5")

    def test_begin_on_unordered_set_is_a_finding(self):
        self.tree.write("src/core/walk.cpp",
                        "#include <unordered_set>\n"
                        "#include <numeric>\n"
                        "int f() {\n"
                        "  std::unordered_set<int> s;\n"
                        "  return std::accumulate(s.begin(), s.end(), 0);\n"
                        "}\n")
        self.assert_finding(self.lint(), "unordered-iteration", "walk.cpp:5")

    def test_multiline_declaration_is_tracked(self):
        self.tree.write("src/sim/walk.cpp",
                        "#include <string>\n"
                        "#include <unordered_map>\n"
                        "std::unordered_map<std::string,\n"
                        "                   unsigned long long>\n"
                        "    tallies;\n"
                        "int f() {\n"
                        "  int n = 0;\n"
                        "  for (const auto& kv : tallies) n += (int)kv.second;\n"
                        "  return n;\n"
                        "}\n")
        self.assert_finding(self.lint(), "unordered-iteration", "walk.cpp:8")

    def test_unordered_lookup_without_iteration_is_allowed(self):
        self.tree.write("src/core/lookup.cpp",
                        "#include <unordered_map>\n"
                        "#include <string>\n"
                        "int f(const std::string& k) {\n"
                        "  std::unordered_map<std::string, int> m;\n"
                        "  m.emplace(k, 1);\n"
                        "  return m.contains(k) ? m.at(k) : 0;\n"
                        "}\n")
        self.assert_clean(self.lint())

    # bare-assert ----------------------------------------------------------

    def test_bare_assert_is_a_finding_everywhere_in_src(self):
        # Library-wide, not just trajectory dirs: src/io is in scope.
        self.tree.write("src/io/check.cpp",
                        "#include <cassert>\n"
                        "void f(int x) { assert(x > 0); }\n")
        self.assert_finding(self.lint(), "bare-assert", "src/io/check.cpp:2")

    def test_bare_assert_in_oracles_is_a_finding(self):
        # The reference kernels are linted too: a contract that compiles
        # away in Release would weaken every test pinned against them.
        self.tree.write("oracles/reference.hpp",
                        "#include <cassert>\n"
                        "inline void f(int x) { assert(x > 0); }\n")
        self.assert_finding(self.lint(), "bare-assert",
                            "oracles/reference.hpp:2")

    def test_oracles_are_out_of_scope_for_the_other_rules(self):
        # Only bare-assert reaches oracles/: they own no trajectory and are
        # never linked into spps.
        self.tree.write("oracles/reference.cpp",
                        "#include <cstdio>\n"
                        "#include <random>\n"
                        "void f() { std::random_device rd; printf(\"x\"); }\n")
        self.assert_clean(self.lint())

    def test_static_assert_and_sops_macros_are_allowed(self):
        self.tree.write("src/core/check.cpp",
                        "static_assert(sizeof(int) == 4);\n"
                        "#define SOPS_REQUIRE(c, m) ((void)0)\n"
                        "void f(int x) { SOPS_REQUIRE(x > 0, \"x\"); }\n")
        self.assert_clean(self.lint())

    # stdout-io ------------------------------------------------------------

    def test_cout_and_printf_are_findings(self):
        self.tree.write("src/analysis/print.cpp",
                        "#include <cstdio>\n"
                        "#include <iostream>\n"
                        "void f() { std::cout << 1; }\n"
                        "void g() { printf(\"x\"); }\n"
                        "void h() { fprintf(stdout, \"x\"); }\n")
        result = self.lint()
        self.assert_finding(result, "stdout-io", "print.cpp:3")
        self.assertIn("print.cpp:4", result.stdout)
        self.assertIn("print.cpp:5", result.stdout)

    def test_stderr_and_named_streams_are_allowed(self):
        self.tree.write("src/analysis/print.cpp",
                        "#include <cstdio>\n"
                        "#include <iostream>\n"
                        "void f() { std::cerr << 1; }\n"
                        "void g(std::FILE* out) { std::fprintf(out, \"x\"); }\n"
                        "void h() { std::fprintf(stderr, \"x\"); }\n")
        self.assert_clean(self.lint())

    # getenv-in-library ----------------------------------------------------

    def test_getenv_is_a_finding_everywhere_in_src(self):
        # Library-wide scope: src/io is outside the trajectory dirs but
        # still in the library linked into spps.
        self.tree.write("src/io/env.cpp",
                        "#include <cstdlib>\n"
                        "const char* f() { return std::getenv(\"HOME\"); }\n"
                        "const char* g() { return getenv(\"SOPS_X\"); }\n")
        result = self.lint()
        self.assert_finding(result, "getenv-in-library", "env.cpp:2")
        self.assertIn("env.cpp:3", result.stdout)

    def test_getenv_in_bench_is_out_of_scope(self):
        # bench/ layeredParams-style env knobs are that layer's business;
        # only library code is held to the spec-only configuration rule.
        self.tree.write("bench/params.cpp",
                        "#include <cstdlib>\n"
                        "const char* f() { return std::getenv(\"BENCH_N\"); }\n")
        self.tree.write("src/core/clean.cpp", "int f();\n")
        self.assert_clean(self.lint())

    def test_identifiers_containing_getenv_are_not_findings(self):
        self.tree.write("src/core/ok.cpp",
                        "const char* my_getenv_cache(int);\n"
                        "const char* f() { return my_getenv_cache(1); }\n")
        self.assert_clean(self.lint())

    # comments / strings never trip rules ----------------------------------

    def test_matches_inside_comments_and_strings_are_ignored(self):
        self.tree.write("src/core/doc.cpp",
                        "// never use std::random_device or printf( here\n"
                        "/* std::cout << rand() */\n"
                        "const char* kDoc = \"std::random_device printf(\";\n")
        self.assert_clean(self.lint())


class AllowAnnotationTest(unittest.TestCase):
    def setUp(self):
        self.tree = FixtureTree()

    def tearDown(self):
        self.tree.cleanup()

    def lint(self):
        return run_lint("--root", self.tree.root)

    def test_allow_with_reason_suppresses_line_below(self):
        self.tree.write("src/core/allowed.cpp",
                        "#include <random>\n"
                        "// sops-lint: allow(nondeterministic-seed): fixture\n"
                        "unsigned f() { std::random_device rd; return rd(); }\n")
        result = self.lint()
        self.assertEqual(result.returncode, 0, result.stdout + result.stderr)

    def test_allow_with_reason_suppresses_same_line(self):
        self.tree.write(
            "src/core/allowed.cpp",
            "#include <cstdio>\n"
            "void f() { printf(\"x\"); }  "
            "// sops-lint: allow(stdout-io): fixture\n")
        self.assertEqual(self.lint().returncode, 0)

    def test_allow_only_suppresses_its_own_rule(self):
        self.tree.write("src/core/mixed.cpp",
                        "#include <random>\n"
                        "// sops-lint: allow(stdout-io): wrong rule\n"
                        "unsigned f() { std::random_device rd; return rd(); }\n")
        result = self.lint()
        self.assertEqual(result.returncode, 1)
        self.assertIn("[nondeterministic-seed]", result.stdout)

    def test_allow_without_reason_is_a_finding(self):
        self.tree.write("src/core/bare.cpp",
                        "#include <cstdio>\n"
                        "// sops-lint: allow(stdout-io)\n"
                        "void f() { printf(\"x\"); }\n")
        result = self.lint()
        self.assertEqual(result.returncode, 1)
        self.assertIn("[lint-annotation]", result.stdout)
        self.assertIn("without a reason", result.stdout)

    def test_allow_with_unknown_rule_is_a_finding(self):
        self.tree.write("src/core/typo.cpp",
                        "// sops-lint: allow(nondetermnistic-seed): typo\n"
                        "int f();\n")
        result = self.lint()
        self.assertEqual(result.returncode, 1)
        self.assertIn("unknown rule", result.stdout)


class CliContractTest(unittest.TestCase):
    def test_explicit_file_list_scopes_by_path(self):
        tree = FixtureTree()
        try:
            bad = tree.write(
                "src/core/seed.cpp",
                "#include <random>\n"
                "unsigned f() { std::random_device rd; return rd(); }\n")
            result = run_lint("--root", tree.root, bad)
            self.assertEqual(result.returncode, 1)
            self.assertIn("[nondeterministic-seed]", result.stdout)
        finally:
            tree.cleanup()

    def test_file_outside_root_is_a_usage_error(self):
        tree = FixtureTree()
        other = FixtureTree()
        try:
            stray = other.write("src/core/x.cpp", "int f();\n")
            result = run_lint("--root", tree.root, stray)
            self.assertEqual(result.returncode, 2)
        finally:
            tree.cleanup()
            other.cleanup()

    def test_empty_tree_is_a_usage_error(self):
        tree = FixtureTree()
        try:
            result = run_lint("--root", tree.root)
            self.assertEqual(result.returncode, 2)
            self.assertIn("no sources found", result.stderr)
        finally:
            tree.cleanup()


class TextualLintGapTest(unittest.TestCase):
    """The documented blind spots the AST lint exists for.

    These fixtures (shared verbatim with test_sops_semlint.py via
    semlint_fixtures.py) MUST come back clean from the textual lint: they
    are hazards laundered through types, which text cannot see.  If a
    future textual rule starts catching one, the pairing contract in the
    acceptance criteria changes — update both suites deliberately.
    """

    def setUp(self):
        self.tree = FixtureTree()

    def tearDown(self):
        self.tree.cleanup()

    def test_alias_laundered_unordered_iteration_is_missed(self):
        self.tree.write("src/core/laundered.cpp",
                        semlint_fixtures.ALIAS_LAUNDERED_UNORDERED)
        result = run_lint("--root", self.tree.root)
        self.assertEqual(result.returncode, 0,
                         "sops_lint caught the alias-laundered fixture — "
                         "the semlint pairing needs updating:\n"
                         + result.stdout)

    def test_pointer_keyed_map_walk_is_missed(self):
        self.tree.write("src/core/ptrwalk.cpp",
                        semlint_fixtures.POINTER_KEYED_MAP_WALK)
        result = run_lint("--root", self.tree.root)
        self.assertEqual(result.returncode, 0,
                         "sops_lint caught the pointer-keyed fixture — "
                         "the semlint pairing needs updating:\n"
                         + result.stdout)


class ShippedTreeTest(unittest.TestCase):
    def test_shipped_src_tree_is_clean(self):
        # The CI gate runs exactly this; a determinism hazard merged into
        # src/ (or a bare assert into oracles/) fails here first.
        result = run_lint("--root", REPO_ROOT)
        self.assertEqual(result.returncode, 0,
                         "sops_lint found violations in src/:\n"
                         + result.stdout + result.stderr)


if __name__ == "__main__":
    unittest.main()
