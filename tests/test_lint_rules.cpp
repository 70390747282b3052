// Tests for tools/lint — the project-specific static analysis pass.
//
// Two layers:
//   * unit tests drive lint_source() on in-memory buffers (empty repo_root
//     disables include resolution) and pin down each rule's firing and
//     suppression semantics, including the comment/string masking that keeps
//     the scanner from chasing decoys;
//   * a golden test runs lint_tree() over tests/lint_fixtures/tree and
//     compares the serialized report byte-for-byte against
//     tests/lint_fixtures/golden.json, proving every rule fires somewhere in
//     the corpus and that every rule is suppressible.
//
// The fixture markers below are assembled from fragments so this test file
// itself stays clean under the repo-wide lint_tree ctest run.

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/lint_baseline.hpp"
#include "lint/lint_engine.hpp"

namespace {

using ncast::lint::Baseline;
using ncast::lint::BaselineEntry;
using ncast::lint::Finding;
using ncast::lint::Options;
using ncast::lint::Report;

// Marker fragments: concatenated at runtime so the real linter does not see
// literal annotations inside this (scanned) test file.
const std::string kAllow = std::string("// ncast:") + "allow(";
const std::string kHotBegin = std::string("// ncast:") + "hot-begin";
const std::string kHotEnd = std::string("// ncast:") + "hot-end";
const std::string kShared = std::string("// ncast:") + "shared(";
const std::string kMergeBegin = std::string("// ncast:") + "merge-begin";
const std::string kMergeEnd = std::string("// ncast:") + "merge-end";

Finding make_finding(const std::string& rule, const std::string& file,
                     std::size_t line, const std::string& message) {
  Finding f;
  f.rule = rule;
  f.file = file;
  f.line = line;
  f.message = message;
  return f;
}

std::vector<Finding> lint(const std::string& path, const std::string& text) {
  std::vector<Finding> out;
  ncast::lint::lint_source(path, text, /*repo_root=*/"", out);
  return out;
}

std::vector<std::string> rules_of(const std::vector<Finding>& fs,
                                  bool suppressed) {
  std::vector<std::string> out;
  for (const auto& f : fs) {
    if (f.suppressed == suppressed) out.push_back(f.rule);
  }
  std::sort(out.begin(), out.end());
  return out;
}

TEST(LintDeterminism, LibcRandFires) {
  const auto fs = lint("src/node/x.cpp", "int f() { return rand(); }\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "determinism.libc_rand");
  EXPECT_EQ(fs[0].line, 1u);
  EXPECT_FALSE(fs[0].suppressed);
}

TEST(LintDeterminism, WallClockVariantsFire) {
  const std::string text =
      "#include <ctime>\n"
      "long a() { return std::time(nullptr); }\n"
      "long b();  // uses system_clock::now() eventually\n"
      "auto c = std::chrono::system_clock::now();\n";
  const auto fs = lint("src/coding/x.cpp", text);
  const auto v = rules_of(fs, /*suppressed=*/false);
  EXPECT_EQ(v, (std::vector<std::string>{"determinism.wall_clock",
                                         "determinism.wall_clock"}));
}

TEST(LintDeterminism, SteadyClockExemptUnderObs) {
  const std::string text = "auto probe() { return std::chrono::steady_clock::now(); }\n";
  EXPECT_TRUE(lint("src/obs/timer.cpp", text).empty());
  const auto fs = lint("src/sim/timer.cpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "determinism.steady_clock");
}

TEST(LintDeterminism, UnorderedIterationScopedToSimOverlayNode) {
  const std::string text =
      "#pragma once\n"
      "#include <unordered_map>\n"
      "int sum(const std::unordered_map<int, int>& m) {\n"
      "  int acc = 0;\n"
      "  for (const auto& kv : m) acc += kv.second;\n"
      "  return acc;\n"
      "}\n";
  const auto fs = lint("src/sim/x.hpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "determinism.unordered_iteration");
  EXPECT_EQ(fs[0].line, 5u);
  // The same code is fine outside the scoped directories (util, gf, ...).
  EXPECT_TRUE(lint("src/util/x.hpp", text).empty());
}

TEST(LintDeterminism, UnorderedLookupIsQuiet) {
  const std::string text =
      "#pragma once\n"
      "#include <unordered_map>\n"
      "int get(const std::unordered_map<int, int>& m) {\n"
      "  auto it = m.find(3);\n"
      "  return it == m.end() ? 0 : it->second + static_cast<int>(m.size());\n"
      "}\n";
  EXPECT_TRUE(lint("src/overlay/x.hpp", text).empty());
}

TEST(LintHotPath, RulesOnlyFireInsideRegion) {
  const std::string text =
      "void cold(std::vector<int>& v) { v.push_back(1); }\n" +
      kHotBegin + "\n" +
      "void hot(std::vector<int>& v) { v.push_back(2); }\n" +
      kHotEnd + "\n";
  const auto fs = lint("src/coding/x.cpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "hot_path.alloc");
  EXPECT_EQ(fs[0].line, 3u);
}

TEST(LintHotPath, StringAndThrowFire) {
  const std::string text = kHotBegin + "\n" +
                           "void f() { std::string s; if (s.empty()) throw 1; }\n" +
                           kHotEnd + "\n";
  const auto fs = lint("src/linalg/x.cpp", text);
  EXPECT_EQ(rules_of(fs, false),
            (std::vector<std::string>{"hot_path.string", "hot_path.throw"}));
}

TEST(LintHotPath, UnbalancedRegionFires) {
  const auto end_only = lint("src/gf/x.cpp", kHotEnd + "\n");
  ASSERT_EQ(end_only.size(), 1u);
  EXPECT_EQ(end_only[0].rule, "hot_path.region");

  const auto begin_only = lint("src/gf/x.cpp", kHotBegin + "\n");
  ASSERT_EQ(begin_only.size(), 1u);
  EXPECT_EQ(begin_only[0].rule, "hot_path.region");
  EXPECT_EQ(begin_only[0].line, 1u);
}

TEST(LintHeader, PragmaOnceAndUsingNamespace) {
  const std::string text = "using namespace std;\nint x = 0;\n";
  const auto fs = lint("src/graph/x.hpp", text);
  EXPECT_EQ(rules_of(fs, false),
            (std::vector<std::string>{"header.pragma_once",
                                      "header.using_namespace"}));
  // Source files are exempt from header hygiene.
  EXPECT_TRUE(lint("src/graph/x.cpp", text).empty());
}

TEST(LintObs, MetricNamesMustBeDottedSnakeCase) {
  const std::string text =
      "void f() {\n"
      "  metrics().counter(\"node.packets_sent\").add(1);\n"
      "  metrics().gauge(\"BadName\").set(2);\n"
      "  metrics().histogram(\n"
      "      \"decode.rank_delta\");\n"
      "}\n";
  const auto fs = lint("src/node/x.cpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "obs.metric_name");
  EXPECT_EQ(fs[0].line, 3u);
}

TEST(LintAnnotations, InlineAllowSuppressesOwnLine) {
  const std::string text = "int f() { return rand(); }  " + kAllow +
                           "determinism.libc_rand): unit test\n";
  const auto fs = lint("src/node/x.cpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(fs[0].suppressed);
  EXPECT_EQ(fs[0].justification, "unit test");
}

TEST(LintAnnotations, StandaloneAllowCoversNextCodeLine) {
  const std::string text = kAllow + "determinism.libc_rand): unit test\n" +
                           "int f() { return rand(); }\n";
  const auto fs = lint("src/node/x.cpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(fs[0].suppressed);
  // ...but not the line after that.
  const auto far = lint("src/node/x.cpp",
                        kAllow + "determinism.libc_rand): unit test\n" +
                            "const int g = 0;\n" +
                            "int f() { return rand(); }\n");
  ASSERT_EQ(far.size(), 1u);
  EXPECT_FALSE(far[0].suppressed);
}

TEST(LintAnnotations, UnknownRuleIsReportedAndSuppressible) {
  const auto bad = lint("src/node/x.cpp", kAllow + "no.such_rule): why\n");
  ASSERT_EQ(bad.size(), 1u);
  EXPECT_EQ(bad[0].rule, "lint.bad_annotation");
  EXPECT_FALSE(bad[0].suppressed);

  const auto ok = lint("src/node/x.cpp",
                       kAllow + "no.such_rule): why  " + kAllow +
                           "lint.bad_annotation): unit test\n");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_TRUE(ok[0].suppressed);
}

TEST(LintMasking, CommentsAndStringsAreInert) {
  const std::string text =
      "// calls rand() and std::random_device in prose only\n"
      "const char* s = \"system_clock and malloc( and throw\";\n"
      "/* using namespace std; time(nullptr) */\n"
      "const char* r = R\"(rand() push_back()\";\n";
  EXPECT_TRUE(lint("src/sim/x.cpp", text).empty());
}

TEST(LintConcurrency, SharedMutableStaticFires) {
  for (const char* path : {"src/sim/x.cpp", "src/overlay/x.cpp"}) {
    const auto fs =
        lint(path, "void f() { static int calls = 0; ++calls; }\n");
    ASSERT_EQ(fs.size(), 1u) << path;
    EXPECT_EQ(fs[0].rule, "concurrency.shared_mutable_state") << path;
  }
  // The same code is fine outside shard scope (not worker-executed).
  EXPECT_TRUE(
      lint("src/coding/x.cpp", "void f() { static int c = 0; ++c; }\n")
          .empty());
}

TEST(LintConcurrency, GuardedOrImmutableStaticsAreQuiet) {
  const std::string text =
      "#include <atomic>\n"
      "#include <mutex>\n"
      "void f() {\n"
      "  static const int kTries = 3;\n"
      "  static constexpr double kEps = 1e-9;\n"
      "  static thread_local int scratch = 0;\n"
      "  static std::atomic<int> hits{0};\n"
      "  static std::mutex mu;\n"
      "  static int helper();\n"
      "  (void)kTries; (void)kEps; (void)scratch;\n"
      "}\n";
  EXPECT_TRUE(lint("src/sim/x.cpp", text).empty());
}

TEST(LintConcurrency, NamespaceScopeMutableFires) {
  const std::string text =
      "namespace ncast {\n"
      "int hits = 0;\n"
      "const int kCap = 4;\n"
      "int peek();\n"
      "}\n";
  const auto fs = lint("src/node/x.cpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "concurrency.shared_mutable_state");
  EXPECT_EQ(fs[0].line, 2u);
}

TEST(LintConcurrency, ParameterListsAreNotNamespaceState) {
  // Multi-line declarations with default arguments were the classic false
  // positive: the continuation line ends in "= 0);".
  const std::string text =
      "namespace ncast {\n"
      "int run(int a,\n"
      "        int b = 0);\n"
      "}\n";
  EXPECT_TRUE(lint("src/sim/x.cpp", text).empty());
}

TEST(LintConcurrency, SharedAnnotationSuppressesWithReason) {
  const std::string text =
      kShared + "guarded by the registry mutex)\n" +
      "static long total = 0;\n";
  const auto fs = lint("src/sim/x.cpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_TRUE(fs[0].suppressed);
  EXPECT_EQ(fs[0].justification, "guarded by the registry mutex");

  // An empty reason is not a suppression — it is a finding of its own.
  const auto bad = lint("src/sim/x.cpp", kShared + ")\nstatic long t = 0;\n");
  const auto v = rules_of(bad, /*suppressed=*/false);
  EXPECT_EQ(v, (std::vector<std::string>{"concurrency.shared_mutable_state",
                                         "lint.bad_annotation"}));
}

TEST(LintConcurrency, PointerKeyedContainersFire) {
  const auto fs = lint("src/sim/x.cpp",
                       "void f() { std::map<Node*, int> order; }\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "concurrency.pointer_keyed");
  // Pointer VALUES are fine — only the key drives iteration order.
  EXPECT_TRUE(lint("src/sim/x.cpp",
                   "void f() { std::map<Address, Endpoint*> peers; }\n")
                  .empty());
  // set<T*> counts too (class members included).
  EXPECT_EQ(
      lint("src/node/x.cpp", "struct S { std::set<Obj*> live_; };\n").size(),
      1u);
  // Out of shard scope: quiet.
  EXPECT_TRUE(
      lint("src/graph/x.cpp", "void f() { std::map<Node*, int> m; }\n")
          .empty());
}

TEST(LintConcurrency, ThreadAmbientScopedToSimAndNode) {
  const std::string text =
      "void f() { auto id = std::this_thread::get_id(); (void)id; }\n";
  const auto fs = lint("src/sim/x.cpp", text);
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "concurrency.thread_ambient");
  EXPECT_TRUE(lint("src/obs/x.cpp", text).empty());
}

TEST(LintDeterminism, UnseededRngConstructionFires) {
  const auto empty_parens =
      lint("src/sim/x.cpp", "void f() { auto r = util::Rng(); }\n");
  ASSERT_EQ(empty_parens.size(), 1u);
  EXPECT_EQ(empty_parens[0].rule, "determinism.unseeded_rng");

  const auto std_engine = lint("src/coding/x.cpp", "std::mt19937 gen;\n");
  ASSERT_EQ(std_engine.size(), 1u);
  EXPECT_EQ(std_engine[0].rule, "determinism.unseeded_rng");

  // A seeded Rng is the idiom the rule steers toward.
  EXPECT_TRUE(
      lint("src/sim/x.cpp", "void f() { auto r = util::Rng(seed); }\n")
          .empty());
  // src/util defines Rng itself and is exempt.
  EXPECT_TRUE(lint("src/util/rng_impl.cpp", "Rng make() { return Rng(); }\n")
                  .empty());
}

TEST(LintDeterminism, FloatAccumOnlyInsideMergeRegions) {
  const std::string body =
      "void merge(double w) {\n"
      "  double total = 0.0;\n"
      "  long count = 0;\n"
      "  total += w;\n"
      "  count += 1;\n"
      "}\n";
  // Outside a merge region: quiet.
  EXPECT_TRUE(lint("src/sim/x.cpp", body).empty());
  // Inside: the double accumulation fires, the integer one does not.
  const auto fs =
      lint("src/sim/x.cpp", kMergeBegin + "\n" + body + kMergeEnd + "\n");
  ASSERT_EQ(fs.size(), 1u);
  EXPECT_EQ(fs[0].rule, "determinism.float_accum");
  EXPECT_EQ(fs[0].line, 5u);
}

TEST(LintDeterminism, MergeRegionMarkersMustBalance) {
  const auto end_only = lint("src/sim/x.cpp", kMergeEnd + "\n");
  ASSERT_EQ(end_only.size(), 1u);
  EXPECT_EQ(end_only[0].rule, "determinism.merge_region");

  const auto begin_only = lint("src/sim/x.cpp", kMergeBegin + "\n");
  ASSERT_EQ(begin_only.size(), 1u);
  EXPECT_EQ(begin_only[0].rule, "determinism.merge_region");
  EXPECT_EQ(begin_only[0].line, 1u);

  const auto balanced =
      lint("src/sim/x.cpp", kMergeBegin + "\n" + kMergeEnd + "\n");
  EXPECT_TRUE(balanced.empty());
}

TEST(LintFingerprints, StableAcrossLinesDistinctAcrossDuplicates) {
  Report a;
  a.findings.push_back(
      make_finding("determinism.libc_rand", "src/sim/x.cpp", 10, "'rand(': no"));
  ncast::lint::assign_fingerprints(a);

  Report b = a;
  b.findings[0].line = 99;  // an edit moved the finding
  b.findings[0].fingerprint.clear();
  ncast::lint::assign_fingerprints(b);
  EXPECT_EQ(a.findings[0].fingerprint, b.findings[0].fingerprint)
      << "fingerprints must not depend on line numbers";

  // Two identical findings stay individually addressable via the ordinal.
  Report c = a;
  c.findings.push_back(c.findings[0]);
  ncast::lint::assign_fingerprints(c);
  EXPECT_EQ(c.findings[0].fingerprint, a.findings[0].fingerprint);
  EXPECT_NE(c.findings[1].fingerprint, c.findings[0].fingerprint);
}

TEST(LintBaseline, MatchingFingerprintIsBaselined) {
  Report report;
  report.findings.push_back(
      make_finding("determinism.libc_rand", "src/sim/x.cpp", 3, "'rand(': no"));
  ncast::lint::assign_fingerprints(report);

  Baseline baseline;
  baseline.budgets["determinism.libc_rand"] = 1;
  baseline.entries.push_back(BaselineEntry{
      "determinism.libc_rand", "src/sim/x.cpp", report.findings[0].fingerprint});

  const auto errors = ncast::lint::apply_baseline(report, baseline);
  EXPECT_TRUE(errors.empty());
  EXPECT_TRUE(report.findings[0].baselined);
  EXPECT_EQ(ncast::lint::violation_count(report), 0u);
  EXPECT_EQ(ncast::lint::baselined_count(report), 1u);
}

TEST(LintBaseline, StaleAndOverBudgetEntriesAreErrors) {
  Report report;  // no findings at all
  Baseline baseline;
  baseline.budgets["determinism.libc_rand"] = 1;
  baseline.entries.push_back(
      BaselineEntry{"determinism.libc_rand", "src/sim/gone.cpp", "deadbeef"});
  const auto stale = ncast::lint::apply_baseline(report, baseline);
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_NE(stale[0].find("stale"), std::string::npos);

  Baseline fat;
  fat.budgets["determinism.libc_rand"] = 1;
  fat.entries.push_back(
      BaselineEntry{"determinism.libc_rand", "a.cpp", "fp1"});
  fat.entries.push_back(
      BaselineEntry{"determinism.libc_rand", "b.cpp", "fp2"});
  const auto over = ncast::lint::apply_baseline(report, fat);
  bool budget_error = false;
  for (const auto& e : over) {
    if (e.find("exceed the budget") != std::string::npos) budget_error = true;
  }
  EXPECT_TRUE(budget_error);
}

TEST(LintBaseline, WriteRefusesToGrowTheBudget) {
  Report report;
  report.findings.push_back(make_finding("determinism.libc_rand", "a.cpp", 1, "one"));
  report.findings.push_back(make_finding("determinism.libc_rand", "b.cpp", 1, "two"));
  ncast::lint::assign_fingerprints(report);

  Baseline previous;
  previous.budgets["determinism.libc_rand"] = 1;
  EXPECT_THROW(ncast::lint::write_baseline_json(report, &previous),
               std::runtime_error);
  // Without a previous baseline the two findings are simply recorded.
  const std::string fresh = ncast::lint::write_baseline_json(report, nullptr);
  EXPECT_NE(fresh.find("\"determinism.libc_rand\": 2"), std::string::npos);
  // Round-trip: the writer's output parses and applies cleanly.
  Baseline parsed = ncast::lint::parse_baseline(fresh);
  EXPECT_EQ(parsed.entries.size(), 2u);
  EXPECT_TRUE(ncast::lint::apply_baseline(report, parsed).empty());
}

TEST(LintBaseline, ParserRejectsMalformedDocuments) {
  EXPECT_THROW(ncast::lint::parse_baseline("not json"), std::exception);
  EXPECT_THROW(ncast::lint::parse_baseline(
                   "{\"schema\": \"ncast.bench.v1\", \"entries\": []}"),
               std::runtime_error);
  EXPECT_THROW(
      ncast::lint::parse_baseline(
          "{\"schema\": \"ncast.lint.baseline.v1\", \"entries\": [{}]}"),
      std::runtime_error);
}

TEST(LintTree, GoldenReportIsByteStable) {
  Options opts;
  opts.repo_root = std::string(NCAST_LINT_FIXTURE_DIR) + "/tree";
  opts.roots = {"src", "bench"};
  const Report report = ncast::lint::lint_tree(opts);

  std::ifstream in(std::string(NCAST_LINT_FIXTURE_DIR) + "/golden.json",
                   std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing tests/lint_fixtures/golden.json";
  std::ostringstream golden;
  golden << in.rdbuf();

  EXPECT_EQ(ncast::lint::report_json(report), golden.str());
}

// The orphan rule walks the include graph from the application roots, which
// it reads whether or not they are scanned: the same orphans come out of a
// src-only scan. A header brings in its .cpp, and the .cpp's includes with
// it, so paired_impl.hpp (included only by paired.cpp) is not an orphan.
TEST(LintTree, OrphanRuleFollowsHeaderSourcePairs) {
  for (const std::vector<std::string>& roots :
       {std::vector<std::string>{"src", "bench"},
        std::vector<std::string>{"src"}}) {
    Options opts;
    opts.repo_root = std::string(NCAST_LINT_FIXTURE_DIR) + "/tree";
    opts.roots = roots;
    const Report report = ncast::lint::lint_tree(opts);

    std::set<std::string> fired;
    std::set<std::string> suppressed;
    for (const auto& f : report.findings) {
      if (f.rule != "layering.orphan_file") continue;
      EXPECT_EQ(f.line, 1u);
      (f.suppressed ? suppressed : fired).insert(f.file);
    }
    EXPECT_EQ(fired, (std::set<std::string>{"src/coding/orphan.cpp",
                                            "src/coding/orphan.hpp"}));
    EXPECT_EQ(suppressed,
              (std::set<std::string>{"src/coding/orphan_ok.hpp"}));
  }
}

TEST(LintTree, EveryRuleFiresAndIsSuppressedInFixtures) {
  Options opts;
  opts.repo_root = std::string(NCAST_LINT_FIXTURE_DIR) + "/tree";
  opts.roots = {"src", "bench"};
  const Report report = ncast::lint::lint_tree(opts);

  std::set<std::string> fired;
  std::set<std::string> suppressed;
  for (const auto& f : report.findings) {
    (f.suppressed ? suppressed : fired).insert(f.rule);
  }
  for (const auto& rule : ncast::lint::rule_ids()) {
    EXPECT_TRUE(fired.count(rule)) << rule << " never fires in the fixtures";
    EXPECT_TRUE(suppressed.count(rule))
        << rule << " is never suppressed in the fixtures";
  }
}

}  // namespace
