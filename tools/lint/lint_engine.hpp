#pragma once
// ncast_lint engine: a project-specific two-pass semantic-analysis pass over
// the C++ tree (no libclang). Pass 1 (lint_index) builds a whole-tree index
// — the resolved include graph, module classification, and annotation
// regions — from the shared scanner (lint_scan); pass 2 runs the rule
// families over it. The rules enforce the invariants the runtime regression
// suites can only spot-check:
//
//   determinism.*  — no libc PRNG, no entropy sources, no wall-clock reads,
//                    monotonic clocks confined to src/obs, no iteration over
//                    unordered containers in src/sim, src/overlay, src/node,
//                    no default-seeded RNG construction outside RngStreams,
//                    no float accumulation and balanced markers inside
//                    merge-order-sensitive regions.
//   layering.*     — the include graph must fit the declared allowed-edge
//                    DAG (lint_index.cpp) under transitive closure and must
//                    be cycle-free; violations carry the include chain. No
//                    src/ file may be an orphan: something under bench/,
//                    tools/, examples/ or ncbench/ must reach it.
//   concurrency.*  — in src/sim, src/overlay and src/node (code reachable
//                    from ShardedEngine workers): no unguarded mutable
//                    static or namespace-scope state, no pointer-keyed
//                    ordered containers, no thread-identity reads.
//   hot_path.*     — inside annotated hot regions no allocation, no
//                    std::string construction, no throw.
//   header.*       — #pragma once, no using-namespace in headers, quoted
//                    includes must resolve against the project roots.
//   obs.*          — metric names must be dotted snake_case literals.
//
// Every rule is individually suppressible with an inline allow annotation;
// intentionally shared state carries a shared annotation whose argument is
// the justification (exact syntax in docs/static_analysis.md). Suppressions
// are reported, not hidden. Pre-existing findings can additionally be
// baselined (lint_baseline.hpp) so CI fails only on *new* findings. The
// engine is dependency-free (std only) so the lint binary and its tests
// build before — and independently of — the ncast libraries.

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace ncast::lint {

/// One diagnostic. `file` is repo-relative with '/' separators; `line` is
/// 1-based. Suppressed findings carry the annotation's justification text.
/// `fingerprint` identifies the finding stably across unrelated edits (hash
/// of rule, file, and message — not the line number); `baselined` marks a
/// finding matched by the committed baseline (reported, not counted).
struct Finding {
  std::string rule;
  std::string file;
  std::size_t line = 0;
  std::string message;
  bool suppressed = false;
  std::string justification;
  std::string fingerprint;
  bool baselined = false;
};

struct Options {
  /// Absolute (or cwd-relative) repo root. Scoped rules classify files by
  /// their path below this root; quoted includes resolve against it. When
  /// empty, include resolution is skipped (unit tests lint raw buffers).
  std::string repo_root;
  /// Repo-relative files or directories to scan (default: src bench tools).
  std::vector<std::string> roots;
};

/// The report's include-graph section (pass 1 summary).
struct IncludeGraphSummary {
  std::size_t files = 0;   ///< files indexed
  std::size_t edges = 0;   ///< resolved project-internal include edges
  std::size_t cycles = 0;  ///< distinct include cycles found
  /// Observed module-level dependencies (src modules only, no self-edges).
  std::map<std::string, std::vector<std::string>> module_deps;
};

struct Report {
  std::vector<std::string> roots;
  std::size_t files_scanned = 0;
  IncludeGraphSummary graph;
  /// All findings — active, suppressed, and baselined — sorted by
  /// (file, line, rule), fingerprints assigned.
  std::vector<Finding> findings;
};

/// Every rule id the engine knows, sorted; the report embeds this list so
/// downstream tooling can detect rule-set drift.
const std::vector<std::string>& rule_ids();

/// Lints one in-memory translation unit (pass-2 rules only; tree-wide
/// layering needs lint_tree). `rel_path` drives path-scoped rules
/// ("src/obs/...", header-vs-source); `repo_root` may be empty (skips
/// include resolution). Appends findings to `out` (no fingerprints — those
/// are assigned per report by lint_tree).
void lint_source(const std::string& rel_path, const std::string& text,
                 const std::string& repo_root, std::vector<Finding>& out);

/// Walks `opts.roots` under `opts.repo_root` (extensions: hpp/h/ipp/cpp/cc/
/// cxx), builds the pass-1 index, runs every per-file and tree-wide rule,
/// and returns the sorted, fingerprinted report.
Report lint_tree(const Options& opts);

/// Assigns fingerprints to `report.findings` (stable hash of rule, file,
/// message + duplicate ordinal). lint_tree calls this; exposed for tests
/// that assemble reports by hand.
void assign_fingerprints(Report& report);

/// Serializes a report as the machine-readable `ncast.lint.v2` document.
/// Deterministic: stable key order, findings pre-sorted by lint_tree.
std::string report_json(const Report& report);

/// Unsuppressed, non-baselined findings — what the exit code keys on.
std::size_t violation_count(const Report& report);
std::size_t suppressed_count(const Report& report);
std::size_t baselined_count(const Report& report);

}  // namespace ncast::lint
