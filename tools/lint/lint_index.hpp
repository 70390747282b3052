#pragma once
// Pass 1 of the two-pass analyzer: a whole-tree index built from the scanned
// sources — the resolved quoted-include graph, per-file module classification
// (the `src/<module>/` prefix), and the declared layering DAG the include
// graph is checked against.
//
// The layering spec is *data*, not convention: `allowed_direct_deps()` below
// is the single authoritative statement of which module may include which,
// and `check_layering()` enforces its reflexive-transitive closure over the
// real include graph, reporting the offending include chain for every
// violation plus every include cycle. `tests/test_lint_layering.cpp` holds
// the spec to reality (the current tree must be cycle-free and fit the DAG).

#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "lint/lint_engine.hpp"
#include "lint/lint_scan.hpp"

namespace ncast::lint {

/// One source file handed to the index builder (pass 0 output).
struct SourceFile {
  std::string rel;     ///< repo-relative path, '/' separators
  const Scanned* sc;   ///< scanned views; must outlive the index build
};

/// A resolved project-internal include: `target` is repo-relative.
struct IncludeEdge {
  std::string target;
  std::size_t line;  ///< 1-based line of the #include
};

struct FileNode {
  std::string module;  ///< "sim" for src/sim/..., "" outside src/
  bool is_header = false;
  std::vector<IncludeEdge> edges;  ///< sorted by (line, target)
};

struct Index {
  std::string repo_root;
  std::map<std::string, FileNode> files;
  std::size_t edge_count = 0;  ///< resolved project-internal includes
};

/// "sim" for "src/sim/...", "" for anything outside src/.
std::string module_of(const std::string& rel);

/// The declared allowed-edge DAG: module -> modules it may *directly*
/// include. Leaf modules (obs, util) are implicitly usable everywhere and
/// every module may include itself. Files outside src/ (bench, tools) are
/// the application layer and may include any module.
const std::map<std::string, std::vector<std::string>>& allowed_direct_deps();

/// Reflexive-transitive closure of the declared DAG for `module`, plus the
/// leaf modules. Unknown modules get only themselves + leaves.
std::set<std::string> allowed_closure(const std::string& module);

/// Builds the index: extracts quoted includes from the code_strings view and
/// resolves them against the project include roots (self dir, src/, repo
/// root, bench/, tools/). Unresolvable includes are not edges (the
/// header.include_resolves rule reports those separately).
Index build_index(const std::string& repo_root,
                  const std::vector<SourceFile>& files);

/// Layering enforcement over the index: `layering.cycle` for every include
/// cycle (reported once, at the back edge, with the cycle chain) and
/// `layering.forbidden_include` for every src-module file whose transitive
/// includes reach a module outside its allowed closure (reported at the
/// direct include that starts the chain, with the full chain). Appends
/// findings to `out`; returns the number of distinct cycles.
std::size_t check_layering(const Index& index, std::vector<Finding>& out);

/// The application roots: the repo-relative directories whose files are the
/// entry points of the include graph (bench/, tools/, examples/, ncbench/).
const std::vector<std::string>& application_dirs();

/// Orphan enforcement: `layering.orphan_file`, at line 1, for every src/ file
/// in `index` that no file under an application root reaches through the
/// include graph. Reaching a header brings in the source file beside it
/// (same path, .cpp/.cc/.cxx). `reach_only` indexes files outside the scan
/// roots, read for their includes only; the walk spans both indexes, but
/// only files in `index` are reported.
void check_orphans(const Index& index, const Index& reach_only,
                   std::vector<Finding>& out);

/// Observed module-level dependencies (src modules only, self-edges
/// excluded), for the report's include-graph section and the spec test.
std::map<std::string, std::vector<std::string>> observed_module_deps(
    const Index& index);

}  // namespace ncast::lint
