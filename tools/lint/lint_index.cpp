#include "lint/lint_index.hpp"

#include <algorithm>
#include <filesystem>
#include <regex>

namespace ncast::lint {
namespace {

namespace fs = std::filesystem;

/// Leaf modules every layer may use: observability and generic utilities
/// carry no simulation semantics, so depending on them cannot invert the
/// pipeline.
const std::vector<std::string>& leaf_modules() {
  static const std::vector<std::string> leaves = {"obs", "util"};
  return leaves;
}

}  // namespace

std::string module_of(const std::string& rel) {
  if (rel.rfind("src/", 0) != 0) return "";
  const std::size_t slash = rel.find('/', 4);
  if (slash == std::string::npos) return "";
  return rel.substr(4, slash - 4);
}

const std::map<std::string, std::vector<std::string>>& allowed_direct_deps() {
  // The pipeline, low to high: gf -> linalg -> coding -> overlay -> sim ->
  // node, with graph feeding overlay's flow machinery and baselines as a
  // side consumer of the overlay state. `sim` sits *above* overlay in this
  // tree: the scenario runner drives ThreadMatrix/CurtainServer state, the
  // overlay structures never schedule events. obs/util are leaf-usable
  // everywhere (see leaf_modules) and are therefore not spelled per module.
  static const std::map<std::string, std::vector<std::string>> dag = {
      {"gf", {}},
      {"graph", {}},
      {"obs", {}},
      {"util", {}},
      {"linalg", {"gf"}},
      {"coding", {"linalg"}},
      {"overlay", {"graph"}},
      {"sim", {"coding", "overlay"}},
      {"node", {"sim"}},
      {"baselines", {"overlay", "graph"}},
  };
  return dag;
}

std::set<std::string> allowed_closure(const std::string& module) {
  std::set<std::string> closure;
  closure.insert(module);
  for (const std::string& leaf : leaf_modules()) closure.insert(leaf);
  const auto& dag = allowed_direct_deps();
  std::vector<std::string> work = {module};
  while (!work.empty()) {
    const std::string cur = work.back();
    work.pop_back();
    const auto it = dag.find(cur);
    if (it == dag.end()) continue;
    for (const std::string& dep : it->second) {
      if (closure.insert(dep).second) work.push_back(dep);
    }
  }
  return closure;
}

Index build_index(const std::string& repo_root,
                  const std::vector<SourceFile>& files) {
  static const std::regex include_re(
      R"rx(^\s*#\s*include\s*"([^"]+)")rx");
  Index index;
  index.repo_root = repo_root;
  const fs::path root(repo_root.empty() ? "." : repo_root);

  for (const SourceFile& src : files) {
    FileNode node;
    node.module = module_of(src.rel);
    const auto dot = src.rel.find_last_of('.');
    const std::string ext =
        dot == std::string::npos ? "" : src.rel.substr(dot);
    node.is_header = ext == ".hpp" || ext == ".h" || ext == ".ipp";

    const fs::path self_dir = (root / src.rel).parent_path();
    for (std::size_t i = 0; i < src.sc->code_strings.size(); ++i) {
      std::smatch m;
      const std::string& cs = src.sc->code_strings[i];
      if (!std::regex_search(cs, m, include_re)) continue;
      const std::string inc = m.str(1);
      for (const fs::path& base :
           {self_dir, root / "src", root, root / "bench", root / "tools"}) {
        std::error_code ec;
        if (!fs::exists(base / inc, ec)) continue;
        const fs::path rel = fs::relative(base / inc, root, ec);
        if (ec) break;
        const std::string target = rel.generic_string();
        if (target.rfind("..", 0) == 0) break;  // escapes the repo
        node.edges.push_back(IncludeEdge{target, i + 1});
        ++index.edge_count;
        break;
      }
    }
    std::sort(node.edges.begin(), node.edges.end(),
              [](const IncludeEdge& a, const IncludeEdge& b) {
                if (a.line != b.line) return a.line < b.line;
                return a.target < b.target;
              });
    index.files.emplace(src.rel, std::move(node));
  }
  return index;
}

namespace {

std::string chain_string(const std::vector<std::string>& chain) {
  std::string out;
  for (std::size_t i = 0; i < chain.size(); ++i) {
    if (i != 0) out += " -> ";
    out += chain[i];
  }
  return out;
}

/// Depth-first cycle hunt. Reports each distinct cycle once, at the include
/// (back edge) that closes it, with the full chain in the message.
std::size_t find_cycles(const Index& index, std::vector<Finding>& out) {
  enum class Color { kWhite, kGray, kBlack };
  std::map<std::string, Color> color;
  for (const auto& [rel, node] : index.files) color[rel] = Color::kWhite;

  std::set<std::string> reported;  // canonical cycle keys
  std::vector<std::string> stack;

  // Recursive lambda via explicit frames: (file, next edge idx).
  struct Frame {
    const std::string* rel;
    const FileNode* node;
    std::size_t next = 0;
  };

  std::size_t cycles = 0;
  for (const auto& [start, start_node] : index.files) {
    if (color[start] != Color::kWhite) continue;
    std::vector<Frame> frames;
    frames.push_back(Frame{&start, &start_node});
    color[start] = Color::kGray;
    stack.push_back(start);
    while (!frames.empty()) {
      Frame& f = frames.back();
      if (f.next >= f.node->edges.size()) {
        color[*f.rel] = Color::kBlack;
        stack.pop_back();
        frames.pop_back();
        continue;
      }
      const IncludeEdge& edge = f.node->edges[f.next++];
      const auto it = index.files.find(edge.target);
      if (it == index.files.end()) continue;  // target outside the scan set
      const Color c = color[edge.target];
      if (c == Color::kGray) {
        // Back edge: the chain runs from the target's stack position to the
        // top, then back to the target.
        const auto pos =
            std::find(stack.begin(), stack.end(), edge.target);
        std::vector<std::string> chain(pos, stack.end());
        // Canonical key: rotate so the lexicographically smallest file
        // leads, so the same cycle found from another entry point dedupes.
        std::vector<std::string> canon = chain;
        std::rotate(canon.begin(),
                    std::min_element(canon.begin(), canon.end()),
                    canon.end());
        std::string key;
        for (const std::string& s : canon) key += s + ";";
        if (reported.insert(key).second) {
          ++cycles;
          chain.push_back(edge.target);
          Finding finding;
          finding.rule = "layering.cycle";
          finding.file = *f.rel;
          finding.line = edge.line;
          finding.message = "include cycle: " + chain_string(chain);
          out.push_back(std::move(finding));
        }
      } else if (c == Color::kWhite) {
        color[edge.target] = Color::kGray;
        stack.push_back(edge.target);
        frames.push_back(Frame{&it->first, &it->second});
      }
    }
  }
  return cycles;
}

/// BFS from every src-module file: any reachable file whose module falls
/// outside the allowed closure is a layering violation, reported at the
/// direct include that starts the (shortest) chain.
void find_forbidden(const Index& index, std::vector<Finding>& out) {
  const auto& dag = allowed_direct_deps();
  for (const auto& [rel, node] : index.files) {
    if (node.module.empty()) continue;  // bench/tools: application layer
    if (dag.find(node.module) == dag.end()) {
      Finding finding;
      finding.rule = "layering.forbidden_include";
      finding.file = rel;
      finding.line = 1;
      finding.message = "module '" + node.module +
                        "' is not declared in the layering DAG "
                        "(tools/lint/lint_index.cpp)";
      out.push_back(std::move(finding));
      continue;
    }
    const std::set<std::string> closure = allowed_closure(node.module);

    // BFS with predecessor links; visit order is deterministic (edges are
    // sorted, queue is FIFO), so the first chain to an offender is both
    // shortest and stable.
    std::map<std::string, std::string> pred;
    std::vector<std::string> queue = {rel};
    pred[rel] = "";
    std::set<std::pair<std::size_t, std::string>> seen;  // (line, module)
    for (std::size_t qi = 0; qi < queue.size(); ++qi) {
      const std::string cur = queue[qi];
      const auto it = index.files.find(cur);
      if (it == index.files.end()) continue;
      for (const IncludeEdge& edge : it->second.edges) {
        if (pred.count(edge.target)) continue;
        pred[edge.target] = cur;
        queue.push_back(edge.target);
        const std::string dep_module = module_of(edge.target);
        if (dep_module.empty() || closure.count(dep_module)) continue;
        // Walk back to the direct include of `rel` that starts this chain.
        std::vector<std::string> chain = {edge.target};
        std::string hop = cur;
        while (hop != rel) {
          chain.push_back(hop);
          hop = pred[hop];
        }
        chain.push_back(rel);
        std::reverse(chain.begin(), chain.end());
        const std::string& first_hop = chain[1];
        std::size_t line = 1;
        for (const IncludeEdge& direct : node.edges) {
          if (direct.target == first_hop) {
            line = direct.line;
            break;
          }
        }
        if (!seen.insert({line, dep_module}).second) continue;
        Finding finding;
        finding.rule = "layering.forbidden_include";
        finding.file = rel;
        finding.line = line;
        finding.message =
            "module '" + node.module + "' must not depend on '" + dep_module +
            "' (allowed: " + [&] {
              std::string s;
              for (const std::string& a : closure) {
                if (a == node.module) continue;
                s += s.empty() ? a : ", " + a;
              }
              return s.empty() ? std::string("none") : s;
            }() + "); include chain: " + chain_string(chain);
        out.push_back(std::move(finding));
      }
    }
  }
}

}  // namespace

std::size_t check_layering(const Index& index, std::vector<Finding>& out) {
  const std::size_t cycles = find_cycles(index, out);
  find_forbidden(index, out);
  return cycles;
}

const std::vector<std::string>& application_dirs() {
  static const std::vector<std::string> dirs = {"bench", "tools", "examples",
                                                "ncbench"};
  return dirs;
}

void check_orphans(const Index& index, const Index& reach_only,
                   std::vector<Finding>& out) {
  const auto node_of = [&](const std::string& rel) -> const FileNode* {
    for (const Index* ix : {&index, &reach_only}) {
      const auto it = ix->files.find(rel);
      if (it != ix->files.end()) return &it->second;
    }
    return nullptr;
  };
  std::set<std::string> reached;
  std::vector<std::string> queue;
  const auto visit = [&](const std::string& rel) {
    if (node_of(rel) != nullptr && reached.insert(rel).second) {
      queue.push_back(rel);
    }
  };
  for (const Index* ix : {&index, &reach_only}) {
    for (const auto& [rel, node] : ix->files) {
      for (const std::string& dir : application_dirs()) {
        if (rel.rfind(dir + "/", 0) == 0) visit(rel);
      }
    }
  }
  for (std::size_t qi = 0; qi < queue.size(); ++qi) {
    const std::string cur = queue[qi];
    const FileNode* node = node_of(cur);
    if (node->is_header) {
      const std::string stem = cur.substr(0, cur.find_last_of('.'));
      for (const char* ext : {".cpp", ".cc", ".cxx"}) visit(stem + ext);
    }
    for (const IncludeEdge& edge : node->edges) visit(edge.target);
  }
  for (const auto& [rel, node] : index.files) {
    if (rel.rfind("src/", 0) != 0 || reached.count(rel)) continue;
    Finding finding;
    finding.rule = "layering.orphan_file";
    finding.file = rel;
    finding.line = 1;
    finding.message =
        "no file under bench/, tools/, examples/ or ncbench/ reaches this "
        "file through the include graph; use it or delete it";
    out.push_back(std::move(finding));
  }
}

std::map<std::string, std::vector<std::string>> observed_module_deps(
    const Index& index) {
  std::map<std::string, std::set<std::string>> deps;
  for (const auto& [rel, node] : index.files) {
    if (node.module.empty()) continue;
    deps[node.module];  // modules with no deps still appear
    for (const IncludeEdge& edge : node.edges) {
      const std::string dep = module_of(edge.target);
      if (!dep.empty() && dep != node.module) deps[node.module].insert(dep);
    }
  }
  std::map<std::string, std::vector<std::string>> out;
  for (auto& [module, set] : deps) {
    out.emplace(module, std::vector<std::string>(set.begin(), set.end()));
  }
  return out;
}

}  // namespace ncast::lint
