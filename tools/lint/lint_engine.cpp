#include "lint/lint_engine.hpp"

#include <algorithm>
#include <array>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>

#include "lint/lint_index.hpp"
#include "lint/lint_scan.hpp"

namespace ncast::lint {
namespace {

namespace fs = std::filesystem;

// Annotation markers. Kept as string constants (never spelled out in
// comments) so the engine stays clean when linting its own source.
constexpr const char* kAllowMarker = "ncast:allow(";
constexpr const char* kSharedMarker = "ncast:shared(";
constexpr const char* kHotBegin = "ncast:hot-begin";
constexpr const char* kHotEnd = "ncast:hot-end";
constexpr const char* kMergeBegin = "ncast:merge-begin";
constexpr const char* kMergeEnd = "ncast:merge-end";

// ---------------------------------------------------------------------------
// Rule table
// ---------------------------------------------------------------------------

struct TokenRule {
  const char* id;
  const char* pattern;  // ECMAScript; first match is quoted in the message
  const char* why;
};

// Determinism rules, applied to masked code everywhere under the scan roots.
const TokenRule kLibcRand = {
    "determinism.libc_rand",
    R"(\b(?:std\s*::\s*)?s?rand\s*\(|\brandom_shuffle\b)",
    "libc PRNG breaks seed-stable runs; draw from util/rng.hpp streams"};
const TokenRule kRandomDevice = {
    "determinism.random_device", R"(\brandom_device\b)",
    "hardware entropy is nondeterministic; derive seeds from the run seed"};
const TokenRule kWallClock = {
    "determinism.wall_clock",
    R"(\bsystem_clock\b|\bstd\s*::\s*time\s*\(|\btime\s*\(\s*(?:nullptr|NULL|0)\s*\)|\bgettimeofday\b|\bclock_gettime\b|\blocaltime\b|\bgmtime\b|\bmktime\b)",
    "wall-clock reads make runs irreproducible"};
const TokenRule kSteadyClock = {
    "determinism.steady_clock",
    R"(\bsteady_clock\b|\bhigh_resolution_clock\b)",
    "monotonic clocks are confined to src/obs (timing is observability)"};
const TokenRule kUnseededRng = {
    "determinism.unseeded_rng",
    R"(\bRng\s*\(\s*\)|\bRng\s*\{\s*\}|\bmt19937(?:_64)?\b|\bdefault_random_engine\b|\bminstd_rand0?\b|\branlux\w+\b|\bknuth_b\b)",
    "default-seeded RNG construction bypasses RngStreams; derive every "
    "stream from the run seed"};

// Shard-concurrency rules, applied in src/sim, src/overlay and src/node (the
// code that executes on ShardedEngine workers).
const TokenRule kThreadAmbient = {
    "concurrency.thread_ambient",
    R"(\bthis_thread\b|\bpthread_self\b|\bgettid\s*\(|\bthread\s*::\s*id\b|\bget_id\s*\()",
    "thread identity is schedule-dependent; results must be a pure function "
    "of the seed"};

// Hot-region rules, applied only between the hot markers.
const TokenRule kHotAlloc = {
    "hot_path.alloc",
    R"(\bnew\b|\bmalloc\s*\(|\bcalloc\s*\(|\brealloc\s*\(|\bpush_back\s*\(|\bemplace_back\s*\(|\bresize\s*\(|\breserve\s*\()",
    "hot regions are allocation-free (see docs/performance.md)"};
const TokenRule kHotString = {
    "hot_path.string",
    R"(\bstd\s*::\s*(?:string|to_string|stringstream|ostringstream)\b)",
    "std::string construction allocates in hot regions"};
const TokenRule kHotThrow = {
    "hot_path.throw", R"(\bthrow\b)",
    "hot regions must not throw (unwinding is not allocation-free)"};

const TokenRule kUsingNamespace = {
    "header.using_namespace", R"(\busing\s+namespace\b)",
    "headers must not inject namespaces into every includer"};

const char* kRuleList[] = {
    "concurrency.pointer_keyed",
    "concurrency.shared_mutable_state",
    "concurrency.thread_ambient",
    "determinism.float_accum",
    "determinism.libc_rand",
    "determinism.merge_region",
    "determinism.random_device",
    "determinism.steady_clock",
    "determinism.unordered_iteration",
    "determinism.unseeded_rng",
    "determinism.wall_clock",
    "header.include_resolves",
    "header.pragma_once",
    "header.using_namespace",
    "hot_path.alloc",
    "hot_path.region",
    "hot_path.string",
    "hot_path.throw",
    "layering.cycle",
    "layering.forbidden_include",
    "layering.orphan_file",
    "lint.bad_annotation",
    "obs.metric_name",
};

bool known_rule(const std::string& id) {
  for (const char* r : kRuleList) {
    if (id == r) return true;
  }
  return false;
}

bool starts_with(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool blank(const std::string& s) {
  return s.find_first_not_of(" \t") == std::string::npos;
}

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t");
  return s.substr(b, e - b + 1);
}

bool contains_word(const std::string& s, const char* word) {
  const std::size_t len = std::string(word).size();
  std::size_t pos = 0;
  while ((pos = s.find(word, pos)) != std::string::npos) {
    const bool left_ok = pos == 0 || !is_ident_char(s[pos - 1]);
    const bool right_ok =
        pos + len >= s.size() || !is_ident_char(s[pos + len]);
    if (left_ok && right_ok) return true;
    pos += len;
  }
  return false;
}

/// Suppression map: 1-based line -> rule id -> justification.
using AllowMap = std::map<std::size_t, std::map<std::string, std::string>>;

/// Lines an annotation on comment line `i` (0-based) covers: its own line
/// plus, when the line carries no code, the next line that does.
std::vector<std::size_t> annotation_targets(const Scanned& sc, std::size_t i) {
  std::vector<std::size_t> targets = {i + 1};
  if (blank(sc.code[i])) {
    std::size_t j = i + 1;
    while (j < sc.code.size() && blank(sc.code[j])) ++j;
    if (j < sc.code.size()) targets.push_back(j + 1);
  }
  return targets;
}

/// Parses allow annotations out of comment text into an AllowMap. Unknown
/// rule ids land in `unknown` (validated by the caller); shared annotations
/// register as suppressions of the shared-state rule, with the reason text
/// as the justification (an empty reason lands in `empty_shared`).
AllowMap collect_allows(const Scanned& sc,
                        std::vector<std::pair<std::size_t, std::string>>* unknown,
                        std::vector<std::size_t>* empty_shared) {
  AllowMap allows;
  const std::size_t lines = sc.comment.size();
  for (std::size_t i = 0; i < lines; ++i) {
    const std::string& comment = sc.comment[i];
    std::size_t pos = 0;
    while ((pos = comment.find(kAllowMarker, pos)) != std::string::npos) {
      const std::size_t open = pos + std::string(kAllowMarker).size();
      const std::size_t close = comment.find(')', open);
      if (close == std::string::npos) break;
      const std::string rule_csv = comment.substr(open, close - open);
      std::string justification;
      std::size_t after = close + 1;
      if (after < comment.size() && comment[after] == ':') {
        justification = trim(comment.substr(after + 1));
      }
      const std::vector<std::size_t> targets = annotation_targets(sc, i);
      std::stringstream ss(rule_csv);
      std::string rule;
      while (std::getline(ss, rule, ',')) {
        rule = trim(rule);
        if (rule.empty()) continue;
        if (!known_rule(rule)) {
          if (unknown != nullptr) unknown->emplace_back(i + 1, rule);
          continue;
        }
        for (const std::size_t t : targets) {
          allows[t][rule] = justification;
        }
      }
      pos = close;
    }
    pos = 0;
    while ((pos = comment.find(kSharedMarker, pos)) != std::string::npos) {
      const std::size_t open = pos + std::string(kSharedMarker).size();
      const std::size_t close = comment.find(')', open);
      if (close == std::string::npos) break;
      const std::string why = trim(comment.substr(open, close - open));
      if (why.empty()) {
        if (empty_shared != nullptr) empty_shared->push_back(i + 1);
      } else {
        for (const std::size_t t : annotation_targets(sc, i)) {
          allows[t]["concurrency.shared_mutable_state"] = why;
        }
      }
      pos = close;
    }
  }
  return allows;
}

// ---------------------------------------------------------------------------
// Per-file lint pass (pass 2, file-scoped rules)
// ---------------------------------------------------------------------------

class FileLinter {
 public:
  FileLinter(const std::string& rel_path, const Scanned& sc,
             const std::string& repo_root, std::vector<Finding>& out)
      : rel_(rel_path),
        repo_root_(repo_root),
        out_(out),
        sc_(sc),
        lines_(sc.code.size()) {}

  void run() {
    classify();
    std::vector<std::pair<std::size_t, std::string>> unknown;
    std::vector<std::size_t> empty_shared;
    allows_ = collect_allows(sc_, &unknown, &empty_shared);
    for (const auto& [line, rule] : unknown) {
      report("lint.bad_annotation", line,
             "allow names unknown rule '" + rule + "'");
    }
    for (const std::size_t line : empty_shared) {
      report("lint.bad_annotation", line,
             "shared annotation needs a reason inside the parentheses");
    }
    collect_unordered_ids();
    if (shard_scope_) {
      collect_float_ids();
      compute_namespace_scope();
    }

    bool hot = false;
    std::size_t hot_begin_line = 0;
    bool merge = false;
    std::size_t merge_begin_line = 0;
    bool saw_pragma_once = false;

    for (std::size_t i = 0; i < lines_; ++i) {
      const std::size_t ln = i + 1;
      const std::string& comment = sc_.comment[i];
      const std::string& code = sc_.code[i];
      const std::string& cs = sc_.code_strings[i];

      if (comment.find(kHotEnd) != std::string::npos) {
        if (!hot) {
          report("hot_path.region", ln, "hot-end marker without a begin");
        }
        hot = false;
      }
      if (comment.find(kMergeEnd) != std::string::npos) {
        if (!merge) {
          report("determinism.merge_region", ln,
                 "merge-end marker without a begin");
        }
        merge = false;
      }

      if (!blank(code)) {
        if (is_header_ &&
            std::regex_search(code, re(R"(^\s*#\s*pragma\s+once\b)"))) {
          saw_pragma_once = true;
        }
        check_token(kLibcRand, code, ln);
        check_token(kRandomDevice, code, ln);
        check_token(kWallClock, code, ln);
        if (!starts_with(rel_, "src/obs/")) {
          check_token(kSteadyClock, code, ln);
        }
        if (!starts_with(rel_, "src/util/")) {
          check_token(kUnseededRng, code, ln);
        }
        if (shard_scope_) {
          check_unordered_iteration(code, ln);
          check_token(kThreadAmbient, code, ln);
          check_pointer_keyed(code, ln);
          check_shared_state(code, i, ln);
          if (merge) check_float_accum(code, ln);
        }
        if (hot) {
          check_token(kHotAlloc, code, ln);
          check_token(kHotString, code, ln);
          check_token(kHotThrow, code, ln);
        }
        if (is_header_) check_token(kUsingNamespace, code, ln);
        check_include(cs, ln);
      }
      check_obs_names(i, ln);

      if (comment.find(kHotBegin) != std::string::npos) {
        if (hot) {
          report("hot_path.region", ln, "nested hot-begin marker");
        } else {
          hot = true;
          hot_begin_line = ln;
        }
      }
      if (comment.find(kMergeBegin) != std::string::npos) {
        if (merge) {
          report("determinism.merge_region", ln, "nested merge-begin marker");
        } else {
          merge = true;
          merge_begin_line = ln;
        }
      }
    }

    if (hot) {
      report("hot_path.region", hot_begin_line,
             "hot region is never closed (missing end marker)");
    }
    if (merge) {
      report("determinism.merge_region", merge_begin_line,
             "merge region is never closed (missing end marker)");
    }
    if (is_header_ && !saw_pragma_once) {
      report("header.pragma_once", 1, "header lacks #pragma once");
    }
  }

 private:
  static const std::regex& re(const char* pattern) {
    // The rule set is a fixed table, so the cache never grows unbounded.
    static std::map<const char*, std::regex> cache;
    auto it = cache.find(pattern);
    if (it == cache.end()) {
      it = cache.emplace(pattern, std::regex(pattern)).first;
    }
    return it->second;
  }

  void classify() {
    const auto dot = rel_.find_last_of('.');
    const std::string ext = dot == std::string::npos ? "" : rel_.substr(dot);
    is_header_ = ext == ".hpp" || ext == ".h" || ext == ".ipp";
    // The code ShardedEngine workers run: the unordered-iteration rule and
    // the shard-concurrency rules share this scope.
    shard_scope_ = starts_with(rel_, "src/sim/") ||
                   starts_with(rel_, "src/overlay/") ||
                   starts_with(rel_, "src/node/");
  }

  /// Best-effort collection of identifiers declared with an unordered
  /// container type anywhere in the file (members, locals, parameters).
  void collect_unordered_ids() {
    if (!shard_scope_) return;
    std::string joined;
    for (const auto& l : sc_.code) {
      joined += l;
      joined += '\n';
    }
    std::size_t pos = 0;
    while ((pos = joined.find("unordered_", pos)) != std::string::npos) {
      std::size_t p = pos + 10;
      std::string kind;
      while (p < joined.size() && is_ident_char(joined[p])) kind += joined[p++];
      ++pos;
      if (kind != "map" && kind != "set" && kind != "multimap" &&
          kind != "multiset") {
        continue;
      }
      while (p < joined.size() && std::isspace(static_cast<unsigned char>(joined[p]))) ++p;
      if (p >= joined.size() || joined[p] != '<') continue;
      int depth = 1;
      ++p;
      while (p < joined.size() && depth > 0) {
        if (joined[p] == '<') ++depth;
        if (joined[p] == '>') --depth;
        ++p;
      }
      while (p < joined.size() &&
             (std::isspace(static_cast<unsigned char>(joined[p])) ||
              joined[p] == '&' || joined[p] == '*')) {
        ++p;
      }
      std::string ident;
      while (p < joined.size() && is_ident_char(joined[p])) ident += joined[p++];
      while (p < joined.size() && std::isspace(static_cast<unsigned char>(joined[p]))) ++p;
      if (ident.empty() || p >= joined.size()) continue;
      // Only a terminator that ends a declarator counts — this skips return
      // types (followed by '(') and nested-name uses (followed by ':').
      const char t = joined[p];
      if (t == ';' || t == '=' || t == ',' || t == ')' || t == '{') {
        unordered_ids_.insert(ident);
      }
    }
  }

  /// Identifiers declared with a floating-point type (double/float and the
  /// SimTime alias), for the merge-region accumulation rule.
  void collect_float_ids() {
    static const std::regex decl(
        R"(\b(?:float|double|SimTime)\s+([A-Za-z_]\w*)\s*[=;,\){])");
    for (const std::string& code : sc_.code) {
      for (auto it = std::sregex_iterator(code.begin(), code.end(), decl);
           it != std::sregex_iterator(); ++it) {
        float_ids_.insert(it->str(1));
      }
    }
  }

  /// Marks, per line, whether every enclosing brace at the START of the line
  /// is a namespace (or extern-block) brace — i.e. the line sits at
  /// namespace scope. Class bodies, function bodies, and initializers all
  /// push non-namespace braces.
  void compute_namespace_scope() {
    ns_scope_.assign(lines_, false);
    std::vector<bool> stack;  // true = namespace-like brace
    std::string recent;       // code since the last ; { or }
    int paren = 0;  // a line starting mid-'(' is a parameter list, not a decl
    static const std::regex ns_tail(
        R"((^|[;{}\s])namespace(\s+[A-Za-z_][\w:]*)?\s*$)");
    static const std::regex extern_tail(R"((^|[;{}\s])extern\s*$)");
    for (std::size_t i = 0; i < lines_; ++i) {
      ns_scope_[i] =
          paren == 0 &&
          std::all_of(stack.begin(), stack.end(), [](bool b) { return b; });
      for (const char c : sc_.code[i]) {
        if (c == '(') ++paren;
        if (c == ')' && paren > 0) --paren;
        if (c == '{') {
          const std::string t = trim(recent);
          stack.push_back(std::regex_search(t, ns_tail) ||
                          std::regex_search(t, extern_tail));
          recent.clear();
        } else if (c == '}') {
          if (!stack.empty()) stack.pop_back();
          recent.clear();
        } else if (c == ';') {
          recent.clear();
        } else {
          recent += c;
        }
      }
      recent += ' ';  // line break separates tokens
    }
  }

  void check_token(const TokenRule& rule, const std::string& code,
                   std::size_t ln) {
    std::smatch m;
    if (std::regex_search(code, m, re(rule.pattern))) {
      report(rule.id, ln,
             "'" + trim(m.str(0)) + "': " + std::string(rule.why));
    }
  }

  void check_unordered_iteration(const std::string& code, std::size_t ln) {
    static const char* kMsg =
        "iteration order of an unordered container can leak into the RNG "
        "draw sequence";
    if (code.find("for") != std::string::npos &&
        std::regex_search(code, re(R"(\bfor\s*\(.*:.*unordered_)"))) {
      report("determinism.unordered_iteration", ln, kMsg);
      return;
    }
    for (const std::string& id : unordered_ids_) {
      if (code.find(id) == std::string::npos) continue;
      const std::string range_for = R"(\bfor\s*\(.*:.*\b)" + id + R"(\b)";
      // .begin() exposes the first element in hash order; a bare .end() is
      // the idiomatic find()-lookup sentinel and stays quiet.
      const std::string begin_call =
          R"(\b)" + id + R"(\s*\.\s*c?r?begin\s*\()";
      if (std::regex_search(code, std::regex(range_for)) ||
          std::regex_search(code, std::regex(begin_call))) {
        report("determinism.unordered_iteration", ln,
               "'" + id + "': " + kMsg);
        return;
      }
    }
  }

  /// std::map/std::set keyed by a pointer: iteration order is address
  /// order, which ASLR reshuffles every run.
  void check_pointer_keyed(const std::string& code, std::size_t ln) {
    static const std::regex open_re(
        R"(\b(?:std\s*::\s*)?(?:multi)?(?:map|set)\s*<)");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), open_re);
         it != std::sregex_iterator(); ++it) {
      std::size_t p = static_cast<std::size_t>(it->position() + it->length());
      int depth = 1;
      std::string first_arg;
      while (p < code.size() && depth > 0) {
        const char c = code[p];
        if (c == '<') ++depth;
        if (c == '>') --depth;
        if (depth == 1 && c == ',') break;
        if (depth > 0 || c != '>') first_arg += c;
        ++p;
      }
      const std::string arg = trim(first_arg);
      if (!arg.empty() && arg.back() == '*') {
        report("concurrency.pointer_keyed", ln,
               "'" + arg + "'-keyed container iterates in address order, "
               "which varies run to run (ASLR); key by a stable id instead");
        return;
      }
    }
  }

  /// Mutable static or namespace-scope state in shard scope: shared across
  /// ShardedEngine workers unless guarded or explicitly annotated.
  void check_shared_state(const std::string& code, std::size_t i,
                          std::size_t ln) {
    static const std::regex static_re(R"(\bstatic\b)");
    static const std::regex declarator(
        R"(^\s*(?:inline\s+)?[A-Za-z_][\w:<>,\*&\s\[\]]*[\s\*&][A-Za-z_]\w*\s*(?:\[[^\]]*\])?\s*$)");
    static const char* kGuards[] = {"atomic", "mutex", "condition_variable",
                                    "once_flag"};
    static const char* kExempt[] = {"const",  "constexpr", "thread_local",
                                    "struct", "class",     "using",
                                    "typedef"};

    std::smatch m;
    if (std::regex_search(code, m, static_re)) {
      const std::size_t after =
          static_cast<std::size_t>(m.position() + m.length());
      const std::size_t term = code.find_first_of(";={", after);
      if (term != std::string::npos) {
        const std::string head = code.substr(after, term - after);
        bool skip = head.find('(') != std::string::npos ||
                    head.find(')') != std::string::npos;
        for (const char* w : kExempt) {
          if (!skip && (contains_word(head, w) || contains_word(code, w))) {
            skip = true;
          }
        }
        for (const char* w : kGuards) {
          if (!skip && head.find(w) != std::string::npos) skip = true;
        }
        if (!skip && std::regex_match(head, declarator)) {
          report("concurrency.shared_mutable_state", ln,
                 "mutable static state is shared across ShardedEngine "
                 "workers; guard it (std::atomic, std::mutex) or annotate "
                 "why sharing is safe");
          return;
        }
      }
    }

    // Namespace-scope mutable variables (no static keyword needed).
    if (ns_scope_.size() > i && ns_scope_[i]) {
      const std::size_t term = code.find_first_of(";={");
      if (term == std::string::npos) return;
      const std::string head = code.substr(0, term);
      if (head.find('(') != std::string::npos ||
          head.find(')') != std::string::npos) {
        return;
      }
      if (blank(head) || head.find('#') != std::string::npos) return;
      static const char* kNsExempt[] = {
          "const",    "constexpr", "thread_local", "using",   "typedef",
          "namespace", "template", "class",        "struct",  "enum",
          "union",    "friend",    "extern",       "operator", "return",
          "static"};
      for (const char* w : kNsExempt) {
        if (contains_word(head, w)) return;
      }
      for (const char* w : kGuards) {
        if (head.find(w) != std::string::npos) return;
      }
      if (std::regex_match(head, declarator)) {
        report("concurrency.shared_mutable_state", ln,
               "mutable namespace-scope state is shared across ShardedEngine "
               "workers; guard it (std::atomic, std::mutex) or annotate why "
               "sharing is safe");
      }
    }
  }

  /// Inside a merge region (outbox merge / barrier paths): floating-point
  /// accumulation depends on summation order, which the merge exists to
  /// keep deterministic — accumulate in integers or sort first.
  void check_float_accum(const std::string& code, std::size_t ln) {
    static const std::regex accum(R"(([A-Za-z_]\w*)\s*[+\-]\s*=[^=])");
    for (auto it = std::sregex_iterator(code.begin(), code.end(), accum);
         it != std::sregex_iterator(); ++it) {
      const std::string id = it->str(1);
      if (float_ids_.count(id)) {
        report("determinism.float_accum", ln,
               "'" + id + "': floating-point accumulation in a merge-order-"
               "sensitive region; the result depends on summation order");
        return;
      }
    }
  }

  void check_include(const std::string& cs, std::size_t ln) {
    if (repo_root_.empty()) return;
    std::smatch m;
    if (!std::regex_search(cs, m, re(R"rx(^\s*#\s*include\s*"([^"]+)")rx"))) {
      return;
    }
    const std::string inc = m.str(1);
    const fs::path root(repo_root_);
    const fs::path self_dir = (root / rel_).parent_path();
    for (const fs::path& base :
         {self_dir, root / "src", root, root / "bench", root / "tools"}) {
      std::error_code ec;
      if (fs::exists(base / inc, ec)) return;
    }
    report("header.include_resolves", ln,
           "\"" + inc + "\" does not resolve against the project include "
           "roots (self dir, src/, repo root, bench/, tools/)");
  }

  /// Metric-name hygiene: registry lookups must pass a dotted snake_case
  /// string literal. Handles a call whose literal wraps to the next line.
  void check_obs_names(std::size_t i, std::size_t ln) {
    static const std::regex call(
        R"(\bmetrics\s*\(\s*\)\s*\.\s*(?:counter|gauge|histogram)\s*\()");
    static const std::regex name_ok(
        R"(^[a-z][a-z0-9_]*(?:\.[a-z][a-z0-9_]*)+$)");
    const std::string& cur = sc_.code_strings[i];
    if (cur.find("metrics") == std::string::npos) return;
    std::string joined = cur;
    joined += '\n';
    if (i + 1 < lines_) joined += sc_.code_strings[i + 1];
    for (auto it = std::sregex_iterator(joined.begin(), joined.end(), call);
         it != std::sregex_iterator(); ++it) {
      if (static_cast<std::size_t>(it->position()) >= cur.size()) continue;
      std::size_t p = static_cast<std::size_t>(it->position() + it->length());
      while (p < joined.size() &&
             std::isspace(static_cast<unsigned char>(joined[p]))) {
        ++p;
      }
      if (p >= joined.size() || joined[p] != '"') {
        report("obs.metric_name", ln,
               "metric name is not a string literal (dynamic names defeat "
               "grep and the naming convention)");
        continue;
      }
      const std::size_t close = joined.find('"', p + 1);
      if (close == std::string::npos) continue;
      const std::string name = joined.substr(p + 1, close - p - 1);
      if (!std::regex_match(name, name_ok)) {
        report("obs.metric_name", ln,
               "'" + name + "' is not dotted snake_case "
               "(subsystem.metric_name)");
      }
    }
  }

  void report(const std::string& rule, std::size_t ln, std::string message) {
    Finding f;
    f.rule = rule;
    f.file = rel_;
    f.line = ln;
    f.message = std::move(message);
    const auto it = allows_.find(ln);
    if (it != allows_.end()) {
      const auto jt = it->second.find(rule);
      if (jt != it->second.end()) {
        f.suppressed = true;
        f.justification = jt->second;
      }
    }
    out_.push_back(std::move(f));
  }

  const std::string rel_;
  const std::string repo_root_;
  std::vector<Finding>& out_;
  const Scanned& sc_;
  const std::size_t lines_;
  bool is_header_ = false;
  bool shard_scope_ = false;
  AllowMap allows_;
  std::set<std::string> unordered_ids_;
  std::set<std::string> float_ids_;
  std::vector<bool> ns_scope_;
};

// ---------------------------------------------------------------------------
// Tree walk + JSON serialization
// ---------------------------------------------------------------------------

bool lintable(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".hpp" || ext == ".h" || ext == ".ipp" || ext == ".cpp" ||
         ext == ".cc" || ext == ".cxx";
}

/// Lintable files under `roots` (repo-relative files or directories below
/// `root`), repo-relative, sorted and deduplicated.
std::vector<std::string> collect_files(const fs::path& root,
                                       const std::vector<std::string>& roots) {
  std::vector<std::string> files;
  for (const std::string& r : roots) {
    const fs::path p = root / r;
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end; it != end;
           it.increment(ec)) {
        if (it->is_regular_file(ec) && lintable(it->path())) {
          files.push_back(fs::relative(it->path(), root, ec).generic_string());
        }
      }
    } else if (fs::is_regular_file(p, ec) && lintable(p)) {
      files.push_back(fs::relative(p, root, ec).generic_string());
    }
  }
  std::sort(files.begin(), files.end());
  files.erase(std::unique(files.begin(), files.end()), files.end());
  return files;
}

/// Reads and scans `files` (repo-relative, below `root`); unreadable files
/// are skipped. `kept` receives the paths actually read, parallel to the
/// returned scans.
std::vector<Scanned> scan_files(const fs::path& root,
                                const std::vector<std::string>& files,
                                std::vector<std::string>& kept) {
  std::vector<Scanned> scans;
  for (const std::string& rel : files) {
    std::ifstream in(root / rel, std::ios::binary);
    if (!in) continue;
    std::stringstream buf;
    buf << in.rdbuf();
    scans.push_back(scan(buf.str()));
    kept.push_back(rel);
  }
  return scans;
}

std::vector<SourceFile> source_files(const std::vector<std::string>& rels,
                                     const std::vector<Scanned>& scans) {
  std::vector<SourceFile> sources;
  sources.reserve(rels.size());
  for (std::size_t i = 0; i < rels.size(); ++i) {
    sources.push_back(SourceFile{rels[i], &scans[i]});
  }
  return sources;
}

void json_escape_into(std::string& out, const std::string& s) {
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  json_escape_into(out, s);
  out += '"';
  return out;
}

std::uint64_t fnv1a64(const std::string& s, std::uint64_t h) {
  for (const char c : s) {
    h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  }
  return h;
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              if (a.rule != b.rule) return a.rule < b.rule;
              return a.message < b.message;
            });
}

}  // namespace

const std::vector<std::string>& rule_ids() {
  static const std::vector<std::string> ids(std::begin(kRuleList),
                                            std::end(kRuleList));
  return ids;
}

void lint_source(const std::string& rel_path, const std::string& text,
                 const std::string& repo_root, std::vector<Finding>& out) {
  const Scanned sc = scan(text);
  FileLinter(rel_path, sc, repo_root, out).run();
}

void assign_fingerprints(Report& report) {
  // Line numbers are deliberately excluded so an unrelated edit above a
  // finding does not invalidate its baseline entry; identical (rule, file,
  // message) triples get an ordinal so each occurrence stays addressable.
  std::map<std::uint64_t, std::size_t> ordinals;
  for (Finding& f : report.findings) {
    std::uint64_t h = fnv1a64(f.rule, 0xcbf29ce484222325ULL);
    h = fnv1a64("|", h);
    h = fnv1a64(f.file, h);
    h = fnv1a64("|", h);
    h = fnv1a64(f.message, h);
    const std::size_t ordinal = ordinals[h]++;
    h = fnv1a64("#" + std::to_string(ordinal), h);
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    f.fingerprint = buf;
  }
}

Report lint_tree(const Options& opts) {
  Report report;
  report.roots = opts.roots;
  const fs::path root(opts.repo_root.empty() ? "." : opts.repo_root);

  // Pass 0+1: read and scan every file once, then build the tree index.
  std::vector<std::string> kept;
  const std::vector<Scanned> scans =
      scan_files(root, collect_files(root, opts.roots), kept);
  const Index index = build_index(root.string(), source_files(kept, scans));

  // Pass 2a: file-scoped rules.
  for (std::size_t i = 0; i < kept.size(); ++i) {
    FileLinter(kept[i], scans[i], root.string(), report.findings).run();
    ++report.files_scanned;
  }

  // Pass 2b: tree-wide layering rules; allow annotations on the offending
  // include lines suppress them like any other finding. The orphan rule
  // walks the include graph from the application roots, so it also reads
  // every src/ and application file outside the scan roots — for their
  // includes only; no rule lints them.
  std::vector<Finding> layering;
  const std::size_t cycles = check_layering(index, layering);
  std::vector<std::string> reach_roots = {"src"};
  for (const std::string& dir : application_dirs()) reach_roots.push_back(dir);
  std::vector<std::string> unscanned;
  for (const std::string& rel : collect_files(root, reach_roots)) {
    if (!std::binary_search(kept.begin(), kept.end(), rel)) {
      unscanned.push_back(rel);
    }
  }
  std::vector<std::string> read_only;
  const std::vector<Scanned> read_scans =
      scan_files(root, unscanned, read_only);
  const Index reach_only =
      build_index(root.string(), source_files(read_only, read_scans));
  check_orphans(index, reach_only, layering);
  for (Finding& f : layering) {
    const auto it = std::find(kept.begin(), kept.end(), f.file);
    if (it != kept.end()) {
      const AllowMap allows =
          collect_allows(scans[it - kept.begin()], nullptr, nullptr);
      const auto at = allows.find(f.line);
      if (at != allows.end()) {
        const auto jt = at->second.find(f.rule);
        if (jt != at->second.end()) {
          f.suppressed = true;
          f.justification = jt->second;
        }
      }
    }
    report.findings.push_back(std::move(f));
  }

  report.graph.files = index.files.size();
  report.graph.edges = index.edge_count;
  report.graph.cycles = cycles;
  report.graph.module_deps = observed_module_deps(index);

  sort_findings(report.findings);
  assign_fingerprints(report);
  return report;
}

std::size_t violation_count(const Report& report) {
  std::size_t n = 0;
  for (const auto& f : report.findings) {
    n += (!f.suppressed && !f.baselined) ? 1 : 0;
  }
  return n;
}

std::size_t suppressed_count(const Report& report) {
  std::size_t n = 0;
  for (const auto& f : report.findings) n += f.suppressed ? 1 : 0;
  return n;
}

std::size_t baselined_count(const Report& report) {
  std::size_t n = 0;
  for (const auto& f : report.findings) n += f.baselined ? 1 : 0;
  return n;
}

std::string report_json(const Report& report) {
  std::string out;
  out += "{\n";
  out += "  \"schema\": \"ncast.lint.v2\",\n";
  out += "  \"tool\": \"ncast_lint\",\n";
  out += "  \"roots\": [";
  for (std::size_t i = 0; i < report.roots.size(); ++i) {
    out += (i ? ", " : "") + quoted(report.roots[i]);
  }
  out += "],\n";
  out += "  \"counts\": {\"files\": " + std::to_string(report.files_scanned) +
         ", \"violations\": " + std::to_string(violation_count(report)) +
         ", \"suppressed\": " + std::to_string(suppressed_count(report)) +
         ", \"baselined\": " + std::to_string(baselined_count(report)) +
         "},\n";
  out += "  \"rules\": [";
  const auto& ids = rule_ids();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    out += (i ? ", " : "") + quoted(ids[i]);
  }
  out += "],\n";

  // Per-rule tallies, every known rule, stable order.
  std::map<std::string, std::array<std::size_t, 3>> tallies;
  for (const auto& f : report.findings) {
    auto& t = tallies[f.rule];
    if (f.suppressed) {
      ++t[1];
    } else if (f.baselined) {
      ++t[2];
    } else {
      ++t[0];
    }
  }
  out += "  \"rule_counts\": {\n";
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const auto& t = tallies[ids[i]];
    out += "    " + quoted(ids[i]) + ": {\"violations\": " +
           std::to_string(t[0]) + ", \"suppressed\": " + std::to_string(t[1]) +
           ", \"baselined\": " + std::to_string(t[2]) + "}";
    out += i + 1 == ids.size() ? "\n" : ",\n";
  }
  out += "  },\n";

  out += "  \"include_graph\": {\"files\": " +
         std::to_string(report.graph.files) +
         ", \"edges\": " + std::to_string(report.graph.edges) +
         ", \"cycles\": " + std::to_string(report.graph.cycles) +
         ", \"modules\": {";
  bool first = true;
  for (const auto& [module, deps] : report.graph.module_deps) {
    out += first ? "" : ", ";
    out += quoted(module) + ": [";
    for (std::size_t i = 0; i < deps.size(); ++i) {
      out += (i ? ", " : "") + quoted(deps[i]);
    }
    out += "]";
    first = false;
  }
  out += "}},\n";

  const auto emit = [&out](const Finding& f, bool last, bool suppressed) {
    out += "    {\"rule\": " + quoted(f.rule) + ", \"file\": " +
           quoted(f.file) + ", \"line\": " + std::to_string(f.line);
    if (suppressed) {
      out += ", \"justification\": " + quoted(f.justification);
    } else {
      out += ", \"message\": " + quoted(f.message) +
             ", \"fingerprint\": " + quoted(f.fingerprint);
    }
    out += last ? "}\n" : "},\n";
  };

  struct Section {
    const char* key;
    bool suppressed;
    bool baselined;
    bool trailing_comma;
  };
  for (const Section sec : {Section{"violations", false, false, true},
                            Section{"baselined", false, true, true},
                            Section{"suppressed", true, false, false}}) {
    std::vector<const Finding*> sel;
    for (const auto& f : report.findings) {
      if (f.suppressed == sec.suppressed && f.baselined == sec.baselined) {
        sel.push_back(&f);
      }
    }
    out += std::string("  \"") + sec.key + "\": [";
    if (sel.empty()) {
      out += sec.trailing_comma ? "],\n" : "]\n";
      continue;
    }
    out += '\n';
    for (std::size_t i = 0; i < sel.size(); ++i) {
      emit(*sel[i], i + 1 == sel.size(), sec.suppressed);
    }
    out += sec.trailing_comma ? "  ],\n" : "  ]\n";
  }
  out += "}\n";
  return out;
}

}  // namespace ncast::lint
