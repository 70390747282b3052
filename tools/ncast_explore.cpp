// ncast_explore — command-line experiment explorer.
//
// The bench binaries regenerate the paper's experiments with fixed
// parameters; this tool lets you poke the system interactively:
//
//   ncast_explore overlay   --k 16 --d 3 --n 2000 --p 0.02 [--seed 1]
//       grow an overlay, tag iid failures, report connectivity statistics
//   ncast_explore defect    --k 16 --d 3 --p 0.01 --steps 5000
//       run the exact polymatroid defect process, report E[B]/A vs pd
//   ncast_explore broadcast --k 12 --d 3 --n 300 --p 0.05 --g 16
//       packet-level RLNC broadcast, report decode/corruption outcomes
//   ncast_explore stream    --k 8 --d 3 --n 25 --bytes 4096
//       run the message-level protocol endpoints end to end
//
// Every run prints the effective parameters so results are reproducible.

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "node/client_node.hpp"
#include "node/server_node.hpp"
#include "node/sharded_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "overlay/curtain_server.hpp"
#include "overlay/defect.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/polymatroid.hpp"
#include "sim/scenario.hpp"
#include "sim/sharded_engine.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ncast;

namespace {

/// Bad command-line input; main() prints it with the usage text (exit 2).
struct UsageError : std::invalid_argument {
  using std::invalid_argument::invalid_argument;
};

struct Args {
  std::map<std::string, std::string> kv;

  /// The whole-number value of `--key` (`def` if absent). Anything but
  /// digits, or a value past T's range, is a UsageError.
  template <typename T>
  T get(const std::string& key, T def) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return def;
    const std::string& s = it->second;
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (s.empty() || !std::isdigit(static_cast<unsigned char>(s[0])) ||
        *end != '\0' || errno == ERANGE ||
        v > std::numeric_limits<T>::max()) {
      throw UsageError("--" + key + " wants a whole number, got '" + s + "'");
    }
    return static_cast<T>(v);
  }
  /// The finite real value of `--key` (`def` if absent).
  double getf(const std::string& key, double def) const {
    const auto it = kv.find(key);
    if (it == kv.end()) return def;
    const std::string& s = it->second;
    char* end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v)) {
      throw UsageError("--" + key + " wants a number, got '" + s + "'");
    }
    return v;
  }
};

/// Parses `--key value` pairs; `keys` lists the command's own keys (the
/// observability dumps --metrics and --trace are accepted everywhere).
Args parse(int argc, char** argv, int first,
           const std::vector<std::string>& keys) {
  Args args;
  for (int i = first; i < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string key = arg.rfind("--", 0) == 0 ? arg.substr(2) : "";
    if (std::find(keys.begin(), keys.end(), key) == keys.end() &&
        key != "metrics" && key != "trace") {
      throw UsageError("unknown option '" + arg + "'");
    }
    if (i + 1 >= argc) throw UsageError(arg + " needs a value");
    args.kv[key] = argv[i + 1];
  }
  return args;
}

int cmd_overlay(const Args& a) {
  const auto k = a.get<std::uint32_t>("k", 16);
  const auto d = a.get<std::uint32_t>("d", 3);
  const auto n = a.get<std::uint64_t>("n", 2000);
  const double p = a.getf("p", 0.02);
  const auto seed = a.get<std::uint64_t>("seed", 1);
  std::printf("overlay: k=%u d=%u n=%llu p=%.4f seed=%llu\n", k, d,
              static_cast<unsigned long long>(n),
              p, static_cast<unsigned long long>(seed));

  overlay::CurtainServer server(k, d, Rng(seed));
  for (std::uint64_t i = 0; i < n; ++i) server.join();
  auto m = server.matrix();
  Rng rng(seed ^ 0xF00);
  for (auto node : m.nodes_in_order()) {
    if (rng.chance(p)) m.mark_failed(node);
  }
  const auto fg = build_flow_graph(m);

  std::vector<overlay::NodeId> working;
  for (auto node : m.nodes_in_order()) {
    if (!m.row(node).failed) working.push_back(node);
  }
  rng.shuffle(working);
  const std::size_t samples = std::min<std::size_t>(500, working.size());
  RunningStats conn;
  std::size_t degraded = 0, cut = 0;
  for (std::size_t i = 0; i < samples; ++i) {
    const auto c = node_connectivity(fg, working[i]);
    conn.add(static_cast<double>(c));
    if (c < d) ++degraded;
    if (c == 0) ++cut;
  }
  const auto depths = node_depths(fg);
  std::int64_t max_depth = 0;
  for (auto dep : depths) max_depth = std::max(max_depth, dep);

  Table t({"metric", "value"});
  t.add_row({"nodes (working/failed)",
             std::to_string(working.size()) + " / " + std::to_string(m.failed_count())});
  t.add_row({"sampled working nodes", std::to_string(samples)});
  t.add_row({"mean connectivity", fmt(conn.mean(), 3)});
  t.add_row({"P(conn < d)", fmt(static_cast<double>(degraded) / samples, 4)});
  t.add_row({"P(cut off)", fmt(static_cast<double>(cut) / samples, 4)});
  t.add_row({"pd (Theorem 4 yardstick)", fmt(p * d, 4)});
  t.add_row({"max depth", std::to_string(max_depth)});
  t.print();
  return 0;
}

int cmd_defect(const Args& a) {
  const auto k = a.get<std::uint32_t>("k", 16);
  const auto d = a.get<std::uint32_t>("d", 3);
  const double p = a.getf("p", 0.01);
  const auto steps = a.get<std::uint64_t>("steps", 5000);
  const auto seed = a.get<std::uint64_t>("seed", 1);
  if (k > 22) {
    std::fprintf(stderr, "defect: exact engine needs k <= 22\n");
    return 1;
  }
  std::printf("defect: k=%u d=%u p=%.4f steps=%llu seed=%llu\n", k, d, p,
              static_cast<unsigned long long>(steps),
              static_cast<unsigned long long>(seed));

  overlay::PolymatroidCurtain pc(k);
  Rng rng(seed);
  RunningStats defect, loss;
  for (std::uint64_t t = 0; t < steps; ++t) {
    const auto connectivity = pc.join_random(d, p, rng);
    if (t < steps / 10) continue;  // warmup
    loss.add(static_cast<double>(d - connectivity));
    if (t % 10 == 0) defect.add(pc.mean_defect(d));
  }
  Table t({"metric", "value"});
  t.add_row({"E[B]/A (time averaged)", fmt(defect.mean(), 5)});
  t.add_row({"arrival loss (Lemma 3)", fmt(loss.mean(), 5)});
  t.add_row({"pd", fmt(p * d, 5)});
  t.add_row({"ratio", fmt(defect.mean() / (p * d), 3)});
  t.print();
  return 0;
}

int cmd_broadcast(const Args& a) {
  const auto k = a.get<std::uint32_t>("k", 12);
  const auto d = a.get<std::uint32_t>("d", 3);
  const auto n = a.get<std::uint64_t>("n", 300);
  const double p = a.getf("p", 0.05);
  const auto g = a.get<std::uint64_t>("g", 16);
  const auto seed = a.get<std::uint64_t>("seed", 1);
  std::printf("broadcast: k=%u d=%u n=%llu p=%.4f g=%llu seed=%llu\n", k, d,
              static_cast<unsigned long long>(n), p,
              static_cast<unsigned long long>(g),
              static_cast<unsigned long long>(seed));

  overlay::CurtainServer server(k, d, Rng(seed));
  for (std::uint64_t i = 0; i < n; ++i) server.join();
  auto m = server.matrix();
  Rng rng(seed ^ 0xF01);
  for (auto node : m.nodes_in_order()) {
    if (rng.chance(p)) m.mark_failed(node);
  }
  sim::ScenarioSpec spec;
  spec.generation_size = g;
  spec.symbols = 16;
  spec.round_sync = true;
  spec.seed = seed ^ 0xF02;
  const auto report = sim::run_scenario(m, spec);

  Table t({"metric", "value"});
  t.add_row({"rounds", std::to_string(report.rounds)});
  t.add_row({"working nodes", std::to_string(report.outcomes.size())});
  t.add_row({"decoded", fmt(report.decoded_fraction() * 100, 1) + "%"});
  t.add_row({"corrupted", fmt(report.corrupted_fraction() * 100, 1) + "%"});
  RunningStats cutfrac;
  for (const auto& o : report.outcomes) {
    cutfrac.add(static_cast<double>(o.max_flow) / d);
  }
  t.add_row({"mean min-cut / d", fmt(cutfrac.mean(), 3)});
  t.print();
  return 0;
}

int cmd_stream(const Args& a) {
  const auto k = a.get<std::uint32_t>("k", 8);
  const auto d = a.get<std::uint32_t>("d", 3);
  const auto n = a.get<std::uint64_t>("n", 25);
  const auto bytes = a.get<std::uint64_t>("bytes", 4096);
  const auto seed = a.get<std::uint64_t>("seed", 1);
  std::printf("stream: k=%u d=%u n=%llu bytes=%llu seed=%llu\n", k, d,
              static_cast<unsigned long long>(n),
              static_cast<unsigned long long>(bytes),
              static_cast<unsigned long long>(seed));

  node::ServerConfig scfg;
  scfg.k = k;
  scfg.default_degree = d;
  scfg.generation_size = 16;
  scfg.symbols = 64;
  scfg.seed = seed;
  Rng data_rng(seed ^ 0xF03);
  std::vector<std::uint8_t> content(bytes);
  for (auto& b : content) b = static_cast<std::uint8_t>(data_rng.below(256));
  node::ServerNode server(scfg, content);

  // One lane per endpoint (lane = address) on a single-shard kernel; ideal
  // links with a one-unit delay.
  sim::ShardedEngine engine(1, 0, 1.0);
  node::ShardedTransport net(engine, node::TransportSpec{}, seed, n + 1);
  server.start(engine.lane(node::kServerAddress), net);

  node::ClientConfig ccfg;
  std::vector<std::unique_ptr<node::ClientNode>> clients;
  for (std::uint64_t i = 0; i < n; ++i) {
    const auto addr = static_cast<node::Address>(i + 1);
    clients.push_back(std::make_unique<node::ClientNode>(addr, ccfg));
    clients.back()->start(engine.lane(addr), net);
  }
  const auto all_decoded = [&] {
    for (const auto& c : clients) {
      if (!c->joined() || !c->decoded()) return false;
    }
    return !clients.empty();
  };
  std::uint64_t ticks = 0;
  bool done = false;
  while (!done && ticks < 20000) {
    engine.run_until(static_cast<double>(++ticks));
    done = all_decoded();
  }

  std::size_t verified = 0;
  for (auto& c : clients) {
    if (c->decoded() && c->data() == server.data()) ++verified;
  }
  Table t({"metric", "value"});
  t.add_row({"completed", done ? "yes" : "NO"});
  t.add_row({"ticks", std::to_string(ticks)});
  t.add_row({"verified payloads", std::to_string(verified) + "/" + std::to_string(n)});
  t.add_row({"data msgs", std::to_string(net.data_messages())});
  t.add_row({"control msgs", std::to_string(net.control_messages())});
  t.print();
  return 0;
}

void usage() {
  std::fprintf(
      stderr,
      "usage: ncast_explore <overlay|defect|broadcast|stream> [--key value]...\n"
      "  overlay   --k --d --n --p --seed      connectivity under failures\n"
      "  defect    --k --d --p --steps --seed  exact Theorem-4 process\n"
      "  broadcast --k --d --n --p --g --seed  packet-level RLNC broadcast\n"
      "  stream    --k --d --n --bytes --seed  protocol endpoints end-to-end\n"
      "observability (any command):\n"
      "  --metrics <file>   dump the metrics registry snapshot as JSON\n"
      "  --trace <file>     dump the structured trace as JSONL\n");
}

/// Post-run observability dumps requested via --metrics / --trace.
/// Returns false if a requested dump could not be written.
bool dump_observability(const Args& args) {
  bool ok = true;
  const auto metrics_it = args.kv.find("metrics");
  if (metrics_it != args.kv.end()) {
    const std::string& path = metrics_it->second;
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      ok = false;
    } else {
      const std::string body = obs::metrics().snapshot_json();
      std::fwrite(body.data(), 1, body.size(), f);
      std::fputc('\n', f);
      std::fclose(f);
      std::printf("[obs] metrics snapshot -> %s (%zu metrics)\n", path.c_str(),
                  obs::metrics().size());
    }
  }
  const auto trace_it = args.kv.find("trace");
  if (trace_it != args.kv.end()) {
    const std::string& path = trace_it->second;
    if (obs::trace().write_jsonl(path)) {
      std::printf("[obs] trace -> %s (%zu events retained, %llu emitted)\n",
                  path.c_str(), obs::trace().size(),
                  static_cast<unsigned long long>(obs::trace().total_emitted()));
    } else {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      ok = false;
    }
  }
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  struct Command {
    const char* name;
    std::vector<std::string> keys;
    int (*run)(const Args&);
  };
  const Command commands[] = {
      {"overlay", {"k", "d", "n", "p", "seed"}, cmd_overlay},
      {"defect", {"k", "d", "p", "steps", "seed"}, cmd_defect},
      {"broadcast", {"k", "d", "n", "p", "g", "seed"}, cmd_broadcast},
      {"stream", {"k", "d", "n", "bytes", "seed"}, cmd_stream},
  };
  const Command* cmd = nullptr;
  for (const Command& c : commands) {
    if (argc >= 2 && std::strcmp(argv[1], c.name) == 0) cmd = &c;
  }
  if (cmd == nullptr) {
    usage();
    return 2;
  }
  // Bad input — an unparsable or unknown option, or a parameter the library
  // refuses (k = 0, g = 0, ...) — is reported, not an abort.
  const auto bad_input = [](const char* what) {
    std::fprintf(stderr, "ncast_explore: %s\n", what);
    usage();
    return 2;
  };
  Args args;
  int rc = 0;
  try {
    args = parse(argc, argv, 2, cmd->keys);
    rc = cmd->run(args);
  } catch (const std::invalid_argument& e) {
    return bad_input(e.what());
  } catch (const std::out_of_range& e) {
    return bad_input(e.what());
  }
  if (!dump_observability(args) && rc == 0) rc = 1;
  return rc;
}
