// `stream` and `lossy`: live ServerNode/ClientNode endpoints on the sharded
// runner. The driver below lays out the scenario exactly as
// node::run_scenario_sharded does (check_reference proves it on every traced
// run), but hands the endpoints lane schedulers and a transport it can wrap
// in the probe decorators.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <utility>
#include <vector>

#include "layers.hpp"
#include "node/client_node.hpp"
#include "node/protocol_scenario.hpp"
#include "node/server_node.hpp"
#include "node/sharded_transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "probe.hpp"
#include "sim/sharded_engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace ncbench {

namespace {

using namespace ncast;
using Clock = std::chrono::steady_clock;

struct ProtocolWorkload {
  node::ProtocolScenarioSpec spec;
  std::uint32_t shards = 4;
  std::uint32_t workers = 2;
};

// Data plane at packet size: 1 KiB symbols put every GF kernel call above
// the SIMD dispatch threshold. 300 clients keep peak RSS under 200 MiB; the
// horizon leaves the stream running well past the last decode (~tick 180),
// as a live broadcast keeps relaying.
constexpr std::uint32_t kStreamClients = 300;
constexpr double kStreamHorizon = 250.0;

// Control plane under adversity: smallest packets, a join burst, lossy
// control links, crashes mid-stream, so per-message cost dominates.
constexpr std::uint32_t kLossyClients = 1500;
constexpr double kLossyJoinSpacing = 0.02;
constexpr double kLossyControlLoss = 0.10;
constexpr double kLossyCrashFraction = 0.05;
constexpr double kLossyHorizon = 260.0;

ProtocolWorkload stream_workload(std::uint64_t seed) {
  ProtocolWorkload w;
  node::ProtocolScenarioSpec& s = w.spec;
  s.k = 16;
  s.default_degree = 3;
  s.generation_size = 64;
  s.symbols = 1024;
  s.generations = 4;
  s.initial_clients = kStreamClients;
  s.horizon = kStreamHorizon;
  s.seed = seed;
  s.transport.latency = sim::LatencySpec::uniform(0.5, 1.5);
  return w;
}

ProtocolWorkload lossy_workload(std::uint64_t seed) {
  ProtocolWorkload w;
  node::ProtocolScenarioSpec& s = w.spec;
  s.k = 12;
  s.default_degree = 3;
  s.generation_size = 8;
  s.symbols = 16;
  s.generations = 4;
  s.silence_timeout = 8;
  s.repair_delay = 2.0;
  s.join_retry = 4.0;
  s.horizon = kLossyHorizon;
  s.seed = seed;
  s.transport.latency = sim::LatencySpec::uniform(0.5, 1.5);
  s.transport.control_loss = sim::LossSpec::bernoulli(kLossyControlLoss);
  // One thread: per-message work is too small to gain from two workers
  // against a barrier every epoch, and the wall time steadies.
  w.workers = 0;
  s.faults.join_burst(1.0, kLossyClients, kLossyJoinSpacing);
  // Crash victims and times come from the seed: distinct joiners, each
  // crashing after the burst has settled and well before the horizon.
  Rng rng(seed ^ 0x6c6f737379ULL);
  const double burst_end = 1.0 + kLossyClients * kLossyJoinSpacing;
  const auto crashes =
      static_cast<std::uint32_t>(kLossyClients * kLossyCrashFraction);
  std::vector<std::uint32_t> pool(kLossyClients);
  for (std::uint32_t i = 0; i < kLossyClients; ++i) pool[i] = i;
  for (std::uint32_t c = 0; c < crashes; ++c) {
    const auto pick = c + static_cast<std::uint32_t>(rng.below(kLossyClients - c));
    std::swap(pool[c], pool[pick]);
    s.faults.crash_join_at(burst_end + 10.0 + 80.0 * rng.uniform(), pool[c]);
  }
  return w;
}

ProtocolWorkload workload_for(const std::string& name, std::uint64_t seed) {
  return name == "stream" ? stream_workload(seed) : lossy_workload(seed);
}

std::uint64_t fnv(std::uint64_t h, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t bits(double d) {
  std::uint64_t u = 0;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// The comparable part of a report: everything the determinism contract
// fixes (max_in_flight is excluded by that contract). Hashes keep the
// per-client outcomes and the final matrix to one number each.
std::map<std::string, double> report_counts(const node::ProtocolScenarioReport& r) {
  std::uint64_t outcome_hash = 0xcbf29ce484222325ULL;
  double decoded = 0.0;
  for (const node::ProtocolOutcome& o : r.outcomes) {
    outcome_hash = fnv(outcome_hash, o.address);
    outcome_hash = fnv(outcome_hash, (o.joined ? 1u : 0u) | (o.crashed ? 2u : 0u) |
                                         (o.departed ? 4u : 0u) | (o.decoded ? 8u : 0u));
    outcome_hash = fnv(outcome_hash, bits(o.join_latency));
    outcome_hash = fnv(outcome_hash, bits(o.decode_time));
    outcome_hash = fnv(outcome_hash, o.join_retries);
    outcome_hash = fnv(outcome_hash, o.complaints);
    if (o.decoded) decoded += 1.0;
  }
  std::uint64_t matrix_hash = 0xcbf29ce484222325ULL;
  for (const overlay::NodeId n : r.matrix.nodes_in_order()) {
    const auto row = r.matrix.row(n);
    matrix_hash = fnv(matrix_hash, n);
    matrix_hash = fnv(matrix_hash, row.failed ? 1u : 0u);
    for (const overlay::ColumnId c : row.threads) matrix_hash = fnv(matrix_hash, c);
  }
  // Hashes are folded to 52 bits so they survive the trip through double.
  constexpr std::uint64_t kMask = (1ULL << 52) - 1;
  return {
      {"events", static_cast<double>(r.events_executed)},
      {"messages_sent", static_cast<double>(r.messages_sent)},
      {"messages_dropped", static_cast<double>(r.messages_dropped)},
      {"control_messages", static_cast<double>(r.control_messages)},
      {"data_messages", static_cast<double>(r.data_messages)},
      {"control_dropped", static_cast<double>(r.control_dropped)},
      {"control_bytes", static_cast<double>(r.control_bytes)},
      {"data_bytes", static_cast<double>(r.data_bytes)},
      {"repairs", static_cast<double>(r.repairs_done)},
      {"last_repair_time", r.last_repair_time},
      {"decoded_clients", decoded},
      {"outcome_hash", static_cast<double>(outcome_hash & kMask)},
      {"matrix_hash", static_cast<double>(matrix_hash & kMask)},
  };
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

Rep run_protocol(const std::string& name, std::uint64_t seed, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  obs::metrics().reset_values();
  reset_spans();
  const std::uint64_t trace_dropped_before = obs::trace().dropped_events();

  const auto setup_start = Clock::now();
  const ProtocolWorkload w = workload_for(name, seed);
  const node::ProtocolScenarioSpec& spec = w.spec;

  double epoch = spec.transport.latency.lower_bound();
  if (!(epoch > 0.0)) epoch = 0.5;
  sim::ShardedEngine engine(w.shards, w.workers, epoch);

  const std::size_t content_bytes =
      spec.generations * spec.generation_size * spec.symbols;
  std::vector<std::uint8_t> content(content_bytes);
  for (std::size_t i = 0; i < content_bytes; ++i) {
    content[i] = static_cast<std::uint8_t>(
        (i * 131u) ^ (i >> 3) ^ static_cast<std::size_t>(spec.seed * 0x9e37u));
  }

  node::ServerConfig scfg;
  scfg.k = spec.k;
  scfg.default_degree = spec.default_degree;
  scfg.repair_delay = static_cast<std::uint64_t>(spec.repair_delay);
  scfg.generation_size = spec.generation_size;
  scfg.symbols = spec.symbols;
  scfg.null_keys = spec.null_keys;
  scfg.structure = spec.structure;
  scfg.seed = spec.seed;
  node::ServerNode server(scfg, content);

  const auto events = spec.faults.sorted();
  std::uint32_t join_events = 0;
  for (const sim::FaultEvent& e : events) {
    if (e.kind == sim::FaultKind::kJoin) ++join_events;
  }
  const std::size_t total_clients = spec.initial_clients + join_events;
  const std::size_t max_addresses = total_clients + 1;
  engine.reserve_lanes(max_addresses);

  node::ShardedTransport fabric(engine, spec.transport, spec.seed, max_addresses);
  std::unique_ptr<TimedTransport> timed_net;
  std::vector<TimedScheduler> timed_lanes;
  if (traced) {
    timed_net = std::make_unique<TimedTransport>(fabric, max_addresses);
    timed_lanes.reserve(max_addresses);
    for (std::size_t a = 0; a < max_addresses; ++a) {
      timed_lanes.emplace_back(engine.lane(static_cast<sim::LaneId>(a)));
    }
  }
  node::AttachableTransport& net =
      traced ? static_cast<node::AttachableTransport&>(*timed_net) : fabric;
  const auto lane = [&](node::Address a) -> sim::Scheduler& {
    return traced ? timed_lanes[a] : engine.lane(static_cast<sim::LaneId>(a));
  };

  server.start(lane(node::kServerAddress), net);

  node::ClientConfig ccfg;
  ccfg.silence_timeout = spec.silence_timeout;
  ccfg.join_retry = spec.join_retry;
  ccfg.seed = spec.seed;
  std::vector<std::unique_ptr<node::ClientNode>> clients;
  clients.reserve(total_clients);
  std::vector<std::uint8_t> departed(max_addresses, 0);
  for (std::size_t i = 0; i < total_clients; ++i) {
    clients.push_back(std::make_unique<node::ClientNode>(
        static_cast<node::Address>(i + 1), ccfg));
  }
  for (std::uint32_t i = 0; i < spec.initial_clients; ++i) {
    clients[i]->start(lane(i + 1), net);
  }

  std::uint32_t next_join = 0;
  for (const sim::FaultEvent& e : events) {
    switch (e.kind) {
      case sim::FaultKind::kJoin: {
        const auto addr =
            static_cast<node::Address>(spec.initial_clients + next_join + 1);
        ++next_join;
        node::ClientNode* c = clients[addr - 1].get();
        sim::Scheduler& l = lane(addr);
        l.schedule_at(e.at, [c, &l, &net] { c->start(l, net); },
                      sim::TimerClass::kFault);
        break;
      }
      case sim::FaultKind::kLeave:
      case sim::FaultKind::kCrash: {
        const node::Address addr =
            e.targets_join()
                ? static_cast<node::Address>(spec.initial_clients + e.join_ref + 1)
                : static_cast<node::Address>(e.node);
        if (addr == node::kServerAddress || addr > clients.size()) break;
        node::ClientNode* c = clients[addr - 1].get();
        const bool is_leave = e.kind == sim::FaultKind::kLeave;
        lane(addr).schedule_at(
            e.at,
            [c, addr, is_leave, &net, &departed] {
              if (is_leave) {
                if (!c->crashed()) {
                  c->leave(net);
                  departed[addr] = 1;
                }
              } else {
                c->crash();
                net.crash(addr);
              }
            },
            sim::TimerClass::kFault);
        break;
      }
      case sim::FaultKind::kRepair:
      case sim::FaultKind::kBehavior:
        break;
    }
  }

  Rep rep;
  rep.run_threads = std::max<std::uint32_t>(1, w.workers);
  rep.setup_s = seconds_since(setup_start);
  if (mode == Mode::kSetupOnly) return rep;
  const auto run_start = Clock::now();
  const std::size_t executed = engine.run_until(spec.horizon);
  rep.run_s = seconds_since(run_start);

  node::ProtocolScenarioReport report;
  report.events_executed = executed;
  report.messages_sent = fabric.messages_sent();
  report.messages_dropped = fabric.messages_dropped();
  report.control_messages = fabric.control_messages();
  report.data_messages = fabric.data_messages();
  report.control_dropped = fabric.control_dropped();
  report.control_bytes = fabric.control_bytes();
  report.data_bytes = fabric.data_bytes();
  report.repairs_done = server.repairs_done();
  report.last_repair_time = server.last_repair_time();
  report.matrix = server.matrix();

  // Correctness: every live client joined and holds the source content
  // byte for byte.
  std::vector<double> decode_ticks;
  std::vector<double> join_ticks;
  double verified_bytes = 0.0;
  for (const auto& c : clients) {
    node::ProtocolOutcome o;
    o.address = c->address();
    o.joined = c->joined();
    o.crashed = c->crashed();
    o.departed = departed[c->address()] != 0;
    o.decoded = c->joined() && c->decoded();
    o.join_latency = c->joined() ? c->joined_time() - c->join_sent_time() : -1.0;
    o.decode_time = c->decode_time();
    o.join_retries = c->join_retries();
    o.complaints = c->complaints_sent();
    report.outcomes.push_back(o);
    if (o.joined) join_ticks.push_back(o.join_latency);
    if (o.crashed || o.departed) continue;
    ++rep.attempted;
    if (o.decoded && c->data() == server.data()) {
      verified_bytes += static_cast<double>(content_bytes);
      decode_ticks.push_back(o.decode_time - c->join_sent_time());
    } else {
      ++rep.failed;
    }
  }
  if (rep.failed != 0) {
    rep.errors.push_back(std::to_string(rep.failed) + " of " +
                         std::to_string(rep.attempted) +
                         " live clients did not decode the source content");
  }
  // No departed client keeps a row. A live client may be missing from the
  // matrix at the horizon: under control loss a healthy parent can be
  // convicted and spliced out, and it is re-admitted only once its own
  // complaints, backing off, reach the server. Those are counted, not
  // failed; a crashed client may keep its row when no child is below it to
  // notice the silence.
  std::uint64_t departed_rows = 0;
  double evicted_live = 0.0;
  for (const auto& c : clients) {
    const node::Address a = c->address();
    const bool working = server.matrix().contains(a) && !server.matrix().row(a).failed;
    if (departed[a] != 0 && server.matrix().contains(a)) ++departed_rows;
    if (!c->crashed() && departed[a] == 0 && !working) evicted_live += 1.0;
  }
  if (departed_rows != 0) {
    rep.errors.push_back(std::to_string(departed_rows) +
                         " departed clients still hold a matrix row");
  }
  if (!server.matrix().check_invariants()) {
    rep.errors.push_back("server matrix invariants do not hold");
  }
  if (engine.clamped_posts() != 0) {
    rep.errors.push_back("sharded engine clamped " +
                         std::to_string(engine.clamped_posts()) + " posts");
  }

  rep.counts = report_counts(report);
  rep.layer["outcome.goodput_MBps"] = verified_bytes / rep.run_s / 1e6;
  rep.layer["outcome.ops_per_s"] = 0.0;
  rep.layer["outcome.decode_ticks_p50"] = quantile(decode_ticks, 0.50);
  rep.layer["outcome.decode_ticks_p99"] = quantile(decode_ticks, 0.99);
  rep.layer["outcome.join_ticks_p99"] = quantile(join_ticks, 0.99);
  rep.layer["outcome.wire_bytes_per_content_byte"] =
      verified_bytes > 0.0 ? static_cast<double>(report.data_bytes) / verified_bytes
                           : 0.0;
  rep.layer["outcome.evicted_live"] = evicted_live;

  if (traced) {
    LayerInputs in;
    in.spans = collect_spans();
    in.run_s = rep.run_s;
    in.run_threads = rep.run_threads;
    in.events = executed;
    in.epochs = engine.epochs_run();
    in.handoffs = engine.cross_shard_handoffs();
    in.clamped = engine.clamped_posts();
    in.control_dropped = fabric.control_dropped();
    in.data_dropped = fabric.messages_dropped() - fabric.control_dropped();
    in.data_messages = fabric.data_messages();
    in.data_bytes = fabric.data_bytes();
    in.trace_dropped = obs::trace().dropped_events() - trace_dropped_before;
    add_layer_metrics(rep, in);
  }
  return rep;
}

}  // namespace

Rep run_stream(std::uint64_t seed, Mode mode) {
  return run_protocol("stream", seed, mode);
}

Rep run_lossy(std::uint64_t seed, Mode mode) {
  return run_protocol("lossy", seed, mode);
}

std::vector<std::string> check_protocol_reference(const std::string& name,
                                                  std::uint64_t seed,
                                                  const Rep& rep) {
  const ProtocolWorkload w = workload_for(name, seed);
  const auto ref = report_counts(node::run_scenario_sharded(w.spec, w.shards, w.workers));
  std::vector<std::string> diffs;
  for (const auto& [key, value] : ref) {
    const auto it = rep.counts.find(key);
    if (it == rep.counts.end() || it->second != value) {
      diffs.push_back("reference runner disagrees on " + key);
    }
  }
  return diffs;
}

Shape protocol_shape(const std::string& name) {
  const ProtocolWorkload w = workload_for(name, 1);
  const node::ProtocolScenarioSpec& s = w.spec;
  Shape shape;
  shape.shards = w.shards;
  shape.workers = w.workers;
  std::uint32_t crashes = 0;
  for (const sim::FaultEvent& e : s.faults.sorted()) {
    if (e.kind == sim::FaultKind::kCrash) ++crashes;
  }
  shape.summary = "k=" + std::to_string(s.k) + " d=" +
                  std::to_string(s.default_degree) + " g=" +
                  std::to_string(s.generation_size) + " symbols=" +
                  std::to_string(s.symbols) + " generations=" +
                  std::to_string(s.generations) + " clients=" +
                  std::to_string(name == "stream" ? kStreamClients : kLossyClients) +
                  " crashes=" + std::to_string(crashes) + " horizon=" +
                  std::to_string(static_cast<int>(s.horizon));
  return shape;
}

}  // namespace ncbench
