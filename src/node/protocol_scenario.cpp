#include "node/protocol_scenario.hpp"

#include <algorithm>
#include <memory>
#include <vector>

#include "node/client_node.hpp"
#include "node/server_node.hpp"
#include "node/sharded_transport.hpp"
#include "sim/sharded_engine.hpp"

namespace ncast::node {

double ProtocolScenarioReport::decoded_fraction() const {
  std::size_t live = 0;
  std::size_t done = 0;
  for (const ProtocolOutcome& o : outcomes) {
    if (o.crashed || o.departed) continue;
    ++live;
    if (o.decoded) ++done;
  }
  return live == 0 ? 0.0
                   : static_cast<double>(done) / static_cast<double>(live);
}

double ProtocolScenarioReport::mean_join_latency() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const ProtocolOutcome& o : outcomes) {
    if (o.join_latency < 0.0) continue;
    sum += o.join_latency;
    ++n;
  }
  return n == 0 ? -1.0 : sum / static_cast<double>(n);
}

std::uint64_t ProtocolScenarioReport::total_join_retries() const {
  std::uint64_t total = 0;
  for (const ProtocolOutcome& o : outcomes) total += o.join_retries;
  return total;
}

std::uint64_t ProtocolScenarioReport::total_complaints() const {
  std::uint64_t total = 0;
  for (const ProtocolOutcome& o : outcomes) total += o.complaints;
  return total;
}

ProtocolScenarioReport run_scenario_sharded(const ProtocolScenarioSpec& spec,
                                            std::uint32_t shards,
                                            std::uint32_t workers) {
  // Epoch = the smallest cross-lane latency: conservative windows never
  // clamp a delivery, and the window grid is identical for every shard and
  // worker count.
  double epoch = spec.transport.latency.lower_bound();
  if (!(epoch > 0.0)) epoch = 0.5;
  sim::ShardedEngine engine(shards, workers, epoch);

  // Deterministic content: a fixed byte pattern keyed by the seed, so two
  // runs of the same spec broadcast identical generations without spending
  // any RNG draws that could shift protocol decisions.
  const std::size_t content_bytes =
      spec.generations * spec.generation_size * spec.symbols;
  std::vector<std::uint8_t> content(content_bytes);
  for (std::size_t i = 0; i < content_bytes; ++i) {
    content[i] = static_cast<std::uint8_t>(
        (i * 131u) ^ (i >> 3) ^ static_cast<std::size_t>(spec.seed * 0x9e37u));
  }

  ServerConfig scfg;
  scfg.k = spec.k;
  scfg.default_degree = spec.default_degree;
  scfg.repair_delay = spec.repair_delay;
  scfg.generation_size = spec.generation_size;
  scfg.symbols = spec.symbols;
  scfg.null_keys = spec.null_keys;
  scfg.structure = spec.structure;
  scfg.seed = spec.seed;
  ServerNode server(scfg, content);

  // Address a lives on lane a. Every client is constructed up front (no
  // shared container mutates mid-run); join events get addresses in sorted
  // fault order and merely *start* their pre-built client.
  const auto events = spec.faults.sorted();
  std::uint32_t join_events = 0;
  for (const sim::FaultEvent& e : events) {
    if (e.kind == sim::FaultKind::kJoin) ++join_events;
  }
  const std::size_t total_clients = spec.initial_clients + join_events;
  const std::size_t max_addresses = total_clients + 1;  // + server
  engine.reserve_lanes(max_addresses);

  ShardedTransport net(engine, spec.transport, spec.seed, max_addresses);
  server.start(engine.lane(kServerAddress), net);

  ClientConfig ccfg;
  ccfg.silence_timeout = spec.silence_timeout;
  ccfg.join_retry = spec.join_retry;
  ccfg.seed = spec.seed;

  std::vector<std::unique_ptr<ClientNode>> clients;
  clients.reserve(total_clients);
  // Per-address outcome flags: each slot is written only by its own lane.
  std::vector<std::uint8_t> departed(max_addresses, 0);
  for (std::size_t i = 0; i < total_clients; ++i) {
    clients.push_back(
        std::make_unique<ClientNode>(static_cast<Address>(i + 1), ccfg));
  }
  for (std::uint32_t i = 0; i < spec.initial_clients; ++i) {
    clients[i]->start(engine.lane(static_cast<sim::LaneId>(i + 1)), net);
  }

  // Replay the fault plan as events on each target's own lane, so crash and
  // leave state changes are owner-lane writes. join_ref j is the
  // (initial_clients + j)-th client, i.e. address initial_clients + j + 1;
  // explicit targets name the address directly.
  std::uint32_t next_join = 0;
  for (const sim::FaultEvent& e : events) {
    switch (e.kind) {
      case sim::FaultKind::kJoin: {
        const Address addr =
            static_cast<Address>(spec.initial_clients + next_join + 1);
        ++next_join;
        ClientNode* c = clients[addr - 1].get();
        sim::Scheduler& lane = engine.lane(static_cast<sim::LaneId>(addr));
        engine.schedule_on(
            static_cast<sim::LaneId>(addr), e.at,
            [c, &lane, &net] { c->start(lane, net); }, sim::TimerClass::kFault);
        break;
      }
      case sim::FaultKind::kLeave:
      case sim::FaultKind::kCrash: {
        const Address addr =
            e.targets_join()
                ? static_cast<Address>(spec.initial_clients + e.join_ref + 1)
                : static_cast<Address>(e.node);
        if (addr == kServerAddress || addr > clients.size()) break;
        ClientNode* c = clients[addr - 1].get();
        const bool is_leave = e.kind == sim::FaultKind::kLeave;
        engine.schedule_on(
            static_cast<sim::LaneId>(addr), e.at,
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
        break;  // emergent / packet-level only — see protocol_scenario.hpp
    }
  }

  double horizon = spec.horizon;
  if (horizon <= 0.0) {
    // Time for a client to decode: ~generations * g / d packets per column
    // per unit time, padded for latency jitter, loss, and bootstrap depth.
    const double stream_time =
        30.0 + 3.0 * static_cast<double>(spec.generations) *
                   static_cast<double>(spec.generation_size);
    double last_event = 0.0;
    for (const sim::FaultEvent& e : events) {
      last_event = std::max(last_event, e.at);
    }
    horizon = last_event + stream_time +
              6.0 * static_cast<double>(spec.silence_timeout) +
              4.0 * spec.join_retry + spec.repair_delay;
  }

  ProtocolScenarioReport report;
  report.events_executed = engine.run_until(horizon);
  report.horizon = horizon;
  report.messages_sent = net.messages_sent();
  report.messages_dropped = net.messages_dropped();
  report.control_messages = net.control_messages();
  report.data_messages = net.data_messages();
  report.control_dropped = net.control_dropped();
  report.control_bytes = net.control_bytes();
  report.data_bytes = net.data_bytes();
  report.repairs_done = server.repairs_done();
  report.last_repair_time = server.last_repair_time();
  report.matrix = server.matrix();

  report.outcomes.reserve(clients.size());
  for (const auto& c : clients) {
    ProtocolOutcome o;
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
  }
  return report;
}

}  // namespace ncast::node
