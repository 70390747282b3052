// E20 — centralized tracker vs fully decentralized membership, measured at
// message level on identical content and population. Section 7 claims the
// server's role "can be decreased still further or even eliminated"; this
// bench prices that elimination: what do joins, steady-state streaming, and
// crash repair cost under each regime?
//
// Both regimes run on the sharded event kernel over a ShardedTransport (4
// shards x 2 workers, one lane per endpoint), so the comparison extends
// beyond the ideal fabric: a second sweep repeats it with 10% control loss
// and latency jitter — the regime where the tracker's retry logic and
// gossip's re-acquisition actually earn their keep.

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "node/gossip_peer.hpp"
#include "node/protocol_scenario.hpp"
#include "node/sharded_transport.hpp"
#include "sim/sharded_engine.hpp"
#include "util/stats.hpp"

using namespace ncast;
using namespace ncast::node;

namespace {

constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kWorkers = 2;

std::vector<std::uint8_t> content(std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(8 * 8 * 2);  // 2 generations of 8 x 8
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
  return bytes;
}

struct Row {
  double decode_time = 0;  // kernel time until every survivor decoded
  std::uint64_t control = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t data = 0;
  double recovered = 0;  // decoded fraction after mid-stream crashes
};

Row run_centralized(std::size_t n, std::uint64_t seed, const TransportSpec& link) {
  ProtocolScenarioSpec spec;
  spec.k = 12;
  spec.default_degree = 3;
  spec.repair_delay = 2.0;
  spec.generation_size = 8;
  spec.symbols = 8;
  spec.generations = 2;
  spec.silence_timeout = 6;
  spec.seed = seed;
  spec.transport = link;
  spec.initial_clients = static_cast<std::uint32_t>(n);
  // Two early joiners crash mid-stream (addresses 2 and 6, as in the old
  // lock-step version of this experiment).
  spec.faults.crash_at(6.0, 2);
  spec.faults.crash_at(6.0, 6);

  const auto report = run_scenario_sharded(spec, kShards, kWorkers);

  Row row;
  for (const auto& o : report.outcomes) {
    if (o.crashed) continue;
    if (o.decode_time > row.decode_time) row.decode_time = o.decode_time;
  }
  row.control = report.control_messages;
  row.control_bytes = report.control_bytes;
  row.data = report.data_messages;
  row.recovered = report.decoded_fraction();
  return row;
}

Row run_gossip(std::size_t n, std::uint64_t seed, const TransportSpec& link) {
  GossipPeerConfig cfg;
  cfg.want_parents = 3;
  cfg.upload_slots = 3;
  cfg.silence_timeout = 6;
  cfg.seed = seed;
  GossipPeerConfig source_cfg = cfg;
  source_cfg.upload_slots = 6;

  // Peer address a runs on lane a (lane 0, the tracker's, stays idle); the
  // epoch is the minimum link latency, so no delivery is ever clamped.
  double epoch = link.latency.lower_bound();
  if (!(epoch > 0.0)) epoch = 0.5;
  sim::ShardedEngine engine(kShards, kWorkers, epoch);
  const std::size_t addresses = n + 2;
  engine.reserve_lanes(addresses);
  ShardedTransport net(engine, link, seed, addresses);
  GossipPeer source(1, source_cfg, content(seed), 8, 8);
  source.start(engine.lane(1), net);
  std::vector<std::unique_ptr<GossipPeer>> peers;
  for (std::size_t i = 0; i < n; ++i) {
    const Address addr = static_cast<Address>(i + 2);
    const Address introducer =
        i == 0 ? 1 : static_cast<Address>(2 + (seed + i * 7) % i);
    peers.push_back(std::make_unique<GossipPeer>(addr, cfg, introducer));
    peers.back()->start(engine.lane(addr), net);
  }
  // Each crash runs on the victim's own lane, like every other state change.
  for (GossipPeer* victim : {peers[1].get(), peers[5].get()}) {
    engine.schedule_on(
        victim->address(), 6.0,
        [victim, &net] {
          victim->crash();
          net.crash(victim->address());
        },
        sim::TimerClass::kFault);
  }

  // Run until every survivor decoded (checked in kernel-time slices so the
  // engine is not drained event by event), with the same 2000-unit cutoff
  // the lock-step version used.
  Row row;
  double t = 0.0;
  for (; t < 2000.0; t += 10.0) {
    engine.run_until(t + 10.0);
    bool all = true;
    for (const auto& p : peers) {
      if (!p->crashed() && !p->decoded()) all = false;
    }
    if (all) break;
  }
  row.decode_time = t + 10.0;
  engine.run_until(row.decode_time + 30.0);  // let re-acquisitions settle
  row.control = net.control_messages();
  row.control_bytes = net.control_bytes();
  row.data = net.data_messages();
  std::size_t live = 0, done = 0;
  for (const auto& p : peers) {
    if (p->crashed()) continue;
    ++live;
    if (p->decoded()) ++done;
  }
  row.recovered = static_cast<double>(done) / static_cast<double>(live);
  return row;
}

void sweep(Table& table, const char* fabric, const TransportSpec& link,
           bench::MetricsSession& session, const std::string& note_prefix) {
  for (const std::size_t n : {20u, 40u}) {
    RunningStats cd, cc, cb, cdata, crec, gd, gc, gb, gdata, grec;
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      const auto c = run_centralized(n, 0xE200 + trial, link);
      cd.add(c.decode_time);
      cc.add(static_cast<double>(c.control));
      cb.add(static_cast<double>(c.control_bytes));
      cdata.add(static_cast<double>(c.data));
      crec.add(c.recovered);
      const auto g = run_gossip(n, 0xE200 + trial, link);
      gd.add(g.decode_time);
      gc.add(static_cast<double>(g.control));
      gb.add(static_cast<double>(g.control_bytes));
      gdata.add(static_cast<double>(g.data));
      grec.add(g.recovered);
    }
    table.add_row({fabric, "central tracker", std::to_string(n),
                   fmt(cd.mean(), 0), fmt(cc.mean(), 0), fmt(cb.mean(), 0),
                   fmt(cdata.mean(), 0), fmt(crec.mean() * 100, 1)});
    table.add_row({fabric, "trackerless gossip", std::to_string(n),
                   fmt(gd.mean(), 0), fmt(gc.mean(), 0), fmt(gb.mean(), 0),
                   fmt(gdata.mean(), 0), fmt(grec.mean() * 100, 1)});
    if (n == 40) {
      session.note(note_prefix + "central_recovered_pct", crec.mean() * 100);
      session.note(note_prefix + "gossip_recovered_pct", grec.mean() * 100);
    }
  }
}

}  // namespace

int main() {
  bench::MetricsSession session("trackerless");
  session.param("k", 12);
  session.param("d", 3);
  session.param("n", "20,40");
  session.param("seed", std::uint64_t{0xE200});

  bench::banner(
      "E20: centralized tracker vs trackerless gossip membership (Section 7)",
      "Identical content (2 generations of 8 x 8 B), d = 3, two peers crash\n"
      "at t = 6. Both regimes on the sharded kernel; 3 trials averaged.\n"
      "Control counts every non-data, non-keepalive message anywhere, and\n"
      "control bytes use the full wire accounting (peers, key bundles,\n"
      "stream plan). Ideal fabric first, then 10% control loss + jitter.");

  Table table({"fabric", "membership", "N", "time to all decoded",
               "control msgs", "control bytes", "data msgs",
               "post-crash decoded%"});

  TransportSpec ideal;  // fixed 1.0 latency, no loss
  sweep(table, "ideal", ideal, session, "ideal_");

  TransportSpec lossy;
  lossy.latency = sim::LatencySpec::uniform(0.5, 1.5);
  lossy.control_loss = sim::LossSpec::bernoulli(0.10);
  sweep(table, "lossy ctrl", lossy, session, "lossy_");

  table.print();
  session.add_table("tracker_vs_gossip", table);

  std::printf(
      "\nReading: both regimes deliver the full content to every survivor.\n"
      "The tracker's control plane is minimal (O(d) per membership event)\n"
      "because it holds the global matrix; gossip spends more control\n"
      "messages (slot search, denials, view samples) and a little more time,\n"
      "but needs no global state anywhere and repairs purely locally —\n"
      "Section 7's elimination of the server, priced. Under 10%% control\n"
      "loss both survive: the tracker by retransmitting hellos and\n"
      "complaints, gossip by re-issuing expired slot requests elsewhere.\n");
  return 0;
}
