// E12b — the Section 3/7 remark that the central server's membership role
// can be delegated to a gossip protocol ([12]): a newcomer finds hanging
// threads by random walks instead of asking the server. We compare the
// resulting overlay quality (defect, connectivity) and the message costs of
// the two discovery paths.

#include <cstdio>
#include <memory>

#include "bench_common.hpp"
#include "node/gossip_peer.hpp"
#include "node/sharded_transport.hpp"
#include "overlay/defect.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/gossip.hpp"
#include "sim/sharded_engine.hpp"
#include "util/stats.hpp"

using namespace ncast;

int main() {
  bench::MetricsSession session("gossip");
  session.param("k", 16);
  session.param("d", 3);
  session.param("n", 800);
  session.param("seed", std::uint64_t{0xED0});
  session.param("p", 0.03);

  bench::banner(
      "E12b: centralized vs gossip peer discovery (Sections 3 & 7)",
      "k = 16, d = 3, N = 800, then iid failures p = 0.03. Gossip: random\n"
      "walks of length 8 over the neighbor relation, tracker fallback.");

  const std::uint32_t k = 16, d = 3;
  const std::size_t n = 800;
  const double p = 0.03;
  const int trials = 10;  // defect lives near the hanging ends; average
                          // across snapshots to tame variance

  RunningStats central_defect, gossip_defect;
  std::uint64_t gossip_messages = 0;

  for (int trial = 0; trial < trials; ++trial) {
    // Centralized build.
    auto central = bench::grow_overlay(k, d, n, 0xED0 + trial);

    // Gossip build.
    overlay::ThreadMatrix gossiped(k);
    Rng grng(0xED100 + trial);
    overlay::GossipConfig gcfg;
    for (overlay::NodeId node = 0; node < n; ++node) {
      std::uint64_t msgs = 0;
      const auto cols = gossip_discover(gossiped, d, gcfg, grng, &msgs);
      gossip_messages += msgs;
      gossiped.append_row(node, cols);
    }

    Rng rng(0xED200 + trial);
    bench::tag_iid_failures(central, p, rng);
    Rng rng2(0xED300 + trial);
    bench::tag_iid_failures(gossiped, p, rng2);

    Rng s1(0xED400 + trial), s2(0xED500 + trial);
    central_defect.add(overlay::sampled_mean_defect(
        overlay::build_flow_graph(central), d, 600, s1));
    gossip_defect.add(overlay::sampled_mean_defect(
        overlay::build_flow_graph(gossiped), d, 600, s2));
  }

  Table table({"discovery", "mean defect (d-tuples)", "loss fraction",
               "msgs/join", "server involved?"});
  table.add_row({"centralized", fmt(central_defect.mean(), 4),
                 fmt(central_defect.mean() / d, 4), fmt(2.0 + d, 1),
                 "every join"});
  table.add_row({"gossip", fmt(gossip_defect.mean(), 4),
                 fmt(gossip_defect.mean() / d, 4),
                 fmt(static_cast<double>(gossip_messages) /
                         static_cast<double>(n * trials), 1),
                 "none"});
  table.print();
  session.add_table("discovery", table);
  session.note("gossip_msgs_per_join",
               static_cast<double>(gossip_messages) /
                   static_cast<double>(n * trials));

  std::printf(
      "\nReading: gossip discovery produces an overlay with defect close to\n"
      "the centralized one (its thread choice is only walk-biased, not\n"
      "structurally different), at the cost of more discovery messages —\n"
      "none of which touch the server. This is the protocol-abstraction\n"
      "point of Section 3: the topology matters, not who hands out threads.\n");

  // E12c — the same discovery cost measured as real wire traffic: GossipPeer
  // endpoints on the sharded kernel, where a join is slot requests, denials
  // with view samples, and grants carrying the stream plan and key bundles.
  // Control bytes use the full Message::control_size() accounting (peer
  // lists and key bundles included), so this is the honest per-join price
  // the walk-count estimate above approximates.
  bench::banner(
      "E12c: gossip join cost on the message plane (sharded kernel)",
      "Source + 60 peers on a ShardedTransport (latency U[0.5, 1.5]); all\n"
      "peers join and stream 2 generations of 8 x 8 B. 3 trials averaged.");
  {
    RunningStats ctrl_per_join, bytes_per_join, settled;
    const std::size_t peers_n = 60;
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
      // Peer address a on lane a; one shard, since the numbers are the same
      // at any shard/worker count. Epoch = the minimum link latency.
      sim::ShardedEngine engine(1, 0, 0.5);
      node::TransportSpec link;
      link.latency = sim::LatencySpec::uniform(0.5, 1.5);
      node::ShardedTransport net(engine, link, 0xED600 + trial, peers_n + 2);

      node::GossipPeerConfig cfg;
      cfg.want_parents = 3;
      cfg.upload_slots = 3;
      cfg.seed = 0xED600 + trial;
      node::GossipPeerConfig source_cfg = cfg;
      source_cfg.upload_slots = 6;

      std::vector<std::uint8_t> bytes(8 * 8 * 2);
      Rng content_rng(0xED700 + trial);
      for (auto& b : bytes) b = static_cast<std::uint8_t>(content_rng.below(256));
      node::GossipPeer source(1, source_cfg, std::move(bytes), 8, 8);
      source.start(engine.lane(1), net);

      std::vector<std::unique_ptr<node::GossipPeer>> peers;
      for (std::size_t i = 0; i < peers_n; ++i) {
        const node::Address addr = static_cast<node::Address>(i + 2);
        const node::Address introducer =
            i == 0 ? 1 : static_cast<node::Address>(2 + (trial + i * 7) % i);
        peers.push_back(std::make_unique<node::GossipPeer>(addr, cfg, introducer));
        peers.back()->start(engine.lane(addr), net);
      }
      engine.run_until(60.0);  // join wave settles; streaming continues

      std::size_t with_parents = 0;
      for (const auto& p : peers) {
        if (p->parent_count() > 0) ++with_parents;
      }
      settled.add(100.0 * static_cast<double>(with_parents) /
                  static_cast<double>(peers_n));
      ctrl_per_join.add(static_cast<double>(net.control_messages()) /
                        static_cast<double>(peers_n));
      bytes_per_join.add(static_cast<double>(net.control_bytes()) /
                         static_cast<double>(peers_n));
    }
    Table wire({"peers", "ctrl msgs/join", "ctrl bytes/join", "fed peers%"});
    wire.add_row({std::to_string(peers_n), fmt(ctrl_per_join.mean(), 1),
                  fmt(bytes_per_join.mean(), 0), fmt(settled.mean(), 1)});
    wire.print();
    session.add_table("wire_cost", wire);
    session.note("ctrl_bytes_per_join", bytes_per_join.mean());
    std::printf(
        "\nReading: a message-level join costs more than the walk count\n"
        "suggests — denials carry view samples (peer lists) and every grant\n"
        "ships the stream plan, all of which the control-byte accounting now\n"
        "prices. The per-join byte figure is the number to compare against\n"
        "the tracker's O(d) redirect orders in bench_trackerless.\n");
  }
  return 0;
}
