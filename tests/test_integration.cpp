// End-to-end integration tests: the full stack working together — protocol
// churn, packet-level coding, file distribution, and Lemma 1's
// leave-is-as-if-never-joined property.

#include <gtest/gtest.h>

#include "coding/decoder.hpp"
#include "coding/file_codec.hpp"
#include "overlay/curtain_server.hpp"
#include "overlay/defect.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/polymatroid.hpp"
#include "sim/churn.hpp"
#include "sim/scenario.hpp"

namespace ncast {
namespace {

using namespace overlay;

TEST(Integration, ChurnThenBroadcastDecodes) {
  // Run the membership protocol under churn, then broadcast over whatever
  // overlay it produced, with still-tagged failures acting offline.
  sim::ChurnConfig cfg;
  cfg.arrival_rate = 8.0;
  cfg.mean_lifetime = 40.0;
  cfg.failure_fraction = 0.2;
  cfg.horizon = 40.0;
  CurtainServer server(12, 3, Rng(0));
  sim::run_churn(12, 3, InsertPolicy::kAppend, cfg, 77, &server);
  ASSERT_GT(server.matrix().working_count(), 10u);

  sim::ScenarioSpec spec;
  spec.generation_size = 6;
  spec.symbols = 8;
  spec.round_sync = true;
  spec.seed = 78;
  const auto report = sim::run_scenario(server.matrix(), spec);
  // Everyone with full min-cut decodes; nobody is corrupted.
  for (const auto& o : report.outcomes) {
    if (o.max_flow >= 3) {
      EXPECT_TRUE(o.decoded);
    }
    EXPECT_FALSE(o.corrupted);
  }
}

TEST(Integration, FileDistributionThroughRelayChain) {
  // A 4 KiB "file" crosses three recoding relays and arrives intact —
  // the Avalanche-style download path.
  Rng rng(1);
  std::vector<std::uint8_t> file(4096);
  for (auto& b : file) b = static_cast<std::uint8_t>(rng.below(256));

  coding::FileEncoder encoder(file, 16, 64);  // 1 KiB generations
  coding::FileDecoder decoder(encoder.plan());

  const auto gens = encoder.generations();
  // One relay pipeline per generation (relays are per-generation objects).
  for (std::size_t g = 0; g < gens; ++g) {
    // Feed enough packets for the relay to hold full rank, then let the
    // decoder drink from the relay only.
    coding::Decoder<gf::Gf256> relay(static_cast<std::uint32_t>(g), 16, 64);
    while (!relay.complete()) relay.absorb(encoder.emit(g, rng));
    while (decoder.decoder(g).rank() < 16) {
      const auto p = relay.emit(rng);
      ASSERT_TRUE(p.has_value());
      decoder.absorb(*p);
    }
  }
  ASSERT_TRUE(decoder.complete());
  EXPECT_EQ(decoder.data(), file);
}

TEST(Integration, Lemma1LeaveIsDistributionNeutral) {
  // Lemma 1: after a graceful leave, the network is distributed as if the
  // node never joined. Deterministically: join+leave must restore the exact
  // matrix, and connectivity of everyone else must be untouched.
  CurtainServer server(10, 3, Rng(4));
  for (int i = 0; i < 30; ++i) server.join();
  const auto before_edges = server.matrix().edges();

  const auto t = server.join();
  server.leave(t.node);
  const auto after_edges = server.matrix().edges();

  ASSERT_EQ(before_edges.size(), after_edges.size());
  for (std::size_t i = 0; i < before_edges.size(); ++i) {
    EXPECT_EQ(before_edges[i].from, after_edges[i].from);
    EXPECT_EQ(before_edges[i].to, after_edges[i].to);
    EXPECT_EQ(before_edges[i].column, after_edges[i].column);
  }
}

TEST(Integration, RepairContainsFailureImpact) {
  // Fail 5 nodes in a 100-node overlay, repair them, and verify the overlay
  // is exactly as healthy as one where those nodes never existed: zero
  // defect, full connectivity.
  CurtainServer server(16, 4, Rng(5));
  for (int i = 0; i < 100; ++i) server.join();
  for (NodeId n : {10u, 30u, 50u, 70u, 90u}) {
    server.report_failure(n);
    server.repair(n);
  }
  const auto fg = build_flow_graph(server.matrix());
  for (NodeId n : server.matrix().nodes_in_order()) {
    EXPECT_EQ(node_connectivity(fg, n), 4);
  }
  Rng rng(6);
  EXPECT_DOUBLE_EQ(sampled_mean_defect(fg, 4, 200, rng), 0.0);
}

TEST(Integration, PolymatroidPredictsServerJoinExperience) {
  // Drive a CurtainServer and a PolymatroidCurtain with the same thread
  // choices; the polymatroid's reported arrival connectivity must equal the
  // explicit overlay's.
  const std::uint32_t k = 8, d = 2;
  ThreadMatrix m(k);
  PolymatroidCurtain pc(k);
  Rng rng(7);
  NodeId next = 0;
  for (int i = 0; i < 50; ++i) {
    const auto picks = rng.sample_without_replacement(k, d);
    PolymatroidCurtain::Mask mask = 0;
    for (auto c : picks) mask |= 1u << c;
    const bool failed = rng.chance(0.2);

    const auto fg = build_flow_graph(m);
    const auto expected =
        tuple_connectivity(fg, {picks.begin(), picks.end()});
    EXPECT_EQ(static_cast<std::int64_t>(pc.join(mask, failed)), expected);
    m.append_row(next++, {picks.begin(), picks.end()});
    if (failed) m.mark_failed(next - 1);
  }
}

TEST(Integration, HeterogeneousDegreesCoexist) {
  // Section 5: users with different bandwidths. DSL users (d=2) and T1
  // users (d=6) share the curtain; each gets its own degree's connectivity.
  CurtainServer server(16, 2, Rng(8));
  std::vector<NodeId> dsl, t1;
  for (int i = 0; i < 30; ++i) {
    dsl.push_back(server.join(2u).node);
    t1.push_back(server.join(6u).node);
  }
  const auto fg = build_flow_graph(server.matrix());
  for (NodeId n : dsl) EXPECT_EQ(node_connectivity(fg, n), 2);
  for (NodeId n : t1) EXPECT_EQ(node_connectivity(fg, n), 6);
}

TEST(Integration, CongestionOffloadKeepsOthersWhole) {
  CurtainServer server(8, 3, Rng(9));
  for (int i = 0; i < 40; ++i) server.join();
  // Node 20 sheds one thread, later restores it.
  server.congestion_offload(20);
  {
    const auto fg = build_flow_graph(server.matrix());
    EXPECT_EQ(node_connectivity(fg, 20), 2);
    // Everyone else unaffected.
    for (NodeId n : server.matrix().nodes_in_order()) {
      if (n != 20) {
        EXPECT_EQ(node_connectivity(fg, n), 3) << "node " << n;
      }
    }
  }
  server.congestion_restore(20);
  const auto fg = build_flow_graph(server.matrix());
  EXPECT_EQ(node_connectivity(fg, 20), 3);
}

}  // namespace
}  // namespace ncast
