// Free-running packet-level broadcast tests (run_scenario's async mode):
// decoding under latency jitter, acyclic no-loss behavior, cyclic overlays,
// and failure handling.

#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include "overlay/curtain_server.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/random_graph.hpp"

namespace ncast {
namespace {

using namespace sim;

graph::Digraph curtain_graph(std::uint32_t k, std::uint32_t d, int n,
                             std::uint64_t seed) {
  overlay::CurtainServer server(k, d, Rng(seed));
  for (int i = 0; i < n; ++i) server.join();
  return build_flow_graph(server.matrix()).graph;
}

/// Desynchronized send clocks with link latencies uniform in [0.2, 1.8]
/// periods.
ScenarioSpec async_spec(std::size_t g, std::size_t symbols,
                        std::uint64_t seed) {
  ScenarioSpec spec;
  spec.generation_size = g;
  spec.symbols = symbols;
  spec.seed = seed;
  spec.link.latency = LatencySpec::uniform(0.2, 1.8);
  return spec;
}

TEST(AsyncBroadcast, Validation) {
  graph::Digraph g(2);
  g.add_edge(0, 1);
  ScenarioSpec spec = async_spec(16, 8, 1);
  EXPECT_THROW(run_scenario(g, 9, spec), std::out_of_range);
  spec.generation_size = 0;
  EXPECT_THROW(run_scenario(g, 0, spec), std::invalid_argument);
}

TEST(AsyncBroadcast, SingleLinkDelivers) {
  graph::Digraph g(2);
  g.add_edge(0, 1);
  const auto report = run_scenario(g, 0, async_spec(4, 4, 1));
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_TRUE(report.outcomes[0].decoded);
  EXPECT_EQ(report.outcomes[0].max_flow, 1);
  EXPECT_GE(report.outcomes[0].first_arrival, 0.0);
  EXPECT_GT(report.outcomes[0].decode_time, report.outcomes[0].first_arrival);
}

TEST(AsyncBroadcast, CurtainDecodesEverywhereUnderJitter) {
  const auto g = curtain_graph(8, 3, 50, 2);
  // g = 24: wide enough that the mid-window slope is jitter-insensitive.
  const auto report = run_scenario(g, 0, async_spec(24, 8, 3));
  EXPECT_DOUBLE_EQ(report.decoded_fraction(), 1.0);
  // Acyclic overlay: the achieved rate should approach the min-cut even with
  // heavy latency jitter (the Section 6 no-loss-from-delay-spread claim).
  EXPECT_GT(report.mean_rate_vs_cut(), 0.85);
}

TEST(AsyncBroadcast, InnovativeCountIsBounded) {
  const auto g = curtain_graph(6, 2, 20, 4);
  const auto report = run_scenario(g, 0, async_spec(6, 4, 5));
  // Each of the 20 receivers can absorb at most g innovative packets.
  EXPECT_LE(report.packets_innovative, 20u * 6u);
  EXPECT_GE(report.packets_sent, report.packets_innovative);
}

TEST(AsyncBroadcast, CyclicRandomGraphStillDecodes) {
  overlay::RandomGraphOverlay o(3, 3, Rng(6));
  for (int i = 0; i < 60; ++i) o.join();
  const auto report = run_scenario(
      o.graph(), overlay::RandomGraphOverlay::kServer, async_spec(8, 8, 7));
  // The seed children are sinks with min-cut 3; newcomers too. Everyone
  // reachable decodes despite cycles.
  EXPECT_DOUBLE_EQ(report.decoded_fraction(), 1.0);
}

TEST(AsyncBroadcast, DeadEdgesCarryNothing) {
  graph::Digraph g(3);
  const auto e01 = g.add_edge(0, 1);
  g.add_edge(0, 1);
  g.add_edge(1, 2);
  g.remove_edge(e01);
  const auto report = run_scenario(g, 0, async_spec(3, 3, 8));
  for (const auto& o : report.outcomes) {
    EXPECT_EQ(o.max_flow, 1);
    EXPECT_TRUE(o.decoded);
  }
}

TEST(AsyncBroadcast, UnreachableVertexStaysEmpty) {
  graph::Digraph g(3);
  g.add_edge(0, 1);
  const auto report = run_scenario(g, 0, async_spec(2, 2, 9));
  for (const auto& o : report.outcomes) {
    if (o.vertex == 2) {
      EXPECT_FALSE(o.decoded);
      EXPECT_EQ(o.rank_achieved, 0u);
      EXPECT_LT(o.first_arrival, 0.0);
    }
  }
}

TEST(AsyncBroadcast, DeterministicGivenSeed) {
  const auto g = curtain_graph(6, 2, 15, 10);
  const auto spec = async_spec(4, 4, 11);
  const auto a = run_scenario(g, 0, spec);
  const auto b = run_scenario(g, 0, spec);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_innovative, b.packets_innovative);
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.outcomes[i].decode_time, b.outcomes[i].decode_time);
  }
}

}  // namespace
}  // namespace ncast
