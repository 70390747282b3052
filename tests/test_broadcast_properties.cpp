// Parameterized property sweep for round-synchronous packet-level broadcast:
// across overlay shapes and failure rates, the network-coding invariants
// must hold node by node:
//   - min-cut 0  =>  rank stays 0 (no information without capacity)
//   - min-cut >= 1 => decodes with ample rounds (capacity is achievable)
//   - nobody is corrupted without a jammer
//   - achieved rank never exceeds what capacity allows in the time available

#include <gtest/gtest.h>

#include <tuple>

#include "overlay/curtain_server.hpp"
#include "sim/scenario.hpp"

namespace ncast {
namespace {

using namespace sim;

class BroadcastProperties
    : public ::testing::TestWithParam<std::tuple<int, int, int, double, int>> {
};

TEST_P(BroadcastProperties, CapacityInvariantsHold) {
  const auto [k, d, n, p, seed] = GetParam();
  overlay::CurtainServer server(static_cast<std::uint32_t>(k),
                                static_cast<std::uint32_t>(d), Rng(seed));
  for (int i = 0; i < n; ++i) server.join();
  auto m = server.matrix();
  Rng rng(static_cast<std::uint64_t>(seed) * 131);
  for (auto node : m.nodes_in_order()) {
    if (rng.chance(p)) m.mark_failed(node);
  }

  ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 8;
  spec.round_sync = true;
  spec.seed = static_cast<std::uint64_t>(seed) * 977 + 5;
  const auto report = run_scenario(m, spec);

  for (const auto& o : report.outcomes) {
    if (o.max_flow == 0) {
      EXPECT_EQ(o.rank_achieved, 0u) << "node " << o.node;
      EXPECT_FALSE(o.decoded);
    } else {
      EXPECT_TRUE(o.decoded) << "node " << o.node << " flow " << o.max_flow;
      // Cannot decode faster than capacity: g innovative packets need at
      // least ceil(g / max_flow) delivery rounds after the first arrival.
      // Deliveries land at round + 0.5, so the decode round is the floor of
      // the decode time.
      const std::size_t decode_round =
          o.decoded ? static_cast<std::size_t>(o.decode_time) : 0;
      const std::size_t active =
          decode_round - static_cast<std::size_t>(o.depth) + 1;
      EXPECT_GE(active * static_cast<std::size_t>(o.max_flow),
                spec.generation_size)
          << "node " << o.node;
    }
    EXPECT_FALSE(o.corrupted) << "no jammers were configured";
    EXPECT_LE(o.max_flow, static_cast<std::int64_t>(d));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, BroadcastProperties,
    ::testing::Values(std::make_tuple(6, 2, 40, 0.00, 1),
                      std::make_tuple(6, 2, 40, 0.10, 2),
                      std::make_tuple(8, 3, 60, 0.05, 3),
                      std::make_tuple(8, 3, 60, 0.20, 4),
                      std::make_tuple(12, 4, 80, 0.10, 5),
                      std::make_tuple(16, 2, 100, 0.05, 6),
                      std::make_tuple(10, 5, 50, 0.15, 7),
                      std::make_tuple(12, 3, 120, 0.30, 8)));

}  // namespace
}  // namespace ncast
