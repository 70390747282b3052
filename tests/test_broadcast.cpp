// Round-synchronous packet-level broadcast tests: the network coding
// theorem in action (rank == max-flow), failure behavior, and the Section 5/7
// attacks, all through run_scenario's round mode.

#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include "overlay/curtain_server.hpp"

namespace ncast {
namespace {

using namespace sim;
using overlay::CurtainServer;
using overlay::InsertPolicy;
using overlay::NodeId;

overlay::ThreadMatrix grow_overlay(std::uint32_t k, std::uint32_t d, int n,
                                   std::uint64_t seed) {
  CurtainServer server(k, d, Rng(seed));
  for (int i = 0; i < n; ++i) server.join();
  return server.matrix();
}

ScenarioSpec round_spec(std::size_t g, std::size_t symbols,
                        std::uint64_t seed) {
  ScenarioSpec spec;
  spec.generation_size = g;
  spec.symbols = symbols;
  spec.round_sync = true;
  spec.seed = seed;
  return spec;
}

/// Deliveries land at round + 0.5, so the decode round is the floor of the
/// decode time (0 if the node never decoded).
std::size_t decode_round(const ScenarioOutcome& o) {
  return o.decoded ? static_cast<std::size_t>(o.decode_time) : 0;
}

TEST(Broadcast, FailureFreeEveryoneDecodesAtFullRate) {
  const auto m = grow_overlay(8, 3, 40, 1);
  const auto report = run_scenario(m, round_spec(8, 8, 2));
  ASSERT_EQ(report.outcomes.size(), 40u);
  for (const auto& o : report.outcomes) {
    EXPECT_EQ(o.max_flow, 3);
    EXPECT_TRUE(o.decoded) << "node " << o.node;
    EXPECT_FALSE(o.corrupted);
    EXPECT_EQ(o.rank_achieved, 8u);
  }
  EXPECT_DOUBLE_EQ(report.decoded_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(report.corrupted_fraction(), 0.0);
}

TEST(Broadcast, DecodeRoundTracksDepth) {
  const auto m = grow_overlay(6, 2, 30, 3);
  const auto report = run_scenario(m, round_spec(4, 4, 4));
  for (const auto& o : report.outcomes) {
    ASSERT_TRUE(o.decoded);
    // The first packet arrives at round == depth, and at most d=2 packets
    // arrive per round, so full rank g=4 needs at least depth + 1 rounds.
    EXPECT_GE(decode_round(o), static_cast<std::size_t>(o.depth) + 1);
  }
}

TEST(Broadcast, OfflineNodesCapDownstreamRankAtMaxflow) {
  const auto m = grow_overlay(8, 3, 60, 5);
  std::vector<NodeBehavior> behavior(60, NodeBehavior::kHonest);
  for (NodeId n : {5u, 11u, 17u, 23u}) behavior[n] = NodeBehavior::kOffline;

  const auto spec = round_spec(8, 8, 6);
  const auto report = run_scenario(m, spec, behavior);
  ASSERT_EQ(report.outcomes.size(), 56u);  // offline nodes not reported
  for (const auto& o : report.outcomes) {
    if (o.max_flow > 0) {
      // Positive min-cut: rank accumulates over rounds, so with ample
      // rounds the node decodes — but no faster than capacity allows:
      // rank can grow by at most max_flow per round after the first packet
      // arrives at round == depth.
      EXPECT_TRUE(o.decoded) << "node " << o.node;
      const std::size_t active_rounds =
          decode_round(o) - static_cast<std::size_t>(o.depth) + 1;
      EXPECT_GE(active_rounds * static_cast<std::size_t>(o.max_flow),
                spec.generation_size)
          << "node " << o.node << " decoded faster than its min-cut";
    } else {
      // Cut off entirely: nothing ever arrives.
      EXPECT_EQ(o.rank_achieved, 0u);
      EXPECT_FALSE(o.decoded);
    }
  }
}

TEST(Broadcast, MatrixFailedTagsActOffline) {
  auto m = grow_overlay(6, 2, 20, 7);
  m.mark_failed(0);
  const auto report = run_scenario(m, round_spec(4, 4, 8));
  EXPECT_EQ(report.outcomes.size(), 19u);
  for (const auto& o : report.outcomes) EXPECT_NE(o.node, 0u);
}

TEST(Broadcast, RankMatchesMaxflowThroughput) {
  // The core claim of [1]/[5]: with ample rounds, achieved rank per node is
  // limited only by min-cut; nodes with max_flow == d decode fully even with
  // failures elsewhere.
  auto m = grow_overlay(10, 3, 80, 9);
  std::vector<NodeBehavior> behavior(80, NodeBehavior::kHonest);
  for (NodeId n = 0; n < 80; n += 13) behavior[n] = NodeBehavior::kOffline;

  const auto report = run_scenario(m, round_spec(12, 8, 10), behavior);
  for (const auto& o : report.outcomes) {
    if (o.max_flow >= 3) {
      EXPECT_TRUE(o.decoded) << "node " << o.node << " flow " << o.max_flow;
    }
  }
}

TEST(Broadcast, EntropyAttackStarvesDownstream) {
  // Same topology, honest vs entropy-attacking relays: attacked run must
  // deliver strictly less rank downstream.
  const auto m = grow_overlay(6, 2, 50, 11);

  const auto spec = round_spec(8, 8, 12);
  const auto honest = run_scenario(m, spec);

  std::vector<NodeBehavior> behavior(50, NodeBehavior::kHonest);
  for (NodeId n = 0; n < 50; n += 3) behavior[n] = NodeBehavior::kEntropyAttack;
  const auto attacked = run_scenario(m, spec, behavior);

  std::size_t honest_rank = 0, attacked_rank = 0;
  for (const auto& o : honest.outcomes) honest_rank += o.rank_achieved;
  for (const auto& o : attacked.outcomes) attacked_rank += o.rank_achieved;
  EXPECT_LT(attacked_rank, honest_rank);
  EXPECT_LT(attacked.decoded_fraction(), honest.decoded_fraction());
  // Entropy attacks are not corruption: whatever decodes, decodes correctly.
  EXPECT_DOUBLE_EQ(attacked.corrupted_fraction(), 0.0);
}

TEST(Broadcast, JammerContaminatesAlmostEveryone) {
  // Section 7: a few jammers injecting garbage contaminate almost every
  // packet of almost every user once mixed.
  const auto m = grow_overlay(8, 3, 60, 13);
  std::vector<NodeBehavior> behavior(60, NodeBehavior::kHonest);
  behavior[2] = NodeBehavior::kJammer;
  behavior[9] = NodeBehavior::kJammer;

  const auto report = run_scenario(m, round_spec(8, 8, 14), behavior);
  std::size_t corrupted = 0, decoded = 0, jammer_outcomes = 0;
  for (const auto& o : report.outcomes) {
    if (o.node == 2 || o.node == 9) {
      ++jammer_outcomes;
      continue;
    }
    if (o.decoded) {
      ++decoded;
      if (o.corrupted) ++corrupted;
    }
  }
  EXPECT_EQ(jammer_outcomes, 2u);
  ASSERT_GT(decoded, 0u);
  // The vast majority of deep nodes end up with garbage.
  EXPECT_GT(static_cast<double>(corrupted) / static_cast<double>(decoded), 0.5);
}

TEST(Broadcast, ErgodicPacketLossOnlySlowsThingsDown) {
  // Section 2's ergodic failures: packet loss costs rate, never correctness.
  const auto m = grow_overlay(8, 3, 40, 21);
  auto spec = round_spec(8, 8, 22);
  const auto clean = run_scenario(m, spec);

  spec.link.loss = LossSpec::bernoulli(0.3);
  spec.rounds = clean.rounds * 4;  // ample budget
  const auto lossy = run_scenario(m, spec);
  EXPECT_DOUBLE_EQ(lossy.decoded_fraction(), 1.0);
  EXPECT_DOUBLE_EQ(lossy.corrupted_fraction(), 0.0);

  // ...but decoding takes longer under loss.
  double clean_sum = 0, lossy_sum = 0;
  for (const auto& o : clean.outcomes) {
    clean_sum += static_cast<double>(decode_round(o));
  }
  for (const auto& o : lossy.outcomes) {
    lossy_sum += static_cast<double>(decode_round(o));
  }
  EXPECT_GT(lossy_sum, clean_sum);
}

TEST(Broadcast, ExplicitRoundBudgetHonored) {
  const auto m = grow_overlay(4, 2, 10, 15);
  auto spec = round_spec(4, 4, 16);
  spec.rounds = 3;  // too few to decode
  const auto report = run_scenario(m, spec);
  EXPECT_EQ(report.rounds, 3u);
  for (const auto& o : report.outcomes) {
    if (o.depth > 2) {
      EXPECT_FALSE(o.decoded);
    }
  }
}

}  // namespace
}  // namespace ncast
