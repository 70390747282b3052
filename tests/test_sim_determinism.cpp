// Determinism regression (the seed contract): every simulator run twice with
// the same seed must produce bit-identical reports AND execute exactly the
// same number of engine events. Comparing two runs of one build cannot see a
// change that moves both runs alike (an engine swap, a reordered schedule,
// a moved loss draw), so the packet-level, churn and protocol runs are also
// pinned to absolute golden values: event and packet counts plus an FNV-1a
// hash over the outcome fields. An accidental extra RNG draw or a reordered
// event shows up here first.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "coding/structure.hpp"
#include "node/protocol_scenario.hpp"
#include "overlay/curtain_server.hpp"
#include "overlay/flow_graph.hpp"
#include "sim/churn.hpp"
#include "sim/scenario.hpp"

namespace ncast {
namespace {

using namespace sim;

/// FNV-1a over a run's outcome fields, eight little-endian bytes per field
/// (doubles by bit pattern), so one moved draw changes the hash.
class OutcomeHash {
 public:
  template <typename T>
  OutcomeHash& add(T v) {
    std::uint64_t x = 0;
    if constexpr (std::is_floating_point_v<T>) {
      x = std::bit_cast<std::uint64_t>(static_cast<double>(v));
    } else {
      x = static_cast<std::uint64_t>(v);
    }
    for (int i = 0; i < 8; ++i) {
      h_ = (h_ ^ ((x >> (8 * i)) & 0xffU)) * 0x100000001b3ULL;
    }
    return *this;
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// The round pin's fields: what the pre-kernel round simulator reported,
/// with the decode round as the floor of the decode time (deliveries land at
/// round + 0.5).
std::uint64_t hash_round_outcomes(
    const std::vector<ScenarioOutcome>& outcomes) {
  OutcomeHash h;
  for (const auto& o : outcomes) {
    const std::size_t decode_round =
        o.decoded ? static_cast<std::size_t>(o.decode_time) : 0;
    h.add(o.node).add(o.max_flow).add(o.rank_achieved).add(decode_round);
    h.add(o.decoded).add(o.corrupted).add(o.depth);
  }
  return h.value();
}

/// The async pin's fields: what the pre-kernel async simulator reported.
std::uint64_t hash_async_outcomes(
    const std::vector<ScenarioOutcome>& outcomes) {
  OutcomeHash h;
  for (const auto& o : outcomes) {
    h.add(o.vertex).add(o.max_flow).add(o.rank_achieved).add(o.decoded);
    h.add(o.first_arrival).add(o.decode_time).add(o.third_time);
    h.add(o.two_thirds_time);
  }
  return h.value();
}

std::uint64_t hash_outcomes(const std::vector<ScenarioOutcome>& outcomes) {
  OutcomeHash h;
  for (const auto& o : outcomes) {
    h.add(o.vertex).add(o.node).add(o.max_flow).add(o.rank_achieved);
    h.add(o.decoded).add(o.corrupted).add(o.first_arrival).add(o.decode_time);
    h.add(o.third_time).add(o.two_thirds_time).add(o.depth);
  }
  return h.value();
}

std::uint64_t hash_outcomes(
    const std::vector<node::ProtocolOutcome>& outcomes) {
  OutcomeHash h;
  for (const auto& o : outcomes) {
    h.add(o.address).add(o.joined).add(o.crashed).add(o.departed);
    h.add(o.decoded).add(o.join_latency).add(o.decode_time);
    h.add(o.join_retries).add(o.complaints);
  }
  return h.value();
}

overlay::ThreadMatrix grow_overlay(std::uint32_t k, std::uint32_t d, int n,
                                   std::uint64_t seed) {
  overlay::CurtainServer server(k, d, Rng(seed));
  for (int i = 0; i < n; ++i) server.join();
  return server.matrix();
}

void expect_identical(const ScenarioOutcome& a, const ScenarioOutcome& b) {
  EXPECT_EQ(a.vertex, b.vertex);
  EXPECT_EQ(a.node, b.node);
  EXPECT_EQ(a.max_flow, b.max_flow);
  EXPECT_EQ(a.rank_achieved, b.rank_achieved);
  EXPECT_EQ(a.decoded, b.decoded);
  EXPECT_EQ(a.corrupted, b.corrupted);
  EXPECT_EQ(a.first_arrival, b.first_arrival);  // bit-identical doubles
  EXPECT_EQ(a.decode_time, b.decode_time);
  EXPECT_EQ(a.third_time, b.third_time);
  EXPECT_EQ(a.two_thirds_time, b.two_thirds_time);
  EXPECT_EQ(a.depth, b.depth);
}

TEST(Determinism, RoundBroadcastReproduces) {
  const auto m = grow_overlay(6, 2, 24, 11);
  ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 4;
  spec.round_sync = true;
  spec.seed = 12;
  spec.link.loss = LossSpec::bernoulli(0.1);
  std::vector<NodeBehavior> behavior(24, NodeBehavior::kHonest);
  behavior[5] = NodeBehavior::kEntropyAttack;

  const auto a = run_scenario(m, spec, behavior);
  const auto b = run_scenario(m, spec, behavior);
  EXPECT_EQ(a.rounds, b.rounds);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].node, b.outcomes[i].node);
    EXPECT_EQ(a.outcomes[i].rank_achieved, b.outcomes[i].rank_achieved);
    EXPECT_EQ(a.outcomes[i].decode_time, b.outcomes[i].decode_time);
    EXPECT_EQ(a.outcomes[i].decoded, b.outcomes[i].decoded);
    EXPECT_EQ(a.outcomes[i].corrupted, b.outcomes[i].corrupted);
  }

  // Golden pins.
  EXPECT_EQ(a.rounds, 42u);
  EXPECT_EQ(hash_round_outcomes(a.outcomes), 0x4694e8c00b5cbbc9ULL);
}

TEST(Determinism, AsyncBroadcastReproduces) {
  const auto m = grow_overlay(6, 2, 24, 13);
  const auto fg = overlay::build_flow_graph(m);
  ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 4;
  spec.seed = 14;
  spec.link.latency = LatencySpec::uniform(0.2, 1.8);

  const auto source = overlay::FlowGraph::kServerVertex;
  const auto a = run_scenario(fg.graph, source, spec);
  const auto b = run_scenario(fg.graph, source, spec);
  EXPECT_EQ(a.horizon, b.horizon);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].vertex, b.outcomes[i].vertex);
    EXPECT_EQ(a.outcomes[i].rank_achieved, b.outcomes[i].rank_achieved);
    EXPECT_EQ(a.outcomes[i].decode_time, b.outcomes[i].decode_time);
    EXPECT_EQ(a.outcomes[i].first_arrival, b.outcomes[i].first_arrival);
    EXPECT_EQ(a.outcomes[i].third_time, b.outcomes[i].third_time);
    EXPECT_EQ(a.outcomes[i].two_thirds_time, b.outcomes[i].two_thirds_time);
  }

  // Golden pins.
  EXPECT_EQ(a.horizon, 48.6);
  EXPECT_EQ(a.packets_sent, 2156u);
  EXPECT_EQ(a.packets_innovative, 192u);
  EXPECT_EQ(hash_async_outcomes(a.outcomes), 0x9e2d81fb1aac12beULL);
}

TEST(Determinism, ComposedScenarioReproducesWithIdenticalEventCounts) {
  const auto m = grow_overlay(8, 3, 30, 15);

  ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 4;
  spec.seed = 16;
  spec.horizon = 120.0;
  spec.link.latency = LatencySpec::uniform(0.2, 1.2);
  spec.link.loss = LossSpec::gilbert_elliott(0.05, 0.45);
  spec.link.bandwidth_cap = 4.0;
  const auto order = m.nodes_in_order();
  spec.faults.crash_at(10.0, order[4]).repair_at(40.0, order[4]);
  spec.faults.behavior_at(20.0, order[9], NodeBehavior::kEntropyAttack);
  std::vector<NodeBehavior> behavior(30, NodeBehavior::kHonest);
  behavior[order[2]] = NodeBehavior::kJammer;

  const auto a = run_scenario(m, spec, behavior);
  const auto b = run_scenario(m, spec, behavior);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.packets_lost, b.packets_lost);
  EXPECT_EQ(a.packets_innovative, b.packets_innovative);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    expect_identical(a.outcomes[i], b.outcomes[i]);
  }

  // Golden pins.
  EXPECT_EQ(a.events_executed, 21133u);
  EXPECT_EQ(a.packets_sent, 10490u);
  EXPECT_EQ(a.packets_lost, 1130u);
  EXPECT_EQ(a.packets_innovative, 240u);
  EXPECT_EQ(hash_outcomes(a.outcomes), 0xb2e43b7e3cc30d96ULL);
}

TEST(Determinism, ChurnReproducesWithIdenticalEventCounts) {
  ChurnConfig cfg;
  cfg.horizon = 40.0;
  cfg.arrival_rate = 5.0;
  cfg.mean_lifetime = 20.0;

  const auto a = run_churn(6, 2, overlay::InsertPolicy::kRandomPosition, cfg, 17);
  const auto b = run_churn(6, 2, overlay::InsertPolicy::kRandomPosition, cfg, 17);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.joins, b.joins);
  EXPECT_EQ(a.graceful_leaves, b.graceful_leaves);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.repairs, b.repairs);
  EXPECT_EQ(a.final_population, b.final_population);
  EXPECT_EQ(a.final_failed_tagged, b.final_failed_tagged);
  EXPECT_EQ(a.peak_population, b.peak_population);

  // Golden pins.
  EXPECT_EQ(a.events_executed, 413u);
  EXPECT_EQ(a.joins, 229u);
  EXPECT_EQ(a.graceful_leaves, 119u);
  EXPECT_EQ(a.failures, 13u);
  EXPECT_EQ(a.repairs, 12u);
  EXPECT_EQ(a.final_population, 98u);
  EXPECT_EQ(a.final_failed_tagged, 1u);
  EXPECT_EQ(a.peak_population, 103.0);
  EXPECT_EQ(a.server_stats.control_messages, 1509u);
  EXPECT_EQ(a.population_samples.count(), 40u);
  EXPECT_EQ(OutcomeHash()
                .add(a.population_samples.mean())
                .add(a.population_samples.variance())
                .add(a.population_samples.min())
                .add(a.population_samples.max())
                .value(),
            0xaf565ed97bb88075ULL);
}

TEST(Determinism, ProtocolScenarioReproducesWithIdenticalEventCounts) {
  node::ProtocolScenarioSpec spec;
  spec.k = 6;
  spec.default_degree = 2;
  spec.generations = 2;
  spec.generation_size = 8;
  spec.symbols = 8;
  spec.silence_timeout = 8;
  spec.seed = 19;
  spec.transport.latency = LatencySpec::uniform(0.5, 1.5);
  spec.transport.control_loss = LossSpec::bernoulli(0.15);
  spec.transport.data_loss = LossSpec::gilbert_elliott(0.05, 0.45);
  spec.faults.join_burst(1.0, 8, 1.0);
  spec.faults.crash_join_at(30.0, 1);
  spec.faults.leave_join_at(35.0, 4);

  const auto a = node::run_scenario_sharded(spec, 1, 0);
  const auto b = node::run_scenario_sharded(spec, 1, 0);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.messages_sent, b.messages_sent);
  EXPECT_EQ(a.messages_dropped, b.messages_dropped);
  EXPECT_EQ(a.control_messages, b.control_messages);
  EXPECT_EQ(a.data_messages, b.data_messages);
  EXPECT_EQ(a.control_dropped, b.control_dropped);
  EXPECT_EQ(a.control_bytes, b.control_bytes);
  EXPECT_EQ(a.repairs_done, b.repairs_done);
  EXPECT_EQ(a.last_repair_time, b.last_repair_time);  // bit-identical doubles
  EXPECT_EQ(a.matrix.nodes_in_order(), b.matrix.nodes_in_order());
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].address, b.outcomes[i].address);
    EXPECT_EQ(a.outcomes[i].joined, b.outcomes[i].joined);
    EXPECT_EQ(a.outcomes[i].crashed, b.outcomes[i].crashed);
    EXPECT_EQ(a.outcomes[i].departed, b.outcomes[i].departed);
    EXPECT_EQ(a.outcomes[i].decoded, b.outcomes[i].decoded);
    EXPECT_EQ(a.outcomes[i].join_latency, b.outcomes[i].join_latency);
    EXPECT_EQ(a.outcomes[i].decode_time, b.outcomes[i].decode_time);
    EXPECT_EQ(a.outcomes[i].join_retries, b.outcomes[i].join_retries);
    EXPECT_EQ(a.outcomes[i].complaints, b.outcomes[i].complaints);
  }

  // Golden pins: control loss takes the transport's Bernoulli path, data
  // loss its Gilbert-Elliott path. A column given up at a re-admission takes
  // its silence timer with it, so no no-op firing counts among the events.
  EXPECT_EQ(a.events_executed, 3411u);
  EXPECT_EQ(a.messages_sent, 2363u);
  EXPECT_EQ(a.messages_dropped, 245u);
  EXPECT_EQ(a.control_bytes, 1257u);
  EXPECT_EQ(hash_outcomes(a.outcomes), 0x166379850e17eb56ULL);
}

// The protocol run on structured streams, where relays recode: band strips
// come back as dense rows (banded, wrapping or not) and class packets stay
// class packets (overlapped), with null keys checking every strip. A moved
// recode draw, a changed admission verdict or a different wire size shows
// up in these pins.
TEST(Determinism, StructuredProtocolScenariosMatchGoldenPins) {
  const struct {
    const char* name;
    coding::StructureSpec structure;
    std::uint64_t events, messages, data_bytes, hash;
  } pins[] = {
      {"banded wrap", coding::StructureSpec::banded(4, true), 4661, 3185,
       12196, 0x1afe6d4302510719ULL},
      {"banded", coding::StructureSpec::banded(4), 4659, 3184, 11968,
       0xa0c5154110652f91ULL},
      {"overlapped", coding::StructureSpec::overlapping(6, 2), 4662, 3173,
       17584, 0xca60c8e3926ce3fdULL},
  };
  for (const auto& pin : pins) {
    node::ProtocolScenarioSpec spec;
    spec.k = 6;
    spec.default_degree = 2;
    spec.generations = 2;
    spec.generation_size = 16;
    spec.symbols = 8;
    spec.null_keys = 2;
    spec.structure = pin.structure;
    spec.silence_timeout = 8;
    spec.seed = 23;
    spec.transport.latency = LatencySpec::uniform(0.5, 1.5);
    spec.transport.data_loss = LossSpec::gilbert_elliott(0.05, 0.45);
    spec.faults.join_burst(1.0, 8, 1.0);
    spec.faults.crash_join_at(30.0, 1);
    const auto r = node::run_scenario_sharded(spec, 1, 0);
    EXPECT_EQ(r.decoded_fraction(), 1.0) << pin.name;
    EXPECT_EQ(r.events_executed, pin.events) << pin.name;
    EXPECT_EQ(r.messages_sent, pin.messages) << pin.name;
    EXPECT_EQ(r.data_bytes, pin.data_bytes) << pin.name;
    EXPECT_EQ(hash_outcomes(r.outcomes), pin.hash) << pin.name;
  }
}

}  // namespace
}  // namespace ncast
