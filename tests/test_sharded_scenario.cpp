// Shard-determinism at the protocol plane: run_scenario_sharded must
// produce the SAME report — final thread matrix, per-client outcomes,
// decoded fractions, message tallies — for every shard count and worker
// count. This is the end-to-end enforcement of the sharded kernel's
// determinism contract on the regression protocol spec (the same spec
// test_sim_determinism.cpp pins run over run on one shard).

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "coding/structure.hpp"
#include "node/protocol_scenario.hpp"
#include "overlay/thread_matrix.hpp"
#include "sim/link_model.hpp"

namespace ncast {
namespace {

using sim::LatencySpec;
using sim::LossSpec;

node::ProtocolScenarioSpec regression_spec(std::uint64_t seed) {
  node::ProtocolScenarioSpec spec;
  spec.k = 6;
  spec.default_degree = 2;
  spec.generations = 2;
  spec.generation_size = 8;
  spec.symbols = 8;
  spec.silence_timeout = 8;
  spec.seed = seed;
  spec.transport.latency = LatencySpec::uniform(0.5, 1.5);
  spec.transport.control_loss = LossSpec::bernoulli(0.15);
  spec.transport.data_loss = LossSpec::gilbert_elliott(0.05, 0.45);
  spec.faults.join_burst(1.0, 8, 1.0);
  spec.faults.crash_join_at(30.0, 1);
  spec.faults.leave_join_at(35.0, 4);
  return spec;
}

void expect_reports_equal(const node::ProtocolScenarioReport& a,
                          const node::ProtocolScenarioReport& b,
                          const char* what) {
  EXPECT_EQ(a.horizon, b.horizon) << what;
  EXPECT_EQ(a.events_executed, b.events_executed) << what;
  EXPECT_EQ(a.messages_sent, b.messages_sent) << what;
  EXPECT_EQ(a.messages_dropped, b.messages_dropped) << what;
  EXPECT_EQ(a.control_messages, b.control_messages) << what;
  EXPECT_EQ(a.data_messages, b.data_messages) << what;
  EXPECT_EQ(a.control_dropped, b.control_dropped) << what;
  EXPECT_EQ(a.control_bytes, b.control_bytes) << what;
  EXPECT_EQ(a.data_bytes, b.data_bytes) << what;
  EXPECT_EQ(a.repairs_done, b.repairs_done) << what;
  EXPECT_EQ(a.last_repair_time, b.last_repair_time) << what;
  // The server's final matrix: identical curtain order AND identical
  // per-row column sets.
  const auto order_a = a.matrix.nodes_in_order();
  ASSERT_EQ(order_a, b.matrix.nodes_in_order()) << what;
  for (overlay::NodeId n : order_a) {
    const auto row_a = a.matrix.row(n);
    const auto row_b = b.matrix.row(n);
    EXPECT_TRUE(row_a.threads == row_b.threads.to_vector())
        << what << " node " << n;
    EXPECT_EQ(row_a.failed, row_b.failed) << what << " node " << n;
  }
  EXPECT_EQ(a.decoded_fraction(), b.decoded_fraction()) << what;
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size()) << what;
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].address, b.outcomes[i].address) << what;
    EXPECT_EQ(a.outcomes[i].joined, b.outcomes[i].joined) << what;
    EXPECT_EQ(a.outcomes[i].crashed, b.outcomes[i].crashed) << what;
    EXPECT_EQ(a.outcomes[i].departed, b.outcomes[i].departed) << what;
    EXPECT_EQ(a.outcomes[i].decoded, b.outcomes[i].decoded) << what;
    EXPECT_EQ(a.outcomes[i].join_latency, b.outcomes[i].join_latency) << what;
    EXPECT_EQ(a.outcomes[i].decode_time, b.outcomes[i].decode_time) << what;
    EXPECT_EQ(a.outcomes[i].join_retries, b.outcomes[i].join_retries) << what;
    EXPECT_EQ(a.outcomes[i].complaints, b.outcomes[i].complaints) << what;
  }
}

// N-shard == 1-shard, bit for bit, on the regression spec — including the
// crash (silence-complaint repair) and leave paths.
TEST(ShardedScenario, ReportInvariantAcrossShardCounts) {
  const auto spec = regression_spec(19);
  const auto baseline = node::run_scenario_sharded(spec, 1, 0);
  // The run must be a live protocol exchange, not a vacuous pass.
  EXPECT_GT(baseline.messages_sent, 0u);
  EXPECT_GT(baseline.data_messages, 0u);
  EXPECT_GT(baseline.decoded_fraction(), 0.0);
  EXPECT_EQ(baseline.outcomes.size(), 8u);
  for (std::uint32_t shards : {2u, 4u, 8u}) {
    const auto r = node::run_scenario_sharded(spec, shards, 0);
    expect_reports_equal(baseline, r,
                         (std::string("shards=") + std::to_string(shards)).c_str());
  }
}

// Worker threads change only the wall clock, never the report.
TEST(ShardedScenario, ReportInvariantAcrossWorkerCounts) {
  const auto spec = regression_spec(19);
  const auto baseline = node::run_scenario_sharded(spec, 4, 0);
  for (std::uint32_t workers : {1u, 2u}) {
    const auto r = node::run_scenario_sharded(spec, 4, workers);
    expect_reports_equal(
        baseline, r,
        (std::string("workers=") + std::to_string(workers)).c_str());
  }
}

// A second seed, exercised the same way (regression seeds, plural).
TEST(ShardedScenario, ReportInvariantOnSecondSeed) {
  const auto spec = regression_spec(7);
  const auto baseline = node::run_scenario_sharded(spec, 1, 0);
  const auto sharded = node::run_scenario_sharded(spec, 8, 2);
  expect_reports_equal(baseline, sharded, "seed=7 shards=8 workers=2");
}

// The sharded runner is itself reproducible run over run (no hidden state
// leaks between engines or transports).
TEST(ShardedScenario, RepeatRunsReproduce) {
  const auto spec = regression_spec(19);
  const auto a = node::run_scenario_sharded(spec, 4, 2);
  const auto b = node::run_scenario_sharded(spec, 4, 2);
  expect_reports_equal(a, b, "repeat");
}

// Structured streams ride the same determinism contract: the regression
// spec with a banded (w = g/8, wrapping) and an overlapped structure must
// produce shard- and worker-invariant reports too. The banded data plane
// mixes v2 strips (server-direct) with densified v1 relay rows, so this
// also pins the mixed-framing byte accounting (data_bytes) across lanes.
TEST(ShardedScenario, StructuredReportsInvariantAcrossShardsAndWorkers) {
  auto banded = regression_spec(19);
  banded.generation_size = 16;
  banded.structure = coding::StructureSpec::banded(2, true);  // w = g/8
  auto overlapped = regression_spec(19);
  overlapped.generation_size = 16;
  overlapped.structure = coding::StructureSpec::overlapping(6, 2);

  const struct {
    const char* name;
    const node::ProtocolScenarioSpec* spec;
  } lanes[] = {{"banded", &banded}, {"overlapped", &overlapped}};
  for (const auto& lane : lanes) {
    const auto baseline = node::run_scenario_sharded(*lane.spec, 1, 0);
    EXPECT_GT(baseline.data_messages, 0u) << lane.name;
    EXPECT_GT(baseline.data_bytes, 0u) << lane.name;
    for (std::uint32_t shards : {4u, 8u}) {
      const auto r = node::run_scenario_sharded(*lane.spec, shards, 2);
      expect_reports_equal(
          baseline, r,
          (std::string(lane.name) + " shards=" + std::to_string(shards))
              .c_str());
    }
  }
}

}  // namespace
}  // namespace ncast
