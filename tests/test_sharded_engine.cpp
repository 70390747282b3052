// Sharded kernel tests: the determinism contract of sim/sharded_engine.hpp.
// The three rules under test: (1) events execute in (time, lane, lane_seq)
// order; (2) same-lane schedules are immediate and cancellable while
// cross-lane posts merge at the barrier in (at, src_lane, src_emit_seq)
// order; (3) conservative windows clamp intra-window cross-lane posts —
// identically at every shard count. The headline property: a synthetic
// workload's full per-lane execution log is bit-identical across shard
// counts {1, 2, 4, 8} and worker counts {0, 2, 3}.

#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <tuple>
#include <vector>

namespace ncast {
namespace {

using sim::LaneId;
using sim::ShardedEngine;
using sim::TimerHandle;

TEST(ShardedEngine, ValidatesConstruction) {
  EXPECT_THROW(ShardedEngine(0), std::invalid_argument);
  EXPECT_THROW(ShardedEngine(1, 0, 0.0), std::invalid_argument);
  ShardedEngine e(4, 0, 0.5);
  EXPECT_EQ(e.shards(), 4u);
  EXPECT_EQ(e.workers(), 0u);
  EXPECT_EQ(e.shard_of(5), 1u);
}

TEST(ShardedEngine, RunsInTimeLaneSeqOrder) {
  ShardedEngine e(1, 0, 1.0);
  std::vector<int> order;
  // Distinct times run in time order regardless of scheduling order.
  e.schedule_on(0, 3.0, [&] { order.push_back(3); });
  e.schedule_on(0, 1.0, [&] { order.push_back(1); });
  e.schedule_on(0, 2.0, [&] { order.push_back(2); });
  // Equal times: lane breaks the tie, then per-lane scheduling order.
  e.schedule_on(2, 5.0, [&] { order.push_back(52); });
  e.schedule_on(1, 5.0, [&] { order.push_back(51); });
  e.schedule_on(1, 5.0, [&] { order.push_back(510); });
  EXPECT_EQ(e.run_until(10.0), 6u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 51, 510, 52}));
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(ShardedEngine, HorizonIsInclusiveAndLaterEventsStayPending) {
  ShardedEngine e(2, 0, 0.5);
  int fired = 0;
  e.schedule_on(0, 1.0, [&] { ++fired; });
  e.schedule_on(1, 2.0, [&] { ++fired; });  // exactly at the horizon: fires
  e.schedule_on(0, 5.0, [&] { ++fired; });
  EXPECT_EQ(e.run_until(2.0), 2u);
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run_until(10.0), 1u);
  EXPECT_EQ(fired, 3);
}

TEST(ShardedEngine, SchedulingInThePastThrows) {
  ShardedEngine e(1, 0, 0.5);
  e.schedule_on(0, 1.0, [] {});
  e.run_until(4.0);
  EXPECT_THROW(e.schedule_on(0, 3.0, [] {}), std::invalid_argument);
  try {
    e.schedule_on(0, 1.0, [] {});
    FAIL() << "expected throw";
  } catch (const std::invalid_argument& ex) {
    EXPECT_STREQ(ex.what(), "ShardedEngine: scheduling in the past");
  }
}

TEST(ShardedEngine, SameLaneSchedulingIsImmediateAndCancellable) {
  ShardedEngine e(2, 0, 0.5);
  std::vector<int> order;
  TimerHandle victim;
  e.schedule_on(3, 1.0, [&] {
    // Same-lane schedules land immediately with consecutive lane_seqs...
    e.schedule_on(3, 2.0, [&] { order.push_back(1); });
    victim = e.schedule_on(3, 2.0, [&] { order.push_back(99); });
    e.schedule_on(3, 2.0, [&] { order.push_back(2); });
    EXPECT_TRUE(victim.valid());  // ...and are cancellable (lane-local).
  });
  e.schedule_on(3, 1.5, [&] { EXPECT_TRUE(e.cancel(victim)); });
  e.run_until(5.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_FALSE(e.cancel(victim));  // second cancel is a no-op
}

TEST(ShardedEngine, CrossLanePostsAreNotCancellable) {
  ShardedEngine e(2, 0, 0.5);
  int fired = 0;
  TimerHandle h;
  e.schedule_on(0, 1.0, [&] {
    h = e.schedule_on(1, 3.0, [&] { ++fired; });  // lane 0 -> lane 1
    EXPECT_FALSE(h.valid());
  });
  e.run_until(5.0);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedEngine, LaneSchedulerAdaptsTheSchedulerInterface) {
  ShardedEngine e(4, 0, 0.5);
  sim::Scheduler& lane = e.lane(7);
  std::vector<double> at;
  lane.schedule_at(1.0, [&] {
    at.push_back(lane.now());
    lane.schedule_in(0.5, [&] { at.push_back(lane.now()); });
  });
  TimerHandle h = lane.schedule_at(2.0, [&] { at.push_back(-1.0); });
  EXPECT_TRUE(lane.cancel(h));
  e.run_until(10.0);
  EXPECT_EQ(at, (std::vector<double>{1.0, 1.5}));
}

// Rule 3: a cross-lane post whose arrival falls inside the emitting window
// is clamped to the window end — at EVERY shard count, so S=1 cannot
// deliver earlier than S=8 would.
TEST(ShardedEngine, IntraWindowCrossLanePostsClampIdenticallyAtAnyShardCount) {
  std::vector<double> arrivals;
  std::uint64_t clamped = 0;
  for (std::uint32_t shards : {1u, 2u, 4u}) {
    ShardedEngine e(shards, 0, 1.0);
    std::vector<double> got;
    e.schedule_on(0, 0.25, [&] {
      // Arrival 0.35 is inside the emitting window [0, 1): clamp to 1.0.
      e.schedule_on(1, 0.35, [&] { got.push_back(e.now()); });
      // Arrival 1.75 is past the window end: delivered on time.
      e.schedule_on(1, 1.75, [&] { got.push_back(e.now()); });
    });
    e.run_until(5.0);
    EXPECT_EQ(e.clamped_posts(), 1u) << "shards=" << shards;
    if (arrivals.empty()) {
      arrivals = got;
      clamped = e.clamped_posts();
      EXPECT_EQ(arrivals, (std::vector<double>{1.0, 1.75}));
    } else {
      EXPECT_EQ(got, arrivals) << "shards=" << shards;
      EXPECT_EQ(e.clamped_posts(), clamped) << "shards=" << shards;
    }
  }
}

TEST(ShardedEngine, CountsCrossShardHandoffsAndEpochs) {
  ShardedEngine e(2, 0, 0.5);
  int fired = 0;
  e.schedule_on(0, 0.1, [&] {
    e.schedule_on(1, 2.0, [&] { ++fired; });  // shard 0 -> shard 1
  });
  e.run_until(5.0);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(e.cross_shard_handoffs(), 1u);
  EXPECT_GE(e.epochs_run(), 2u);
  EXPECT_EQ(e.lifetime_executed(), 2u);
}

// The synthetic determinism workload. Every lane runs a chain of
// self-rescheduled steps with lane-dependent (but deterministic) delays;
// every third step posts a tagged message to another lane. Each lane logs
// (time, src_lane, value) for everything it executes — per-lane vectors,
// owner-lane writes only. The concatenated per-lane logs are the digest.
struct Workload {
  explicit Workload(ShardedEngine& engine, int lanes, int steps)
      : e(engine), lanes_n(lanes), steps_n(steps), logs(lanes) {}

  void start() {
    for (int l = 0; l < lanes_n; ++l) {
      const int lane = l;
      e.schedule_on(static_cast<LaneId>(lane), 0.1 * (lane + 1),
                    [this, lane] { fire(lane, 0); });
    }
  }

  void fire(int lane, int step) {
    logs[lane].emplace_back(e.now(), lane, step);
    if (step % 3 == 0) {
      const int dest = (lane + 3) % lanes_n;
      const int tag = lane * 1000 + step;
      // Delay >= 1.0 > epoch: never clamped, always a barrier merge.
      e.schedule_on(static_cast<LaneId>(dest), e.now() + 1.0 + 0.05 * lane,
                    [this, dest, tag] {
                      logs[dest].emplace_back(e.now(), -1, tag);
                    });
    }
    if (step + 1 < steps_n) {
      const double delta = 0.3 + 0.1 * ((lane * 7 + step * 13) % 5);
      e.schedule_on(static_cast<LaneId>(lane), e.now() + delta,
                    [this, lane, step] { fire(lane, step + 1); });
    }
  }

  ShardedEngine& e;
  int lanes_n;
  int steps_n;
  std::vector<std::vector<std::tuple<double, int, int>>> logs;
};

// The headline contract: the complete execution history is a pure function
// of the workload — independent of shard count and worker-thread count.
TEST(ShardedEngine, WorkloadIsInvariantAcrossShardAndWorkerCounts) {
  constexpr int kLanes = 10;
  constexpr int kSteps = 25;

  std::vector<std::vector<std::tuple<double, int, int>>> baseline;
  std::size_t baseline_events = 0;
  for (std::uint32_t shards : {1u, 2u, 4u, 8u}) {
    for (std::uint32_t workers : {0u, 2u, 3u}) {
      ShardedEngine e(shards, workers, 0.25);
      e.reserve_lanes(kLanes);
      Workload w(e, kLanes, kSteps);
      w.start();
      const std::size_t events = e.run_until(100.0);
      if (baseline.empty()) {
        baseline = w.logs;
        baseline_events = events;
        // Sanity: every lane ran its full chain plus received posts.
        for (const auto& log : w.logs) EXPECT_GE(log.size(), 25u);
      } else {
        EXPECT_EQ(w.logs, baseline)
            << "shards=" << shards << " workers=" << workers;
        EXPECT_EQ(events, baseline_events)
            << "shards=" << shards << " workers=" << workers;
      }
    }
  }
}

// Cross-lane ties: posts from different source lanes landing on one
// destination at the same clamped time must interleave by (src_lane,
// emit_seq) — not by shard execution order.
TEST(ShardedEngine, BarrierMergeOrdersBySourceLaneThenEmitSeq) {
  std::vector<int> baseline;
  for (std::uint32_t shards : {1u, 4u}) {
    ShardedEngine e(shards, 0, 1.0);
    std::vector<int> order;
    // Schedule emitters in descending lane order; all post to lane 0 with
    // the same in-window arrival, so all clamp to t = 1.0.
    for (int src = 3; src >= 1; --src) {
      e.schedule_on(static_cast<LaneId>(src), 0.5, [&e, &order, src] {
        e.schedule_on(0, 0.6, [&order, src] { order.push_back(src * 10); });
        e.schedule_on(0, 0.6, [&order, src] { order.push_back(src * 10 + 1); });
      });
    }
    e.run_until(3.0);
    if (baseline.empty()) {
      baseline = order;
      EXPECT_EQ(order, (std::vector<int>{10, 11, 20, 21, 30, 31}));
    } else {
      EXPECT_EQ(order, baseline) << "shards=" << shards;
    }
  }
}

#if NCAST_OBS_ENABLED

// The trace clock is process-wide. A run must not open its per-shard spans
// at the time an earlier run (of another engine) left behind, or a trace
// captured from the second run starts late and then jumps back.
TEST(ShardedEngine, RunStartsTheTraceClockAtItsOwnCursor) {
  {
    ShardedEngine first(1, 0, 1.0);
    first.schedule_on(0, 50.0, [] {});
    first.run_until(60.0);
  }
  obs::trace().clear();
  ShardedEngine second(1, 0, 1.0);
  second.schedule_on(0, 1.0, [] {
    obs::trace().emit(obs::TraceKind::kJoin, 1, 0, 0);
  });
  second.run_until(5.0);

  const auto events = obs::trace().events_in_order();
  ASSERT_FALSE(events.empty());
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_GE(events[i].t, events[i - 1].t) << "event " << i;
  }
}

#endif  // NCAST_OBS_ENABLED

}  // namespace
}  // namespace ncast
