// Sharded kernel tests: the determinism contract of sim/sharded_engine.hpp.
// The three rules under test: (1) events execute in (time, lane, lane_seq)
// order; (2) same-lane schedules are immediate and cancellable while
// cross-lane posts merge at the barrier in (at, src_lane, src_emit_seq)
// order; (3) conservative windows clamp intra-window cross-lane posts —
// identically at every shard count. The headline property: a synthetic
// workload's full per-lane execution log is bit-identical across shard
// counts {1, 2, 4, 8} and worker counts {0, 2, 3}.
//
// The ShardedEngineOneLane cases pin the sequential contract the
// packet-level scenario runner and the churn executor rely on: on lane 0 of
// a one-shard engine, events fire in (time, scheduling order) FIFO, handlers
// may schedule and cancel at the current instant, and one in 64 handlers is
// wall-timed into its TimerClass histogram. The RngStreams cases cover the
// per-run stream splitter declared next to the Scheduler surface.

#include "sim/sharded_engine.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <iterator>
#include <functional>
#include <stdexcept>
#include <tuple>
#include <utility>
#include <vector>

#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ncast {
namespace {

using sim::LaneId;
using sim::Scheduler;
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

TEST(ShardedEngine, EmptyCallbacksAreRefused) {
  // An empty slab slot marks a cancelled event, so an empty callback could
  // never run and `pending` would count it forever.
  ShardedEngine e(2, 0, 0.5);
  EXPECT_THROW(e.schedule_on(0, 1.0, ShardedEngine::Callback{}),
               std::invalid_argument);
  int refused = 0;
  e.schedule_on(0, 1.0, [&] {
    for (const LaneId lane : {LaneId{0}, LaneId{1}}) {  // same- and cross-lane
      try {
        e.schedule_on(lane, 2.0, ShardedEngine::Callback{});
      } catch (const std::invalid_argument&) {
        ++refused;
      }
    }
  });
  EXPECT_EQ(e.pending(), 1u);
  EXPECT_EQ(e.run_until(5.0), 1u);
  EXPECT_EQ(refused, 2);
  EXPECT_EQ(e.pending(), 0u);
}

TEST(ShardedEngine, CountsCallbacksBoxedOnTheHeap) {
  // A capture past the inline buffer, or one whose move may throw, still
  // runs, but through a heap box; the engine counts each such event where
  // it takes a slot (a cross-lane post at the barrier).
  struct Fat {
    unsigned char pad[sim::kCallbackInlineBytes + 8] = {};
  };
  struct ThrowingMove {
    ThrowingMove() = default;
    ThrowingMove(const ThrowingMove&) = default;
    ThrowingMove(ThrowingMove&&) {}  // NOLINT: deliberately not noexcept
  };
  const Fat fat;
  ThrowingMove throwing;  // a const capture would move by (nothrow) copy
  EXPECT_FALSE(ShardedEngine::Callback([] {}).on_heap());
  EXPECT_TRUE(ShardedEngine::Callback([fat] { (void)fat; }).on_heap());
  EXPECT_TRUE(
      ShardedEngine::Callback([throwing] { (void)throwing; }).on_heap());

  auto& ctr = obs::metrics().counter("engine.callback_heap_boxes");
  const auto before = ctr.value();
  ShardedEngine e(2, 0, 0.5);
  int fired = 0;
  e.schedule_on(0, 1.0, [&fired] { ++fired; });
  e.schedule_on(0, 1.0, [&fired, fat] { fired += 1 + fat.pad[0]; });
  e.schedule_on(0, 1.0, [&e, &fired, &fat, throwing] {
    (void)throwing;
    ++fired;
    e.schedule_on(1, 2.0, [&fired, fat] { fired += 1 + fat.pad[0]; });
  });
  EXPECT_EQ(e.callback_heap_boxes(), 2u);
  e.run_until(5.0);
  EXPECT_EQ(fired, 4);
  EXPECT_EQ(e.callback_heap_boxes(), 3u);
#if NCAST_OBS_ENABLED
  EXPECT_EQ(ctr.value(), before + 3);
#else
  EXPECT_EQ(ctr.value(), before);
#endif
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
// emit_seq) — not by shard execution order. Enough posts tie on
// (at, src_lane) that std::sort partitions them, so a merge key without
// emit_seq would scramble each source's posts.
TEST(ShardedEngine, BarrierMergeOrdersBySourceLaneThenEmitSeq) {
  constexpr int kPosts = 20;
  std::vector<int> want;
  for (int src = 1; src <= 3; ++src) {
    for (int k = 0; k < kPosts; ++k) want.push_back(src * 100 + k);
  }
  for (std::uint32_t shards : {1u, 4u}) {
    ShardedEngine e(shards, 0, 1.0);
    std::vector<int> order;
    // Schedule emitters in descending lane order; all post to lane 0 with
    // the same in-window arrival, so all clamp to t = 1.0.
    for (int src = 3; src >= 1; --src) {
      e.schedule_on(static_cast<LaneId>(src), 0.5, [&e, &order, src] {
        for (int k = 0; k < kPosts; ++k) {
          e.schedule_on(0, 0.6,
                        [&order, src, k] { order.push_back(src * 100 + k); });
        }
      });
    }
    e.run_until(3.0);
    EXPECT_EQ(order, want) << "shards=" << shards;
  }
}

// The calendar queue's paths (sim/sharded_engine.hpp): an event waits in
// `near`, in a ring cell or in `far`, and this workload sends events through
// each. Delays past the 1024-cell ring fill `far`, events far apart make the
// ring's span restart several times, and times fall exactly on cell
// boundaries and at or beyond 1e18 epochs; lanes cancel events waiting in
// each place (and stale handles); same-lane posts land inside the open window
// and cross-lane posts go through the barrier; horizons are fractional and
// repeated; set-up schedules land below a distant cell that the previous
// run's last peek opened; and self-rescheduling chains, each step further
// ahead than the ring spans, run past events that wait in `far` all along.
// The digest hashes every lane's log (each event run, each cancel's result)
// with the executed and pending counts after every run.
class CalendarWorkload {
 public:
  static constexpr LaneId kLanes = 64;
  static constexpr double kEpoch = 0.25;
  /// 1e18 epochs: this time and every later one share the calendar's last
  /// cell. A window's end is absorbed by rounding out there, so only a run
  /// whose horizon is exactly kBig can execute it.
  static constexpr double kBig = 2.5e17;

  CalendarWorkload(ShardedEngine& engine, std::uint64_t seed)
      : e_(engine), setup_(seed), lanes_(kLanes) {
    for (LaneId l = 0; l < kLanes; ++l) lanes_[l].rng = Rng(seed * 1000 + l);
  }

  std::uint64_t digest() {
    e_.reserve_lanes(kLanes);
    for (LaneId l = 0; l < kLanes; ++l) {
      // On a cell boundary, and anywhere up to 8000 cells out.
      const double boundary = kEpoch * static_cast<double>(setup_.below(8000));
      keep(l, e_.schedule_on(l, boundary, step(l)));
      keep(l, e_.schedule_on(l, 2000.0 * setup_.uniform(), step(l)));
      keep(l, e_.schedule_on(l, 9000.0 + 500.0 * setup_.uniform(), note(l, 1)));
      // Over a million cells ahead and apart: they wait in `far` through
      // many restarts of the ring's span.
      keep(l, e_.schedule_on(l, 3e5 + 1000.0 * setup_.uniform(), note(l, 6)));
      keep(l, e_.schedule_on(l, 6e5 + 1000.0 * setup_.uniform(), note(l, 7)));
      keep(l, e_.schedule_on(l, kBig, note(l, 2)));
      keep(l, e_.schedule_on(l, 2.0 * kBig, note(l, 3)));
    }
    for (const double horizon : {10.0, 10.0, 10.25, 600.0, 700.0, 3000.0}) {
      run(horizon);
      cancel_between_runs();
    }
    // Every event left waits at 9000 or later, so the last peek opened a
    // distant cell; these go to `near` below it.
    for (LaneId l = 0; l < kLanes; ++l) {
      keep(l, e_.schedule_on(l, 3000.0 + 6000.0 * setup_.uniform(),
                             note(l, 4)));
      keep(l, e_.schedule_on(l, kEpoch * (12001 + setup_.below(20000)),
                             note(l, 5)));
    }
    // Chains whose steps land past the ring's span, from below the open cell
    // to past the events at 6e5: the notes at 3e5 and 6e5 on these lanes must
    // run between the chain's steps, not after its end.
    for (LaneId l = 0; l < kLanes; l += 8) {
      keep(l, e_.schedule_on(l, 3000.0 + 100.0 * setup_.uniform(), chain(l)));
    }
    run(1e9);
    run(kBig);

    std::uint64_t h = 0xcbf29ce484222325ULL;
    const auto mix = [&h](std::uint64_t v) {
      h ^= v;
      h *= 0x100000001b3ULL;
    };
    for (const Lane& lane : lanes_) {
      mix(lane.log.size());
      for (const auto& [t, v] : lane.log) {
        mix(std::bit_cast<std::uint64_t>(t));
        mix(static_cast<std::uint64_t>(v));
      }
    }
    for (const std::uint64_t c : counts_) mix(c);
    return h;
  }

  /// Events run, cancels that hit, and events still pending at the end.
  std::uint64_t executed() const { return executed_; }
  std::uint64_t cancelled() const { return cancelled_; }
  std::size_t pending() const { return e_.pending(); }

 private:
  struct Lane {
    Rng rng;
    std::vector<TimerHandle> handles;
    std::vector<std::pair<double, std::int64_t>> log;
    int steps = 0;
  };

  ShardedEngine::Callback step(LaneId lane) {
    return [this, lane] { fire(lane); };
  }
  ShardedEngine::Callback note(LaneId lane, std::int64_t tag) {
    return [this, lane, tag] { lanes_[lane].log.emplace_back(e_.now(), tag); };
  }
  /// Logs a step and schedules the next one 1200 to 1300 cells ahead.
  ShardedEngine::Callback chain(LaneId lane) {
    return [this, lane] {
      const double now = e_.now();
      lanes_[lane].log.emplace_back(now, 8);
      if (now < 6.1e5) {
        const double at = now + 300.0 + 25.0 * lanes_[lane].rng.uniform();
        e_.schedule_on(lane, at, chain(lane));
      }
    };
  }
  void keep(LaneId lane, TimerHandle h) { lanes_[lane].handles.push_back(h); }

  void run(double horizon) {
    const std::size_t ran = e_.run_until(horizon);
    executed_ += ran;
    counts_.push_back(ran);
    counts_.push_back(e_.pending());
  }

  // Between runs any lane's handle may be cancelled from outside.
  void cancel_between_runs() {
    for (LaneId l = 0; l < kLanes; l += 5) {
      Lane& lane = lanes_[l];
      const bool hit =
          e_.cancel(lane.handles[setup_.below(lane.handles.size())]);
      cancelled_ += hit ? 1 : 0;
      counts_.push_back(hit ? 1 : 0);
    }
  }

  void fire(LaneId lane) {
    Lane& st = lanes_[lane];
    const double now = e_.now();
    st.log.emplace_back(now, 0);
    if (++st.steps > 40 || now >= 2000.0) return;
    Rng& r = st.rng;
    for (int n = 1 + static_cast<int>(r.below(2)); n > 0; --n) {
      double at = now;
      switch (r.below(4)) {
        case 0:  // often inside the open cell
          at += 0.2 * r.uniform();
          break;
        case 1:  // exactly on a later cell boundary
          at = kEpoch * (std::floor(now / kEpoch) + 1.0 +
                         static_cast<double>(r.below(8)));
          break;
        case 2:  // within a ring's span
          at += 256.0 * r.uniform();
          break;
        default:  // past the ring's span
          at += 256.0 + 400.0 * r.uniform();
          break;
      }
      st.handles.push_back(e_.schedule_on(lane, at, step(lane)));
    }
    if (r.chance(0.3)) {
      const auto dest = static_cast<LaneId>(r.below(kLanes));
      // A tenth of an epoch clamps to the window's end; the rest is on time.
      const double at = now + (r.chance(0.5) ? 0.1 : 1.0 + 300.0 * r.uniform());
      e_.schedule_on(dest, at, note(dest, 1000 * (lane + 1) + st.steps));
    }
    if (r.chance(0.3)) {
      const bool hit = e_.cancel(st.handles[r.below(st.handles.size())]);
      st.log.emplace_back(now, hit ? -1 : -2);
    }
  }

  ShardedEngine& e_;
  Rng setup_;
  std::vector<Lane> lanes_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t executed_ = 0;
  std::uint64_t cancelled_ = 0;
};

// Each seed's digest is the same at every (shards, workers) pair, and equal
// to the one recorded from the binary-heap engine the calendar replaced.
TEST(ShardedEngine, CalendarPathsKeepTheReferenceOrder) {
  // With epoch 1, A waits a million cells ahead and B at cell 5120; B then
  // schedules C three ring spans past A. A must still run before C.
  for (std::uint32_t workers : {0u, 1u}) {
    ShardedEngine e(1, workers, 1.0);
    std::vector<std::pair<char, double>> order;
    const auto log = [&e, &order](char name) {
      return [&e, &order, name] { order.emplace_back(name, e.now()); };
    };
    e.schedule_on(0, 1024.0 * 1024.0, log('A'));
    e.schedule_on(0, 5120.0, [&e, &order, log] {
      order.emplace_back('B', e.now());
      e.schedule_on(0, 1027.0 * 1024.0, log('C'));
    });
    EXPECT_EQ(e.run_until(2e6), 3u);
    const std::vector<std::pair<char, double>> want = {
        {'B', 5120.0}, {'A', 1024.0 * 1024.0}, {'C', 1027.0 * 1024.0}};
    EXPECT_EQ(order, want) << "workers=" << workers;
  }
  const std::uint64_t want[] = {
      2940490674186177983ULL, 9348163375659173452ULL,  3252648960285750123ULL,
      766919784410134971ULL,  1065982628241086918ULL,  2337511365427565826ULL,
      8224651536523512198ULL, 13273759025162076057ULL};
  const std::pair<std::uint32_t, std::uint32_t> configs[] = {
      {1, 0}, {3, 1}, {4, 0}, {4, 2}};
  for (std::uint64_t seed = 1; seed <= std::size(want); ++seed) {
    for (const auto& [shards, workers] : configs) {
      ShardedEngine e(shards, workers, CalendarWorkload::kEpoch);
      CalendarWorkload w(e, seed);
      EXPECT_EQ(w.digest(), want[seed - 1])
          << "seed " << seed << " shards=" << shards << " workers=" << workers;
      // The lanes did cancel, and the events at 2 * kBig are still pending.
      EXPECT_GT(w.cancelled(), 0u) << "seed " << seed;
      EXPECT_GT(w.executed(), 3000u) << "seed " << seed;
      EXPECT_GT(w.pending(), 0u) << "seed " << seed;
    }
  }
}

TEST(ShardedEngineOneLane, RunsInTimeOrder) {
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  std::vector<int> order;
  e.schedule_at(3.0, [&] { order.push_back(3); });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  e.schedule_at(2.0, [&] { order.push_back(2); });
  k.run_until(10.0);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_DOUBLE_EQ(e.now(), 10.0);
}

TEST(ShardedEngineOneLane, TiesFireInSchedulingOrder) {
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(1.0, [&order, i] { order.push_back(i); });
  }
  k.run_until(2.0);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(ShardedEngineOneLane, HorizonExcludesLaterEvents) {
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  int fired = 0;
  e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(5.0, [&] { ++fired; });
  EXPECT_EQ(k.run_until(2.0), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(k.pending(), 1u);
  EXPECT_EQ(k.run_until(10.0), 1u);
  EXPECT_EQ(fired, 2);
}

TEST(ShardedEngineOneLane, EventsCanScheduleEvents) {
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  int chain = 0;
  std::function<void()> tick = [&] {
    ++chain;
    if (chain < 5) e.schedule_in(1.0, tick);
  };
  e.schedule_at(0.0, tick);
  k.run_until(100.0);
  EXPECT_EQ(chain, 5);
  EXPECT_DOUBLE_EQ(e.now(), 100.0);
}

TEST(ShardedEngineOneLane, NowAdvancesToEventTime) {
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  double seen = -1.0;
  e.schedule_at(4.5, [&] { seen = e.now(); });
  k.run_until(9.0);
  EXPECT_DOUBLE_EQ(seen, 4.5);
}

TEST(ShardedEngineOneLane, SchedulingInPastThrows) {
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  e.schedule_at(5.0, [] {});
  k.run_until(5.0);
  EXPECT_THROW(e.schedule_at(4.0, [] {}), std::invalid_argument);
}

// Regression for the hot-loop move-out: the running callback has left its
// slab slot before invocation, so a callback that schedules many new events
// (growing the slab and reordering the queue) must not corrupt itself or
// the queue.
TEST(ShardedEngineOneLane, CallbackSchedulingManyEventsSurvivesMoveOut) {
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  std::vector<double> fired;
  e.schedule_at(1.0, [&] {
    fired.push_back(e.now());
    for (int i = 0; i < 100; ++i) {
      const double at = 2.0 + static_cast<double>(i % 7) + i * 1e-3;
      e.schedule_at(at, [&] { fired.push_back(e.now()); });
    }
  });
  k.run_until(20.0);
  ASSERT_EQ(fired.size(), 101u);
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_LE(fired[i - 1], fired[i]);
  }
}

TEST(ShardedEngineOneLane, CountsExecutedEventsInRegistry) {
  auto& ctr = obs::metrics().counter("engine.shard_events_executed");
  const auto before = ctr.value();
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  for (int i = 0; i < 5; ++i) e.schedule_at(1.0 + i, [] {});
  k.run_until(10.0);
#if NCAST_OBS_ENABLED
  EXPECT_EQ(ctr.value(), before + 5);
#else
  EXPECT_EQ(ctr.value(), before);
#endif
}

TEST(ShardedEngineOneLane, ScheduleInUsesCurrentTime) {
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  double fired_at = -1.0;
  e.schedule_at(3.0, [&] {
    e.schedule_in(2.0, [&] { fired_at = e.now(); });
  });
  k.run_until(10.0);
  EXPECT_DOUBLE_EQ(fired_at, 5.0);
}

TEST(ShardedEngineOneLane, CancelledEventNeverFires) {
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  int fired = 0;
  const auto h = e.schedule_at(1.0, [&] { ++fired; });
  e.schedule_at(2.0, [&] { ++fired; });
  EXPECT_EQ(k.pending(), 2u);
  EXPECT_TRUE(e.cancel(h));
  EXPECT_EQ(k.pending(), 1u);
  // Cancelled events are not counted as executed.
  EXPECT_EQ(k.run_until(10.0), 1u);
  EXPECT_EQ(fired, 1);
}

TEST(ShardedEngineOneLane, CancelAfterFiringReturnsFalse) {
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  const auto h = e.schedule_at(1.0, [] {});
  k.run_until(2.0);
  EXPECT_FALSE(e.cancel(h));
}

TEST(ShardedEngineOneLane, DoubleCancelReturnsFalse) {
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  const auto h = e.schedule_at(1.0, [] {});
  EXPECT_TRUE(e.cancel(h));
  EXPECT_FALSE(e.cancel(h));
  EXPECT_FALSE(e.cancel(TimerHandle{}));  // invalid handle
  k.run_until(2.0);
}

TEST(ShardedEngineOneLane, CancelFromEarlierEventAtSameTime) {
  // An event may revoke another event scheduled for the very same instant,
  // as long as it was scheduled later in FIFO order (e.g. a crash at time t
  // revoking a send at time t).
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  int fired = 0;
  TimerHandle victim;
  e.schedule_at(1.0, [&] { EXPECT_TRUE(e.cancel(victim)); });
  victim = e.schedule_at(1.0, [&] { ++fired; });
  EXPECT_EQ(k.run_until(5.0), 1u);
  EXPECT_EQ(fired, 0);
}

TEST(ShardedEngineOneLane, CallbackCanScheduleAtNow) {
  // Re-entrancy: a callback scheduling at the current instant (zero delay)
  // runs within the same run_until, after all earlier same-time events.
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  std::vector<int> order;
  e.schedule_at(1.0, [&] {
    order.push_back(0);
    e.schedule_in(0.0, [&] { order.push_back(2); });
  });
  e.schedule_at(1.0, [&] { order.push_back(1); });
  EXPECT_EQ(k.run_until(1.0), 3u);
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
  EXPECT_DOUBLE_EQ(e.now(), 1.0);
}

// Sampled handler profiling: one in 64 events a shard executes lands in its
// TimerClass histogram, and none does with observability compiled out.
TEST(ShardedEngineOneLane, SamplesOneHandlerInSixtyFourPerClass) {
  auto& hist = obs::metrics().histogram("engine.handler_repair_ns");
  const auto before = hist.count();
  ShardedEngine k(1, 0, 1.0);
  Scheduler& e = k.lane(0);
  for (int i = 0; i < 128; ++i) {
    e.schedule_at(1.0 + 0.01 * i, [] {}, sim::TimerClass::kRepair);
  }
  EXPECT_EQ(k.run_until(10.0), 128u);
#if NCAST_OBS_ENABLED
  EXPECT_EQ(hist.count(), before + 2);
#else
  EXPECT_EQ(hist.count(), before);
#endif
}

TEST(RngStreams, SameSeedSameTagReproduces) {
  sim::RngStreams a(42), b(42);
  Rng ra = a.stream("loss");
  Rng rb = b.stream("loss");
  for (int i = 0; i < 16; ++i) EXPECT_EQ(ra(), rb());
}

TEST(RngStreams, DistinctTagsDecorrelate) {
  sim::RngStreams s(42);
  Rng a = s.stream(std::uint64_t{0});
  Rng b = s.stream(std::uint64_t{1});
  Rng c = s.stream("churn");
  bool all_equal_ab = true, all_equal_ac = true;
  for (int i = 0; i < 16; ++i) {
    const auto va = a(), vb = b(), vc = c();
    all_equal_ab = all_equal_ab && va == vb;
    all_equal_ac = all_equal_ac && va == vc;
  }
  EXPECT_FALSE(all_equal_ab);
  EXPECT_FALSE(all_equal_ac);
}

TEST(RngStreams, DistinctSeedsDiverge) {
  Rng a = sim::RngStreams(1).stream("x");
  Rng b = sim::RngStreams(2).stream("x");
  bool all_equal = true;
  for (int i = 0; i < 16; ++i) all_equal = all_equal && a() == b();
  EXPECT_FALSE(all_equal);
}

#if NCAST_OBS_ENABLED

// The trace clock belongs to the thread, not the engine. A run must not open
// its per-shard spans at the time an earlier run (of another engine) left
// behind, or a trace captured from the second run starts late and then
// jumps back.
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

// Each worker stamps its events with its own clock: on four shards and two
// workers, where the workers run lanes at different times of one window,
// every handler's event carries the time that handler ran at.
TEST(ShardedEngine, TraceStampsAreExactUnderWorkers) {
  obs::trace().clear();
  constexpr LaneId kLanes = 64;
  constexpr int kRounds = 100;
  ShardedEngine engine(4, 2, 1.0);
  for (LaneId lane = 0; lane < kLanes; ++lane) {
    for (int round = 0; round < kRounds; ++round) {
      engine.schedule_on(lane, round + 0.01 * lane, [&engine, lane] {
        obs::trace().emit(obs::TraceKind::kRankAdvance, lane,
                          std::bit_cast<std::uint64_t>(engine.now()));
      });
    }
  }
  engine.run_until(kRounds + 1.0);

  std::size_t checked = 0;
  for (const obs::TraceEvent& e : obs::trace().events_in_order()) {
    if (e.kind != obs::TraceKind::kRankAdvance) continue;
    ++checked;
    EXPECT_EQ(e.t, std::bit_cast<double>(e.a)) << "lane " << e.node;
  }
  EXPECT_EQ(checked, std::size_t{kLanes} * kRounds);
}

#endif  // NCAST_OBS_ENABLED

}  // namespace
}  // namespace ncast
