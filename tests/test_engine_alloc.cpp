// Proof that the event-kernel hot loop is allocation-free in steady state:
// the sharded-kernel counterpart of test_codec_alloc.cpp. Global operator
// new/new[] are replaced with counting versions; once the callback slab,
// queue storage, and free lists reach their high-water marks, a
// schedule -> fire -> reschedule -> cancel cycle must not touch the heap.
// This enforces five contracts: InlineFunction (sim/inline_function.hpp)
// keeps small callbacks out of the heap entirely, the kernel
// (sim/sharded_engine.hpp) recycles slab slots instead of allocating per
// event and grows by nothing larger than a slab chunk, a message hop on the
// fabric (node/sharded_transport.hpp) fits its delivery closure in a slot,
// the packet-level scenario runner schedules its sends without allocating,
// so its allocation count does not grow with the horizon, and the server's
// membership calls read their links from the curtain's row records instead
// of building vectors.
//
// gtest assertions allocate, so the measured regions contain no
// EXPECT/ASSERT; deltas are checked after.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "node/message.hpp"
#include "node/sharded_transport.hpp"
#include "overlay/curtain_server.hpp"
#include "sim/inline_function.hpp"
#include "sim/scenario.hpp"
#include "sim/sharded_engine.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
std::atomic<std::size_t> g_largest_new{0};  ///< bytes, since last reset
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  std::size_t largest = g_largest_new.load(std::memory_order_relaxed);
  while (n > largest && !g_largest_new.compare_exchange_weak(
                            largest, n, std::memory_order_relaxed)) {
  }
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ncast {
namespace {

// A capture comfortably under kCallbackInlineBytes must stay inline; one
// past the cap must take the heap fallback exactly once.
TEST(EngineAllocFree, InlineFunctionSmallCapturesAreHeapFree) {
  int sink = 0;
  std::uint64_t before = g_news.load();
  {
    sim::InlineFunction<sim::kCallbackInlineBytes> f(
        [&sink] { sink = 7; });
    f();
  }
  EXPECT_EQ(g_news.load() - before, 0u);
  EXPECT_EQ(sink, 7);

  struct Big {
    unsigned char pad[sim::kCallbackInlineBytes + 8];
  };
  Big big{};
  big.pad[0] = 3;
  before = g_news.load();
  {
    sim::InlineFunction<sim::kCallbackInlineBytes> f(
        [big, &sink] { sink = big.pad[0]; });
    f();
  }
  EXPECT_EQ(g_news.load() - before, 1u);  // the fallback heap box, only
  EXPECT_EQ(sink, 3);
}

TEST(EngineAllocFree, OneLaneScheduleFireCancelSteadyState) {
  sim::ShardedEngine k(1, 0, 1.0);
  sim::Scheduler& e = k.lane(0);
  std::uint64_t fired = 0;
  // Warm-up: more concurrent timers than the measured loop ever holds, and
  // more than 64 events, so the sampled (wall-timed) handler branch has run
  // before the measured loop runs it again.
  for (int round = 0; round < 3; ++round) {
    std::vector<sim::TimerHandle> handles;
    for (int i = 0; i < 256; ++i) {
      handles.push_back(
          e.schedule_in(0.1 + 0.01 * i, [&fired] { ++fired; }));
    }
    for (int i = 0; i < 256; i += 2) e.cancel(handles[i]);
    k.run_until(e.now() + 100.0);
  }
  ASSERT_EQ(fired, 3u * 128u);

  const std::uint64_t before = g_news.load();
  for (int round = 0; round < 20; ++round) {
    // Steady state: schedule, cancel half, fire the rest, re-schedule from
    // inside handlers.
    sim::TimerHandle cancels[64];
    for (int i = 0; i < 64; ++i) {
      cancels[i] = e.schedule_in(0.2, [&fired] { ++fired; });
    }
    for (int i = 0; i < 64; i += 2) e.cancel(cancels[i]);
    for (int i = 0; i < 64; ++i) {
      e.schedule_in(0.1 + 0.01 * i, [&e, &fired] {
        ++fired;
        e.schedule_in(0.5, [&fired] { ++fired; });
      });
    }
    k.run_until(e.now() + 100.0);
  }
  const std::uint64_t delta = g_news.load() - before;
  EXPECT_EQ(delta, 0u);
  EXPECT_EQ(fired, 3u * 128u + 20u * (32u + 64u + 64u));
}

TEST(EngineAllocFree, ShardedEngineWindowLoopSteadyState) {
  sim::ShardedEngine e(2, 0, 0.5);  // inline execution: the measured path
  e.reserve_lanes(4);
  std::uint64_t fired = 0;
  // Warm-up: grow each shard's slab/queue, the outboxes, and the merge
  // scratch past the measured loop's high-water marks.
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 128; ++i) {
      const sim::LaneId lane = static_cast<sim::LaneId>(i % 4);
      e.schedule_on(lane, e.now() + 0.1 + 0.01 * i, [&e, &fired, lane] {
        ++fired;
        // Cross-lane post through the outbox + barrier merge.
        e.schedule_on((lane + 1) % 4, e.now() + 1.0, [&fired] { ++fired; });
      });
    }
    e.run_until(e.now() + 100.0);
  }
  ASSERT_EQ(fired, 3u * 256u);

  const std::uint64_t before = g_news.load();
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 64; ++i) {
      const sim::LaneId lane = static_cast<sim::LaneId>(i % 4);
      e.schedule_on(lane, e.now() + 0.1 + 0.01 * i, [&e, &fired, lane] {
        ++fired;
        e.schedule_on((lane + 1) % 4, e.now() + 1.0, [&fired] { ++fired; });
      });
    }
    e.run_until(e.now() + 100.0);
  }
  const std::uint64_t delta = g_news.load() - before;
  EXPECT_EQ(delta, 0u);
  EXPECT_EQ(fired, 3u * 256u + 20u * 128u);
}

// Set-up at scale: 300k events scheduled from outside a run, spread over
// 400 epochs on four shards like the 1M join wave, allocate nothing larger
// than one 112 KiB slab chunk. Each event waits in its slot, on its calendar
// cell's intrusive list, so no per-shard vector doubles to megabytes, and
// every block stays below glibc's default 128 KiB mmap threshold: a later
// engine reuses it from the heap instead of faulting in fresh pages.
TEST(EngineAllocFree, SetupSchedulesAllocateNoLargerThanASlabChunk) {
  constexpr std::uint32_t kLanes = 64;
  constexpr std::uint32_t kEvents = 300000;
  sim::ShardedEngine e(4, 0, 0.5);
  e.reserve_lanes(kLanes);
  std::uint64_t fired = 0;
  g_largest_new.store(0);
  for (std::uint32_t i = 0; i < kEvents; ++i) {
    e.schedule_on(i % kLanes, 200.0 * i / kEvents, [&fired] { ++fired; });
  }
  const std::size_t largest = g_largest_new.load();
  EXPECT_LE(largest, std::size_t{112} << 10);
  EXPECT_EQ(e.run_until(300.0), kEvents);
  EXPECT_EQ(fired, kEvents);
}

// One message hop: Transport::send, ShardedTransport::route, a cross-lane
// delivery post through the outbox and the barrier merge, arrive and
// on_message. Both endpoints sit on their own shard. Once warm, keepalives,
// haves and a control message without a body cross in both directions
// without touching the heap: the delivery closure (the transport and a
// Message by value) stays in the engine slot.
TEST(EngineAllocFree, TransportHopSteadyState) {
  sim::ShardedEngine engine(2, 0, 0.5);
  node::ShardedTransport net(engine, node::TransportSpec{}, 1, 2);
  struct Sink final : node::Endpoint {
    void on_message(const node::Message&) override { ++received; }
    std::uint64_t received = 0;
  };
  Sink sinks[2];
  net.attach(0, &sinks[0]);
  net.attach(1, &sinks[1]);
  auto exchange = [&] {
    for (const node::Address from : {node::Address{0}, node::Address{1}}) {
      engine.schedule_on(from, engine.now() + 0.1, [&net, from] {
        for (const node::MessageType type :
             {node::MessageType::kKeepalive, node::MessageType::kHave,
              node::MessageType::kComplaint}) {
          node::Message m;
          m.type = type;
          m.from = from;
          m.to = 1 - from;
          m.column = 3;
          m.subject = 1;
          net.send(std::move(m));
        }
      });
    }
    engine.run_until(engine.now() + 5.0);
  };
  for (int round = 0; round < 5; ++round) exchange();  // warm-up
  const std::uint64_t warm = sinks[0].received + sinks[1].received;
  ASSERT_EQ(warm, 5u * 6u);

  const std::uint64_t before = g_news.load();
  for (int round = 0; round < 20; ++round) exchange();
  const std::uint64_t delta = g_news.load() - before;
  EXPECT_EQ(delta, 0u);
  EXPECT_EQ(sinks[0].received + sinks[1].received, warm + 20u * 6u);
  EXPECT_EQ(engine.callback_heap_boxes(), 0u);
}

// The packet-level runner fires one send per link per period. Once a first
// run has registered the metrics, the same scenario at horizon H and at 2H
// must make exactly as many allocations: setup and report sizes do not
// depend on the horizon, so any per-send allocation shows up as a gap.
TEST(EngineAllocFree, ScenarioAllocationsDoNotGrowWithTheHorizon) {
  overlay::CurtainServer server(6, 2, Rng(3));
  for (int i = 0; i < 20; ++i) server.join();
  const overlay::ThreadMatrix m = server.matrix();
  sim::ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 4;
  spec.seed = 5;
  spec.link.latency = sim::LatencySpec::uniform(0.2, 1.2);

  std::uint64_t sent[2] = {0, 0};
  std::uint64_t allocations[2] = {0, 0};
  const double horizons[2] = {200.0, 400.0};
  sim::run_scenario(m, spec);  // warm-up
  for (int i = 0; i < 2; ++i) {
    spec.horizon = horizons[i];
    const std::uint64_t before = g_news.load();
    const sim::ScenarioReport report = sim::run_scenario(m, spec);
    allocations[i] = g_news.load() - before;
    sent[i] = report.packets_sent;
  }
  EXPECT_GT(sent[1], sent[0] + 1000);
  EXPECT_EQ(allocations[1], allocations[0]);
}

// A hello, a good-bye, a conviction and a repair on a warm curtain: the
// joiner's columns are drawn into a reused buffer and every link count is
// read from the row records, so none of the four calls allocates. The warm
// phase grows the curtain to 30k rows and shrinks it to 20k, so the roster
// and the block chunks have room for the measured churn, which never holds
// more than 20k + 1 rows.
TEST(EngineAllocFree, MembershipCallsSteadyState) {
  overlay::CurtainServer server(64, 3, Rng(29),
                                overlay::InsertPolicy::kRandomPosition);
  Rng pick(31);
  const auto any_row = [&] {
    return server.matrix().member(pick.below(server.matrix().row_count()));
  };
  for (int i = 0; i < 30000; ++i) server.join();
  for (int i = 0; i < 10000; ++i) server.leave(any_row());
  const overlay::NodeId convicted = any_row();
  server.report_failure(convicted);
  server.repair(convicted);

  std::uint64_t news[4] = {0, 0, 0, 0};  // join, leave, report, repair
  for (int i = 0; i < 20000; ++i) {
    std::uint64_t before = g_news.load();
    server.join();
    news[0] += g_news.load() - before;
    const overlay::NodeId leaving = any_row();
    before = g_news.load();
    server.leave(leaving);
    news[1] += g_news.load() - before;
    if (i % 2 == 0) continue;
    const overlay::NodeId failed = any_row();
    before = g_news.load();
    server.report_failure(failed);
    news[2] += g_news.load() - before;
    before = g_news.load();
    server.repair(failed);
    news[3] += g_news.load() - before;
  }
  EXPECT_EQ(news[0], 0u) << "joins";
  EXPECT_EQ(news[1], 0u) << "leaves";
  EXPECT_EQ(news[2], 0u) << "failure reports";
  EXPECT_EQ(news[3], 0u) << "repairs";
  EXPECT_EQ(server.stats().joins, 50000u);
  EXPECT_EQ(server.stats().repairs, 10001u);
  EXPECT_TRUE(server.matrix().check_invariants());
}

}  // namespace
}  // namespace ncast
