// `wave`: the control plane alone at a million clients. A join wave arrives
// over simulated time, Poisson churn (leaves and crashes) follows, and every
// crash is reported and repaired, all as cross-lane posts into the server
// lane of a ShardedEngine that calls CurtainServer directly. No codec and no
// endpoint runs. At 1M rows the curtain outgrows the last-level cache, so
// the cache-missing walks of join and splice are what this measures; a
// smaller wave would fit in cache and measure a different program.

#include <algorithm>
#include <chrono>
#include <optional>
#include <vector>

#include "layers.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "overlay/curtain_server.hpp"
#include "probe.hpp"
#include "sim/sharded_engine.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace ncbench {

namespace {

using namespace ncast;
using Clock = std::chrono::steady_clock;

constexpr std::uint32_t kClients = 1000000;
constexpr std::uint32_t kChurnOps = kClients / 20;
constexpr std::uint32_t kThreads = 64;  // k
constexpr std::uint32_t kDegree = 3;    // d
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kWorkers = 0;
constexpr double kJoinWindow = 200.0;   // the wave arrives over [0, 200)
constexpr double kChurnWindow = 100.0;  // churn runs over the next 100
constexpr double kLatency = 0.5;        // client -> server post delay
constexpr double kSilence = 1.0;        // crash -> failure report
constexpr double kRepairDelay = 2.0;    // failure report -> repair
constexpr double kEpoch = 0.5;          // == latency: no post ever clamps

struct ChurnOp {
  double at = 0.0;
  std::uint32_t client = 0;
  bool crash = false;
};

/// Times the enclosed CurtainServer call when tracing.
class MaybeSpan {
 public:
  MaybeSpan(bool on, Span s) {
    if (on) span_.emplace(s);
  }

 private:
  std::optional<ScopedSpan> span_;
};

/// Everything the server lane touches; one instance per repetition.
struct WaveState {
  WaveState(sim::ShardedEngine& e, std::uint64_t seed, bool t)
      : engine(e), rng(seed),
        server(kThreads, kDegree, rng, overlay::InsertPolicy::kRandomPosition),
        traced(t), node_of(kClients, overlay::kServerNode), gone(kClients, 0) {}

  void join(std::uint32_t i) {
    const MaybeSpan timed(traced, Span::kOverlayJoin);
    node_of[i] = server.join().node;
  }

  void churn(const ChurnOp& op) {
    if (gone[op.client] != 0) {
      ++skipped;  // the victim already left or crashed
      return;
    }
    gone[op.client] = 1;
    const overlay::NodeId node = node_of[op.client];
    if (!op.crash) {
      ++leaves;
      const MaybeSpan timed(traced, Span::kOverlayLeave);
      server.leave(node);
      return;
    }
    ++crashes;
    // Children complain one silence period later; the server tags the row,
    // then splices it out after the repair delay.
    engine.schedule_on(0, engine.now() + kSilence, [this, node] {
      {
        const MaybeSpan timed(traced, Span::kOverlayReportFailure);
        server.report_failure(node);
      }
      ++reports;
      engine.schedule_on(0, engine.now() + kRepairDelay, [this, node] {
        {
          const MaybeSpan timed(traced, Span::kOverlayRepair);
          server.repair(node);
        }
        ++repairs;
        last_repair_time = engine.now();
      });
    });
  }

  sim::ShardedEngine& engine;
  Rng rng;
  overlay::CurtainServer server;
  bool traced;
  std::vector<overlay::NodeId> node_of;  ///< server lane only
  std::vector<std::uint8_t> gone;        ///< server lane only
  std::uint64_t leaves = 0, crashes = 0, reports = 0, repairs = 0, skipped = 0;
  double last_repair_time = -1.0;
};

std::uint64_t matrix_hash(const overlay::ThreadMatrix& m) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 0x100000001b3ULL;
  };
  for (const overlay::NodeId n : m.nodes_in_order()) {
    const auto row = m.row(n);
    mix(n);
    mix(row.failed ? 1u : 0u);
    for (const overlay::ColumnId c : row.threads) mix(c);
  }
  return h & ((1ULL << 52) - 1);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

Rep run_wave(std::uint64_t seed, Mode mode) {
  const bool traced = mode == Mode::kTraced;
  obs::metrics().reset_values();
  reset_spans();
  const std::uint64_t trace_dropped_before = obs::trace().dropped_events();

  const auto setup_start = Clock::now();
  sim::ShardedEngine engine(kShards, kWorkers, kEpoch);
  engine.reserve_lanes(static_cast<std::size_t>(kClients) + 1);
  WaveState st(engine, seed, traced);

  // Join wave: client i's hello leaves its lane at a fixed offset and lands
  // on the server lane one latency later.
  for (std::uint32_t i = 0; i < kClients; ++i) {
    const double at = kJoinWindow * static_cast<double>(i) / kClients;
    engine.schedule_on(i + 1, at, [&engine, &st, i] {
      engine.schedule_on(0, engine.now() + kLatency, [&st, i] { st.join(i); });
    });
  }

  // Poisson churn drawn up front from the seed; victims are uniform over
  // the wave, and double kills are skipped when they execute.
  Rng churn_rng(seed ^ 0xC4BA9ULL);
  const double rate = static_cast<double>(kChurnOps) / kChurnWindow;
  double t = kJoinWindow + kLatency + 1.0;
  for (std::uint32_t c = 0; c < kChurnOps; ++c) {
    t += churn_rng.exponential(rate);
    ChurnOp op;
    op.at = t;
    op.client = static_cast<std::uint32_t>(churn_rng.below(kClients));
    op.crash = churn_rng.chance(0.5);
    engine.schedule_on(op.client + 1, op.at, [&engine, &st, op] {
      engine.schedule_on(0, engine.now() + kLatency, [&st, op] { st.churn(op); });
    });
  }
  const double horizon = kJoinWindow + kLatency + 1.0 + kChurnWindow + 20.0 +
                         kRepairDelay + 5.0;

  Rep rep;
  rep.run_threads = std::max<std::uint32_t>(1, kWorkers);
  rep.setup_s = seconds_since(setup_start);
  if (mode == Mode::kSetupOnly) return rep;
  const auto run_start = Clock::now();
  const std::size_t executed = engine.run_until(horizon);
  rep.run_s = seconds_since(run_start);

  const overlay::ThreadMatrix& m = st.server.matrix();
  const std::uint64_t joins = st.server.stats().joins;
  const std::uint64_t expected_rows = joins - st.leaves - st.repairs;
  const bool balanced = m.failed_count() == 0 && m.row_count() == expected_rows;
  const bool invariants = m.check_invariants();
  rep.attempted = joins + st.leaves + st.reports + st.repairs;
  rep.failed = (st.crashes - std::min(st.crashes, st.repairs)) +
               (kClients - std::min<std::uint64_t>(kClients, joins)) +
               (balanced ? 0 : 1) + (invariants ? 0 : 1);
  if (joins != kClients) {
    rep.errors.push_back("only " + std::to_string(joins) + " of " +
                         std::to_string(kClients) + " joins were admitted");
  }
  if (st.repairs != st.crashes) {
    rep.errors.push_back(std::to_string(st.crashes - st.repairs) +
                         " crashes were never repaired");
  }
  if (!balanced) {
    rep.errors.push_back("matrix does not balance: rows=" +
                         std::to_string(m.row_count()) + " expected=" +
                         std::to_string(expected_rows) + " failed=" +
                         std::to_string(m.failed_count()));
  }
  if (!invariants) rep.errors.push_back("matrix invariants do not hold");
  if (engine.clamped_posts() != 0) {
    rep.errors.push_back("sharded engine clamped " +
                         std::to_string(engine.clamped_posts()) + " posts");
  }

  rep.counts = {
      {"events", static_cast<double>(executed)},
      {"joins", static_cast<double>(joins)},
      {"leaves", static_cast<double>(st.leaves)},
      {"crashes", static_cast<double>(st.crashes)},
      {"repairs", static_cast<double>(st.repairs)},
      {"skipped", static_cast<double>(st.skipped)},
      {"rows", static_cast<double>(m.row_count())},
      {"last_repair_time", st.last_repair_time},
      {"matrix_hash", static_cast<double>(matrix_hash(m))},
  };
  rep.layer["outcome.goodput_MBps"] = 0.0;
  rep.layer["outcome.ops_per_s"] = static_cast<double>(rep.attempted) / rep.run_s;
  rep.layer["outcome.decode_ticks_p50"] = 0.0;
  rep.layer["outcome.decode_ticks_p99"] = 0.0;
  rep.layer["outcome.join_ticks_p99"] = kLatency;
  rep.layer["outcome.wire_bytes_per_content_byte"] = 0.0;
  rep.layer["outcome.evicted_live"] = 0.0;

  if (traced) {
    LayerInputs in;
    in.spans = collect_spans();
    in.run_s = rep.run_s;
    in.run_threads = rep.run_threads;
    in.events = executed;
    in.epochs = engine.epochs_run();
    in.handoffs = engine.cross_shard_handoffs();
    in.clamped = engine.clamped_posts();
    in.crashes = st.crashes;
    in.trace_dropped = obs::trace().dropped_events() - trace_dropped_before;
    add_layer_metrics(rep, in);
  }
  return rep;
}

Shape wave_shape() {
  Shape shape;
  shape.shards = kShards;
  shape.workers = kWorkers;
  shape.summary = "k=" + std::to_string(kThreads) + " d=" + std::to_string(kDegree) +
                  " clients=" + std::to_string(kClients) +
                  " churn_ops=" + std::to_string(kChurnOps);
  return shape;
}

}  // namespace ncbench
