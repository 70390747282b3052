// BENCH_scale — the million-node run: the scale claim of the row-record
// overlay state and the sharded event kernel, measured together. A
// 1,000,000-client join wave arrives over simulated time, sustained Poisson
// churn (graceful leaves and crashes) follows, and every crash must be
// repaired (complaint -> failure tag -> splice-out) before the horizon.
// Each client owns a kernel lane; joins and churn initiations are
// cross-lane posts into the server's lane, so the run exercises the blocked
// curtain under insert-at-random-position (each join lands mid-curtain and
// scans block signatures for its d links), the row records under heavy
// splice traffic, per-shard event queues, outbox merges, and the
// conservative epoch barrier.
//
// Reported: wall clock, events per second, peak RSS (the telemetry fields
// tools/bench_validate now requires), convergence — the final matrix must
// hold exactly joins - leaves - repairs working rows and zero failed rows —
// and a hash of that matrix, which pins every draw and the curtain order. Smoke mode (NCAST_BENCH_SMOKE=1) runs 100k nodes so CI's perf gate
// can hold the committed baseline on every run; the full 1M configuration
// is the locally-run scale proof.

#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_common.hpp"
#include "overlay/curtain_server.hpp"
#include "sim/sharded_engine.hpp"

using namespace ncast;

namespace {

struct ChurnOp {
  double at = 0.0;
  std::uint32_t client = 0;  // index into the join wave
  bool crash = false;        // false = graceful leave
};

/// 32-bit FNV-1a, one word at a time, over the matrix in curtain order:
/// each row's id, failed tag and columns. 32 bits print exactly in the
/// bench JSON, so the perf gate can hold the value itself.
std::uint32_t matrix_hash(const overlay::ThreadMatrix& m) {
  std::uint32_t h = 2166136261u;
  const auto mix = [&h](std::uint32_t v) {
    h ^= v;
    h *= 16777619u;
  };
  for (const overlay::NodeId n : m.order()) {
    const overlay::Row row = m.row(n);
    mix(n);
    mix(row.failed ? 1u : 0u);
    for (const overlay::ColumnId c : row.threads) mix(c);
  }
  return h;
}

std::uint32_t env_u32(const char* name, std::uint32_t fallback) {
  const char* s = std::getenv(name);
  if (s == nullptr || *s == '\0') return fallback;
  return static_cast<std::uint32_t>(std::strtoul(s, nullptr, 10));
}

}  // namespace

int main() {
  const bool smoke = bench::smoke();
  const std::uint32_t n = env_u32("NCAST_SCALE_NODES", smoke ? 100000 : 1000000);
  const std::uint32_t churn_ops = n / 20;
  const std::uint32_t shards = env_u32("NCAST_SCALE_SHARDS", 8);
  const std::uint32_t workers = env_u32("NCAST_SCALE_WORKERS", 0);
  const std::uint32_t k = 64;
  const std::uint32_t d = 3;
  const std::uint64_t seed = 0x5CA1EULL;
  const double join_window = 200.0;   // the wave arrives over [0, 200)
  const double churn_window = 100.0;  // churn runs over [200, 300)
  const double latency = 0.5;         // client -> server post delay
  const double repair_delay = 2.0;
  const double epoch = 0.5;           // == latency: no post ever clamps

  bench::MetricsSession session("scale");
  session.param("k", k);
  session.param("d", d);
  session.param("n", n);
  session.param("seed", seed);
  session.param("shards", shards);
  session.param("workers", workers);
  session.param("churn_ops", churn_ops);
  session.param("epoch", epoch);

  bench::banner(
      "SCALE: million-node join wave + Poisson churn on the sharded kernel",
      "Every client owns a lane; joins and churn are cross-lane posts into\n"
      "the server lane, where the row-record curtain absorbs them (uniform\n"
      "random insert positions: every join lands mid-curtain and scans for\n"
      "its d links). Crashes must repair before the horizon; the final\n"
      "matrix must balance.");

  sim::ShardedEngine engine(shards, workers, epoch);
  engine.reserve_lanes(static_cast<std::size_t>(n) + 1);

  Rng server_rng(seed);
  overlay::CurtainServer server(k, d, server_rng,
                                overlay::InsertPolicy::kRandomPosition);

  // node_of[i]: the NodeId the server assigned to join-wave client i
  // (written and read only on the server lane).
  std::vector<overlay::NodeId> node_of(n, overlay::kServerNode);
  std::vector<std::uint8_t> gone(n, 0);  // left or crashed (server lane)
  std::uint64_t leaves = 0, crashes = 0, repairs = 0, skipped = 0;
  double last_repair_time = -1.0;

  // Join wave: client i's hello leaves its lane at a deterministic offset
  // and lands on the server lane one latency later.
  for (std::uint32_t i = 0; i < n; ++i) {
    const double at =
        join_window * static_cast<double>(i) / static_cast<double>(n);
    engine.schedule_on(
        static_cast<sim::LaneId>(i + 1), at,
        [&engine, &server, &node_of, i, latency] {
          engine.schedule_on(
              0, engine.now() + latency,
              [&server, &node_of, i] { node_of[i] = server.join().node; });
        });
  }

  // Poisson churn: exponential inter-arrivals drawn up front from the run
  // seed (the draw order is fixed, so the whole schedule is deterministic).
  // Victims are picked uniformly from the wave; by churn time the wave has
  // fully joined, and double-kills are skipped at execution.
  Rng churn_rng(seed ^ 0xC4BA9ULL);
  std::vector<ChurnOp> churn(churn_ops);
  {
    const double rate =
        static_cast<double>(churn_ops) / churn_window;  // ops per sim-second
    double t = join_window + latency + 1.0;
    for (std::uint32_t c = 0; c < churn_ops; ++c) {
      t += churn_rng.exponential(rate);
      churn[c].at = t;
      churn[c].client = static_cast<std::uint32_t>(churn_rng.below(n));
      churn[c].crash = churn_rng.chance(0.5);
    }
  }
  // The churn handlers run on the server lane. Each scheduled event
  // captures one handler by reference plus its operand, which keeps every
  // closure inside the engine's inline callback buffer.
  auto repair_node = [&](overlay::NodeId node) {
    server.repair(node);
    ++repairs;
    last_repair_time = engine.now();
  };
  auto fail_node = [&](overlay::NodeId node) {
    server.report_failure(node);
    engine.schedule_on(0, engine.now() + repair_delay,
                       [&repair_node, node] { repair_node(node); });
  };
  auto apply_churn = [&](const ChurnOp& op) {
    if (gone[op.client] != 0) {
      ++skipped;  // victim already left or crashed
      return;
    }
    gone[op.client] = 1;
    const overlay::NodeId node = node_of[op.client];
    if (op.crash) {
      ++crashes;
      // Children complain one silence period later; the server tags the
      // row, then splices it out after the repair delay.
      engine.schedule_on(0, engine.now() + 1.0,
                         [&fail_node, node] { fail_node(node); });
    } else {
      ++leaves;
      server.leave(node);
    }
  };
  for (const ChurnOp& op : churn) {
    engine.schedule_on(
        static_cast<sim::LaneId>(op.client + 1), op.at,
        [&engine, &apply_churn, op, latency] {
          engine.schedule_on(0, engine.now() + latency,
                             [&apply_churn, op] { apply_churn(op); });
        });
  }

  const double horizon =
      join_window + latency + 1.0 + churn_window + 20.0 + repair_delay + 5.0;

  obs::Stopwatch wall;
  const std::size_t executed = engine.run_until(horizon);
  const double wall_s = wall.elapsed_ns() * 1e-9;
  const double events_per_sec =
      wall_s > 0.0 ? static_cast<double>(executed) / wall_s : 0.0;

  const auto& m = server.matrix();
  const std::uint64_t expected_rows =
      static_cast<std::uint64_t>(n) - leaves - repairs;
  const bool converged = m.failed_count() == 0 &&
                         m.row_count() == expected_rows &&
                         server.stats().joins == n &&
                         repairs == crashes;
  // The invariant audit is O(n * d); priced in at smoke scale, sampled out
  // of the 1M run (the balance checks above already catch structural rot).
  const bool invariants_ok = n > 200000 || m.check_invariants();
  const std::uint32_t hash = matrix_hash(m);

  const std::uint64_t rss = bench::peak_rss_bytes();
  Table table({"metric", "value"});
  table.add_row({"clients joined", std::to_string(server.stats().joins)});
  table.add_row({"graceful leaves", std::to_string(leaves)});
  table.add_row({"crashes / repairs",
                 std::to_string(crashes) + " / " + std::to_string(repairs)});
  table.add_row({"churn double-kills skipped", std::to_string(skipped)});
  table.add_row({"final working rows", std::to_string(m.working_count())});
  table.add_row({"matrix hash", std::to_string(hash)});
  table.add_row({"events executed", std::to_string(executed)});
  table.add_row({"cross-shard handoffs",
                 std::to_string(engine.cross_shard_handoffs())});
  table.add_row({"clamped posts", std::to_string(engine.clamped_posts())});
  table.add_row({"epochs run", std::to_string(engine.epochs_run())});
  table.add_row({"wall clock (s)", fmt(wall_s, 2)});
  table.add_row({"events / s", fmt(events_per_sec, 0)});
  table.add_row({"peak RSS (MiB)",
                 fmt(static_cast<double>(rss) / (1024.0 * 1024.0), 1)});
  table.print();
  session.add_table("scale_run", table);

  session.note("wall_clock_s", wall_s);
  session.note("events_per_sec", events_per_sec);
  session.note("events_executed", executed);
  session.note("peak_rss_mib", static_cast<double>(rss) / (1024.0 * 1024.0));
  session.note("joins", server.stats().joins);
  session.note("leaves", leaves);
  session.note("crashes", crashes);
  session.note("repairs", repairs);
  session.note("last_repair_time", last_repair_time);
  session.note("clamped_posts", engine.clamped_posts());
  session.note("converged", converged);
  session.note("invariants_ok", invariants_ok);
  session.note("matrix_hash", hash);

  std::printf(
      "\nReading: the server's curtain absorbed %" PRIu32
      " uniform-position joins and %" PRIu64
      " splice-outs while the sharded kernel moved every hello and complaint\n"
      "across lanes; zero clamped posts (epoch == min latency) and a final\n"
      "matrix that balances to the op count are the correctness half of the\n"
      "scale story, wall clock and peak RSS the capacity half.\n",
      n, leaves + repairs);

  if (!converged || !invariants_ok) {
    std::fprintf(stderr,
                 "bench_scale: FAILED convergence (rows=%zu expected=%" PRIu64
                 " failed=%zu repairs=%" PRIu64 "/%" PRIu64
                 " invariants_ok=%d)\n",
                 m.row_count(), expected_rows, m.failed_count(), repairs,
                 crashes, static_cast<int>(invariants_ok));
    return 1;
  }
  return 0;
}
