// Live streaming under churn: a synchronous broadcast where peers join,
// crash, and get repaired while the stream is running.
//
//   $ ./live_streaming
//
// The stream is delivered generation by generation ("epochs"). Between
// epochs the membership changes: new viewers join, some leave gracefully,
// some crash (their children complain, the server repairs). The demo shows
// the paper's operational story: failures cost their children one repair
// interval of degraded rate, then the overlay is as good as new.

#include <cstdio>
#include <vector>

#include "overlay/curtain_server.hpp"
#include "overlay/flow_graph.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace ncast;

namespace {

void print_epoch(int epoch, const overlay::CurtainServer& server,
                 const sim::ScenarioReport& report) {
  RunningStats rate;
  for (const auto& o : report.outcomes) {
    rate.add(static_cast<double>(o.max_flow));
  }
  std::printf(
      "epoch %d: %4zu viewers (%zu awaiting repair) | decoded %5.1f%% | "
      "mean capacity %.2f/3 | corrupted %.0f\n",
      epoch, server.matrix().row_count(), server.matrix().failed_count(),
      report.decoded_fraction() * 100, rate.mean(),
      report.corrupted_fraction() * 100);
}

}  // namespace

int main() {
  const std::uint32_t k = 24, d = 3;
  overlay::CurtainServer server(k, d, Rng(2025));
  Rng churn(99);

  // Initial audience.
  std::vector<overlay::NodeId> alive;
  for (int i = 0; i < 200; ++i) alive.push_back(server.join().node);

  std::printf("Live stream: k = %u server threads, d = %u per viewer\n\n", k, d);

  sim::ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 64;
  spec.round_sync = true;

  for (int epoch = 1; epoch <= 8; ++epoch) {
    // --- membership churn between generations -----------------------------
    // ~5% of viewers crash; they are noticed and repaired one epoch later.
    std::vector<overlay::NodeId> crashed;
    for (auto node : alive) {
      if (!server.matrix().contains(node)) continue;  // repaired last epoch
      if (churn.chance(0.05) && !server.matrix().row(node).failed) {
        server.report_failure(node);
        crashed.push_back(node);
      }
    }
    // ~5% leave politely, 10 new viewers join.
    std::vector<overlay::NodeId> still_alive;
    for (auto node : alive) {
      if (!server.matrix().contains(node)) continue;
      if (!server.matrix().row(node).failed && churn.chance(0.05)) {
        server.leave(node);
      } else {
        still_alive.push_back(node);
      }
    }
    alive = std::move(still_alive);
    for (int i = 0; i < 10; ++i) alive.push_back(server.join().node);

    // --- stream one generation --------------------------------------------
    spec.seed = 1000 + static_cast<std::uint64_t>(epoch);
    const auto report = sim::run_scenario(server.matrix(), spec);
    print_epoch(epoch, server, report);

    // --- repairs land before the next generation ---------------------------
    for (auto node : crashed) {
      if (server.matrix().contains(node) && server.matrix().row(node).failed) {
        server.repair(node);
      }
    }
  }

  const auto& stats = server.stats();
  std::printf(
      "\nServer control totals: %llu joins, %llu leaves, %llu failures, "
      "%llu repairs, %llu control messages\n",
      static_cast<unsigned long long>(stats.joins),
      static_cast<unsigned long long>(stats.graceful_leaves),
      static_cast<unsigned long long>(stats.failures_reported),
      static_cast<unsigned long long>(stats.repairs),
      static_cast<unsigned long long>(stats.control_messages));
  std::printf(
      "Note the pattern: each epoch's decode%% dips only by roughly the crash\n"
      "fraction (failures hurt their children once), and repairs restore the\n"
      "full rate — the failure containment of Theorem 4 in action.\n");
  return 0;
}
