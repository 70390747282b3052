#include "sim/churn.hpp"

#include <algorithm>
#include <functional>

#include "obs/trace.hpp"
#include "sim/sharded_engine.hpp"

namespace ncast::sim {

ChurnReport run_fault_plan(overlay::CurtainServer& server, const FaultPlan& plan,
                           SimTime horizon, std::uint64_t max_population) {
  // One lane of a one-shard kernel: plan entries fire in (time, plan order)
  // FIFO, and with no cross-lane posts the epoch never reorders anything.
  ShardedEngine kernel(1, 0, 1.0);
  Scheduler& lane = kernel.lane(0);
  ChurnReport report;

  // Keeps the process-wide trace clock in sync with virtual time so events
  // emitted by the server (join/leave/crash/repair) carry SimTime stamps.
  auto sync_trace_clock = [&lane] { obs::trace().set_now(lane.now()); };

  // Node ids created by executed kJoin events, indexed by join_ref. A join
  // skipped for capacity leaves its slot empty, so the departure and repair
  // that were planned for it dissolve instead of hitting some other node.
  std::vector<std::optional<overlay::NodeId>> joined(plan.join_count());
  auto resolve = [&](const FaultEvent& e) -> std::optional<overlay::NodeId> {
    if (e.targets_join()) return joined[e.join_ref];
    if (e.node == overlay::kServerNode) return std::nullopt;
    return e.node;
  };

  for (const FaultEvent& e : plan.sorted()) {
    lane.schedule_at(e.at, [&, e] {
      sync_trace_clock();
      switch (e.kind) {
        case FaultKind::kJoin: {
          const bool has_room =
              max_population == 0 ||
              server.matrix().working_count() < max_population;
          if (!has_room) return;
          const auto ticket = server.join();
          if (e.targets_join()) joined[e.join_ref] = ticket.node;
          ++report.joins;
          break;
        }
        case FaultKind::kLeave: {
          const auto node = resolve(e);
          if (!node || !server.matrix().contains(*node)) return;
          server.leave(*node);
          ++report.graceful_leaves;
          break;
        }
        case FaultKind::kCrash: {
          const auto node = resolve(e);
          if (!node || !server.matrix().contains(*node)) return;
          if (server.matrix().row(*node).failed) return;
          server.report_failure(*node);
          ++report.failures;
          break;
        }
        case FaultKind::kRepair: {
          const auto node = resolve(e);
          if (!node || !server.matrix().contains(*node)) return;
          if (!server.matrix().row(*node).failed) return;
          server.repair(*node);
          ++report.repairs;
          break;
        }
        case FaultKind::kBehavior:
          break;  // packet-level only; meaningless to the membership protocol
      }
    });
  }

  // Unit-interval population sampling. Each tick schedules a one-word thunk
  // rather than a copy of `sample`, whose closure would heap-allocate.
  std::function<void()> sample = [&] {
    const auto pop = static_cast<double>(server.matrix().working_count());
    report.population_samples.add(pop);
    report.peak_population = std::max(report.peak_population, pop);
    lane.schedule_in(1.0, [&sample] { sample(); });
  };
  lane.schedule_in(1.0, [&sample] { sample(); });

  report.events_executed = kernel.run_until(horizon);
  report.final_population = server.matrix().row_count();
  report.final_failed_tagged = server.matrix().failed_count();
  report.server_stats = server.stats();
  return report;
}

ChurnReport run_churn(std::uint32_t k, std::uint32_t d,
                      overlay::InsertPolicy policy, const ChurnConfig& config,
                      std::uint64_t seed, overlay::CurtainServer* server_out) {
  overlay::CurtainServer server(k, d, Rng(seed), policy);

  const FaultPlan plan =
      FaultPlan::poisson_churn(config, RngStreams(seed).stream("churn"));

  ChurnReport report =
      run_fault_plan(server, plan, config.horizon, config.max_population);
  if (server_out != nullptr) *server_out = std::move(server);
  return report;
}

}  // namespace ncast::sim
