#pragma once
// Churn simulation: drives a CurtainServer with Poisson arrivals, graceful
// departures, non-ergodic failures, and delayed repairs — the full membership
// life cycle of Section 3. Backs the server-load scalability experiment and
// the integration tests.
//
// The process no longer owns an event loop: run_churn generates the life
// cycle as a FaultPlan (all randomness up front) and hands it to
// run_fault_plan, the membership executor that turns plan entries into
// CurtainServer protocol calls on one lane of the sharded kernel
// (sim/sharded_engine.hpp). Hand-written or merged plans can be executed the
// same way.

#include <cstdint>
#include <optional>
#include <vector>

#include "overlay/curtain_server.hpp"
#include "sim/event_engine.hpp"
#include "sim/fault_plan.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace ncast::sim {

/// Churn run parameters: the generated process (ChurnProcessSpec; its
/// horizon is also the simulated duration) plus the executor's population
/// cap. Times are in abstract "repair interval" units: the repair delay is
/// 1.0 by construction, and `p` in the paper's sense is the probability a
/// node fails within one such unit.
struct ChurnConfig : ChurnProcessSpec {
  std::uint64_t max_population = 0;  ///< 0 = unbounded
};

/// Aggregate results of a churn run.
struct ChurnReport {
  std::uint64_t joins = 0;
  std::uint64_t graceful_leaves = 0;
  std::uint64_t failures = 0;
  std::uint64_t repairs = 0;
  std::uint64_t events_executed = 0;
  std::size_t final_population = 0;
  std::size_t final_failed_tagged = 0;
  double peak_population = 0.0;
  overlay::ServerStats server_stats;
  ncast::RunningStats population_samples;  ///< sampled at unit intervals
};

/// Executes a membership fault plan against `server` on a fresh one-lane
/// ShardedEngine: kJoin becomes server.join() (skipped when `max_population`
/// (0 = unbounded) working nodes already exist — dependent events on that
/// join then no-op), kLeave/kCrash/kRepair become leave/report_failure/repair
/// on the resolved node, and kBehavior entries are ignored (they only mean
/// something to the packet-level scenario runner). Samples the working
/// population at unit intervals until `horizon`.
ChurnReport run_fault_plan(overlay::CurtainServer& server, const FaultPlan& plan,
                           SimTime horizon, std::uint64_t max_population = 0);

/// Runs a churn process against a fresh CurtainServer and reports totals.
/// The server is constructed with (k, d, policy) and seeded from `seed`;
/// the life cycle is FaultPlan::poisson_churn executed by run_fault_plan.
ChurnReport run_churn(std::uint32_t k, std::uint32_t d,
                      overlay::InsertPolicy policy, const ChurnConfig& config,
                      std::uint64_t seed,
                      overlay::CurtainServer* server_out = nullptr);

}  // namespace ncast::sim
