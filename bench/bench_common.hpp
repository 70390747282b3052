#pragma once
// Shared helpers for the experiment harness binaries. Every experiment prints
// a header naming the paper claim it reproduces, then a table of measured
// rows, so that bench_output.txt reads as a self-contained lab notebook.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "metrics_session.hpp"
#include "overlay/curtain_server.hpp"
#include "overlay/thread_matrix.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

namespace ncast::bench {

/// Prints the standard experiment banner.
inline void banner(const std::string& id, const std::string& claim) {
  std::printf("\n=== %s ===\n%s\n\n", id.c_str(), claim.c_str());
}

/// Grows a failure-free overlay of n nodes via the join protocol.
inline overlay::ThreadMatrix grow_overlay(std::uint32_t k, std::uint32_t d,
                                          std::size_t n, std::uint64_t seed,
                                          overlay::InsertPolicy policy =
                                              overlay::InsertPolicy::kAppend) {
  overlay::CurtainServer server(k, d, Rng(seed), policy);
  for (std::size_t i = 0; i < n; ++i) server.join();
  return server.matrix();
}

/// Tags each node failed independently with probability p.
inline void tag_iid_failures(overlay::ThreadMatrix& m, double p, Rng& rng) {
  for (overlay::NodeId n : m.order()) {
    if (rng.chance(p)) m.mark_failed(n);
  }
}

/// Fluent builder for composed scenario specs (layer 4 of the simulation
/// kernel). Every packet-level experiment goes through this, so a driver is
/// just: build the overlay, describe the adversity, run, read the report —
/// and the scenario parameters land in the telemetry dump uniformly via
/// describe().
class ScenarioBuilder {
 public:
  explicit ScenarioBuilder(std::uint64_t seed) { spec_.seed = seed; }

  ScenarioBuilder& generation(std::size_t g, std::size_t symbols) {
    spec_.generation_size = g;
    spec_.symbols = symbols;
    return *this;
  }
  /// Round-synchronous mode (the paper's lockstep rounds): the runner pins
  /// every link to half a period so each round's packets land before the
  /// next round, and ignores the latency setters.
  ScenarioBuilder& rounds(std::size_t r) {
    spec_.round_sync = true;
    spec_.rounds = r;
    return *this;
  }
  ScenarioBuilder& horizon(double h) {
    spec_.horizon = h;
    return *this;
  }
  ScenarioBuilder& fixed_latency(double t) {
    spec_.link.latency = sim::LatencySpec::fixed_delay(t);
    return *this;
  }
  ScenarioBuilder& uniform_latency(double lo, double hi) {
    spec_.link.latency = sim::LatencySpec::uniform(lo, hi);
    return *this;
  }
  ScenarioBuilder& bernoulli_loss(double p) {
    spec_.link.loss = sim::LossSpec::bernoulli(p);
    return *this;
  }
  ScenarioBuilder& gilbert_elliott_loss(double enter_bad, double exit_bad) {
    spec_.link.loss = sim::LossSpec::gilbert_elliott(enter_bad, exit_bad);
    return *this;
  }
  ScenarioBuilder& bandwidth_cap(double per_period) {
    spec_.link.bandwidth_cap = per_period;
    return *this;
  }
  ScenarioBuilder& null_keys(std::size_t count) {
    spec_.null_keys = count;
    return *this;
  }
  ScenarioBuilder& crash(double t, overlay::NodeId node) {
    spec_.faults.crash_at(t, node);
    return *this;
  }
  ScenarioBuilder& repair(double t, overlay::NodeId node) {
    spec_.faults.repair_at(t, node);
    return *this;
  }
  ScenarioBuilder& leave(double t, overlay::NodeId node) {
    spec_.faults.leave_at(t, node);
    return *this;
  }

  const sim::ScenarioSpec& spec() const { return spec_; }

  sim::ScenarioReport run(const overlay::ThreadMatrix& m,
                          const std::vector<sim::NodeBehavior>& b = {}) const {
    return sim::run_scenario(m, spec_, b);
  }
  sim::ScenarioReport run(const graph::Digraph& g, graph::Vertex source,
                          const std::vector<sim::NodeBehavior>& b = {}) const {
    return sim::run_scenario(g, source, spec_, b);
  }

  /// Records the scenario's knobs as session parameters (prefixed, so a
  /// driver can describe several scenarios in one telemetry dump).
  void describe(MetricsSession& session, const std::string& prefix = "") const {
    const auto key = [&prefix](const char* name) { return prefix + name; };
    session.param(key("generation_size"), spec_.generation_size);
    session.param(key("symbols"), spec_.symbols);
    session.param(key("mode"), spec_.round_sync ? "rounds" : "async");
    session.param(key("mean_loss"), spec_.link.loss.mean_loss());
    // Round mode pins every link to half a send period (the time unit).
    session.param(key("latency_bound"), spec_.round_sync
                                            ? 0.5
                                            : spec_.link.latency.upper_bound());
    if (spec_.link.bandwidth_cap > 0.0) {
      session.param(key("bandwidth_cap"), spec_.link.bandwidth_cap);
    }
    if (!spec_.faults.empty()) {
      session.param(key("fault_events"), spec_.faults.size());
    }
  }

 private:
  sim::ScenarioSpec spec_;
};

}  // namespace ncast::bench
