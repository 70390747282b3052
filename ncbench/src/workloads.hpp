#pragma once
// The benchmark's three fixed-work workloads. Each repetition builds its
// scenario from the seed, runs it to a fixed simulated horizon, checks the
// outputs, and reports what it measured. A traced repetition runs the same
// scenario with the probe decorators in place (probe.hpp).

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace ncbench {

/// What one repetition of a workload measured.
struct Rep {
  double setup_s = 0.0;  ///< workload start -> first simulated event
  double run_s = 0.0;    ///< wall time of the simulated run itself
  /// Engine threads that can run handlers at once (max(1, workers)): the
  /// per-layer split accounts for run_s * this many thread-seconds.
  double run_threads = 1.0;
  std::uint64_t attempted = 0;  ///< live clients, or membership operations
  std::uint64_t failed = 0;     ///< of those, the ones that did not succeed
  std::vector<std::string> errors;  ///< correctness failures, human-readable
  /// Seed-deterministic outcomes. Traced and untraced repetitions of one
  /// seed must agree on every entry, and so must the reference runner on
  /// the entries it also reports.
  std::map<std::string, double> counts;
  /// Work-normalised outcomes and per-layer metrics.
  std::map<std::string, double> layer;
};

/// Sizes and runner settings, printed as provenance.
struct Shape {
  std::string summary;
  std::uint32_t shards = 1;
  std::uint32_t workers = 0;
};

enum class Mode {
  kSetupOnly,  ///< build the scenario, time it, and stop before it runs
  kUntraced,   ///< the measured program, nothing in between
  kTraced,     ///< probe decorators in place; fills the per-layer metrics
};

Rep run_stream(std::uint64_t seed, Mode mode);
Rep run_lossy(std::uint64_t seed, Mode mode);
Rep run_wave(std::uint64_t seed, Mode mode);

/// Runs a protocol workload's scenario through node::run_scenario_sharded
/// and returns every deterministic count on which it disagrees with the
/// untraced repetition `rep` of the same seed.
std::vector<std::string> check_protocol_reference(const std::string& name,
                                                  std::uint64_t seed,
                                                  const Rep& rep);

Shape protocol_shape(const std::string& name);
Shape wave_shape();

}  // namespace ncbench
