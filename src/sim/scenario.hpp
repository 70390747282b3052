#pragma once
// Layer 3 of the simulation kernel: the scenario layer. A ScenarioSpec
// combines a coding configuration, a LinkModel (layer 2a), and a FaultPlan
// (layer 2b); run_scenario() executes it over any topology — the curtain's
// thread matrix or an arbitrary digraph (the cyclic random-graph variant of
// Section 6) — on one lane of the sharded kernel (layer 1), where events fire
// in (time, scheduling order) FIFO.
//
// run_scenario is the one packet-level API, and it owns both timing models:
//   - round-synchronous (round_sync): rounds are a degenerate link model.
//     The runner pins every link to half a send period of latency with phase
//     0, so all of round r's packets land at the round boundary before round
//     r+1's sends — reproducing the pre-kernel round simulator bit for bit.
//   - free-running: per-link latencies from spec.link.latency and
//     desynchronized send phases.
// The payoff is composition: loss x latency x churn x attacks can now all be
// active in one run, on either topology, which no siloed simulator allowed.

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "graph/digraph.hpp"
#include "overlay/thread_matrix.hpp"
#include "sim/fault_plan.hpp"
#include "sim/link_model.hpp"

namespace ncast::sim {

/// Time is measured in send periods: every link sends one packet per unit.
struct ScenarioSpec {
  std::size_t generation_size = 16;  ///< g: packets per generation
  std::size_t symbols = 8;           ///< payload symbols per packet

  /// Round-synchronous degenerate mode: phases are 0, the first send fires
  /// at t = 1, and every link takes 1/2 so deliveries land at round
  /// boundaries; link.latency is ignored. Async mode draws each link's
  /// latency from link.latency and its phase uniformly from [0, 1).
  bool round_sync = false;
  std::size_t rounds = 0;  ///< round_sync round budget; 0 = auto (depth + 4g)
  double horizon = 0.0;    ///< async horizon; 0 = auto (wavefront + 4g periods)

  std::uint64_t seed = 1;
  /// Jamming defense: null keys distributed out of band; honest nodes drop
  /// packets failing verification. Zero disables verification.
  std::size_t null_keys = 0;

  /// Latency (async mode only) / loss / bandwidth / partition.
  LinkModelSpec link;
  FaultPlan faults;  ///< scheduled crash / repair / leave / behavior events
};

/// Steady-state achieved rate (innovative packets per period), measured as
/// the rank-growth slope between the g/3 and 2g/3 crossings — a window where
/// the pipeline is full, so fill latency does not pollute the rate. Sentinel
/// -1 timestamps (a crossing that never happened) yield 0: no slope is
/// measurable for a node that stalled or ran out of horizon.
inline double steady_state_rate(std::size_t rank_achieved, double third_time,
                                double two_thirds_time) {
  if (third_time < 0.0 || two_thirds_time < 0.0) return 0.0;
  if (two_thirds_time <= third_time) return 0.0;
  const auto g = static_cast<double>(rank_achieved);
  const double r1 = std::ceil(g / 3.0);
  const double r2 = std::ceil(2.0 * g / 3.0);
  return (r2 - r1) / (two_thirds_time - third_time);
}

/// Per-vertex result of a scenario run (source and excluded vertices omitted).
struct ScenarioOutcome {
  graph::Vertex vertex = 0;
  /// Overlay node id (thread-matrix scenarios; kServerNode for raw digraphs).
  overlay::NodeId node = overlay::kServerNode;
  /// Min-cut from the source in the end-state capacity graph: the input
  /// topology minus nodes offline when the run ended (initially-offline,
  /// crashed-and-unrepaired, departed). Attackers that still forward
  /// (entropy, jamming) count as capacity, as in the paper.
  std::int64_t max_flow = 0;
  std::size_t rank_achieved = 0;
  bool decoded = false;            ///< reached full rank
  bool corrupted = false;          ///< decoded data mismatched the truth
  double first_arrival = -1.0;     ///< time the first surviving packet landed
  double decode_time = -1.0;       ///< time full rank was reached
  double third_time = -1.0;        ///< time rank crossed ceil(g/3)
  double two_thirds_time = -1.0;   ///< time rank crossed ceil(2g/3)
  std::int64_t depth = -1;         ///< hop distance from the source (pre-fault)

  double rate() const {
    return steady_state_rate(rank_achieved, third_time, two_thirds_time);
  }
};

struct ScenarioReport {
  double horizon = 0.0;
  std::size_t rounds = 0;  ///< round_sync mode only
  std::size_t packets_sent = 0;
  std::size_t packets_lost = 0;  ///< loss process + partition + dead receivers
  std::size_t packets_innovative = 0;
  std::uint64_t events_executed = 0;
  std::vector<ScenarioOutcome> outcomes;

  double decoded_fraction() const;
  double corrupted_fraction() const;
  /// Mean over decoded vertices of rate()/max_flow (capped at 1).
  double mean_rate_vs_cut() const;
};

/// Runs a scenario over the alive edges of `g` from `source`. Every other
/// vertex is a receiver/recoder; `behavior[vertex]` (defaulting to honest
/// when the vector is short) sets each vertex's initial packet behavior.
/// FaultPlan kJoin events are membership-only and ignored here: the vertex
/// set of a packet-level scenario is fixed (see run_fault_plan in churn.hpp
/// for the membership executor).
ScenarioReport run_scenario(const graph::Digraph& g, graph::Vertex source,
                            const ScenarioSpec& spec,
                            const std::vector<NodeBehavior>& behavior = {});

/// Curtain overload: rows tagged failed in `m` — and nodes whose behavior is
/// kOffline — are excluded from the run and from the outcomes (they are
/// capacity holes). Fault-plan targets are overlay NodeIds. Outcomes carry
/// node ids, depths, and min-cuts computed on the derived capacity graph, in
/// curtain order.
ScenarioReport run_scenario(const overlay::ThreadMatrix& m,
                            const ScenarioSpec& spec,
                            const std::vector<NodeBehavior>& behavior = {});

}  // namespace ncast::sim
