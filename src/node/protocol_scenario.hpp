#pragma once
// The protocol-plane scenario runner: the message-level analogue of
// sim::run_scenario. Where the packet-level runner replays a FaultPlan
// against a CurtainServer by direct calls, this one builds real endpoints —
// one ServerNode, ClientNodes arriving per the plan — on a ShardedTransport
// over the sharded event kernel, so joins ride actual hello messages,
// crashes are detected by silence-timer complaints, and repairs are redirect
// orders that can themselves be delayed, reordered, or lost. This is the
// harness that tests Section 3's robustness story under control-plane
// adversity (bench_control_loss) instead of assuming ideal control links.
//
// FaultPlan semantics on the message plane:
//   kJoin  -> a new ClientNode is constructed and starts its hello exchange
//             (join_ref targeting works as in the membership executor);
//   kLeave -> the client sends its good-bye;
//   kCrash -> the client goes dark and the fabric blackholes it;
//   kRepair, kBehavior -> ignored: on the message plane repair is emergent
//             (children complain, the server splices), and packet behaviors
//             belong to the packet-level runner.

#include <cstdint>
#include <vector>

#include "coding/structure.hpp"
#include "node/transport.hpp"
#include "overlay/thread_matrix.hpp"
#include "sim/fault_plan.hpp"

namespace ncast::node {

/// Message-plane scenario description. Fault targets address clients by
/// their protocol Address (initial client i has address i+1; join_ref j maps
/// to address initial_clients + j + 1).
struct ProtocolScenarioSpec {
  std::uint32_t k = 12;               ///< server threads
  std::uint32_t default_degree = 3;   ///< d assigned to joiners
  double repair_delay = 2.0;          ///< complaint -> splice-out delay
  std::size_t generation_size = 8;    ///< packets per generation
  std::size_t symbols = 8;            ///< payload bytes per packet
  std::size_t generations = 2;        ///< content generations
  std::size_t null_keys = 0;          ///< verification keys (0 = off)
  /// Generation coding structure (dense/banded/overlapped). Resolved against
  /// generation_size by the server; clients learn it from the join accept.
  coding::StructureSpec structure;
  std::uint64_t silence_timeout = 6;  ///< client complaint timeout
  double join_retry = 4.0;            ///< hello retransmit base delay
  std::uint32_t initial_clients = 0;  ///< clients that join at t = 0
  double horizon = 0.0;               ///< 0 = sized from plan + content
  std::uint64_t seed = 1;
  TransportSpec transport;            ///< latency/loss/partition model
  sim::FaultPlan faults;              ///< scheduled joins/leaves/crashes
};

/// Per-client outcome.
struct ProtocolOutcome {
  Address address = 0;
  bool joined = false;
  bool crashed = false;
  bool departed = false;
  bool decoded = false;
  double join_latency = -1.0;  ///< first hello -> accept (-1 if never joined)
  double decode_time = -1.0;   ///< full rank reached (-1 if not decoded)
  std::uint64_t join_retries = 0;
  std::uint64_t complaints = 0;

  bool operator==(const ProtocolOutcome&) const = default;
};

struct ProtocolScenarioReport {
  double horizon = 0.0;
  std::uint64_t events_executed = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t messages_dropped = 0;
  std::uint64_t control_messages = 0;
  std::uint64_t data_messages = 0;
  std::uint64_t control_dropped = 0;
  std::uint64_t control_bytes = 0;
  std::uint64_t data_bytes = 0;  ///< real serialized wire bytes (v1 or v2)
  std::uint64_t repairs_done = 0;
  double last_repair_time = -1.0;  ///< repair convergence measurement
  /// The server's final thread matrix (cross-plane equivalence checks).
  overlay::ThreadMatrix matrix{1};
  std::vector<ProtocolOutcome> outcomes;

  /// Fraction of live (non-crashed, non-departed) clients that decoded.
  double decoded_fraction() const;
  /// Mean hello->accept latency over clients that joined (-1 if none did).
  double mean_join_latency() const;
  std::uint64_t total_join_retries() const;
  std::uint64_t total_complaints() const;
};

/// Runs the message-plane scenario to its horizon on the sharded kernel
/// (sim/sharded_engine.hpp) and collects the report: the server on lane 0,
/// client address a on lane a, deliveries as cross-lane posts through
/// ShardedTransport. The sequential run is `shards = 1, workers = 0`. The
/// report is a pure function of the spec, field by field — independent of
/// `shards` and `workers` (the sharded determinism contract). The epoch is
/// the spec's minimum link latency, so no delivery is ever clamped.
ProtocolScenarioReport run_scenario_sharded(const ProtocolScenarioSpec& spec,
                                            std::uint32_t shards,
                                            std::uint32_t workers = 0);

}  // namespace ncast::node
