#pragma once
// The centralized authority of Section 3: it owns the thread matrix and runs
// the hello (join), good-bye (graceful leave), repair, and congestion
// protocols. Control-message accounting backs the scalability experiment —
// the paper's point is that the server does O(d) work per membership event
// and zero work on the data path.

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/trace.hpp"
#include "overlay/thread_matrix.hpp"
#include "util/rng.hpp"

namespace ncast::overlay {

/// Where a new row is placed in the curtain.
enum class InsertPolicy {
  kAppend,          ///< Section 3: newcomers clip at the bottom.
  kRandomPosition,  ///< Section 5: random row insertion, uniform over the
                    ///< n + 1 gaps; defeats coordinated adversarial arrivals.
};

/// Running totals of protocol traffic at the server.
struct ServerStats {
  std::uint64_t joins = 0;
  std::uint64_t graceful_leaves = 0;
  std::uint64_t failures_reported = 0;
  std::uint64_t repairs = 0;
  std::uint64_t congestion_offloads = 0;
  std::uint64_t congestion_restores = 0;
  /// Control messages sent or received by the server (join request/response,
  /// parent notifications, redirect orders, failure complaints).
  std::uint64_t control_messages = 0;
};

/// Result of a join: the node's identity. Its columns and its links on
/// each are `matrix().row(node)`.
struct JoinTicket {
  NodeId node = 0;
};

/// One column of a row and its links there, as they stand across a
/// congestion change: `up` feeds the row on `column` (kServerNode = the
/// server) and the row feeds `down` (kNoNode = nobody). An offload joins
/// `up` to `down` directly; a restore splices the row in between them.
struct ColumnLinks {
  ColumnId column = 0;
  NodeId up = kServerNode;
  NodeId down = kNoNode;
};

/// The server. All mutation goes through protocol methods so that the stats
/// faithfully count what a real deployment's control plane would carry. The
/// message-plane node::ServerNode runs its membership through one of these,
/// so every join, leave, repair and congestion decision has one owner; the
/// optional `span` arguments tag the trace events with the message episode
/// (join exchange, good-bye, complaint/repair cycle) that caused them.
class CurtainServer {
 public:
  /// `k` threads; `default_degree` is the d used when join() is called
  /// without an explicit degree.
  CurtainServer(std::uint32_t k, std::uint32_t default_degree, Rng rng,
                InsertPolicy policy = InsertPolicy::kAppend);

  std::uint32_t k() const { return matrix_.k(); }
  std::uint32_t default_degree() const { return default_degree_; }
  const ThreadMatrix& matrix() const { return matrix_; }
  const ServerStats& stats() const { return stats_; }
  InsertPolicy policy() const { return policy_; }

  /// Hello protocol: picks `degree` distinct random threads, places the row
  /// per the insert policy, and notifies the parents to start sending. The
  /// node gets the next sequential id (0, 1, 2, ...).
  JoinTicket join(std::optional<std::uint32_t> degree = std::nullopt);

  /// join() under a caller-chosen id (a message-plane address). Throws
  /// invalid_argument if `node` is already a row. Callers that mix this with
  /// join() must keep the two id ranges apart.
  JoinTicket join_as(NodeId node, std::optional<std::uint32_t> degree,
                     obs::SpanId span = obs::kNoSpan);

  /// Good-bye protocol: the leaving node's parents are redirected to its
  /// children, then the row is deleted (Lemma 1: the network distribution is
  /// as if the node never joined).
  void leave(NodeId node, obs::SpanId span = obs::kNoSpan);

  /// A node stopped responding: children complain, the server tags the row.
  /// The row stays (threads broken) until `repair` runs.
  void report_failure(NodeId node, obs::SpanId span = obs::kNoSpan);

  /// Repair procedure: performs the steps of the good-bye protocol on behalf
  /// of the failed node, then deletes its row.
  void repair(NodeId node, obs::SpanId span = obs::kNoSpan);

  /// Congestion offload (Section 5): the node drops one random thread,
  /// joining its parent and child on that column directly. Returns the
  /// dropped column and those two links, or nullopt if the node is at
  /// degree 1.
  std::optional<ColumnLinks> congestion_offload(NodeId node);

  /// Congestion recovery (Section 5): turns a random zero of the row into a
  /// one. Returns the added column and the row's new parent and child on
  /// it, or nullopt if the row already has all k.
  std::optional<ColumnLinks> congestion_restore(NodeId node);

 private:
  NodeId random_anchor();

  ThreadMatrix matrix_;
  std::uint32_t default_degree_;
  Rng rng_;
  InsertPolicy policy_;
  ServerStats stats_;
  NodeId next_id_ = 0;
  /// The joiner's column draw, reused so a join allocates nothing.
  std::vector<ColumnId> drawn_;
};

}  // namespace ncast::overlay
