#include "overlay/curtain_server.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ncast::overlay {

namespace {

// Process-wide control-plane counters, aggregated across server instances
// (benches and churn runs construct many servers per process). The matching
// per-instance totals remain in ServerStats.
struct ServerCounters {
  obs::Counter& joins = obs::metrics().counter("server.joins");
  obs::Counter& leaves = obs::metrics().counter("server.graceful_leaves");
  obs::Counter& failures = obs::metrics().counter("server.failures_reported");
  obs::Counter& repairs = obs::metrics().counter("server.repairs");
  obs::Counter& control = obs::metrics().counter("server.control_messages");
  obs::Histogram& repair_ns = obs::metrics().histogram("server.repair_ns");

  static ServerCounters& get() {
    // ncast:shared(holds internally synchronized obs::Counter references; magic-static init is thread-safe)
    static ServerCounters c;
    return c;
  }
};

// A row's distinct parents (the server counts) and children (kNoNode does
// not), read from its link lanes without a buffer.
std::pair<std::size_t, std::size_t> count_links(const Row& row) {
  std::size_t parents = 0;
  std::size_t children = 0;
  for (std::size_t i = 0; i < row.threads.size(); ++i) {
    parents += std::find(row.up, row.up + i, row.up[i]) == row.up + i;
    children += row.down[i] != kNoNode &&
                std::find(row.down, row.down + i, row.down[i]) == row.down + i;
  }
  return {parents, children};
}

}  // namespace

CurtainServer::CurtainServer(std::uint32_t k, std::uint32_t default_degree, Rng rng,
                             InsertPolicy policy)
    : matrix_(k), default_degree_(default_degree), rng_(rng), policy_(policy) {
  if (default_degree == 0 || default_degree > k) {
    throw std::invalid_argument("CurtainServer: need 1 <= d <= k");
  }
}

NodeId CurtainServer::random_anchor() {
  // One draw over the n + 1 gaps: u = n is the top, any other u the gap
  // directly below roster row u. The roster is a permutation of the rows,
  // so every gap has probability 1 / (n + 1) and no curtain rank is needed.
  const std::size_t n = matrix_.row_count();
  const auto u = static_cast<std::size_t>(rng_.below(n + 1));
  return u == n ? kServerNode : matrix_.member(u);
}

JoinTicket CurtainServer::join(std::optional<std::uint32_t> degree) {
  return join_as(next_id_++, degree);
}

JoinTicket CurtainServer::join_as(NodeId node,
                                  std::optional<std::uint32_t> degree,
                                  obs::SpanId span) {
  const std::uint32_t d = degree.value_or(default_degree_);
  if (d == 0 || d > matrix_.k()) {
    throw std::invalid_argument("CurtainServer::join: need 1 <= d <= k");
  }
  rng_.sample_without_replacement(matrix_.k(), d, drawn_);
  if (policy_ == InsertPolicy::kRandomPosition) {
    matrix_.insert_row_below(random_anchor(), node, drawn_);
  } else {
    matrix_.append_row(node, drawn_);
  }
  const auto [parents, children] = count_links(matrix_.row(node));

  ++stats_.joins;
  // join request + response, plus one "start sending" notification per parent.
  stats_.control_messages += 2 + parents;
  ServerCounters::get().joins.inc();
  ServerCounters::get().control.inc(2 + parents);
  obs::trace().emit(obs::TraceKind::kJoin, node, d, parents, {}, span);
  return JoinTicket{node};
}

void CurtainServer::leave(NodeId node, obs::SpanId span) {
  if (!matrix_.contains(node)) throw std::out_of_range("CurtainServer::leave");
  const auto [parents, children] = count_links(matrix_.row(node));
  matrix_.erase_row(node);

  ++stats_.graceful_leaves;
  // good-bye request, plus one redirect order per affected neighbor.
  stats_.control_messages += 1 + parents + children;
  ServerCounters::get().leaves.inc();
  ServerCounters::get().control.inc(1 + parents + children);
  obs::trace().emit(obs::TraceKind::kLeave, node, parents, children, {}, span);
}

void CurtainServer::report_failure(NodeId node, obs::SpanId span) {
  if (!matrix_.contains(node)) throw std::out_of_range("CurtainServer::report_failure");
  const Row row = matrix_.row(node);
  if (row.failed) return;  // duplicate complaints are idempotent
  const auto [parents, children] = count_links(row);
  matrix_.mark_failed(node);

  ++stats_.failures_reported;
  // one complaint per (deduplicated) child.
  stats_.control_messages += std::max<std::size_t>(children, 1);
  ServerCounters::get().failures.inc();
  ServerCounters::get().control.inc(std::max<std::size_t>(children, 1));
  obs::trace().emit(obs::TraceKind::kCrash, node, children, 0, {}, span);
}

void CurtainServer::repair(NodeId node, obs::SpanId span) {
  if (!matrix_.contains(node)) throw std::out_of_range("CurtainServer::repair");
  const Row row = matrix_.row(node);
  if (!row.failed) {
    throw std::logic_error("CurtainServer::repair: node not marked failed");
  }
  obs::ScopeTimer timer(ServerCounters::get().repair_ns);
  const auto [parents, children] = count_links(row);
  matrix_.erase_row(node);

  ++stats_.repairs;
  stats_.control_messages += parents + children;
  ServerCounters::get().repairs.inc();
  ServerCounters::get().control.inc(parents + children);
  obs::trace().emit(obs::TraceKind::kRepair, node, parents, children, {}, span);
}

std::optional<ColumnLinks> CurtainServer::congestion_offload(NodeId node) {
  const Row r = matrix_.row(node);
  if (r.threads.size() <= 1) return std::nullopt;
  const std::size_t i = rng_.below(r.threads.size());
  const ColumnLinks links{r.threads[i], r.up[i], r.down[i]};
  matrix_.drop_thread(node, links.column);

  ++stats_.congestion_offloads;
  // node's notice + redirect orders to the column's parent and child.
  stats_.control_messages += 3;
  ServerCounters::get().control.inc(3);
  obs::trace().emit(obs::TraceKind::kCongestionOffload, node, links.column);
  return links;
}

std::optional<ColumnLinks> CurtainServer::congestion_restore(NodeId node) {
  const Row r = matrix_.row(node);
  if (r.threads.size() >= matrix_.k()) return std::nullopt;
  // The u-th column the row does not clip, in column order: start at u and
  // step past each clipped column at or below the candidate.
  const auto u = static_cast<ColumnId>(rng_.below(matrix_.k() - r.threads.size()));
  ColumnId column = u;
  for (const ColumnId c : r.threads) column += c <= column ? 1 : 0;
  matrix_.add_thread(node, column);
  const Row added = matrix_.row(node);
  const std::size_t i = column - u;  // the clipped columns below it
  const ColumnLinks links{column, added.up[i], added.down[i]};

  ++stats_.congestion_restores;
  stats_.control_messages += 3;
  ServerCounters::get().control.inc(3);
  obs::trace().emit(obs::TraceKind::kCongestionRestore, node, column);
  return links;
}

}  // namespace ncast::overlay
