#include "overlay/curtain_server.hpp"

#include <algorithm>
#include <stdexcept>

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

std::vector<ColumnId> CurtainServer::pick_threads(std::uint32_t degree) {
  return rng_.sample_without_replacement(matrix_.k(), degree);
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
  JoinTicket ticket;
  ticket.node = node;
  ticket.threads = pick_threads(d);
  if (policy_ == InsertPolicy::kRandomPosition) {
    matrix_.insert_row_below(random_anchor(), ticket.node, ticket.threads);
  } else {
    matrix_.append_row(ticket.node, ticket.threads);
  }
  ticket.parents = matrix_.parents(ticket.node);

  ++stats_.joins;
  // join request + response, plus one "start sending" notification per parent.
  stats_.control_messages += 2 + ticket.parents.size();
  ServerCounters::get().joins.inc();
  ServerCounters::get().control.inc(2 + ticket.parents.size());
  obs::trace().emit(obs::TraceKind::kJoin, ticket.node, d,
                    ticket.parents.size(), {}, span);
  return ticket;
}

void CurtainServer::leave(NodeId node, obs::SpanId span) {
  if (!matrix_.contains(node)) throw std::out_of_range("CurtainServer::leave");
  const auto parents = matrix_.parents(node);
  const auto children = matrix_.children(node);
  matrix_.erase_row(node);

  ++stats_.graceful_leaves;
  // good-bye request, plus one redirect order per affected neighbor.
  stats_.control_messages += 1 + parents.size() + children.size();
  ServerCounters::get().leaves.inc();
  ServerCounters::get().control.inc(1 + parents.size() + children.size());
  obs::trace().emit(obs::TraceKind::kLeave, node, parents.size(),
                    children.size(), {}, span);
}

void CurtainServer::report_failure(NodeId node, obs::SpanId span) {
  if (!matrix_.contains(node)) throw std::out_of_range("CurtainServer::report_failure");
  if (matrix_.row(node).failed) return;  // duplicate complaints are idempotent
  const auto children = matrix_.children(node);
  matrix_.mark_failed(node);

  ++stats_.failures_reported;
  // one complaint per (deduplicated) child.
  stats_.control_messages += std::max<std::size_t>(children.size(), 1);
  ServerCounters::get().failures.inc();
  ServerCounters::get().control.inc(std::max<std::size_t>(children.size(), 1));
  obs::trace().emit(obs::TraceKind::kCrash, node, children.size(), 0, {},
                    span);
}

void CurtainServer::repair(NodeId node, obs::SpanId span) {
  if (!matrix_.contains(node)) throw std::out_of_range("CurtainServer::repair");
  if (!matrix_.row(node).failed) {
    throw std::logic_error("CurtainServer::repair: node not marked failed");
  }
  obs::ScopeTimer timer(ServerCounters::get().repair_ns);
  const auto parents = matrix_.parents(node);
  const auto children = matrix_.children(node);
  matrix_.erase_row(node);

  ++stats_.repairs;
  stats_.control_messages += parents.size() + children.size();
  ServerCounters::get().repairs.inc();
  ServerCounters::get().control.inc(parents.size() + children.size());
  obs::trace().emit(obs::TraceKind::kRepair, node, parents.size(),
                    children.size(), {}, span);
}

std::optional<ColumnId> CurtainServer::congestion_offload(NodeId node) {
  const Row& r = matrix_.row(node);
  if (r.threads.size() <= 1) return std::nullopt;
  const ColumnId column = r.threads[rng_.below(r.threads.size())];
  matrix_.drop_thread(node, column);

  ++stats_.congestion_offloads;
  // node's notice + redirect orders to the column's parent and child.
  stats_.control_messages += 3;
  ServerCounters::get().control.inc(3);
  obs::trace().emit(obs::TraceKind::kCongestionOffload, node, column);
  return column;
}

std::optional<ColumnId> CurtainServer::congestion_restore(NodeId node) {
  const Row& r = matrix_.row(node);
  if (r.threads.size() >= matrix_.k()) return std::nullopt;
  std::vector<ColumnId> zeros;
  zeros.reserve(matrix_.k() - r.threads.size());
  for (ColumnId c = 0; c < matrix_.k(); ++c) {
    if (!std::binary_search(r.threads.begin(), r.threads.end(), c)) {
      zeros.push_back(c);
    }
  }
  const ColumnId column = zeros[rng_.below(zeros.size())];
  matrix_.add_thread(node, column);

  ++stats_.congestion_restores;
  stats_.control_messages += 3;
  ServerCounters::get().control.inc(3);
  obs::trace().emit(obs::TraceKind::kCongestionRestore, node, column);
  return column;
}

}  // namespace ncast::overlay
