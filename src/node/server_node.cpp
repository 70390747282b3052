#include "node/server_node.hpp"

#include <algorithm>

namespace ncast::node {

ServerNode::ServerNode(ServerConfig config, std::vector<std::uint8_t> data)
    : config_(config),
      curtain_(config.k, config.default_degree, Rng(config.seed)),
      emit_rng_(sim::RngStreams(config.seed).stream("node.server.emit")) {
  // One key set per generation, generated once and handed to every joiner
  // over the control channel. Key generation draws from its own derived
  // stream so enabling verification cannot shift membership picks.
  Rng key_rng = sim::RngStreams(config_.seed).stream("node.server.keys");
  stream_.initialize_source(std::move(data), config_.generation_size,
                            config_.symbols, config_.structure,
                            config_.null_keys, key_rng);
}

void ServerNode::start(sim::Scheduler& engine, AttachableTransport& net) {
  engine_ = &engine;
  net_ = &net;
  net.attach(kServerAddress, this);
  emit_timer_ = engine.schedule_in(1.0, [this] { event_tick(); },
                                   sim::TimerClass::kEmit);
}

void ServerNode::event_tick() {
  stream_.serve(kServerAddress, *net_, emit_rng_);
  emit_timer_ = engine_->schedule_in(1.0, [this] { event_tick(); },
                                     sim::TimerClass::kEmit);
}

Address ServerNode::parent_on_column(Address addr,
                                     overlay::ColumnId column) const {
  const overlay::NodeId p = matrix().parent_on_column(addr, column);
  return p == overlay::kServerNode ? kServerAddress : p;
}

std::optional<Address> ServerNode::child_on_column(
    Address addr, overlay::ColumnId column) const {
  const overlay::NodeId c = matrix().child_on_column(addr, column);
  if (c == overlay::kNoNode) return std::nullopt;
  return c;
}

void ServerNode::send_accept(Address addr, overlay::ThreadSpan columns,
                             obs::SpanId span) {
  Message accept;
  accept.type = MessageType::kJoinAccept;
  accept.from = kServerAddress;
  accept.to = addr;
  accept.span = span;
  accept.mutable_body().columns.assign(columns.begin(), columns.end());
  stream_.announce(accept);
  net_->send(std::move(accept));
}

void ServerNode::rewire(Address parent, overlay::ColumnId column,
                        std::optional<Address> child, obs::SpanId span) {
  if (parent == kServerAddress) {
    if (child) {
      stream_.feed(column, *child);
    } else {
      stream_.unfeed(column);
    }
    return;
  }
  Message msg;
  msg.type = child ? MessageType::kAttachChild : MessageType::kDetachChild;
  msg.from = kServerAddress;
  msg.to = parent;
  msg.column = column;
  if (child) msg.subject = *child;
  msg.span = span;
  net_->send(std::move(msg));
}

void ServerNode::handle_join(const Message& m) {
  const Address addr = m.from;
  if (matrix().contains(addr)) {
    // Duplicate hello: the accept was lost (or is still in flight) and the
    // client retried. Joining is idempotent — resend the accept with the
    // already-assigned columns instead of leaving the client stranded. The
    // resend rides the retried hello's span, so the retry chain stays whole.
    send_accept(addr, matrix().row(addr).threads, m.span);
    return;
  }

  // Heterogeneous bandwidths (Section 5): the hello may carry a requested
  // degree in `subject`; 0 (or anything past k) means "use the default".
  std::optional<std::uint32_t> degree;
  if (m.subject >= 1 && m.subject <= config_.k) {
    degree = static_cast<std::uint32_t>(m.subject);
  }
  curtain_.join_as(addr, degree, m.span);

  // The row was appended, so each column's parent is the clipper that held
  // its hanging end. Materialize: the row's columns are a borrowed span.
  const auto columns = matrix().row(addr).threads.to_vector();
  for (overlay::ColumnId c : columns) {
    // The rewiring belongs to the join episode.
    rewire(parent_on_column(addr, c), c, addr, m.span);
  }
  send_accept(addr, columns, m.span);
}

void ServerNode::splice_out(Address addr, obs::SpanId span, bool repair) {
  // Materialize: `threads` is a borrowed span and the row deletion below
  // frees it.
  const auto columns = matrix().row(addr).threads.to_vector();
  for (overlay::ColumnId c : columns) {
    rewire(parent_on_column(addr, c), c, child_on_column(addr, c), span);
  }
  if (repair) {
    curtain_.repair(addr, span);
  } else {
    curtain_.leave(addr, span);
  }
}

void ServerNode::finish_repair(Address addr, obs::SpanId span) {
  repairs_.erase(addr);
  splice_out(addr, span, /*repair=*/true);
  last_repair_time_ = engine_->now();
  obs::trace().emit(obs::TraceKind::kSpanEnd, addr, 0, 0, "repair", span);
}

void ServerNode::handle_goodbye(const Message& m) {
  if (!matrix().contains(m.from)) return;
  splice_out(m.from, m.span, /*repair=*/false);
  // A good-bye can race an already-scheduled repair of the same node: the
  // leave ends that episode, so its timer is cancelled and its span closed.
  const auto it = repairs_.find(m.from);
  if (it != repairs_.end()) {
    engine_->cancel(it->second.timer);
    obs::trace().emit(obs::TraceKind::kSpanEnd, m.from, 0, 0, "repair",
                      it->second.span);
    repairs_.erase(it);
  }
}

void ServerNode::handle_complaint(const Message& m) {
  if (!matrix().contains(m.from)) {
    // A complaint from a node the matrix no longer tracks: the node was
    // spliced out by a false-positive repair (a lost attach starved its
    // child, the child complained, and this node — alive all along, as the
    // complaint in hand proves — was presumed crashed). Without re-admission
    // it is a permanent orphan: nobody feeds it and every further complaint
    // lands right here. Re-admit it through the normal join path — fresh
    // columns at the degree it first asked for (the complaint carries it),
    // idempotent accept on the client side.
    Message rejoin;
    rejoin.type = MessageType::kJoinRequest;
    rejoin.from = m.from;
    rejoin.to = kServerAddress;
    rejoin.subject = m.subject;
    rejoin.span = m.span;
    handle_join(rejoin);
    return;
  }
  const auto threads = matrix().row(m.from).threads;
  if (!std::binary_search(threads.begin(), threads.end(), m.column)) {
    // A complaint about a column the complainer does not clip: an offload
    // took it, or a re-admission handed out fresh columns before the client
    // learned of them (or the column is not even < k). Walking up from its
    // row would convict whichever row above happens to clip that column — a
    // bystander. Instead resend its current accept, as for a duplicate
    // hello: if the client missed its re-admission accept, this is the only
    // message that repairs its view of its own columns.
    send_accept(m.from, threads, m.span);
    return;
  }
  const Address parent = parent_on_column(m.from, m.column);
  if (parent == kServerAddress) return;  // the server does not crash
  if (matrix().row(parent).failed) return;  // repair already scheduled
  // The repair episode: a child span of the triggering complaint, open from
  // here until the splice completes.
  const obs::SpanId span = obs::trace().new_span();
  obs::trace().emit(obs::TraceKind::kSpanBegin, parent, m.column, m.from,
                    "repair", span, m.span);
  curtain_.report_failure(parent, span);
  const sim::TimerHandle timer = engine_->schedule_in(
      config_.repair_delay,
      [this, parent, span] { finish_repair(parent, span); },
      sim::TimerClass::kRepair);
  repairs_[parent] = Repair{timer, span};
}

void ServerNode::handle_offload(const Message& m) {
  const Address addr = m.from;
  if (!matrix().contains(addr)) return;
  const auto column = curtain_.congestion_offload(addr);
  if (!column) return;  // cannot shed the last thread

  // The shedding node stops receiving and stops serving this column.
  Message dropped;
  dropped.type = MessageType::kColumnDropped;
  dropped.from = kServerAddress;
  dropped.to = addr;
  dropped.column = *column;
  net_->send(std::move(dropped));

  // Join the column's parent and child directly across the shedding node:
  // the nearest clippers above and below its row are the same after the
  // drop as before it.
  rewire(parent_on_column(addr, *column), *column,
         child_on_column(addr, *column), obs::kNoSpan);
}

void ServerNode::handle_restore(const Message& m) {
  const Address addr = m.from;
  if (!matrix().contains(addr)) return;
  const auto column = curtain_.congestion_restore(addr);
  if (!column) return;  // already clipping everything

  // Splice the node into the column at its curtain position: its parent now
  // feeds it, and it now feeds the next clipper below (if any).
  const auto next = child_on_column(addr, *column);
  Message added;
  added.type = MessageType::kColumnAdded;
  added.from = kServerAddress;
  added.to = addr;
  added.column = *column;
  added.subject = next ? *next : kServerAddress;  // whom to feed (server = none)
  net_->send(std::move(added));

  rewire(parent_on_column(addr, *column), *column, addr, obs::kNoSpan);
}

void ServerNode::on_message(const Message& m) {
  switch (m.type) {
    case MessageType::kJoinRequest:
      handle_join(m);
      break;
    case MessageType::kGoodbye:
      handle_goodbye(m);
      break;
    case MessageType::kComplaint:
      handle_complaint(m);
      break;
    case MessageType::kCongestionOffload:
      handle_offload(m);
      break;
    case MessageType::kCongestionRestore:
      handle_restore(m);
      break;
    case MessageType::kHave:
      stream_.apply_have(m);
      break;
    default:
      break;  // the server ignores data and stray control
  }
}

}  // namespace ncast::node
