#include "node/server_node.hpp"

#include <algorithm>
#include <optional>

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

void ServerNode::rewire(overlay::NodeId parent, overlay::ColumnId column,
                        overlay::NodeId child, obs::SpanId span) {
  const bool feed = child != overlay::kNoNode;
  if (parent == overlay::kServerNode) {
    if (feed) {
      stream_.feed(column, child);
    } else {
      stream_.unfeed(column);
    }
    return;
  }
  Message msg;
  msg.type = feed ? MessageType::kAttachChild : MessageType::kDetachChild;
  msg.from = kServerAddress;
  msg.to = parent;
  msg.column = column;
  if (feed) msg.subject = child;
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
  // its hanging end. Neither the rewiring (which belongs to the join
  // episode) nor the accept touches the matrix, so the row stays valid.
  const overlay::Row row = matrix().row(addr);
  for (std::size_t i = 0; i < row.threads.size(); ++i) {
    rewire(row.up[i], row.threads[i], addr, m.span);
  }
  send_accept(addr, row.threads, m.span);
}

void ServerNode::splice_out(Address addr, obs::SpanId span, bool repair) {
  // The links are read before the row deletion below frees them.
  const overlay::Row row = matrix().row(addr);
  for (std::size_t i = 0; i < row.threads.size(); ++i) {
    rewire(row.up[i], row.threads[i], row.down[i], span);
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
  const overlay::Row row = matrix().row(m.from);
  const auto slot =
      std::lower_bound(row.threads.begin(), row.threads.end(), m.column);
  if (slot == row.threads.end() || *slot != m.column) {
    // A complaint about a column the complainer does not clip: an offload
    // took it, or a re-admission handed out fresh columns before the client
    // learned of them (or the column is not even < k). Walking up from its
    // row would convict whichever row above happens to clip that column — a
    // bystander. Instead resend its current accept, as for a duplicate
    // hello: if the client missed its re-admission accept, this is the only
    // message that repairs its view of its own columns.
    send_accept(m.from, row.threads, m.span);
    return;
  }
  const Address parent = row.up[slot - row.threads.begin()];
  if (parent == overlay::kServerNode) return;  // the server does not crash
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
  const auto shed = curtain_.congestion_offload(addr);
  if (!shed) return;  // cannot shed the last thread

  // The shedding node stops receiving and stops serving this column.
  Message dropped;
  dropped.type = MessageType::kColumnDropped;
  dropped.from = kServerAddress;
  dropped.to = addr;
  dropped.column = shed->column;
  net_->send(std::move(dropped));

  // Join the column's parent and child directly across the shedding node.
  rewire(shed->up, shed->column, shed->down, obs::kNoSpan);
}

void ServerNode::handle_restore(const Message& m) {
  const Address addr = m.from;
  if (!matrix().contains(addr)) return;
  const auto gained = curtain_.congestion_restore(addr);
  if (!gained) return;  // already clipping everything

  // Splice the node into the column at its curtain position: its parent now
  // feeds it, and it now feeds the next clipper below (if any).
  Message added;
  added.type = MessageType::kColumnAdded;
  added.from = kServerAddress;
  added.to = addr;
  added.column = gained->column;
  // Whom to feed (the server's address = nobody).
  added.subject = gained->down == overlay::kNoNode ? kServerAddress : gained->down;
  net_->send(std::move(added));

  rewire(gained->up, gained->column, addr, obs::kNoSpan);
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
