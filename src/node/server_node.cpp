#include "node/server_node.hpp"

#include <algorithm>

#include "coding/wire.hpp"

namespace ncast::node {

ServerNode::ServerNode(ServerConfig config, std::vector<std::uint8_t> data)
    : config_(config),
      matrix_(config.k),
      membership_rng_(config.seed),
      emit_rng_(sim::RngStreams(config.seed).stream("node.server.emit")),
      data_(std::move(data)),
      encoder_(data_, config.generation_size, config.symbols,
               config.structure) {
  if (config_.null_keys > 0) {
    // One key set per generation, generated once and handed to every joiner
    // over the control channel. Key generation draws from its own derived
    // stream so enabling verification cannot shift membership picks.
    Rng key_rng = sim::RngStreams(config_.seed).stream("node.server.keys");
    key_bundles_.reserve(encoder_.generations());
    for (std::size_t g = 0; g < encoder_.generations(); ++g) {
      const auto source = coding::generation_packets(data_, encoder_.plan(), g);
      const auto keys = coding::NullKeySet<gf::Gf256>::generate(
          static_cast<std::uint32_t>(g), source, config_.null_keys, key_rng);
      key_bundles_.push_back(keys.serialize());
    }
  }
}

void ServerNode::start(sim::Scheduler& engine, AttachableTransport& net) {
  engine_ = &engine;
  net_ = &net;
  net.attach(kServerAddress, this);
  emit_timer_ = engine.schedule_in(1.0, [this] { event_tick(); },
                                   sim::TimerClass::kEmit);
}

void ServerNode::event_tick() {
  emit_direct();
  emit_timer_ = engine_->schedule_in(1.0, [this] { event_tick(); },
                                     sim::TimerClass::kEmit);
}

Address ServerNode::parent_on_column(Address addr,
                                     overlay::ColumnId column) const {
  const overlay::NodeId p = matrix_.parent_on_column(addr, column);
  return p == overlay::kServerNode ? kServerAddress : p;
}

std::optional<Address> ServerNode::child_on_column(
    Address addr, overlay::ColumnId column) const {
  const overlay::NodeId c = matrix_.child_on_column(addr, column);
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
  accept.columns.assign(columns.begin(), columns.end());
  accept.data_size = data_.size();
  accept.gen_count = static_cast<std::uint32_t>(encoder_.generations());
  accept.gen_size = static_cast<std::uint16_t>(config_.generation_size);
  accept.symbols = static_cast<std::uint16_t>(config_.symbols);
  const coding::GenerationStructure& s = encoder_.structure();
  accept.structure_kind = static_cast<std::uint8_t>(s.kind);
  accept.band_width = static_cast<std::uint16_t>(s.band_width);
  accept.structure_wrap = s.wrap ? 1 : 0;
  accept.class_overlap = static_cast<std::uint16_t>(s.overlap);
  accept.key_bundles = key_bundles_;
  net_->send(std::move(accept));
}

void ServerNode::handle_join(const Message& m) {
  const Address addr = m.from;
  if (matrix_.contains(addr)) {
    // Duplicate hello: the accept was lost (or is still in flight) and the
    // client retried. Joining is idempotent — resend the accept with the
    // already-assigned columns instead of leaving the client stranded. The
    // resend rides the retried hello's span, so the retry chain stays whole.
    send_accept(addr, matrix_.row(addr).threads, m.span);
    return;
  }

  // Heterogeneous bandwidths (Section 5): the hello may carry a requested
  // degree in `subject`; 0 means "use the default".
  std::uint32_t degree = config_.default_degree;
  if (m.subject >= 1 && m.subject <= config_.k) {
    degree = static_cast<std::uint32_t>(m.subject);
  }
  const auto picks = membership_rng_.sample_without_replacement(config_.k, degree);
  std::vector<overlay::ColumnId> columns(picks.begin(), picks.end());
  std::sort(columns.begin(), columns.end());

  // Parents are the current hanging-end owners of the chosen columns.
  const auto ends = matrix_.hanging_ends();
  matrix_.append_row(addr, columns);
  obs::trace().emit(obs::TraceKind::kJoin, addr, degree, 0, {}, m.span);

  for (overlay::ColumnId c : columns) {
    const Address parent = ends[c].owner == overlay::kServerNode
                               ? kServerAddress
                               : ends[c].owner;
    if (parent == kServerAddress) {
      direct_children_[c] = addr;
    } else {
      Message attach;
      attach.type = MessageType::kAttachChild;
      attach.from = kServerAddress;
      attach.to = parent;
      attach.column = c;
      attach.subject = addr;
      attach.span = m.span;  // the rewiring belongs to the join episode
      net_->send(std::move(attach));
    }
  }

  send_accept(addr, columns, m.span);
}

void ServerNode::splice_out(Address addr, obs::SpanId span) {
  if (!matrix_.contains(addr)) return;
  // Materialize: `threads` is a borrowed span and erase_row() below frees it.
  const auto columns = matrix_.row(addr).threads.to_vector();

  for (overlay::ColumnId c : columns) {
    const Address parent = parent_on_column(addr, c);
    const auto next = child_on_column(addr, c);
    if (parent == kServerAddress) {
      if (next) {
        direct_children_[c] = *next;
      } else {
        direct_children_.erase(c);
      }
    } else {
      Message msg;
      msg.from = kServerAddress;
      msg.to = parent;
      msg.column = c;
      msg.span = span;
      if (next) {
        msg.type = MessageType::kAttachChild;
        msg.subject = *next;
      } else {
        msg.type = MessageType::kDetachChild;
      }
      net_->send(std::move(msg));
    }
  }
  matrix_.erase_row(addr);
  // A goodbye can race an already-scheduled repair of the same node; the
  // cancellable handle is what makes the race harmless.
  const auto timer = repair_timers_.find(addr);
  if (timer != repair_timers_.end()) {
    engine_->cancel(timer->second);
    repair_timers_.erase(timer);
  }
  // If a repair episode was open for this node and something else (a racing
  // good-bye) spliced it out, close the span here rather than leaking it.
  const auto open = repair_spans_.find(addr);
  if (open != repair_spans_.end()) {
    if (open->second != span) {
      obs::trace().emit(obs::TraceKind::kSpanEnd, addr, 0, 0, "repair",
                        open->second);
    }
    repair_spans_.erase(open);
  }
}

void ServerNode::finish_repair(Address addr) {
  repair_timers_.erase(addr);
  const auto it = repair_spans_.find(addr);
  const obs::SpanId span =
      it != repair_spans_.end() ? it->second : obs::kNoSpan;
  splice_out(addr, span);
  ++repairs_done_;
  last_repair_time_ = engine_->now();
  obs::trace().emit(obs::TraceKind::kRepair, addr, 0, 0, {}, span);
  obs::trace().emit(obs::TraceKind::kSpanEnd, addr, 0, 0, "repair", span);
}

void ServerNode::handle_goodbye(const Message& m) {
  splice_out(m.from, m.span);
}

void ServerNode::handle_complaint(const Message& m) {
  if (!matrix_.contains(m.from)) {
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
  const auto threads = matrix_.row(m.from).threads;
  if (!std::binary_search(threads.begin(), threads.end(), m.column)) {
    // A complaint about a column the complainer does not clip: an offload
    // took it, or a re-admission handed out fresh columns while timers for
    // the old ones still fire (or the column is not even < k). Walking up
    // from its row would convict whichever row above happens to clip that
    // column — a bystander. Instead resend its current accept, as for a
    // duplicate hello: if the client missed its re-admission accept, this
    // is the only message that repairs its view of its own columns.
    send_accept(m.from, threads, m.span);
    return;
  }
  const Address parent = parent_on_column(m.from, m.column);
  if (parent == kServerAddress) return;  // the server does not crash
  if (!matrix_.contains(parent)) return;
  if (matrix_.row(parent).failed) return;  // repair already scheduled
  matrix_.mark_failed(parent);
  // The repair episode: a child span of the triggering complaint, open from
  // here until the splice completes.
  const obs::SpanId span = obs::trace().new_span();
  repair_spans_[parent] = span;
  obs::trace().emit(obs::TraceKind::kSpanBegin, parent, m.column, m.from,
                    "repair", span, m.span);
  repair_timers_[parent] = engine_->schedule_in(
      static_cast<double>(config_.repair_delay),
      [this, parent] { finish_repair(parent); }, sim::TimerClass::kRepair);
}

void ServerNode::handle_offload(const Message& m) {
  const Address addr = m.from;
  if (!matrix_.contains(addr)) return;
  const auto& threads = matrix_.row(addr).threads;
  if (threads.size() <= 1) return;  // cannot shed the last thread
  const overlay::ColumnId column =
      threads[membership_rng_.below(threads.size())];

  // Join the column's parent and child directly across the shedding node.
  const Address parent = parent_on_column(addr, column);
  const auto next = child_on_column(addr, column);
  matrix_.drop_thread(addr, column);

  // The shedding node stops receiving and stops serving this column.
  Message dropped;
  dropped.type = MessageType::kColumnDropped;
  dropped.from = kServerAddress;
  dropped.to = addr;
  dropped.column = column;
  net_->send(std::move(dropped));

  if (parent == kServerAddress) {
    if (next) {
      direct_children_[column] = *next;
    } else {
      direct_children_.erase(column);
    }
  } else {
    Message msg;
    msg.from = kServerAddress;
    msg.to = parent;
    msg.column = column;
    if (next) {
      msg.type = MessageType::kAttachChild;
      msg.subject = *next;
    } else {
      msg.type = MessageType::kDetachChild;
    }
    net_->send(std::move(msg));
  }
}

void ServerNode::handle_restore(const Message& m) {
  const Address addr = m.from;
  if (!matrix_.contains(addr)) return;
  const auto& threads = matrix_.row(addr).threads;
  if (threads.size() >= config_.k) return;  // already clipping everything

  // Turn a random zero of the row into a one.
  std::vector<overlay::ColumnId> zeros;
  for (overlay::ColumnId c = 0; c < config_.k; ++c) {
    if (!std::binary_search(threads.begin(), threads.end(), c)) zeros.push_back(c);
  }
  const overlay::ColumnId column = zeros[membership_rng_.below(zeros.size())];

  // Splice the node into the column at its curtain position: its parent now
  // feeds it, and it now feeds the next clipper below (if any).
  matrix_.add_thread(addr, column);
  const Address parent = parent_on_column(addr, column);
  const auto next = child_on_column(addr, column);

  Message added;
  added.type = MessageType::kColumnAdded;
  added.from = kServerAddress;
  added.to = addr;
  added.column = column;
  added.subject = next ? *next : kServerAddress;  // whom to feed (server = none)
  net_->send(std::move(added));

  if (parent == kServerAddress) {
    direct_children_[column] = addr;
  } else {
    Message attach;
    attach.type = MessageType::kAttachChild;
    attach.from = kServerAddress;
    attach.to = parent;
    attach.column = column;
    attach.subject = addr;
    net_->send(std::move(attach));
  }
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
    default:
      break;  // the server ignores data and stray control
  }
}

void ServerNode::emit_direct() {
  // Emit one coded packet per directly-fed column, from a random generation
  // (random, not round-robin: a fixed edge order plus round-robin would lock
  // each edge into a residue class of generations).
  for (const auto& [column, child] : direct_children_) {
    Message data;
    data.type = MessageType::kData;
    data.from = kServerAddress;
    data.to = child;
    data.column = column;
    const auto gen = emit_rng_.below(encoder_.generations());
    data.wire = coding::serialize_stream(encoder_.emit(gen, emit_rng_),
                                         encoder_.structure());
    net_->send(std::move(data));
  }
}

}  // namespace ncast::node
