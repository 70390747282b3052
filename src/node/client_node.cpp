#include "node/client_node.hpp"

#include <algorithm>
#include <stdexcept>

namespace ncast::node {

namespace {

// Process-wide retry counters. Cached once.
struct RetryCounters {
  obs::Counter& join_retries = obs::metrics().counter("protocol.join_retries");
  obs::Counter& complaint_retries =
      obs::metrics().counter("protocol.complaint_retries");

  static RetryCounters& get() {
    // ncast:shared(holds internally synchronized obs::Counter references; magic-static init is thread-safe)
    static RetryCounters c;
    return c;
  }
};

}  // namespace

ClientNode::ClientNode(Address address, ClientConfig config)
    : address_(address),
      config_(config),
      rng_(config.seed ^ (static_cast<std::uint64_t>(address) << 20)) {
  if (address == kServerAddress) {
    throw std::invalid_argument("ClientNode: address 0 is the server");
  }
}

std::vector<std::uint8_t> ClientNode::data() const {
  if (!decoded()) throw std::logic_error("ClientNode::data: incomplete");
  return stream_.data();
}

void ClientNode::crash() {
  crashed_ = true;
  // A fault plan may crash (or retire) a client before its join fires; an
  // endpoint that never started has no timers to cancel.
  if (engine_) {
    engine_->cancel(join_timer_);
    engine_->cancel(serve_timer_);
    for (const Feed& f : feeds_) engine_->cancel(f.silence);
  }
}

void ClientNode::join() {
  if (join_sent_time_ < 0.0) {
    join_sent_time_ = engine_->now();
    // The join episode's span: opened at the first hello, carried by every
    // retransmission and by the server's accept, referenced by the node's
    // rank advances — the trace's reconstruction key for this join.
    join_span_ = obs::trace().new_span();
    obs::trace().emit(obs::TraceKind::kSpanBegin, address_, 0, 0, "join",
                      join_span_);
  }
  Message m;
  m.type = MessageType::kJoinRequest;
  m.from = address_;
  m.to = kServerAddress;
  m.subject = join_degree_;  // 0 = server default
  m.span = join_span_;
  net_->send(std::move(m));
}

void ClientNode::leave(Transport& net) {
  Message m;
  m.type = MessageType::kGoodbye;
  m.from = address_;
  m.to = kServerAddress;
  net.send(std::move(m));
  // Retire: once the good-bye is out, the server splices us from the
  // curtain, our feeds legitimately stop, and our children are reattached
  // upstream — so neither a complaint nor another served packet from this
  // node is meaningful.
  departed_ = true;
  stream_.unfeed_all();
  adopt({});  // give every in-thread up
  if (engine_) engine_->cancel(join_timer_);
}

void ClientNode::start(sim::Scheduler& engine, AttachableTransport& net,
                       std::uint32_t degree) {
  engine_ = &engine;
  net_ = &net;
  join_degree_ = degree;
  net.attach(address_, this);
  join();
  schedule_join_retry(config_.join_retry);
  serve_timer_ = engine.schedule_in(1.0, [this] { event_tick(); },
                                    sim::TimerClass::kServe);
}

void ClientNode::schedule_join_retry(double delay) {
  join_timer_ = engine_->schedule_in(
      delay,
      [this, delay] {
        if (joined_ || crashed_) return;
        ++join_retries_;
        RetryCounters::get().join_retries.inc();
        obs::trace().emit(obs::TraceKind::kMsgRetry, address_, join_retries_,
                          static_cast<std::uint64_t>(MessageType::kJoinRequest),
                          {}, join_span_);
        join();
        // Doubling backoff, capped: a congested server is not helped by a
        // thundering herd of hellos, but the client must never give up.
        const double cap = config_.join_retry *
                           static_cast<double>(1u << kMaxBackoffExp);
        schedule_join_retry(std::min(delay * 2.0, cap));
      },
      sim::TimerClass::kJoinRetry);
}

void ClientNode::event_tick() {
  if (crashed_ || departed_) return;  // the serve loop dies with the node
  stream_.serve(address_, *net_, rng_);
  serve_timer_ = engine_->schedule_in(1.0, [this] { event_tick(); },
                                      sim::TimerClass::kServe);
}

ClientNode::Feed* ClientNode::feed(overlay::ColumnId column) {
  for (Feed& f : feeds_) {
    if (f.column == column) return &f;
  }
  return nullptr;
}

void ClientNode::clip(overlay::ColumnId column) {
  if (!joined_ || departed_) return;  // from the first accept to good-bye
  if (feed(column) == nullptr) feeds_.push_back(Feed{column});
  note_liveness(column);
}

void ClientNode::adopt(const std::vector<overlay::ColumnId>& columns) {
  for (Feed& f : feeds_) stop(f);
  feeds_.clear();
  // Arm in the accept's order: equal-time silence timers fire in the order
  // they were armed, and the order of complaints fixes the sender's draws.
  for (overlay::ColumnId c : columns) clip(c);
}

void ClientNode::stop(Feed& f) {
  engine_->cancel(f.silence);
  end_complaint_span(f);
}

void ClientNode::note_liveness(overlay::ColumnId column) {
  Feed* f = feed(column);
  if (f == nullptr) return;  // a frame on a column this node does not clip
  f->streak = 0;
  end_complaint_span(*f);
  arm_silence(*f);
}

void ClientNode::end_complaint_span(Feed& f) {
  if (f.complaint_span == obs::kNoSpan) return;
  obs::trace().emit(obs::TraceKind::kSpanEnd, address_, f.column, 0,
                    "complaint", f.complaint_span);
  f.complaint_span = obs::kNoSpan;
}

void ClientNode::arm_silence(Feed& f) {
  engine_->cancel(f.silence);
  const std::uint32_t exp = std::min(f.streak, kMaxBackoffExp);
  const double delay =
      static_cast<double>(config_.silence_timeout) * static_cast<double>(1u << exp);
  f.silence = engine_->schedule_in(
      delay, [this, column = f.column] { silence_fired(column); },
      sim::TimerClass::kSilence);
}

void ClientNode::silence_fired(overlay::ColumnId column) {
  // Giving a column up cancels its timer, so the feed is still there.
  Feed& f = *feed(column);
  if (f.complaint_span == obs::kNoSpan) {
    // A fresh outage opens its own span, parented on the join span so the
    // node's whole history hangs off one tree.
    f.complaint_span = obs::trace().new_span();
    obs::trace().emit(obs::TraceKind::kSpanBegin, address_, column, 0,
                      "complaint", f.complaint_span, join_span_);
  }
  Message complaint;
  complaint.type = MessageType::kComplaint;
  complaint.from = address_;
  complaint.to = kServerAddress;
  complaint.column = column;
  // The hello's degree request rides along: if this node was evicted by a
  // false-positive repair, the server re-admits it at the width it asked for.
  complaint.subject = join_degree_;
  complaint.span = f.complaint_span;
  net_->send(std::move(complaint));
  ++complaints_sent_;
  if (f.streak > 0) {
    // Same outage, another complaint: either the complaint or the repair's
    // effect got lost on the control plane — retransmit with backoff.
    RetryCounters::get().complaint_retries.inc();
    obs::trace().emit(obs::TraceKind::kMsgRetry, address_, f.streak,
                      static_cast<std::uint64_t>(MessageType::kComplaint), {},
                      f.complaint_span);
  }
  if (f.streak < kMaxBackoffExp) ++f.streak;
  arm_silence(f);
}

void ClientNode::handle_accept(const Message& m) {
  if (joined_) {
    // Not necessarily a duplicate: the server re-admits an orphaned member
    // (evicted by a false-positive repair) by answering its complaint with
    // a fresh accept. Give the old columns up, adopt the new ones and keep
    // the decode progress; a true duplicate accept (same columns) just
    // restarts every feed's silence clock. An accept with no body assigns
    // no columns.
    if (const MessageBody* b = m.body()) {
      adopt(b->columns);
    } else {
      adopt({});
    }
    return;
  }
  // The stream announcement is untrusted wire data: a nonsense plan or
  // structure descriptor is ignored like any other malformed accept.
  if (!stream_.initialize(m)) return;
  joined_ = true;
  joined_time_ = engine_->now();
  engine_->cancel(join_timer_);
  // The accept closes the join episode the first hello opened.
  obs::trace().emit(obs::TraceKind::kSpanEnd, address_, 0, 0, "join",
                    join_span_);
  adopt(m.body()->columns);  // initialize() refused an accept with no body
}

void ClientNode::handle_data(const Message& m) {
  // Any well-formed-enough frame proves the feed is alive, even if its
  // content turns out to be garbage; verification happens inside absorb.
  note_liveness(m.column);
  const std::size_t rank_before = stream_.rank();
  // A departed node still absorbs what was in flight, but answers no frame
  // with a have: good-bye means gone.
  const bool accepted = departed_ ? stream_.absorb_wire(m.wire)
                                  : stream_.receive(address_, m, *net_);
  if (accepted) {
    ++packets_received_;
    const std::size_t rank_after = stream_.rank();
    if (rank_after > rank_before) {
      // Rank advances reference the join span: the decode-to-full-rank path
      // hangs off the same tree as the hello/accept exchange.
      obs::trace().emit(obs::TraceKind::kRankAdvance, address_, rank_after, 0,
                        {}, join_span_);
    }
    if (decode_time_ < 0.0 && stream_.decoded()) {
      decode_time_ = engine_->now();
      if (joined_time_ >= 0.0) {
        // ncast:shared(reference to a registry histogram, which locks internally; magic-static init is thread-safe)
        static obs::Histogram& decode_delay =
            obs::metrics().histogram("protocol.decode_delay");
        decode_delay.observe(decode_time_ - joined_time_);
      }
    }
  } else {
    ++packets_rejected_;
  }
}

void ClientNode::request_offload(Transport& net) {
  Message m;
  m.type = MessageType::kCongestionOffload;
  m.from = address_;
  m.to = kServerAddress;
  net.send(std::move(m));
}

void ClientNode::request_restore(Transport& net) {
  Message m;
  m.type = MessageType::kCongestionRestore;
  m.from = address_;
  m.to = kServerAddress;
  net.send(std::move(m));
}

void ClientNode::on_message(const Message& m) {
  if (crashed_) return;  // drain silently
  switch (m.type) {
    case MessageType::kJoinAccept:
      handle_accept(m);
      break;
    case MessageType::kAttachChild:
      stream_.feed(m.column, m.subject);
      break;
    case MessageType::kDetachChild:
      stream_.unfeed(m.column);
      break;
    case MessageType::kData:
      handle_data(m);
      break;
    case MessageType::kKeepalive:
      // Liveness without payload: a healthy parent with nothing to send
      // (its buffer is still empty, or this node has all it has). Resets
      // the silence clock, carries no information.
      note_liveness(m.column);
      break;
    case MessageType::kHave:
      stream_.apply_have(m);
      break;
    case MessageType::kColumnDropped:
      // Congestion offload granted: stop receiving and serving the column.
      if (Feed* f = feed(m.column)) {
        stop(*f);
        feeds_.erase(feeds_.begin() + (f - feeds_.data()));
      }
      stream_.unfeed(m.column);
      break;
    case MessageType::kColumnAdded:
      // Congestion restore granted: start receiving on the column and, if
      // the server named a downstream clipper, start serving it.
      clip(m.column);
      if (m.subject != kServerAddress) stream_.feed(m.column, m.subject);
      break;
    default:
      break;
  }
}

}  // namespace ncast::node
