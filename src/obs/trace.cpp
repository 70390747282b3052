#include "obs/trace.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace ncast::obs {

const char* to_string(TraceKind kind) {
  switch (kind) {
    case TraceKind::kJoin: return "join";
    case TraceKind::kLeave: return "leave";
    case TraceKind::kCrash: return "crash";
    case TraceKind::kRepair: return "repair";
    case TraceKind::kDefect: return "defect";
    case TraceKind::kPacketSend: return "packet_send";
    case TraceKind::kRankAdvance: return "rank_advance";
    case TraceKind::kCongestionOffload: return "congestion_offload";
    case TraceKind::kCongestionRestore: return "congestion_restore";
    case TraceKind::kMsgSend: return "msg_send";
    case TraceKind::kMsgDeliver: return "msg_deliver";
    case TraceKind::kMsgDrop: return "msg_drop";
    case TraceKind::kMsgRetry: return "msg_retry";
    case TraceKind::kSpanBegin: return "span_begin";
    case TraceKind::kSpanEnd: return "span_end";
  }
  return "unknown";
}

TraceBuffer::TraceBuffer(std::size_t capacity) : ring_(capacity) {
  if (capacity == 0) throw std::invalid_argument("TraceBuffer: zero capacity");
}

void TraceBuffer::emit(TraceKind kind, std::uint64_t node, std::uint64_t a,
                       std::uint64_t b, std::string detail, SpanId span,
                       SpanId parent) {
#if NCAST_OBS_ENABLED
  while (lock_.test_and_set(std::memory_order_acquire)) {
  }
  if (size_ == ring_.size()) {
    // Overwriting the oldest retained event. The registry counter is the
    // cheap cross-check bench telemetry snapshots; dropped_ feeds the export
    // header so a truncated trace file carries its own warning.
    ++dropped_;
    static Counter& dropped_ctr = metrics().counter("trace.dropped_events");
    dropped_ctr.inc();
  }
  TraceEvent& e = ring_[next_];
  e.t = tl_now_;
  e.kind = kind;
  e.node = node;
  e.a = a;
  e.b = b;
  e.span = span;
  e.parent = parent;
  e.detail = std::move(detail);
  next_ = (next_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++total_;
  lock_.clear(std::memory_order_release);
#else
  (void)kind; (void)node; (void)a; (void)b; (void)detail;
  (void)span; (void)parent;
#endif
}

std::vector<TraceEvent> TraceBuffer::events_in_order() const {
  std::vector<TraceEvent> out;
  out.reserve(size_);
  // Oldest retained event: when full, the slot about to be overwritten.
  const std::size_t start = size_ < ring_.size() ? 0 : next_;
  for (std::size_t i = 0; i < size_; ++i) {
    out.push_back(ring_[(start + i) % ring_.size()]);
  }
  return out;
}

std::string TraceBuffer::to_jsonl() const {
  std::string out;
  {
    JsonWriter w;
    w.begin_object();
    w.key("schema").value("ncast.trace.v1");
    w.key("capacity").value(static_cast<std::uint64_t>(ring_.size()));
    w.key("total_emitted").value(total_);
    w.key("dropped_events").value(dropped_);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  for (const TraceEvent& e : events_in_order()) {
    JsonWriter w;
    w.begin_object();
    w.key("t").value(e.t);
    w.key("kind").value(to_string(e.kind));
    w.key("node").value(e.node);
    w.key("a").value(e.a);
    w.key("b").value(e.b);
    if (e.span != kNoSpan) w.key("span").value(e.span);
    if (e.parent != kNoSpan) w.key("parent").value(e.parent);
    if (!e.detail.empty()) w.key("detail").value(e.detail);
    w.end_object();
    out += w.str();
    out += '\n';
  }
  return out;
}

bool TraceBuffer::write_jsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string body = to_jsonl();
  const std::size_t written = std::fwrite(body.data(), 1, body.size(), f);
  const bool ok = written == body.size() && std::fclose(f) == 0;
  if (!ok && written != body.size()) std::fclose(f);
  return ok;
}

void TraceBuffer::clear() {
  for (TraceEvent& e : ring_) e = TraceEvent{};
  next_ = 0;
  size_ = 0;
  total_ = 0;
  dropped_ = 0;
}

TraceBuffer& trace() {
  static TraceBuffer buffer;
  return buffer;
}

}  // namespace ncast::obs
