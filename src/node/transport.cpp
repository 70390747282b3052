#include "node/transport.hpp"

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ncast::node {

namespace {

// Process-wide transport counters (aggregated across every Transport in the
// process; the per-instance accessors stay exact). Cached once — registry
// entries are never deallocated.
struct NetCounters {
  obs::Counter& sent = obs::metrics().counter("net.messages_sent");
  obs::Counter& dropped = obs::metrics().counter("net.messages_dropped");
  obs::Counter& control = obs::metrics().counter("net.messages_control");
  obs::Counter& data = obs::metrics().counter("net.messages_data");
  obs::Counter& keepalive = obs::metrics().counter("net.messages_keepalive");
  obs::Counter& control_dropped = obs::metrics().counter("net.control_dropped");
  obs::Counter& control_bytes = obs::metrics().counter("net.control_bytes");
  obs::Counter& data_bytes = obs::metrics().counter("net.data_bytes");

  static NetCounters& get() {
    // ncast:shared(holds internally synchronized obs::Counter references; magic-static init is thread-safe)
    static NetCounters c;
    return c;
  }
};

}  // namespace

const char* to_string(DropReason reason) {
  switch (reason) {
    case DropReason::kCrashed: return "crashed";
    case DropReason::kLoss: return "loss";
    case DropReason::kPartition: return "partition";
    case DropReason::kBlackhole: return "blackhole";
    case DropReason::kUnattached: return "unattached";
  }
  return "unknown";
}

void Transport::send(Message m) {
  NetCounters& reg = NetCounters::get();
  ++sent_;
  reg.sent.inc();
  if (m.type == MessageType::kData) {
    ++data_;
    reg.data.inc();
    // Real serialized size: m.wire holds the framed packet (v1 or v2), so
    // this is exact for every structure, unlike a header+coeffs estimate.
    const std::size_t bytes = m.wire.size();
    data_bytes_ += bytes;
    reg.data_bytes.inc(bytes);
    // Data-plane send event; the engine keeps the trace clock at the current
    // sim time, so these interleave with overlay control events.
    obs::trace().emit(obs::TraceKind::kPacketSend, m.from, m.to, 0, {},
                      m.span);
  } else if (is_data_plane(m)) {  // a keepalive or a have
    ++keepalive_;
    reg.keepalive.inc();
  } else {
    ++control_;
    reg.control.inc();
    const std::size_t bytes = m.control_size();
    control_bytes_ += bytes;
    reg.control_bytes.inc(bytes);
    // Control-plane lifecycle: send, then (in the concrete fabric) deliver
    // or drop-with-reason. Each carries the message's span so an episode's
    // wire traffic reconstructs by span id.
    obs::trace().emit(obs::TraceKind::kMsgSend, m.from, m.to,
                      static_cast<std::uint64_t>(m.type), {}, m.span);
  }
  route(std::move(m));
}

void Transport::note_dropped(const Message& m, DropReason reason) {
  NetCounters& reg = NetCounters::get();
  ++dropped_;
  reg.dropped.inc();
  if (!is_data_plane(m)) {
    ++control_dropped_;
    reg.control_dropped.inc();
  }
  // Reason strings are short (<= 15 chars): small-string optimized, so the
  // drop path stays allocation-free.
  obs::trace().emit(obs::TraceKind::kMsgDrop, m.from, m.to,
                    static_cast<std::uint64_t>(m.type), to_string(reason),
                    m.span);
}

}  // namespace ncast::node
