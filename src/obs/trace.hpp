#pragma once
// Structured trace: a bounded ring buffer of typed protocol events stamped
// with simulation time. The overlay server, the churn driver, and the
// packet-level simulators emit into the process-wide buffer; when it fills,
// the oldest events are overwritten (the tail of a run is what post-mortems
// need) and trace.dropped_events counts the loss so a truncated post-mortem
// is detectable. Export is JSONL — a schema header line followed by one JSON
// object per event — so runs can be grepped and diffed without a parser; the
// Chrome trace_event exporter (obs/trace_event.hpp) renders the same buffer
// for Perfetto / chrome://tracing.
//
// Causality: events may carry a span id and a parent span id. A span groups
// every event of one protocol episode — a join (hello, retransmissions,
// accept, first rank advances), a complaint/repair cycle — and the parent
// link turns related spans into a tree. Span ids are allocated from a
// process-wide sequence (new_span()) and never reused; 0 means "no span".

#ifndef NCAST_OBS_ENABLED
#define NCAST_OBS_ENABLED 1
#endif

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

namespace ncast::obs {

/// Span identifier. 0 is "no span"; real ids start at 1.
using SpanId = std::uint64_t;
inline constexpr SpanId kNoSpan = 0;

/// Event vocabulary. Kept deliberately small: one enum across the stack so a
/// single trace interleaves overlay control events with data-plane progress
/// and message-plane lifecycle.
enum class TraceKind : std::uint8_t {
  kJoin,               ///< node joined the overlay (a = degree)
  kLeave,              ///< graceful good-bye (a = parents, b = children)
  kCrash,              ///< failure reported / node crashed
  kRepair,             ///< repair procedure completed for a failed node
  kDefect,             ///< defect (broken-thread deficiency) observation (a = defect)
  kPacketSend,         ///< coded packet sent (node = sender, a = receiver)
  kRankAdvance,        ///< receiver's decoder rank increased (a = new rank)
  kCongestionOffload,  ///< node dropped a thread under load (a = column)
  kCongestionRestore,  ///< node re-acquired a thread (a = column)
  // Message-plane lifecycle (PR 6): the causal skeleton of the event-driven
  // protocol. node/a/b = from/to/message type unless noted.
  kMsgSend,     ///< control message handed to the transport
  kMsgDeliver,  ///< control message delivered to its endpoint
  kMsgDrop,     ///< message lost (detail = reason: loss/partition/crash/...)
  kMsgRetry,    ///< sender retransmitted (a = attempt number, b = msg type)
  kSpanBegin,   ///< a protocol episode opened (detail = span name)
  kSpanEnd,     ///< the episode closed (detail = span name)
};

const char* to_string(TraceKind kind);

/// One trace record. `node`, `a`, `b` are kind-dependent numeric payloads
/// (see TraceKind comments); `detail` is optional free text, JSON-escaped on
/// export. `span`/`parent` carry the causal links (kNoSpan = unlinked).
/// Keeping the payload numeric keeps hot-path emission cheap.
struct TraceEvent {
  double t = 0.0;
  TraceKind kind = TraceKind::kJoin;
  std::uint64_t node = 0;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  SpanId span = kNoSpan;
  SpanId parent = kNoSpan;
  std::string detail;
};

/// Fixed-capacity ring buffer of TraceEvents with a settable clock. The
/// simulation driver calls set_now() as virtual time advances; emitters
/// stamp events with the current reading. With NCAST_OBS disabled, emit()
/// is a no-op and the buffer stays empty.
///
/// Thread-safety: emit() takes a per-buffer spinlock and the span sequence
/// is an atomic, so sharded-kernel workers can emit concurrently. The clock
/// is per thread (and shared by every buffer on that thread): each worker
/// stamps its events with the time it set, so stamps are exact under any
/// worker count, while the ring holds events in emission order, which is
/// time order only on a one-shard, no-worker run. Readers (to_jsonl,
/// events_in_order) are meant to run after workers have joined.
class TraceBuffer {
 public:
  explicit TraceBuffer(std::size_t capacity = 8192);

  /// Movable for by-value construction in tests/tools. Never move a buffer
  /// other threads are emitting into.
  TraceBuffer(TraceBuffer&& o) noexcept
      : ring_(std::move(o.ring_)),
        next_(o.next_),
        size_(o.size_),
        total_(o.total_),
        dropped_(o.dropped_),
        span_seq_(o.span_seq_.load(std::memory_order_relaxed)) {}

  /// Sets the timestamp applied to events this thread emits from now on.
  void set_now(double t) { tl_now_ = t; }
  double now() const { return tl_now_; }

  void emit(TraceKind kind, std::uint64_t node = 0, std::uint64_t a = 0,
            std::uint64_t b = 0, std::string detail = {},
            SpanId span = kNoSpan, SpanId parent = kNoSpan);

  /// Allocates a fresh span id (never 0, never reused). Not gated by the
  /// kill switch: span ids ride protocol messages, so their allocation must
  /// not depend on whether telemetry is compiled in.
  SpanId new_span() { return span_seq_.fetch_add(1, std::memory_order_relaxed) + 1; }

  std::size_t capacity() const { return ring_.size(); }
  /// Events currently retained (<= capacity()).
  std::size_t size() const { return size_; }
  /// Events ever emitted, including overwritten ones.
  std::uint64_t total_emitted() const { return total_; }
  /// Events lost to ring overwrite since the last clear() — when nonzero,
  /// the head of any reconstructed span tree may be missing.
  std::uint64_t dropped_events() const { return dropped_; }

  /// Retained events, oldest first.
  std::vector<TraceEvent> events_in_order() const;

  /// JSONL export ("ncast.trace.v1"): a header line
  ///   {"schema":"ncast.trace.v1","capacity":..,"total_emitted":..,
  ///    "dropped_events":..}
  /// then one object per retained event, oldest first, '\n'-terminated:
  ///   {"t":..,"kind":"join","node":..,"a":..,"b":..,
  ///    "span":..,"parent":..,"detail":".."}
  /// ("span"/"parent" omitted when kNoSpan, "detail" omitted when empty).
  std::string to_jsonl() const;

  /// Writes to_jsonl() to a file; returns false on I/O failure.
  bool write_jsonl(const std::string& path) const;

  void clear();

 private:
  std::atomic_flag lock_ = ATOMIC_FLAG_INIT;  ///< guards ring/counters in emit
  std::vector<TraceEvent> ring_;
  std::size_t next_ = 0;  // slot the next event lands in
  std::size_t size_ = 0;
  std::uint64_t total_ = 0;
  std::uint64_t dropped_ = 0;
  std::atomic<SpanId> span_seq_{0};
  inline static thread_local double tl_now_ = 0.0;
};

/// The process-wide trace buffer all instrumentation points use.
TraceBuffer& trace();

}  // namespace ncast::obs
