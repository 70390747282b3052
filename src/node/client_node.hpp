#pragma once
// The client endpoint: joins via the hello protocol, learns the stream plan
// (and optional null keys) from the join acknowledgment, receives coded
// packets on its threads, recodes onto the children the server attaches to
// it, and complains when a feed goes silent. A crashed client simply stops —
// its children's complaints drive the repair path.
//
// start() runs the endpoint on a kernel Scheduler (its lane of the sharded
// engine) with cancellable timers — a periodic serve timer, a join-retry
// timer that retransmits the hello with doubling backoff until the accept
// arrives (control links can drop it), and one silence timer per column that
// fires a complaint and re-arms with doubling backoff until data flows again.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "node/message.hpp"
#include "node/stream_state.hpp"
#include "node/transport.hpp"
#include "sim/event_engine.hpp"
#include "util/rng.hpp"

namespace ncast::node {

struct ClientConfig {
  std::uint64_t silence_timeout = 4;  ///< time without liveness -> complain
  double join_retry = 4.0;            ///< hello retransmit delay
  std::uint32_t max_backoff_exp = 4;  ///< cap retransmit doubling at 2^this
  std::uint64_t seed = 1;
};

/// Peer endpoint. The stream geometry (generations, g, symbols) arrives in
/// the join acknowledgment, so the client needs no out-of-band setup.
class ClientNode : public Endpoint {
 public:
  ClientNode(Address address, ClientConfig config);

  Address address() const { return address_; }
  bool joined() const { return joined_; }
  bool crashed() const { return crashed_; }
  bool departed() const { return departed_; }

  /// Innovative packets accumulated, summed over generations.
  std::size_t rank() const { return stream_.rank(); }
  /// Full rank in every generation.
  bool decoded() const { return stream_.decoded(); }
  /// Reconstructed content; requires decoded().
  std::vector<std::uint8_t> data() const;

  std::uint64_t complaints_sent() const { return complaints_sent_; }
  std::uint64_t packets_received() const { return packets_received_; }
  std::uint64_t packets_rejected() const { return packets_rejected_; }
  bool verification_enabled() const { return stream_.verification_enabled(); }

  /// Retry/latency observability.
  std::uint64_t join_retries() const { return join_retries_; }
  std::uint64_t complaint_retries() const { return complaint_retries_; }
  /// Causal span of this node's join episode (kNoSpan before the first
  /// hello): every hello retransmission, the accept, and the node's rank
  /// advances carry it, so the whole chain reconstructs from the trace.
  obs::SpanId join_span() const { return join_span_; }
  /// Hello-sent and accept-received times (-1 until they happen).
  double join_sent_time() const { return join_sent_time_; }
  double joined_time() const { return joined_time_; }
  /// Time the last generation reached full rank (-1 if not decoded).
  double decode_time() const { return decode_time_; }

  /// Sends the good-bye and retires the endpoint: the node stops serving,
  /// stops complaining (its feeds are about to be rewired around it), and
  /// cancels its timers. Good-bye means gone.
  void leave(Transport& net);

  /// Congestion adaptation (Section 5): ask the server to shed one of this
  /// node's threads / to hand one back.
  void request_offload(Transport& net);
  void request_restore(Transport& net);

  /// Current number of in-threads (degree after offloads/restores).
  std::size_t degree() const { return columns_.size(); }

  /// Non-ergodic failure: the node goes dark and its pending timers are
  /// cancelled. Callers should also net.crash(address()) so in-flight mail
  /// is dropped.
  void crash();

  /// Attaches to the transport, sends the hello, and arms the join-retry and
  /// serve timers. `degree` requests that many threads (Section 5
  /// heterogeneity); 0 accepts the server's default.
  void start(sim::Scheduler& engine, AttachableTransport& net,
             std::uint32_t degree = 0);

  /// Handles one protocol message.
  void on_message(const Message& m) override;

 private:
  /// Sends the hello (the first one opens the join span).
  void join();
  void handle_accept(const Message& m);
  void handle_data(const Message& m);
  void serve_children();
  void event_tick();
  void note_liveness(overlay::ColumnId column);
  /// Ends the column's outage episode, if one is open: data flows again, or
  /// the node gave the column up.
  void end_complaint_span(overlay::ColumnId column);
  void arm_silence(overlay::ColumnId column);
  void disarm_silence(overlay::ColumnId column);
  void silence_fired(overlay::ColumnId column);
  void schedule_join_retry(double delay);

  Address address_;
  // The flags fill address_'s padding word: one ClientNode is allocated per
  // client, and this keeps it at 648 B.
  bool joined_ = false;
  bool crashed_ = false;
  bool departed_ = false;
  ClientConfig config_;
  Rng rng_;

  StreamState stream_;

  std::vector<overlay::ColumnId> columns_;
  std::map<overlay::ColumnId, Address> children_;
  std::uint64_t complaints_sent_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t packets_rejected_ = 0;

  Transport* net_ = nullptr;
  sim::Scheduler* engine_ = nullptr;
  std::uint32_t join_degree_ = 0;
  sim::TimerHandle join_timer_{};
  sim::TimerHandle serve_timer_{};
  /// One cancellable silence timer per column (the keepalive/complaint
  /// clock), re-armed on every sign of life.
  std::map<overlay::ColumnId, sim::TimerHandle> silence_timers_;
  /// Consecutive unanswered complaints per column (backoff exponent).
  std::map<overlay::ColumnId, std::uint32_t> complaint_streak_;
  /// Open complaint span per column (one span per outage episode: begun on
  /// the first complaint, ended when data flows again or when the node
  /// leaves or gives the column up).
  std::map<overlay::ColumnId, obs::SpanId> complaint_spans_;
  obs::SpanId join_span_ = obs::kNoSpan;
  std::uint64_t join_retries_ = 0;
  std::uint64_t complaint_retries_ = 0;
  double join_sent_time_ = -1.0;
  double joined_time_ = -1.0;
  double decode_time_ = -1.0;
};

}  // namespace ncast::node
