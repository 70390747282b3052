#pragma once
// The client endpoint: joins via the hello protocol, learns the stream plan
// (and optional null keys) from the join acknowledgment, receives coded
// packets on its threads, recodes onto the children the server attaches to
// it (its StreamState's out-links, one per column it continues), and
// complains when a feed goes silent. A crashed client simply stops — its
// children's complaints drive the repair path.
//
// start() runs the endpoint on a kernel Scheduler (its lane of the sharded
// engine) with cancellable timers — a periodic serve timer, a join-retry
// timer that retransmits the hello with doubling backoff until the accept
// arrives (control links can drop it), and one silence timer per in-thread
// that complains and re-arms with doubling backoff until data flows again.

#include <cstdint>
#include <map>
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
  std::uint64_t seed = 1;
};

/// Peer endpoint. The stream geometry (generations, g, symbols) arrives in
/// the join acknowledgment, so the client needs no out-of-band setup.
class ClientNode : public Endpoint {
 public:
  /// Hello and complaint retransmissions back off by doubling, capped at
  /// 2^kMaxBackoffExp times the base delay.
  static constexpr std::uint32_t kMaxBackoffExp = 4;

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
  /// Hello-sent and accept-received times (-1 until they happen).
  double join_sent_time() const { return join_sent_time_; }
  double joined_time() const { return joined_time_; }
  /// Time the last generation reached full rank (-1 if not decoded).
  double decode_time() const { return decode_time_; }

  /// Sends the good-bye and retires the endpoint: the node stops serving,
  /// gives up every in-thread (its feeds are about to be rewired around it),
  /// and cancels its timers. Good-bye means gone.
  void leave(Transport& net);

  /// Congestion adaptation (Section 5): ask the server to shed one of this
  /// node's threads / to hand one back.
  void request_offload(Transport& net);
  void request_restore(Transport& net);

  /// Current number of in-threads (degree after offloads/restores).
  std::size_t degree() const { return feeds_.size(); }
  /// The out-links: column -> the child this node feeds on it, as the
  /// server's attach/detach and column orders left them.
  std::map<LinkId, Address> links() const { return stream_.links(); }

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
  /// One in-thread: a column this node clips, with its outage state.
  /// Giving the column up (leave, offload, re-admission) is stop(): its
  /// timer is cancelled and its span ended, so nothing of it outlives it.
  struct Feed {
    overlay::ColumnId column;
    /// Consecutive unanswered complaints (the backoff exponent).
    std::uint32_t streak = 0;
    /// The keepalive/complaint clock, re-armed on every sign of life.
    sim::TimerHandle silence{};
    /// The open outage episode (kNoSpan if none): begun on the first
    /// complaint, ended when data flows again or the column is given up.
    obs::SpanId complaint_span = obs::kNoSpan;
  };

  /// Sends the hello (the first one opens the join span).
  void join();
  void handle_accept(const Message& m);
  void handle_data(const Message& m);
  void event_tick();
  /// The feed on `column`, or nullptr if this node does not clip it.
  Feed* feed(overlay::ColumnId column);
  /// Starts the feed on `column` (refreshes it if it runs already).
  void clip(overlay::ColumnId column);
  /// Replaces every feed with fresh ones on `columns`, in their order.
  void adopt(const std::vector<overlay::ColumnId>& columns);
  /// Gives the feed's column up: cancels its timer and ends its span.
  void stop(Feed& f);
  void note_liveness(overlay::ColumnId column);
  /// Ends the feed's outage episode, if one is open.
  void end_complaint_span(Feed& f);
  void arm_silence(Feed& f);
  void silence_fired(overlay::ColumnId column);
  void schedule_join_retry(double delay);

  Address address_;
  // The flags fill address_'s padding word: one ClientNode is allocated per
  // client, and this keeps it at 456 B.
  bool joined_ = false;
  bool crashed_ = false;
  bool departed_ = false;
  ClientConfig config_;
  Rng rng_;

  StreamState stream_;

  /// The in-threads, in the order the server handed them out.
  std::vector<Feed> feeds_;
  std::uint64_t complaints_sent_ = 0;
  std::uint64_t packets_received_ = 0;
  std::uint64_t packets_rejected_ = 0;

  Transport* net_ = nullptr;
  sim::Scheduler* engine_ = nullptr;
  std::uint32_t join_degree_ = 0;
  sim::TimerHandle join_timer_{};
  sim::TimerHandle serve_timer_{};
  /// Causal span of this node's join episode (kNoSpan before the first
  /// hello): every hello retransmission, the accept, and the node's rank
  /// advances carry it, so the whole chain reconstructs from the trace.
  obs::SpanId join_span_ = obs::kNoSpan;
  std::uint64_t join_retries_ = 0;
  double join_sent_time_ = -1.0;
  double joined_time_ = -1.0;
  double decode_time_ = -1.0;
};

}  // namespace ncast::node
