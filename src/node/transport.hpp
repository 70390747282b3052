#pragma once
// The message-plane transport abstraction. A Transport carries node::Message
// traffic between addresses; the base class owns the accounting, so every
// fabric counts the same way and endpoints, benches, and tests talk to the
// base interface alone.
//
// The one concrete fabric is ShardedTransport (sharded_transport.hpp): every
// send becomes a delivery event on the receiver's lane of the sharded event
// kernel, with a composable per-message link model — latency distributions,
// independent Bernoulli / Gilbert-Elliott loss processes for the control and
// data planes, and timed partitions. That exposes the hello / good-bye /
// repair control plane of Section 3 to the same adversity the data plane
// has always faced.

#include <atomic>
#include <cstdint>

#include "node/message.hpp"
#include "sim/link_model.hpp"

namespace ncast::node {

/// A message consumer attached to a transport address.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  /// Delivers one message at the engine's current time.
  virtual void on_message(const Message& m) = 0;
};

/// Why a routed message never arrived. Dropped messages are traced as
/// kMsgDrop with the reason in the detail field (short strings — SSO, no
/// allocation), so a lossy run's post-mortem can tell a loss process from a
/// partition from a crash blackhole.
enum class DropReason : std::uint8_t {
  kCrashed,     ///< sender already marked crashed at send time
  kLoss,        ///< the plane's loss process fired
  kPartition,   ///< delivery would cross an active partition
  kBlackhole,   ///< receiver crashed before the message arrived
  kUnattached,  ///< no endpoint bound to the destination address
};

const char* to_string(DropReason reason);

/// True for the data plane (kData, kKeepalive and the children's kHave
/// answers), which has its own loss process and stays out of the
/// control-plane drop accounting.
inline bool is_data_plane(const Message& m) {
  return m.type == MessageType::kData || m.type == MessageType::kKeepalive ||
         m.type == MessageType::kHave;
}

/// Declarative description of what the fabric does to messages. The control
/// and data planes get independent loss processes (control traffic can be
/// lossy too), but share one latency distribution and one partition window.
struct TransportSpec {
  sim::LatencySpec latency = sim::LatencySpec::fixed_delay(1.0);
  sim::LossSpec control_loss = sim::LossSpec::none();  ///< everything off the data plane
  sim::LossSpec data_loss = sim::LossSpec::none();     ///< kData, kKeepalive, kHave
  sim::PartitionSpec partition;  ///< crossing deliveries dropped in the window
};

/// Abstract message fabric. Owns all traffic accounting: per-instance totals
/// behind the accessors (always counted, independent of the NCAST_OBS
/// switch), plus process-wide registry counters under net.* that bench
/// telemetry snapshots — see transport.cpp.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Counts the message, then hands it to the concrete fabric's route().
  void send(Message m);

  /// Marks an address as crashed: pending and future mail is dropped.
  virtual void crash(Address addr) = 0;
  /// Clears the crashed flag (a repaired address can be reused).
  virtual void revive(Address addr) = 0;
  virtual bool crashed(Address addr) const = 0;

  std::uint64_t messages_sent() const { return sent_; }
  std::uint64_t messages_dropped() const { return dropped_; }
  std::uint64_t control_messages() const { return control_; }
  std::uint64_t data_messages() const { return data_; }
  /// Keepalives and haves: the data plane's payload-free messages.
  std::uint64_t keepalive_messages() const { return keepalive_; }
  /// Dropped messages that belonged to the control plane (the quantity the
  /// paper's robustness story silently assumed was zero).
  std::uint64_t control_dropped() const { return control_dropped_; }
  /// Total control_size() bytes sent (gossip-overhead accounting).
  std::uint64_t control_bytes() const { return control_bytes_; }
  /// Total serialized data-plane bytes sent — the real wire payload size
  /// (v1 or v2 framing), so structure sweeps can compare bytes-on-the-wire,
  /// not just packet counts.
  std::uint64_t data_bytes() const { return data_bytes_; }

 protected:
  /// Implementation hook: deliver (or drop) an already-counted message.
  virtual void route(Message m) = 0;

  /// Counts a message that will never arrive and traces the drop with its
  /// reason. Every implementation must call this for each
  /// routed-but-undelivered message.
  void note_dropped(const Message& m, DropReason reason);

 private:
  // Atomics so sharded-fabric lanes can count from worker threads; the
  // accessors above read them relaxed (totals are consumed post-run).
  std::atomic<std::uint64_t> sent_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::atomic<std::uint64_t> control_{0};
  std::atomic<std::uint64_t> data_{0};
  std::atomic<std::uint64_t> keepalive_{0};
  std::atomic<std::uint64_t> control_dropped_{0};
  std::atomic<std::uint64_t> control_bytes_{0};
  std::atomic<std::uint64_t> data_bytes_{0};
};

/// A Transport endpoints can bind to by address. ClientNode/ServerNode/
/// GossipPeer start against this surface, so the protocol code never knows
/// which fabric (or which decorator of it) carries its mail.
class AttachableTransport : public Transport {
 public:
  /// Binds `endpoint` to `addr`; mail for unattached addresses is dropped.
  virtual void attach(Address addr, Endpoint* endpoint) = 0;
  virtual void detach(Address addr) = 0;
};

}  // namespace ncast::node
