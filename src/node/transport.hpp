#pragma once
// The message-plane transport abstraction. A Transport carries node::Message
// traffic between addresses; endpoints, benches, and tests talk to this
// interface alone, so a decorator (a tap, a timer) can stand in front of the
// fabric without the protocol code knowing.
//
// The one concrete fabric is ShardedTransport (sharded_transport.hpp): every
// send becomes a delivery event on the receiver's lane of the sharded event
// kernel, with a composable per-message link model — latency distributions,
// independent Bernoulli / Gilbert-Elliott loss processes for the control and
// data planes, and timed partitions. That exposes the hello / good-bye /
// repair control plane of Section 3 to the same adversity the data plane
// has always faced. The fabric is also the one place that counts and traces
// a message, so a decorator adds no second count.

#include <cstdint>
#include <utility>

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

/// Abstract message fabric: a non-virtual send() in front of the
/// implementation's route(), the seam decorators override.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Hands the message to the implementation's route().
  void send(Message m) { route(std::move(m)); }

  /// Marks an address as crashed: pending and future mail is dropped.
  virtual void crash(Address addr) = 0;
  /// Clears the crashed flag (a repaired address can be reused).
  virtual void revive(Address addr) = 0;
  virtual bool crashed(Address addr) const = 0;

 protected:
  /// Implementation hook: deliver, drop, or forward the message.
  virtual void route(Message m) = 0;
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
