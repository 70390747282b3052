#pragma once
// The message fabric, on the sharded event kernel (sim/sharded_engine.hpp).
// The lane of an address is the address itself, so a message send runs on
// the sender's lane and its delivery is a cross-lane post to the receiver's
// lane. The sequential case is simply ShardedEngine(1, 0): one shard, no
// workers, the same results (the kernel's determinism contract).
//
// Per message, on the sender's lane: sample a latency, draw the plane's loss
// process, test the partition window at the known arrival time, then post
// the delivery. Crash state is checked at both ends — a crashed sender
// drops at send (kCrashed), a receiver that is crashed when the delivery
// lands drops it (kBlackhole), including mail already in flight.
//
// Shard-safety by ownership, not locks:
//   - Per-sender randomness: each sender address owns an independent Rng
//     (split from the run seed and the address alone) plus its own
//     Gilbert-Elliott channel states, so the draw sequence of one sender
//     depends only on its own send sequence, never on how other senders'
//     traffic interleaves.
//   - endpoints / crashed flags live in pre-sized vectors indexed by
//     address and are written only from the owning lane (attach on start,
//     crash from the fault event scheduled on the victim's lane) and read
//     only on that lane too. That is why the receiver-side crash test
//     happens at delivery time, not at send time: no lane ever reads
//     another lane's flag. A send to an already-crashed receiver therefore
//     drops as kBlackhole on arrival, not as kCrashed at send — the message
//     is counted dropped either way.
//   - The partition side of an address is a pure salted hash, so both
//     lanes agree on it without shared state.
//   - Traffic totals live in one plain record per engine shard, written
//     only by the shard that runs the step it counts: the sender's shard
//     counts and traces the send and any drop decided there, the
//     receiver's shard a drop on arrival. The accessors sum the records
//     between runs, and the destructor publishes the totals to the net.*
//     registry counters once, so a registry snapshot taken after the
//     fabric is gone reads each message once, decorators or not.

#include <cstdint>
#include <map>
#include <vector>

#include "node/transport.hpp"
#include "sim/sharded_engine.hpp"

namespace ncast::node {

class ShardedTransport final : public AttachableTransport {
 public:
  /// `max_addresses` pre-sizes every per-address table; traffic to or from
  /// addresses >= max_addresses is dropped as kUnattached. The lane of
  /// address a is a itself — callers lay out engine lanes accordingly.
  ShardedTransport(sim::ShardedEngine& engine, TransportSpec spec,
                   std::uint64_t seed, std::size_t max_addresses);
  /// Adds this fabric's totals to the net.* registry counters.
  ~ShardedTransport() override;
  /// Pending deliveries hold `this`, and a copy would publish twice.
  ShardedTransport(const ShardedTransport&) = delete;
  ShardedTransport& operator=(const ShardedTransport&) = delete;

  void attach(Address addr, Endpoint* endpoint) override;
  void detach(Address addr) override;

  /// Owner-lane only (or setup phase): called from events scheduled on the
  /// address's own lane.
  void crash(Address addr) override;
  void revive(Address addr) override;
  bool crashed(Address addr) const override;

  // Traffic totals over every shard's record. Read them between runs.
  std::uint64_t messages_sent() const {
    return control_messages() + data_messages() + keepalive_messages();
  }
  std::uint64_t messages_dropped() const { return total(&Traffic::dropped); }
  std::uint64_t control_messages() const { return total(&Traffic::control); }
  std::uint64_t data_messages() const { return total(&Traffic::data); }
  /// Keepalives and haves: the data plane's payload-free messages.
  std::uint64_t keepalive_messages() const {
    return total(&Traffic::keepalive);
  }
  /// Dropped messages that belonged to the control plane (the quantity the
  /// paper's robustness story silently assumed was zero).
  std::uint64_t control_dropped() const {
    return total(&Traffic::control_dropped);
  }
  /// Total control_size() bytes sent (gossip-overhead accounting).
  std::uint64_t control_bytes() const {
    return total(&Traffic::control_bytes);
  }
  /// Total serialized data-plane bytes sent — the real wire payload size
  /// (v1 or v2 framing), so structure sweeps can compare bytes-on-the-wire,
  /// not just packet counts.
  std::uint64_t data_bytes() const { return total(&Traffic::data_bytes); }

  const TransportSpec& spec() const { return spec_; }
  sim::ShardedEngine& engine() { return engine_; }

 protected:
  /// Runs on the sender's lane (m.from). Draw order per message is fixed —
  /// latency, then loss — from the sender's own stream.
  void route(Message m) override;

 private:
  using ChannelKey = std::pair<Address, bool>;  ///< (to, data_plane)

  /// Per-sender-address state, touched only by the owning lane.
  struct LaneNet {
    Rng rng;
    std::map<ChannelKey, bool> ge_bad;
  };

  /// One shard's traffic totals (see the header comment for its writers).
  /// The fields come first and the record is 128 B, so two shards' fields
  /// are more than a cache line apart wherever the vector starts, with no
  /// over-aligned allocation.
  struct Traffic {
    std::uint64_t control = 0;
    std::uint64_t data = 0;
    std::uint64_t keepalive = 0;  ///< keepalives and haves
    std::uint64_t control_bytes = 0;
    std::uint64_t data_bytes = 0;
    std::uint64_t dropped = 0;
    std::uint64_t control_dropped = 0;
    std::uint64_t padding[9] = {};
  };
  static_assert(sizeof(Traffic) == 128, "one shard's record spans 128 B");

  std::uint64_t total(std::uint64_t Traffic::*field) const;
  /// Counts the drop in `t` and traces it with its reason.
  static void drop(Traffic& t, const Message& m, DropReason reason);
  void arrive(Message m);
  bool survives(LaneNet& ln, const Message& m);
  bool crossing_partition(Address a, Address b, double when) const;
  bool side_b(Address addr) const;

  sim::ShardedEngine& engine_;
  TransportSpec spec_;
  std::uint64_t partition_salt_;
  std::vector<LaneNet> lanes_;
  std::vector<Endpoint*> endpoints_;
  std::vector<std::uint8_t> crashed_flags_;
  std::vector<Traffic> traffic_;  ///< one per engine shard
};

}  // namespace ncast::node
