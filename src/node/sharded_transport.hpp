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

#include <atomic>
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

  void attach(Address addr, Endpoint* endpoint) override;
  void detach(Address addr) override;

  /// Owner-lane only (or setup phase): called from events scheduled on the
  /// address's own lane.
  void crash(Address addr) override;
  void revive(Address addr) override;
  bool crashed(Address addr) const override;

  std::size_t in_flight() const {
    return in_flight_.load(std::memory_order_relaxed);
  }
  std::size_t max_in_flight() const {
    return max_in_flight_.load(std::memory_order_relaxed);
  }
  std::uint64_t delivered() const {
    return delivered_.load(std::memory_order_relaxed);
  }

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
  std::atomic<std::size_t> in_flight_{0};
  std::atomic<std::size_t> max_in_flight_{0};
  std::atomic<std::uint64_t> delivered_{0};
  obs::Gauge* in_flight_gauge_ = &obs::metrics().gauge("net.transport_in_flight");
  obs::Gauge* in_flight_hwm_ = &obs::metrics().gauge("net.transport_in_flight_hwm");
  obs::Histogram* delivery_delay_ = &obs::metrics().histogram("net.delivery_delay");
};

}  // namespace ncast::node
