#include "node/sharded_transport.hpp"

#include <type_traits>
#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace ncast::node {

namespace {

// splitmix64 finalizer: the partition side of an address must depend on the
// address and the run seed alone, not on first-contact order, so every lane
// agrees on it no matter how traffic interleaves.
std::uint64_t mix64(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

ShardedTransport::ShardedTransport(sim::ShardedEngine& engine,
                                   TransportSpec spec, std::uint64_t seed,
                                   std::size_t max_addresses)
    : engine_(engine), spec_(spec) {
  const sim::RngStreams streams(seed);
  partition_salt_ = streams.stream("transport.partition")();
  lanes_.resize(max_addresses);
  for (std::size_t a = 0; a < max_addresses; ++a) {
    // Independent per-sender stream keyed by (run seed, address) alone.
    lanes_[a].rng = streams.stream(0x73686172644e6574ULL ^
                                   (static_cast<std::uint64_t>(a) << 1));
  }
  endpoints_.assign(max_addresses, nullptr);
  crashed_flags_.assign(max_addresses, 0);
  traffic_.resize(engine.shards());
}

ShardedTransport::~ShardedTransport() {
  obs::Registry& reg = obs::metrics();
  reg.counter("net.messages_sent").inc(messages_sent());
  reg.counter("net.messages_dropped").inc(messages_dropped());
  reg.counter("net.messages_control").inc(control_messages());
  reg.counter("net.messages_data").inc(data_messages());
  reg.counter("net.messages_keepalive").inc(keepalive_messages());
  reg.counter("net.control_dropped").inc(control_dropped());
  reg.counter("net.control_bytes").inc(control_bytes());
  reg.counter("net.data_bytes").inc(data_bytes());
}

std::uint64_t ShardedTransport::total(std::uint64_t Traffic::*field) const {
  std::uint64_t sum = 0;
  for (const Traffic& t : traffic_) sum += t.*field;
  return sum;
}

void ShardedTransport::attach(Address addr, Endpoint* endpoint) {
  if (addr < endpoints_.size()) endpoints_[addr] = endpoint;
}

void ShardedTransport::detach(Address addr) {
  if (addr < endpoints_.size()) endpoints_[addr] = nullptr;
}

void ShardedTransport::crash(Address addr) {
  if (addr < crashed_flags_.size()) crashed_flags_[addr] = 1;
}

void ShardedTransport::revive(Address addr) {
  if (addr < crashed_flags_.size()) crashed_flags_[addr] = 0;
}

bool ShardedTransport::crashed(Address addr) const {
  return addr < crashed_flags_.size() && crashed_flags_[addr] != 0;
}

bool ShardedTransport::side_b(Address addr) const {
  if (!spec_.partition.active()) return false;
  if (addr == kServerAddress) return false;  // the source stays on side A
  const std::uint64_t z =
      mix64(partition_salt_ ^
            (static_cast<std::uint64_t>(addr) * 0x9e3779b97f4a7c15ULL));
  const double u = static_cast<double>(z >> 11) * 0x1.0p-53;
  return u < spec_.partition.side_b_fraction;
}

bool ShardedTransport::crossing_partition(Address a, Address b,
                                          double when) const {
  if (!spec_.partition.active()) return false;
  if (when < spec_.partition.start || when >= spec_.partition.end) return false;
  return side_b(a) != side_b(b);
}

bool ShardedTransport::survives(LaneNet& ln, const Message& m) {
  const bool data_plane = is_data_plane(m);
  const sim::LossSpec& loss = data_plane ? spec_.data_loss : spec_.control_loss;
  // Only Gilbert-Elliott channels carry state, so only they pay the lookup.
  bool stateless = false;
  bool& bad = loss.kind == sim::LossSpec::Kind::kGilbertElliott
                  ? ln.ge_bad[{m.to, data_plane}]
                  : stateless;
  return loss.survives(bad, ln.rng);
}

void ShardedTransport::drop(Traffic& t, const Message& m,
                            DropReason reason) {
  ++t.dropped;
  if (!is_data_plane(m)) ++t.control_dropped;
  // Reason strings are short (<= 15 chars): small-string optimized, so the
  // drop path stays allocation-free.
  obs::trace().emit(obs::TraceKind::kMsgDrop, m.from, m.to,
                    static_cast<std::uint64_t>(m.type), to_string(reason),
                    m.span);
}

void ShardedTransport::route(Message m) {
  Traffic& t = traffic_[engine_.shard_of(m.from)];
  if (m.type == MessageType::kData) {
    ++t.data;
    // Real serialized size: m.wire holds the framed packet (v1 or v2), so
    // this is exact for every structure, unlike a header+coeffs estimate.
    t.data_bytes += m.wire.size();
    obs::trace().emit(obs::TraceKind::kPacketSend, m.from, m.to, 0, {},
                      m.span);
  } else if (is_data_plane(m)) {  // a keepalive or a have
    ++t.keepalive;
  } else {
    ++t.control;
    t.control_bytes += m.control_size();
    // Control-plane lifecycle: send, then deliver or drop-with-reason. Each
    // carries the message's span so an episode's wire traffic reconstructs
    // by span id.
    obs::trace().emit(obs::TraceKind::kMsgSend, m.from, m.to,
                      static_cast<std::uint64_t>(m.type), {}, m.span);
  }
  if (m.from >= lanes_.size() || m.to >= lanes_.size()) {
    drop(t, m, DropReason::kUnattached);
    return;
  }
  if (crashed_flags_[m.from] != 0) {  // own-lane read; dest checked at arrival
    drop(t, m, DropReason::kCrashed);
    return;
  }
  LaneNet& ln = lanes_[m.from];
  // Draw order per message is fixed — latency, then loss — so a sender's
  // stream depends only on its own send sequence.
  const double delay = spec_.latency.sample(ln.rng);
  if (!survives(ln, m)) {
    drop(t, m, DropReason::kLoss);
    return;
  }
  const double at = engine_.now() + delay;
  if (crossing_partition(m.from, m.to, at)) {
    drop(t, m, DropReason::kPartition);
    return;
  }
  const sim::LaneId dest = static_cast<sim::LaneId>(m.to);
  auto delivery = [this, msg = std::move(m)]() mutable {
    arrive(std::move(msg));
  };
  // Every message hop is one of these closures in an engine slot; one that
  // stops fitting the slot's inline buffer would box each hop on the heap.
  static_assert(sizeof(delivery) <= sim::kCallbackInlineBytes,
                "the delivery closure must fit the engine's inline buffer");
  static_assert(std::is_nothrow_move_constructible_v<decltype(delivery)>,
                "a throwing-move delivery closure is boxed on the heap");
  engine_.schedule_on(dest, at, std::move(delivery),
                      sim::TimerClass::kDelivery);
}

void ShardedTransport::arrive(Message m) {
  if (crashed_flags_[m.to] != 0) {  // died before the message landed
    drop(traffic_[engine_.shard_of(m.to)], m, DropReason::kBlackhole);
    return;
  }
  Endpoint* endpoint = endpoints_[m.to];
  if (endpoint == nullptr) {
    drop(traffic_[engine_.shard_of(m.to)], m, DropReason::kUnattached);
    return;
  }
  if (!is_data_plane(m)) {
    obs::trace().emit(obs::TraceKind::kMsgDeliver, m.to, m.from,
                      static_cast<std::uint64_t>(m.type), {}, m.span);
  }
  endpoint->on_message(m);
}

}  // namespace ncast::node
