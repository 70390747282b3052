// ShardedTransport: the message fabric on the sharded event kernel. Latency
// scheduling, plane-separated loss, partitions, crash semantics (including
// mail lost in flight), the fabric's traffic totals (read through the
// Transport base's send, and published to the net.* registry counters once,
// however many decorators stand in front), and shard/worker invariance of
// what arrives when and of every total.
//
// One semantic detail the crash tests pin down: the receiver's crash flag is
// only read on the receiver's own lane, so a send to an already-crashed
// receiver is dropped as kBlackhole when it lands, not as kCrashed at send.

#include <gtest/gtest.h>

#include <array>
#include <memory>
#include <tuple>
#include <vector>

#include "node/sharded_transport.hpp"
#include "node/transport.hpp"
#include "obs/metrics.hpp"
#include "sim/sharded_engine.hpp"

namespace ncast::node {
namespace {

constexpr std::size_t kAddresses = 64;

/// Records every delivery with its arrival time.
struct Sink final : Endpoint {
  struct Arrival {
    Message msg;
    double at = 0.0;
  };
  explicit Sink(sim::ShardedEngine& engine) : engine_(engine) {}
  void on_message(const Message& m) override {
    arrivals.push_back({m, engine_.now()});
  }
  sim::ShardedEngine& engine_;
  std::vector<Arrival> arrivals;
};

Message control(Address from, Address to) {
  Message m;
  m.type = MessageType::kComplaint;
  m.from = from;
  m.to = to;
  return m;
}

Message data(Address from, Address to) {
  Message m;
  m.type = MessageType::kData;
  m.from = from;
  m.to = to;
  m.wire = {1, 2, 3};
  return m;
}

/// The fabric's eight traffic totals, in the order of their net.* counters.
using Totals = std::array<std::uint64_t, 8>;

Totals totals(const ShardedTransport& net) {
  return {net.messages_sent(),    net.messages_dropped(),
          net.control_messages(), net.data_messages(),
          net.keepalive_messages(), net.control_dropped(),
          net.control_bytes(),    net.data_bytes()};
}

TEST(ShardedTransport, DeliversAtSampledLatency) {
  sim::ShardedEngine engine(1, 0, 2.5);
  TransportSpec spec;
  spec.latency = sim::LatencySpec::fixed_delay(2.5);
  ShardedTransport net(engine, spec, 1, kAddresses);
  Sink sink(engine);
  net.attach(7, &sink);

  net.send(control(3, 7));
  engine.run_until(10.0);

  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_DOUBLE_EQ(sink.arrivals[0].at, 2.5);
  EXPECT_EQ(net.messages_sent(), 1u);
  EXPECT_EQ(net.control_messages(), 1u);
  EXPECT_EQ(net.messages_dropped(), 0u);
}

TEST(ShardedTransport, EqualTimeDeliveriesKeepSendOrder) {
  sim::ShardedEngine engine(1, 0, 1.0);
  TransportSpec spec;
  spec.latency = sim::LatencySpec::fixed_delay(1.0);
  ShardedTransport net(engine, spec, 1, kAddresses);
  Sink sink(engine);
  net.attach(1, &sink);

  for (overlay::ColumnId c = 0; c < 5; ++c) {
    Message m = control(2, 1);
    m.column = c;
    net.send(std::move(m));
  }
  engine.run_until(2.0);

  ASSERT_EQ(sink.arrivals.size(), 5u);
  for (overlay::ColumnId c = 0; c < 5; ++c) {
    EXPECT_EQ(sink.arrivals[c].msg.column, c);
  }
}

TEST(ShardedTransport, ControlLossLeavesDataPlaneAlone) {
  sim::ShardedEngine engine(1, 0, 1.0);
  TransportSpec spec;
  spec.control_loss = sim::LossSpec::bernoulli(1.0);  // drop all control
  ShardedTransport net(engine, spec, 1, kAddresses);
  Sink sink(engine);
  net.attach(1, &sink);

  net.send(control(2, 1));
  net.send(data(2, 1));
  Message keep;
  keep.type = MessageType::kKeepalive;
  keep.from = 2;
  keep.to = 1;
  net.send(std::move(keep));
  engine.run_until(5.0);

  ASSERT_EQ(sink.arrivals.size(), 2u);  // data + keepalive survive
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.control_dropped(), 1u);
}

TEST(ShardedTransport, DataLossLeavesControlPlaneAlone) {
  sim::ShardedEngine engine(1, 0, 1.0);
  TransportSpec spec;
  spec.data_loss = sim::LossSpec::bernoulli(1.0);
  ShardedTransport net(engine, spec, 1, kAddresses);
  Sink sink(engine);
  net.attach(1, &sink);

  net.send(data(2, 1));
  net.send(control(2, 1));
  engine.run_until(5.0);

  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].msg.type, MessageType::kComplaint);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.control_dropped(), 0u);
}

TEST(ShardedTransport, BernoulliLossRateIsRoughlyHonored) {
  sim::ShardedEngine engine(1, 0, 1.0);
  TransportSpec spec;
  spec.control_loss = sim::LossSpec::bernoulli(0.3);
  ShardedTransport net(engine, spec, 99, kAddresses);
  Sink sink(engine);
  net.attach(1, &sink);

  const int n = 2000;
  for (int i = 0; i < n; ++i) net.send(control(2, 1));
  engine.run_until(5.0);

  const double loss =
      static_cast<double>(net.messages_dropped()) / static_cast<double>(n);
  EXPECT_NEAR(loss, 0.3, 0.05);
  EXPECT_EQ(net.control_dropped(), net.messages_dropped());
  EXPECT_EQ(sink.arrivals.size(), n - net.messages_dropped());
}

TEST(ShardedTransport, GilbertElliottLossIsBursty) {
  sim::ShardedEngine engine(1, 0, 1.0);
  TransportSpec spec;
  // Sticky bad state: once bad, stays bad for ~10 deliveries.
  spec.data_loss = sim::LossSpec::gilbert_elliott(0.05, 0.1, 0.0, 1.0);
  ShardedTransport net(engine, spec, 5, kAddresses);
  Sink sink(engine);
  net.attach(1, &sink);

  const int n = 4000;
  for (int i = 0; i < n; ++i) net.send(data(2, 1));
  engine.run_until(5.0);

  const double loss =
      static_cast<double>(net.messages_dropped()) / static_cast<double>(n);
  // Stationary loss = p_enter / (p_enter + p_exit) = 1/3.
  EXPECT_NEAR(loss, 1.0 / 3.0, 0.08);
}

TEST(ShardedTransport, CrashedDestinationDropsIncludingInFlight) {
  sim::ShardedEngine engine(1, 0, 3.0);
  TransportSpec spec;
  spec.latency = sim::LatencySpec::fixed_delay(3.0);
  ShardedTransport net(engine, spec, 1, kAddresses);
  Sink sink(engine);
  net.attach(1, &sink);

  net.send(control(2, 1));   // in flight, arrives t=3
  engine.run_until(1.0);
  net.crash(1);              // dies at t=1 with mail inbound
  net.send(control(2, 1));   // the sender never reads the receiver's flag:
  EXPECT_EQ(net.messages_dropped(), 0u);  // in flight too, dropped on landing
  engine.run_until(10.0);

  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(net.messages_dropped(), 2u);

  net.revive(1);
  net.send(control(2, 1));
  engine.run_until(20.0);
  EXPECT_EQ(sink.arrivals.size(), 1u);

  // A crashed sender is the one case dropped at send.
  net.crash(2);
  net.send(control(2, 1));
  EXPECT_EQ(net.messages_dropped(), 3u);
}

TEST(ShardedTransport, UnattachedAddressDrops) {
  sim::ShardedEngine engine(1, 0, 1.0);
  ShardedTransport net(engine, TransportSpec{}, 1, kAddresses);
  net.send(control(2, 42));               // in range, nobody attached
  net.send(control(2, kAddresses + 10));  // beyond the address table
  engine.run_until(5.0);
  EXPECT_EQ(net.messages_dropped(), 2u);
}

TEST(ShardedTransport, PartitionDropsCrossingDeliveriesDuringWindow) {
  sim::ShardedEngine engine(1, 0, 1.0);
  TransportSpec spec;
  spec.latency = sim::LatencySpec::fixed_delay(1.0);
  spec.partition = sim::PartitionSpec::window(10.0, 20.0, 0.5);
  ShardedTransport net(engine, spec, 3, kAddresses);
  Sink sink(engine);
  net.attach(1, &sink);

  // Find an address on the other side from 1 by probing during the window.
  engine.run_until(10.0);
  Address other = 0;
  std::uint64_t dropped_before = net.messages_dropped();
  for (Address a = 2; a < kAddresses; ++a) {
    net.send(control(a, 1));
    if (net.messages_dropped() > dropped_before) {
      other = a;
      break;
    }
    dropped_before = net.messages_dropped();
  }
  ASSERT_NE(other, 0u) << "no cross-side pair found in 62 addresses";

  // Crossing delivery inside the window: dropped. After it closes: delivered.
  engine.run_until(25.0);
  const std::size_t before = sink.arrivals.size();
  net.send(control(other, 1));
  engine.run_until(30.0);
  EXPECT_EQ(sink.arrivals.size(), before + 1);
}

TEST(ShardedTransport, SameSeedSameDropPattern) {
  const auto run = [](std::uint64_t seed) {
    sim::ShardedEngine engine(1, 0, 0.5);
    TransportSpec spec;
    spec.latency = sim::LatencySpec::uniform(0.5, 1.5);
    spec.control_loss = sim::LossSpec::bernoulli(0.25);
    ShardedTransport net(engine, spec, seed, kAddresses);
    Sink sink(engine);
    net.attach(1, &sink);
    for (int i = 0; i < 500; ++i) {
      Message m = control(2, 1);
      m.column = static_cast<overlay::ColumnId>(i);
      net.send(std::move(m));
    }
    engine.run_until(5.0);
    std::vector<overlay::ColumnId> got;
    for (const auto& a : sink.arrivals) got.push_back(a.msg.column);
    return got;
  };
  EXPECT_EQ(run(11), run(11));
  EXPECT_NE(run(11), run(12));  // and the seed actually matters
}

// Every node sends to every other node from its own lane, through lossy,
// jittered links; what each receiver sees, and when, must not depend on how
// lanes are spread over shards or threads.
TEST(ShardedTransport, ArrivalsInvariantAcrossShardsAndWorkers) {
  using Log = std::vector<std::tuple<double, Address, overlay::ColumnId>>;
  const auto run = [](std::uint32_t shards, std::uint32_t workers) {
    constexpr Address kNodes = 8;
    sim::ShardedEngine engine(shards, workers, 0.5);
    TransportSpec spec;
    spec.latency = sim::LatencySpec::uniform(0.5, 1.5);
    spec.control_loss = sim::LossSpec::bernoulli(0.2);
    spec.data_loss = sim::LossSpec::gilbert_elliott(0.05, 0.45);
    ShardedTransport net(engine, spec, 77, kNodes + 1);
    std::vector<std::unique_ptr<Sink>> sinks;
    for (Address a = 1; a <= kNodes; ++a) {
      sinks.push_back(std::make_unique<Sink>(engine));
      net.attach(a, sinks.back().get());
    }
    for (Address a = 1; a <= kNodes; ++a) {
      for (int round = 0; round < 20; ++round) {
        engine.schedule_on(a, 0.7 * round, [&net, a, round] {
          for (Address to = 1; to <= kNodes; ++to) {
            if (to == a) continue;
            Message m = round % 2 == 0 ? control(a, to) : data(a, to);
            m.column = static_cast<overlay::ColumnId>(round);
            net.send(std::move(m));
          }
        });
      }
    }
    engine.run_until(30.0);
    std::vector<Log> logs;
    for (const auto& s : sinks) {
      Log log;
      for (const auto& a : s->arrivals) log.emplace_back(a.at, a.msg.from, a.msg.column);
      logs.push_back(std::move(log));
    }
    return std::make_pair(logs, totals(net));
  };
  const auto sequential = run(1, 0);
  EXPECT_GT(sequential.second[1], 0u);  // drops: the loss processes fired
  EXPECT_EQ(sequential, run(4, 2));
}

TEST(TransportBase, CountsThroughSharedBase) {
  sim::ShardedEngine engine(1, 0, 1.0);
  ShardedTransport net(engine, TransportSpec{}, 1, kAddresses);
  Sink sink(engine);
  net.attach(2, &sink);
  Transport& base = net;  // the endpoints talk to the base interface
  base.send(data(1, 2));
  base.send(control(1, 2));
  net.crash(3);
  base.send(control(1, 3));
  engine.run_until(5.0);
  EXPECT_EQ(net.messages_sent(), 3u);
  EXPECT_EQ(net.data_messages(), 1u);
  EXPECT_EQ(net.control_messages(), 2u);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.control_dropped(), 1u);
  EXPECT_GT(net.control_bytes(), 0u);
  EXPECT_EQ(sink.arrivals.size(), 2u);
}

#if NCAST_OBS_ENABLED
/// A decorator that forwards every send to the fabric, the way a tap or a
/// timing probe stands in front of it.
class PassThrough final : public AttachableTransport {
 public:
  explicit PassThrough(ShardedTransport& inner) : inner_(inner) {}

  void attach(Address addr, Endpoint* endpoint) override {
    inner_.attach(addr, endpoint);
  }
  void detach(Address addr) override { inner_.detach(addr); }
  void crash(Address addr) override { inner_.crash(addr); }
  void revive(Address addr) override { inner_.revive(addr); }
  bool crashed(Address addr) const override { return inner_.crashed(addr); }

 protected:
  void route(Message m) override { inner_.send(std::move(m)); }

 private:
  ShardedTransport& inner_;
};

constexpr std::array<const char*, 8> kNetCounters = {
    "net.messages_sent",      "net.messages_dropped", "net.messages_control",
    "net.messages_data",      "net.messages_keepalive", "net.control_dropped",
    "net.control_bytes",      "net.data_bytes"};

TEST(TransportBase, RegistryCountsEachMessageOnceBehindADecorator) {
  // Sends pass through a decorator's Transport base and then the fabric's;
  // only the fabric counts, and it publishes its totals when destroyed.
  obs::Registry& reg = obs::metrics();
  Totals before{};
  for (std::size_t i = 0; i < kNetCounters.size(); ++i) {
    before[i] = reg.counter(kNetCounters[i]).value();
  }
  Totals fabric_totals{};
  {
    sim::ShardedEngine engine(4, 2, 1.0);
    TransportSpec spec;
    spec.control_loss = sim::LossSpec::bernoulli(0.3);
    ShardedTransport fabric(engine, spec, 5, kAddresses);
    PassThrough net(fabric);
    Sink sink(engine);
    net.attach(1, &sink);
    for (int i = 0; i < 50; ++i) {
      net.send(control(2, 1));
      net.send(data(3, 1));
      Message keep;
      keep.type = MessageType::kKeepalive;
      keep.from = 4;
      keep.to = 1;
      net.send(std::move(keep));
    }
    net.send(control(2, 9));  // nobody attached at 9
    engine.run_until(5.0);
    fabric_totals = totals(fabric);
    for (std::size_t i = 0; i < kNetCounters.size(); ++i) {
      EXPECT_GT(fabric_totals[i], 0u) << kNetCounters[i];
      // Nothing reaches the registry while the fabric lives.
      EXPECT_EQ(reg.counter(kNetCounters[i]).value(), before[i])
          << kNetCounters[i];
    }
  }
  EXPECT_EQ(fabric_totals[0], 151u);
  for (std::size_t i = 0; i < kNetCounters.size(); ++i) {
    EXPECT_EQ(reg.counter(kNetCounters[i]).value() - before[i],
              fabric_totals[i])
        << kNetCounters[i];
  }
}
#endif  // NCAST_OBS_ENABLED

TEST(TransportBase, HavesTravelTheDataPlaneWithTheKeepalives) {
  // A have takes the data plane's loss process, is counted with the
  // keepalives, and adds nothing to the control counts or bytes.
  sim::ShardedEngine engine(1, 0, 1.0);
  TransportSpec spec;
  spec.data_loss = sim::LossSpec::bernoulli(1.0);
  ShardedTransport net(engine, spec, 1, kAddresses);
  Sink sink(engine);
  net.attach(1, &sink);
  Message have;
  have.type = MessageType::kHave;
  have.from = 2;
  have.to = 1;
  have.column = 3;
  have.subject = 1;
  EXPECT_TRUE(is_data_plane(have));
  net.send(std::move(have));
  engine.run_until(5.0);
  EXPECT_TRUE(sink.arrivals.empty());
  EXPECT_EQ(net.keepalive_messages(), 1u);
  EXPECT_EQ(net.data_messages(), 0u);
  EXPECT_EQ(net.control_messages(), 0u);
  EXPECT_EQ(net.control_bytes(), 0u);
  EXPECT_EQ(net.messages_dropped(), 1u);
  EXPECT_EQ(net.control_dropped(), 0u);
}

TEST(TransportBase, ControlBytesUseControlSize) {
  sim::ShardedEngine engine(1, 0, 1.0);
  ShardedTransport net(engine, TransportSpec{}, 1, kAddresses);
  Message m = control(1, 2);
  const std::size_t expect = m.control_size();
  net.send(std::move(m));
  EXPECT_EQ(net.control_bytes(), expect);

  // Accepts carry plan + key bundles + columns.
  Message accept;
  accept.type = MessageType::kJoinAccept;
  accept.mutable_body().columns = {1, 2, 3};
  accept.mutable_body().key_bundles = {std::vector<std::uint8_t>(40),
                                       std::vector<std::uint8_t>(40)};
  const std::size_t accept_bytes = accept.control_size();
  EXPECT_GT(accept_bytes, 17u + 3 * sizeof(overlay::ColumnId) + 16u + 80u);
  net.send(std::move(accept));
  EXPECT_EQ(net.control_bytes(), expect + accept_bytes);
}

}  // namespace
}  // namespace ncast::node
