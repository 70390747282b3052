// Protocol-level tests: real ServerNode/ClientNode endpoints exchanging
// hello/good-bye/complaint/repair/data messages over the sharded kernel's
// fabric (one shard, no workers, ideal fixed-latency links). This is the
// paper's Section 3, executed message by message.

#include <gtest/gtest.h>

#include <memory>
#include <optional>

#include "coding/encoder.hpp"
#include "coding/null_keys.hpp"
#include "coding/wire.hpp"
#include "node/client_node.hpp"
#include "node/server_node.hpp"
#include "node/sharded_transport.hpp"
#include "obs/trace.hpp"
#include "sim/sharded_engine.hpp"
#include "util/rng.hpp"

namespace ncast {
namespace {

using namespace node;

constexpr std::size_t kAddresses = 128;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
  return bytes;
}

/// A server plus clients on one engine and fabric; the test advances time.
struct Harness {
  sim::ShardedEngine engine{1, 0, 1.0};
  ShardedTransport net;
  ServerNode server;
  ClientConfig ccfg;
  std::vector<std::unique_ptr<ClientNode>> clients;
  double now = 0.0;

  Harness(const ServerConfig& scfg, std::vector<std::uint8_t> content,
          ClientConfig client_cfg = {})
      : net(engine, TransportSpec{}, scfg.seed, kAddresses),
        server(scfg, std::move(content)),
        ccfg(client_cfg) {
    server.start(engine.lane(kServerAddress), net);
  }

  /// Starts a client at `addr` (it sends its hello now).
  ClientNode& add(Address addr, std::uint32_t degree = 0) {
    clients.push_back(std::make_unique<ClientNode>(addr, ccfg));
    clients.back()->start(engine.lane(addr), net, degree);
    return *clients.back();
  }

  void run(double span) {
    now += span;
    engine.run_until(now);
  }

  void crash(ClientNode& c) {
    c.crash();
    net.crash(c.address());
  }

  /// Runs until every live, joined client decoded, or `max_time` elapses.
  bool run_until_decoded(double max_time) {
    for (double t = 0.0; t < max_time; t += 1.0) {
      run(1.0);
      bool any = false;
      bool all = true;
      for (const auto& c : clients) {
        if (c->crashed()) continue;
        if (!c->joined() || !c->decoded()) {
          all = false;
          break;
        }
        any = true;
      }
      if (any && all) return true;
    }
    return false;
  }
};

ServerConfig server_config(std::uint32_t k, std::uint32_t d, std::size_t g) {
  ServerConfig scfg;
  scfg.k = k;
  scfg.default_degree = d;
  scfg.repair_delay = 2;
  scfg.generation_size = g;
  scfg.symbols = 8;
  scfg.seed = 7;
  return scfg;
}

struct Fixture : Harness {
  explicit Fixture(std::size_t n_clients, std::uint32_t k = 8,
                   std::uint32_t d = 3, std::size_t g = 8,
                   std::size_t generations = 1)
      : Harness(server_config(k, d, g), random_bytes(g * 8 * generations, 99),
                client_config()) {
    for (std::size_t i = 0; i < n_clients; ++i) {
      add(static_cast<Address>(i + 1));
    }
  }

  static ClientConfig client_config() {
    ClientConfig ccfg;
    ccfg.silence_timeout = 6;
    return ccfg;
  }
};

TEST(NodeProtocol, JoinAssignsThreadsAndBuildsMatrix) {
  Fixture f(5);
  f.run(3);
  for (auto& c : f.clients) {
    EXPECT_TRUE(c->joined());
    EXPECT_TRUE(f.server.matrix().contains(c->address()));
    EXPECT_EQ(f.server.matrix().row(c->address()).threads.size(), 3u);
  }
  EXPECT_EQ(f.server.matrix().row_count(), 5u);
}

TEST(NodeProtocol, StreamingDecodesEveryone) {
  Fixture f(20);
  EXPECT_TRUE(f.run_until_decoded(300));
  for (auto& c : f.clients) {
    ASSERT_TRUE(c->decoded());
    EXPECT_EQ(c->data(), f.server.data());
  }
}

TEST(NodeProtocol, GracefulLeaveRewiresStream) {
  Fixture f(12);
  f.run(5);  // everyone joined
  // The 3rd client leaves; everyone else must still decode.
  f.clients[2]->leave(f.net);
  f.run(3);
  EXPECT_FALSE(f.server.matrix().contains(f.clients[2]->address()));

  std::vector<ClientNode*> rest;
  for (std::size_t i = 0; i < f.clients.size(); ++i) {
    if (i != 2) rest.push_back(f.clients[i].get());
  }
  EXPECT_TRUE(f.run_until_decoded(400));
  for (auto* c : rest) EXPECT_TRUE(c->decoded());
}

TEST(NodeProtocol, CrashComplaintRepairRecovers) {
  Fixture f(15, 8, 2, 12);
  f.run(4);

  // Crash an early client (likely to have children).
  ClientNode& victim = *f.clients[1];
  f.crash(victim);

  // The stream must still reach everyone else: children detect silence,
  // complain, the server repairs, parents redirect. Note decoding usually
  // finishes *before* the repair lands (redundancy covers the outage — the
  // containment story), so run past the silence timeout to observe the
  // repair machinery itself.
  EXPECT_TRUE(f.run_until_decoded(600));
  f.run(static_cast<double>(f.ccfg.silence_timeout * 3 +
                            f.server.config().repair_delay + 4));
  EXPECT_FALSE(f.server.matrix().contains(victim.address()));
  EXPECT_EQ(f.server.matrix().failed_count(), 0u);
  EXPECT_GE(f.server.repairs_done(), 1u);
}

TEST(NodeProtocol, MultipleCrashesAllRepaired) {
  Fixture f(25, 12, 3, 10);
  f.run(4);
  f.crash(*f.clients[0]);
  f.crash(*f.clients[4]);
  f.crash(*f.clients[9]);
  EXPECT_TRUE(f.run_until_decoded(800));
  // Let the complaint -> repair cycle complete for all three victims.
  f.run(static_cast<double>(f.ccfg.silence_timeout * 4 +
                            f.server.config().repair_delay + 8));
  EXPECT_EQ(f.server.matrix().failed_count(), 0u);
  EXPECT_EQ(f.server.matrix().row_count(), 22u);
  for (auto& c : f.clients) {
    if (c->crashed()) continue;
    EXPECT_TRUE(c->decoded());
    EXPECT_EQ(c->data(), f.server.data());
  }
}

TEST(NodeProtocol, LateJoinersCatchUp) {
  Fixture f(10);
  f.run(40);
  // A new client joins mid-stream.
  ClientNode& late = f.add(100);
  f.run(100);
  EXPECT_TRUE(late.decoded());
  EXPECT_EQ(late.data(), f.server.data());
}

TEST(NodeProtocol, ControlTrafficIsTiny) {
  Fixture f(30);
  EXPECT_TRUE(f.run_until_decoded(400));
  // Control is O(d) per membership event (join request + accept + <= d
  // parent attachments), independent of stream length: 30 joins here.
  const auto control_after_joins = f.net.control_messages();
  EXPECT_LE(control_after_joins, 30u * (2 + 3 + 1));
  // With membership stable, a longer stream adds data but zero control —
  // the message-level version of the server-scalability claim.
  f.run(100);
  EXPECT_EQ(f.net.control_messages(), control_after_joins);
  // A finished swarm's parents send keepalives in place of redundant data,
  // so the data plane counts all three of its message kinds.
  EXPECT_GT(f.net.data_messages() + f.net.keepalive_messages(),
            f.net.control_messages() * 5);
}

TEST(NodeProtocol, MultiGenerationFileStreams) {
  // A 4-generation content object: the protocol layer must deliver and
  // reassemble the whole file, not just one generation.
  Fixture f(16, 8, 3, 8, /*generations=*/4);
  EXPECT_EQ(f.server.plan().generations, 4u);
  EXPECT_TRUE(f.run_until_decoded(1200));
  for (auto& c : f.clients) {
    ASSERT_TRUE(c->decoded());
    EXPECT_EQ(c->data(), f.server.data());
  }
}

TEST(NodeProtocol, NullKeysDistributedInJoinAccept) {
  ServerConfig scfg;
  scfg.k = 8;
  scfg.default_degree = 2;
  scfg.generation_size = 6;
  scfg.symbols = 8;
  scfg.null_keys = 3;
  Harness h(scfg, random_bytes(6 * 8 * 2, 5));
  for (Address a = 1; a <= 10; ++a) h.add(a);
  h.run(3);
  for (auto& c : h.clients) {
    EXPECT_TRUE(c->joined());
    EXPECT_TRUE(c->verification_enabled());
  }
  // Verification must not interfere with honest streaming.
  EXPECT_TRUE(h.run_until_decoded(400));
  for (auto& c : h.clients) {
    EXPECT_EQ(c->data(), h.server.data());
    EXPECT_EQ(c->packets_rejected(), 0u);
  }
}

TEST(NodeProtocol, VerifyingClientsRejectForgedData) {
  ServerConfig scfg;
  scfg.k = 6;
  scfg.default_degree = 2;
  scfg.generation_size = 4;
  scfg.symbols = 8;
  scfg.null_keys = 4;
  Harness h(scfg, random_bytes(4 * 8, 6));
  ClientNode& client = h.add(1);
  h.run(3);
  ASSERT_TRUE(client.verification_enabled());

  // Forge a well-formed but inconsistent packet and inject it.
  Rng rng(7);
  coding::CodedPacket<gf::Gf256> forged;
  forged.generation = 0;
  forged.coeffs.assign(4, 0);
  forged.coeffs[0] = 1;
  forged.payload.resize(8);
  for (auto& b : forged.payload) b = static_cast<std::uint8_t>(rng.below(256));

  Message evil;
  evil.type = MessageType::kData;
  evil.from = 99;
  evil.to = 1;
  evil.column = 0;
  evil.wire = coding::serialize(forged);
  const auto rejected_before = client.packets_rejected();
  h.net.send(evil);
  h.run(1);
  EXPECT_EQ(client.packets_rejected(), rejected_before + 1);

  // The stream still completes correctly around the forgery.
  EXPECT_TRUE(h.run_until_decoded(200));
  EXPECT_EQ(client.data(), h.server.data());
}

TEST(NodeProtocol, KeyBundleRoundTrip) {
  Rng rng(8);
  std::vector<std::vector<std::uint8_t>> source(5, std::vector<std::uint8_t>(7));
  for (auto& row : source) {
    for (auto& b : row) b = static_cast<std::uint8_t>(rng.below(256));
  }
  const auto keys = coding::NullKeySet<gf::Gf256>::generate(9, source, 3, rng);
  const auto bytes = keys.serialize();
  const auto parsed = coding::NullKeySet<gf::Gf256>::deserialize(bytes);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->generation(), 9u);
  EXPECT_EQ(parsed->key_count(), 3u);

  // Parsed keys verify exactly what the originals verify.
  coding::SourceEncoder<gf::Gf256> enc(9, source);
  for (int i = 0; i < 50; ++i) {
    const auto p = enc.emit(rng);
    EXPECT_TRUE(parsed->verify(p));
    auto bad = p;
    bad.payload[0] ^= 0x5A;
    EXPECT_FALSE(parsed->verify(bad));
  }

  // Malformed bundles are rejected.
  EXPECT_FALSE(coding::NullKeySet<gf::Gf256>::deserialize({}).has_value());
  auto truncated = bytes;
  truncated.pop_back();
  EXPECT_FALSE(coding::NullKeySet<gf::Gf256>::deserialize(truncated).has_value());
  auto zeroed = bytes;
  zeroed[4] = 0;
  zeroed[5] = 0;  // g = 0
  EXPECT_FALSE(coding::NullKeySet<gf::Gf256>::deserialize(zeroed).has_value());
}

TEST(NodeProtocol, CongestionOffloadShedsOneThread) {
  Fixture f(12, 8, 3, 8);
  f.run(3);
  ClientNode& node = *f.clients[4];
  ASSERT_EQ(node.degree(), 3u);

  node.request_offload(f.net);
  f.run(3);
  EXPECT_EQ(node.degree(), 2u);
  EXPECT_EQ(f.server.matrix().row(node.address()).threads.size(), 2u);

  // The stream must keep flowing for everyone, including the shedder.
  EXPECT_TRUE(f.run_until_decoded(400));
}

TEST(NodeProtocol, CongestionRestoreReturnsThread) {
  Fixture f(12, 8, 3, 8);
  f.run(3);
  ClientNode& node = *f.clients[4];
  node.request_offload(f.net);
  f.run(3);
  ASSERT_EQ(node.degree(), 2u);

  node.request_restore(f.net);
  f.run(3);
  EXPECT_EQ(node.degree(), 3u);
  EXPECT_EQ(f.server.matrix().row(node.address()).threads.size(), 3u);
  EXPECT_TRUE(f.run_until_decoded(400));
}

TEST(NodeProtocol, OffloadCannotDropLastThread) {
  Fixture f(6, 8, 2, 6);
  f.run(3);
  ClientNode& node = *f.clients[0];
  node.request_offload(f.net);
  f.run(2);
  EXPECT_EQ(node.degree(), 1u);
  // The server must refuse to empty the row.
  node.request_offload(f.net);
  f.run(2);
  EXPECT_EQ(node.degree(), 1u);
  EXPECT_EQ(f.server.matrix().row(node.address()).threads.size(), 1u);
}

TEST(NodeProtocol, OffloadSplicesDownstreamCorrectly) {
  // After node X sheds column c, X's former child on c must be fed by X's
  // former parent on c — verified through actual decode completion and
  // matrix consistency under repeated offloads.
  Fixture f(20, 8, 3, 8);
  f.run(3);
  Rng rng(42);
  for (int i = 0; i < 10; ++i) {
    f.clients[rng.below(20)]->request_offload(f.net);
    f.run(2);
    ASSERT_TRUE(f.server.matrix().check_invariants());
  }
  EXPECT_TRUE(f.run_until_decoded(600));
  for (auto& c : f.clients) EXPECT_EQ(c->data(), f.server.data());
}

TEST(NodeProtocol, HeterogeneousDegreeJoins) {
  // Section 5 at message level: DSL peers request d=2, fiber peers d=5, on
  // the same curtain; everyone streams at their own width.
  ServerConfig scfg;
  scfg.k = 10;
  scfg.default_degree = 3;
  scfg.generation_size = 8;
  scfg.symbols = 8;
  Harness h(scfg, std::vector<std::uint8_t>(64, 7));
  for (Address a = 1; a <= 12; ++a) h.add(a, a % 2 == 1 ? 2u : 5u);
  h.run(3);
  for (std::size_t i = 0; i < h.clients.size(); ++i) {
    EXPECT_EQ(h.server.matrix().row(h.clients[i]->address()).threads.size(),
              i % 2 == 0 ? 2u : 5u);
    EXPECT_EQ(h.clients[i]->degree(), i % 2 == 0 ? 2u : 5u);
  }
  // Out-of-range requests fall back to the default.
  h.add(99, 11);  // > k
  h.run(3);
  EXPECT_EQ(h.server.matrix().row(99).threads.size(), 3u);

  EXPECT_TRUE(h.run_until_decoded(400));
}

/// A bare member endpoint: the test sends on its behalf and reads what the
/// server answers.
struct Recorder final : Endpoint {
  void on_message(const Message& m) override { got.push_back(m); }
  std::size_t accepts() const {
    std::size_t n = 0;
    for (const Message& m : got) n += m.type == MessageType::kJoinAccept;
    return n;
  }
  std::vector<Message> got;
};

Message to_server(MessageType type, Address from, overlay::ColumnId column = 0,
                  Address subject = 0) {
  Message m;
  m.type = type;
  m.from = from;
  m.to = kServerAddress;
  m.column = column;
  m.subject = subject;
  return m;
}

TEST(NodeProtocol, StaleColumnComplaintConvictsNobody) {
  // A complaint about a column the complainer does not clip (after an
  // offload, or from timers that outlived a re-admission) must not walk up
  // the curtain and convict whoever clips that column above it.
  const ServerConfig scfg = server_config(6, 2, 4);
  Harness h(scfg, random_bytes(4 * 8, 3));
  Recorder upper, lower;
  h.net.attach(1, &upper);
  h.net.attach(2, &lower);
  h.net.send(to_server(MessageType::kJoinRequest, 1, 0, /*degree=*/5));
  h.run(2);
  h.net.send(to_server(MessageType::kJoinRequest, 2, 0, /*degree=*/1));
  h.run(2);
  const auto upper_cols = h.server.matrix().row(1).threads.to_vector();
  const auto lower_cols = h.server.matrix().row(2).threads.to_vector();
  ASSERT_EQ(upper_cols.size(), 5u);
  ASSERT_EQ(lower_cols.size(), 1u);
  const overlay::ColumnId stale = upper_cols[0] == lower_cols[0] ? upper_cols[1]
                                                           : upper_cols[0];

  // Not clipped by the complainer; then not a column at all (>= k).
  for (const overlay::ColumnId column :
       {stale, static_cast<overlay::ColumnId>(scfg.k)}) {
    const std::size_t accepts_before = lower.accepts();
    h.net.send(to_server(MessageType::kComplaint, 2, column));
    h.run(2);
    EXPECT_EQ(h.server.matrix().failed_count(), 0u) << "column " << column;
    // The answer is the complainer's current accept, as for a duplicate
    // hello: it repairs a client whose view of its columns went stale.
    ASSERT_EQ(lower.accepts(), accepts_before + 1) << "column " << column;
    EXPECT_EQ(lower.got.back().type, MessageType::kJoinAccept);
    ASSERT_NE(lower.got.back().body(), nullptr);
    EXPECT_EQ(lower.got.back().body()->columns, lower_cols);
  }
  h.run(static_cast<double>(scfg.repair_delay) + 2.0);
  EXPECT_EQ(h.server.repairs_done(), 0u);
  EXPECT_TRUE(h.server.matrix().contains(1));
}

TEST(NodeProtocol, FalsePositiveReadmissionKeepsTheRequestedDegree) {
  // A degree-5 client convicted although alive (a forged complaint from the
  // child below it stands in for a lost attach) starves, complains, and is
  // re-admitted — at the degree it joined with, not the server default.
  const ServerConfig scfg = server_config(8, 3, 8);
  Harness h(scfg, random_bytes(8 * 8, 4), Fixture::client_config());
  ClientNode& wide = h.add(1, /*degree=*/5);
  h.run(3);
  Recorder below;
  h.net.attach(2, &below);
  h.net.send(to_server(MessageType::kJoinRequest, 2));
  h.run(3);
  ASSERT_EQ(wide.degree(), 5u);

  std::optional<overlay::ColumnId> framed;
  const overlay::Row row = h.server.matrix().row(2);
  for (std::size_t i = 0; i < row.threads.size(); ++i) {
    if (row.up[i] == 1) framed = row.threads[i];
  }
  ASSERT_TRUE(framed.has_value()) << "no column where 1 feeds 2";
  h.net.send(to_server(MessageType::kComplaint, 2, *framed));
  h.run(static_cast<double>(scfg.repair_delay) + 2.0);
  ASSERT_FALSE(h.server.matrix().contains(1));  // evicted while alive

  h.run(4.0 * static_cast<double>(h.ccfg.silence_timeout));
  ASSERT_TRUE(h.server.matrix().contains(1));
  EXPECT_EQ(h.server.matrix().row(1).threads.size(), 5u);
  EXPECT_EQ(wide.degree(), 5u);
}

TEST(NodeProtocol, GoodbyeRacingARepairEndsItsEpisodeOnce) {
  // The server convicts a live member; before the repair fires, the member
  // says good-bye. The leave ends the repair episode: the repair never runs
  // and its span closes exactly once.
  obs::trace().clear();
  const ServerConfig scfg = server_config(6, 2, 4);
  Harness h(scfg, random_bytes(4 * 8, 5));
  Recorder upper, lower;
  h.net.attach(1, &upper);
  h.net.attach(2, &lower);
  // Member 1 clips every column, so it feeds member 2 on each of 2's.
  h.net.send(to_server(MessageType::kJoinRequest, 1, 0, /*degree=*/scfg.k));
  h.run(2);
  h.net.send(to_server(MessageType::kJoinRequest, 2));
  h.run(2);
  const overlay::ColumnId framed = h.server.matrix().row(2).threads[0];
  ASSERT_EQ(h.server.matrix().row(2).up[0], 1u);
  h.net.send(to_server(MessageType::kComplaint, 2, framed));
  h.run(1);
  ASSERT_TRUE(h.server.matrix().row(1).failed);  // convicted, repair pending
  h.net.send(to_server(MessageType::kGoodbye, 1));
  h.run(static_cast<double>(scfg.repair_delay) + 2.0);
  EXPECT_FALSE(h.server.matrix().contains(1));
  EXPECT_EQ(h.server.repairs_done(), 0u);
  EXPECT_EQ(h.server.last_repair_time(), -1.0);
#if NCAST_OBS_ENABLED
  std::vector<obs::SpanId> begun, ended;
  for (const auto& e : obs::trace().events_in_order()) {
    if (e.detail != "repair") continue;
    if (e.kind == obs::TraceKind::kSpanBegin) begun.push_back(e.span);
    if (e.kind == obs::TraceKind::kSpanEnd) ended.push_back(e.span);
  }
  ASSERT_EQ(begun.size(), 1u);
  EXPECT_EQ(ended, begun);
#endif
}

/// Lane decorator that counts the silence timers that fire on it.
class SilenceCounter final : public sim::Scheduler {
 public:
  explicit SilenceCounter(sim::Scheduler& lane) : lane_(&lane) {}

  sim::SimTime now() const override { return lane_->now(); }
  sim::TimerHandle schedule_at(
      sim::SimTime at, Callback fn,
      sim::TimerClass klass = sim::TimerClass::kGeneric) override {
    if (klass == sim::TimerClass::kSilence) {
      fn = [this, inner = std::move(fn)]() mutable {
        ++fired;
        inner();
      };
    }
    return lane_->schedule_at(at, std::move(fn), klass);
  }
  bool cancel(sim::TimerHandle handle) override {
    return lane_->cancel(handle);
  }

  std::size_t fired = 0;

 private:
  sim::Scheduler* lane_;
};

/// One client driven by hand on the default ideal links (latency 1): a
/// Recorder stands in for the server, and the test writes the accepts and
/// the parents' keepalives.
struct OneClient {
  sim::ShardedEngine engine{1, 0, 1.0};
  ShardedTransport net{engine, TransportSpec{}, 1, kAddresses};
  Recorder server;
  StreamState origin;
  SilenceCounter lane{engine.lane(1)};
  ClientNode client{1, ClientConfig{}};
  double now = 0.0;

  OneClient() {
    Rng key_rng(1);
    origin.initialize_source(random_bytes(4 * 8, 6), 4, 8,
                             coding::StructureSpec{}, 0, key_rng);
    net.attach(kServerAddress, &server);
    client.start(lane, net);
  }

  void accept(std::vector<overlay::ColumnId> columns) {
    Message m;
    m.type = MessageType::kJoinAccept;
    m.from = kServerAddress;
    m.to = 1;
    m.mutable_body().columns = std::move(columns);
    origin.announce(m);
    net.send(std::move(m));
  }

  void keepalive(overlay::ColumnId column) {
    Message m;
    m.type = MessageType::kKeepalive;
    m.from = 2;
    m.to = 1;
    m.column = column;
    net.send(std::move(m));
  }

  void run(double span) {
    now += span;
    engine.run_until(now);
  }

  std::size_t complaints_about(overlay::ColumnId column) const {
    std::size_t n = 0;
    for (const Message& m : server.got) {
      n += m.type == MessageType::kComplaint && m.column == column;
    }
    return n;
  }
};

TEST(NodeProtocol, ReadmissionGivesTheOldColumnsUp) {
  // Column 1 goes silent until the client complains, opening the column's
  // outage span; then a re-admission accept moves the client to columns
  // {2, 3}. Giving {0, 1} up ends that span at the accept and cancels both
  // silence timers: none of them fires afterwards.
  obs::trace().clear();
  OneClient c;
  c.accept({0, 1});
  c.run(1);
  ASSERT_TRUE(c.client.joined());
  while (c.complaints_about(1) == 0 && c.now < 20) {
    c.keepalive(0);
    c.run(1);
  }
  ASSERT_EQ(c.complaints_about(1), 1u);
  EXPECT_EQ(c.complaints_about(0), 0u);

  c.accept({2, 3});
  c.run(1);  // the accept lands now
  [[maybe_unused]] const double accepted_at = c.now;
  const std::size_t fired_at_accept = c.lane.fired;
  for (int step = 0; step < 40; ++step) {
    c.keepalive(2);
    c.keepalive(3);
    c.run(1);
  }
  EXPECT_EQ(c.lane.fired, fired_at_accept);
  EXPECT_EQ(c.complaints_about(0) + c.complaints_about(1), 1u);

#if NCAST_OBS_ENABLED
  obs::SpanId outage = obs::kNoSpan;
  std::vector<double> ends;
  for (const auto& e : obs::trace().events_in_order()) {
    if (e.detail != "complaint") continue;
    if (e.kind == obs::TraceKind::kSpanBegin) {
      EXPECT_EQ(e.a, 1u) << "only column 1 went silent";
      outage = e.span;
    } else if (e.kind == obs::TraceKind::kSpanEnd && e.span == outage) {
      ends.push_back(e.t);
    }
  }
  ASSERT_NE(outage, obs::kNoSpan);
  EXPECT_EQ(ends, std::vector<double>{accepted_at});
#endif
}

TEST(NodeProtocol, KeepaliveOnAnUnclippedColumnArmsNothing) {
  // Liveness on a column the client does not clip restarts no clock: a
  // timer there could only ever fire as a no-op.
  OneClient c;
  c.accept({0, 1});
  c.run(1);
  ASSERT_TRUE(c.client.joined());
  const std::size_t pending = c.engine.pending();
  c.keepalive(5);
  c.run(1);
  EXPECT_EQ(c.engine.pending(), pending);
}

/// A fabric decorator in front of the ShardedTransport: it logs what every
/// endpoint sends, and loses the first `drop_haves` haves the way a lossy
/// data plane might.
class Tap final : public AttachableTransport {
 public:
  struct Sent {
    double at;
    MessageType type;
    Address from, to;
    overlay::ColumnId column;
    Address subject;
  };

  Tap(sim::ShardedEngine& engine, ShardedTransport& inner)
      : engine_(engine), inner_(inner) {}

  void attach(Address addr, Endpoint* endpoint) override {
    inner_.attach(addr, endpoint);
  }
  void detach(Address addr) override { inner_.detach(addr); }
  void crash(Address addr) override { inner_.crash(addr); }
  void revive(Address addr) override { inner_.revive(addr); }
  bool crashed(Address addr) const override { return inner_.crashed(addr); }

  std::size_t drop_haves = 0;
  std::vector<Sent> log;  ///< everything sent, dropped haves included
  std::vector<Sent> dropped;

 protected:
  void route(Message m) override {
    const Sent s{engine_.now(), m.type, m.from, m.to, m.column, m.subject};
    log.push_back(s);
    if (m.type == MessageType::kHave && drop_haves > 0) {
      --drop_haves;
      dropped.push_back(s);
      return;
    }
    inner_.send(std::move(m));
  }

 private:
  sim::ShardedEngine& engine_;
  ShardedTransport& inner_;
};

/// Harness on the tapped fabric: a server and `n` clients joined at t = 0.
struct Tapped {
  sim::ShardedEngine engine{1, 0, 1.0};
  ShardedTransport fabric{engine, TransportSpec{}, 7, kAddresses};
  Tap net{engine, fabric};
  ServerNode server;
  std::vector<std::unique_ptr<ClientNode>> clients;
  double now = 0.0;

  Tapped(const ServerConfig& scfg, std::size_t n, std::uint32_t degree = 0)
      : server(scfg, random_bytes(scfg.generation_size * 8 * 2, 98)) {
    server.start(engine.lane(kServerAddress), net);
    ClientConfig ccfg;
    ccfg.silence_timeout = 6;
    for (Address a = 1; a <= n; ++a) {
      clients.push_back(std::make_unique<ClientNode>(a, ccfg));
      clients.back()->start(engine.lane(a), net, degree);
    }
  }

  void run(double span) {
    now += span;
    engine.run_until(now);
  }

  bool all_decoded() const {
    for (const auto& c : clients) {
      if (!c->decoded()) return false;
    }
    return true;
  }

  std::uint64_t complaints() const {
    std::uint64_t n = 0;
    for (const auto& c : clients) n += c->complaints_sent();
    return n;
  }

  /// The messages of `type` sent after `since`.
  std::size_t sent_since(double since, MessageType type) const {
    std::size_t n = 0;
    for (const Tap::Sent& s : net.log) n += s.at > since && s.type == type;
    return n;
  }
};

TEST(NodeProtocol, LostHaveRepairsItself) {
  // A lone client clips two columns, both fed by the server. Its first have
  // is lost; the next frame of that generation on that column is answered
  // again, so the server still ends up sending only keepalives to it.
  Tapped t(server_config(4, 2, 8), 1);
  t.net.drop_haves = 1;
  for (int tick = 0; tick < 100 && !t.all_decoded(); ++tick) t.run(1);
  ASSERT_TRUE(t.all_decoded());
  t.run(10);
  ASSERT_EQ(t.net.dropped.size(), 1u);
  const Tap::Sent lost = t.net.dropped.front();
  EXPECT_EQ(lost.from, 1u);
  EXPECT_EQ(lost.to, kServerAddress);
  std::size_t resent = 0;
  for (const Tap::Sent& s : t.net.log) {
    resent += s.type == MessageType::kHave && s.at > lost.at &&
              s.column == lost.column && s.subject == lost.subject;
  }
  EXPECT_GE(resent, 1u);
  const double quiet_from = t.now;
  t.run(20);
  EXPECT_EQ(t.sent_since(quiet_from, MessageType::kData), 0u);
  EXPECT_EQ(t.sent_since(quiet_from, MessageType::kKeepalive), 2u * 20u);
  EXPECT_EQ(t.sent_since(quiet_from, MessageType::kHave), 0u);
  EXPECT_EQ(t.clients[0]->data(), t.server.data());
}

TEST(NodeProtocol, MaskedClientsGetKeepalivesAndNeverComplain) {
  // Once every client has decoded, every parent — the server and relaying
  // clients alike — masks every generation on every out-link. The swarm
  // then carries keepalives only, and no silence timer fires a complaint
  // for ten silence timeouts.
  Tapped t(server_config(8, 3, 8), 12);
  for (int tick = 0; tick < 300 && !t.all_decoded(); ++tick) t.run(1);
  ASSERT_TRUE(t.all_decoded());
  t.run(5);  // the last haves land
  const std::uint64_t complaints = t.complaints();
  const double quiet_from = t.now;
  t.run(10.0 * 6);
  EXPECT_EQ(t.complaints(), complaints);
  EXPECT_EQ(t.sent_since(quiet_from, MessageType::kData), 0u);
  EXPECT_EQ(t.sent_since(quiet_from, MessageType::kHave), 0u);
  std::vector<std::size_t> keepalives(t.clients.size() + 1, 0);
  for (const Tap::Sent& s : t.net.log) {
    if (s.at > quiet_from && s.type == MessageType::kKeepalive) {
      ++keepalives[s.to];
    }
  }
  for (const auto& c : t.clients) {
    // One keepalive per in-thread per tick.
    EXPECT_EQ(keepalives[c->address()], 60u * c->degree()) << c->address();
  }
}

TEST(NodeProtocol, ClientValidation) {
  ClientConfig cfg;
  EXPECT_THROW(ClientNode(kServerAddress, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace ncast
