// Tracker-less swarm tests: joins by gossip, decentralized silence-driven
// repair, graceful departures, source-only seeding — Section 7's "role of
// the server ... even eliminated", exercised message by message on the
// sharded kernel's fabric (one shard, no workers, ideal links).

#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <vector>

#include "node/gossip_peer.hpp"
#include "node/sharded_transport.hpp"
#include "sim/sharded_engine.hpp"
#include "util/rng.hpp"

namespace ncast {
namespace {

using namespace node;

constexpr std::size_t kAddresses = 256;

std::vector<std::uint8_t> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> bytes(n);
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.below(256));
  return bytes;
}

/// Peers on one engine and fabric; the test advances time.
struct Mesh {
  sim::ShardedEngine engine{1, 0, 1.0};
  ShardedTransport net{engine, TransportSpec{}, 1, kAddresses};
  std::vector<GossipPeer*> peers;
  double now = 0.0;

  void add(GossipPeer& peer) {
    peers.push_back(&peer);
    peer.start(engine.lane(peer.address()), net);
  }

  void run(double span) {
    now += span;
    engine.run_until(now);
  }

  void crash(GossipPeer& peer) {
    peer.crash();
    net.crash(peer.address());
  }

  /// Runs until every live non-source peer decoded, or the budget runs out.
  bool run_until_decoded(double max_time) {
    for (double t = 0.0; t < max_time; t += 1.0) {
      run(1.0);
      bool any = false;
      bool all = true;
      for (GossipPeer* p : peers) {
        if (p->crashed() || p->departed() || p->is_source()) continue;
        if (!p->decoded()) {
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

struct Swarm : Mesh {
  GossipPeerConfig cfg;
  std::unique_ptr<GossipPeer> source;
  std::vector<std::unique_ptr<GossipPeer>> members;

  explicit Swarm(std::size_t n_peers, std::uint32_t source_slots = 6,
                 std::uint64_t seed = 1) {
    cfg.want_parents = 3;
    cfg.upload_slots = 3;
    cfg.silence_timeout = 6;
    cfg.seed = seed;
    GossipPeerConfig source_cfg = cfg;
    source_cfg.upload_slots = source_slots;
    source = std::make_unique<GossipPeer>(
        1, source_cfg, random_bytes(8 * 8 * 2, seed ^ 0x99), 8, 8);
    add(*source);

    for (std::size_t i = 0; i < n_peers; ++i) {
      // Early peers are introduced to the source; later ones to a random
      // earlier peer — nobody else ever learns the membership centrally.
      const Address addr = static_cast<Address>(i + 2);
      const Address introducer =
          i == 0 ? 1 : static_cast<Address>(2 + (seed + i * 7) % i);
      members.push_back(std::make_unique<GossipPeer>(addr, cfg, introducer));
      add(*members.back());
    }
  }
};

TEST(GossipPeer, SwarmBootstrapsAndDecodes) {
  Swarm s(20);
  ASSERT_TRUE(s.run_until_decoded(600));
  for (auto& p : s.members) {
    EXPECT_TRUE(p->decoded());
    EXPECT_EQ(p->data(), s.source->data());
    EXPECT_LE(p->parent_count(), 3u);
  }
}

TEST(GossipPeer, ViewsStayBoundedAndUseful) {
  Swarm s(30);
  s.run(100);
  for (auto& p : s.members) {
    EXPECT_LE(p->view_size(), GossipPeer::kViewLimit);
    EXPECT_GE(p->view_size(), 1u);
  }
}

TEST(GossipPeer, DecentralizedRepairAfterCrash) {
  Swarm s(18);
  s.run(30);  // everyone wired up and streaming

  // Crash a peer that is serving children; its children must notice the
  // silence, drop it, and re-acquire feeds from elsewhere — no server.
  GossipPeer* victim = nullptr;
  for (auto& p : s.members) {
    if (p->child_count() > 0) {
      victim = p.get();
      break;
    }
  }
  ASSERT_NE(victim, nullptr);
  s.crash(*victim);

  ASSERT_TRUE(s.run_until_decoded(800));
  // Decoding often finishes before the silence timeout even fires (the
  // redundancy covers the outage); run on so the repair machinery itself is
  // observable: the children must drop the corpse and re-acquire.
  s.run(static_cast<double>(s.cfg.silence_timeout * 2) +
        GossipPeer::kRequestTimeout + 6.0);
  std::uint64_t reacquisitions = 0;
  for (auto& p : s.members) {
    if (p->crashed()) continue;
    reacquisitions += p->reacquisitions();
    EXPECT_TRUE(p->decoded());
    EXPECT_EQ(p->data(), s.source->data());
  }
  EXPECT_GE(reacquisitions, 1u);
}

TEST(GossipPeer, GracefulLeaveReleasesSlotsAndRewires) {
  Swarm s(16);
  s.run(30);
  auto& leaver = *s.members[3];
  const auto parents = leaver.parent_count();
  ASSERT_GT(parents, 0u);
  leaver.leave(s.net);
  EXPECT_TRUE(leaver.departed());
  s.run(20);
  // Its former children must have re-acquired (or already held) full feeds
  // and everyone still completes.
  ASSERT_TRUE(s.run_until_decoded(600));
  for (auto& p : s.members) {
    if (p->departed()) continue;
    EXPECT_TRUE(p->decoded());
  }
}

TEST(GossipPeer, SourceNeverRequestsAndServesItsSlots) {
  Swarm s(12, /*source_slots=*/4);
  s.run(60);
  EXPECT_TRUE(s.source->is_source());
  EXPECT_EQ(s.source->parent_count(), 0u);
  EXPECT_LE(s.source->child_count(), 4u);
  EXPECT_GE(s.source->child_count(), 1u);
}

TEST(GossipPeer, DepartedPeerStopsTicking) {
  // Leaving retires the periodic serve/repair/gossip loop with the peer: a
  // lone source that leaves at t = 0.5 runs no tick and leaves none pending.
  Mesh mesh;
  GossipPeer source(1, GossipPeerConfig{}, random_bytes(8 * 8, 3), 8, 8);
  mesh.add(source);
  mesh.run(0.5);
  source.leave(mesh.net);
  EXPECT_EQ(mesh.engine.run_until(100.5), 0u);
  EXPECT_EQ(mesh.engine.pending(), 0u);
}

TEST(GossipPeer, ParentMasksOnASlotLink) {
  // A slot link is keyed by its child's address, and the child's haves name
  // that key: once the lone peer has decoded, the source stops sending it
  // data and keeps the link alive with keepalives.
  Mesh mesh;
  GossipPeerConfig cfg;
  cfg.silence_timeout = 6;
  GossipPeer source(1, cfg, random_bytes(8 * 8 * 3, 4), 8, 8);
  GossipPeer peer(2, cfg, /*introducer=*/1);
  mesh.add(source);
  mesh.add(peer);
  ASSERT_TRUE(mesh.run_until_decoded(200));
  ASSERT_EQ(source.child_count(), 1u);
  mesh.run(5);  // the last haves land
  const std::uint64_t data = mesh.net.data_messages();
  const std::uint64_t keepalives = mesh.net.keepalive_messages();
  mesh.run(30);
  EXPECT_EQ(mesh.net.data_messages(), data);
  EXPECT_EQ(mesh.net.keepalive_messages(), keepalives + 30);
  EXPECT_EQ(peer.parent_count(), 1u);  // the keepalives kept the feed alive
  EXPECT_EQ(peer.data(), source.data());
}

TEST(GossipPeer, LateJoinerFindsTheSwarmViaGossip) {
  Swarm s(15);
  ASSERT_TRUE(s.run_until_decoded(600));
  // The latecomer is introduced to a random old peer, never the source.
  auto late = std::make_unique<GossipPeer>(200, s.cfg, /*introducer=*/9);
  s.add(*late);
  s.run(400);
  EXPECT_TRUE(late->decoded());
  EXPECT_EQ(late->data(), s.source->data());
}

TEST(GossipPeer, DenialsCarrySamplesSoSearchProgresses) {
  // A tiny source (1 slot) forces most requests to be denied; the swarm must
  // still complete because denials fan the search out.
  Swarm s(10, /*source_slots=*/1);
  EXPECT_TRUE(s.run_until_decoded(1500));
}

TEST(GossipPeer, NullKeysPropagateTransitively) {
  // The source generates keys; every grant hands them down, so a peer many
  // hops from the source still verifies packets.
  GossipPeerConfig cfg;
  cfg.want_parents = 2;
  cfg.upload_slots = 2;
  cfg.null_keys = 3;
  GossipPeerConfig source_cfg = cfg;
  source_cfg.upload_slots = 2;
  Mesh mesh;
  GossipPeer source(1, source_cfg, random_bytes(8 * 8, 11), 8, 8);
  mesh.add(source);
  std::vector<std::unique_ptr<GossipPeer>> peers;
  for (Address a = 2; a <= 13; ++a) {
    peers.push_back(std::make_unique<GossipPeer>(a, cfg, a - 1));
    mesh.add(*peers.back());
  }
  ASSERT_TRUE(mesh.run_until_decoded(800));
  for (auto& p : peers) {
    EXPECT_TRUE(p->verification_enabled()) << "peer " << p->address();
    EXPECT_EQ(p->data(), source.data());
  }
}

TEST(GossipPeer, SustainedChurnSelfHeals) {
  Swarm s(24, 6, /*seed=*/5);
  Rng rng(77);
  s.run(30);
  std::size_t crashes = 0, leaves = 0;
  for (int step = 0; step < 30; ++step) {
    s.run(8);
    std::vector<GossipPeer*> live;
    for (auto& p : s.members) {
      if (!p->crashed() && !p->departed()) live.push_back(p.get());
    }
    if (live.size() <= 12) break;  // keep a viable swarm
    const auto roll = rng.below(10);
    if (roll < 3) {
      s.crash(*live[rng.below(live.size())]);
      ++crashes;
    } else if (roll < 5) {
      live[rng.below(live.size())]->leave(s.net);
      ++leaves;
    }
  }
  EXPECT_GT(crashes, 0u);
  EXPECT_GT(leaves, 0u);
  ASSERT_TRUE(s.run_until_decoded(1500));
  for (auto& p : s.members) {
    if (p->crashed() || p->departed()) continue;
    EXPECT_TRUE(p->decoded());
    EXPECT_EQ(p->data(), s.source->data());
  }
}

/// A fabric decorator that logs every membership message (everything off
/// the data plane): when it was sent, its type, its ends and the view
/// sample it carries.
class MembershipLog final : public AttachableTransport {
 public:
  using Entry = std::tuple<double, MessageType, Address, Address,
                           std::vector<Address>>;

  MembershipLog(sim::ShardedEngine& engine, ShardedTransport& inner)
      : engine_(engine), inner_(inner) {}

  void attach(Address addr, Endpoint* endpoint) override {
    inner_.attach(addr, endpoint);
  }
  void detach(Address addr) override { inner_.detach(addr); }
  void crash(Address addr) override { inner_.crash(addr); }
  void revive(Address addr) override { inner_.revive(addr); }
  bool crashed(Address addr) const override { return inner_.crashed(addr); }

  std::vector<Entry> log;

 protected:
  void route(Message m) override {
    if (!is_data_plane(m)) {
      log.emplace_back(engine_.now(), m.type, m.from, m.to,
                       m.body() ? m.body()->peers : std::vector<Address>{});
    }
    inner_.send(std::move(m));
  }

 private:
  sim::ShardedEngine& engine_;
  ShardedTransport& inner_;
};

TEST(GossipPeer, UploadDrawsNeverMoveMembership) {
  // Two swarms that differ only in generation size, so each upload draws 8
  // or 4 coefficients, from 2 or 4 generations. Membership (view eviction,
  // samples, the parent search) draws from its own stream, so both swarms
  // send the same membership messages to the same peers at the same times,
  // through a crash and a leave.
  const auto membership = [](std::size_t generation_size) {
    sim::ShardedEngine engine(1, 0, 1.0);
    ShardedTransport fabric(engine, TransportSpec{}, 1, kAddresses);
    MembershipLog net(engine, fabric);
    GossipPeerConfig cfg;
    cfg.silence_timeout = 6;
    cfg.seed = 3;
    GossipPeer source(1, cfg, random_bytes(8 * 8 * 2, 5), generation_size, 8);
    source.start(engine.lane(1), net);
    std::vector<std::unique_ptr<GossipPeer>> peers;
    for (Address a = 2; a < 16; ++a) {
      peers.push_back(std::make_unique<GossipPeer>(a, cfg, a - 1));
      peers.back()->start(engine.lane(a), net);
    }
    engine.run_until(40.0);
    peers[3]->crash();
    net.crash(peers[3]->address());
    engine.run_until(60.0);
    peers[5]->leave(net);
    engine.run_until(200.0);
    for (const auto& p : peers) {
      if (p->crashed() || p->departed()) continue;
      EXPECT_TRUE(p->decoded()) << "g " << generation_size << ", peer "
                                << p->address();
    }
    return net.log;
  };
  const auto eight = membership(8);
  const auto four = membership(4);
  ASSERT_GT(eight.size(), 100u);
  ASSERT_EQ(eight.size(), four.size());
  for (std::size_t i = 0; i < eight.size(); ++i) {
    ASSERT_EQ(eight[i], four[i]) << "membership message " << i;
  }
}

}  // namespace
}  // namespace ncast
