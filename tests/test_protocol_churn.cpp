// Protocol-level churn stress: hundreds of time units of interleaved joins,
// graceful leaves, silent crashes, and congestion adjustments against live
// ServerNode/ClientNode endpoints on the sharded kernel's fabric, with
// consistency checked throughout and end-to-end payload integrity at the
// end. This is the closest thing in the suite to "running the deployment".

#include <gtest/gtest.h>

#include <memory>

#include "node/client_node.hpp"
#include "node/server_node.hpp"
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

class ProtocolChurn : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(ProtocolChurn, SustainedMixedWorkload) {
  const std::uint64_t seed = GetParam();
  ServerConfig scfg;
  scfg.k = 12;
  scfg.default_degree = 3;
  scfg.repair_delay = 2;
  scfg.generation_size = 8;
  scfg.symbols = 8;
  scfg.seed = seed;
  ServerNode server(scfg, random_bytes(8 * 8 * 2, seed ^ 0x1234));

  ClientConfig ccfg;
  ccfg.silence_timeout = 6;
  ccfg.seed = seed;

  sim::ShardedEngine engine(1, 0, 1.0);
  ShardedTransport net(engine, TransportSpec{}, seed, kAddresses);
  server.start(engine.lane(kServerAddress), net);
  double now = 0.0;
  const auto run = [&](double span) {
    now += span;
    engine.run_until(now);
  };

  std::vector<std::unique_ptr<ClientNode>> clients;
  Rng rng(seed * 31 + 7);
  Address next_address = 1;

  auto spawn = [&] {
    const Address addr = next_address++;
    clients.push_back(std::make_unique<ClientNode>(addr, ccfg));
    clients.back()->start(engine.lane(addr), net);
  };
  for (int i = 0; i < 10; ++i) spawn();

  std::size_t leaves = 0, crashes = 0;
  for (int step = 0; step < 120; ++step) {
    run(3);

    // Pick a random live, joined client for an action.
    std::vector<ClientNode*> live;
    for (auto& c : clients) {
      if (!c->crashed() && c->joined() &&
          server.matrix().contains(c->address())) {
        live.push_back(c.get());
      }
    }
    const auto roll = rng.below(100);
    if (roll < 40 || live.size() < 6) {
      spawn();
    } else if (roll < 55) {
      live[rng.below(live.size())]->leave(net);
      ++leaves;
    } else if (roll < 70) {
      ClientNode& victim = *live[rng.below(live.size())];
      victim.crash();
      net.crash(victim.address());
      ++crashes;
    } else if (roll < 85) {
      live[rng.below(live.size())]->request_offload(net);
    } else {
      live[rng.below(live.size())]->request_restore(net);
    }
    ASSERT_TRUE(server.matrix().check_invariants()) << "step " << step;
  }

  EXPECT_GT(leaves, 0u);
  EXPECT_GT(crashes, 0u);

  // Quiesce: let all complaints resolve, then stream to completion.
  run(60);
  EXPECT_EQ(server.matrix().failed_count(), 0u);

  std::size_t live_joined = 0, decoded = 0, verified = 0;
  run(800);
  for (auto& c : clients) {
    if (c->crashed() || !c->joined()) continue;
    if (!server.matrix().contains(c->address())) continue;  // left gracefully
    ++live_joined;
    if (c->decoded()) {
      ++decoded;
      if (c->data() == server.data()) ++verified;
    }
  }
  ASSERT_GT(live_joined, 0u);
  EXPECT_EQ(decoded, live_joined);
  EXPECT_EQ(verified, decoded);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ProtocolChurn,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

}  // namespace
}  // namespace ncast
