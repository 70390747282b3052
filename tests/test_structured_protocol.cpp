// End-to-end structure-aware streaming on the sharded protocol plane: a
// ServerNode announcing a banded (w = g/8 wrapping, or w = g/4 not) or
// overlapped structure, real clients joining over the hello protocol on
// ShardedEngine/ShardedTransport, and — the acceptance bar the scenario
// report cannot check — every client's reconstructed bytes IDENTICAL to the
// server's content. This is the direct proof that the v2 compact framing,
// the mixed banded traffic (encoder strips + densified relay rows), the
// structure descriptor handshake, and the structured recode path compose
// into a correct broadcast.

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

#include "coding/structure.hpp"
#include "node/client_node.hpp"
#include "node/protocol_scenario.hpp"
#include "node/server_node.hpp"
#include "node/sharded_transport.hpp"
#include "sim/link_model.hpp"
#include "sim/sharded_engine.hpp"

namespace ncast {
namespace {

// The scenario runners' content pattern: keyed by the seed, no RNG draws.
std::vector<std::uint8_t> pattern_content(std::size_t bytes,
                                          std::uint64_t seed) {
  std::vector<std::uint8_t> content(bytes);
  for (std::size_t i = 0; i < bytes; ++i) {
    content[i] = static_cast<std::uint8_t>(
        (i * 131u) ^ (i >> 3) ^ static_cast<std::size_t>(seed * 0x9e37u));
  }
  return content;
}

// Runs `clients` ClientNodes against a ServerNode with the given structure
// on the sharded kernel and returns true iff every client reconstructed the
// content byte for byte.
void expect_byte_identical_broadcast(const coding::StructureSpec& structure,
                                     const char* what) {
  constexpr std::size_t kClients = 5;
  constexpr std::size_t kGenerations = 2;
  constexpr std::size_t kGenSize = 16;
  constexpr std::size_t kSymbols = 8;
  constexpr std::uint64_t kSeed = 0x51;

  const auto content =
      pattern_content(kGenerations * kGenSize * kSymbols, kSeed);

  sim::ShardedEngine engine(4, 2, 0.5);
  engine.reserve_lanes(kClients + 1);

  node::ServerConfig scfg;
  scfg.k = 6;
  scfg.default_degree = 2;
  scfg.generation_size = kGenSize;
  scfg.symbols = kSymbols;
  scfg.null_keys = 2;  // verification must survive the structured plane too
  scfg.structure = structure;
  scfg.seed = kSeed;
  node::ServerNode server(scfg, content);

  node::TransportSpec tspec;
  tspec.latency = sim::LatencySpec::uniform(0.5, 1.5);
  node::ShardedTransport net(engine, tspec, kSeed, kClients + 1);
  server.start(engine.lane(node::kServerAddress), net);

  node::ClientConfig ccfg;
  ccfg.seed = kSeed;
  std::vector<std::unique_ptr<node::ClientNode>> clients;
  for (std::size_t i = 0; i < kClients; ++i) {
    clients.push_back(std::make_unique<node::ClientNode>(
        static_cast<node::Address>(i + 1), ccfg));
    clients.back()->start(engine.lane(static_cast<sim::LaneId>(i + 1)), net);
  }

  engine.run_until(400.0);

  for (const auto& c : clients) {
    ASSERT_TRUE(c->joined()) << what << " client " << c->address();
    ASSERT_TRUE(c->decoded()) << what << " client " << c->address();
    EXPECT_EQ(c->data(), content) << what << " client " << c->address();
    EXPECT_TRUE(c->verification_enabled()) << what;
  }
}

TEST(StructuredProtocol, DenseStreamDecodesByteIdentical) {
  expect_byte_identical_broadcast(coding::StructureSpec::dense(), "dense");
}

TEST(StructuredProtocol, BandedStreamDecodesByteIdentical) {
  // w = g/8 = 2, wrapping: the thinnest band the issue's sweep names.
  expect_byte_identical_broadcast(coding::StructureSpec::banded(2, true),
                                  "banded");
}

TEST(StructuredProtocol, NonWrapBandedStreamDecodesByteIdentical) {
  // Clamped-window bands: relays absorb edge-clamped strips and recode them
  // into dense rows the same way they do wrapping ones.
  expect_byte_identical_broadcast(coding::StructureSpec::banded(4),
                                  "banded non-wrap");
}

TEST(StructuredProtocol, OverlappedStreamDecodesByteIdentical) {
  expect_byte_identical_broadcast(coding::StructureSpec::overlapping(6, 2),
                                  "overlapped");
}

// The join handshake carries the resolved descriptor; a client that asked
// for nothing special must end up with the server's structure, and the
// decoded-fraction gates must hold for all three structures on the sharded
// scenario runner (the acceptance criterion's harness-level form).
TEST(StructuredProtocol, ScenarioGatesHoldForAllStructures) {
  const struct {
    const char* name;
    coding::StructureSpec structure;
  } lanes[] = {
      {"dense", coding::StructureSpec::dense()},
      {"banded", coding::StructureSpec::banded(2, true)},
      {"overlapped", coding::StructureSpec::overlapping(6, 2)},
  };
  for (const auto& lane : lanes) {
    node::ProtocolScenarioSpec spec;
    spec.k = 6;
    spec.default_degree = 2;
    spec.generations = 2;
    spec.generation_size = 16;
    spec.symbols = 8;
    spec.seed = 11;
    spec.structure = lane.structure;
    spec.transport.latency = sim::LatencySpec::uniform(0.5, 1.5);
    spec.initial_clients = 6;
    const auto report = node::run_scenario_sharded(spec, 4, 2);
    EXPECT_EQ(report.decoded_fraction(), 1.0) << lane.name;
    EXPECT_GT(report.data_bytes, 0u) << lane.name;
    for (const auto& o : report.outcomes) {
      EXPECT_TRUE(o.joined) << lane.name << " client " << o.address;
    }
  }
}

}  // namespace
}  // namespace ncast
