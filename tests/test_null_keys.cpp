// Null-key verification tests: valid packets (including recoded ones) always
// pass; corrupted packets are rejected with the advertised probability; a
// defended round-synchronous broadcast contains jamming.

#include "coding/null_keys.hpp"

#include <gtest/gtest.h>

#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "gf/gf256.hpp"
#include "overlay/curtain_server.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

namespace ncast {
namespace {

using Gf = gf::Gf256;

std::vector<std::vector<std::uint8_t>> random_source(std::size_t g,
                                                     std::size_t symbols,
                                                     Rng& rng) {
  std::vector<std::vector<std::uint8_t>> src(g, std::vector<std::uint8_t>(symbols));
  for (auto& row : src) {
    for (auto& b : row) b = static_cast<std::uint8_t>(rng.below(256));
  }
  return src;
}

TEST(NullKeys, Validation) {
  Rng rng(1);
  EXPECT_THROW(coding::NullKeySet<Gf>::generate(0, {}, 2, rng),
               std::invalid_argument);
  EXPECT_THROW(coding::NullKeySet<Gf>::generate(0, {{}}, 2, rng),
               std::invalid_argument);
  EXPECT_THROW(coding::NullKeySet<Gf>::generate(0, {{1, 2}, {3}}, 2, rng),
               std::invalid_argument);
  EXPECT_THROW(coding::NullKeySet<Gf>::generate(0, {{1, 2}}, 0, rng),
               std::invalid_argument);
}

TEST(NullKeys, ValidPacketsAlwaysPass) {
  Rng rng(2);
  const auto source = random_source(8, 16, rng);
  coding::SourceEncoder<Gf> enc(3, source);
  const auto keys = coding::NullKeySet<Gf>::generate(3, source, 4, rng);
  for (int i = 0; i < 200; ++i) {
    EXPECT_TRUE(keys.verify(enc.emit(rng)));
  }
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_TRUE(keys.verify(enc.emit_systematic(i)));
  }
}

TEST(NullKeys, RecodedPacketsStillPass) {
  // The whole point: verification commutes with in-network mixing.
  Rng rng(3);
  const auto source = random_source(6, 12, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  const auto keys = coding::NullKeySet<Gf>::generate(0, source, 4, rng);

  coding::Decoder<Gf> relay1(0, 6, 12), relay2(0, 6, 12);
  for (int i = 0; i < 10; ++i) relay1.absorb(enc.emit(rng));
  for (int i = 0; i < 10; ++i) {
    if (auto p = relay1.emit(rng)) relay2.absorb(*p);
  }
  for (int i = 0; i < 100; ++i) {
    const auto p = relay2.emit(rng);
    ASSERT_TRUE(p.has_value());
    EXPECT_TRUE(keys.verify(*p));
  }
}

TEST(NullKeys, CorruptedPacketsRejected) {
  Rng rng(4);
  const auto source = random_source(8, 16, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  const auto keys = coding::NullKeySet<Gf>::generate(0, source, 4, rng);
  for (int i = 0; i < 200; ++i) {
    auto p = enc.emit(rng);
    // Flip one payload byte.
    p.payload[rng.below(p.payload.size())] ^= static_cast<std::uint8_t>(rng.between(1, 255));
    EXPECT_FALSE(keys.verify(p)) << "trial " << i;
  }
}

TEST(NullKeys, CorruptedCoefficientsRejected) {
  Rng rng(5);
  const auto source = random_source(8, 16, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  const auto keys = coding::NullKeySet<Gf>::generate(0, source, 4, rng);
  for (int i = 0; i < 200; ++i) {
    auto p = enc.emit(rng);
    p.coeffs[rng.below(p.coeffs.size())] ^= static_cast<std::uint8_t>(rng.between(1, 255));
    EXPECT_FALSE(keys.verify(p));
  }
}

TEST(NullKeys, RandomGarbageRejected) {
  Rng rng(6);
  const auto source = random_source(8, 16, rng);
  const auto keys = coding::NullKeySet<Gf>::generate(0, source, 4, rng);
  for (int i = 0; i < 300; ++i) {
    coding::CodedPacket<Gf> p;
    p.generation = 0;
    p.coeffs.resize(8);
    p.payload.resize(16);
    for (auto& c : p.coeffs) c = static_cast<std::uint8_t>(rng.below(256));
    for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng.below(256));
    if (p.is_degenerate()) continue;
    EXPECT_FALSE(keys.verify(p));
  }
}

TEST(NullKeys, SingleKeyFalseAcceptRateNear1Over256) {
  // With one key, garbage passes with probability ~1/256.
  Rng rng(7);
  const auto source = random_source(4, 8, rng);
  const auto keys = coding::NullKeySet<Gf>::generate(0, source, 1, rng);
  std::size_t accepted = 0;
  const std::size_t trials = 40000;
  for (std::size_t i = 0; i < trials; ++i) {
    coding::CodedPacket<Gf> p;
    p.generation = 0;
    p.coeffs.resize(4);
    p.payload.resize(8);
    for (auto& c : p.coeffs) c = static_cast<std::uint8_t>(rng.below(256));
    for (auto& b : p.payload) b = static_cast<std::uint8_t>(rng.below(256));
    if (keys.verify(p)) ++accepted;
  }
  const double rate = static_cast<double>(accepted) / static_cast<double>(trials);
  EXPECT_NEAR(rate, 1.0 / 256.0, 1.5e-3);
}

TEST(NullKeys, WrongShapeOrGenerationRejected) {
  Rng rng(8);
  const auto source = random_source(4, 8, rng);
  coding::SourceEncoder<Gf> enc(1, source);
  const auto keys = coding::NullKeySet<Gf>::generate(1, source, 2, rng);
  auto p = enc.emit(rng);
  p.generation = 0;
  EXPECT_FALSE(keys.verify(p));
  auto q = enc.emit(rng);
  q.payload.pop_back();
  EXPECT_FALSE(keys.verify(q));
}

TEST(NullKeys, DefendedBroadcastContainsJamming) {
  overlay::CurtainServer server(8, 3, Rng(9));
  for (int i = 0; i < 80; ++i) server.join();
  std::vector<sim::NodeBehavior> behavior(80, sim::NodeBehavior::kHonest);
  behavior[2] = sim::NodeBehavior::kJammer;
  behavior[7] = sim::NodeBehavior::kJammer;

  sim::ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 8;
  spec.round_sync = true;
  spec.seed = 10;

  const auto undefended = sim::run_scenario(server.matrix(), spec, behavior);
  spec.null_keys = 4;
  const auto defended = sim::run_scenario(server.matrix(), spec, behavior);

  EXPECT_GT(undefended.corrupted_fraction(), 0.3);
  EXPECT_DOUBLE_EQ(defended.corrupted_fraction(), 0.0);
  // Verification costs nothing in deliverable rate: jam packets are dropped,
  // honest packets flow; decoding stays near-universal.
  EXPECT_GT(defended.decoded_fraction(), 0.95);
}

}  // namespace
}  // namespace ncast
