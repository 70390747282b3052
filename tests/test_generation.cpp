// Generation segmentation and whole-file codec tests.

#include "coding/generation.hpp"

#include <gtest/gtest.h>

#include "coding/file_codec.hpp"
#include "util/rng.hpp"

namespace ncast {
namespace {

std::vector<std::uint8_t> random_bytes(std::size_t n, Rng& rng) {
  std::vector<std::uint8_t> v(n);
  for (auto& b : v) b = static_cast<std::uint8_t>(rng.below(256));
  return v;
}

TEST(GenerationPlan, ExactFit) {
  const auto plan = coding::plan_generations(64, 4, 8);  // 2 generations of 32
  EXPECT_EQ(plan.generations, 2u);
  EXPECT_EQ(plan.bytes_per_generation(), 32u);
}

TEST(GenerationPlan, PartialLastGeneration) {
  const auto plan = coding::plan_generations(65, 4, 8);
  EXPECT_EQ(plan.generations, 3u);
}

TEST(GenerationPlan, EmptyDataStillOneGeneration) {
  const auto plan = coding::plan_generations(0, 4, 8);
  EXPECT_EQ(plan.generations, 1u);
}

TEST(GenerationPlan, Validation) {
  EXPECT_THROW(coding::plan_generations(10, 0, 8), std::invalid_argument);
  EXPECT_THROW(coding::plan_generations(10, 4, 0), std::invalid_argument);
}

TEST(GenerationPackets, SegmentationAndPadding) {
  Rng rng(1);
  const auto data = random_bytes(20, rng);
  const auto plan = coding::plan_generations(20, 2, 8);  // 16 bytes/gen, 2 gens
  ASSERT_EQ(plan.generations, 2u);

  const auto g0 = coding::generation_packets(data, plan, 0);
  ASSERT_EQ(g0.size(), 2u);
  EXPECT_EQ(g0[0], std::vector<std::uint8_t>(data.begin(), data.begin() + 8));
  EXPECT_EQ(g0[1], std::vector<std::uint8_t>(data.begin() + 8, data.begin() + 16));

  const auto g1 = coding::generation_packets(data, plan, 1);
  for (std::size_t s = 0; s < 8; ++s) {
    EXPECT_EQ(g1[0][s], s < 4 ? data[16 + s] : 0);  // padded past data end
    EXPECT_EQ(g1[1][s], 0);
  }
  EXPECT_THROW(coding::generation_packets(data, plan, 2), std::out_of_range);
}

TEST(GenerationPackets, FlatVariantMatchesPerPacket) {
  // generation_packets_into() is the allocation-light path FileEncoder and
  // the benches use; byte for byte it must agree with the per-packet
  // variant, including zero padding in the partial last generation.
  Rng rng(7);
  std::vector<std::uint8_t> flat;
  for (std::size_t size : {0u, 1u, 20u, 31u, 32u, 33u, 100u}) {
    const auto data = random_bytes(size, rng);
    const auto plan = coding::plan_generations(size, 4, 8);
    for (std::size_t g = 0; g < plan.generations; ++g) {
      coding::generation_packets_into(data, plan, g, flat);  // reuses `flat`
      ASSERT_EQ(flat.size(), plan.bytes_per_generation());
      const auto packets = coding::generation_packets(data, plan, g);
      for (std::size_t p = 0; p < packets.size(); ++p) {
        for (std::size_t s = 0; s < plan.symbols; ++s) {
          ASSERT_EQ(flat[p * plan.symbols + s], packets[p][s])
              << "size " << size << " gen " << g << " packet " << p;
        }
      }
    }
    EXPECT_THROW(
        coding::generation_packets_into(data, plan, plan.generations, flat),
        std::out_of_range);
  }
}

TEST(GenerationPackets, ReassembleRoundTrip) {
  Rng rng(2);
  for (std::size_t size : {0u, 1u, 31u, 32u, 33u, 100u}) {
    const auto data = random_bytes(size, rng);
    const auto plan = coding::plan_generations(size, 4, 8);
    std::vector<std::vector<std::vector<std::uint8_t>>> gens;
    for (std::size_t g = 0; g < plan.generations; ++g) {
      gens.push_back(coding::generation_packets(data, plan, g));
    }
    EXPECT_EQ(coding::reassemble(gens, plan), data) << "size " << size;
  }
}

TEST(Reassemble, Validation) {
  const auto plan = coding::plan_generations(16, 2, 8);
  EXPECT_THROW(coding::reassemble({}, plan), std::invalid_argument);
  std::vector<std::vector<std::vector<std::uint8_t>>> wrong_packets(
      1, std::vector<std::vector<std::uint8_t>>(1));
  EXPECT_THROW(coding::reassemble(wrong_packets, plan), std::invalid_argument);
}

TEST(FileCodec, RoundTripSingleGeneration) {
  Rng rng(3);
  const auto data = random_bytes(100, rng);
  coding::FileEncoder enc(data, 8, 16);  // 128 bytes/gen -> 1 generation
  ASSERT_EQ(enc.generations(), 1u);
  coding::FileDecoder dec(enc.plan());
  while (!dec.complete()) dec.absorb(enc.emit(0, rng));
  EXPECT_EQ(dec.data(), data);
}

TEST(FileCodec, RoundTripMultiGenerationRoundRobin) {
  Rng rng(4);
  const auto data = random_bytes(1000, rng);
  coding::FileEncoder enc(data, 4, 32);  // 128 bytes/gen -> 8 generations
  ASSERT_EQ(enc.generations(), 8u);
  coding::FileDecoder dec(enc.plan());
  std::size_t packets = 0;
  while (!dec.complete()) {
    dec.absorb(enc.emit_round_robin(rng));
    ASSERT_LT(++packets, 1000u);
  }
  EXPECT_EQ(dec.data(), data);
  EXPECT_EQ(dec.total_rank(), dec.needed_rank());
}

TEST(FileCodec, ProgressTracking) {
  Rng rng(5);
  const auto data = random_bytes(64, rng);
  coding::FileEncoder enc(data, 4, 16);
  coding::FileDecoder dec(enc.plan());
  EXPECT_EQ(dec.total_rank(), 0u);
  EXPECT_EQ(dec.needed_rank(), 4u);
  dec.absorb(enc.emit(0, rng));
  EXPECT_EQ(dec.total_rank(), 1u);
  EXPECT_FALSE(dec.complete());
  EXPECT_THROW(dec.data(), std::logic_error);
}

TEST(FileCodec, IgnoresOutOfRangeGenerations) {
  Rng rng(6);
  coding::FileEncoder enc(random_bytes(32, rng), 4, 8);
  coding::FileDecoder dec(enc.plan());
  auto p = enc.emit(0, rng);
  p.generation = 99;
  EXPECT_FALSE(dec.absorb(p));
}

using Packet = coding::CodedPacket<gf::Gf256>;

void expect_same_packet(const Packet& a, const Packet& b) {
  EXPECT_EQ(a.generation, b.generation);
  EXPECT_EQ(a.band_offset, b.band_offset);
  EXPECT_EQ(a.class_id, b.class_id);
  EXPECT_EQ(a.coeffs, b.coeffs);
  EXPECT_EQ(a.payload, b.payload);
}

/// A relay buffer holding data in generations 0, 2 and 3 of an encoder's 5
/// (generation 0 complete), so a draw has a real choice to make.
coding::FileDecoder partial_relay(const coding::FileEncoder& enc, Rng& rng) {
  coding::FileDecoder dec(enc.plan());
  while (!dec.decoder(0).complete()) dec.absorb(enc.emit(0, rng));
  dec.absorb(enc.emit(2, rng));
  dec.absorb(enc.emit(3, rng));
  return dec;
}

TEST(FileCodec, EmptyMaskDrawsAsTheUnmaskedUpload) {
  // With nothing masked, both uploads make the unmasked draw call for call:
  // the origin one rng.below(generations), the relay one rng.below(the
  // generations with data), then the generation's own emit.
  Rng rng(7);
  const coding::FileEncoder enc(random_bytes(5 * 4 * 8, rng), 4, 8);
  ASSERT_EQ(enc.generations(), 5u);
  const coding::FileDecoder dec = partial_relay(enc, rng);
  const coding::GenerationMask none;
  Rng a(8), b(8);
  for (int i = 0; i < 50; ++i) {
    Packet masked, plain;
    ASSERT_TRUE(enc.emit_into(masked, a, none));
    plain = enc.emit(b.below(enc.generations()), b);
    expect_same_packet(masked, plain);

    ASSERT_TRUE(dec.emit_into(masked, a, none));
    const std::size_t pick = b.below(3);
    ASSERT_TRUE(dec.decoder(pick == 0 ? 0 : pick + 1).emit_into(plain, b));
    expect_same_packet(masked, plain);
  }
  EXPECT_EQ(a(), b());
}

TEST(FileCodec, MaskedDrawsSkipMaskedGenerations) {
  Rng rng(9);
  const coding::FileEncoder enc(random_bytes(5 * 4 * 8, rng), 4, 8);
  const coding::FileDecoder dec = partial_relay(enc, rng);
  coding::GenerationMask skip;
  skip.insert(0);
  skip.insert(3);
  Packet p;
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(enc.emit_into(p, rng, skip));
    EXPECT_NE(p.generation, 0u);
    EXPECT_NE(p.generation, 3u);
    ASSERT_TRUE(dec.emit_into(p, rng, skip));
    EXPECT_EQ(p.generation, 2u);  // the one open generation with data
  }
}

TEST(FileCodec, FullyMaskedDrawsNothing) {
  // Every generation masked: neither upload emits, and neither draws.
  Rng rng(10);
  const coding::FileEncoder enc(random_bytes(5 * 4 * 8, rng), 4, 8);
  const coding::FileDecoder dec = partial_relay(enc, rng);
  coding::GenerationMask all;
  for (std::size_t g = 0; g < enc.generations(); ++g) all.insert(g);
  Rng a(11), b(11);
  Packet p;
  EXPECT_FALSE(enc.emit_into(p, a, all));
  EXPECT_FALSE(dec.emit_into(p, a, all));
  // Masking the generations with data is enough at a relay.
  coding::GenerationMask with_data;
  for (const std::size_t g : {0, 2, 3}) with_data.insert(g);
  EXPECT_FALSE(dec.emit_into(p, a, with_data));
  EXPECT_EQ(a(), b());
}

TEST(FileCodec, MaskCoversPlansPastSixtyFourGenerations) {
  // 70 generations: the mask is not one 64-bit word, so its last generation
  // can be masked like any other.
  Rng rng(12);
  const coding::FileEncoder enc(random_bytes(70 * 2 * 4, rng), 2, 4);
  ASSERT_EQ(enc.generations(), 70u);
  coding::FileDecoder dec(enc.plan());
  for (std::size_t g = 0; g < enc.generations(); ++g) {
    dec.absorb(enc.emit(g, rng));
  }
  coding::GenerationMask skip;
  for (std::size_t g = 0; g + 1 < enc.generations(); ++g) skip.insert(g);
  EXPECT_FALSE(skip.contains(69));
  Packet p;
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(enc.emit_into(p, rng, skip));
    EXPECT_EQ(p.generation, 69u);
    ASSERT_TRUE(dec.emit_into(p, rng, skip));
    EXPECT_EQ(p.generation, 69u);
  }
  skip.insert(69);
  EXPECT_TRUE(skip.contains(69));
  EXPECT_FALSE(skip.contains(70));
  EXPECT_FALSE(enc.emit_into(p, rng, skip));
  EXPECT_FALSE(dec.emit_into(p, rng, skip));
}

}  // namespace
}  // namespace ncast
