// Wire-format tests: round trips for both fields, and defensive rejection of
// every class of malformed buffer.

#include "coding/wire.hpp"

#include <gtest/gtest.h>

#include "util/rng.hpp"

namespace ncast {
namespace {

using coding::CodedPacket;

template <typename Field>
CodedPacket<Field> random_packet(std::size_t g, std::size_t symbols, Rng& rng) {
  CodedPacket<Field> p;
  p.generation = static_cast<std::uint32_t>(rng.below(1u << 30));
  p.coeffs.resize(g);
  p.payload.resize(symbols);
  for (auto& c : p.coeffs) {
    c = static_cast<typename Field::value_type>(rng.below(Field::order));
  }
  for (auto& s : p.payload) {
    s = static_cast<typename Field::value_type>(rng.below(Field::order));
  }
  return p;
}

TEST(Wire, RoundTripGf256) {
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    const auto p = random_packet<gf::Gf256>(1 + rng.below(64), 1 + rng.below(256), rng);
    const auto bytes = coding::serialize(p);
    EXPECT_EQ(bytes.size(),
              coding::wire_size<gf::Gf256>(p.coeffs.size(), p.payload.size()));
    const auto q = coding::deserialize<gf::Gf256>(bytes);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->generation, p.generation);
    EXPECT_EQ(q->coeffs, p.coeffs);
    EXPECT_EQ(q->payload, p.payload);
  }
}

TEST(Wire, RoundTripGf2_16) {
  Rng rng(2);
  for (int trial = 0; trial < 50; ++trial) {
    const auto p = random_packet<gf::Gf2_16>(1 + rng.below(32), 1 + rng.below(64), rng);
    const auto bytes = coding::serialize(p);
    const auto q = coding::deserialize<gf::Gf2_16>(bytes);
    ASSERT_TRUE(q.has_value());
    EXPECT_EQ(q->coeffs, p.coeffs);
    EXPECT_EQ(q->payload, p.payload);
  }
}

TEST(Wire, HeaderLayoutIsStable) {
  CodedPacket<gf::Gf256> p;
  p.generation = 0x01020304;
  p.coeffs = {9, 8};
  p.payload = {7};
  const auto bytes = coding::serialize(p);
  ASSERT_EQ(bytes.size(), 15u);
  EXPECT_EQ(bytes[0], 0x43);  // 'C' (magic little-endian)
  EXPECT_EQ(bytes[1], 0x4E);  // 'N'
  EXPECT_EQ(bytes[2], 1);     // version
  EXPECT_EQ(bytes[3], 1);     // GF(2^8)
  EXPECT_EQ(bytes[4], 0x04);  // generation LE
  EXPECT_EQ(bytes[7], 0x01);
  EXPECT_EQ(bytes[8], 2);     // g
  EXPECT_EQ(bytes[10], 1);    // symbols
  EXPECT_EQ(bytes[12], 9);
  EXPECT_EQ(bytes[13], 8);
  EXPECT_EQ(bytes[14], 7);
}

TEST(Wire, RejectsMalformedBuffers) {
  Rng rng(3);
  const auto p = random_packet<gf::Gf256>(4, 8, rng);
  const auto good = coding::serialize(p);

  // Truncated header.
  EXPECT_FALSE(coding::deserialize<gf::Gf256>({0x43, 0x4E, 1}).has_value());
  // Empty.
  EXPECT_FALSE(coding::deserialize<gf::Gf256>({}).has_value());
  // Bad magic.
  auto bad = good;
  bad[0] ^= 0xFF;
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Bad version.
  bad = good;
  bad[2] = 99;
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Wrong field.
  EXPECT_FALSE(coding::deserialize<gf::Gf2_16>(good).has_value());
  // Truncated body.
  bad = good;
  bad.pop_back();
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Extra bytes.
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Zero dimensions.
  bad = good;
  bad[8] = 0;
  bad[9] = 0;
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
}

TEST(Wire, FuzzNeverCrashes) {
  // Random byte soup must never produce UB or throw — just nullopt (or, for
  // soup that accidentally forms a valid header, a well-formed packet).
  Rng rng(4);
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> soup(rng.below(64));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.below(256));
    const auto q = coding::deserialize<gf::Gf256>(soup);
    if (q) {
      EXPECT_FALSE(q->coeffs.empty());
      EXPECT_FALSE(q->payload.empty());
    }
  }
}

TEST(Wire, GenerationBoundaryValues) {
  CodedPacket<gf::Gf256> p;
  p.generation = 0xFFFFFFFF;
  p.coeffs = {1};
  p.payload = {2};
  const auto q = coding::deserialize<gf::Gf256>(coding::serialize(p));
  ASSERT_TRUE(q.has_value());
  EXPECT_EQ(q->generation, 0xFFFFFFFFu);
}

// ---- version 2: structured packets with compact coefficient strips --------

using coding::GenerationStructure;

/// A well-formed strip packet for the given placement.
template <typename Field>
CodedPacket<Field> strip_packet(std::size_t offset, std::size_t width,
                                std::size_t class_id, std::size_t symbols,
                                Rng& rng) {
  auto p = random_packet<Field>(width, symbols, rng);
  p.band_offset = static_cast<std::uint16_t>(offset);
  p.class_id = static_cast<std::uint16_t>(class_id);
  return p;
}

template <typename Field>
void expect_same_packet(const CodedPacket<Field>& got,
                        const CodedPacket<Field>& want) {
  EXPECT_EQ(got.generation, want.generation);
  EXPECT_EQ(got.band_offset, want.band_offset);
  EXPECT_EQ(got.class_id, want.class_id);
  EXPECT_EQ(got.coeffs, want.coeffs);
  EXPECT_EQ(got.payload, want.payload);
}

template <typename Field>
void run_structured_round_trip(std::uint64_t seed) {
  Rng rng(seed);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t g = 1 + rng.below(32);
    const std::size_t w = 1 + rng.below(g);
    const bool wrap = rng.below(2) == 1;
    const auto s = GenerationStructure::banded(g, w, wrap);
    const std::size_t offset = rng.below(s.wrap ? g : g - w + 1);
    const auto p =
        strip_packet<Field>(offset, w, 0, 1 + rng.below(32), rng);

    const auto bytes = coding::serialize_structured(p, s);
    EXPECT_EQ(bytes.size(), coding::wire_size_structured<Field>(
                                p.coeffs.size(), p.payload.size()));
    const auto generic = coding::deserialize<Field>(bytes);
    ASSERT_TRUE(generic.has_value());
    expect_same_packet(*generic, p);
    const auto stream = coding::deserialize_stream<Field>(bytes, s);
    ASSERT_TRUE(stream.has_value());
    expect_same_packet(*stream, p);
  }
}

TEST(WireV2, RoundTripBandedGf256) { run_structured_round_trip<gf::Gf256>(5); }

TEST(WireV2, RoundTripBandedGf2_16) {
  run_structured_round_trip<gf::Gf2_16>(6);
}

TEST(WireV2, RoundTripOverlapped) {
  Rng rng(7);
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t g = 2 + rng.below(32);
    const std::size_t c = 1 + rng.below(g);
    const std::size_t v = c > 1 ? rng.below(c) : 0;
    const auto s = GenerationStructure::overlapping(g, c, v);
    const std::size_t k = rng.below(s.num_classes());
    const auto p = strip_packet<gf::Gf256>(s.class_begin(k), s.class_width(k),
                                           k, 1 + rng.below(16), rng);
    const auto stream = coding::deserialize_stream<gf::Gf256>(
        coding::serialize_structured(p, s), s);
    ASSERT_TRUE(stream.has_value());
    expect_same_packet(*stream, p);
  }
}

// Byte-for-byte golden for the version-2 header, so the layout documented in
// wire.hpp can't drift silently.
TEST(WireV2, HeaderLayoutIsStable) {
  CodedPacket<gf::Gf256> p;
  p.generation = 0x01020304;
  p.band_offset = 1;
  p.class_id = 0;
  p.coeffs = {9, 8};
  p.payload = {7};
  const auto bytes =
      coding::serialize_structured(p, GenerationStructure::banded(4, 2));
  ASSERT_EQ(bytes.size(), 23u);
  EXPECT_EQ(bytes[0], 0x43);  // 'C' (magic little-endian)
  EXPECT_EQ(bytes[1], 0x4E);  // 'N'
  EXPECT_EQ(bytes[2], 2);     // version
  EXPECT_EQ(bytes[3], 1);     // GF(2^8)
  EXPECT_EQ(bytes[4], 0x04);  // generation LE
  EXPECT_EQ(bytes[7], 0x01);
  EXPECT_EQ(bytes[8], 4);   // g (from the structure, not the strip)
  EXPECT_EQ(bytes[10], 1);  // symbols
  EXPECT_EQ(bytes[12], 1);  // kind = banded
  EXPECT_EQ(bytes[13], 0);  // flags: no wrap (1 + 2 <= 4)
  EXPECT_EQ(bytes[14], 1);  // band offset LE
  EXPECT_EQ(bytes[15], 0);
  EXPECT_EQ(bytes[16], 0);  // class id LE
  EXPECT_EQ(bytes[18], 2);  // coefficient count LE
  EXPECT_EQ(bytes[20], 9);  // compact strip
  EXPECT_EQ(bytes[21], 8);
  EXPECT_EQ(bytes[22], 7);  // payload
}

TEST(WireV2, WrapFlagRoundTrip) {
  const auto s = GenerationStructure::banded(8, 4, true);
  Rng rng(8);
  auto p = strip_packet<gf::Gf256>(6, 4, 0, 2, rng);  // 6 + 4 > 8: wraps
  const auto bytes = coding::serialize_structured(p, s);
  EXPECT_EQ(bytes[13], coding::kWireFlagWrap);
  const auto q = coding::deserialize_stream<gf::Gf256>(bytes, s);
  ASSERT_TRUE(q.has_value());
  expect_same_packet(*q, p);
  // The same placement is malformed under a non-wrap structure.
  EXPECT_FALSE(coding::deserialize_stream<gf::Gf256>(
                   bytes, GenerationStructure::banded(8, 4))
                   .has_value());
}

TEST(WireV2, RejectsMalformedBuffers) {
  const auto s = GenerationStructure::banded(8, 4);
  Rng rng(9);
  const auto p = strip_packet<gf::Gf256>(2, 4, 0, 2, rng);
  const auto good = coding::serialize_structured(p, s);
  ASSERT_TRUE(coding::deserialize<gf::Gf256>(good).has_value());

  // Truncated to header-only.
  auto bad = std::vector<std::uint8_t>(good.begin(), good.begin() + 19);
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Unknown structure kind.
  bad = good;
  bad[12] = 3;
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Unknown flag bits.
  bad = good;
  bad[13] = 0x02;
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Wrap flag set but the strip doesn't wrap (2 + 4 <= 8).
  bad = good;
  bad[13] = coding::kWireFlagWrap;
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Strip runs past g without the wrap flag (7 + 4 > 8).
  bad = good;
  bad[14] = 7;
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Offset out of range entirely.
  bad = good;
  bad[14] = 8;
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Band width (coefficient count) larger than g.
  bad = good;
  bad[18] = 9;
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Zero coefficients.
  bad = good;
  bad[18] = 0;
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Truncated compact coefficients / trailing garbage.
  bad = good;
  bad.pop_back();
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  bad = good;
  bad.push_back(0);
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
  // Wrong field id for the requested field.
  EXPECT_FALSE(coding::deserialize<gf::Gf2_16>(good).has_value());

  // Dense kind must carry a full-width strip with no class id.
  CodedPacket<gf::Gf256> dense = random_packet<gf::Gf256>(4, 2, rng);
  const auto dense_good =
      coding::serialize_structured(dense, GenerationStructure::dense(4));
  ASSERT_TRUE(coding::deserialize<gf::Gf256>(dense_good).has_value());
  bad = dense_good;
  bad[16] = 1;  // class id on a dense packet
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());

  // Overlapped classes never wrap.
  const auto ws = GenerationStructure::banded(8, 4, true);
  auto wp = strip_packet<gf::Gf256>(6, 4, 0, 2, rng);
  bad = coding::serialize_structured(wp, ws);
  bad[12] = 2;  // rewrite kind to overlapped, wrap flag still set
  EXPECT_FALSE(coding::deserialize<gf::Gf256>(bad).has_value());
}

TEST(WireV2, StrictOverloadEnforcesReceiverStructure) {
  // deserialize_stream is the structure-aware receive path: it enforces
  // the receiver's structure on top of the header-only checks.
  const auto over = GenerationStructure::overlapping(8, 4, 1);  // classes 0,3,6
  Rng rng(10);
  const auto p = strip_packet<gf::Gf256>(3, 4, 1, 4, rng);  // valid class 1
  const auto good = coding::serialize_structured(p, over);
  ASSERT_TRUE(coding::deserialize_stream<gf::Gf256>(good, over).has_value());

  // Class id out of range: passes the generic stage (nothing in the header
  // contradicts it), dies against the structure.
  auto bad = good;
  bad[16] = 3;
  EXPECT_TRUE(coding::deserialize<gf::Gf256>(bad).has_value());
  EXPECT_FALSE(coding::deserialize_stream<gf::Gf256>(bad, over).has_value());
  // Right class id, wrong offset for it.
  bad = good;
  bad[16] = 2;
  EXPECT_TRUE(coding::deserialize<gf::Gf256>(bad).has_value());
  EXPECT_FALSE(coding::deserialize_stream<gf::Gf256>(bad, over).has_value());

  // Band width mismatch: a width-3 strip is a fine banded packet in general
  // but not under a width-4 structure.
  const auto narrow = coding::serialize_structured(
      strip_packet<gf::Gf256>(1, 3, 0, 4, rng), GenerationStructure::banded(8, 3));
  EXPECT_TRUE(coding::deserialize<gf::Gf256>(narrow).has_value());
  EXPECT_FALSE(coding::deserialize_stream<gf::Gf256>(
                   narrow, GenerationStructure::banded(8, 4))
                   .has_value());
  // Generation-size and kind mismatches.
  EXPECT_FALSE(coding::deserialize_stream<gf::Gf256>(
                   narrow, GenerationStructure::banded(16, 3))
                   .has_value());
  EXPECT_FALSE(coding::deserialize_stream<gf::Gf256>(
                   narrow, GenerationStructure::dense(8))
                   .has_value());

  // Version-1 buffers are dense rows: accepted on a dense stream of the
  // right size and — recoding densifies bands — on a banded one, rejected
  // on an overlapped one (class-local recoding never emits them).
  const auto v1 = coding::serialize(random_packet<gf::Gf256>(8, 4, rng));
  EXPECT_TRUE(coding::deserialize_stream<gf::Gf256>(
                  v1, GenerationStructure::dense(8))
                  .has_value());
  EXPECT_TRUE(coding::deserialize_stream<gf::Gf256>(
                  v1, GenerationStructure::banded(8, 4))
                  .has_value());
  EXPECT_FALSE(coding::deserialize_stream<gf::Gf256>(v1, over).has_value());
  EXPECT_FALSE(coding::deserialize_stream<gf::Gf256>(
                   v1, GenerationStructure::dense(4))
                   .has_value());
}

TEST(WireV2, FuzzNeverCrashes) {
  Rng rng(11);
  const auto s = GenerationStructure::banded(16, 4);
  const auto good = coding::serialize_structured(
      strip_packet<gf::Gf256>(5, 4, 0, 8, rng), s);
  // Mutation fuzz: every single-byte corruption of a valid buffer either
  // still parses to a consistent packet or yields nullopt — never UB.
  for (std::size_t i = 0; i < good.size(); ++i) {
    for (int trial = 0; trial < 4; ++trial) {
      auto bad = good;
      bad[i] ^= static_cast<std::uint8_t>(1 + rng.below(255));
      const auto q = coding::deserialize<gf::Gf256>(bad);
      if (q) {
        EXPECT_FALSE(q->coeffs.empty());
        EXPECT_FALSE(q->payload.empty());
      }
      // The structure-aware receive path must be at least as picky.
      const auto qs = coding::deserialize_stream<gf::Gf256>(bad, s);
      if (qs) {
        EXPECT_TRUE(q.has_value());
      }
    }
  }
  // Byte-soup fuzz pinned to version 2.
  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<std::uint8_t> soup(rng.below(64));
    for (auto& b : soup) b = static_cast<std::uint8_t>(rng.below(256));
    if (soup.size() >= 3) {
      soup[0] = 0x43;
      soup[1] = 0x4E;
      soup[2] = coding::kWireVersionStructured;
    }
    const auto q = coding::deserialize<gf::Gf256>(soup);
    if (q) {
      EXPECT_FALSE(q->coeffs.empty());
      EXPECT_FALSE(q->payload.empty());
    }
  }
}

}  // namespace
}  // namespace ncast
