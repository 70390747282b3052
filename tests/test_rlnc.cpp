// RLNC codec tests: encode -> (recode)* -> decode round trips, innovation
// accounting, and field-size effects. Parameterized over generation size and
// payload length. The decoder's elimination core, linalg::ReducedBasis, is
// also checked row by row against an independent batch rank over all three
// fields.

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "gf/gf2.hpp"
#include "gf/gf256.hpp"
#include "gf/gf2_16.hpp"
#include "linalg/reduced_basis.hpp"
#include "util/rng.hpp"

namespace ncast {
namespace {

using Gf = gf::Gf256;

template <typename Field>
std::vector<std::vector<typename Field::value_type>> random_source(
    std::size_t g, std::size_t symbols, Rng& rng) {
  std::vector<std::vector<typename Field::value_type>> src(
      g, std::vector<typename Field::value_type>(symbols));
  for (auto& row : src) {
    for (auto& v : row) {
      v = static_cast<typename Field::value_type>(rng.below(Field::order));
    }
  }
  return src;
}

class RlncRoundTrip : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(RlncRoundTrip, EncodeDecode) {
  const auto [g, symbols] = GetParam();
  Rng rng(static_cast<std::uint64_t>(g * 1000 + symbols));
  const auto source = random_source<Gf>(g, symbols, rng);
  coding::SourceEncoder<Gf> enc(7, source);
  coding::Decoder<Gf> dec(7, g, symbols);

  std::size_t sent = 0;
  while (!dec.complete()) {
    dec.absorb(enc.emit(rng));
    ASSERT_LT(++sent, static_cast<std::size_t>(g) * 4) << "decoder starving";
  }
  EXPECT_EQ(dec.source_packets(), source);
  // Over GF(2^8), random combinations are almost always innovative.
  EXPECT_LE(sent, static_cast<std::size_t>(g) + 3);
}

TEST_P(RlncRoundTrip, EncodeRecodeDecode) {
  const auto [g, symbols] = GetParam();
  Rng rng(static_cast<std::uint64_t>(g * 7777 + symbols));
  const auto source = random_source<Gf>(g, symbols, rng);
  coding::SourceEncoder<Gf> enc(1, source);

  // Chain: encoder -> relay1 -> relay2 -> decoder, one packet per hop per
  // round, exactly like a depth-3 path in the overlay. A relay is a decoder
  // that also emits.
  coding::Decoder<Gf> relay1(1, g, symbols), relay2(1, g, symbols);
  coding::Decoder<Gf> dec(1, g, symbols);

  for (int round = 0; round < g * 6 && !dec.complete(); ++round) {
    relay1.absorb(enc.emit(rng));
    if (auto p = relay1.emit(rng)) relay2.absorb(*p);
    if (auto p = relay2.emit(rng)) dec.absorb(*p);
  }
  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(dec.source_packets(), source);
}

INSTANTIATE_TEST_SUITE_P(Shapes, RlncRoundTrip,
                         ::testing::Values(std::make_tuple(1, 1),
                                           std::make_tuple(2, 8),
                                           std::make_tuple(4, 16),
                                           std::make_tuple(8, 3),
                                           std::make_tuple(16, 16),
                                           std::make_tuple(32, 64),
                                           std::make_tuple(3, 200),
                                           std::make_tuple(24, 1),
                                           std::make_tuple(64, 8)));

TEST(SourceEncoder, Validation) {
  EXPECT_THROW(coding::SourceEncoder<Gf>(0, {}), std::invalid_argument);
  EXPECT_THROW(coding::SourceEncoder<Gf>(0, {{}}), std::invalid_argument);
  EXPECT_THROW(coding::SourceEncoder<Gf>(0, {{1, 2}, {1}}), std::invalid_argument);
}

TEST(SourceEncoder, SystematicPackets) {
  Rng rng(5);
  const auto source = random_source<Gf>(4, 8, rng);
  coding::SourceEncoder<Gf> enc(3, source);
  for (std::size_t i = 0; i < 4; ++i) {
    const auto p = enc.emit_systematic(i);
    EXPECT_EQ(p.generation, 3u);
    EXPECT_EQ(p.payload, source[i]);
    for (std::size_t j = 0; j < 4; ++j) EXPECT_EQ(p.coeffs[j], i == j ? 1 : 0);
  }
  EXPECT_THROW(enc.emit_systematic(4), std::out_of_range);
}

TEST(SourceEncoder, EmittedPacketsNeverDegenerate) {
  Rng rng(6);
  const auto source = random_source<Gf>(3, 4, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  for (int i = 0; i < 200; ++i) EXPECT_FALSE(enc.emit(rng).is_degenerate());
}

TEST(SourceEncoder, PayloadMatchesCoefficients) {
  Rng rng(7);
  const auto source = random_source<Gf>(5, 6, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  const auto p = enc.emit(rng);
  // Recompute payload from the carried coefficients.
  std::vector<std::uint8_t> expect(6, 0);
  for (std::size_t i = 0; i < 5; ++i) {
    Gf::region_madd(expect.data(), source[i].data(), p.coeffs[i], 6);
  }
  EXPECT_EQ(p.payload, expect);
}

TEST(Decoder, SystematicDecoding) {
  Rng rng(8);
  const auto source = random_source<Gf>(4, 4, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  coding::Decoder<Gf> dec(0, 4, 4);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(dec.absorb(enc.emit_systematic(i)));
  }
  EXPECT_TRUE(dec.complete());
  EXPECT_EQ(dec.source_packets(), source);
}

TEST(Decoder, DuplicateNotInnovative) {
  Rng rng(9);
  const auto source = random_source<Gf>(4, 4, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  coding::Decoder<Gf> dec(0, 4, 4);
  const auto p = enc.emit(rng);
  EXPECT_TRUE(dec.is_innovative(p));
  EXPECT_TRUE(dec.absorb(p));
  EXPECT_FALSE(dec.is_innovative(p));
  EXPECT_FALSE(dec.absorb(p));
  EXPECT_EQ(dec.rank(), 1u);
}

TEST(Decoder, InnovativePlusRedundantEqualsReceived) {
  Rng rng(77);
  const auto source = random_source<Gf>(6, 8, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  coding::Decoder<Gf> dec(0, 6, 8);

  // Fresh combinations until complete, then duplicates and a malformed
  // packet: every absorb() call must land in exactly one of the two classes.
  std::vector<coding::CodedPacket<Gf>> seen;
  while (!dec.complete()) {
    auto p = enc.emit(rng);
    seen.push_back(p);
    dec.absorb(p);
  }
  for (const auto& p : seen) EXPECT_FALSE(dec.absorb(p));
  coding::CodedPacket<Gf> malformed;
  malformed.generation = 9;  // foreign generation: rejected, still "received"
  malformed.coeffs.assign(6, 1);
  malformed.payload.assign(8, 1);
  EXPECT_FALSE(dec.absorb(malformed));

  EXPECT_EQ(dec.packets_innovative(), 6u);
  EXPECT_EQ(dec.packets_received(), seen.size() * 2 + 1);
  EXPECT_EQ(dec.packets_innovative() + dec.packets_redundant(),
            dec.packets_received());
}

TEST(Decoder, RejectsForeignPackets) {
  coding::Decoder<Gf> dec(0, 4, 4);
  coding::CodedPacket<Gf> wrong_gen;
  wrong_gen.generation = 1;
  wrong_gen.coeffs.assign(4, 1);
  wrong_gen.payload.assign(4, 1);
  EXPECT_FALSE(dec.absorb(wrong_gen));

  coding::CodedPacket<Gf> wrong_shape;
  wrong_shape.generation = 0;
  wrong_shape.coeffs.assign(3, 1);
  wrong_shape.payload.assign(4, 1);
  EXPECT_FALSE(dec.absorb(wrong_shape));
}

TEST(Decoder, ProgressiveRecoveryWithSystematicPackets) {
  Rng rng(20);
  const auto source = random_source<Gf>(6, 8, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  coding::Decoder<Gf> dec(0, 6, 8);
  // Systematic packets are recoverable the moment they arrive.
  dec.absorb(enc.emit_systematic(2));
  EXPECT_TRUE(dec.recoverable(2));
  EXPECT_FALSE(dec.recoverable(0));
  EXPECT_EQ(dec.recoverable_count(), 1u);
  EXPECT_EQ(dec.recover_packet(2), source[2]);
  EXPECT_THROW(dec.recover_packet(0), std::logic_error);

  dec.absorb(enc.emit_systematic(5));
  EXPECT_EQ(dec.recoverable_count(), 2u);
  EXPECT_EQ(dec.recover_packet(5), source[5]);
}

TEST(Decoder, RandomCombinationsRarelyRecoverableEarly) {
  // Dense random combinations individually pin down nothing until the rank
  // boundary; recoverable_count jumps to g only at completion.
  Rng rng(21);
  const auto source = random_source<Gf>(8, 8, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  coding::Decoder<Gf> dec(0, 8, 8);
  while (dec.rank() < 7) dec.absorb(enc.emit(rng));
  EXPECT_EQ(dec.recoverable_count(), 0u);  // rank 7, nothing isolated yet
  while (!dec.complete()) dec.absorb(enc.emit(rng));
  EXPECT_EQ(dec.recoverable_count(), 8u);
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(dec.recover_packet(i), source[i]);
  }
}

TEST(Decoder, MixedSystematicAndCodedProgressive) {
  Rng rng(22);
  const auto source = random_source<Gf>(5, 6, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  coding::Decoder<Gf> dec(0, 5, 6);
  dec.absorb(enc.emit_systematic(0));
  dec.absorb(enc.emit_systematic(1));
  dec.absorb(enc.emit(rng));
  // The coded packet reduces against rows 0,1; packets 0,1 stay recoverable.
  EXPECT_TRUE(dec.recoverable(0));
  EXPECT_TRUE(dec.recoverable(1));
  EXPECT_EQ(dec.recover_packet(0), source[0]);
  EXPECT_THROW(dec.recoverable(9), std::out_of_range);
}

TEST(Decoder, SourcePacketBeforeCompleteThrows) {
  coding::Decoder<Gf> dec(0, 2, 2);
  EXPECT_THROW(dec.source_packet(0), std::logic_error);
}

TEST(Recoding, SilentWhenEmpty) {
  Rng rng(10);
  coding::Decoder<Gf> rec(0, 4, 4);
  EXPECT_FALSE(rec.emit(rng).has_value());
}

TEST(Recoding, EmitsDecodablePackets) {
  Rng rng(11);
  const auto source = random_source<Gf>(6, 10, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  coding::Decoder<Gf> rec(0, 6, 10);
  // Partial knowledge: the relay holds rank 3.
  while (rec.rank() < 3) rec.absorb(enc.emit(rng));
  // Everything it emits must be consistent with the true source data.
  for (int i = 0; i < 50; ++i) {
    const auto p = rec.emit(rng);
    ASSERT_TRUE(p.has_value());
    std::vector<std::uint8_t> expect(10, 0);
    for (std::size_t j = 0; j < 6; ++j) {
      Gf::region_madd(expect.data(), source[j].data(), p->coeffs[j], 10);
    }
    EXPECT_EQ(p->payload, expect);
  }
}

TEST(Recoding, RankNeverExceedsUpstream) {
  Rng rng(12);
  const auto source = random_source<Gf>(8, 4, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  coding::Decoder<Gf> upstream(0, 8, 4), downstream(0, 8, 4);
  while (upstream.rank() < 5) upstream.absorb(enc.emit(rng));
  for (int i = 0; i < 200; ++i) {
    if (auto p = upstream.emit(rng)) downstream.absorb(*p);
  }
  EXPECT_EQ(downstream.rank(), 5u);  // cannot know more than its only parent
}

TEST(FieldSize, Gf2CombinationsOftenDependent) {
  // Over GF(2) a random combination of g packets fails to be innovative with
  // probability ~1/2 at the boundary; over GF(2^8) almost never. This is the
  // rationale for coding over larger fields.
  auto run = [](auto field_tag, std::uint64_t seed) {
    using F = decltype(field_tag);
    Rng rng(seed);
    const std::size_t g = 8;
    const auto source = random_source<F>(g, 4, rng);
    coding::SourceEncoder<F> enc(0, source);
    std::size_t waste = 0, total = 0;
    for (int trial = 0; trial < 60; ++trial) {
      coding::Decoder<F> dec(0, g, 4);
      while (!dec.complete()) {
        ++total;
        if (!dec.absorb(enc.emit(rng))) ++waste;
      }
    }
    return static_cast<double>(waste) / static_cast<double>(total);
  };
  const double waste2 = run(gf::Gf2{}, 13);
  const double waste256 = run(gf::Gf256{}, 14);
  EXPECT_GT(waste2, 0.10);
  EXPECT_LT(waste256, 0.02);
}

TEST(Packet, WireSizeAndDegeneracy) {
  coding::CodedPacket<Gf> p;
  p.generation = 0;
  p.coeffs.assign(8, 0);
  p.payload.assign(16, 9);
  EXPECT_TRUE(p.is_degenerate());
  p.coeffs[3] = 1;
  EXPECT_FALSE(p.is_degenerate());
  EXPECT_EQ(p.wire_size(), sizeof(std::uint32_t) + 8 + 16);
}

TEST(DecoderEmitInto, ReusesBuffersAndMatchesEmit) {
  const std::size_t g = 8, symbols = 32;
  Rng rng(21);
  const auto source = random_source<Gf>(g, symbols, rng);
  coding::SourceEncoder<Gf> enc(0, source);
  coding::Decoder<Gf> rec(0, g, symbols);
  while (!rec.complete()) rec.absorb(enc.emit(rng));

  coding::CodedPacket<Gf> p;
  ASSERT_TRUE(rec.emit_into(p, rng));
  ASSERT_EQ(p.coeffs.size(), g);
  ASSERT_EQ(p.payload.size(), symbols);
  const auto* coeffs_buf = p.coeffs.data();
  const auto* payload_buf = p.payload.data();

  // Re-emitting into the same packet reuses the existing buffers.
  ASSERT_TRUE(rec.emit_into(p, rng));
  EXPECT_EQ(p.coeffs.data(), coeffs_buf);
  EXPECT_EQ(p.payload.data(), payload_buf);

  // emit() and emit_into() draw from the same RNG stream: identical state
  // and identical RNGs produce identical packets either way.
  Rng a(77), b(77);
  const auto via_emit = rec.emit(a);
  coding::CodedPacket<Gf> via_into;
  ASSERT_TRUE(rec.emit_into(via_into, b));
  ASSERT_TRUE(via_emit.has_value());
  EXPECT_EQ(via_emit->coeffs, via_into.coeffs);
  EXPECT_EQ(via_emit->payload, via_into.payload);

  // And what comes out still decodes.
  coding::Decoder<Gf> dec(0, g, symbols);
  Rng c(5);
  while (!dec.complete()) {
    coding::CodedPacket<Gf> q;
    ASSERT_TRUE(rec.emit_into(q, c));
    dec.absorb(q);
  }
  EXPECT_EQ(dec.source_packets(), source);
}

TEST(DecoderEmitInto, EmptyDecoderStaysSilent) {
  Rng rng(22);
  coding::Decoder<Gf> rec(0, 4, 8);
  coding::CodedPacket<Gf> p;
  EXPECT_FALSE(rec.emit_into(p, rng));
  EXPECT_FALSE(rec.emit(rng).has_value());
}

TEST(EncoderEmitInto, MatchesEmitAndReusesBuffers) {
  const std::size_t g = 6, symbols = 16;
  Rng rng(23);
  const auto source = random_source<Gf>(g, symbols, rng);
  coding::SourceEncoder<Gf> enc(0, source);

  Rng a(9), b(9);
  const auto via_emit = enc.emit(a);
  coding::CodedPacket<Gf> via_into;
  enc.emit_into(via_into, b);
  EXPECT_EQ(via_emit.coeffs, via_into.coeffs);
  EXPECT_EQ(via_emit.payload, via_into.payload);

  const auto* buf = via_into.payload.data();
  enc.emit_into(via_into, b);
  EXPECT_EQ(via_into.payload.data(), buf);
}

TEST(Gf2_16Codec, RoundTrip) {
  using F = gf::Gf2_16;
  Rng rng(15);
  const auto source = random_source<F>(6, 5, rng);
  coding::SourceEncoder<F> enc(0, source);
  coding::Decoder<F> dec(0, 6, 5);
  while (!dec.complete()) dec.absorb(enc.emit(rng));
  EXPECT_EQ(dec.source_packets(), source);
}

// ---- ReducedBasis vs an independent batch rank: property sweep over fields

/// Rank of `rows` by batch forward elimination with scalar field ops — an
/// oracle that shares no code with ReducedBasis (no arena, no region
/// kernels, no back-substitution).
template <typename Field>
std::size_t batch_rank(
    std::vector<std::vector<typename Field::value_type>> rows,
    std::size_t dim) {
  using V = typename Field::value_type;
  std::size_t rank = 0;
  for (std::size_t col = 0; col < dim && rank < rows.size(); ++col) {
    std::size_t pivot = rank;
    while (pivot < rows.size() && rows[pivot][col] == V{0}) ++pivot;
    if (pivot == rows.size()) continue;
    std::swap(rows[rank], rows[pivot]);
    const V inv = Field::inv(rows[rank][col]);
    for (std::size_t r = rank + 1; r < rows.size(); ++r) {
      const V f = Field::mul(rows[r][col], inv);
      if (f == V{0}) continue;
      for (std::size_t c = col; c < dim; ++c) {
        // Characteristic 2: subtraction is addition.
        rows[r][c] = Field::add(rows[r][c], Field::mul(f, rows[rank][c]));
      }
    }
    ++rank;
  }
  return rank;
}

/// Feeds `row` through the scratch row; returns whether it was innovative.
template <typename Field>
bool absorb_row(linalg::ReducedBasis<Field>& basis,
                const std::vector<typename Field::value_type>& row) {
  std::copy(row.begin(), row.end(), basis.scratch_row());
  return basis.absorb();
}

template <typename Field>
void basis_matches_batch(std::uint64_t seed, std::size_t rows,
                         std::size_t dim) {
  using V = typename Field::value_type;
  Rng rng(seed);
  linalg::ReducedBasis<Field> basis(dim, dim);
  std::vector<std::vector<V>> seen;
  for (std::size_t r = 0; r < rows; ++r) {
    std::vector<V> row(dim);
    for (auto& v : row) v = static_cast<V>(rng.below(Field::order));
    seen.push_back(row);
    const std::size_t before = basis.rank();
    const bool innovative = absorb_row(basis, row);
    EXPECT_EQ(basis.rank(), before + (innovative ? 1 : 0));
    EXPECT_EQ(basis.rank(), batch_rank<Field>(seen, dim)) << "row " << r;
  }
}

TEST(ReducedBasisRank, MatchesBatchGf256) {
  basis_matches_batch<gf::Gf256>(10, 12, 8);
}
TEST(ReducedBasisRank, MatchesBatchGf2_16) {
  basis_matches_batch<gf::Gf2_16>(11, 10, 6);
}
TEST(ReducedBasisRank, MatchesBatchGf2) {
  // Over GF(2) dependent rows are common — good stress for the reducer.
  basis_matches_batch<gf::Gf2>(12, 20, 8);
}

TEST(ReducedBasisRank, CompleteAfterBasis) {
  linalg::ReducedBasis<Gf> basis(3, 3);
  EXPECT_TRUE(absorb_row(basis, {1, 0, 0}));
  EXPECT_TRUE(absorb_row(basis, {1, 1, 0}));
  EXPECT_EQ(basis.rank(), 2u);
  EXPECT_TRUE(absorb_row(basis, {1, 1, 1}));
  EXPECT_EQ(basis.rank(), basis.pivot_cols());
  EXPECT_FALSE(absorb_row(basis, {5, 6, 7}));  // nothing is innovative now
  EXPECT_EQ(basis.rank(), 3u);
}

TEST(ReducedBasisRank, ZeroRowNotInnovative) {
  linalg::ReducedBasis<Gf> basis(3, 3);
  EXPECT_FALSE(absorb_row(basis, {0, 0, 0}));
  EXPECT_EQ(basis.rank(), 0u);
}

}  // namespace
}  // namespace ncast
