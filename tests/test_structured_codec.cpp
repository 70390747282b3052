// Structured codec family: round trips for every generation structure, and —
// the load-bearing part — bit-for-bit parity between decoders. Every decoder
// is exact linear algebra, so on the same packet sequence the
// innovative/redundant verdicts and the decoded bytes must be identical
// across the dense Decoder, the BandDecoder and the StructuredDecoder (one
// class or several) wherever more than one is sound. The ctest suite re-runs
// this binary with NCAST_FORCE_SCALAR=1 (tests/CMakeLists.txt), so parity
// also holds under the portable GF kernels.

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "coding/band_decoder.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/structure.hpp"
#include "coding/structured_decoder.hpp"
#include "gf/gf256.hpp"
#include "gf/gf2_16.hpp"
#include "util/rng.hpp"

namespace ncast {
namespace {

using coding::GenerationStructure;
using coding::StructureKind;

template <typename Field>
std::vector<typename Field::value_type> random_flat(std::size_t n, Rng& rng) {
  std::vector<typename Field::value_type> v(n);
  for (auto& x : v) {
    x = static_cast<typename Field::value_type>(rng.below(Field::order));
  }
  return v;
}

template <typename Field>
std::vector<std::vector<typename Field::value_type>> rows_of(
    const std::vector<typename Field::value_type>& flat, std::size_t symbols) {
  std::vector<std::vector<typename Field::value_type>> rows;
  for (std::size_t i = 0; i * symbols < flat.size(); ++i) {
    rows.emplace_back(flat.begin() + i * symbols,
                      flat.begin() + (i + 1) * symbols);
  }
  return rows;
}

/// Encode-until-complete round trip through a `Decoder<Field>`.
template <template <typename> class Decoder, typename Field>
void run_round_trip(const GenerationStructure& s, std::size_t symbols,
                    std::uint64_t seed) {
  Rng rng(seed);
  const auto flat = random_flat<Field>(s.g * symbols, rng);
  const coding::SourceEncoder<Field> enc(0, s, flat, symbols);
  Decoder<Field> dec(0, s, symbols);
  EXPECT_EQ(dec.structure(), s);
  EXPECT_EQ(dec.generation_size(), s.g);
  EXPECT_EQ(dec.symbols(), symbols);

  coding::CodedPacket<Field> p;
  std::size_t sent = 0;
  while (!dec.complete()) {
    ASSERT_LT(sent, 50 * s.g) << "structure failed to converge";
    enc.emit_into(p, rng);
    EXPECT_TRUE(s.matches_packet(p.band_offset, p.coeffs.size(), p.class_id));
    dec.absorb(p);
    ++sent;
  }
  EXPECT_EQ(dec.rank(), s.g);
  EXPECT_EQ(dec.packets_received(), sent);
  EXPECT_EQ(dec.packets_innovative() + dec.packets_redundant(), sent);
  EXPECT_EQ(dec.source_packets(), rows_of<Field>(flat, symbols));
}

using coding::BandDecoder;
using coding::StructuredDecoder;

TEST(StructuredCodec, DenseRoundTrip) {
  run_round_trip<StructuredDecoder, gf::Gf256>(GenerationStructure::dense(24),
                                               40, 1);
}

// Non-wrap banded traffic decodes on both the band decoder (encoder-direct)
// and the relay buffer (one class spanning g).
TEST(StructuredCodec, BandedRoundTrip) {
  const auto s = GenerationStructure::banded(32, 8);
  run_round_trip<BandDecoder, gf::Gf256>(s, 40, 2);
  run_round_trip<StructuredDecoder, gf::Gf256>(s, 40, 2);
}

TEST(StructuredCodec, BandedWrapRoundTripDecodesDense) {
  run_round_trip<StructuredDecoder, gf::Gf256>(
      GenerationStructure::banded(32, 8, true), 40, 3);
}

TEST(StructuredCodec, OverlappedRoundTrip) {
  run_round_trip<StructuredDecoder, gf::Gf256>(
      GenerationStructure::overlapping(32, 8, 2), 40, 4);
}

TEST(StructuredCodec, BandedRoundTripGf2_16) {
  const auto s = GenerationStructure::banded(16, 4);
  run_round_trip<BandDecoder, gf::Gf2_16>(s, 24, 5);
  run_round_trip<StructuredDecoder, gf::Gf2_16>(s, 24, 5);
}

TEST(StructuredCodec, OverlappedRoundTripGf2_16) {
  run_round_trip<StructuredDecoder, gf::Gf2_16>(
      GenerationStructure::overlapping(16, 6, 2), 24, 6);
}

// Decoder::absorb_strip is the cyclic scatter of a compact strip: a strip
// that wraps past g gives the same verdicts and decoded bytes as absorb_row
// of its dense expansion.
TEST(StructuredCodec, AbsorbStripMatchesExpandedRow) {
  using Field = gf::Gf256;
  const std::size_t g = 12, symbols = 16;
  const auto s = GenerationStructure::banded(g, 5, true);
  Rng rng(21);
  const auto flat = random_flat<Field>(g * symbols, rng);
  const coding::SourceEncoder<Field> enc(0, s, flat, symbols);
  coding::Decoder<Field> strips(0, g, symbols);
  coding::Decoder<Field> rows(0, g, symbols);
  coding::CodedPacket<Field> p;
  std::vector<Field::value_type> row(g);
  std::size_t sent = 0, wrapped = 0;
  while (!rows.complete()) {
    ASSERT_LT(sent++, 50 * g);
    enc.emit_into(p, rng);
    wrapped += p.band_offset + p.coeffs.size() > g ? 1 : 0;
    std::fill(row.begin(), row.end(), Field::value_type{0});
    for (std::size_t j = 0; j < p.coeffs.size(); ++j) {
      row[(p.band_offset + j) % g] = p.coeffs[j];
    }
    EXPECT_EQ(strips.absorb_strip(p.band_offset, p.coeffs.data(),
                                  p.coeffs.size(), p.payload.data()),
              rows.absorb_row(row.data(), p.payload.data()));
  }
  EXPECT_GT(wrapped, 0u);
  ASSERT_TRUE(strips.complete());
  EXPECT_EQ(strips.packets_innovative(), rows.packets_innovative());
  EXPECT_EQ(strips.source_packets(), rows.source_packets());
  EXPECT_EQ(strips.source_packets(), rows_of<Field>(flat, symbols));
}

// The dense-equivalence parity pin: one dense packet stream (with redundant
// tail) through every decoder that is sound for it. Verdict sequences and
// decoded outputs must be bit-identical — the sparse decoders are exact, not
// approximate.
TEST(StructuredCodec, DensePacketStreamParityAcrossAllDecoders) {
  using Field = gf::Gf256;
  const std::size_t g = 20, symbols = 48;
  Rng rng(7);
  const auto flat = random_flat<Field>(g * symbols, rng);
  const auto dense = GenerationStructure::dense(g);
  const coding::SourceEncoder<Field> enc(0, dense, flat, symbols);
  std::vector<coding::CodedPacket<Field>> packets;
  for (std::size_t i = 0; i < g + 8; ++i) packets.push_back(enc.emit(rng));

  coding::Decoder<Field> legacy(0, g, symbols);
  coding::BandDecoder<Field> band_dense(0, dense, symbols);
  // width == g banded is dense in all but wire kind; same elimination.
  coding::BandDecoder<Field> band_full(0, GenerationStructure::banded(g, g),
                                       symbols);
  coding::StructuredDecoder<Field> structured(0, dense, symbols);
  // A single full-width class with no overlap is the dense decoder too.
  coding::StructuredDecoder<Field> overlap(
      0, GenerationStructure::overlapping(g, g, 0), symbols);

  for (const auto& p : packets) {
    const bool want = legacy.absorb(p);
    EXPECT_EQ(band_dense.absorb(p), want);
    EXPECT_EQ(band_full.absorb(p), want);
    EXPECT_EQ(structured.absorb(p), want);
    EXPECT_EQ(overlap.absorb(p), want);
  }
  ASSERT_TRUE(legacy.complete());
  const auto want = legacy.source_packets();
  EXPECT_EQ(want, rows_of<Field>(flat, symbols));
  EXPECT_EQ(band_dense.source_packets(), want);
  EXPECT_EQ(band_full.source_packets(), want);
  EXPECT_EQ(structured.source_packets(), want);
  EXPECT_EQ(overlap.source_packets(), want);
}

// Same idea on a genuinely banded stream: the band decoder against the
// one-class relay buffer. Both are exact, so verdicts match packet for
// packet.
TEST(StructuredCodec, BandedStreamParityBandVsDensePolicy) {
  using Field = gf::Gf256;
  const std::size_t g = 32, symbols = 40;
  const auto s = GenerationStructure::banded(g, 8);
  Rng rng(8);
  const auto flat = random_flat<Field>(g * symbols, rng);
  const coding::SourceEncoder<Field> enc(0, s, flat, symbols);

  coding::BandDecoder<Field> band(0, s, symbols);
  coding::StructuredDecoder<Field> dense(0, s, symbols);
  coding::CodedPacket<Field> p;
  std::size_t sent = 0;
  while (!band.complete() || !dense.complete()) {
    ASSERT_LT(sent, 50 * g);
    enc.emit_into(p, rng);
    EXPECT_EQ(band.absorb(p), dense.absorb(p));
    ++sent;
  }
  EXPECT_EQ(band.rank(), dense.rank());
  const auto want = rows_of<Field>(flat, symbols);
  EXPECT_EQ(band.source_packets(), want);
  EXPECT_EQ(dense.source_packets(), want);
}

// The legacy per-row constructor and the flat dense constructor are the same
// encoder: identical RNG stream, identical packets.
TEST(StructuredCodec, LegacyAndFlatDenseEncodersEmitIdenticalStreams) {
  using Field = gf::Gf256;
  const std::size_t g = 12, symbols = 32;
  Rng rng(9);
  const auto flat = random_flat<Field>(g * symbols, rng);
  const coding::SourceEncoder<Field> legacy(0, rows_of<Field>(flat, symbols));
  const coding::SourceEncoder<Field> dense(
      0, GenerationStructure::dense(g), flat, symbols);
  EXPECT_EQ(legacy.structure(), dense.structure());

  Rng a(10), b(10);
  for (int i = 0; i < 20; ++i) {
    const auto pa = legacy.emit(a);
    const auto pb = dense.emit(b);
    EXPECT_EQ(pa.coeffs, pb.coeffs);
    EXPECT_EQ(pa.payload, pb.payload);
    EXPECT_EQ(pa.band_offset, pb.band_offset);
    EXPECT_EQ(pa.class_id, pb.class_id);
  }
}

// g systematic packets complete any structure: placement puts each unit
// vector in a legal band/class, and for overlapped structures the boundary
// propagation carries decoded packets into classes that never saw them.
template <typename Field>
void run_systematic_round_trip(const GenerationStructure& s,
                               std::size_t symbols, std::uint64_t seed) {
  Rng rng(seed);
  const auto flat = random_flat<Field>(s.g * symbols, rng);
  const coding::SourceEncoder<Field> enc(0, s, flat, symbols);
  coding::StructuredDecoder<Field> dec(0, s, symbols);
  for (std::size_t i = 0; i < s.g; ++i) {
    const auto p = enc.emit_systematic(i);
    EXPECT_TRUE(s.matches_packet(p.band_offset, p.coeffs.size(), p.class_id))
        << "index " << i;
    EXPECT_EQ(p.payload, std::vector<typename Field::value_type>(
                             flat.begin() + i * symbols,
                             flat.begin() + (i + 1) * symbols));
    dec.absorb(p);
  }
  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(dec.source_packets(), rows_of<Field>(flat, symbols));
  EXPECT_THROW(enc.emit_systematic(s.g), std::out_of_range);
}

TEST(StructuredCodec, SystematicCompletesBanded) {
  run_systematic_round_trip<gf::Gf256>(GenerationStructure::banded(24, 7), 16,
                                       11);
}

TEST(StructuredCodec, SystematicCompletesOverlapped) {
  run_systematic_round_trip<gf::Gf256>(GenerationStructure::overlapping(24, 8, 3),
                                       16, 12);
}

TEST(StructuredCodec, StrayPacketsAreDataNotErrors) {
  using Field = gf::Gf256;
  const std::size_t g = 16, symbols = 24;
  const auto banded = GenerationStructure::banded(g, 4);
  const auto over = GenerationStructure::overlapping(g, 8, 2);
  Rng rng(13);
  const auto flat = random_flat<Field>(g * symbols, rng);
  const coding::SourceEncoder<Field> enc(0, banded, flat, symbols);

  coding::BandDecoder<Field> band(0, banded, symbols);
  coding::StructuredDecoder<Field> relay(0, banded, symbols);
  coding::StructuredDecoder<Field> overlap(0, over, symbols);

  auto p = enc.emit(rng);
  auto stray = p;
  stray.generation = 99;  // wrong generation
  EXPECT_FALSE(band.absorb(stray));
  EXPECT_FALSE(relay.absorb(stray));
  stray = p;
  stray.payload.resize(symbols - 1);  // wrong payload size
  EXPECT_FALSE(band.absorb(stray));
  stray = p;
  stray.band_offset = static_cast<std::uint16_t>(g);  // offset out of range
  EXPECT_FALSE(band.absorb(stray));
  stray = p;
  stray.band_offset = static_cast<std::uint16_t>(g - 2);  // runs past g
  EXPECT_FALSE(band.absorb(stray));
  stray = p;
  stray.class_id = 1;  // bands carry no class id
  EXPECT_FALSE(band.absorb(stray));

  // Overlapped buffer: class id out of range must not index out of bounds.
  auto bad = p;
  bad.band_offset = 0;
  bad.coeffs.resize(8);
  bad.class_id = static_cast<std::uint16_t>(over.num_classes());
  EXPECT_FALSE(overlap.absorb(bad));

  EXPECT_EQ(band.rank(), 0u);
  EXPECT_EQ(relay.rank(), 0u);
  // Rejects count as received + redundant, never innovative.
  EXPECT_EQ(band.packets_received(), 5u);
  EXPECT_EQ(band.packets_redundant(), 5u);
  EXPECT_EQ(relay.packets_received(), 1u);
  EXPECT_EQ(overlap.packets_received(), 1u);
  EXPECT_EQ(overlap.packets_redundant(), 1u);

  // Still healthy after the abuse.
  EXPECT_TRUE(band.absorb(p));
  EXPECT_TRUE(relay.absorb(p));
}

TEST(StructuredCodec, ConstructorValidation) {
  using Field = gf::Gf256;
  // Wrap bands and overlapping classes break the band decoder's window
  // invariant: configuration errors, so they throw (unlike stray packets).
  EXPECT_THROW(coding::BandDecoder<Field>(
                   0, GenerationStructure::banded(16, 4, true), 8),
               std::invalid_argument);
  EXPECT_THROW(coding::BandDecoder<Field>(
                   0, GenerationStructure::overlapping(16, 4, 1), 8),
               std::invalid_argument);
  // The relay buffer takes every valid structure, but no empty payloads.
  EXPECT_THROW(
      coding::StructuredDecoder<Field>(0, GenerationStructure::dense(16), 0),
      std::invalid_argument);
}

TEST(StructuredCodec, IncompleteDecoderRefusesReadOff) {
  using Field = gf::Gf256;
  coding::BandDecoder<Field> band(0, GenerationStructure::banded(16, 4), 8);
  EXPECT_THROW(band.source_packet(0), std::logic_error);
  coding::StructuredDecoder<Field> over(
      0, GenerationStructure::overlapping(16, 8, 2), 8);
  EXPECT_THROW(over.source_packet(0), std::logic_error);
}

// Deferred back-substitution is idempotent: repeated read-offs (each of which
// may re-enter back_substitute) keep returning the same decoded bytes.
TEST(StructuredCodec, BandDecoderReadOffIsIdempotent) {
  using Field = gf::Gf256;
  const std::size_t g = 16, symbols = 24;
  const auto s = GenerationStructure::banded(g, 5);
  Rng rng(14);
  const auto flat = random_flat<Field>(g * symbols, rng);
  const coding::SourceEncoder<Field> enc(0, s, flat, symbols);
  coding::BandDecoder<Field> dec(0, s, symbols);
  coding::CodedPacket<Field> p;
  std::size_t sent = 0;
  while (!dec.complete()) {
    ASSERT_LT(sent++, 50 * g);
    enc.emit_into(p, rng);
    dec.absorb(p);
  }
  const auto want = rows_of<Field>(flat, symbols);
  EXPECT_EQ(dec.source_packet(3), want[3]);  // triggers back_substitute
  EXPECT_EQ(dec.source_packets(), want);     // re-enters it; must be a no-op
  EXPECT_EQ(dec.source_packet(g - 1), want[g - 1]);
  EXPECT_THROW(dec.source_packet(g), std::out_of_range);
  // Absorbing after read-off stays sound: the space is full, so everything
  // is redundant.
  enc.emit_into(p, rng);
  EXPECT_FALSE(dec.absorb(p));
  EXPECT_EQ(dec.source_packets(), want);
}

TEST(StructuredCodec, OverlappedProgressTracking) {
  using Field = gf::Gf256;
  const std::size_t g = 24, symbols = 16;
  const auto s = GenerationStructure::overlapping(g, 8, 2);
  Rng rng(15);
  const auto flat = random_flat<Field>(g * symbols, rng);
  const coding::SourceEncoder<Field> enc(0, s, flat, symbols);
  coding::StructuredDecoder<Field> dec(0, s, symbols);
  EXPECT_EQ(dec.num_classes(), s.num_classes());
  EXPECT_EQ(dec.decoded_count(), 0u);
  coding::CodedPacket<Field> p;
  std::size_t sent = 0, last_rank = 0;
  while (!dec.complete()) {
    ASSERT_LT(sent++, 50 * g);
    enc.emit_into(p, rng);
    dec.absorb(p);
    EXPECT_LE(dec.rank(), g);
    EXPECT_GE(dec.rank(), last_rank);  // the lower bound never regresses
    last_rank = dec.rank();
  }
  EXPECT_EQ(dec.rank(), g);
  EXPECT_EQ(dec.decoded_count(), g);
  EXPECT_EQ(dec.source_packets(), rows_of<Field>(flat, symbols));
}

// Dense structured recoding is the Decoder's own mix, draw for draw.
TEST(StructuredRecoding, DenseDelegatesDrawForDraw) {
  using Field = gf::Gf256;
  const std::size_t g = 12, symbols = 32;
  Rng rng(16);
  const auto flat = random_flat<Field>(g * symbols, rng);
  const coding::SourceEncoder<Field> enc(0, GenerationStructure::dense(g), flat,
                                         symbols);
  coding::Decoder<Field> plain(0, g, symbols);
  coding::StructuredDecoder<Field> structured(0, GenerationStructure::dense(g),
                                              symbols);
  for (std::size_t i = 0; i < g / 2; ++i) {
    const auto p = enc.emit(rng);
    EXPECT_EQ(plain.absorb(p), structured.absorb(p));
  }
  EXPECT_EQ(plain.rank(), structured.rank());
  Rng a(17), b(17);
  coding::CodedPacket<Field> pa, pb;
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(plain.emit_into(pa, a));
    ASSERT_TRUE(structured.emit_into(pb, b));
    EXPECT_EQ(pa.coeffs, pb.coeffs);
    EXPECT_EQ(pa.payload, pb.payload);
    EXPECT_EQ(pb.band_offset, 0);
    EXPECT_EQ(pb.class_id, 0);
  }
  EXPECT_EQ(a.below(1u << 30), b.below(1u << 30));  // streams still in step
}

// Banded recoding densifies (mixing bands at different offsets widens the
// support): a relay on a banded stream keeps one class spanning g, absorbs
// compact strips, emits dense packets, and downstream must decode with the
// dense structure.
TEST(StructuredRecoding, BandedRecodingDensifies) {
  using Field = gf::Gf256;
  const std::size_t g = 24, symbols = 32;
  const auto s = GenerationStructure::banded(g, 6);
  Rng rng(18);
  const auto flat = random_flat<Field>(g * symbols, rng);
  const coding::SourceEncoder<Field> enc(0, s, flat, symbols);
  coding::StructuredDecoder<Field> rec(0, s, symbols);
  EXPECT_EQ(rec.num_classes(), 1u);
  coding::CodedPacket<Field> p;
  std::size_t fed = 0;
  while (!rec.complete()) {
    ASSERT_LT(fed++, 50 * g);
    enc.emit_into(p, rng);
    rec.absorb(p);
  }
  // Emissions are dense packets; a dense-structure decoder absorbs them.
  coding::StructuredDecoder<Field> dec(0, GenerationStructure::dense(g),
                                       symbols);
  std::size_t sent = 0;
  while (!dec.complete()) {
    ASSERT_LT(sent++, 50 * g);
    ASSERT_TRUE(rec.emit_into(p, rng));
    EXPECT_EQ(p.band_offset, 0);
    EXPECT_EQ(p.class_id, 0);
    EXPECT_EQ(p.coeffs.size(), g);
    dec.absorb(p);
  }
  EXPECT_EQ(dec.source_packets(), rows_of<Field>(flat, symbols));
  // A relay may also sit behind another relay: densified packets are
  // themselves absorbable on the banded stream.
  coding::StructuredDecoder<Field> second(0, s, symbols);
  ASSERT_TRUE(rec.emit_into(p, rng));
  EXPECT_TRUE(second.absorb(p));
}

// Overlapped recoding is class-local and structure-preserving: emissions are
// valid class packets and a downstream buffer absorbs them unchanged.
TEST(StructuredRecoding, OverlappedRecodingPreservesStructure) {
  using Field = gf::Gf256;
  const std::size_t g = 24, symbols = 32;
  const auto s = GenerationStructure::overlapping(g, 8, 2);
  Rng rng(19);
  const auto flat = random_flat<Field>(g * symbols, rng);
  const coding::SourceEncoder<Field> enc(0, s, flat, symbols);
  coding::StructuredDecoder<Field> rec(0, s, symbols);
  EXPECT_EQ(rec.num_classes(), s.num_classes());
  coding::CodedPacket<Field> p;
  std::size_t fed = 0;
  while (!rec.complete()) {
    ASSERT_LT(fed++, 50 * g);
    enc.emit_into(p, rng);
    rec.absorb(p);
  }
  EXPECT_EQ(rec.rank(), g);
  coding::StructuredDecoder<Field> dec(0, s, symbols);
  std::size_t sent = 0;
  while (!dec.complete()) {
    ASSERT_LT(sent++, 100 * g);
    ASSERT_TRUE(rec.emit_into(p, rng));
    EXPECT_TRUE(s.matches_packet(p.band_offset, p.coeffs.size(), p.class_id));
    dec.absorb(p);
  }
  EXPECT_EQ(dec.source_packets(), rows_of<Field>(flat, symbols));
}

// The relay's class buffers are its decoder's classes, so boundary packets
// that propagation pinned into a neighboring class are forwarded too: a
// relay that only ever heard class 0 still speaks for class 1.
TEST(StructuredRecoding, OverlappedRelayForwardsPropagatedClasses) {
  using Field = gf::Gf256;
  const std::size_t g = 24, symbols = 16;
  const auto s = GenerationStructure::overlapping(g, 8, 2);
  Rng rng(23);
  const auto flat = random_flat<Field>(g * symbols, rng);
  const coding::SourceEncoder<Field> enc(0, s, flat, symbols);
  coding::StructuredDecoder<Field> relay(0, s, symbols);
  coding::CodedPacket<Field> p;
  std::size_t fed = 0;
  while (!relay.class_decoder(0).complete()) {
    ASSERT_LT(fed++, 200 * g);
    enc.emit_into(p, rng);
    if (p.class_id == 0) relay.absorb(p);
  }
  // Class 0 shares its last `overlap` columns with class 1.
  ASSERT_EQ(relay.class_decoder(1).rank(), 2u);
  std::size_t tries = 0;
  do {
    ASSERT_LT(tries++, 64u);
    ASSERT_TRUE(relay.emit_into(p, rng));
  } while (p.class_id != 1);
  EXPECT_TRUE(s.matches_packet(p.band_offset, p.coeffs.size(), p.class_id));
  // The payload is the advertised combination of class 1's source packets.
  std::vector<Field::value_type> expect(symbols, 0);
  for (std::size_t j = 0; j < p.coeffs.size(); ++j) {
    Field::region_madd(expect.data(), flat.data() + (p.band_offset + j) * symbols,
                       p.coeffs[j], symbols);
  }
  EXPECT_EQ(p.payload, expect);
  coding::StructuredDecoder<Field> sink(0, s, symbols);
  EXPECT_TRUE(sink.absorb(p));
  EXPECT_EQ(sink.class_decoder(1).rank(), 1u);
}

TEST(StructuredRecoding, RejectsMalformedAndStaysSilentWhenEmpty) {
  using Field = gf::Gf256;
  const std::size_t g = 16, symbols = 8;
  const auto over = GenerationStructure::overlapping(g, 8, 2);
  coding::StructuredDecoder<Field> rec(0, over, symbols);
  Rng rng(20);
  coding::CodedPacket<Field> out;
  EXPECT_FALSE(rec.emit_into(out, rng));  // nothing absorbed yet

  coding::CodedPacket<Field> bad;
  bad.generation = 0;
  bad.coeffs.assign(8, 1);
  bad.payload.assign(symbols, 1);
  bad.class_id = static_cast<std::uint16_t>(over.num_classes());  // out of range
  EXPECT_FALSE(rec.absorb(bad));
  bad.class_id = 0;
  bad.band_offset = 3;  // class 0 starts at 0
  EXPECT_FALSE(rec.absorb(bad));
  EXPECT_FALSE(rec.emit_into(out, rng));  // rejects left nothing to mix

  const auto banded = GenerationStructure::banded(g, 4);
  coding::StructuredDecoder<Field> brec(0, banded, symbols);
  coding::CodedPacket<Field> strip;
  strip.generation = 0;
  strip.coeffs.assign(3, 1);  // wrong width: neither a strip nor densified
  strip.payload.assign(symbols, 1);
  EXPECT_FALSE(brec.absorb(strip));
  EXPECT_EQ(brec.rank(), 0u);
  EXPECT_FALSE(brec.emit_into(out, rng));
}

}  // namespace
}  // namespace ncast
