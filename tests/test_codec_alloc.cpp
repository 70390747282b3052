// Proof that the codec hot path is allocation-free in steady state: global
// operator new/new[] are replaced with counting versions, and the count must
// not move across Decoder::absorb, Decoder::emit_into,
// StructuredDecoder::absorb/emit_into, BandDecoder::absorb,
// SourceEncoder::emit_into and the masked FileEncoder/FileDecoder::emit_into
// loops once construction and first-use metric
// registration are behind us. This is the enforcement half of the contract
// documented in coding/decoder.hpp and linalg/reduced_basis.hpp.
//
// The counter is bumped in the replaced operators themselves, so ANY heap
// allocation on the measured path — vector growth, metric registration, a
// stray temporary — fails the test. gtest assertions allocate, so the
// measured regions contain no EXPECT/ASSERT; deltas are checked after.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "coding/band_decoder.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/file_codec.hpp"
#include "coding/structure.hpp"
#include "coding/structured_decoder.hpp"
#include "gf/gf256.hpp"
#include "gf/gf2_16.hpp"
#include "util/rng.hpp"

namespace {
std::atomic<std::uint64_t> g_news{0};
}  // namespace

void* operator new(std::size_t n) {
  g_news.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace ncast {
namespace {

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

template <typename Field>
void run_absorb_alloc_free(std::uint64_t seed) {
  const std::size_t g = 16, symbols = 128;
  Rng rng(seed);
  const auto source = random_source<Field>(g, symbols, rng);
  const coding::SourceEncoder<Field> enc(0, source);
  std::vector<coding::CodedPacket<Field>> packets;
  for (std::size_t i = 0; i < g + 8; ++i) packets.push_back(enc.emit(rng));

  coding::Decoder<Field> dec(0, g, symbols);
  // Warm-up: the first absorb registers the decode metrics (one-time heap
  // work behind a static) and faults in the GF kernel tables.
  dec.absorb(packets[0]);
  dec.absorb(packets[1]);

  const std::uint64_t before = g_news.load();
  for (std::size_t i = 2; i < packets.size(); ++i) dec.absorb(packets[i]);
  const std::uint64_t delta = g_news.load() - before;

  ASSERT_TRUE(dec.complete());
  // Innovative, redundant, AND shape-rejected packets must all be free.
  EXPECT_EQ(delta, 0u);
}

TEST(CodecAllocFree, DecoderAbsorbGf256) {
  run_absorb_alloc_free<gf::Gf256>(31);
}

TEST(CodecAllocFree, DecoderAbsorbGf2_16) {
  run_absorb_alloc_free<gf::Gf2_16>(32);
}

TEST(CodecAllocFree, DecoderEmitIntoSteadyState) {
  using Field = gf::Gf256;
  const std::size_t g = 16, symbols = 128;
  Rng rng(33);
  const auto source = random_source<Field>(g, symbols, rng);
  const coding::SourceEncoder<Field> enc(0, source);
  coding::Decoder<Field> rec(0, g, symbols);
  while (!rec.complete()) rec.absorb(enc.emit(rng));

  // Warm-up sizes the packet's buffers and registers recoder.emit_ns.
  coding::CodedPacket<Field> out;
  ASSERT_TRUE(rec.emit_into(out, rng));

  const std::uint64_t before = g_news.load();
  bool ok = true;
  for (int i = 0; i < 200; ++i) ok = rec.emit_into(out, rng) && ok;
  const std::uint64_t delta = g_news.load() - before;

  EXPECT_TRUE(ok);
  EXPECT_EQ(delta, 0u);
  // The recycled packet still carries a decodable combination.
  coding::Decoder<Field> check(0, g, symbols);
  EXPECT_TRUE(check.absorb(out));
}

TEST(CodecAllocFree, EncoderEmitIntoSteadyState) {
  using Field = gf::Gf256;
  const std::size_t g = 8, symbols = 64;
  Rng rng(34);
  const auto source = random_source<Field>(g, symbols, rng);
  const coding::SourceEncoder<Field> enc(0, source);

  coding::CodedPacket<Field> out;
  enc.emit_into(out, rng);  // warm-up sizes the buffers

  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 200; ++i) enc.emit_into(out, rng);
  const std::uint64_t delta = g_news.load() - before;

  EXPECT_EQ(delta, 0u);
}

template <typename Field>
std::vector<typename Field::value_type> random_flat(std::size_t n, Rng& rng) {
  std::vector<typename Field::value_type> v(n);
  for (auto& x : v) {
    x = static_cast<typename Field::value_type>(rng.below(Field::order));
  }
  return v;
}

// The band decoder inherits the contract: innovative, redundant, AND
// rejected packets all absorb without heap traffic (the BandBasis arena is
// allocated once at construction).
TEST(CodecAllocFree, BandDecoderAbsorbSteadyState) {
  using Field = gf::Gf256;
  const std::size_t g = 32, symbols = 128;
  const auto s = coding::GenerationStructure::banded(g, 8);
  Rng rng(36);
  const coding::SourceEncoder<Field> enc(0, s, random_flat<Field>(g * symbols, rng),
                                         symbols);
  std::vector<coding::CodedPacket<Field>> packets;
  for (std::size_t i = 0; i < 3 * g; ++i) packets.push_back(enc.emit(rng));
  packets.push_back(packets.front());
  packets.back().generation = 99;  // reject path inside the measured loop

  coding::BandDecoder<Field> dec(0, s, symbols);
  // Warm-up registers the decode metrics and faults in the kernel tables.
  dec.absorb(packets[0]);
  dec.absorb(packets[1]);

  const std::uint64_t before = g_news.load();
  for (std::size_t i = 2; i < packets.size(); ++i) dec.absorb(packets[i]);
  const std::uint64_t delta = g_news.load() - before;

  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(delta, 0u);
}

// A one-class buffer (dense, or banded with or without wrap) costs its
// Decoder's three buffers plus the one-entry class vector to build, and no
// propagation state. An overlapped one adds the class decoders and the
// propagation worklist, all up front.
TEST(CodecAllocFree, StructuredDecoderConstruction) {
  using Field = gf::Gf256;
  const std::size_t g = 32, symbols = 128;
  for (const auto& s : {coding::GenerationStructure::dense(g),
                        coding::GenerationStructure::banded(g, 8),
                        coding::GenerationStructure::banded(g, 8, true)}) {
    const std::uint64_t before = g_news.load();
    const coding::StructuredDecoder<Field> dec(0, s, symbols);
    const std::uint64_t delta = g_news.load() - before;
    EXPECT_EQ(dec.num_classes(), 1u);
    EXPECT_EQ(delta, 4u) << coding::to_string(s.kind);
  }
  const auto over = coding::GenerationStructure::overlapping(g, 8, 2);
  const std::uint64_t before = g_news.load();
  const coding::StructuredDecoder<Field> dec(0, over, symbols);
  const std::uint64_t delta = g_news.load() - before;
  // Three per class decoder, the class vector, done_ and the worklist.
  EXPECT_EQ(delta, 3 * over.num_classes() + 3);
}

// The one-class strip path: a banded buffer scatters compact strips —
// innovative, redundant, wrapping and rejected — straight into its
// Decoder's scratch row, with no heap traffic.
TEST(CodecAllocFree, StructuredStripAbsorbSteadyState) {
  using Field = gf::Gf256;
  const std::size_t g = 32, symbols = 128;
  const auto s = coding::GenerationStructure::banded(g, 8, true);
  Rng rng(39);
  const coding::SourceEncoder<Field> enc(0, s, random_flat<Field>(g * symbols, rng),
                                         symbols);
  std::vector<coding::CodedPacket<Field>> packets;
  for (std::size_t i = 0; i < 3 * g; ++i) packets.push_back(enc.emit(rng));
  packets.push_back(packets.front());
  packets.back().coeffs.resize(7);  // reject path: neither strip nor row

  coding::StructuredDecoder<Field> dec(0, s, symbols);
  // Warm-up: one reject (registers the early-reject counters) plus two
  // strips (register the class decoder's metrics).
  dec.absorb(packets.back());
  dec.absorb(packets[0]);
  dec.absorb(packets[1]);

  const std::uint64_t before = g_news.load();
  for (std::size_t i = 2; i < packets.size(); ++i) dec.absorb(packets[i]);
  const std::uint64_t delta = g_news.load() - before;

  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(delta, 0u);
}

// The overlapped buffer's absorb — including the boundary-propagation
// cascade (recovered_payload reads, absorb_unit injections, the worklist) —
// runs on buffers preallocated at construction.
TEST(CodecAllocFree, StructuredOverlappedAbsorbAndPropagate) {
  using Field = gf::Gf256;
  const std::size_t g = 32, symbols = 128;
  const auto s = coding::GenerationStructure::overlapping(g, 8, 2);
  Rng rng(37);
  const coding::SourceEncoder<Field> enc(0, s, random_flat<Field>(g * symbols, rng),
                                         symbols);
  std::vector<coding::CodedPacket<Field>> packets;
  for (std::size_t i = 0; i < 8 * g; ++i) packets.push_back(enc.emit(rng));
  packets.push_back(packets.front());
  packets.back().class_id = static_cast<std::uint16_t>(s.num_classes());

  coding::StructuredDecoder<Field> dec(0, s, symbols);
  // Warm-up: one reject (registers the early-reject counters) plus two
  // routed packets (register the class decoders' metrics).
  dec.absorb(packets.back());
  dec.absorb(packets[0]);
  dec.absorb(packets[1]);

  const std::uint64_t before = g_news.load();
  for (std::size_t i = 2; i < packets.size(); ++i) dec.absorb(packets[i]);
  const std::uint64_t delta = g_news.load() - before;

  ASSERT_TRUE(dec.complete());
  EXPECT_EQ(delta, 0u);
}

// Structured recoding: a banded-stream relay scatters strips into its
// class's scratch row and mixes dense rows out, and class-routed overlapped
// emission mixes one class in place. All free once the caller's packet
// buffers are sized.
TEST(CodecAllocFree, StructuredEmitIntoSteadyState) {
  using Field = gf::Gf256;
  const std::size_t g = 16, symbols = 64;
  Rng rng(38);

  const auto banded = coding::GenerationStructure::banded(g, 4);
  const coding::SourceEncoder<Field> benc(
      0, banded, random_flat<Field>(g * symbols, rng), symbols);
  std::vector<coding::CodedPacket<Field>> strips;
  for (std::size_t i = 0; i < 3 * g; ++i) strips.push_back(benc.emit(rng));
  coding::StructuredDecoder<Field> brec(0, banded, symbols);
  brec.absorb(strips[0]);
  brec.absorb(strips[1]);  // warm-up registers the decode metrics
  coding::CodedPacket<Field> dense;
  bool ok = brec.emit_into(dense, rng);  // warm-up sizes the dense packet

  std::uint64_t before = g_news.load();
  for (std::size_t i = 2; i < strips.size(); ++i) brec.absorb(strips[i]);
  for (int i = 0; i < 200; ++i) ok = brec.emit_into(dense, rng) && ok;
  std::uint64_t delta = g_news.load() - before;
  ASSERT_TRUE(brec.complete());
  EXPECT_TRUE(ok);
  EXPECT_EQ(dense.coeffs.size(), g);
  EXPECT_EQ(delta, 0u);

  const auto over = coding::GenerationStructure::overlapping(g, 8, 2);
  const coding::SourceEncoder<Field> oenc(
      0, over, random_flat<Field>(g * symbols, rng), symbols);
  coding::StructuredDecoder<Field> orec(0, over, symbols);
  std::size_t fed = 0;
  while (!orec.complete()) {
    ASSERT_LT(fed++, 50 * g);
    orec.absorb(oenc.emit(rng));
  }
  // Warm-up long enough for the recycled packet to have seen every class
  // width (classes differ, and assign() only reuses existing capacity).
  coding::CodedPacket<Field> out;
  for (int i = 0; i < 20; ++i) ok = orec.emit_into(out, rng) && ok;

  before = g_news.load();
  for (int i = 0; i < 200; ++i) ok = orec.emit_into(out, rng) && ok;
  delta = g_news.load() - before;
  EXPECT_TRUE(ok);
  EXPECT_EQ(delta, 0u);
}

// A rank-0 decoder declines to emit without touching the heap either.
TEST(CodecAllocFree, EmptyDecoderEmitIntoIsFreeAndSilent) {
  using Field = gf::Gf256;
  Rng rng(35);
  coding::Decoder<Field> rec(0, 8, 64);
  coding::CodedPacket<Field> out;
  const std::uint64_t before = g_news.load();
  const bool emitted = rec.emit_into(out, rng);
  const std::uint64_t delta = g_news.load() - before;
  EXPECT_FALSE(emitted);
  EXPECT_EQ(delta, 0u);
}

// An upload draw that skips a child's finished generations is allocation-free
// too, and so is a draw with every generation masked (the parent then sends
// a keepalive).
TEST(CodecAllocFree, MaskedFileEmitIntoSteadyState) {
  Rng rng(36);
  std::vector<std::uint8_t> content(4 * 8 * 64);
  for (auto& b : content) b = static_cast<std::uint8_t>(rng.below(256));
  const coding::FileEncoder enc(content, 8, 64);  // 4 generations
  coding::FileDecoder relay(enc.plan());
  for (std::size_t g = 0; g < enc.generations(); ++g) {
    for (int i = 0; i < 3; ++i) relay.absorb(enc.emit(g, rng));
  }
  coding::GenerationMask some, all;
  some.insert(1);
  some.insert(2);
  for (std::size_t g = 0; g < enc.generations(); ++g) all.insert(g);

  coding::FileEncoder::Packet out;
  bool ok = enc.emit_into(out, rng, some) && relay.emit_into(out, rng, some);

  const std::uint64_t before = g_news.load();
  for (int i = 0; i < 200; ++i) {
    ok = enc.emit_into(out, rng, some) && ok;
    ok = relay.emit_into(out, rng, some) && ok;
    ok = !enc.emit_into(out, rng, all) && ok;
    ok = !relay.emit_into(out, rng, all) && ok;
  }
  const std::uint64_t delta = g_news.load() - before;
  EXPECT_TRUE(ok);
  EXPECT_EQ(delta, 0u);
}

}  // namespace
}  // namespace ncast
