// SIMD/scalar parity for the GF region kernels. Every region operation, for
// both fields, at every size in 0..67 plus 1023/1024/1025 (straddling the
// vector main-loop boundaries and the dispatch threshold), must agree exactly
// with a per-element reference computed from the field's scalar mul/add —
// under every instruction-set tier the running CPU supports. A randomized
// decode round-trip then cross-checks that a generation decoded under a
// vector tier and under forced scalar produce identical source data.
//
// Tiers are flipped in-process via set_tier_for_testing(); the ctest suite
// additionally re-runs the full field/codec tests with NCAST_FORCE_SCALAR=1
// in the environment (see tests/CMakeLists.txt).

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "coding/band_decoder.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/structure.hpp"
#include "coding/structured_decoder.hpp"
#include "gf/dispatch.hpp"
#include "gf/gf256.hpp"
#include "gf/gf2_16.hpp"
#include "util/rng.hpp"

namespace ncast {
namespace {

/// All tiers the running CPU can execute, scalar first.
std::vector<gf::Tier> supported_tiers() {
  std::vector<gf::Tier> tiers{gf::Tier::kScalar};
  const auto best = static_cast<int>(gf::best_supported_tier());
  for (int t = 1; t <= best; ++t) tiers.push_back(static_cast<gf::Tier>(t));
  return tiers;
}

/// Restores the CPU-selected tier when a test scope ends, pass or fail.
struct TierGuard {
  ~TierGuard() { gf::set_tier_for_testing(gf::best_supported_tier()); }
};

constexpr std::size_t kSizes[] = {0,  1,  2,  3,  4,  5,  6,  7,  8,  9,  10,
                                  11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21,
                                  22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32,
                                  33, 34, 35, 36, 37, 38, 39, 40, 41, 42, 43,
                                  44, 45, 46, 47, 48, 49, 50, 51, 52, 53, 54,
                                  55, 56, 57, 58, 59, 60, 61, 62, 63, 64, 65,
                                  66, 67, 1023, 1024, 1025};

template <typename Field>
std::vector<typename Field::value_type> random_region(std::size_t n, Rng& rng) {
  std::vector<typename Field::value_type> v(n);
  for (auto& x : v) {
    x = static_cast<typename Field::value_type>(rng.below(Field::order));
  }
  return v;
}

/// Exercises madd, mul, and add at size n with coefficient c and compares
/// against the per-element reference.
template <typename Field>
void check_ops(std::size_t n, typename Field::value_type c, Rng& rng) {
  using V = typename Field::value_type;
  const auto src = random_region<Field>(n, rng);
  const auto base = random_region<Field>(n, rng);

  std::vector<V> want_madd = base;
  std::vector<V> want_mul = base;
  std::vector<V> want_add = base;
  for (std::size_t i = 0; i < n; ++i) {
    want_madd[i] = Field::add(base[i], Field::mul(c, src[i]));
    want_mul[i] = Field::mul(c, base[i]);
    want_add[i] = Field::add(base[i], src[i]);
  }

  std::vector<V> got = base;
  Field::region_madd(got.data(), src.data(), c, n);
  ASSERT_EQ(got, want_madd) << "madd n=" << n << " c=" << +c << " tier="
                            << gf::tier_name(gf::active_tier());

  got = base;
  Field::region_mul(got.data(), c, n);
  ASSERT_EQ(got, want_mul) << "mul n=" << n << " c=" << +c << " tier="
                           << gf::tier_name(gf::active_tier());

  got = base;
  Field::region_add(got.data(), src.data(), n);
  ASSERT_EQ(got, want_add) << "add n=" << n << " tier="
                           << gf::tier_name(gf::active_tier());
}

template <typename Field>
void run_parity(std::uint64_t seed) {
  TierGuard guard;
  for (const gf::Tier tier : supported_tiers()) {
    gf::set_tier_for_testing(tier);
    ASSERT_EQ(gf::active_tier(), tier);
    Rng rng(seed);
    for (const std::size_t n : kSizes) {
      // Edge coefficients (0, 1, max) plus random ones.
      check_ops<Field>(n, typename Field::value_type{0}, rng);
      check_ops<Field>(n, typename Field::value_type{1}, rng);
      check_ops<Field>(
          n, static_cast<typename Field::value_type>(Field::order - 1), rng);
      for (int k = 0; k < 3; ++k) {
        check_ops<Field>(
            n, static_cast<typename Field::value_type>(rng.below(Field::order)),
            rng);
      }
    }
  }
}

TEST(GfKernelParity, Gf256AllTiersAllSizes) { run_parity<gf::Gf256>(101); }

TEST(GfKernelParity, Gf2_16AllTiersAllSizes) { run_parity<gf::Gf2_16>(202); }

TEST(GfKernelParity, TierNamesAndForcedOrder) {
  EXPECT_STREQ(gf::tier_name(gf::Tier::kScalar), "scalar");
  EXPECT_STREQ(gf::tier_name(gf::Tier::kSsse3), "ssse3");
  EXPECT_STREQ(gf::tier_name(gf::Tier::kAvx2), "avx2");
  EXPECT_STREQ(gf::tier_name(gf::Tier::kGfni), "gfni");
  TierGuard guard;
  // Requesting a tier never exceeds what the CPU supports.
  gf::set_tier_for_testing(gf::Tier::kGfni);
  EXPECT_LE(static_cast<int>(gf::active_tier()),
            static_cast<int>(gf::best_supported_tier()));
}

/// The same packet stream must decode to the same source under every tier —
/// elimination order and pivot choices are tier-independent, so this catches
/// any kernel that is "close but not equal" on real codec data.
template <typename Field>
void run_decode_cross_check(std::size_t g, std::size_t symbols,
                            std::uint64_t seed) {
  using V = typename Field::value_type;
  Rng source_rng(seed);
  std::vector<std::vector<V>> source(g, std::vector<V>(symbols));
  for (auto& row : source) {
    for (auto& v : row) v = static_cast<V>(source_rng.below(Field::order));
  }
  const coding::SourceEncoder<Field> enc(0, source);
  std::vector<coding::CodedPacket<Field>> packets;
  Rng packet_rng(seed + 1);
  for (std::size_t i = 0; i < g + 4; ++i) packets.push_back(enc.emit(packet_rng));

  TierGuard guard;
  for (const gf::Tier tier : supported_tiers()) {
    gf::set_tier_for_testing(tier);
    coding::Decoder<Field> dec(0, g, symbols);
    for (const auto& p : packets) {
      if (dec.complete()) break;
      dec.absorb(p);
    }
    ASSERT_TRUE(dec.complete()) << "tier=" << gf::tier_name(tier);
    EXPECT_EQ(dec.source_packets(), source) << "tier=" << gf::tier_name(tier);
  }
}

TEST(GfKernelParity, DecodeRoundTripCrossCheckGf256) {
  run_decode_cross_check<gf::Gf256>(24, 300, 7);
}

TEST(GfKernelParity, DecodeRoundTripCrossCheckGf2_16) {
  run_decode_cross_check<gf::Gf2_16>(12, 150, 8);
}

/// Same cross-check through the structured codec: one packet stream, decoded
/// under every tier by a `Decoder<Field>` (band elimination, or the relay
/// buffer: one class spanning g, or per-class propagation for overlapped
/// structures). Innovation verdicts and decoded bytes must be
/// tier-independent bit for bit.
template <template <typename> class Decoder, typename Field>
void run_structured_decode_cross_check(const coding::GenerationStructure& s,
                                       std::size_t symbols,
                                       std::uint64_t seed) {
  using V = typename Field::value_type;
  Rng source_rng(seed);
  std::vector<V> flat(s.g * symbols);
  for (auto& v : flat) v = static_cast<V>(source_rng.below(Field::order));
  const coding::SourceEncoder<Field> enc(0, s, flat, symbols);
  std::vector<coding::CodedPacket<Field>> packets;
  Rng packet_rng(seed + 1);
  for (std::size_t i = 0; i < 6 * s.g; ++i) {
    packets.push_back(enc.emit(packet_rng));
  }

  TierGuard guard;
  std::vector<std::vector<V>> want;
  std::vector<int> want_verdicts;
  for (const gf::Tier tier : supported_tiers()) {
    gf::set_tier_for_testing(tier);
    Decoder<Field> dec(0, s, symbols);
    std::vector<int> verdicts;
    for (const auto& p : packets) {
      if (dec.complete()) break;
      verdicts.push_back(dec.absorb(p) ? 1 : 0);
    }
    ASSERT_TRUE(dec.complete()) << "tier=" << gf::tier_name(tier);
    const auto got = dec.source_packets();
    if (want.empty()) {
      want = got;
      want_verdicts = verdicts;
      for (std::size_t i = 0; i < s.g; ++i) {
        ASSERT_EQ(got[i], std::vector<V>(flat.begin() + i * symbols,
                                         flat.begin() + (i + 1) * symbols))
            << "row " << i;
      }
    } else {
      EXPECT_EQ(got, want) << "tier=" << gf::tier_name(tier);
      EXPECT_EQ(verdicts, want_verdicts) << "tier=" << gf::tier_name(tier);
    }
  }
}

TEST(GfKernelParity, StructuredDecodeCrossCheckBanded) {
  const auto s = coding::GenerationStructure::banded(24, 6);
  run_structured_decode_cross_check<coding::BandDecoder, gf::Gf256>(s, 200, 9);
  run_structured_decode_cross_check<coding::StructuredDecoder, gf::Gf256>(
      s, 200, 9);
}

TEST(GfKernelParity, StructuredDecodeCrossCheckOverlapped) {
  run_structured_decode_cross_check<coding::StructuredDecoder, gf::Gf256>(
      coding::GenerationStructure::overlapping(24, 8, 2), 200, 10);
}

TEST(GfKernelParity, StructuredDecodeCrossCheckBandedGf2_16) {
  const auto s = coding::GenerationStructure::banded(12, 4);
  run_structured_decode_cross_check<coding::BandDecoder, gf::Gf2_16>(s, 100,
                                                                      11);
  run_structured_decode_cross_check<coding::StructuredDecoder, gf::Gf2_16>(
      s, 100, 11);
}

}  // namespace
}  // namespace ncast
