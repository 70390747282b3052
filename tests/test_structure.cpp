// Generation-structure geometry: factories, validation, class/band layout,
// and the never-throwing packet-admission predicate. Pure geometry — no field
// arithmetic — so these tests pin the invariants every structured codec
// component (encoder placement, wire validation, decoder routing) builds on.

#include "coding/structure.hpp"

#include <gtest/gtest.h>

#include <optional>
#include <stdexcept>

namespace ncast {
namespace {

using coding::GenerationStructure;
using coding::StructureKind;

TEST(Structure, DenseFactory) {
  const auto s = GenerationStructure::dense(16);
  EXPECT_EQ(s.kind, StructureKind::kDense);
  EXPECT_EQ(s.g, 16u);
  EXPECT_EQ(s.band_width, 16u);
  EXPECT_FALSE(s.wrap);
  EXPECT_EQ(s.overlap, 0u);
  EXPECT_EQ(s.num_classes(), 1u);
  EXPECT_EQ(s.offsets(), 1u);
}

TEST(Structure, BandedFactory) {
  const auto s = GenerationStructure::banded(32, 8);
  EXPECT_EQ(s.kind, StructureKind::kBanded);
  EXPECT_EQ(s.band_width, 8u);
  EXPECT_FALSE(s.wrap);
  EXPECT_EQ(s.offsets(), 25u);  // g - w + 1 legal starts
  // One class spanning the generation: a band is a placement inside it.
  EXPECT_EQ(s.num_classes(), 1u);
  EXPECT_EQ(s.class_begin(0), 0u);
  EXPECT_EQ(s.class_width(0), 32u);
  EXPECT_EQ(s.first_class_of(31), 0u);
  EXPECT_EQ(s.last_class_of(31), 0u);

  const auto w = GenerationStructure::banded(32, 8, true);
  EXPECT_TRUE(w.wrap);
  EXPECT_EQ(w.offsets(), 32u);  // every start is legal when bands wrap
}

TEST(Structure, FullWidthBandNormalizesWrapAway) {
  // A band as wide as the generation is dense in all but name; wrap would be
  // meaningless, so the factory drops it.
  const auto s = GenerationStructure::banded(16, 16, true);
  EXPECT_FALSE(s.wrap);
  EXPECT_EQ(s.offsets(), 1u);
}

TEST(Structure, OverlappingFactory) {
  const auto s = GenerationStructure::overlapping(32, 8, 2);
  EXPECT_EQ(s.kind, StructureKind::kOverlapped);
  EXPECT_EQ(s.band_width, 8u);
  EXPECT_EQ(s.overlap, 2u);
  EXPECT_EQ(s.stride(), 6u);
  // Starts 0, 6, 12, 18, 24 cover [0, 32) with width-8 classes.
  EXPECT_EQ(s.num_classes(), 5u);
}

TEST(Structure, ValidationThrows) {
  EXPECT_THROW(GenerationStructure::dense(0), std::invalid_argument);
  EXPECT_THROW(GenerationStructure::banded(16, 0), std::invalid_argument);
  EXPECT_THROW(GenerationStructure::banded(16, 17), std::invalid_argument);
  EXPECT_THROW(GenerationStructure::overlapping(16, 4, 4),
               std::invalid_argument);
  EXPECT_THROW(GenerationStructure::overlapping(16, 4, 5),
               std::invalid_argument);

  // Hand-built nonsense the factories can't produce.
  GenerationStructure s = GenerationStructure::dense(16);
  s.band_width = 8;  // dense requires width == g
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = GenerationStructure::dense(16);
  s.overlap = 2;  // overlap without classes
  EXPECT_THROW(s.validate(), std::invalid_argument);
  s = GenerationStructure::dense(16);
  s.wrap = true;  // wrap without bands
  EXPECT_THROW(s.validate(), std::invalid_argument);
}

TEST(Structure, ClassGeometryCoversGeneration) {
  for (std::size_t g : {8u, 17u, 32u, 33u, 64u}) {
    for (std::size_t c : {4u, 5u, 8u}) {
      if (c > g) continue;
      for (std::size_t v : {0u, 1u, 3u}) {
        if (v >= c) continue;
        const auto s = GenerationStructure::overlapping(g, c, v);
        const std::size_t n = s.num_classes();
        // Classes tile [0, g): consecutive begins advance by the stride, the
        // last class ends exactly at g, and every class keeps more than
        // `overlap` packets (no class is a subset of its neighbor).
        EXPECT_EQ(s.class_begin(0), 0u);
        for (std::size_t k = 0; k + 1 < n; ++k) {
          EXPECT_EQ(s.class_begin(k + 1), s.class_begin(k) + s.stride());
          EXPECT_EQ(s.class_width(k), c);
        }
        EXPECT_EQ(s.class_begin(n - 1) + s.class_width(n - 1), g)
            << "g=" << g << " c=" << c << " v=" << v;
        EXPECT_GT(s.class_width(n - 1), v);
      }
    }
  }
}

TEST(Structure, FirstAndLastClassOfEveryColumn) {
  const auto s = GenerationStructure::overlapping(32, 8, 2);
  for (std::size_t j = 0; j < s.g; ++j) {
    const std::size_t first = s.first_class_of(j);
    const std::size_t last = s.last_class_of(j);
    ASSERT_LE(first, last) << "j=" << j;
    // Exhaustive cross-check: class k owns j iff begin <= j < begin + width.
    for (std::size_t k = 0; k < s.num_classes(); ++k) {
      const bool owns =
          s.class_begin(k) <= j && j < s.class_begin(k) + s.class_width(k);
      EXPECT_EQ(owns, first <= k && k <= last) << "j=" << j << " k=" << k;
    }
  }
}

TEST(Structure, MatchesPacketDense) {
  const auto s = GenerationStructure::dense(16);
  EXPECT_TRUE(s.matches_packet(0, 16, 0));
  EXPECT_FALSE(s.matches_packet(1, 16, 0));
  EXPECT_FALSE(s.matches_packet(0, 15, 0));
  EXPECT_FALSE(s.matches_packet(0, 16, 1));
}

TEST(Structure, MatchesPacketBanded) {
  const auto s = GenerationStructure::banded(16, 4);
  EXPECT_TRUE(s.matches_packet(0, 4, 0));
  EXPECT_TRUE(s.matches_packet(12, 4, 0));  // last legal non-wrap start
  EXPECT_FALSE(s.matches_packet(13, 4, 0));  // would run past g
  EXPECT_FALSE(s.matches_packet(16, 4, 0));  // offset out of range
  EXPECT_FALSE(s.matches_packet(0, 3, 0));   // wrong width
  EXPECT_FALSE(s.matches_packet(0, 4, 1));   // bands carry no class id

  const auto w = GenerationStructure::banded(16, 4, true);
  EXPECT_TRUE(w.matches_packet(13, 4, 0));  // wraps around the end
  EXPECT_TRUE(w.matches_packet(15, 4, 0));
  EXPECT_FALSE(w.matches_packet(16, 4, 0));
}

TEST(Structure, MatchesPacketOverlapped) {
  const auto s = GenerationStructure::overlapping(32, 8, 2);
  for (std::size_t k = 0; k < s.num_classes(); ++k) {
    EXPECT_TRUE(s.matches_packet(s.class_begin(k), s.class_width(k), k));
  }
  EXPECT_FALSE(s.matches_packet(0, 8, s.num_classes()));  // class out of range
  EXPECT_FALSE(s.matches_packet(1, 8, 0));                // wrong offset
  EXPECT_FALSE(s.matches_packet(0, 7, 0));                // wrong width
  EXPECT_FALSE(s.matches_packet(6, 8, 0));  // class 1's placement, class 0's id
}

/// The factory for `kind`, fed the descriptor fields that factory takes;
/// nullopt for an unknown kind or when the factory throws.
std::optional<GenerationStructure> from_factory(std::uint8_t kind,
                                                std::size_t g,
                                                std::size_t width, bool wrap,
                                                std::size_t overlap) {
  try {
    switch (kind) {
      case 0: return GenerationStructure::dense(g);
      case 1: return GenerationStructure::banded(g, width, wrap);
      case 2: return GenerationStructure::overlapping(g, width, overlap);
      default: return std::nullopt;
    }
  } catch (const std::invalid_argument&) {
    return std::nullopt;
  }
}

TEST(Structure, MakeStructureRefusesExactlyWhatFactoriesReject) {
  // make_structure reads untrusted wire descriptors; it must accept exactly
  // the geometries the factories build, after two normalizations: width 0
  // means the full generation, and wrap is dropped at full width. A field
  // the kind's factory does not take (dense width, overlap outside classes,
  // wrap outside bands) must be zero.
  std::size_t accepted = 0;
  for (std::uint8_t kind = 0; kind <= 3; ++kind) {
    for (std::size_t g = 0; g <= 6; ++g) {
      for (std::size_t width = 0; width <= g + 1; ++width) {
        for (const bool wrap : {false, true}) {
          for (std::size_t overlap = 0; overlap <= 3; ++overlap) {
            const std::size_t w = width == 0 ? g : width;
            auto want = from_factory(kind, g, w, wrap, overlap);
            if (want && (want->band_width != w || want->overlap != overlap ||
                         want->wrap != (wrap && w < g))) {
              want.reset();
            }
            const auto got =
                coding::make_structure(kind, g, width, wrap, overlap);
            SCOPED_TRACE(testing::Message()
                         << "kind " << int(kind) << " g " << g << " width "
                         << width << " wrap " << wrap << " overlap "
                         << overlap);
            ASSERT_EQ(got.has_value(), want.has_value());
            if (!got) continue;
            EXPECT_EQ(*got, *want);
            EXPECT_EQ(got->invalid_reason(), nullptr);
            ++accepted;
          }
        }
      }
    }
  }
  EXPECT_GT(accepted, 0u);

  // The normalizations, spelled out.
  EXPECT_EQ(coding::make_structure(0, 8, 0, false, 0),
            GenerationStructure::dense(8));
  EXPECT_EQ(coding::make_structure(1, 8, 8, true, 0),
            GenerationStructure::banded(8, 8));
  EXPECT_FALSE(coding::make_structure(1, 8, 8, true, 0)->wrap);
}

TEST(Structure, ValidateThrowsTheInvalidReason) {
  GenerationStructure s = GenerationStructure::banded(8, 4);
  EXPECT_EQ(s.invalid_reason(), nullptr);
  EXPECT_NO_THROW(s.validate());
  s.overlap = 1;  // overlap without classes
  ASSERT_NE(s.invalid_reason(), nullptr);
  try {
    s.validate();
    ADD_FAILURE() << "validate() accepted " << s.invalid_reason();
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), s.invalid_reason());
  }
  s = GenerationStructure::dense(4);
  s.kind = static_cast<StructureKind>(3);
  EXPECT_NE(s.invalid_reason(), nullptr);
}

TEST(Structure, EqualityAndNames) {
  EXPECT_EQ(GenerationStructure::banded(32, 8),
            GenerationStructure::banded(32, 8));
  EXPECT_NE(GenerationStructure::banded(32, 8),
            GenerationStructure::banded(32, 8, true));
  EXPECT_NE(GenerationStructure::dense(16), GenerationStructure::dense(17));
  EXPECT_STREQ(coding::to_string(StructureKind::kDense), "dense");
  EXPECT_STREQ(coding::to_string(StructureKind::kBanded), "banded");
  EXPECT_STREQ(coding::to_string(StructureKind::kOverlapped), "overlapped");
}

}  // namespace
}  // namespace ncast
