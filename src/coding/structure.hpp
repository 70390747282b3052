#pragma once
// Generation structures: which source packets a coded packet may mix.
//
// Dense full-generation RLNC pays O(g * width) elimination per absorbed
// packet against a dense basis. Sparse structures trade a little overhead
// (redundant-packet fraction) for much cheaper decoding, per "Effects of the
// Generation Size and Overlap on Throughput and Complexity in Randomized
// Linear Network Coding" and "Sparse Network Coding with Overlapping
// Classes":
//
//   kDense      every packet mixes all g source packets (the original codec);
//   kBanded     every packet mixes a contiguous band of `band_width` source
//               packets starting at a random offset, optionally wrapping
//               around the end of the generation (windowed / WINDWRAP codes);
//   kOverlapped the generation is covered by classes of `band_width`
//               consecutive source packets whose neighbors share `overlap`
//               boundary packets; every coded packet mixes one class.
//
// A GenerationStructure is pure geometry: it is threaded through
// SourceEncoder (placement draws), the wire format (band offset + compact
// coefficients), and the decoders (StructuredDecoder keeps one buffer per
// class; BandDecoder eliminates within the band). See docs/performance.md
// ("generation structures & decoders") for the frontier measurements.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>

namespace ncast::coding {

enum class StructureKind : std::uint8_t {
  kDense = 0,
  kBanded = 1,
  kOverlapped = 2,
};

inline const char* to_string(StructureKind kind) {
  switch (kind) {
    case StructureKind::kDense: return "dense";
    case StructureKind::kBanded: return "banded";
    case StructureKind::kOverlapped: return "overlapped";
  }
  return "?";
}

/// Geometry of one generation's coding structure. Plain value type; validated
/// construction goes through the dense()/banded()/overlapping() factories.
struct GenerationStructure {
  StructureKind kind = StructureKind::kDense;
  std::size_t g = 0;           ///< generation size (source packets)
  std::size_t band_width = 0;  ///< band width w, or class size c; g when dense
  bool wrap = false;           ///< banded: bands may wrap around the end
  std::size_t overlap = 0;     ///< overlapped: shared packets between neighbors

  /// Full-generation mixing — the original codec.
  static GenerationStructure dense(std::size_t g) {
    GenerationStructure s;
    s.kind = StructureKind::kDense;
    s.g = g;
    s.band_width = g;
    s.validate();
    return s;
  }

  /// Width-`width` bands at arbitrary offsets; `wrap` allows bands that run
  /// past packet g-1 and continue at packet 0. A band as wide as the
  /// generation is dense in all but name, so wrap is normalized away then.
  static GenerationStructure banded(std::size_t g, std::size_t width,
                                    bool wrap = false) {
    GenerationStructure s;
    s.kind = StructureKind::kBanded;
    s.g = g;
    s.band_width = width;
    s.wrap = wrap && width < g;
    s.validate();
    return s;
  }

  /// Classes of `class_size` consecutive packets, adjacent classes sharing
  /// `overlap` packets. Requires overlap < class_size so every class owns at
  /// least one packet exclusively.
  static GenerationStructure overlapping(std::size_t g, std::size_t class_size,
                                         std::size_t overlap) {
    GenerationStructure s;
    s.kind = StructureKind::kOverlapped;
    s.g = g;
    s.band_width = class_size;
    s.overlap = overlap;
    s.validate();
    return s;
  }

  /// Why the geometry is nonsense, or nullptr when it is valid. Never
  /// throws: the one rule set behind both validate() (configuration errors)
  /// and make_structure() (untrusted wire descriptors).
  const char* invalid_reason() const {
    if (kind > StructureKind::kOverlapped) {
      return "GenerationStructure: unknown kind";
    }
    if (g == 0) return "GenerationStructure: g == 0";
    if (band_width == 0 || band_width > g) {
      return "GenerationStructure: band width not in [1, g]";
    }
    if (kind == StructureKind::kDense && band_width != g) {
      return "GenerationStructure: dense requires width == g";
    }
    if (kind == StructureKind::kOverlapped && overlap >= band_width) {
      return "GenerationStructure: overlap >= class size";
    }
    if (kind != StructureKind::kOverlapped && overlap != 0) {
      return "GenerationStructure: overlap without classes";
    }
    if (kind != StructureKind::kBanded && wrap) {
      return "GenerationStructure: wrap without bands";
    }
    return nullptr;
  }

  /// Throws std::invalid_argument on geometric nonsense (configuration
  /// errors; malformed *packets* against a valid structure are data and are
  /// rejected without throwing — see matches_packet()).
  void validate() const {
    if (const char* reason = invalid_reason()) {
      throw std::invalid_argument(reason);
    }
  }

  // --- class geometry ----------------------------------------------------
  // Every structure is a set of classes of consecutive source packets, and
  // every coded packet mixes one class. Dense and banded structures are the
  // one-class case: class 0 spans all g packets (a band is a placement
  // within it, not a class of its own).

  /// Distance between consecutive class starts.
  std::size_t stride() const { return band_width - overlap; }

  /// Number of classes covering [0, g). 1 for dense/banded structures.
  std::size_t num_classes() const {
    if (kind != StructureKind::kOverlapped || band_width >= g) return 1;
    return 1 + (g - band_width + stride() - 1) / stride();
  }

  /// First source packet of class `c`.
  std::size_t class_begin(std::size_t c) const { return c * stride(); }

  /// Width of class `c`: g for the one class of a dense or banded structure.
  /// The last overlapped class is clipped at g but always keeps more than
  /// `overlap` packets (so no class is a subset of its neighbor).
  std::size_t class_width(std::size_t c) const {
    if (kind != StructureKind::kOverlapped) return g;
    const std::size_t begin = class_begin(c);
    return band_width < g - begin ? band_width : g - begin;
  }

  /// Classes whose range contains source packet `j`: [first, last] inclusive.
  std::size_t first_class_of(std::size_t j) const {
    if (kind != StructureKind::kOverlapped || j < band_width) return 0;
    return (j - band_width) / stride() + 1;
  }
  std::size_t last_class_of(std::size_t j) const {
    const std::size_t c = j / stride();
    const std::size_t last = num_classes() - 1;
    return c < last ? c : last;
  }

  // --- banded geometry ----------------------------------------------------

  /// Number of legal band start offsets for encoding.
  std::size_t offsets() const {
    if (kind != StructureKind::kBanded || band_width == g) return 1;
    return wrap ? g : g - band_width + 1;
  }

  // --- packet admission ---------------------------------------------------

  /// True iff a packet with this placement is well-formed under the
  /// structure. Pure data validation: never throws.
  bool matches_packet(std::size_t offset, std::size_t width,
                      std::size_t class_id) const {
    switch (kind) {
      case StructureKind::kDense:
        return offset == 0 && width == g && class_id == 0;
      case StructureKind::kBanded:
        if (class_id != 0 || width != band_width || offset >= g) return false;
        return wrap || offset + width <= g;
      case StructureKind::kOverlapped:
        return class_id < num_classes() && offset == class_begin(class_id) &&
               width == class_width(class_id);
    }
    return false;
  }

  /// Stream admission: what a *receive path on the overlay* must accept.
  /// Everything matches_packet() admits, plus full-width dense rows on
  /// banded streams — recoding densifies banded codes (mixing two bands
  /// with different offsets widens the support), so a banded stream carries
  /// mixed traffic: compact band strips on encoder-direct hops and dense
  /// rows from every relay. Overlapped recoding is structure-preserving
  /// (class-local), so no such exception exists there.
  bool admits_packet(std::size_t offset, std::size_t width,
                     std::size_t class_id) const {
    if (matches_packet(offset, width, class_id)) return true;
    return kind == StructureKind::kBanded && offset == 0 && width == g &&
           class_id == 0;
  }

  bool operator==(const GenerationStructure& o) const {
    return kind == o.kind && g == o.g && band_width == o.band_width &&
           wrap == o.wrap && overlap == o.overlap;
  }
  bool operator!=(const GenerationStructure& o) const { return !(*this == o); }
};

/// Builds a structure from untrusted wire-level fields without throwing:
/// nullopt wherever validate() would throw. Join accepts and slot grants
/// arrive from the network, and a malformed structure descriptor is data,
/// not a configuration error. Applies the factories' normalizations first:
/// width 0 means the full generation, and wrap is dropped at full width.
inline std::optional<GenerationStructure> make_structure(
    std::uint8_t kind_byte, std::size_t g, std::size_t band_width, bool wrap,
    std::size_t overlap) {
  GenerationStructure s;
  s.kind = static_cast<StructureKind>(kind_byte);
  s.g = g;
  s.band_width = band_width == 0 ? g : band_width;
  s.wrap = wrap && s.band_width < g;
  s.overlap = overlap;
  if (s.invalid_reason() != nullptr) return std::nullopt;
  return s;
}

/// Configuration-level structure descriptor: the shape of a stream's coding
/// structure *before* the generation size is known. Configs and scenario
/// specs carry a StructureSpec; resolve(g) turns it into the concrete
/// GenerationStructure once the plan fixes g. band_width == 0 means "the
/// full generation" (dense in all but name), so the default-constructed
/// spec is plain dense RLNC and every pre-structure call site keeps its
/// behavior without naming a structure at all.
struct StructureSpec {
  StructureKind kind = StructureKind::kDense;
  std::size_t band_width = 0;  ///< band/class width; 0 = full generation
  bool wrap = false;           ///< banded: bands may wrap past g
  std::size_t overlap = 0;     ///< overlapped: shared boundary packets

  static StructureSpec dense() { return {}; }
  static StructureSpec banded(std::size_t width, bool wrap = false) {
    StructureSpec s;
    s.kind = StructureKind::kBanded;
    s.band_width = width;
    s.wrap = wrap;
    return s;
  }
  static StructureSpec overlapping(std::size_t class_size,
                                   std::size_t overlap) {
    StructureSpec s;
    s.kind = StructureKind::kOverlapped;
    s.band_width = class_size;
    s.overlap = overlap;
    return s;
  }

  /// Concrete geometry for a generation of `g` packets. Throws on geometric
  /// nonsense — this is the configuration path; message paths go through
  /// make_structure() instead.
  GenerationStructure resolve(std::size_t g) const {
    const std::size_t width = band_width == 0 ? g : band_width;
    switch (kind) {
      case StructureKind::kDense:
        return GenerationStructure::dense(g);
      case StructureKind::kBanded:
        return GenerationStructure::banded(g, width, wrap);
      case StructureKind::kOverlapped:
        return GenerationStructure::overlapping(g, width, overlap);
    }
    throw std::invalid_argument("StructureSpec: unknown kind");
  }

  bool operator==(const StructureSpec& o) const {
    return kind == o.kind && band_width == o.band_width && wrap == o.wrap &&
           overlap == o.overlap;
  }
  bool operator!=(const StructureSpec& o) const { return !(*this == o); }
};

}  // namespace ncast::coding
