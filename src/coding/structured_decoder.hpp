#pragma once
// Decoder policies: which elimination strategy to run a generation structure
// on, plus the StructuredDecoder facade that picks one and routes packets.
//
//   kDense   ScatterDecoder — expands compact coefficient strips to dense
//            g-wide rows and runs the original arena-backed Decoder. Sound
//            for every structure (it is plain Gaussian elimination); the
//            only policy that handles wrap-around bands, whose support is
//            not a contiguous window.
//   kBand    BandDecoder — pivot-compact banded elimination, O(w) per
//            elimination step instead of O(g). Sound for dense and non-wrap
//            banded structures.
//   kOverlap OverlapDecoder — per-class dense sub-decoders with decoded
//            boundary packets propagated between classes. Requires an
//            overlapping structure.
//   kAuto    select_policy(): the cheapest sound policy for the structure.
//
// Every policy produces exact innovation verdicts and exact decoded output,
// so policy choice trades CPU only — never correctness or overhead. The
// parity tests (tests/test_structured_codec.cpp) pin the policies against
// each other bit-for-bit.
//
// The decoder is also the relay's recoding buffer (emit_into). How recoding
// interacts with the structure:
//
//   dense       the Decoder's own mix, draw for draw.
//   banded      mixing two bands with different offsets widens the support,
//               so recoding densifies banded codes — a known property of
//               sparse network codes. A relay on a banded stream therefore
//               runs the dense policy (select_stream_policy) and emits dense
//               rows; banded decoding pays off on encoder-direct traffic, and
//               the band policy never relays.
//   overlapped  class-local mixing (OverlapDecoder::emit_into) preserves the
//               structure exactly, so its sparsity survives every hop.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <type_traits>
#include <variant>
#include <vector>

#include "coding/band_decoder.hpp"
#include "coding/decoder.hpp"
#include "coding/overlap_decoder.hpp"
#include "coding/packet.hpp"
#include "coding/structure.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ncast::coding {

enum class DecoderPolicy : std::uint8_t {
  kAuto = 0,
  kDense = 1,
  kBand = 2,
  kOverlap = 3,
};

inline const char* to_string(DecoderPolicy policy) {
  switch (policy) {
    case DecoderPolicy::kAuto: return "auto";
    case DecoderPolicy::kDense: return "dense";
    case DecoderPolicy::kBand: return "band";
    case DecoderPolicy::kOverlap: return "overlap";
  }
  return "?";
}

/// The cheapest sound policy for `s`.
inline DecoderPolicy select_policy(const GenerationStructure& s) {
  switch (s.kind) {
    case StructureKind::kDense:
      return DecoderPolicy::kDense;
    case StructureKind::kBanded:
      // Wrap-around bands are not contiguous windows; only the dense policy
      // is sound for them.
      return s.wrap ? DecoderPolicy::kDense : DecoderPolicy::kBand;
    case StructureKind::kOverlapped:
      return DecoderPolicy::kOverlap;
  }
  return DecoderPolicy::kDense;
}

/// The cheapest policy that is sound for a *stream* of `s`-structured
/// traffic crossing recoding relays. Differs from select_policy() in one
/// case: banded streams map to the dense policy, because recoding densifies
/// banded codes — an overlay receive buffer sees mixed band strips and
/// full-width relay rows, and the BandDecoder can neither absorb the latter
/// nor recode. Encoder-direct consumers (no relays in the path) should keep
/// select_policy(), which is where the banded speedup lives.
inline DecoderPolicy select_stream_policy(const GenerationStructure& s) {
  return s.kind == StructureKind::kBanded ? DecoderPolicy::kDense
                                          : select_policy(s);
}

/// Dense-policy decoder for any structure: compact coefficient strips are
/// scattered into a preallocated g-wide row (cyclically, so wrap-around
/// bands work) and absorbed by the original dense Decoder.
template <typename Field>
class ScatterDecoder {
 public:
  using value_type = typename Field::value_type;
  using Packet = CodedPacket<Field>;

  ScatterDecoder(std::uint32_t generation, const GenerationStructure& structure,
                 std::size_t symbols)
      : structure_(structure),
        inner_(generation, structure.g, symbols),
        expand_(structure.g, value_type{0}) {
    structure_.validate();
  }

  std::uint32_t generation() const { return inner_.generation(); }
  const GenerationStructure& structure() const { return structure_; }
  std::size_t generation_size() const { return structure_.g; }
  std::size_t symbols() const { return inner_.symbols(); }
  std::size_t rank() const { return inner_.rank(); }
  bool complete() const { return inner_.complete(); }
  std::uint64_t packets_received() const { return inner_.packets_received() + rejected_; }
  std::uint64_t packets_innovative() const { return inner_.packets_innovative(); }
  std::uint64_t packets_redundant() const { return packets_received() - packets_innovative(); }

  // ncast:hot-begin — scatter + dense absorb, dense recode: no allocation,
  // no throw.

  /// Consumes a packet; returns true iff it was innovative. Malformed
  /// placements and stray generations are rejected as data. Admission uses
  /// the stream rule (admits_packet), not the strict encoder shape: on a
  /// banded stream this decoder is exactly where relay-densified full-width
  /// rows end up, and plain Gaussian elimination absorbs them soundly.
  bool absorb(const Packet& p) {
    if (p.generation != inner_.generation() ||
        p.payload.size() != inner_.symbols() ||
        !structure_.admits_packet(p.band_offset, p.coeffs.size(),
                                  p.class_id)) {
      ++rejected_;
      reg().received.inc();
      reg().redundant.inc();
      return false;
    }
    const std::size_t g = structure_.g;
    const std::size_t width = p.coeffs.size();
    if (p.band_offset == 0 && width == g) {
      // Dense packet: no expansion needed — identical to Decoder::absorb.
      return inner_.absorb_row(p.coeffs.data(), p.payload.data());
    }
    std::fill(expand_.begin(), expand_.end(), value_type{0});
    for (std::size_t j = 0; j < width; ++j) {
      const std::size_t i =
          p.band_offset + j < g ? p.band_offset + j : p.band_offset + j - g;
      expand_[i] = p.coeffs[j];
    }
    return inner_.absorb_row(expand_.data(), p.payload.data());
  }

  /// Recodes from the dense basis: always a dense row, whatever the stream's
  /// structure (mixing densifies bands).
  bool emit_into(Packet& out, Rng& rng) const {
    return inner_.emit_into(out, rng);
  }

  // ncast:hot-end

  std::vector<value_type> source_packet(std::size_t index) const {
    return inner_.source_packet(index);
  }
  std::vector<std::vector<value_type>> source_packets() const {
    return inner_.source_packets();
  }
  const Decoder<Field>& inner() const { return inner_; }

 private:
  struct Instrumentation {
    obs::Counter& received = obs::metrics().counter("decoder.packets_received");
    obs::Counter& redundant = obs::metrics().counter("decoder.packets_redundant");
  };
  static Instrumentation& reg() {
    static Instrumentation instr;
    return instr;
  }

  GenerationStructure structure_;
  Decoder<Field> inner_;
  std::vector<value_type> expand_;  // preallocated dense coefficient row
  std::uint64_t rejected_ = 0;      // early rejects not seen by inner_
};

/// Facade: one decoder for any structure, behind a policy choice.
template <typename Field>
class StructuredDecoder {
 public:
  using value_type = typename Field::value_type;
  using Packet = CodedPacket<Field>;

  StructuredDecoder(std::uint32_t generation,
                    const GenerationStructure& structure, std::size_t symbols,
                    DecoderPolicy policy = DecoderPolicy::kAuto)
      : policy_(policy == DecoderPolicy::kAuto ? select_policy(structure)
                                               : policy),
        impl_(make(generation, structure, symbols, policy_)) {}

  DecoderPolicy policy() const { return policy_; }

  bool absorb(const Packet& p) {
    return std::visit([&](auto& d) { return d.absorb(p); }, impl_);
  }
  bool complete() const {
    return std::visit([](const auto& d) { return d.complete(); }, impl_);
  }
  /// Rank toward the g unknowns. Exact for the dense and band policies;
  /// see OverlapDecoder::rank() for the overlap caveat.
  std::size_t rank() const {
    return std::visit([](const auto& d) { return d.rank(); }, impl_);
  }
  std::size_t symbols() const {
    return std::visit([](const auto& d) { return d.symbols(); }, impl_);
  }
  std::size_t generation_size() const {
    return std::visit([](const auto& d) { return d.generation_size(); }, impl_);
  }
  const GenerationStructure& structure() const {
    return std::visit(
        [](const auto& d) -> const GenerationStructure& { return d.structure(); },
        impl_);
  }
  std::uint64_t packets_received() const {
    return std::visit([](const auto& d) { return d.packets_received(); }, impl_);
  }
  std::uint64_t packets_innovative() const {
    return std::visit([](const auto& d) { return d.packets_innovative(); }, impl_);
  }
  std::uint64_t packets_redundant() const {
    return std::visit([](const auto& d) { return d.packets_redundant(); }, impl_);
  }
  std::vector<value_type> source_packet(std::size_t index) const {
    return std::visit([&](const auto& d) { return d.source_packet(index); },
                      impl_);
  }
  std::vector<std::vector<value_type>> source_packets() const {
    return std::visit([](const auto& d) { return d.source_packets(); }, impl_);
  }

  /// Writes a random recombination of what this decoder holds into `out`
  /// (see the structure notes at the top of this file). Returns false if
  /// nothing has been received, and always under the band policy, which
  /// never relays.
  bool emit_into(Packet& out, Rng& rng) const {
    return std::visit(
        [&](const auto& d) {
          if constexpr (std::is_same_v<std::decay_t<decltype(d)>,
                                       BandDecoder<Field>>) {
            return false;
          } else {
            return d.emit_into(out, rng);
          }
        },
        impl_);
  }

 private:
  using Impl = std::variant<ScatterDecoder<Field>, BandDecoder<Field>,
                            OverlapDecoder<Field>>;

  static Impl make(std::uint32_t generation,
                   const GenerationStructure& structure, std::size_t symbols,
                   DecoderPolicy policy) {
    switch (policy) {
      case DecoderPolicy::kDense:
        return Impl{std::in_place_type<ScatterDecoder<Field>>, generation,
                    structure, symbols};
      case DecoderPolicy::kBand:
        return Impl{std::in_place_type<BandDecoder<Field>>, generation,
                    structure, symbols};
      case DecoderPolicy::kOverlap:
        return Impl{std::in_place_type<OverlapDecoder<Field>>, generation,
                    structure, symbols};
      case DecoderPolicy::kAuto:
        break;
    }
    throw std::invalid_argument("StructuredDecoder: unresolved policy");
  }

  DecoderPolicy policy_;
  Impl impl_;
};

}  // namespace ncast::coding
