#pragma once
// Source-side encoder: holds the g original packets of one generation and
// emits random linear combinations (or systematic originals).
//
// The encoder is structure-aware (coding/structure.hpp): under the dense
// structure every emission mixes all g source packets with g coefficients
// (the original codec, draw-for-draw identical to the pre-structure code);
// under a banded structure each emission picks a random band start and mixes
// only band_width packets; under an overlapping structure each emission
// picks a random class and mixes that class's packets. Sparse emissions
// carry compact coefficient strips (packet.band_offset + band_width coeffs)
// instead of g dense entries.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "coding/packet.hpp"
#include "coding/structure.hpp"
#include "util/rng.hpp"

namespace ncast::coding {

/// Encoder for a single generation of `g` source packets, each of
/// `symbols` field symbols. Source rows are stored in one flat buffer
/// (g * symbols), not per-row vectors.
template <typename Field>
class SourceEncoder {
 public:
  using value_type = typename Field::value_type;
  using Packet = CodedPacket<Field>;

  /// Dense encoder over per-row source packets; `source` must contain g rows
  /// of equal length (>= 1). Rows are copied into flat storage.
  SourceEncoder(std::uint32_t generation,
                std::vector<std::vector<value_type>> source)
      : generation_(generation) {
    if (source.empty()) throw std::invalid_argument("SourceEncoder: empty generation");
    symbols_ = source.front().size();
    if (symbols_ == 0) throw std::invalid_argument("SourceEncoder: empty packets");
    flat_.reserve(source.size() * symbols_);
    for (const auto& row : source) {
      if (row.size() != symbols_) {
        throw std::invalid_argument("SourceEncoder: ragged source packets");
      }
      flat_.insert(flat_.end(), row.begin(), row.end());
    }
    structure_ = GenerationStructure::dense(source.size());
  }

  /// Structure-aware encoder over a flat source buffer of
  /// structure.g * symbols field symbols (row i at [i * symbols, ...)).
  SourceEncoder(std::uint32_t generation, const GenerationStructure& structure,
                std::vector<value_type> flat, std::size_t symbols)
      : generation_(generation),
        structure_(structure),
        flat_(std::move(flat)),
        symbols_(symbols) {
    structure_.validate();
    if (symbols_ == 0) throw std::invalid_argument("SourceEncoder: empty packets");
    if (flat_.size() != structure_.g * symbols_) {
      throw std::invalid_argument("SourceEncoder: flat buffer size mismatch");
    }
  }

  std::uint32_t generation() const { return generation_; }
  std::size_t generation_size() const { return structure_.g; }
  std::size_t symbols() const { return symbols_; }
  const GenerationStructure& structure() const { return structure_; }

  // ncast:hot-begin — per-emission encode: reuses the caller's packet
  // capacity, zero heap allocations in steady state.

  /// Writes a random linear combination into `p`, reusing its buffers (no
  /// allocation once `p` has the right capacity). Placement (band offset /
  /// class) is drawn first, then the coefficients; a draw is spent on
  /// placement only when there is more than one choice, so the dense
  /// structure consumes exactly the same RNG stream as the pre-structure
  /// encoder. The combination is re-drawn if it comes out all-zero (possible
  /// over tiny fields), so the result always carries information.
  void emit_into(Packet& p, Rng& rng) const {
    const std::size_t g = structure_.g;
    std::size_t offset = 0;
    std::size_t width = g;
    std::size_t class_id = 0;
    switch (structure_.kind) {
      case StructureKind::kDense:
        break;
      case StructureKind::kBanded:
        width = structure_.band_width;
        if (width < g) {
          if (structure_.wrap) {
            offset = rng.below(g);
          } else {
            // Clamped-window draw: a uniform offset in [0, g-w] would cover
            // column 0 only via offset 0 (and likewise at the right edge),
            // starving edge columns and inflating overhead. Drawing the
            // window start uniformly from [-(w-1), g-1] and clamping into
            // the legal range gives every column the same w/(g+w-1)
            // coverage mass, so achieved overhead stays near dense.
            const std::size_t u = rng.below(g + width - 1);
            offset = u < width ? 0 : u - (width - 1);
            if (offset > g - width) offset = g - width;
          }
        }
        break;
      case StructureKind::kOverlapped: {
        const std::size_t classes = structure_.num_classes();
        if (classes > 1) class_id = rng.below(classes);
        offset = structure_.class_begin(class_id);
        width = structure_.class_width(class_id);
        break;
      }
    }
    p.generation = generation_;
    p.band_offset = static_cast<std::uint16_t>(offset);
    p.class_id = static_cast<std::uint16_t>(class_id);
    p.coeffs.resize(width);  // ncast:allow(hot_path.alloc): reuses caller capacity; allocates only on first use
    do {
      for (auto& c : p.coeffs) {
        c = static_cast<value_type>(rng.below(Field::order));
      }
    } while (p.is_degenerate());
    p.payload.assign(symbols_, value_type{0});
    for (std::size_t j = 0; j < width; ++j) {
      Field::region_madd(p.payload.data(),
                         flat_.data() + cyclic_index(offset, j, g) * symbols_,
                         p.coeffs[j], symbols_);
    }
  }

  // ncast:hot-end

  /// Emits a random linear combination as a fresh packet.
  Packet emit(Rng& rng) const {
    Packet p;
    emit_into(p, rng);
    return p;
  }

  /// Emits source packet `index` verbatim. The coefficient strip is a unit
  /// vector placed so the packet is well-formed under the structure (any
  /// band/class containing `index` works; the first is used).
  Packet emit_systematic(std::size_t index) const {
    const std::size_t g = structure_.g;
    if (index >= g) {
      throw std::out_of_range("SourceEncoder::emit_systematic");
    }
    std::size_t offset = 0;
    std::size_t width = g;
    std::size_t class_id = 0;
    switch (structure_.kind) {
      case StructureKind::kDense:
        break;
      case StructureKind::kBanded:
        width = structure_.band_width;
        offset = index + width <= g ? index : g - width;
        break;
      case StructureKind::kOverlapped:
        class_id = structure_.first_class_of(index);
        offset = structure_.class_begin(class_id);
        width = structure_.class_width(class_id);
        break;
    }
    Packet p;
    p.generation = generation_;
    p.band_offset = static_cast<std::uint16_t>(offset);
    p.class_id = static_cast<std::uint16_t>(class_id);
    p.coeffs.assign(width, value_type{0});
    p.coeffs[index - offset] = value_type{1};
    p.payload.assign(flat_.begin() + index * symbols_,
                     flat_.begin() + (index + 1) * symbols_);
    return p;
  }

  /// The source packets materialized as per-row vectors (copies; the flat
  /// buffer is the storage of record).
  std::vector<std::vector<value_type>> source_packets() const {
    std::vector<std::vector<value_type>> out;
    out.reserve(structure_.g);
    for (std::size_t i = 0; i < structure_.g; ++i) {
      out.emplace_back(flat_.begin() + i * symbols_,
                       flat_.begin() + (i + 1) * symbols_);
    }
    return out;
  }

 private:
  std::uint32_t generation_;
  GenerationStructure structure_;
  std::vector<value_type> flat_;  // g rows, row i at [i * symbols_, ...)
  std::size_t symbols_ = 0;
};

}  // namespace ncast::coding
