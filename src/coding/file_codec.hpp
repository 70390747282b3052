#pragma once
// Whole-file RLNC codec over GF(2^8): glues generation segmentation, the
// source encoder, and per-generation buffers into the objects an origin and
// a sink or relay hold. Used by the examples and, through node::StreamState,
// by every protocol endpoint.
//
// The encoder is structure-aware (coding/structure.hpp): it builds one
// SourceEncoder per generation under a StructureSpec (dense by default, so
// every pre-structure call site keeps its exact behavior — including the RNG
// draw sequence), and its emissions preserve the band/class geometry because
// SourceEncoder's placement draws do. The decoder is the one multi-generation
// buffer: one StructuredDecoder per generation (dense by default), which
// decodes, reassembles, and — at a relay — recodes.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "coding/encoder.hpp"
#include "coding/generation.hpp"
#include "coding/structure.hpp"
#include "coding/structured_decoder.hpp"
#include "gf/gf256.hpp"
#include "util/rng.hpp"

namespace ncast::coding {

/// Origin-side file encoder: owns one SourceEncoder per generation and emits
/// coded packets for a chosen, a random, or the next generation.
class FileEncoder {
 public:
  using Packet = CodedPacket<gf::Gf256>;

  FileEncoder(std::vector<std::uint8_t> data, std::size_t generation_size,
              std::size_t symbols, StructureSpec structure = {})
      : data_(std::move(data)),
        plan_(plan_generations(data_.size(), generation_size, symbols)),
        structure_(structure.resolve(plan_.generation_size)) {
    encoders_.reserve(plan_.generations);
    std::vector<std::uint8_t> flat;
    for (std::size_t g = 0; g < plan_.generations; ++g) {
      // One flat buffer per generation, handed straight to the encoder — no
      // g-vectors-per-generation allocation storm.
      generation_packets_into(data_, plan_, g, flat);
      encoders_.emplace_back(static_cast<std::uint32_t>(g), structure_,
                             std::move(flat), plan_.symbols);
      flat.clear();
    }
  }

  const GenerationPlan& plan() const { return plan_; }
  const GenerationStructure& structure() const { return structure_; }
  std::size_t generations() const { return plan_.generations; }
  /// The content being encoded.
  const std::vector<std::uint8_t>& data() const { return data_; }

  /// Random coded packet from generation `gen`: a band at a random offset,
  /// a random class, or a full dense row, per the structure.
  Packet emit(std::size_t gen, Rng& rng) const {
    return encoders_.at(gen).emit(rng);
  }

  /// The origin's upload: a coded packet from a uniformly random
  /// generation, written into `p` (reusing its buffers). Draws the
  /// generation, then the encoder's placement and coefficients.
  void emit_into(Packet& p, Rng& rng) const {
    encoders_[rng.below(plan_.generations)].emit_into(p, rng);
  }

  /// Random coded packet, cycling generations across calls.
  Packet emit_round_robin(Rng& rng) {
    const Packet p = emit(next_, rng);
    next_ = (next_ + 1) % plan_.generations;
    return p;
  }

 private:
  std::vector<std::uint8_t> data_;
  GenerationPlan plan_;
  GenerationStructure structure_;
  std::vector<SourceEncoder<gf::Gf256>> encoders_;
  std::size_t next_ = 0;
};

/// The multi-generation buffer of a sink or relay: one StructuredDecoder per
/// generation (decode and recode), plus reassembly.
class FileDecoder {
 public:
  using Packet = CodedPacket<gf::Gf256>;

  /// Dense generations.
  explicit FileDecoder(const GenerationPlan& plan)
      : FileDecoder(plan, GenerationStructure::dense(plan.generation_size)) {}

  /// Generations under `structure`, whose g must be the plan's generation
  /// size.
  FileDecoder(const GenerationPlan& plan, const GenerationStructure& structure)
      : plan_(plan) {
    decoders_.reserve(plan_.generations);
    for (std::size_t g = 0; g < plan_.generations; ++g) {
      decoders_.emplace_back(static_cast<std::uint32_t>(g), structure,
                             plan_.symbols);
    }
  }

  const GenerationPlan& plan() const { return plan_; }
  /// A plan has at least one generation, and every buffer shares it.
  const GenerationStructure& structure() const {
    return decoders_.front().structure();
  }

  // ncast:hot-begin — per-packet absorb and recode: no allocation, no throw.

  /// Consumes a packet; returns true iff innovative.
  bool absorb(const Packet& p) {
    if (p.generation >= decoders_.size()) return false;
    return decoders_[p.generation].absorb(p);
  }

  /// A relay's upload: recodes a uniformly random generation with data into
  /// `p` (random, not round-robin: deterministic rotations over a static
  /// edge order can starve descendants of whole generations). Returns false,
  /// drawing nothing, while every buffer is empty.
  bool emit_into(Packet& p, Rng& rng) const {
    std::size_t with_data = 0;
    for (const auto& d : decoders_) with_data += d.rank() > 0 ? 1 : 0;
    if (with_data == 0) return false;
    std::size_t pick = rng.below(with_data);
    for (const auto& d : decoders_) {
      if (d.rank() == 0 || pick-- != 0) continue;
      return d.emit_into(p, rng);
    }
    return false;
  }

  // ncast:hot-end

  bool complete() const {
    for (const auto& d : decoders_) {
      if (!d.complete()) return false;
    }
    return true;
  }

  /// Ranks summed over generations (progress indicator).
  std::size_t total_rank() const {
    std::size_t r = 0;
    for (const auto& d : decoders_) r += d.rank();
    return r;
  }

  std::size_t needed_rank() const {
    return plan_.generations * plan_.generation_size;
  }

  const StructuredDecoder<gf::Gf256>& decoder(std::size_t gen) const {
    return decoders_.at(gen);
  }

  /// Reconstructs the original bytes; requires complete().
  std::vector<std::uint8_t> data() const {
    if (!complete()) throw std::logic_error("FileDecoder::data: incomplete");
    std::vector<std::vector<std::vector<std::uint8_t>>> decoded;
    decoded.reserve(plan_.generations);
    for (const auto& d : decoders_) decoded.push_back(d.source_packets());
    return reassemble(decoded, plan_);
  }

 private:
  GenerationPlan plan_;
  std::vector<StructuredDecoder<gf::Gf256>> decoders_;
};

}  // namespace ncast::coding
