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
//
// Both uploads draw their generation among those a GenerationMask leaves
// open: a parent passes the generations its child reported finished, so no
// recode is spent on a generation the child can only reject. An empty mask
// leaves the draw exactly the unmasked one.

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

/// A set of a stream's generations, one bit each, covering any generation
/// count: the generations a child holds in full, which its parent's upload
/// draws skip. The empty default holds nothing and owns no memory.
class GenerationMask {
 public:
  bool contains(std::size_t gen) const {
    const std::size_t word = gen / 64;
    return word < words_.size() && ((words_[word] >> (gen % 64)) & 1u) != 0;
  }

  /// Adds `gen`, growing the set to cover it.
  void insert(std::size_t gen) {
    const std::size_t word = gen / 64;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    words_[word] |= std::uint64_t{1} << (gen % 64);
  }

 private:
  std::vector<std::uint64_t> words_;
};

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

  // ncast:hot-begin — the origin's per-upload draw: no allocation, no throw.

  /// The origin's upload: a coded packet from a uniformly random generation
  /// outside `skip`, written into `p` (reusing its buffers). Draws the
  /// generation, then the encoder's placement and coefficients; with nothing
  /// skipped the generation draw is one rng.below(generations). Returns
  /// false, drawing nothing, when `skip` holds every generation.
  bool emit_into(Packet& p, Rng& rng, const GenerationMask& skip = {}) const {
    std::size_t open = 0;
    for (std::size_t g = 0; g < plan_.generations; ++g) {
      open += skip.contains(g) ? 0 : 1;
    }
    if (open == 0) return false;
    std::size_t pick = rng.below(open);
    for (std::size_t g = 0; g < plan_.generations; ++g) {
      if (skip.contains(g) || pick-- != 0) continue;
      encoders_[g].emit_into(p, rng);
      return true;
    }
    return false;
  }

  // ncast:hot-end

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

  /// A relay's upload: recodes into `p` a uniformly random generation that
  /// has data and is outside `skip` (random, not round-robin: deterministic
  /// rotations over a static edge order can starve descendants of whole
  /// generations). Returns false, drawing nothing, while no such generation
  /// exists: every buffer is empty or skipped.
  bool emit_into(Packet& p, Rng& rng, const GenerationMask& skip = {}) const {
    const auto open = [&](std::size_t g) {
      return decoders_[g].rank() > 0 && !skip.contains(g);
    };
    std::size_t candidates = 0;
    for (std::size_t g = 0; g < decoders_.size(); ++g) {
      candidates += open(g) ? 1 : 0;
    }
    if (candidates == 0) return false;
    std::size_t pick = rng.below(candidates);
    for (std::size_t g = 0; g < decoders_.size(); ++g) {
      if (!open(g) || pick-- != 0) continue;
      return decoders_[g].emit_into(p, rng);
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
