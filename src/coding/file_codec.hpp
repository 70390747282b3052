#pragma once
// Whole-file RLNC codec over GF(2^8): glues generation segmentation, the
// source encoder, and per-generation decoders into the object a server or a
// downloading client actually holds. Used by the examples, the
// file-distribution simulator, and the protocol endpoints.
//
// The encoder is structure-aware (coding/structure.hpp): it builds one
// SourceEncoder per generation under a StructureSpec (dense by default, so
// every pre-structure call site keeps its exact behavior — including the RNG
// draw sequence), and emit/emit_round_robin preserve the band/class geometry
// because SourceEncoder's placement draws do. The decoder decodes dense
// generations, one Decoder each; structured streams are decoded by the
// protocol endpoints through StreamState.

#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/generation.hpp"
#include "coding/structure.hpp"
#include "gf/gf256.hpp"
#include "util/rng.hpp"

namespace ncast::coding {

/// Server-side file encoder: owns one SourceEncoder per generation and emits
/// coded packets round-robin or for a chosen generation.
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

  /// emit() into `p`, reusing its buffers; the same draws.
  void emit_into(std::size_t gen, Packet& p, Rng& rng) const {
    encoders_.at(gen).emit_into(p, rng);
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

/// Client-side file decoder: one dense decoder per generation plus
/// reassembly.
class FileDecoder {
 public:
  using Packet = CodedPacket<gf::Gf256>;

  explicit FileDecoder(const GenerationPlan& plan) : plan_(plan) {
    decoders_.reserve(plan_.generations);
    for (std::size_t g = 0; g < plan_.generations; ++g) {
      decoders_.emplace_back(static_cast<std::uint32_t>(g),
                             plan_.generation_size, plan_.symbols);
    }
  }

  /// Consumes a packet; returns true iff innovative.
  bool absorb(const Packet& p) {
    if (p.generation >= decoders_.size()) return false;
    return decoders_[p.generation].absorb(p);
  }

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

  const Decoder<gf::Gf256>& decoder(std::size_t gen) const {
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
  std::vector<Decoder<gf::Gf256>> decoders_;
};

}  // namespace ncast::coding
