#pragma once
// Per-endpoint stream state shared by the centralized client and the
// decentralized gossip peer: the generation plan, one structured buffer per
// generation (a StructuredDecoder, which both decodes and recodes), optional
// null-key verification, and the random-generation upload policy.
//
// The stream's GenerationStructure arrives with the plan (join accept / slot
// grant) and governs every hop of the data plane:
//   - absorb validates wire frames against the *stream admission* rule
//     (coding/wire.hpp deserialize_stream): v2 strips must match the
//     structure exactly, v1 dense rows are admitted on dense and banded
//     streams (recoding densifies banded codes), never on overlapped ones;
//   - the buffers run the policy select_stream_policy() picks — dense
//     elimination for dense/banded streams, overlap propagation for
//     overlapped ones;
//   - recoding mixes straight from those buffers: structure-preserving where
//     the mathematics allows (overlapped classes) and densifying where it
//     does not (bands), so an upload is always a packet a downstream
//     StreamState admits.

#include <cstdint>
#include <optional>
#include <vector>

#include "coding/generation.hpp"
#include "coding/null_keys.hpp"
#include "coding/structure.hpp"
#include "coding/structured_decoder.hpp"
#include "coding/wire.hpp"
#include "gf/gf256.hpp"
#include "sim/packet_pool.hpp"
#include "util/rng.hpp"

namespace ncast::node {

/// The receive/recode state for one content object.
class StreamState {
 public:
  bool initialized() const { return !decoders_.empty(); }
  const coding::GenerationPlan& plan() const { return plan_; }
  /// The stream's coding structure; meaningful only when initialized().
  const coding::GenerationStructure& structure() const { return structure_; }
  bool verification_enabled() const { return !keys_.empty(); }

  /// Sets up buffers from a stream plan. Returns false on nonsense geometry,
  /// on a `gen_count` that disagrees with the plan recomputed from
  /// `data_size` (a lying or corrupted announcement would otherwise silently
  /// build the wrong buffer count and the stream could never reassemble),
  /// and on a structure whose g is not the plan's generation size.
  /// `structure` defaults to dense. The buffers run the cheapest policy
  /// sound for relayed traffic (select_stream_policy) — the only sound
  /// choice, since every buffer also recodes.
  bool initialize(
      std::uint64_t data_size, std::uint32_t gen_count, std::uint16_t gen_size,
      std::uint16_t symbols,
      std::optional<coding::GenerationStructure> structure = std::nullopt) {
    if (gen_count == 0 || gen_size == 0 || symbols == 0) return false;
    const auto plan = coding::plan_generations(data_size, gen_size, symbols);
    if (plan.generations != gen_count) return false;
    const coding::GenerationStructure s =
        structure ? *structure : coding::GenerationStructure::dense(gen_size);
    if (s.g != gen_size) return false;
    plan_ = plan;
    structure_ = s;
    const auto policy = coding::select_stream_policy(structure_);
    decoders_.clear();
    decoders_.reserve(gen_count);
    for (std::uint32_t g = 0; g < gen_count; ++g) {
      decoders_.emplace_back(g, structure_, symbols, policy);
    }
    return true;
  }

  /// Installs null keys from serialized bundles (all-or-nothing).
  void install_keys(const std::vector<std::vector<std::uint8_t>>& bundles) {
    keys_.clear();
    if (bundles.size() != decoders_.size()) return;
    std::vector<coding::NullKeySet<gf::Gf256>> parsed;
    for (const auto& bundle : bundles) {
      auto keys = coding::NullKeySet<gf::Gf256>::deserialize(bundle);
      if (!keys) return;
      parsed.push_back(std::move(*keys));
    }
    keys_ = std::move(parsed);
  }

  /// Absorbs a wire-encoded packet into its generation's buffer. Returns
  /// false if the packet was dropped (malformed, wrong shape for the
  /// stream's structure or symbol count, out of range, or failed
  /// verification).
  bool absorb_wire(const std::vector<std::uint8_t>& wire) {
    const auto packet = coding::deserialize_stream<gf::Gf256>(wire, structure_);
    if (!packet) return false;
    if (packet->generation >= decoders_.size()) return false;
    if (packet->payload.size() != plan_.symbols) return false;
    if (!keys_.empty() && !verify_against_keys(*packet)) return false;
    decoders_[packet->generation].absorb(*packet);
    return true;
  }

  /// A wire-encoded recoded packet from a uniformly random generation with
  /// data (random, not round-robin: deterministic rotations over a static
  /// edge order can starve descendants of whole generations). nullopt when
  /// every buffer is empty. Dense and banded streams upload dense rows
  /// (version-1 wire); overlapped streams upload class packets (version 2),
  /// so the structure's sparsity survives every hop.
  std::optional<std::vector<std::uint8_t>> emit_wire(Rng& rng) {
    std::size_t with_data = 0;
    for (const auto& d : decoders_) {
      if (d.rank() > 0) ++with_data;
    }
    if (with_data == 0) return std::nullopt;
    std::size_t pick = rng.below(with_data);
    for (const auto& d : decoders_) {
      if (d.rank() == 0 || pick-- != 0) continue;
      // The pooled packet recycles its buffers across emissions; only the
      // wire serialization below allocates.
      sim::PacketLease<gf::Gf256> scratch(pool_);
      if (d.emit_into(*scratch, rng)) {
        return coding::serialize_stream(*scratch, structure_);
      }
      return std::nullopt;
    }
    return std::nullopt;
  }

  std::size_t rank() const {
    std::size_t r = 0;
    for (const auto& d : decoders_) r += d.rank();
    return r;
  }

  bool decoded() const {
    if (decoders_.empty()) return false;
    for (const auto& d : decoders_) {
      if (!d.complete()) return false;
    }
    return true;
  }

  /// Reconstructed content; requires decoded().
  std::vector<std::uint8_t> data() const {
    std::vector<std::vector<std::vector<std::uint8_t>>> decoded_gens;
    decoded_gens.reserve(decoders_.size());
    for (const auto& d : decoders_) {
      decoded_gens.push_back(d.source_packets());
    }
    return coding::reassemble(decoded_gens, plan_);
  }

 private:
  /// Null keys verify dense coefficient rows (validity commutes with
  /// recoding, so a key set generated from the source packets vouches for
  /// every linear combination — but only in dense coordinates). Compact
  /// strips are scatter-expanded first, cyclically, exactly as the dense
  /// decoder would absorb them.
  bool verify_against_keys(const coding::CodedPacket<gf::Gf256>& p) {
    if (p.coeffs.size() == structure_.g) {
      return keys_[p.generation].verify(p);
    }
    const std::size_t g = structure_.g;
    verify_scratch_.generation = p.generation;
    verify_scratch_.band_offset = 0;
    verify_scratch_.class_id = 0;
    verify_scratch_.coeffs.assign(g, 0);
    for (std::size_t j = 0; j < p.coeffs.size(); ++j) {
      const std::size_t i =
          p.band_offset + j < g ? p.band_offset + j : p.band_offset + j - g;
      verify_scratch_.coeffs[i] = p.coeffs[j];
    }
    verify_scratch_.payload.assign(p.payload.begin(), p.payload.end());
    return keys_[p.generation].verify(verify_scratch_);
  }

  coding::GenerationPlan plan_;
  coding::GenerationStructure structure_ =
      coding::GenerationStructure::dense(1);
  std::vector<coding::StructuredDecoder<gf::Gf256>> decoders_;  // decode + recode
  std::vector<coding::NullKeySet<gf::Gf256>> keys_;
  sim::PacketPool<gf::Gf256> pool_;  // recycled emit_wire() scratch packets
  coding::CodedPacket<gf::Gf256> verify_scratch_;  // key-check expansion row
};

}  // namespace ncast::node
