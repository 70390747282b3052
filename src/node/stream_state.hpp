#pragma once
// Per-endpoint stream state: the one owner of a content object's data plane
// at every endpoint. At the origin (ServerNode, a source GossipPeer) it holds
// the FileEncoder and the null-key bundles generated from the content; at a
// relay (ClientNode, every other GossipPeer) the generation plan, one
// structured buffer per generation (a StructuredDecoder, which both decodes
// and recodes), and the key bundles it verified. Either way it is the one
// writer (announce) and the one reader (initialize) of the stream
// announcement a join accept or slot grant carries, and it builds every
// upload (upload: a data packet, or a keepalive while the buffers are empty).
//
// The stream's GenerationStructure arrives with the plan (join accept / slot
// grant) and governs every hop of the data plane:
//   - absorb validates wire frames against the *stream admission* rule
//     (coding/wire.hpp deserialize_stream): v2 strips must match the
//     structure exactly, v1 dense rows are admitted on dense and banded
//     streams (recoding densifies banded codes), never on overlapped ones;
//   - each buffer keeps one dense Decoder per class of the structure: one
//     class spanning g for dense and banded streams, band strips scattered
//     into it; one per class, with boundary propagation, for overlapped ones;
//   - recoding mixes straight from those buffers: structure-preserving where
//     the mathematics allows (overlapped classes) and densifying where it
//     does not (bands), so an upload is always a packet a downstream
//     StreamState admits.

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "coding/file_codec.hpp"
#include "coding/generation.hpp"
#include "coding/null_keys.hpp"
#include "coding/structure.hpp"
#include "coding/structured_decoder.hpp"
#include "coding/wire.hpp"
#include "gf/gf256.hpp"
#include "node/message.hpp"
#include "util/rng.hpp"

namespace ncast::node {

/// The origin or receive/recode state for one content object.
class StreamState {
 public:
  /// Makes this the stream's origin: segments `content` into generations of
  /// `generation_size` packets of `symbols` bytes under `structure` and,
  /// with `null_keys` > 0, draws that many null keys per generation from
  /// `key_rng` (nothing is drawn otherwise) for announce() to hand out.
  /// Call once, on a fresh state.
  void initialize_source(std::vector<std::uint8_t> content,
                         std::size_t generation_size, std::size_t symbols,
                         const coding::StructureSpec& structure,
                         std::size_t null_keys, Rng& key_rng) {
    source_ = std::make_unique<const coding::FileEncoder>(
        std::move(content), generation_size, symbols, structure);
    plan_ = source_->plan();
    structure_ = source_->structure();
    for (std::size_t g = 0; null_keys > 0 && g < plan_.generations; ++g) {
      const auto packets =
          coding::generation_packets(source_->data(), plan_, g);
      const auto keys = coding::NullKeySet<gf::Gf256>::generate(
          static_cast<std::uint32_t>(g), packets, null_keys, key_rng);
      key_bundles_.push_back(keys.serialize());
    }
  }

  bool is_source() const { return source_ != nullptr; }
  bool initialized() const { return is_source() || !decoders_.empty(); }
  const coding::GenerationPlan& plan() const { return plan_; }
  /// The stream's coding structure; meaningful only when initialized().
  const coding::GenerationStructure& structure() const { return structure_; }
  /// True when announce() hands out key bundles: the origin generated them,
  /// or a relay installed and checks them.
  bool verification_enabled() const { return !key_bundles_.empty(); }

  /// Writes the stream announcement — plan, structure descriptor and null-key
  /// bundles — into a join accept or slot grant. Requires initialized().
  void announce(Message& m) const {
    m.data_size = plan_.data_size;
    m.gen_count = static_cast<std::uint32_t>(plan_.generations);
    m.gen_size = static_cast<std::uint16_t>(plan_.generation_size);
    m.symbols = static_cast<std::uint16_t>(plan_.symbols);
    m.structure_kind = static_cast<std::uint8_t>(structure_.kind);
    m.band_width = static_cast<std::uint16_t>(structure_.band_width);
    m.structure_wrap = structure_.wrap ? 1 : 0;
    m.class_overlap = static_cast<std::uint16_t>(structure_.overlap);
    m.key_bundles = key_bundles_;
  }

  /// Reads an announcement: rebuilds the structure from the untrusted
  /// descriptor, sets up the buffers, then installs the key bundles. Returns
  /// false, leaving the state as it was, on a nonsense structure or plan;
  /// malformed key bundles only leave verification off.
  bool initialize(const Message& m) {
    const auto structure =
        coding::make_structure(m.structure_kind, m.gen_size, m.band_width,
                               m.structure_wrap != 0, m.class_overlap);
    if (!structure || !initialize(m.data_size, m.gen_count, m.gen_size,
                                  m.symbols, *structure)) {
      return false;
    }
    install_keys(m.key_bundles);
    return true;
  }

  /// Sets up buffers from a stream plan. Returns false on nonsense geometry,
  /// on a `gen_count` that disagrees with the plan recomputed from
  /// `data_size` (a lying or corrupted announcement would otherwise silently
  /// build the wrong buffer count and the stream could never reassemble),
  /// and on a structure whose g is not the plan's generation size.
  /// `structure` defaults to dense.
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
    decoders_.clear();
    decoders_.reserve(gen_count);
    for (std::uint32_t g = 0; g < gen_count; ++g) {
      decoders_.emplace_back(g, structure_, symbols);
    }
    return true;
  }

  /// Installs null keys from serialized bundles (all-or-nothing). The
  /// bundles are kept, so announce() forwards exactly what was verified.
  void install_keys(const std::vector<std::vector<std::uint8_t>>& bundles) {
    keys_.clear();
    key_bundles_.clear();
    if (bundles.size() != decoders_.size()) return;
    std::vector<coding::NullKeySet<gf::Gf256>> parsed;
    for (const auto& bundle : bundles) {
      auto keys = coding::NullKeySet<gf::Gf256>::deserialize(bundle);
      if (!keys) return;
      parsed.push_back(std::move(*keys));
    }
    keys_ = std::move(parsed);
    key_bundles_ = bundles;
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

  /// A wire-encoded coded packet. The origin encodes a uniformly random
  /// generation; a relay recodes a uniformly random generation with data
  /// (random, not round-robin: deterministic rotations over a static edge
  /// order can starve descendants of whole generations), and returns
  /// nullopt while every buffer is empty. Dense and banded streams relay
  /// dense rows (version-1 wire); overlapped streams relay class packets
  /// (version 2), so the structure's sparsity survives every hop.
  std::optional<std::vector<std::uint8_t>> emit_wire(Rng& rng) {
    if (source_) {
      const auto gen = rng.below(source_->generations());
      source_->emit_into(gen, scratch_, rng);
    } else if (!recode_into(scratch_, rng)) {
      return std::nullopt;
    }
    // The scratch packet recycles its buffers across emissions; only the
    // wire serialization allocates.
    return coding::serialize_stream(scratch_, structure_);
  }

  /// The upload step of every endpoint: the message `from` sends `to` on
  /// `column` each serve tick — data from emit_wire(), or a keepalive while
  /// there is nothing to send, so a deep child does not mistake a slow
  /// bootstrap for a dead parent.
  Message upload(Address from, Address to, overlay::ColumnId column,
                 Rng& rng) {
    Message out;
    out.from = from;
    out.to = to;
    out.column = column;
    if (auto wire = emit_wire(rng)) {
      out.type = MessageType::kData;
      out.wire = std::move(*wire);
    } else {
      out.type = MessageType::kKeepalive;
    }
    return out;
  }

  std::size_t rank() const {
    std::size_t r = 0;
    for (const auto& d : decoders_) r += d.rank();
    return r;
  }

  /// The origin holds the content; a relay has full rank everywhere.
  bool decoded() const {
    if (source_) return true;
    if (decoders_.empty()) return false;
    for (const auto& d : decoders_) {
      if (!d.complete()) return false;
    }
    return true;
  }

  /// The content (reconstructed at a relay); requires decoded().
  std::vector<std::uint8_t> data() const {
    if (source_) return source_->data();
    std::vector<std::vector<std::vector<std::uint8_t>>> decoded_gens;
    decoded_gens.reserve(decoders_.size());
    for (const auto& d : decoders_) {
      decoded_gens.push_back(d.source_packets());
    }
    return coding::reassemble(decoded_gens, plan_);
  }

  /// The origin's content, without a copy; requires is_source().
  const std::vector<std::uint8_t>& source_data() const {
    return source_->data();
  }

 private:
  /// Recodes a uniformly random generation with data into `p`; false when
  /// every buffer is empty.
  bool recode_into(coding::CodedPacket<gf::Gf256>& p, Rng& rng) const {
    std::size_t with_data = 0;
    for (const auto& d : decoders_) {
      if (d.rank() > 0) ++with_data;
    }
    if (with_data == 0) return false;
    std::size_t pick = rng.below(with_data);
    for (const auto& d : decoders_) {
      if (d.rank() == 0 || pick-- != 0) continue;
      return d.emit_into(p, rng);
    }
    return false;
  }

  /// Null keys verify dense coefficient rows (validity commutes with
  /// recoding, so a key set generated from the source packets vouches for
  /// every linear combination — but only in dense coordinates). Compact
  /// strips are scatter-expanded first, by the same cyclic placement rule
  /// the buffers absorb them with.
  bool verify_against_keys(const coding::CodedPacket<gf::Gf256>& p) {
    if (p.coeffs.size() == structure_.g) {
      return keys_[p.generation].verify(p);
    }
    const std::size_t g = structure_.g;
    scratch_.generation = p.generation;
    scratch_.band_offset = 0;
    scratch_.class_id = 0;
    scratch_.coeffs.assign(g, 0);
    for (std::size_t j = 0; j < p.coeffs.size(); ++j) {
      scratch_.coeffs[coding::cyclic_index(p.band_offset, j, g)] = p.coeffs[j];
    }
    scratch_.payload.assign(p.payload.begin(), p.payload.end());
    return keys_[p.generation].verify(scratch_);
  }

  coding::GenerationPlan plan_;
  coding::GenerationStructure structure_ =
      coding::GenerationStructure::dense(1);
  std::vector<coding::StructuredDecoder<gf::Gf256>> decoders_;  // decode + recode
  std::vector<coding::NullKeySet<gf::Gf256>> keys_;  // parsed key_bundles_ (relay)
  /// Serialized null-key sets, one per generation: generated at the origin,
  /// verified at a relay; empty when the stream is unkeyed.
  std::vector<std::vector<std::uint8_t>> key_bundles_;
  /// Origin only, behind a pointer so relays carry one null word.
  std::unique_ptr<const coding::FileEncoder> source_;
  /// Recycled packet for emit_wire() and for the key check's dense
  /// expansion; each use overwrites every field and ends before the call
  /// returns, so the two never overlap.
  coding::CodedPacket<gf::Gf256> scratch_;
};

}  // namespace ncast::node
