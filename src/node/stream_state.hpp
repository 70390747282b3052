#pragma once
// Per-endpoint stream state: the one owner of a content object's data plane
// at every endpoint. At the origin (ServerNode, a source GossipPeer) it holds
// the FileEncoder and the null-key bundles generated from the content; at a
// relay (ClientNode, every other GossipPeer) the FileDecoder (one structured
// buffer per generation, which both decodes and recodes) and the key bundles
// it verified. Either way it is the one writer (announce) and the one reader
// (initialize) of the stream announcement a join accept or slot grant
// carries, it keeps the endpoint's out-link table (who it feeds, and which
// generations each child has finished), and its serve step sends every
// upload (a data packet, or a keepalive while nothing is left to send).
//
// A child answers every accepted frame of a generation it holds in full
// with a have (receive), and the parent marks that generation on the
// out-link (apply_have), so its draws for that child skip it. The child
// keeps no record of what it answered: the next frame of the generation
// re-sends a lost have.
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
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "coding/file_codec.hpp"
#include "coding/generation.hpp"
#include "coding/null_keys.hpp"
#include "coding/structure.hpp"
#include "coding/wire.hpp"
#include "gf/gf256.hpp"
#include "node/message.hpp"
#include "node/transport.hpp"
#include "util/rng.hpp"

namespace ncast::node {

/// An out-link's key, carried in each upload's `column`: the column it
/// continues (server, clients), or the child's address (trackerless peer).
using LinkId = overlay::ColumnId;

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
    for (std::size_t g = 0; null_keys > 0 && g < source_->generations(); ++g) {
      const auto packets =
          coding::generation_packets(source_->data(), source_->plan(), g);
      const auto keys = coding::NullKeySet<gf::Gf256>::generate(
          static_cast<std::uint32_t>(g), packets, null_keys, key_rng);
      key_bundles_.push_back(keys.serialize());
    }
  }

  bool is_source() const { return source_ != nullptr; }
  bool initialized() const { return is_source() || buffer_.has_value(); }
  /// The stream's generation plan; requires initialized().
  const coding::GenerationPlan& plan() const {
    return source_ ? source_->plan() : buffer_.value().plan();
  }
  /// The stream's coding structure; requires initialized().
  const coding::GenerationStructure& structure() const {
    return source_ ? source_->structure() : buffer_.value().structure();
  }
  /// True when announce() hands out key bundles: the origin generated them,
  /// or a relay installed and checks them.
  bool verification_enabled() const { return !key_bundles_.empty(); }

  /// Writes the stream announcement — plan, structure descriptor and null-key
  /// bundles — into the body of a join accept or slot grant. Requires
  /// initialized().
  void announce(Message& m) const {
    MessageBody& b = m.mutable_body();
    b.data_size = plan().data_size;
    b.gen_count = static_cast<std::uint32_t>(plan().generations);
    b.gen_size = static_cast<std::uint16_t>(plan().generation_size);
    b.symbols = static_cast<std::uint16_t>(plan().symbols);
    b.structure_kind = static_cast<std::uint8_t>(structure().kind);
    b.band_width = static_cast<std::uint16_t>(structure().band_width);
    b.structure_wrap = structure().wrap ? 1 : 0;
    b.class_overlap = static_cast<std::uint16_t>(structure().overlap);
    b.key_bundles = key_bundles_;
  }

  /// Reads an announcement: rebuilds the structure from the untrusted
  /// descriptor, sets up the buffers, then installs the key bundles. Returns
  /// false, leaving the state as it was, on a message with no body or a
  /// nonsense structure or plan; malformed key bundles only leave
  /// verification off.
  bool initialize(const Message& m) {
    const MessageBody* b = m.body();
    if (b == nullptr) return false;
    const auto structure =
        coding::make_structure(b->structure_kind, b->gen_size, b->band_width,
                               b->structure_wrap != 0, b->class_overlap);
    if (!structure || !initialize(b->data_size, b->gen_count, b->gen_size,
                                  b->symbols, *structure)) {
      return false;
    }
    install_keys(b->key_bundles);
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
    buffer_.emplace(plan, s);
    return true;
  }

  /// Installs null keys from serialized bundles (all-or-nothing). The
  /// bundles are kept, so announce() forwards exactly what was verified.
  void install_keys(const std::vector<std::vector<std::uint8_t>>& bundles) {
    keys_.clear();
    key_bundles_.clear();
    if (!buffer_ || bundles.size() != buffer_->plan().generations) return;
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
    return absorb_frame(wire).has_value();
  }

  /// The receive step of a relay `self`: absorbs the data frame `m` and, if
  /// the frame's generation is complete after the absorb, answers its
  /// sender on `net` with a have — `column` the frame's link key, `subject`
  /// the generation. Every such frame is answered, so the next frame of a
  /// generation repairs a lost have. Returns false, answering nothing, if
  /// the frame was dropped (see absorb_wire).
  bool receive(Address self, const Message& m, Transport& net) {
    const auto gen = absorb_frame(m.wire);
    if (!gen) return false;
    if (buffer_->decoder(*gen).complete()) {
      Message have;
      have.type = MessageType::kHave;
      have.from = self;
      have.to = m.from;
      have.column = m.column;
      have.subject = *gen;
      net.send(std::move(have));
    }
    return true;
  }

  /// Applies a child's have: serve() stops drawing generation `m.subject`
  /// on out-link `m.column`. A have is untrusted wire input, so it applies
  /// only while that link feeds its sender and only to a generation of the
  /// plan; anything else is ignored.
  void apply_have(const Message& m) {
    if (!initialized() || m.subject >= plan().generations) return;
    const auto it = links_.find(m.column);
    if (it != links_.end() && it->second.child == m.from) {
      it->second.have.insert(m.subject);
    }
  }

  /// A wire-encoded coded packet of a generation outside `skip`. The origin
  /// encodes a uniformly random such generation; a relay recodes a
  /// uniformly random such generation with data (random, not round-robin:
  /// deterministic rotations over a static edge order can starve
  /// descendants of whole generations). Returns nullopt when no generation
  /// qualifies. Dense and banded streams relay dense rows (version-1 wire);
  /// overlapped streams relay class packets (version 2), so the structure's
  /// sparsity survives every hop.
  std::optional<std::vector<std::uint8_t>> emit_wire(
      Rng& rng, const coding::GenerationMask& skip = {}) {
    const bool emitted =
        source_ ? source_->emit_into(scratch_, rng, skip)
                : buffer_ && buffer_->emit_into(scratch_, rng, skip);
    if (!emitted) return std::nullopt;
    // The scratch packet recycles its buffers across emissions; only the
    // wire serialization allocates.
    return coding::serialize_stream(scratch_, structure());
  }

  /// Starts (or redirects) the out-link `link`: serve() uploads to `child`
  /// on it from the next tick on, every generation open to its draws (so a
  /// new child needs no handshake).
  void feed(LinkId link, Address child) { links_[link] = OutLink{child, {}}; }
  /// Stops the out-link `link` (no-op if this endpoint does not feed it).
  void unfeed(LinkId link) { links_.erase(link); }
  /// Stops every out-link.
  void unfeed_all() { links_.clear(); }
  /// The out-link table: link -> the child it feeds, in serve order.
  std::map<LinkId, Address> links() const {
    std::map<LinkId, Address> children;
    for (const auto& [link, out] : links_) {
      children.emplace_hint(children.end(), link, out.child);
    }
    return children;
  }

  /// The serve step of every endpoint: one upload from `from` per out-link,
  /// in link order, sent on `net`; each skips the generations its child has
  /// reported finished.
  void serve(Address from, Transport& net, Rng& rng) {
    for (const auto& [link, out] : links_) {
      net.send(upload(from, out.child, link, rng, out.have));
    }
  }

  /// The message `from` sends `to` on `link` each serve tick — data of a
  /// generation outside `skip` from emit_wire(), or a keepalive while there
  /// is nothing to send, so a deep child does not mistake a slow bootstrap
  /// (or a finished stream) for a dead parent.
  Message upload(Address from, Address to, LinkId link, Rng& rng,
                 const coding::GenerationMask& skip = {}) {
    Message out;
    out.from = from;
    out.to = to;
    out.column = link;
    if (auto wire = emit_wire(rng, skip)) {
      out.type = MessageType::kData;
      out.wire = std::move(*wire);
    } else {
      out.type = MessageType::kKeepalive;
    }
    return out;
  }

  /// Innovative packets held, summed over generations (0 at the origin).
  std::size_t rank() const { return buffer_ ? buffer_->total_rank() : 0; }

  /// The origin holds the content; a relay has full rank everywhere.
  bool decoded() const {
    return source_ != nullptr || (buffer_ && buffer_->complete());
  }

  /// The content (reconstructed at a relay); requires decoded().
  std::vector<std::uint8_t> data() const {
    return source_ ? source_->data() : buffer_.value().data();
  }

  /// The origin's content, without a copy; requires is_source().
  const std::vector<std::uint8_t>& source_data() const {
    return source_->data();
  }

 private:
  /// One out-link: the child it feeds and the generations that child has
  /// reported finished, which its uploads no longer draw.
  struct OutLink {
    Address child;
    coding::GenerationMask have;
  };

  /// absorb_wire's step: the absorbed packet's generation, or nullopt if the
  /// packet was dropped.
  std::optional<std::uint32_t> absorb_frame(
      const std::vector<std::uint8_t>& wire) {
    if (!buffer_) return std::nullopt;
    const auto packet =
        coding::deserialize_stream<gf::Gf256>(wire, buffer_->structure());
    if (!packet) return std::nullopt;
    if (packet->generation >= buffer_->plan().generations) return std::nullopt;
    if (packet->payload.size() != buffer_->plan().symbols) return std::nullopt;
    if (!keys_.empty() && !verify_against_keys(*packet)) return std::nullopt;
    buffer_->absorb(*packet);
    return packet->generation;
  }

  /// Null keys verify dense coefficient rows (validity commutes with
  /// recoding, so a key set generated from the source packets vouches for
  /// every linear combination — but only in dense coordinates). Compact
  /// strips are scatter-expanded first, by the same cyclic placement rule
  /// the buffers absorb them with.
  bool verify_against_keys(const coding::CodedPacket<gf::Gf256>& p) {
    const std::size_t g = buffer_->structure().g;
    if (p.coeffs.size() == g) return keys_[p.generation].verify(p);
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

  /// Relay only, by value: one buffer per generation (decode + recode).
  std::optional<coding::FileDecoder> buffer_;
  std::vector<coding::NullKeySet<gf::Gf256>> keys_;  // parsed key_bundles_ (relay)
  /// Serialized null-key sets, one per generation: generated at the origin,
  /// verified at a relay; empty when the stream is unkeyed.
  std::vector<std::vector<std::uint8_t>> key_bundles_;
  /// Origin only, behind a pointer so relays carry one null word.
  std::unique_ptr<const coding::FileEncoder> source_;
  /// Who this endpoint feeds: link -> child and its haves, served in key
  /// order.
  std::map<LinkId, OutLink> links_;
  /// Recycled packet for emit_wire() and for the key check's dense
  /// expansion; each use overwrites every field and ends before the call
  /// returns, so the two never overlap.
  coding::CodedPacket<gf::Gf256> scratch_;
};

}  // namespace ncast::node
