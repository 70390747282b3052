#pragma once
// Band decoder: pivot-compact elimination for dense and banded (non-wrap)
// generation structures over linalg::BandBasis — the encoder-direct
// decoder.
//
// Where the dense Decoder pays O(rank * (g + symbols)) per absorb against a
// fully reduced basis, this decoder pays O(band * (band + symbols)): rows
// store only their active band, elimination is forward-only within the band
// window, and full back-substitution is deferred to one payload-only pass at
// completion (see linalg/band_basis.hpp for the invariant that makes this
// sound). Innovation verdicts are exact, so on the same packet sequence this
// decoder's innovative/redundant decisions — and its decoded output — are
// bit-identical to Decoder's.
//
// It admits only encoder-shaped strips and does not recode, so it never
// sits on a relay: a relay's buffer is a StructuredDecoder
// (structured_decoder.hpp), which also absorbs the full-width rows that
// recoding makes of a banded stream. The caller picks one of the two.

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "coding/packet.hpp"
#include "coding/structure.hpp"
#include "linalg/band_basis.hpp"
#include "obs/metrics.hpp"

namespace ncast::coding {

/// Decoder for one generation under a dense or banded (non-wrap) structure.
/// Wrap-around bands break the contiguous-window invariant; decode those
/// with a StructuredDecoder.
template <typename Field>
class BandDecoder {
 public:
  using value_type = typename Field::value_type;
  using Packet = CodedPacket<Field>;

  BandDecoder(std::uint32_t generation, const GenerationStructure& structure,
              std::size_t symbols)
      : generation_(generation),
        structure_(structure),
        symbols_(symbols),
        basis_(structure.g, symbols, structure.band_width) {
    structure_.validate();
    if (symbols_ == 0) throw std::invalid_argument("BandDecoder: zero symbols");
    if (structure_.kind == StructureKind::kOverlapped ||
        (structure_.kind == StructureKind::kBanded && structure_.wrap)) {
      throw std::invalid_argument(
          "BandDecoder: requires a dense or non-wrap banded structure");
    }
  }

  std::uint32_t generation() const { return generation_; }
  const GenerationStructure& structure() const { return structure_; }
  std::size_t generation_size() const { return structure_.g; }
  std::size_t symbols() const { return symbols_; }
  std::size_t rank() const { return basis_.rank(); }
  bool complete() const { return basis_.complete(); }

  std::uint64_t packets_received() const { return received_; }
  std::uint64_t packets_innovative() const { return innovative_; }
  std::uint64_t packets_redundant() const { return received_ - innovative_; }

  // ncast:hot-begin — per-packet banded absorb: no allocation, no throw
  // (stray packets are data, not errors).

  /// Consumes a packet; returns true iff it was innovative. Packets from
  /// other generations or whose placement doesn't fit the structure are
  /// rejected (returns false) rather than throwing — stray packets are data.
  bool absorb(const Packet& p) {
    obs::ScopeTimer timer(reg().absorb_ns);
    ++received_;
    reg().received.inc();
    if (p.generation != generation_ || p.payload.size() != symbols_ ||
        !structure_.matches_packet(p.band_offset, p.coeffs.size(),
                                   p.class_id)) {
      reg().redundant.inc();
      return false;
    }
    if (!basis_.absorb(p.band_offset, p.coeffs.data(), p.coeffs.size(),
                       p.payload.data())) {
      reg().redundant.inc();
      return false;
    }
    ++innovative_;
    reg().innovative.inc();
    return true;
  }

  // ncast:hot-end

  /// Recovered source packet `index`; requires complete(). The first call
  /// after completion runs the deferred back-substitution pass.
  std::vector<value_type> source_packet(std::size_t index) const {
    if (!complete()) {
      throw std::logic_error("BandDecoder::source_packet: rank deficient");
    }
    if (index >= structure_.g) {
      throw std::out_of_range("BandDecoder::source_packet");
    }
    basis_.back_substitute();
    const value_type* r = basis_.payload_row(index);
    return {r, r + symbols_};
  }

  /// All recovered source packets in order; requires complete().
  std::vector<std::vector<value_type>> source_packets() const {
    std::vector<std::vector<value_type>> out;
    out.reserve(structure_.g);
    for (std::size_t i = 0; i < structure_.g; ++i) {
      out.push_back(source_packet(i));
    }
    return out;
  }

 private:
  // Same process-wide decode counters as Decoder: a banded absorb is still a
  // decoder absorb as far as telemetry and perf gates are concerned.
  struct Instrumentation {
    obs::Counter& received = obs::metrics().counter("decoder.packets_received");
    obs::Counter& innovative = obs::metrics().counter("decoder.packets_innovative");
    obs::Counter& redundant = obs::metrics().counter("decoder.packets_redundant");
    obs::Histogram& absorb_ns = obs::metrics().histogram("decoder.absorb_ns");
  };
  static Instrumentation& reg() {
    static Instrumentation instr;
    return instr;
  }

  std::uint32_t generation_;
  GenerationStructure structure_;
  std::size_t symbols_;
  std::uint64_t received_ = 0;
  std::uint64_t innovative_ = 0;
  mutable linalg::BandBasis<Field> basis_;  // mutable: deferred back-subst.
};

}  // namespace ncast::coding
