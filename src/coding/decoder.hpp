#pragma once
// Generation decoder: incremental Gaussian elimination over the augmented
// matrix [coefficients | payload]. Maintains the basis in reduced form so
// that (a) innovation of an incoming packet is detected in O(rank * width)
// and (b) once the rank reaches g the original packets are read off directly.
//
// The basis is also the node's recoding buffer — the "mixing at each clip"
// of the curtain model: emit_into() sends a fresh random combination of the
// rows received so far (practical network coding: a relay's buffer is its
// decoding matrix, reduced form being information-equivalent to the raw
// packets and bounded by g rows).
//
// Hot-path memory discipline: the basis rows live in one contiguous arena
// (allocated at construction, one row per possible pivot plus a scratch row)
// and absorb() builds the candidate directly in the arena's next free slot,
// so absorbing a packet performs zero heap allocations and zero row copies;
// emit_into() mixes straight from the arena rows into the caller's packet
// buffers. See linalg/reduced_basis.hpp for the elimination core and
// tests/test_codec_alloc.cpp for the enforcement.

#include <algorithm>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <vector>

#include "coding/packet.hpp"
#include "linalg/reduced_basis.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ncast::coding {

/// Decoder (and recoding buffer) for one generation.
template <typename Field>
class Decoder {
 public:
  using value_type = typename Field::value_type;
  using Packet = CodedPacket<Field>;

  Decoder(std::uint32_t generation, std::size_t generation_size, std::size_t symbols)
      : generation_(generation),
        g_(generation_size),
        symbols_(symbols),
        basis_(generation_size + symbols, generation_size),
        probe_(generation_size) {
    if (g_ == 0 || symbols_ == 0) {
      throw std::invalid_argument("Decoder: zero generation size or symbols");
    }
  }

  std::uint32_t generation() const { return generation_; }
  std::size_t generation_size() const { return g_; }
  std::size_t symbols() const { return symbols_; }
  std::size_t rank() const { return basis_.rank(); }
  bool complete() const { return rank() == g_; }

  /// Packets ever offered to absorb() on this decoder instance.
  std::uint64_t packets_received() const { return received_; }
  /// Packets that increased the rank. Always innovative + redundant ==
  /// received; the redundant count includes malformed/stray rejects.
  std::uint64_t packets_innovative() const { return innovative_; }
  std::uint64_t packets_redundant() const { return received_ - innovative_; }

  // ncast:hot-begin — per-packet absorb/innovation probes and recode mixing:
  // no allocation, no throw (stray packets are data, not errors).

  /// Consumes a packet; returns true iff it was innovative.
  /// Packets from other generations or with wrong shape are rejected
  /// (returns false) rather than throwing, since in a network simulation
  /// stray packets are data, not programming errors.
  bool absorb(const Packet& p) {
    if (p.generation != generation_ || p.coeffs.size() != g_ ||
        p.payload.size() != symbols_) {
      return reject();
    }
    return absorb_row(p.coeffs.data(), p.payload.data());
  }

  /// Absorbs a pre-validated raw row: `coeffs` (g entries) and `payload`
  /// (symbols entries) already laid out by the caller. The full-width case
  /// of absorb_strip().
  bool absorb_row(const value_type* coeffs, const value_type* payload) {
    return absorb_strip(0, coeffs, g_, payload);
  }

  /// Absorbs a pre-validated coefficient strip: `width` <= g entries, entry
  /// j multiplying column cyclic_index(offset, j, g) (offset < g), plus
  /// `symbols` payload entries. Counted like absorb(); the structured
  /// decoder routes every packet here (band offset / class routing and
  /// shape checks happen there). A complete decoder rejects in O(1) —
  /// nothing is innovative at full rank, and relays keep receiving long
  /// after they decode.
  bool absorb_strip(std::size_t offset, const value_type* coeffs,
                    std::size_t width, const value_type* payload) {
    if (complete()) return reject();
    ++received_;
    reg().received.inc();
    obs::ScopeTimer timer(reg().absorb_ns);
    // Working row: [coeffs | payload] scattered straight into the basis's
    // scratch row — the arena slot the row will occupy if it proves
    // innovative.
    value_type* r = basis_.scratch_row();
    if (width < g_) std::fill(r, r + g_, value_type{0});
    for (std::size_t j = 0; j < width; ++j) {
      r[cyclic_index(offset, j, g_)] = coeffs[j];
    }
    std::copy(payload, payload + symbols_, r + g_);
    if (!basis_.absorb()) {
      reg().redundant.inc();
      return false;  // not innovative
    }
    ++innovative_;
    reg().innovative.inc();
    return true;
  }

  /// Absorbs the unit row e_col with the given payload — a decoded source
  /// packet injected as side information (the structured decoder hands
  /// decoded boundary packets to neighboring classes this way). Not counted
  /// as a received packet: it is internal propagation, not network traffic.
  bool absorb_unit(std::size_t col, const value_type* payload) {
    value_type* r = basis_.scratch_row();
    std::fill(r, r + g_, value_type{0});
    r[col] = value_type{1};
    std::copy(payload, payload + symbols_, r + g_);
    return basis_.absorb();
  }

  /// Would this packet be innovative? (No state change.)
  bool is_innovative(const Packet& p) const {
    if (p.generation != generation_ || p.coeffs.size() != g_ ||
        p.payload.size() != symbols_) {
      return false;
    }
    // Only the coefficient part matters for innovation; reduce a g-wide probe.
    std::copy(p.coeffs.begin(), p.coeffs.end(), probe_.begin());
    for (std::size_t i = 0; i < basis_.rank(); ++i) {
      const std::size_t piv = basis_.pivot(i);
      const value_type f = probe_[piv];
      if (f != value_type{0}) {
        Field::region_madd(probe_.data() + piv, basis_.row(i) + piv, f,
                           g_ - piv);
      }
    }
    for (std::size_t j = 0; j < g_; ++j) {
      if (probe_[j] != value_type{0}) return true;
    }
    return false;
  }

  /// Writes a random combination of everything received so far into `out`,
  /// reusing its buffers (zero heap allocations once they are sized).
  /// Returns false (and leaves `out` unspecified) if nothing has been
  /// received — a node with an empty buffer stays silent.
  bool emit_into(Packet& out, Rng& rng) const {
    const std::size_t r = basis_.rank();
    if (r == 0) return false;
    static obs::Histogram& emit_ns = obs::metrics().histogram("recoder.emit_ns");
    obs::ScopeTimer timer(emit_ns);

    // Draw the mixing coefficients first (into the probe row: r <= g). A
    // degenerate all-zero draw is not retried against the basis: one
    // uniformly random position is forced to a uniformly random nonzero value
    // instead, so the fix-up costs O(1) and the emitted packet still carries
    // information.
    value_type* mix = probe_.data();
    bool nonzero = false;
    for (std::size_t i = 0; i < r; ++i) {
      mix[i] = static_cast<value_type>(rng.below(Field::order));
      nonzero = nonzero || mix[i] != value_type{0};
    }
    if (!nonzero) {
      mix[rng.below(r)] = static_cast<value_type>(1 + rng.below(Field::order - 1));
    }

    out.generation = generation_;
    out.band_offset = 0;  // dense emission; clears a recycled packet's strip
    out.class_id = 0;
    out.coeffs.assign(g_, value_type{0});
    out.payload.assign(symbols_, value_type{0});
    for (std::size_t i = 0; i < r; ++i) {
      const value_type c = mix[i];
      if (c == value_type{0}) continue;
      const value_type* row = basis_.row(i);  // [coeffs | payload]
      Field::region_madd(out.coeffs.data(), row, c, g_);
      Field::region_madd(out.payload.data(), row + g_, c, symbols_);
    }
    return true;
  }

  // ncast:hot-end

  /// Emits a random combination of everything received so far, or nullopt if
  /// nothing has been received. Allocates a fresh packet; loops that care
  /// about allocation churn use emit_into().
  std::optional<Packet> emit(Rng& rng) const {
    Packet out;
    if (!emit_into(out, rng)) return std::nullopt;
    return out;
  }

  /// True iff source packet `index` is already individually recoverable,
  /// i.e. the unit vector e_index lies in the received row space. Because
  /// the basis is kept fully reduced, that is the case exactly when the row
  /// pivoting on `index` has no other nonzero coefficient. This enables
  /// progressive delivery (e.g. starting playback) before full rank.
  bool recoverable(std::size_t index) const {
    if (index >= g_) throw std::out_of_range("Decoder::recoverable");
    const std::size_t i = basis_.row_of_pivot(index);
    return i != Basis::npos && row_is_unit(i);
  }

  /// Number of source packets already individually recoverable. One pass over
  /// the basis: a row contributes exactly when its coefficient part is a unit
  /// vector.
  std::size_t recoverable_count() const {
    std::size_t n = 0;
    for (std::size_t i = 0; i < basis_.rank(); ++i) n += row_is_unit(i) ? 1 : 0;
    return n;
  }

  /// Payload of the row pivoting on `index`, without copying; requires
  /// recoverable(index). The structured decoder reads decoded boundary
  /// packets through this in its propagation loop (no per-symbol copies).
  const value_type* recovered_payload(std::size_t index) const {
    if (index >= g_) throw std::out_of_range("Decoder::recovered_payload");
    const std::size_t i = basis_.row_of_pivot(index);
    if (i == Basis::npos || !row_is_unit(i)) {
      throw std::logic_error("Decoder::recovered_payload: not yet recoverable");
    }
    return basis_.row(i) + g_;
  }

  /// Recovered source packet `index`; requires only recoverable(index), so
  /// it also works mid-decode on systematic or lucky packets.
  std::vector<value_type> recover_packet(std::size_t index) const {
    if (index >= g_) throw std::out_of_range("Decoder::recover_packet");
    const std::size_t i = basis_.row_of_pivot(index);
    if (i == Basis::npos || !row_is_unit(i)) {
      throw std::logic_error("Decoder::recover_packet: not yet recoverable");
    }
    const value_type* r = basis_.row(i);
    return {r + g_, r + g_ + symbols_};
  }

  /// Recovered source packet `index`; requires complete().
  std::vector<value_type> source_packet(std::size_t index) const {
    if (!complete()) throw std::logic_error("Decoder::source_packet: rank deficient");
    if (index >= g_) throw std::out_of_range("Decoder::source_packet");
    // Basis is in RREF with g pivots, so the row whose pivot is `index` holds
    // exactly e_index in the coefficient part and the source payload beyond.
    const std::size_t i = basis_.row_of_pivot(index);
    if (i == Basis::npos) throw std::logic_error("Decoder::source_packet: pivot missing");
    const value_type* r = basis_.row(i);
    return {r + g_, r + g_ + symbols_};
  }

  /// All recovered source packets in order; requires complete().
  std::vector<std::vector<value_type>> source_packets() const {
    std::vector<std::vector<value_type>> out;
    out.reserve(g_);
    for (std::size_t i = 0; i < g_; ++i) out.push_back(source_packet(i));
    return out;
  }

 private:
  using Basis = linalg::ReducedBasis<Field>;

  /// Counts a packet turned away without elimination (received, redundant).
  bool reject() {
    ++received_;
    reg().received.inc();
    reg().redundant.inc();
    return false;
  }

  /// True iff basis row `i`'s coefficient part is exactly e_pivot(i).
  bool row_is_unit(std::size_t i) const {
    const value_type* r = basis_.row(i);
    const std::size_t piv = basis_.pivot(i);
    for (std::size_t j = 0; j < g_; ++j) {
      if (j != piv && r[j] != value_type{0}) return false;
    }
    return true;
  }

  // Process-wide decode counters and the elimination-time probe, shared by
  // every Decoder instance (the registry guarantees stable references).
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
  std::size_t g_;
  std::size_t symbols_;
  std::uint64_t received_ = 0;    // per-instance; backs packets_received()
  std::uint64_t innovative_ = 0;  // per-instance; backs packets_innovative()
  Basis basis_;                         // RREF of [coeffs | payload], arena-backed
  // Reusable g-entry row: the is_innovative() probe and the emit_into() mix.
  mutable std::vector<value_type> probe_;
};

}  // namespace ncast::coding
