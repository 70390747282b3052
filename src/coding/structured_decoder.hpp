#pragma once
// The relay buffer of one generation: one dense Decoder per class of the
// generation structure, which both decodes and recodes.
//
// Following the overlapping-classes model ("Sparse Network Coding with
// Overlapping Classes"; "Effects of the Generation Size and Overlap on
// Throughput and Complexity in Randomized Linear Network Coding"), a
// generation is a set of classes and every coded packet mixes one of them
// (GenerationStructure's class geometry):
//
//   dense, banded  one class spanning all g columns. A band strip, wrapping
//                  or not, is scattered cyclically straight into the class's
//                  scratch row (Decoder::absorb_strip), so this is plain
//                  Gaussian elimination — sound for every band placement and
//                  for the full-width rows relays emit on banded streams.
//   overlapped     one class per structure class, absorb cost
//                  O(class_rank * (class_size + symbols)). When a class pins
//                  down a source packet its neighbors also cover, the decoded
//                  packet is injected into those neighbors as a unit row
//                  (side information); classes that gain rank are
//                  re-examined, so the propagation cascades.
//
// Recoding (emit_into) mixes the rows of one class with data:
//
//   dense       the Decoder's own mix, draw for draw.
//   banded      a full-width row: mixing bands at different offsets widens
//               the support, so recoding densifies banded codes (a known
//               property of sparse network codes). The stream admission
//               rule (GenerationStructure::admits_packet) lets those rows
//               back in downstream.
//   overlapped  a class packet: class-local mixing preserves the structure,
//               so its sparsity survives every hop. Boundary packets that
//               propagation placed in a class are forwarded too.
//
// BandDecoder (band_decoder.hpp) is the encoder-direct alternative for
// non-wrap banded traffic: cheaper elimination, but it neither admits relay
// rows nor recodes. The caller chooses between the two.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "coding/decoder.hpp"
#include "coding/packet.hpp"
#include "coding/structure.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ncast::coding {

/// Decoder (and recoding buffer) for one generation under any structure.
template <typename Field>
class StructuredDecoder {
 public:
  using value_type = typename Field::value_type;
  using Packet = CodedPacket<Field>;

  StructuredDecoder(std::uint32_t generation,
                    const GenerationStructure& structure, std::size_t symbols)
      : generation_(generation), structure_(structure), symbols_(symbols) {
    structure_.validate();
    if (symbols_ == 0) {
      throw std::invalid_argument("StructuredDecoder: zero symbols");
    }
    const std::size_t classes = structure_.num_classes();
    std::size_t total_width = 0;
    classes_.reserve(classes);
    for (std::size_t c = 0; c < classes; ++c) {
      classes_.emplace_back(generation, structure_.class_width(c), symbols);
      total_width += structure_.class_width(c);
    }
    // One class has nothing to propagate, so it carries no propagation
    // state. Otherwise each stack push corresponds to one innovative row
    // gained somewhere, so pushes per absorb() are bounded by the total
    // class width.
    if (classes > 1) {
      done_.assign(structure_.g, 0);
      stack_.reserve(total_width + 1);
    }
  }

  std::uint32_t generation() const { return generation_; }
  const GenerationStructure& structure() const { return structure_; }
  std::size_t generation_size() const { return structure_.g; }
  std::size_t symbols() const { return symbols_; }
  std::size_t num_classes() const { return classes_.size(); }
  const Decoder<Field>& class_decoder(std::size_t c) const {
    return classes_[c];
  }

  bool complete() const {
    for (const auto& d : classes_) {
      if (!d.complete()) return false;
    }
    return true;
  }

  /// Source packets already individually pinned down somewhere. Exact.
  std::size_t decoded_count() const {
    std::size_t n = 0;
    for (std::size_t j = 0; j < structure_.g; ++j) n += decoded(j) ? 1 : 0;
    return n;
  }

  /// Rank toward the g unknowns; exact with one class. With several it is a
  /// lower bound: summed class ranks minus the unit rows injected by
  /// propagation (those restate information a class already had). Overlap
  /// columns learned independently by two classes from the *network* are
  /// still double-counted until propagation collapses them.
  std::size_t rank() const {
    std::size_t sum = 0;
    for (const auto& d : classes_) sum += d.rank();
    const std::size_t r = sum > injected_ ? sum - injected_ : 0;
    return r < structure_.g ? r : structure_.g;
  }

  /// Packets ever offered to absorb(); innovative + redundant == received,
  /// the redundant count including malformed/stray rejects.
  std::uint64_t packets_received() const { return received_; }
  std::uint64_t packets_innovative() const { return innovative_; }
  std::uint64_t packets_redundant() const { return received_ - innovative_; }

  // ncast:hot-begin — per-packet routed absorb + propagation drain and
  // class-local recode: no allocation (buffers preallocated at
  // construction), no throw.

  /// Consumes a packet; returns true iff it was innovative for its class.
  /// Admission is the stream rule (admits_packet): strips must match the
  /// structure, and a banded stream also admits the full-width rows its
  /// relays emit. Malformed placements and stray generations are rejected
  /// as data. Routed packets are counted inside the class decoder
  /// (Decoder::absorb_strip), so the process-wide decoder.* counters see
  /// exactly one event per packet.
  bool absorb(const Packet& p) {
    ++received_;
    if (p.generation != generation_ || p.payload.size() != symbols_ ||
        !structure_.admits_packet(p.band_offset, p.coeffs.size(),
                                  p.class_id)) {
      reg().received.inc();
      reg().redundant.inc();
      return false;
    }
    const std::size_t c = p.class_id;
    if (!classes_[c].absorb_strip(p.band_offset - structure_.class_begin(c),
                                  p.coeffs.data(), p.coeffs.size(),
                                  p.payload.data())) {
      return false;
    }
    ++innovative_;
    if (!done_.empty()) propagate(c);
    return true;
  }

  /// Writes a random recombination of one uniformly chosen class with data
  /// into `out`, stamped with that class's placement. Returns false if
  /// nothing has been received. No draw is spent when only one class has
  /// data, so the one-class case is Decoder::emit_into draw for draw.
  bool emit_into(Packet& out, Rng& rng) const {
    std::size_t with_data = 0;
    for (const auto& d : classes_) with_data += d.rank() > 0 ? 1 : 0;
    if (with_data == 0) return false;
    std::size_t pick = with_data > 1 ? rng.below(with_data) : 0;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
      if (classes_[c].rank() == 0 || pick-- != 0) continue;
      if (!classes_[c].emit_into(out, rng)) return false;
      out.band_offset = static_cast<std::uint16_t>(structure_.class_begin(c));
      out.class_id = static_cast<std::uint16_t>(c);
      return true;
    }
    return false;
  }

 private:
  /// Drains the propagation worklist starting from class `k`: any source
  /// packet newly pinned down in a multiply-covered column is injected into
  /// its other owner classes; classes that gain rank are re-examined.
  void propagate(std::size_t k) {
    stack_.push_back(k);  // ncast:allow(hot_path.alloc): capacity reserved at construction (total class width)
    while (!stack_.empty()) {
      const std::size_t c = stack_.back();
      stack_.pop_back();
      const std::size_t begin = structure_.class_begin(c);
      const std::size_t width = structure_.class_width(c);
      for (std::size_t j = begin; j < begin + width; ++j) {
        if (done_[j]) continue;
        const std::size_t first = structure_.first_class_of(j);
        const std::size_t last = structure_.last_class_of(j);
        if (first == last) continue;  // single-owner column: nothing to share
        if (!classes_[c].recoverable(j - begin)) continue;
        done_[j] = 1;
        const value_type* payload = classes_[c].recovered_payload(j - begin);
        for (std::size_t o = first; o <= last; ++o) {
          if (o == c) continue;
          if (classes_[o].absorb_unit(j - structure_.class_begin(o), payload)) {
            ++injected_;
            stack_.push_back(o);  // ncast:allow(hot_path.alloc): capacity reserved at construction (total class width)
          }
        }
      }
    }
  }

  // ncast:hot-end

 public:
  /// Recovered source packet `index`; requires complete().
  std::vector<value_type> source_packet(std::size_t index) const {
    if (!complete()) {
      throw std::logic_error("StructuredDecoder::source_packet: rank deficient");
    }
    if (index >= structure_.g) {
      throw std::out_of_range("StructuredDecoder::source_packet");
    }
    const std::size_t c = structure_.first_class_of(index);
    return classes_[c].recover_packet(index - structure_.class_begin(c));
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
  /// True iff source packet `j` is individually recoverable in some owner
  /// class (recoverability never regresses, so a propagated column stays
  /// recoverable where it was found).
  bool decoded(std::size_t j) const {
    const std::size_t first = structure_.first_class_of(j);
    const std::size_t last = structure_.last_class_of(j);
    for (std::size_t c = first; c <= last; ++c) {
      if (classes_[c].recoverable(j - structure_.class_begin(c))) return true;
    }
    return false;
  }

  // Early-reject counting shares the process-wide decoder.* counters with
  // Decoder (routed packets are counted by the class decoder itself).
  struct Instrumentation {
    obs::Counter& received = obs::metrics().counter("decoder.packets_received");
    obs::Counter& redundant = obs::metrics().counter("decoder.packets_redundant");
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
  std::size_t injected_ = 0;             // successful absorb_unit injections
  std::vector<Decoder<Field>> classes_;  // one dense buffer per class
  std::vector<std::uint8_t> done_;       // column already propagated?
  std::vector<std::size_t> stack_;       // propagation worklist (preallocated)
};

}  // namespace ncast::coding
