#pragma once
// Overlap-aware decoder: one dense sub-decoder per overlapping class, with
// decoded boundary packets passed between neighboring classes.
//
// Under an overlapping structure every coded packet mixes one class of
// `class_size` consecutive source packets, so each class decodes like a small
// dense generation — absorb cost is O(class_rank * (class_size + symbols))
// instead of O(rank * (g + symbols)). The overlap is what makes the classes
// cooperate: when a class pins down a source packet that its neighbors also
// cover, the decoded packet is injected into those neighbors as a unit row
// (side information), cheapening their elimination and reducing the packets
// they need from the network. That propagation cascades: an injected unit
// row can complete a neighbor, whose newly decoded boundary packets then
// propagate further.
//
// With a single class (class_size == g, overlap == 0) there is nothing to
// propagate and this decoder is the dense Decoder bit-for-bit — the parity
// tests pin that down.
//
// Recoding is class-local: emit_into() mixes one class's rows, which keeps
// the structure exactly (a recoded packet is a valid class packet that a
// downstream OverlapDecoder absorbs unchanged). Because the class decoders
// are the relay's buffers, boundary packets that propagation placed in a
// class are forwarded too, not just what arrived for that class.

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "coding/decoder.hpp"
#include "coding/packet.hpp"
#include "coding/structure.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"

namespace ncast::coding {

/// Decoder (and recoding buffer) for one generation under an
/// overlapping-class structure.
template <typename Field>
class OverlapDecoder {
 public:
  using value_type = typename Field::value_type;
  using Packet = CodedPacket<Field>;

  OverlapDecoder(std::uint32_t generation, const GenerationStructure& structure,
                 std::size_t symbols)
      : generation_(generation), structure_(structure), symbols_(symbols) {
    structure_.validate();
    if (structure_.kind != StructureKind::kOverlapped) {
      throw std::invalid_argument(
          "OverlapDecoder: requires an overlapping structure");
    }
    if (symbols_ == 0) throw std::invalid_argument("OverlapDecoder: zero symbols");
    const std::size_t classes = structure_.num_classes();
    std::size_t total_width = 0;
    classes_.reserve(classes);
    for (std::size_t c = 0; c < classes; ++c) {
      classes_.emplace_back(generation, structure_.class_width(c), symbols);
      total_width += structure_.class_width(c);
    }
    done_.assign(structure_.g, 0);
    // Each stack push corresponds to one innovative row gained somewhere, so
    // total pushes per absorb() are bounded by the total class rank capacity.
    stack_.reserve(total_width + 1);
  }

  std::uint32_t generation() const { return generation_; }
  const GenerationStructure& structure() const { return structure_; }
  std::size_t generation_size() const { return structure_.g; }
  std::size_t symbols() const { return symbols_; }
  std::size_t num_classes() const { return classes_.size(); }
  const Decoder<Field>& class_decoder(std::size_t c) const { return classes_[c]; }

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

  /// Lower bound on the information gathered toward the g unknowns: summed
  /// class ranks minus the unit rows injected by propagation (those restate
  /// information a class already had globally). An approximation — overlap
  /// columns learned independently by two classes from the *network* are
  /// still double-counted until propagation collapses them.
  std::size_t rank() const {
    std::size_t sum = 0;
    for (const auto& d : classes_) sum += d.rank();
    const std::size_t r = sum > injected_ ? sum - injected_ : 0;
    return r < structure_.g ? r : structure_.g;
  }

  std::uint64_t packets_received() const { return received_; }
  std::uint64_t packets_innovative() const { return innovative_; }
  std::uint64_t packets_redundant() const { return received_ - innovative_; }

  // ncast:hot-begin — per-packet routed absorb + propagation drain and
  // class-local recode: no allocation (buffers preallocated at
  // construction), no throw.

  /// Consumes a packet; returns true iff it was innovative for its class.
  /// Malformed placements (class id out of range, wrong offset/width) and
  /// stray generations are rejected as data. Metric counting for routed
  /// packets happens inside the class decoder (Decoder::absorb_row), so the
  /// process-wide decoder.* counters see exactly one event per packet.
  bool absorb(const Packet& p) {
    ++received_;
    if (p.generation != generation_ || p.payload.size() != symbols_ ||
        !structure_.matches_packet(p.band_offset, p.coeffs.size(),
                                   p.class_id)) {
      reg().received.inc();
      reg().redundant.inc();
      return false;
    }
    const std::size_t k = p.class_id;
    if (!classes_[k].absorb_row(p.coeffs.data(), p.payload.data())) {
      return false;
    }
    ++innovative_;
    propagate(k);
    return true;
  }

  /// Writes a random recombination of one uniformly chosen class with data
  /// into `out`, stamped with that class's placement. Returns false if
  /// nothing has been received. No draw is spent when only one class has
  /// data, so the single-class case is the dense Decoder's stream.
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
      throw std::logic_error("OverlapDecoder::source_packet: rank deficient");
    }
    if (index >= structure_.g) {
      throw std::out_of_range("OverlapDecoder::source_packet");
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
  /// True iff source packet `j` is individually recoverable in some owner.
  bool decoded(std::size_t j) const {
    if (done_[j]) return true;
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
  std::size_t injected_ = 0;            // successful absorb_unit injections
  std::vector<Decoder<Field>> classes_;  // one dense sub-decoder per class
  std::vector<std::uint8_t> done_;       // column already propagated?
  std::vector<std::size_t> stack_;       // propagation worklist (preallocated)
};

}  // namespace ncast::coding
