// Codec frontier — throughput vs complexity across generation structures.
//
// Sweeps generation size x band width x overlap over the structured codec
// (coding/structure.hpp, structured_decoder.hpp, band_decoder.hpp) and
// measures, per configuration: overhead (redundant-packet fraction until
// complete), mean per-packet absorb cost, full-decode latency, and the
// coefficient bytes a packet carries on the wire. Each row's two timings are
// the fastest of kRowPasses passes over the seeds, each pass pooled over
// them (the gate's own statistic), so one preempted absorb cannot inflate a
// row or change which banded configuration the gate times; the packet and
// overhead columns are fixed by the seeds. This is the trade the
// sparse-coding papers promise ("Effects of the Generation Size and Overlap
// on Throughput and Complexity in Randomized Linear Network Coding"; "Sparse
// Network Coding with Overlapping Classes"): banded and overlapped
// structures give up a little overhead to make decoding much cheaper, which
// is what lets generation sizes grow past the dense O(g^2) wall.
//
// Correctness gates in the exit code:
//   - every configuration must complete and decode bit-exactly;
//   - in smoke mode with observability compiled in, the best banded
//     configuration at g = 256 whose overhead is within +0.05 of dense must
//     absorb at least 3x faster than dense (the ROADMAP item-1 claim). The
//     two are timed in interleaved repetitions and each side's fastest
//     repetition counts: preemption and co-runners only ever add time, so
//     the ratio compares the codecs, not the moments they happened to run
//     at. The committed baseline pins this via the perf gate too
//     (notes:band_speedup_g256).

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "coding/band_decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/structure.hpp"
#include "coding/structured_decoder.hpp"
#include "coding/wire.hpp"
#include "gf/dispatch.hpp"
#include "gf/gf256.hpp"
#include "metrics_session.hpp"
#include "obs/metrics.hpp"
#include "util/rng.hpp"
#include "util/table.hpp"

using namespace ncast;
using Gf = gf::Gf256;

namespace {

struct Config {
  std::string label;
  coding::GenerationStructure structure;
};

struct RunResult {
  std::size_t sent = 0;
  std::size_t coeff_entries = 0;  // summed strip lengths of sent packets
  double absorb_ns = 0.0;         // summed per-absorb wall time
  double finalize_ns = 0.0;       // back-substitution + payload read-off
  bool complete = false;
  bool verified = false;
};

std::vector<Config> make_configs(std::size_t g, bool smoke) {
  using coding::GenerationStructure;
  std::vector<Config> out;
  out.push_back({"dense", GenerationStructure::dense(g)});
  out.push_back({"banded w=g/8", GenerationStructure::banded(g, g / 8)});
  out.push_back({"banded w=g/4", GenerationStructure::banded(g, g / 4)});
  out.push_back(
      {"overlapped c=g/4 v=c/8", GenerationStructure::overlapping(
                                     g, g / 4, g / 32 ? g / 32 : 1)});
  if (!smoke) {
    out.push_back(
        {"banded w=g/4 wrap", GenerationStructure::banded(g, g / 4, true)});
    out.push_back(
        {"overlapped c=g/4 v=c/4", GenerationStructure::overlapping(
                                       g, g / 4, g / 16 ? g / 16 : 1)});
  }
  return out;
}

/// Encoder-direct non-wrap banded traffic decodes on the band decoder;
/// every other structure on the relay buffer (one class spanning g for
/// dense and wrap-banded, per-class propagation for overlapped).
bool band_decoded(const coding::GenerationStructure& s) {
  return s.kind == coding::StructureKind::kBanded && !s.wrap;
}

/// The decoder column: which elimination a configuration runs.
const char* decoder_name(const coding::GenerationStructure& s) {
  if (band_decoded(s)) return "band";
  return s.kind == coding::StructureKind::kOverlapped ? "overlap" : "dense";
}

/// One encode-until-decoded run through a `Dec`. The encoder emits
/// structure-conformant packets.
template <typename Dec>
RunResult run_one(const coding::GenerationStructure& s, std::size_t symbols,
                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::uint8_t> flat(s.g * symbols);
  for (auto& b : flat) b = static_cast<std::uint8_t>(rng.below(256));

  const coding::SourceEncoder<Gf> enc(0, s, flat, symbols);
  Dec dec(0, s, symbols);
  coding::CodedPacket<Gf> p;

  RunResult r;
  const std::size_t cap = 50 * s.g;  // far beyond any sane overhead
  while (!dec.complete() && r.sent < cap) {
    enc.emit_into(p, rng);
    ++r.sent;
    r.coeff_entries += p.coeffs.size();
    obs::Stopwatch sw;
    dec.absorb(p);
    r.absorb_ns += sw.elapsed_ns();
  }
  r.complete = dec.complete();
  if (!r.complete) return r;

  obs::Stopwatch fin;
  const auto decoded = dec.source_packets();
  r.finalize_ns = fin.elapsed_ns();

  r.verified = true;
  for (std::size_t i = 0; i < s.g && r.verified; ++i) {
    for (std::size_t j = 0; j < symbols; ++j) {
      if (decoded[i][j] != flat[i * symbols + j]) {
        r.verified = false;
        break;
      }
    }
  }
  return r;
}

/// One configuration's run on whichever decoder band_decoded() picks.
RunResult run_config(const coding::GenerationStructure& s, std::size_t symbols,
                     std::uint64_t seed) {
  return band_decoded(s)
             ? run_one<coding::BandDecoder<Gf>>(s, symbols, seed)
             : run_one<coding::StructuredDecoder<Gf>>(s, symbols, seed);
}

/// The sweep's seed for `seed` at generation size `g`.
std::uint64_t run_seed(std::uint64_t seed, std::size_t g) {
  return seed * 2 + g;
}

/// One configuration run once per seed: packet and coefficient totals
/// (fixed by the seeds) and the timed totals.
struct Pass {
  double sent = 0, coeffs = 0, absorb_ns = 0, decode_ns = 0;
  bool ok = true;

  /// Per-absorb cost pooled over the seeds: the statistic the table, the
  /// notes and the gate compare.
  double mean_absorb_ns() const { return sent > 0 ? absorb_ns / sent : 0.0; }
};

Pass run_pass(const coding::GenerationStructure& s, std::size_t symbols,
              const std::vector<std::uint64_t>& seeds) {
  Pass p;
  for (const std::uint64_t seed : seeds) {
    const RunResult r = run_config(s, symbols, run_seed(seed, s.g));
    p.ok = p.ok && r.complete && r.verified;
    p.sent += static_cast<double>(r.sent);
    p.coeffs += static_cast<double>(r.coeff_entries);
    p.absorb_ns += r.absorb_ns;
    p.decode_ns += r.absorb_ns + r.finalize_ns;
  }
  return p;
}

std::string note_key(const std::string& prefix, std::size_t g,
                     const std::string& label) {
  std::string key = prefix + "_g" + std::to_string(g) + "_" + label;
  for (auto& c : key) {
    if (c == ' ' || c == '=' || c == '/') c = '_';
  }
  return key;
}

}  // namespace

int main() {
  const bool smoke = bench::smoke();
  const std::vector<std::size_t> g_list =
      smoke ? std::vector<std::size_t>{64, 256}
            : std::vector<std::size_t>{64, 256, 512};
  const std::size_t symbols = smoke ? 256 : 1024;
  const std::vector<std::uint64_t> seeds =
      smoke ? std::vector<std::uint64_t>{0xF401, 0xF402}
            : std::vector<std::uint64_t>{0xF401, 0xF402, 0xF403};

  bench::MetricsSession session("codec_frontier");
  session.param("symbols", symbols);
  session.param("trials", seeds.size());
  session.param("seed", seeds.front());
  session.param("g_max", g_list.back());
  session.param("gf_tier", gf::tier_name(gf::active_tier()));

  std::printf(
      "\n=== codec frontier: structure x decoder ===\n"
      "Overhead vs per-packet absorb cost vs full-decode latency, for dense,\n"
      "banded, and overlapping-class generation structures (GF(2^8),\n"
      "%zu-byte payloads, %zu trials per point).\n\n",
      symbols, seeds.size());

  // "policy" names the decoder column (decoder_name); the header matches
  // the committed baseline's table.
  Table table({"g", "structure", "policy", "packets", "overhead",
               "absorb_ns", "decode_us", "coeffs/pkt", "wire_bytes"});

  constexpr int kRowPasses = 3;
  bool all_ok = true;
  double dense_overhead_g256 = 0.0;
  double best_band_absorb_g256 = 0.0;
  std::string best_band_label;
  coding::GenerationStructure best_band_structure;

  for (const std::size_t g : g_list) {
    for (const auto& cfg : make_configs(g, smoke)) {
      const Pass first = run_pass(cfg.structure, symbols, seeds);
      double mean_absorb = first.mean_absorb_ns();
      double decode_ns = first.decode_ns;
      all_ok = all_ok && first.ok;
      for (int pass = 1; pass < kRowPasses; ++pass) {
        const Pass p = run_pass(cfg.structure, symbols, seeds);
        all_ok = all_ok && p.ok;
        mean_absorb = std::min(mean_absorb, p.mean_absorb_ns());
        decode_ns = std::min(decode_ns, p.decode_ns);
      }
      const double trials = static_cast<double>(seeds.size());
      const double mean_sent = first.sent / trials;
      const double overhead = mean_sent / static_cast<double>(g) - 1.0;
      const double mean_decode_us = decode_ns / trials / 1000.0;
      const double mean_coeffs =
          first.sent > 0 ? first.coeffs / first.sent : 0.0;
      const double wire_bytes = static_cast<double>(
          coding::wire_size_structured<Gf>(
              static_cast<std::size_t>(mean_coeffs + 0.5), symbols));

      table.add_row({std::to_string(g), cfg.label,
                     decoder_name(cfg.structure),
                     fmt(mean_sent, 1), fmt(overhead, 3), fmt(mean_absorb, 0),
                     fmt(mean_decode_us, 1), fmt(mean_coeffs, 1),
                     fmt(wire_bytes, 0)});
      session.note(note_key("overhead", g, cfg.label), overhead);
      session.note(note_key("absorb_ns", g, cfg.label), mean_absorb);

      if (g == 256) {
        if (cfg.label == "dense") {
          dense_overhead_g256 = overhead;
        } else if (cfg.label.rfind("banded", 0) == 0 &&
                   !cfg.structure.wrap &&
                   overhead <= dense_overhead_g256 + 0.05) {
          if (best_band_absorb_g256 == 0.0 ||
              mean_absorb < best_band_absorb_g256) {
            best_band_absorb_g256 = mean_absorb;
            best_band_label = cfg.label;
            best_band_structure = cfg.structure;
          }
        }
      }
    }
  }

  table.print();
  session.add_table("frontier", table);

  // The ROADMAP item-1 headline: banded absorb at g = 256, at overhead
  // comparable to dense (within +0.05), must be >= 3x cheaper than dense.
  // Dense and the chosen banded configuration are timed again in
  // interleaved repetitions (each one pass over the sweep's seeds), and the
  // gate takes the ratio of each side's fastest.
  constexpr int kGateRepetitions = 10;
  double dense_fastest = 0.0, band_fastest = 0.0;
  const auto fastest_into = [&](double& best,
                                const coding::GenerationStructure& s) {
    const double mean = run_pass(s, symbols, seeds).mean_absorb_ns();
    if (best == 0.0 || mean < best) best = mean;
  };
  if (!best_band_label.empty()) {
    const auto dense = coding::GenerationStructure::dense(256);
    for (int rep = 0; rep < kGateRepetitions; ++rep) {
      fastest_into(dense_fastest, dense);
      fastest_into(band_fastest, best_band_structure);
    }
  }
  const double speedup = band_fastest > 0.0 ? dense_fastest / band_fastest
                                            : 0.0;
  session.note("band_speedup_g256", speedup);
  session.note("all_configs_decoded", all_ok);

  const bool obs_on = NCAST_OBS_ENABLED != 0;
  std::printf(
      "\nReading: at g = 256, the cheapest comparable-overhead banded config\n"
      "(%s) absorbs %.1fx faster than dense (%.0f vs %.0f ns, fastest of %d\n"
      "interleaved repetitions each). Overlapped classes trade more overhead\n"
      "for cheap per-class decoding; wrap-around bands fix the edge overhead\n"
      "of plain bands but must decode dense.\n",
      best_band_label.empty() ? "none" : best_band_label.c_str(), speedup,
      band_fastest, dense_fastest, kGateRepetitions);

  if (!all_ok) return 1;
  if (smoke && obs_on && speedup < 3.0) {
    std::fprintf(stderr,
                 "FAIL: banded speedup %.2fx < 3x at g=256 (dense %.0f ns vs "
                 "banded %.0f ns)\n",
                 speedup, dense_fastest, band_fastest);
    return 1;
  }
  return 0;
}
