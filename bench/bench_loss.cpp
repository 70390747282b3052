// E21 — ergodic failures (Section 2) and the Avalanche rationale [13]:
// under packet loss, coded transfer needs ~g/(1-q) receptions (every
// surviving packet is useful), while uncoded chunking pays the coupon
// collector tax (~g ln g even with NO loss) because only the *right* chunk
// helps. This is the per-link mechanism behind the paper's "such bandwidth
// reductions can be treated as temporary failures".

#include <cmath>
#include <cstdio>

#include "bench_common.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "gf/gf256.hpp"
#include "util/stats.hpp"

using namespace ncast;

namespace {

/// Rounds for a single receiver to collect a generation over one lossy link.
std::size_t coded_rounds(std::size_t g, double q, Rng& rng) {
  std::vector<std::vector<std::uint8_t>> source(g, std::vector<std::uint8_t>(4));
  for (auto& row : source) {
    for (auto& b : row) b = static_cast<std::uint8_t>(rng.below(256));
  }
  coding::SourceEncoder<gf::Gf256> enc(0, source);
  coding::Decoder<gf::Gf256> dec(0, g, 4);
  std::size_t rounds = 0;
  while (!dec.complete()) {
    ++rounds;
    if (rng.chance(q)) continue;  // lost
    dec.absorb(enc.emit(rng));
  }
  return rounds;
}

/// Same link, but the sender pushes uniformly random *uncoded* chunks (the
/// sender does not know which the receiver has — the stateless BitTorrent-
/// without-maps strawman the Avalanche paper argues against).
std::size_t uncoded_rounds(std::size_t g, double q, Rng& rng) {
  std::vector<bool> have(g, false);
  std::size_t remaining = g, rounds = 0;
  while (remaining > 0) {
    ++rounds;
    if (rng.chance(q)) continue;
    const auto c = rng.below(g);
    if (!have[c]) {
      have[c] = true;
      --remaining;
    }
  }
  return rounds;
}

}  // namespace

int main() {
  bench::MetricsSession session("loss");
  session.param("k", "n/a (single link)");
  session.param("d", "n/a");
  session.param("n", 200);  // trials per cell
  session.param("seed", std::uint64_t{0xE210});
  session.param("generation_size", 32);

  bench::banner(
      "E21: packet loss — coding vs coupon collecting (Sections 1/2, [13])",
      "One lossy link, generation of g = 32 chunks, 200 trials per cell.\n"
      "Coded: any surviving packet is innovative. Uncoded: a random chunk\n"
      "helps only if it is new.");

  const std::size_t g = 32;
  Table table({"loss q", "coded rounds", "ideal g/(1-q)", "uncoded rounds",
               "uncoded/coded", "coupon bound g*H(g)/(1-q)"});
  const double harmonic = [] {
    double h = 0;
    for (std::size_t i = 1; i <= 32; ++i) h += 1.0 / static_cast<double>(i);
    return h;
  }();

  for (const double q : {0.0, 0.1, 0.3, 0.5}) {
    RunningStats coded, uncoded;
    Rng rng(0xE210 + static_cast<std::uint64_t>(q * 100));
    for (int trial = 0; trial < 200; ++trial) {
      coded.add(static_cast<double>(coded_rounds(g, q, rng)));
      uncoded.add(static_cast<double>(uncoded_rounds(g, q, rng)));
    }
    table.add_row({fmt(q, 1), fmt(coded.mean(), 1),
                   fmt(static_cast<double>(g) / (1.0 - q), 1),
                   fmt(uncoded.mean(), 1), fmt(uncoded.mean() / coded.mean(), 2),
                   fmt(static_cast<double>(g) * harmonic / (1.0 - q), 1)});
  }
  table.print();
  session.add_table("coded_vs_uncoded", table);

  std::printf(
      "\nReading: coded transfer sits on the information-theoretic line\n"
      "g/(1-q); uncoded random chunking pays ~H(g) = %.2fx more at every\n"
      "loss rate (the coupon-collector tax), which compounds across overlay\n"
      "hops. This is why the curtain carries coded packets and why ergodic\n"
      "failures in Section 2 are a rate headache, not a correctness one —\n"
      "see also Broadcast.ErgodicPacketLossOnlySlowsThingsDown in the tests.\n",
      harmonic);

  // E21b — burstiness is free (for coding): at the same mean loss rate, a
  // bursty Gilbert-Elliott channel and an iid Bernoulli channel decode in
  // (nearly) the same time, because any surviving coded packet is useful —
  // it does not matter *which* ones the burst ate. Run through the unified
  // scenario kernel over a full curtain overlay.
  bench::banner(
      "E21b: iid vs bursty loss at equal mean rate (scenario kernel)",
      "k = 8, d = 3, N = 60, g = 32. Bernoulli(q) vs Gilbert-Elliott with\n"
      "stationary loss q (mean burst ~2.2 packets). Mean decode time over\n"
      "nodes, packet-level simulation.");
  {
    const auto m = bench::grow_overlay(8, 3, 60, 0xE215);
    Table burst({"mean loss q", "bernoulli decode time", "GE decode time",
                 "bernoulli lost", "GE lost", "decoded% (both)"});
    for (const double q : {0.1, 0.3}) {
      // Matched stationary rate: pi_bad = enter/(enter+exit) = q with
      // loss_bad = 1; exit 0.45 gives mean bad-run length ~2.2.
      const double exit_bad = 0.45;
      const double enter_bad = q * exit_bad / (1.0 - q);

      bench::ScenarioBuilder iid(0xE216);
      iid.generation(32, 4).fixed_latency(0.25).horizon(400.0).bernoulli_loss(q);
      bench::ScenarioBuilder bursty(0xE216);
      bursty.generation(32, 4).fixed_latency(0.25).horizon(400.0)
          .gilbert_elliott_loss(enter_bad, exit_bad);

      const auto a = iid.run(m);
      const auto b = bursty.run(m);
      RunningStats ta, tb;
      std::size_t both = 0;
      for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        if (a.outcomes[i].decoded) ta.add(a.outcomes[i].decode_time);
        if (b.outcomes[i].decoded) tb.add(b.outcomes[i].decode_time);
        if (a.outcomes[i].decoded && b.outcomes[i].decoded) ++both;
      }
      burst.add_row({fmt(q, 1), fmt(ta.mean(), 1), fmt(tb.mean(), 1),
                     std::to_string(a.packets_lost), std::to_string(b.packets_lost),
                     fmt(100.0 * static_cast<double>(both) /
                             static_cast<double>(a.outcomes.size()), 1)});
    }
    burst.print();
    session.add_table("iid_vs_bursty", burst);
    std::printf(
        "\nReading: the two decode-time columns track each other — loss\n"
        "correlation changes *when* packets die, not how many rank units\n"
        "survive, and coding only counts survivors.\n");
  }
  return 0;
}
