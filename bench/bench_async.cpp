// E15 — Section 6, measured with asynchronous packets: the acyclic curtain
// suffers no throughput loss from delay spread but pays linear delay; the
// cyclic random-graph overlay delivers logarithmic delay for a small
// throughput haircut (wasted circulating transmissions).

#include <cstdio>

#include "bench_common.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/random_graph.hpp"
#include "util/stats.hpp"

using namespace ncast;

int main() {
  bench::MetricsSession session("async");
  session.param("k", 24);
  session.param("d", 3);
  session.param("n", "200..800");
  session.param("seed", std::uint64_t{0xEF0});
  session.param("generation_size", 36);

  bench::banner(
      "E15: asynchronous packets — delay spread vs cycles (Section 6)",
      "Link latencies uniform in [0.2, 1.8] periods, desynchronized clocks.\n"
      "k = 24, d = 3, generation size 36. 'rate/min-cut' ~ 1 means no\n"
      "throughput loss; 'first arrival' is the delivery delay.");

  Table table({"overlay", "N", "decoded%", "rate/min-cut", "mean first arrival",
               "innovative/sent"});

  for (const std::size_t n : {200u, 400u, 800u}) {
    // Acyclic curtain.
    {
      const auto m = bench::grow_overlay(24, 3, n, 0xEF0 + n);
      const auto fg = build_flow_graph(m);
      bench::ScenarioBuilder scenario(0xEF1 + n);
      scenario.generation(36, 8).uniform_latency(0.2, 1.8);
      const auto report =
          scenario.run(fg.graph, overlay::FlowGraph::kServerVertex);
      RunningStats arrival;
      for (const auto& o : report.outcomes) {
        if (o.first_arrival >= 0) arrival.add(o.first_arrival);
      }
      table.add_row({"curtain (acyclic)", std::to_string(n),
                     fmt(report.decoded_fraction() * 100, 1),
                     fmt(report.mean_rate_vs_cut(), 3), fmt(arrival.mean(), 1),
                     fmt(static_cast<double>(report.packets_innovative) /
                             static_cast<double>(report.packets_sent), 3)});
    }
    // Cyclic random graph.
    {
      overlay::RandomGraphOverlay o(3, 8, Rng(0xEF2 + n));
      for (std::size_t i = 0; i < n; ++i) o.join();
      bench::ScenarioBuilder scenario(0xEF3 + n);
      scenario.generation(36, 8).uniform_latency(0.2, 1.8);
      const auto report =
          scenario.run(o.graph(), overlay::RandomGraphOverlay::kServer);
      RunningStats arrival;
      for (const auto& out : report.outcomes) {
        if (out.first_arrival >= 0) arrival.add(out.first_arrival);
      }
      table.add_row({"random graph (cyclic)", std::to_string(n),
                     fmt(report.decoded_fraction() * 100, 1),
                     fmt(report.mean_rate_vs_cut(), 3), fmt(arrival.mean(), 1),
                     fmt(static_cast<double>(report.packets_innovative) /
                             static_cast<double>(report.packets_sent), 3)});
    }
  }
  table.print();
  session.add_table("delay_vs_topology", table);

  std::printf(
      "\nReading: the curtain's first-arrival delay grows linearly with N\n"
      "while the random graph's barely moves (log N) — the Section 6\n"
      "trade-off. rate/min-cut stays pinned near 1 for the acyclic curtain\n"
      "under heavy jitter (no loss from delay spread); with per-generation\n"
      "buffering the cyclic overlay also reaches min-cut here, so at this\n"
      "scale the cost of cycles shows up only as redundant circulating\n"
      "transmissions (innovative/sent), not as lost rate — consistent with\n"
      "the paper calling the loss 'small'.\n");
  return 0;
}
