// E8 — throughput comparison (Sections 1, 7, and the practical-coding claim
// of [5]): network coding achieves the min-cut for every receiver, beating
// routing baselines under failures, while Edmonds tree packing is optimal
// only until something fails.
//
// All schemes run over the *same* overlay snapshots:
//   - RLNC capacity        = max-flow (network coding theorem), validated
//                            below by a packet-level simulation
//   - Edmonds tree packing = d edge-disjoint arborescences packed on the
//                            failure-free overlay, NOT recomputed on failure
//   - informed forwarding  = source-side MDS code + local diversity-greedy
//                            fragment forwarding ([3]-style)
//   - naive forwarding     = stream c rides column c forever
// plus the motivating single-path chain and d-ary tree topologies.

#include <cstdio>
#include <map>

#include <cmath>

#include "baselines/forwarding.hpp"
#include "baselines/tree_packing.hpp"
#include "baselines/trees.hpp"
#include "bench_common.hpp"
#include "obs/metrics.hpp"
#include "overlay/flow_graph.hpp"
#include "util/stats.hpp"

using namespace ncast;

int main() {
  const std::uint32_t k = 16, d = 3;
  // Smoke mode (NCAST_BENCH_SMOKE=1) shrinks the workload so CI can exercise
  // the telemetry pipeline end to end in seconds.
  const bool smoke = bench::smoke();
  const std::size_t n = smoke ? 60 : 150;
  const std::uint64_t trials = smoke ? 1 : 3;
  const std::vector<double> ps =
      smoke ? std::vector<double>{0.0, 0.05}
            : std::vector<double>{0.0, 0.02, 0.05, 0.10, 0.15};

  bench::MetricsSession session("throughput");
  session.param("k", k);
  session.param("d", d);
  session.param("n", n);
  session.param("seed", std::uint64_t{0xE80});
  session.param("trials", trials);

  bench::banner(
      "E8: delivered rate vs failure probability (fraction of full rate d)",
      "k = 16, d = 3, N = 150, 3 trials per p. Tree packing is computed once\n"
      "on the healthy overlay and reused (the paper's point: repacking on\n"
      "every failure is impractical).");

  Table table({"p", "RLNC (min-cut)", "tree packing", "informed RS",
               "naive routing", "chain recv%", "3-ary tree recv%"});

  for (const double p : ps) {
    RunningStats rlnc, packing, informed, naive, chain, tree;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      auto m = bench::grow_overlay(k, d, n, 0xE80 + trial);
      const auto mc = baselines::TreePackingMulticast::build(m, d);
      if (!mc) {
        std::fprintf(stderr, "tree packing failed unexpectedly\n");
        return 1;
      }
      Rng rng(0xE81 + trial * 1000 + static_cast<std::uint64_t>(p * 1e4));
      bench::tag_iid_failures(m, p, rng);

      const auto fg = build_flow_graph(m);
      const auto tree_rates = mc->rates_under_failures(m);
      const auto naive_rates = baselines::naive_forwarding_rates(m);
      Rng frng(rng.split());
      const auto informed_rates = baselines::informed_forwarding_rates(m, frng);

      std::map<overlay::NodeId, std::uint32_t> naive_by, informed_by;
      for (const auto& r : naive_rates) naive_by[r.node] = r.rate;
      for (const auto& r : informed_rates) informed_by[r.node] = r.rate;

      for (auto node : m.nodes_in_order()) {
        if (m.row(node).failed) continue;
        const double flow =
            static_cast<double>(node_connectivity(fg, node)) / d;
        rlnc.add(flow);
        packing.add(tree_rates[mc->flow_graph().vertex_of(node)] /
                    static_cast<double>(d));
        naive.add(naive_by[node] / static_cast<double>(d));
        informed.add(informed_by[node] / static_cast<double>(d));
      }
      for (int rep = 0; rep < 20; ++rep) {
        chain.add(baselines::evaluate_chain(n, p, rng).receiving_fraction());
        tree.add(baselines::evaluate_tree(n, 3, p, rng).receiving_fraction());
      }
    }
    table.add_row({fmt(p, 2), fmt(rlnc.mean(), 3), fmt(packing.mean(), 3),
                   fmt(informed.mean(), 3), fmt(naive.mean(), 3),
                   fmt(chain.mean(), 3), fmt(tree.mean(), 3)});
  }
  table.print();
  session.add_table("rate_vs_p", table);

  std::printf(
      "\nReading: the ordering RLNC >= tree packing, informed >= naive must\n"
      "hold at every p; the RLNC-vs-tree-packing gap widens with p (static\n"
      "trees lose whole subtrees; coding re-routes around failures).\n");

  // Packet-level validation: real RLNC packets achieve the min-cut rate.
  bench::banner(
      "E8b: packet-level RLNC validation (achieved rate == min-cut)",
      "Same overlay, p = 0.05; generation size 24. Rate := g / (rounds from\n"
      "first possible arrival to decode). Capped ratio vs min-cut.");  // g = 24
  {
    auto m = bench::grow_overlay(k, d, smoke ? 100 : 400, 0xE82);
    Rng rng(0xE83);
    bench::tag_iid_failures(m, 0.05, rng);
    const std::size_t g = 24;
    bench::ScenarioBuilder scenario(0xE84);
    scenario.generation(g, 16).rounds(0);
    scenario.describe(session, "packet_level_");
    const obs::Stopwatch run_watch;
    const auto report = scenario.run(m);
    const double run_s = run_watch.elapsed_ns() * 1e-9;

    RunningStats ratio;
    std::size_t decoded = 0, eligible = 0;
    for (const auto& o : report.outcomes) {
      if (o.max_flow <= 0) continue;
      ++eligible;
      if (!o.decoded) continue;
      ++decoded;
      const double active =
          std::floor(o.decode_time) - static_cast<double>(o.depth) + 1;
      const double rate = static_cast<double>(g) / active;
      ratio.add(std::min(1.0, rate / static_cast<double>(o.max_flow)));
    }
    Table t({"nodes with min-cut > 0", "decoded", "mean achieved/min-cut"});
    t.add_row({std::to_string(eligible), std::to_string(decoded),
               fmt(ratio.mean(), 3)});
    t.print();
    session.add_table("packet_level", t);
    session.note("decoded", static_cast<std::uint64_t>(decoded));
    session.note("eligible", static_cast<std::uint64_t>(eligible));
    session.note("achieved_over_mincut", ratio.mean());
    // Engine throughput: events executed per wall-clock second of the run.
    session.note("events_per_sec",
                 run_s > 0.0
                     ? static_cast<double>(report.events_executed) / run_s
                     : 0.0);
    std::printf(
        "\nReading: decoded == eligible and the achieved/min-cut ratio near 1\n"
        "reproduce the [5] simulation finding that practical network coding\n"
        "runs at (essentially) broadcast capacity.\n");
  }
  return 0;
}
