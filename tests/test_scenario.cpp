// Unified scenario-layer tests: link models (latency, Bernoulli and
// Gilbert-Elliott loss, bandwidth caps, partitions), fault plans, and the
// composed scenario runner on both the curtain and the random-graph overlay —
// including the acceptance check that decoded_fraction tracks the max-flow
// bound when loss, latency spread, scheduled churn, and attackers are all
// active at once.

#include "sim/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "graph/maxflow.hpp"
#include "overlay/curtain_server.hpp"
#include "overlay/flow_graph.hpp"
#include "overlay/random_graph.hpp"
#include "sim/churn.hpp"

namespace ncast {
namespace {

using namespace sim;
using overlay::CurtainServer;
using overlay::NodeId;

overlay::ThreadMatrix grow_overlay(std::uint32_t k, std::uint32_t d, int n,
                                   std::uint64_t seed) {
  CurtainServer server(k, d, Rng(seed));
  for (int i = 0; i < n; ++i) server.join();
  return server.matrix();
}

// ---------------------------------------------------------------- LinkModel

TEST(LatencySpec, KindsSampleWithinTheirSupport) {
  Rng rng(7);
  const auto fixed = LatencySpec::fixed_delay(0.5);
  EXPECT_DOUBLE_EQ(fixed.sample(rng), 0.5);
  EXPECT_DOUBLE_EQ(fixed.upper_bound(), 0.5);

  const auto uni = LatencySpec::uniform(0.2, 1.8);
  for (int i = 0; i < 100; ++i) {
    const double s = uni.sample(rng);
    EXPECT_GE(s, 0.2);
    EXPECT_LE(s, 1.8);
  }
  EXPECT_DOUBLE_EQ(uni.upper_bound(), 1.8);

  const auto exp = LatencySpec::shifted_exponential(0.1, 0.5);
  for (int i = 0; i < 100; ++i) EXPECT_GE(exp.sample(rng), 0.1);
  EXPECT_DOUBLE_EQ(exp.upper_bound(), 0.1 + 4.0 * 0.4);
}

TEST(LossSpec, MeanLossMatchesStationaryDistribution) {
  EXPECT_DOUBLE_EQ(LossSpec::none().mean_loss(), 0.0);
  EXPECT_DOUBLE_EQ(LossSpec::bernoulli(0.07).mean_loss(), 0.07);
  // pi_bad = 0.1/(0.1+0.3) = 0.25; loss = 0.25 * 1.0.
  EXPECT_DOUBLE_EQ(LossSpec::gilbert_elliott(0.1, 0.3).mean_loss(), 0.25);
  // Degenerate chain (never transitions) falls back to the good-state rate.
  EXPECT_DOUBLE_EQ(LossSpec::gilbert_elliott(0.0, 0.0, 0.02, 1.0).mean_loss(), 0.02);
}

LinkModel single_link_model(const LinkModelSpec& spec, Rng& rng,
                            double period = 1.0) {
  const std::vector<LinkModel::LinkEnd> links{{0, 1}};
  return LinkModel(spec, links, 2, 0, period, /*random_phases=*/false, rng);
}

TEST(LinkModel, GilbertElliottLossIsBurstyAtTheConfiguredRate) {
  LinkModelSpec spec;
  spec.loss = LossSpec::gilbert_elliott(0.05, 0.45);  // mean loss 0.1
  Rng rng(11);
  LinkModel model = single_link_model(spec, rng);

  const int n = 200000;
  int lost = 0;
  int loss_runs = 0;  // bursts: a loss whose predecessor survived
  bool prev_lost = false;
  for (int i = 0; i < n; ++i) {
    const bool ok = model.survives(0, static_cast<double>(i), rng);
    if (!ok) {
      ++lost;
      if (!prev_lost) ++loss_runs;
    }
    prev_lost = !ok;
  }
  const double rate = static_cast<double>(lost) / n;
  EXPECT_NEAR(rate, spec.loss.mean_loss(), 0.02);
  // Burstiness: mean run length 1/p_exit ~ 2.2, so far fewer runs than
  // losses — a Bernoulli process at the same rate has run length ~ 1.1.
  const double mean_run = static_cast<double>(lost) / loss_runs;
  EXPECT_GT(mean_run, 1.6);
}

TEST(LossSpec, SurvivesTouchesChannelStateOnlyForGilbertElliott) {
  // One loss step for every caller: stateless kinds leave the channel state
  // alone, and kNone draws nothing from the stream.
  Rng rng(5);
  Rng twin(5);
  bool bad = true;
  EXPECT_TRUE(LossSpec::none().survives(bad, rng));
  EXPECT_TRUE(bad);
  EXPECT_EQ(rng(), twin());

  const auto bern = LossSpec::bernoulli(0.5);
  for (int i = 0; i < 50; ++i) {
    EXPECT_EQ(bern.survives(bad, rng), !twin.chance(0.5));
    EXPECT_TRUE(bad);
  }

  // A chain that always enters and never leaves the bad state, which always
  // drops: the first step flips the state and every delivery is lost.
  const auto stuck = LossSpec::gilbert_elliott(1.0, 0.0);
  bad = false;
  EXPECT_FALSE(stuck.survives(bad, rng));
  EXPECT_TRUE(bad);
  EXPECT_FALSE(stuck.survives(bad, rng));
}

TEST(LinkModel, BernoulliLossMatchesRate) {
  LinkModelSpec spec;
  spec.loss = LossSpec::bernoulli(0.2);
  Rng rng(13);
  LinkModel model = single_link_model(spec, rng);
  int lost = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    if (!model.survives(0, static_cast<double>(i), rng)) ++lost;
  }
  EXPECT_NEAR(static_cast<double>(lost) / n, 0.2, 0.02);
}

TEST(LinkModel, BandwidthCapEnforcesMinimumSpacing) {
  LinkModelSpec spec;
  spec.bandwidth_cap = 2.0;  // >= 0.5 between sends
  Rng rng(17);
  LinkModel model = single_link_model(spec, rng);
  EXPECT_TRUE(model.allow_send(0, 0.0));
  EXPECT_FALSE(model.allow_send(0, 0.3));
  EXPECT_TRUE(model.allow_send(0, 0.5));
  EXPECT_FALSE(model.allow_send(0, 0.99));
  EXPECT_TRUE(model.allow_send(0, 1.0));

  LinkModelSpec uncapped;
  Rng rng2(17);
  LinkModel free_model = single_link_model(uncapped, rng2);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(free_model.allow_send(0, 0.0));
}

TEST(LinkModel, PartitionDropsCrossSideDeliveriesDuringWindow) {
  LinkModelSpec spec;
  spec.partition = PartitionSpec::window(2.0, 4.0, 1.0);  // everyone on side B
  Rng rng(19);
  LinkModel model = single_link_model(spec, rng);
  // Link 0->1 crosses sides (source 0 stays on side A).
  EXPECT_FALSE(model.partitioned(0, 1.9));
  EXPECT_TRUE(model.partitioned(0, 2.0));
  EXPECT_TRUE(model.partitioned(0, 3.9));
  EXPECT_FALSE(model.partitioned(0, 4.0));
  EXPECT_FALSE(model.survives(0, 3.0, rng));
  EXPECT_TRUE(model.survives(0, 5.0, rng));
}

// ---------------------------------------------------------------- FaultPlan

TEST(FaultPlan, SortedIsStableByTime) {
  FaultPlan plan;
  plan.crash_at(5.0, 3).leave_at(1.0, 4).repair_at(5.0, 3).behavior_at(
      0.5, 7, NodeBehavior::kJammer);
  const auto sorted = plan.sorted();
  ASSERT_EQ(sorted.size(), 4u);
  EXPECT_EQ(sorted[0].kind, FaultKind::kBehavior);
  EXPECT_EQ(sorted[1].kind, FaultKind::kLeave);
  // Equal times keep insertion order: crash before its repair.
  EXPECT_EQ(sorted[2].kind, FaultKind::kCrash);
  EXPECT_EQ(sorted[3].kind, FaultKind::kRepair);
}

TEST(FaultPlan, RejectsNegativeTimesAndBadJoinRefs) {
  FaultPlan plan;
  EXPECT_THROW(plan.crash_at(-1.0, 0), std::invalid_argument);
  EXPECT_THROW(plan.leave_join_at(1.0, 0), std::invalid_argument);
  const auto ref = plan.join_at(0.0);
  EXPECT_NO_THROW(plan.leave_join_at(1.0, ref));
}

TEST(FaultPlan, MergeRebasesJoinRefs) {
  FaultPlan a;
  const auto ra = a.join_at(1.0);
  a.leave_join_at(2.0, ra);

  FaultPlan b;
  const auto rb = b.join_at(3.0);
  b.crash_join_at(4.0, rb);

  a.merge(b);
  EXPECT_EQ(a.join_count(), 2u);
  const auto events = a.events();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[2].join_ref, 1u);  // b's join re-based past a's
  EXPECT_EQ(events[3].join_ref, 1u);
}

TEST(FaultPlan, PoissonChurnIsDeterministicPerRng) {
  ChurnProcessSpec spec;
  spec.horizon = 50.0;
  const auto a = FaultPlan::poisson_churn(spec, Rng(99));
  const auto b = FaultPlan::poisson_churn(spec, Rng(99));
  ASSERT_EQ(a.size(), b.size());
  ASSERT_GT(a.size(), 0u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.events()[i].at, b.events()[i].at);
    EXPECT_EQ(a.events()[i].kind, b.events()[i].kind);
    EXPECT_EQ(a.events()[i].join_ref, b.events()[i].join_ref);
  }
  // Every join gets exactly one departure (leave, or crash + repair).
  std::size_t joins = 0, leaves = 0, crashes = 0, repairs = 0;
  for (const auto& e : a.events()) {
    joins += e.kind == FaultKind::kJoin;
    leaves += e.kind == FaultKind::kLeave;
    crashes += e.kind == FaultKind::kCrash;
    repairs += e.kind == FaultKind::kRepair;
  }
  EXPECT_EQ(joins, a.join_count());
  EXPECT_EQ(joins, leaves + crashes);
  EXPECT_EQ(crashes, repairs);
}

// ------------------------------------------------------------- rate() guard

TEST(RateGuard, MissingCrossingsYieldZeroRate) {
  ScenarioOutcome o;
  o.rank_achieved = 16;
  o.third_time = -1.0;  // never crossed g/3
  o.two_thirds_time = 9.0;
  EXPECT_DOUBLE_EQ(o.rate(), 0.0);

  o.third_time = 5.0;
  o.two_thirds_time = -1.0;  // never crossed 2g/3
  EXPECT_DOUBLE_EQ(o.rate(), 0.0);

  o.third_time = -1.0;
  o.two_thirds_time = -1.0;
  EXPECT_DOUBLE_EQ(o.rate(), 0.0);

  o.third_time = 5.0;
  o.two_thirds_time = 5.0;  // degenerate: crossings coincide
  EXPECT_DOUBLE_EQ(o.rate(), 0.0);

  o.third_time = 2.0;
  o.two_thirds_time = 4.0;  // ranks 6 -> 11 over 2 time units
  EXPECT_DOUBLE_EQ(o.rate(), 2.5);
  EXPECT_DOUBLE_EQ(steady_state_rate(16, 2.0, 4.0), 2.5);
}

// -------------------------------------------------------- scenario running

TEST(Scenario, CrashSilencesDownstreamUntilRepair) {
  // A chain server(0) -> relay(1) -> leaf(2). Crashing the relay freezes the
  // leaf's rank; a repair lets it finish decoding.
  graph::Digraph chain(3);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);

  ScenarioSpec spec;
  spec.generation_size = 16;
  spec.symbols = 4;
  spec.seed = 5;
  spec.link.latency = LatencySpec::fixed_delay(0.25);
  spec.horizon = 80.0;
  spec.faults.crash_at(5.5, 1);

  const auto crashed = run_scenario(chain, 0, spec);
  ASSERT_EQ(crashed.outcomes.size(), 2u);
  const auto& leaf = crashed.outcomes[1];
  EXPECT_EQ(leaf.vertex, 2u);
  EXPECT_FALSE(leaf.decoded);
  EXPECT_LE(leaf.rank_achieved, 7u);  // ~5 sends got through before the crash
  // End-state capacity: the crashed relay cuts the leaf off entirely.
  EXPECT_EQ(leaf.max_flow, 0);
  // The server keeps feeding the dead relay; those deliveries count as lost.
  EXPECT_GT(crashed.packets_lost, 40u);

  ScenarioSpec repaired_spec = spec;
  repaired_spec.faults = FaultPlan{};
  repaired_spec.faults.crash_at(5.5, 1).repair_at(30.0, 1);
  const auto repaired = run_scenario(chain, 0, repaired_spec);
  EXPECT_TRUE(repaired.outcomes[1].decoded);
  EXPECT_EQ(repaired.outcomes[1].max_flow, 1);
}

TEST(Scenario, LeaveIsPermanentDespiteLaterRepair) {
  graph::Digraph chain(3);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);

  ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 4;
  spec.seed = 6;
  spec.link.latency = LatencySpec::fixed_delay(0.25);
  spec.horizon = 60.0;
  spec.faults.leave_at(4.5, 1).repair_at(10.0, 1);

  const auto report = run_scenario(chain, 0, spec);
  EXPECT_FALSE(report.outcomes[1].decoded);
}

TEST(Scenario, BehaviorSwitchTurnsAttackOn) {
  // The relay turns into an entropy attacker mid-run: the leaf's rank stops
  // growing past the packets it received before the switch (replayed copies
  // carry no new information).
  graph::Digraph chain(3);
  chain.add_edge(0, 1);
  chain.add_edge(1, 2);

  ScenarioSpec spec;
  spec.generation_size = 16;
  spec.symbols = 4;
  spec.seed = 7;
  spec.link.latency = LatencySpec::fixed_delay(0.25);
  spec.horizon = 80.0;
  spec.faults.behavior_at(6.5, 1, NodeBehavior::kEntropyAttack);

  const auto report = run_scenario(chain, 0, spec);
  const auto& leaf = report.outcomes[1];
  EXPECT_FALSE(leaf.decoded);
  EXPECT_LE(leaf.rank_achieved, 8u);
  EXPECT_GE(leaf.rank_achieved, 1u);
  // The attacker keeps the link busy: packets still flow, rank does not.
  EXPECT_GT(report.packets_sent, 100u);
}

TEST(Scenario, BandwidthCapThrottlesSends) {
  graph::Digraph pair(2);
  pair.add_edge(0, 1);

  ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 4;
  spec.seed = 8;
  spec.link.latency = LatencySpec::fixed_delay(0.25);
  spec.horizon = 40.0;

  const auto uncapped = run_scenario(pair, 0, spec);

  ScenarioSpec capped = spec;
  capped.link.bandwidth_cap = 0.5;  // one packet per two periods
  const auto throttled = run_scenario(pair, 0, capped);

  EXPECT_GT(uncapped.packets_sent, 35u);
  EXPECT_LT(throttled.packets_sent, uncapped.packets_sent / 2 + 4);
  EXPECT_GT(throttled.packets_sent, 15u);
  EXPECT_TRUE(throttled.outcomes[0].decoded);  // slower, but still complete
}

TEST(Scenario, PartitionWindowDropsPacketsThenHeals) {
  graph::Digraph pair(2);
  pair.add_edge(0, 1);

  ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 4;
  spec.seed = 9;
  spec.link.latency = LatencySpec::fixed_delay(0.25);
  spec.horizon = 60.0;
  spec.link.partition = PartitionSpec::window(3.0, 10.0, 1.0);

  const auto report = run_scenario(pair, 0, spec);
  EXPECT_GT(report.packets_lost, 4u);   // ~7 periods of cross-side drops
  EXPECT_TRUE(report.outcomes[0].decoded);  // the window heals
}

TEST(Scenario, RoundSyncIgnoresLinkLatency) {
  // The runner owns the round model: every link takes half a period, so a
  // round-mode report is the same whatever spec.link.latency says — even a
  // latency kind that would draw from the run's RNG stream.
  const auto m = grow_overlay(6, 2, 20, 21);
  ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 4;
  spec.seed = 22;
  spec.round_sync = true;
  spec.link.loss = LossSpec::bernoulli(0.1);
  const auto base = run_scenario(m, spec);

  for (const LatencySpec latency :
       {LatencySpec::fixed_delay(0.9), LatencySpec::uniform(0.2, 1.8),
        LatencySpec::shifted_exponential(0.1, 0.5)}) {
    ScenarioSpec other = spec;
    other.link.latency = latency;
    const auto report = run_scenario(m, other);
    EXPECT_EQ(report.rounds, base.rounds);
    EXPECT_EQ(report.horizon, base.horizon);
    EXPECT_EQ(report.events_executed, base.events_executed);
    EXPECT_EQ(report.packets_sent, base.packets_sent);
    EXPECT_EQ(report.packets_lost, base.packets_lost);
    EXPECT_EQ(report.packets_innovative, base.packets_innovative);
    ASSERT_EQ(report.outcomes.size(), base.outcomes.size());
    for (std::size_t i = 0; i < report.outcomes.size(); ++i) {
      const auto& o = report.outcomes[i];
      const auto& b = base.outcomes[i];
      EXPECT_EQ(o.node, b.node);
      EXPECT_EQ(o.rank_achieved, b.rank_achieved);
      EXPECT_EQ(o.decoded, b.decoded);
      EXPECT_EQ(o.first_arrival, b.first_arrival);  // bit-identical doubles
      EXPECT_EQ(o.decode_time, b.decode_time);
    }
  }
  // Deliveries land half a period after each round's sends.
  for (const auto& o : base.outcomes) {
    if (o.first_arrival >= 0.0) {
      EXPECT_EQ(o.first_arrival - std::floor(o.first_arrival), 0.5);
    }
  }
}

// ------------------------------------------- composed acceptance scenarios

// Builds the composed adversity spec: bursty loss + heterogeneous latency +
// scheduled crashes + entropy attackers, all active in one run.
ScenarioSpec composed_spec(std::uint64_t seed, const std::vector<NodeId>& crashed) {
  ScenarioSpec spec;
  spec.generation_size = 8;
  spec.symbols = 4;
  spec.seed = seed;
  spec.link.latency = LatencySpec::uniform(0.2, 1.2);
  spec.link.loss = LossSpec::gilbert_elliott(0.05, 0.45);  // ~10% bursty loss
  spec.horizon = 400.0;
  for (const NodeId n : crashed) spec.faults.crash_at(5.0, n);
  return spec;
}

TEST(Scenario, ComposedAdversityTracksMaxflowBoundOnCurtain) {
  const std::uint32_t k = 8, d = 3;
  const int n = 40;
  const auto m = grow_overlay(k, d, n, 31);
  const auto order = m.nodes_in_order();

  const std::vector<NodeId> attackers{order[6], order[13]};
  const std::vector<NodeId> crashed{order[3], order[17], order[25]};
  std::vector<NodeBehavior> behavior(n, NodeBehavior::kHonest);
  for (const NodeId a : attackers) behavior[a] = NodeBehavior::kEntropyAttack;

  const auto report = run_scenario(m, composed_spec(32, crashed), behavior);
  ASSERT_EQ(report.outcomes.size(), static_cast<std::size_t>(n));

  // The bound: in a capacity view where attackers and crashed nodes are
  // failed, any node with positive min-cut has an honest, eventually-live
  // path budget and must decode given the generous horizon.
  overlay::ThreadMatrix honest_view = m;
  for (const NodeId a : attackers) honest_view.mark_failed(a);
  for (const NodeId c : crashed) honest_view.mark_failed(c);
  const auto honest_fg = build_flow_graph(honest_view);

  // Tolerance: nodes outside the guaranteed set (attackers, crashed nodes,
  // and honest nodes with zero honest cut) may still decode — attacks hurt
  // downstream nodes, not the attacker's own intake, and crashes at t = 5
  // leave a window to finish a small generation.
  std::size_t expected = 0;
  std::size_t unguaranteed = 0;
  for (const auto& o : report.outcomes) {
    const bool is_attacker =
        std::find(attackers.begin(), attackers.end(), o.node) != attackers.end();
    const bool is_crashed =
        std::find(crashed.begin(), crashed.end(), o.node) != crashed.end();
    if (is_attacker || is_crashed) {  // own cut is zero in the honest view
      ++unguaranteed;
      continue;
    }
    const auto honest_cut = node_connectivity(honest_fg, o.node);
    if (honest_cut > 0) {
      ++expected;
      EXPECT_TRUE(o.decoded) << "node " << o.node << " honest min-cut "
                             << honest_cut << " but failed to decode";
      EXPECT_FALSE(o.corrupted);
    } else {
      ++unguaranteed;
    }
  }
  // The bound must be non-trivial for the test to mean anything.
  EXPECT_GE(expected, report.outcomes.size() - 10);
  const auto n_out = static_cast<double>(report.outcomes.size());
  const double expected_frac = static_cast<double>(expected) / n_out;
  const double tolerance = static_cast<double>(unguaranteed) / n_out;
  EXPECT_GE(report.decoded_fraction(), expected_frac);
  EXPECT_LE(report.decoded_fraction(), expected_frac + tolerance);
}

TEST(Scenario, ComposedAdversityTracksMaxflowBoundOnRandomGraph) {
  overlay::RandomGraphOverlay overlay(3, 3, Rng(41));
  for (int i = 0; i < 30; ++i) overlay.join();
  const auto& g = overlay.graph();
  const auto source = overlay::RandomGraphOverlay::kServer;

  const std::vector<graph::Vertex> attackers{5, 12};
  const std::vector<NodeId> crashed{8, 20};
  std::vector<NodeBehavior> behavior(g.vertex_count(), NodeBehavior::kHonest);
  for (const auto a : attackers) behavior[a] = NodeBehavior::kEntropyAttack;

  const auto report = run_scenario(g, source, composed_spec(42, crashed), behavior);
  ASSERT_EQ(report.outcomes.size(), g.vertex_count() - 1);

  // Honest capacity graph: attacker and crashed vertices contribute nothing.
  graph::Digraph honest = g;
  auto is_knocked_out = [&](graph::Vertex v) {
    return std::find(attackers.begin(), attackers.end(), v) != attackers.end() ||
           std::find(crashed.begin(), crashed.end(), v) != crashed.end();
  };
  for (graph::EdgeId id = 0; id < honest.edge_count(); ++id) {
    const auto& e = honest.edge(id);
    if (e.alive && (is_knocked_out(e.from) || is_knocked_out(e.to))) {
      honest.remove_edge(id);
    }
  }

  std::size_t expected = 0;
  std::size_t unguaranteed = 0;
  for (const auto& o : report.outcomes) {
    const auto honest_cut =
        is_knocked_out(o.vertex)
            ? 0
            : graph::unit_max_flow(honest, source, o.vertex);
    if (honest_cut > 0) {
      ++expected;
      EXPECT_TRUE(o.decoded) << "vertex " << o.vertex << " honest min-cut "
                             << honest_cut << " but failed to decode";
    } else {
      ++unguaranteed;
    }
  }
  EXPECT_GE(expected, report.outcomes.size() - 8);
  const auto n_out = static_cast<double>(report.outcomes.size());
  const double expected_frac = static_cast<double>(expected) / n_out;
  EXPECT_GE(report.decoded_fraction(), expected_frac);
  EXPECT_LE(report.decoded_fraction(),
            expected_frac + static_cast<double>(unguaranteed) / n_out);
}

// ------------------------------------------------------ fault-plan executor

TEST(RunFaultPlan, ExecutesMembershipEventsAgainstServer) {
  CurtainServer server(6, 2, Rng(51));
  FaultPlan plan;
  const auto a = plan.join_at(1.0);
  const auto b = plan.join_at(2.0);
  plan.join_at(3.0);
  plan.crash_join_at(5.0, a);
  plan.repair_join_at(6.0, a);
  plan.leave_join_at(7.0, b);

  const auto report = run_fault_plan(server, plan, 10.0);
  EXPECT_EQ(report.joins, 3u);
  EXPECT_EQ(report.failures, 1u);
  EXPECT_EQ(report.repairs, 1u);
  EXPECT_EQ(report.graceful_leaves, 1u);
  // Three joined; the repair deleted the crashed node's row (Section 3) and
  // one node left gracefully, so only the third joiner remains.
  EXPECT_EQ(report.final_population, 1u);
  EXPECT_EQ(report.final_failed_tagged, 0u);
}

TEST(RunFaultPlan, SkippedJoinDissolvesDependentEvents) {
  CurtainServer server(4, 2, Rng(52));
  FaultPlan plan;
  const auto a = plan.join_at(1.0);
  const auto b = plan.join_at(2.0);  // blocked by max_population = 1
  plan.crash_join_at(3.0, b);        // must dissolve, not hit some other node
  plan.repair_join_at(4.0, b);
  plan.leave_join_at(5.0, a);

  const auto report = run_fault_plan(server, plan, 10.0, /*max_population=*/1);
  EXPECT_EQ(report.joins, 1u);
  EXPECT_EQ(report.failures, 0u);
  EXPECT_EQ(report.repairs, 0u);
  EXPECT_EQ(report.graceful_leaves, 1u);
  EXPECT_EQ(report.final_population, 0u);
}

}  // namespace
}  // namespace ncast
