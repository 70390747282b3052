// E16 — repair dynamics: the life cycle of a failure, measured on the
// affected nodes. The paper's containment story, told as a timeline:
//   before  — everyone at full rate d
//   failed  — the failed nodes' *children* lose ~1 unit each; grandchildren
//             and strangers feel (almost) nothing
//   repaired — the server splices the children to the failed nodes' parents
//             and deletes the rows: everyone is back to d, exactly
//             (Lemma 1: as if the nodes never joined).

#include <cstdio>
#include <set>

#include "bench_common.hpp"
#include "node/protocol_scenario.hpp"
#include "overlay/curtain_server.hpp"
#include "overlay/flow_graph.hpp"
#include "util/stats.hpp"

using namespace ncast;

namespace {

// The message-plane section (E16c) runs on the sharded kernel — the
// production runner.
constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kWorkers = 2;

struct GroupRates {
  RunningStats children, grandchildren, others;
};

GroupRates measure(const overlay::ThreadMatrix& m, std::uint32_t d,
                   const std::set<overlay::NodeId>& children,
                   const std::set<overlay::NodeId>& grandchildren,
                   std::size_t other_samples, Rng& rng) {
  const auto fg = build_flow_graph(m);
  GroupRates rates;
  auto rate = [&](overlay::NodeId n) {
    return static_cast<double>(node_connectivity(fg, n)) / d;
  };
  std::vector<overlay::NodeId> strangers;
  for (auto n : m.nodes_in_order()) {
    if (m.row(n).failed) continue;
    if (children.count(n)) {
      rates.children.add(rate(n));
    } else if (grandchildren.count(n)) {
      rates.grandchildren.add(rate(n));
    } else {
      strangers.push_back(n);
    }
  }
  rng.shuffle(strangers);
  for (std::size_t i = 0; i < std::min(other_samples, strangers.size()); ++i) {
    rates.others.add(rate(strangers[i]));
  }
  return rates;
}

}  // namespace

int main() {
  bench::MetricsSession session("repair");
  session.param("k", 24);
  session.param("d", 3);
  session.param("n", 1500);
  session.param("seed", std::uint64_t{0xE160});
  session.param("crashes", 25);

  bench::banner(
      "E16: failure/repair timeline (containment + exact restoration)",
      "k = 24, d = 3, N = 1500; 25 simultaneous crashes, then repair.\n"
      "Mean delivered rate (fraction of d) per blast radius group.");

  const std::uint32_t k = 24, d = 3;
  overlay::CurtainServer server(k, d, Rng(0xE160));
  for (int i = 0; i < 1500; ++i) server.join();

  // Pick 25 victims away from the bottom (so they have children).
  Rng rng(0xE161);
  std::vector<overlay::NodeId> victims;
  while (victims.size() < 25) {
    const auto v = static_cast<overlay::NodeId>(rng.below(1200));
    bool dup = false;
    for (auto u : victims) dup |= (u == v);
    if (!dup) victims.push_back(v);
  }
  std::set<overlay::NodeId> victim_set(victims.begin(), victims.end());
  std::set<overlay::NodeId> children, grandchildren;
  for (auto v : victims) {
    for (auto c : server.matrix().children(v)) {
      if (!victim_set.count(c)) children.insert(c);
    }
  }
  for (auto c : children) {
    for (auto gc : server.matrix().children(c)) {
      if (!victim_set.count(gc) && !children.count(gc)) grandchildren.insert(gc);
    }
  }

  Table table({"phase", "children of failed", "grandchildren", "strangers"});
  auto add_phase = [&](const char* phase, const GroupRates& g) {
    table.add_row({phase, fmt(g.children.mean(), 4), fmt(g.grandchildren.mean(), 4),
                   fmt(g.others.mean(), 4)});
  };

  {
    Rng srng(1);
    add_phase("before failure",
              measure(server.matrix(), d, children, grandchildren, 300, srng));
  }
  for (auto v : victims) server.report_failure(v);
  {
    Rng srng(2);
    add_phase("failed (pre-repair)",
              measure(server.matrix(), d, children, grandchildren, 300, srng));
  }
  for (auto v : victims) server.repair(v);
  {
    Rng srng(3);
    add_phase("after repair",
              measure(server.matrix(), d, children, grandchildren, 300, srng));
  }
  table.print();
  session.add_table("timeline", table);

  std::printf(
      "\nReading: during the outage the children's rate drops by roughly one\n"
      "unit (1/d = %.3f) while grandchildren and strangers barely move —\n"
      "failures are contained to distance one. After repair every column is\n"
      "exactly 1.0000: the overlay is bit-for-bit as if the victims had\n"
      "never joined (Lemma 1).\n",
      1.0 / d);

  // E16b — the same life cycle inside ONE packet-level run: victims crash
  // mid-broadcast and come back before the horizon. Steady-state rank growth
  // (measured between the g/3 and 2g/3 crossings) shows the containment:
  // children slow down during the outage, strangers do not, and everyone
  // still decodes.
  bench::banner(
      "E16b: crash + repair inside one broadcast (scenario kernel)",
      "Same overlay (N = 1500), g = 16, async latency U[0.2, 1.2]. Victims\n"
      "crash at t = 10 and are repaired at t = 60; horizon 400.");
  {
    // Rebuild the pre-failure overlay: the membership repair above deleted
    // the victims' rows, but the packet-level run wants them present.
    overlay::CurtainServer pserver(k, d, Rng(0xE160));
    for (int i = 0; i < 1500; ++i) pserver.join();

    bench::ScenarioBuilder scenario(0xE162);
    scenario.generation(16, 4).uniform_latency(0.2, 1.2).horizon(400.0);
    for (auto v : victims) scenario.crash(10.0, v).repair(60.0, v);
    scenario.describe(session, "packet_level_");
    const auto report = scenario.run(pserver.matrix());

    RunningStats child_rate, stranger_rate;
    std::size_t decoded = 0;
    for (const auto& o : report.outcomes) {
      if (o.decoded) ++decoded;
      if (victim_set.count(o.node)) continue;
      if (o.rate() <= 0.0) continue;
      (children.count(o.node) ? child_rate : stranger_rate).add(o.rate());
    }
    Table pkt({"group", "mean steady-state rate", "overall decoded%"});
    const double dec_pct = 100.0 * static_cast<double>(decoded) /
                           static_cast<double>(report.outcomes.size());
    pkt.add_row({"children of victims", fmt(child_rate.mean(), 3), ""});
    pkt.add_row({"strangers", fmt(stranger_rate.mean(), 3), fmt(dec_pct, 1)});
    pkt.print();
    session.add_table("packet_timeline", pkt);
    session.note("packet_decoded_pct", dec_pct);
    std::printf(
        "\nReading: children pay a visible rate penalty for the outage window\n"
        "they sat through; strangers run at full speed. The repair restores\n"
        "the children's feed mid-run, so the decoded fraction stays ~100%%.\n");
  }

  // E16c — the same life cycle on the MESSAGE plane: no omniscient
  // report_failure call. The crashes are detected by the children's silence
  // timers, the complaints ride (possibly lossy) control links, and the
  // repair interval is protocol time: crash -> complaint -> splice. This is
  // the path the membership-level timeline above idealizes away.
  bench::banner(
      "E16c: repair driven by complaints over the message plane",
      "N = 60 clients on the sharded kernel (k = 12, d = 3, latency\n"
      "U[0.5, 1.5]), three early joiners crash at t = 50. Repair must\n"
      "emerge from silence detection; control loss delays but never\n"
      "cancels it.");
  {
    Table msg({"control loss%", "repairs done", "crash -> last splice",
               "complaints", "decoded%"});
    for (const double loss : {0.0, 0.10}) {
      RunningStats repairs, conv, complaints, decoded;
      for (std::uint64_t trial = 0; trial < 3; ++trial) {
        node::ProtocolScenarioSpec spec;
        spec.k = 12;
        spec.default_degree = 3;
        spec.repair_delay = 2.0;
        spec.generation_size = 8;
        spec.symbols = 8;
        spec.generations = 2;
        spec.silence_timeout = 8;
        spec.seed = 0xE163 + trial;
        spec.transport.latency = sim::LatencySpec::uniform(0.5, 1.5);
        if (loss > 0.0) {
          spec.transport.control_loss = sim::LossSpec::bernoulli(loss);
        }
        spec.faults.join_burst(1.0, 60, 1.0);
        spec.faults.crash_join_at(50.0, 0);
        spec.faults.crash_join_at(50.0, 1);
        spec.faults.crash_join_at(50.0, 2);

        const auto report = node::run_scenario_sharded(spec, kShards, kWorkers);
        repairs.add(static_cast<double>(report.repairs_done));
        if (report.repairs_done > 0) conv.add(report.last_repair_time - 50.0);
        complaints.add(static_cast<double>(report.total_complaints()));
        decoded.add(100.0 * report.decoded_fraction());
      }
      msg.add_row({fmt(loss * 100, 0), fmt(repairs.mean(), 1),
                   fmt(conv.mean(), 1), fmt(complaints.mean(), 1),
                   fmt(decoded.mean(), 1)});
    }
    msg.print();
    session.add_table("message_plane", msg);
    std::printf(
        "\nReading: on clean control links the crash -> splice interval is\n"
        "silence_timeout + repair_delay plus one round trip. Lossy control\n"
        "links stretch it (lost complaints wait out a backoff period) and\n"
        "can add spurious repairs (a lost redirect order makes a healthy\n"
        "parent look dead), but the overlay always converges back to a\n"
        "fully-repaired curtain — the retry logic turns loss into delay.\n");
  }
  return 0;
}
