// E22 — control-plane adversity: the protocol's robustness story priced at
// message level. The paper assumes the control links (hello, complaint,
// redirect) are reliable; this experiment drops them with increasing
// probability and measures what the retry machinery buys: join latency (the
// hello/accept exchange with doubling-backoff retransmission), repair
// convergence (complaints retransmit until the splice happens), and the
// decoded fraction of the survivors. The claim under test: the protocol
// degrades gracefully — joins and repairs get slower, but never hang —
// up to at least 10% control loss.
//
// Runs on the sharded kernel (run_scenario_sharded, 4 shards x 2 workers —
// the production runner); the report is the same at any shard/worker count.
//
// A second axis sweeps the generation structure (dense, banded w = g/8,
// overlapped classes) at 10% control loss: same protocol, different data
// plane, with the v2 compact framing's bytes-per-packet measured from the
// real serialized sizes (net.data_bytes).

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "coding/structure.hpp"
#include "node/protocol_scenario.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "obs/trace_event.hpp"
#include "util/stats.hpp"

using namespace ncast;

namespace {

constexpr std::uint32_t kShards = 4;
constexpr std::uint32_t kWorkers = 2;

// Engine throughput over every scenario the bench runs, reported the way
// bench_scale reports it: events executed per wall-clock second of run.
std::uint64_t g_events = 0;
double g_run_s = 0.0;

node::ProtocolScenarioReport run(const node::ProtocolScenarioSpec& spec,
                                 std::uint32_t shards = kShards,
                                 std::uint32_t workers = kWorkers) {
  obs::Stopwatch wall;
  auto report = node::run_scenario_sharded(spec, shards, workers);
  g_run_s += wall.elapsed_ns() * 1e-9;
  g_events += report.events_executed;
  return report;
}

// Every field of two reports, the final matrix row by row included.
bool same_report(const node::ProtocolScenarioReport& a,
                 const node::ProtocolScenarioReport& b) {
  const auto order = a.matrix.nodes_in_order();
  bool same = a.horizon == b.horizon &&
              a.events_executed == b.events_executed &&
              a.messages_sent == b.messages_sent &&
              a.messages_dropped == b.messages_dropped &&
              a.control_messages == b.control_messages &&
              a.data_messages == b.data_messages &&
              a.control_dropped == b.control_dropped &&
              a.control_bytes == b.control_bytes &&
              a.data_bytes == b.data_bytes &&
              a.repairs_done == b.repairs_done &&
              a.last_repair_time == b.last_repair_time &&
              a.outcomes == b.outcomes && order == b.matrix.nodes_in_order();
  for (std::size_t i = 0; same && i < order.size(); ++i) {
    const auto row_a = a.matrix.row(order[i]);
    const auto row_b = b.matrix.row(order[i]);
    same = row_a.threads == row_b.threads && row_a.failed == row_b.failed;
  }
  return same;
}

struct SweepPoint {
  double loss = 0.0;
  RunningStats joined_pct, join_latency, join_retries;
  RunningStats repairs, repair_time, decoded_pct, control_dropped;
  bool converged = true;  // every trial joined everyone and repaired the crash
};

// What one join's span must contain for the causal trace to be usable as a
// post-mortem: the hello retransmission(s), the accept delivery, and the
// node's first rank advance, all carrying the same span id.
struct JoinChain {
  bool retried = false;
  bool accepted = false;
  bool advanced = false;
  bool complete() const { return retried && accepted && advanced; }
};

// Runs one deliberately lossy scenario against a cleared trace ring and
// checks that at least one join episode's full retry chain reconstructs by
// span id alone. Exports the buffer in both formats (JSONL for grep/diff,
// Chrome trace_event for Perfetto) as a side effect.
bool capture_trace(std::uint32_t n) {
  ncast::obs::trace().clear();

  node::ProtocolScenarioSpec spec;
  spec.k = 12;
  spec.default_degree = 3;
  spec.generations = 1;
  spec.generation_size = 8;
  spec.symbols = 8;
  spec.silence_timeout = 8;
  spec.repair_delay = 2.0;
  spec.join_retry = 4.0;
  spec.seed = 0xE221;
  spec.horizon = 80.0;  // joins + first rank advances; full decode not needed
  spec.transport.latency = sim::LatencySpec::uniform(0.5, 1.5);
  // 20% control loss: with n joins, some hello or accept is essentially
  // guaranteed to be lost, which is exactly the chain we want on record.
  spec.transport.control_loss = sim::LossSpec::bernoulli(0.20);
  spec.faults.join_burst(1.0, n, 1.0);
  // Deliberately one shard and no workers: the only configuration whose
  // trace clock is monotone, so the export is one globally ordered trace,
  // not per-lane interleavings.
  run(spec, 1, 0);

  std::map<ncast::obs::SpanId, JoinChain> chains;
  for (const auto& e : ncast::obs::trace().events_in_order()) {
    if (e.span == ncast::obs::kNoSpan) continue;
    switch (e.kind) {
      case ncast::obs::TraceKind::kMsgRetry:
        if (e.b == static_cast<std::uint64_t>(node::MessageType::kJoinRequest)) {
          chains[e.span].retried = true;
        }
        break;
      case ncast::obs::TraceKind::kMsgDeliver:
        if (e.b == static_cast<std::uint64_t>(node::MessageType::kJoinAccept)) {
          chains[e.span].accepted = true;
        }
        break;
      case ncast::obs::TraceKind::kRankAdvance:
        chains[e.span].advanced = true;
        break;
      default:
        break;
    }
  }
  std::size_t complete = 0;
  for (const auto& [span, chain] : chains) {
    if (chain.complete()) ++complete;
  }

  ncast::obs::trace().write_jsonl("TRACE_control_loss.jsonl");
  ncast::obs::write_trace_event(ncast::obs::trace(),
                                "TRACE_control_loss.trace.json");
  std::printf(
      "\nCausal trace: %zu retained events, %zu join spans with a complete\n"
      "retry chain (hello retransmission -> accept -> first rank advance);\n"
      "exported TRACE_control_loss.jsonl and TRACE_control_loss.trace.json\n"
      "(load the latter in Perfetto / chrome://tracing).\n",
      ncast::obs::trace().size(), complete);
  return complete > 0;
}

}  // namespace

int main() {
  const bool smoke = bench::smoke();
  const std::uint32_t n = smoke ? 12 : 24;
  const std::uint64_t trials = smoke ? 1 : 3;
  const double crash_time = 50.0;

  bench::MetricsSession session("control_loss");
  session.param("k", 12);
  session.param("d", 3);
  session.param("n", n);
  session.param("seed", std::uint64_t{0xE220});
  session.param("trials", trials);
  session.param("crash_time", crash_time);

  bench::banner(
      "E22: join latency and repair convergence vs control-link loss",
      "Message plane on the sharded event kernel: N clients join through\n"
      "lossy control links (latency U[0.5, 1.5]), two early joiners crash,\n"
      "their children's complaints drive the repair. Data links stay clean,\n"
      "so every slowdown below is purely the control plane.");

  std::vector<double> rates = {0.0, 0.05, 0.10, 0.15, 0.20};
  if (smoke) rates = {0.0, 0.10};

  std::vector<SweepPoint> points;
  for (const double loss : rates) {
    SweepPoint pt;
    pt.loss = loss;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      node::ProtocolScenarioSpec spec;
      spec.k = 12;
      spec.default_degree = 3;
      spec.generations = 2;
      spec.generation_size = 8;
      spec.symbols = 8;
      spec.silence_timeout = 8;
      spec.repair_delay = 2.0;
      spec.join_retry = 4.0;
      spec.seed = 0xE220 + trial;
      spec.transport.latency = sim::LatencySpec::uniform(0.5, 1.5);
      if (loss > 0.0) {
        spec.transport.control_loss = sim::LossSpec::bernoulli(loss);
      }
      spec.faults.join_burst(1.0, n, 1.0);
      spec.faults.crash_join_at(crash_time, 0);
      spec.faults.crash_join_at(crash_time + 5.0, 1);

      const auto report = run(spec);

      std::size_t joined = 0;
      for (const auto& o : report.outcomes) {
        if (o.joined) ++joined;
      }
      pt.joined_pct.add(100.0 * static_cast<double>(joined) /
                        static_cast<double>(n));
      if (report.mean_join_latency() >= 0.0) {
        pt.join_latency.add(report.mean_join_latency());
      }
      pt.join_retries.add(static_cast<double>(report.total_join_retries()));
      pt.repairs.add(static_cast<double>(report.repairs_done));
      if (report.repairs_done > 0) {
        pt.repair_time.add(report.last_repair_time - crash_time);
      }
      pt.decoded_pct.add(100.0 * report.decoded_fraction());
      pt.control_dropped.add(static_cast<double>(report.control_dropped));
      if (joined != n || report.repairs_done < 2) pt.converged = false;
    }
    points.push_back(pt);
  }

  Table table({"control loss%", "joined%", "mean join latency", "join retries",
               "repairs done", "repair conv time", "decoded%",
               "ctrl msgs dropped"});
  for (const auto& pt : points) {
    table.add_row({fmt(pt.loss * 100, 0), fmt(pt.joined_pct.mean(), 1),
                   fmt(pt.join_latency.mean(), 2), fmt(pt.join_retries.mean(), 1),
                   fmt(pt.repairs.mean(), 1), fmt(pt.repair_time.mean(), 1),
                   fmt(pt.decoded_pct.mean(), 1),
                   fmt(pt.control_dropped.mean(), 0)});
  }
  table.print();
  session.add_table("loss_sweep", table);
  session.note("max_loss_pct", rates.back() * 100);

  // The acceptance gate: at <= 10% control loss, every trial must have
  // joined every client and completed both repairs before the horizon.
  // Hanging (a lost complaint or hello never retried) is the failure mode
  // the retry logic exists to kill; a slow join is fine, a stuck one is not.
  bool gate_ok = true;
  for (const auto& pt : points) {
    if (pt.loss <= 0.10 && !pt.converged) gate_ok = false;
  }
  session.note("converged_at_10pct", gate_ok);

  // --- structure sweep ----------------------------------------------------
  // Same protocol under 10% control loss, three data planes: dense RLNC,
  // banded strips of width g/8 (wrapping) mixed with densified relay rows,
  // and overlapped classes kept compact on every hop. The wire cost column
  // is real serialized bytes per data packet (v1 vs v2 framing included).
  struct StructureLane {
    const char* name;
    coding::StructureSpec structure;
  };
  const StructureLane lanes[] = {
      {"dense", coding::StructureSpec::dense()},
      {"banded", coding::StructureSpec::banded(2, true)},  // w = g/8
      {"overlapped", coding::StructureSpec::overlapping(6, 2)},
  };
  const std::size_t sweep_gen_size = 16;

  Table structure_table({"structure", "joined%", "decoded%", "repairs done",
                         "data msgs", "data bytes", "bytes/packet"});
  bool structure_gate = true;
  std::map<std::string, double> structure_decoded;
  for (const auto& lane : lanes) {
    RunningStats joined_pct, decoded_pct, repairs, data_msgs, data_bytes;
    for (std::uint64_t trial = 0; trial < trials; ++trial) {
      node::ProtocolScenarioSpec spec;
      spec.k = 12;
      spec.default_degree = 3;
      spec.generations = 2;
      spec.generation_size = sweep_gen_size;
      spec.symbols = 8;
      spec.silence_timeout = 8;
      spec.repair_delay = 2.0;
      spec.join_retry = 4.0;
      spec.seed = 0xE230 + trial;
      spec.structure = lane.structure;
      // One common horizon, sized for the costliest lane: overlapped codes
      // pay a redundancy overhead (class packets that repeat boundary
      // coverage), so full rank lands later than the dense auto-horizon.
      spec.horizon = 400.0;
      spec.transport.latency = sim::LatencySpec::uniform(0.5, 1.5);
      spec.transport.control_loss = sim::LossSpec::bernoulli(0.10);
      spec.faults.join_burst(1.0, n, 1.0);
      spec.faults.crash_join_at(crash_time, 0);
      spec.faults.crash_join_at(crash_time + 5.0, 1);

      const auto report = run(spec);
      std::size_t joined = 0;
      for (const auto& o : report.outcomes) {
        if (o.joined) ++joined;
      }
      joined_pct.add(100.0 * static_cast<double>(joined) /
                     static_cast<double>(n));
      decoded_pct.add(100.0 * report.decoded_fraction());
      repairs.add(static_cast<double>(report.repairs_done));
      data_msgs.add(static_cast<double>(report.data_messages));
      data_bytes.add(static_cast<double>(report.data_bytes));
      // Convergence + decoded-fraction gate, per structure: everyone joins,
      // both crashes are repaired, every survivor decodes.
      if (joined != n || report.repairs_done < 2 ||
          report.decoded_fraction() < 1.0) {
        structure_gate = false;
      }
    }
    structure_table.add_row(
        {lane.name, fmt(joined_pct.mean(), 1), fmt(decoded_pct.mean(), 1),
         fmt(repairs.mean(), 1), fmt(data_msgs.mean(), 0),
         fmt(data_bytes.mean(), 0),
         fmt(data_bytes.mean() / data_msgs.mean(), 1)});
    structure_decoded[lane.name] = decoded_pct.mean();
    session.note(std::string("decoded_pct_") + lane.name, decoded_pct.mean());
  }
  std::printf("\nStructure sweep at 10%% control loss (g=%zu, w=g/8):\n",
              sweep_gen_size);
  structure_table.print();
  session.add_table("structure_sweep", structure_table);
  session.note("structure_gate", structure_gate);

  // Shard/worker invariance on a structured lane: the report must be a pure
  // function of the spec, every field of it.
  bool invariance_ok = true;
  {
    node::ProtocolScenarioSpec spec;
    spec.k = 12;
    spec.default_degree = 3;
    spec.generations = 2;
    spec.generation_size = sweep_gen_size;
    spec.symbols = 8;
    spec.silence_timeout = 8;
    spec.seed = 0xE23F;
    spec.structure = coding::StructureSpec::banded(2, true);
    spec.transport.latency = sim::LatencySpec::uniform(0.5, 1.5);
    spec.transport.control_loss = sim::LossSpec::bernoulli(0.10);
    spec.faults.join_burst(1.0, smoke ? 6 : 12, 1.0);
    invariance_ok = same_report(run(spec, 1, 0), run(spec));
  }
  session.note("shard_invariance", invariance_ok);

  // Causal-trace acceptance: a lossy run must leave behind a span tree from
  // which one join's full retry chain reconstructs. With the obs kill switch
  // compiled out there is no trace to check, so the gate only bites when the
  // buffer is live.
  const bool trace_ok = capture_trace(n);
  session.note("trace_span_chain", trace_ok);
  session.note("events_per_sec",
               g_run_s > 0.0 ? static_cast<double>(g_events) / g_run_s : 0.0);
  if (NCAST_OBS_ENABLED && !trace_ok) {
    std::fprintf(stderr,
                 "bench_control_loss: no join span with a complete retry "
                 "chain in the captured trace\n");
    return 1;
  }

  std::printf(
      "\nReading: loss on the control plane taxes the protocol in time, not\n"
      "in outcome. Join latency and retry counts climb with the loss rate\n"
      "(each lost hello or accept costs one backoff period), repairs finish\n"
      "later (lost complaints are retransmitted on the silence clock), but\n"
      "through %.0f%% loss every client still joins, the crashes are still\n"
      "spliced out, and the survivors still decode. %s\n",
      rates.back() * 100,
      gate_ok ? "Convergence gate (<=10%): PASS."
              : "Convergence gate (<=10%): FAIL.");

  if (!gate_ok) {
    std::fprintf(stderr,
                 "bench_control_loss: protocol failed to converge at <=10%% "
                 "control loss\n");
    return 1;
  }
  if (!structure_gate) {
    std::fprintf(stderr,
                 "bench_control_loss: a structured lane failed its "
                 "convergence/decoded-fraction gate (dense %.1f%%, banded "
                 "%.1f%%, overlapped %.1f%% decoded)\n",
                 structure_decoded["dense"], structure_decoded["banded"],
                 structure_decoded["overlapped"]);
    return 1;
  }
  if (!invariance_ok) {
    std::fprintf(stderr,
                 "bench_control_loss: sharded report not shard/worker "
                 "invariant on the banded lane\n");
    return 1;
  }
  return 0;
}
