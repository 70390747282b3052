#include "sim/scenario.hpp"

#include <algorithm>
#include <cmath>
#include <functional>
#include <optional>
#include <stdexcept>

#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "coding/null_keys.hpp"
#include "gf/gf256.hpp"
#include "graph/maxflow.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "overlay/flow_graph.hpp"
#include "sim/packet_pool.hpp"
#include "sim/sharded_engine.hpp"
#include "util/rng.hpp"

namespace ncast::sim {

using Gf = gf::Gf256;
using Packet = coding::CodedPacket<Gf>;

double ScenarioReport::decoded_fraction() const {
  if (outcomes.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& o : outcomes) n += o.decoded ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(outcomes.size());
}

double ScenarioReport::corrupted_fraction() const {
  if (outcomes.empty()) return 0.0;
  std::size_t n = 0;
  for (const auto& o : outcomes) n += o.corrupted ? 1 : 0;
  return static_cast<double>(n) / static_cast<double>(outcomes.size());
}

double ScenarioReport::mean_rate_vs_cut() const {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& o : outcomes) {
    if (!o.decoded || o.max_flow <= 0) continue;
    sum += std::min(1.0, o.rate() / static_cast<double>(o.max_flow));
    ++n;
  }
  return n ? sum / static_cast<double>(n) : 0.0;
}

namespace {

/// A fault event with its target resolved to a vertex of the run's graph.
struct ResolvedFault {
  double at = 0.0;
  FaultKind kind = FaultKind::kCrash;
  graph::Vertex v = 0;
  NodeBehavior behavior = NodeBehavior::kHonest;
};

/// The unified event-driven runner behind both run_scenario overloads.
///
/// RNG draw-order contract (what makes both modes bit-exact replicas of the
/// pre-kernel simulators): one stream, drawn in this order —
///   1. source data (g x symbols bytes), 2. null keys (if configured),
///   3. per link in edge order: latency, then phase (async mode only),
///   4. partition sides (if configured), then event-loop draws in event
///      order: emissions at sends, loss at deliveries.
/// Round mode fires every link's send at t = r*period (FIFO in link order,
/// preserved by self-rescheduling) and delivers at r*period + period/2 — a
/// fixed latency, which draws nothing — so all of round r's emission draws
/// precede all of round r's loss draws, exactly like the old round loop.
ScenarioReport run_core(const graph::Digraph& g, graph::Vertex source,
                        const ScenarioSpec& spec,
                        std::vector<NodeBehavior> cur,
                        const std::vector<bool>& excluded,
                        const std::vector<ResolvedFault>& faults,
                        bool always_check_corruption,
                        const std::vector<overlay::NodeId>* trace_ids) {
  const std::size_t vertex_count = g.vertex_count();
  if (source >= vertex_count) {
    throw std::out_of_range("run_scenario: source");
  }
  if (spec.generation_size == 0 || spec.symbols == 0) {
    throw std::invalid_argument("run_scenario: bad spec");
  }
  const std::size_t gs = spec.generation_size;
  // Every link sends one packet per period, and the period is the time unit.
  constexpr double period = 1.0;
  const bool round_mode = spec.round_sync;

  Rng rng(spec.seed);

  // Random source data for one generation.
  std::vector<std::vector<std::uint8_t>> source_data(
      gs, std::vector<std::uint8_t>(spec.symbols));
  for (auto& row : source_data) {
    for (auto& b : row) b = static_cast<std::uint8_t>(rng.below(256));
  }
  const coding::SourceEncoder<Gf> encoder(0, source_data);

  // Null-key verification (jamming defense), if enabled.
  std::optional<coding::NullKeySet<Gf>> keys;
  if (spec.null_keys > 0) {
    keys = coding::NullKeySet<Gf>::generate(0, source_data, spec.null_keys, rng);
  }

  // Link list: alive edges between simulated vertices, in edge-id order.
  std::vector<LinkModel::LinkEnd> links;
  for (graph::EdgeId id = 0; id < g.edge_count(); ++id) {
    const auto& e = g.edge(id);
    if (!e.alive || excluded[e.from] || excluded[e.to]) continue;
    links.push_back(LinkModel::LinkEnd{e.from, e.to});
  }
  // Round mode owns its timing: every link takes half a period, whatever
  // spec.link.latency says.
  LinkModelSpec link = spec.link;
  if (round_mode) link.latency = LatencySpec::fixed_delay(period / 2.0);
  LinkModel model(link, links, vertex_count, source, period,
                  /*random_phases=*/!round_mode, rng);

  std::vector<std::vector<std::size_t>> out_links(vertex_count);
  for (std::size_t li = 0; li < links.size(); ++li) {
    out_links[links[li].from].push_back(li);
  }

  // Horizon: enough for the information wavefront plus the generation.
  const auto depths = graph::bfs_depths(g, source);
  std::int64_t max_depth = round_mode ? 0 : 1;
  for (auto d : depths) max_depth = std::max(max_depth, d);
  std::size_t rounds = 0;
  double horizon = 0.0;
  if (round_mode) {
    rounds = spec.rounds != 0 ? spec.rounds
                              : static_cast<std::size_t>(max_depth) + 4 * gs + 4;
    // Last sends fire at rounds*period; their deliveries land in-horizon.
    horizon = (static_cast<double>(rounds) + 0.75) * period;
  } else {
    horizon = spec.horizon > 0.0
                  ? spec.horizon
                  : static_cast<double>(max_depth) * spec.link.latency.upper_bound() +
                        4.0 * static_cast<double>(gs) * period + 4.0;
  }

  // Receiver/recoding buffers and per-vertex milestone clocks.
  std::vector<coding::Decoder<Gf>> state;
  state.reserve(vertex_count);
  for (graph::Vertex v = 0; v < vertex_count; ++v) {
    state.emplace_back(0, gs, spec.symbols);
  }
  std::vector<double> first_arrival(vertex_count, -1.0);
  std::vector<double> decode_time(vertex_count, -1.0);
  std::vector<double> third_time(vertex_count, -1.0);
  std::vector<double> two_thirds_time(vertex_count, -1.0);
  const std::size_t third_rank = (gs + 2) / 3;           // ceil(g/3)
  const std::size_t two_thirds_rank = (2 * gs + 2) / 3;  // ceil(2g/3)

  // Entropy attackers freeze the first packet they receive and replay it
  // verbatim forever — formally valid traffic with zero marginal information.
  std::vector<Packet> frozen(vertex_count);
  std::vector<char> has_frozen(vertex_count, 0);

  // Behavior bookkeeping: `cur` is live state; `restore` is what a repair
  // brings back (the node's last non-crash behavior); `departed` marks
  // graceful leaves, which no repair revives.
  std::vector<NodeBehavior> restore = cur;
  std::vector<char> departed(vertex_count, 0);
  bool jam_seen = std::find(cur.begin(), cur.end(), NodeBehavior::kJammer) != cur.end();

  auto make_jam_packet = [&](Packet& p, Rng& r) {
    p.generation = 0;
    p.coeffs.resize(gs);
    p.payload.resize(spec.symbols);
    do {
      for (auto& c : p.coeffs) c = static_cast<std::uint8_t>(r.below(256));
    } while (p.is_degenerate());
    for (auto& b : p.payload) b = static_cast<std::uint8_t>(r.below(256));
  };

  // Everything runs on lane 0 of a one-shard kernel, so events fire in
  // (time, scheduling order) FIFO; with no cross-lane posts the epoch only
  // sets the window grid and never reorders or clamps anything.
  ShardedEngine kernel(1, 0, period);
  Scheduler& lane = kernel.lane(0);
  ScenarioReport report;
  PacketPool<Gf> pool;
  obs::Counter& sent_ctr = obs::metrics().counter("sim.packets_sent");
  obs::Counter& lost_ctr = obs::metrics().counter("sim.packets_lost");

  // Trace time inside a round-synchronous broadcast is the round number (the
  // old round simulator had no finer clock); free-running scenarios stamp
  // real virtual time.
  auto sync_trace = [&] {
    const double t = lane.now();
    obs::trace().set_now(round_mode ? std::floor(t) : t);
  };
  auto trace_actor = [&](graph::Vertex v) -> std::uint64_t {
    return trace_ids != nullptr ? static_cast<std::uint64_t>((*trace_ids)[v])
                                : static_cast<std::uint64_t>(v);
  };

  auto deliver = [&](std::size_t li, Packet& packet) {
    sync_trace();
    const double now = lane.now();
    if (!model.survives(li, now, rng)) {
      ++report.packets_lost;
      lost_ctr.inc();
      return;
    }
    const graph::Vertex to = model.link(li).to;
    if (cur[to] == NodeBehavior::kOffline) {  // crashed or departed mid-flight
      ++report.packets_lost;
      lost_ctr.inc();
      return;
    }
    if (first_arrival[to] < 0.0) first_arrival[to] = now;
    // Honest verifying receivers discard unverifiable packets outright.
    if (keys && cur[to] == NodeBehavior::kHonest && !keys->verify(packet)) {
      return;
    }
    if (cur[to] == NodeBehavior::kEntropyAttack && !has_frozen[to]) {
      frozen[to] = packet;  // copy: the original returns to the pool
      has_frozen[to] = 1;
    }
    if (state[to].absorb(packet)) {
      ++report.packets_innovative;
      obs::trace().emit(obs::TraceKind::kRankAdvance, trace_actor(to),
                        state[to].rank());
      const std::size_t r = state[to].rank();
      if (r == third_rank && third_time[to] < 0.0) third_time[to] = now;
      if (r == two_thirds_rank && two_thirds_time[to] < 0.0) {
        two_thirds_time[to] = now;
      }
    }
    if (state[to].complete() && decode_time[to] < 0.0) decode_time[to] = now;
  };

  // A packet in flight lands, then returns its buffers to the pool. Its
  // delivery event captures this one reference beside the link and the
  // packet, which keeps the closure inside the engine's inline callback
  // buffer (kCallbackInlineBytes).
  auto land = [&](std::size_t li, Packet& packet) {
    deliver(li, packet);
    pool.release(std::move(packet));
  };

  // One recurring send event per link; payload content is drawn at send time
  // from the sender's then-current buffer (or the encoder). A scheduled send
  // is a two-word thunk into `send`, which outlives the event loop; a copy of
  // `send` would copy its closure, too big for std::function's small buffer,
  // onto the heap once per send.
  std::function<void(std::size_t)> send;
  std::vector<TimerHandle> next_send(links.size());
  // Sends past this time could never deliver inside the horizon; not
  // scheduling them keeps the queue bounded without changing what executes.
  const double last_send_time =
      round_mode ? static_cast<double>(rounds) * period : horizon;
  auto schedule_send = [&](std::size_t li, double at) {
    return lane.schedule_at(at, [&send, li] { send(li); });
  };
  auto schedule_next = [&](std::size_t li, double at) {
    next_send[li] = at <= last_send_time ? schedule_send(li, at) : TimerHandle{};
  };

  send = [&](std::size_t li) {
    sync_trace();
    const graph::Vertex from = model.link(li).from;
    const double now = lane.now();
    Packet packet = pool.acquire();
    bool have = false;
    if (model.allow_send(li, now)) {
      if (from == source) {
        encoder.emit_into(packet, rng);
        have = true;
      } else {
        switch (cur[from]) {
          case NodeBehavior::kHonest:
            if (state[from].rank() > 0) {
              have = state[from].emit_into(packet, rng);
            }
            break;
          case NodeBehavior::kEntropyAttack:
            if (has_frozen[from]) {
              packet = frozen[from];  // copy-assign into recycled capacity
              have = true;
            }
            break;
          case NodeBehavior::kJammer:
            make_jam_packet(packet, rng);
            have = true;
            break;
          case NodeBehavior::kOffline:
            break;
        }
      }
    }
    if (have) {
      ++report.packets_sent;
      sent_ctr.inc();
      lane.schedule_in(model.latency(li),
                       [&land, li, p = std::move(packet)]() mutable {
                         land(li, p);
                       });
    } else {
      pool.release(std::move(packet));
    }
    schedule_next(li, now + period);
  };

  // Faults are scheduled before the first sends, so an equal-time fault fires
  // first (FIFO by scheduling order) — a behavior switch at t matters for
  // packets sent at t. Each event is a thunk into `apply_fault`.
  auto apply_fault = [&](const ResolvedFault& f) {
    sync_trace();
    const graph::Vertex v = f.v;
    switch (f.kind) {
      case FaultKind::kJoin:
        break;  // membership-only; a packet scenario's vertex set is fixed
      case FaultKind::kCrash:
      case FaultKind::kLeave:
        if (cur[v] != NodeBehavior::kOffline) {
          cur[v] = NodeBehavior::kOffline;
          // A dead node's send timers are useless wakeups; revoke them.
          for (const std::size_t li : out_links[v]) {
            lane.cancel(next_send[li]);
            next_send[li] = TimerHandle{};
          }
        }
        if (f.kind == FaultKind::kLeave) departed[v] = 1;
        break;
      case FaultKind::kRepair: {
        if (departed[v] || cur[v] != NodeBehavior::kOffline) break;
        cur[v] = restore[v];
        const double now = lane.now();
        for (const std::size_t li : out_links[v]) {
          // Resume on the link's own send grid: first phase + k*period
          // strictly after the repair.
          const double ph = round_mode ? 0.0 : model.phase(li);
          double steps = std::ceil((now - ph) / period);
          if (steps < 0.0) steps = 0.0;
          double at = ph + steps * period;
          if (at <= now) at += period;
          schedule_next(li, at);
        }
        break;
      }
      case FaultKind::kBehavior:
        restore[v] = f.behavior;
        if (f.behavior == NodeBehavior::kJammer) jam_seen = true;
        if (cur[v] != NodeBehavior::kOffline) cur[v] = f.behavior;
        break;
    }
  };
  for (const ResolvedFault& f : faults) {
    lane.schedule_at(f.at, [&apply_fault, f] { apply_fault(f); });
  }

  for (std::size_t li = 0; li < links.size(); ++li) {
    next_send[li] = schedule_send(li, round_mode ? period : model.phase(li));
  }

  report.events_executed = kernel.run_until(horizon);
  report.horizon = horizon;
  report.rounds = rounds;

  // End-state capacity graph: drop edges incident to vertices that ended the
  // run offline (crashed and unrepaired, or departed). With no faults this
  // is the input graph itself and the copy is skipped.
  const graph::Digraph* cap = &g;
  graph::Digraph cap_copy;
  bool any_end_offline = false;
  for (graph::Vertex v = 0; v < vertex_count; ++v) {
    if (!excluded[v] && cur[v] == NodeBehavior::kOffline) {
      any_end_offline = true;
      break;
    }
  }
  if (any_end_offline) {
    cap_copy = g;
    for (graph::EdgeId id = 0; id < cap_copy.edge_count(); ++id) {
      const auto& e = cap_copy.edge(id);
      if (e.alive && (cur[e.from] == NodeBehavior::kOffline ||
                      cur[e.to] == NodeBehavior::kOffline)) {
        cap_copy.remove_edge(id);
      }
    }
    cap = &cap_copy;
  }

  const bool check_corruption = always_check_corruption || jam_seen;
  for (graph::Vertex v = 0; v < vertex_count; ++v) {
    if (v == source || excluded[v]) continue;
    ScenarioOutcome o;
    o.vertex = v;
    o.max_flow = graph::unit_max_flow(*cap, source, v);
    o.rank_achieved = state[v].rank();
    o.decoded = state[v].complete();
    o.first_arrival = first_arrival[v];
    o.decode_time = decode_time[v];
    o.third_time = third_time[v];
    o.two_thirds_time = two_thirds_time[v];
    o.depth = depths[v];
    if (o.decoded && check_corruption) {
      o.corrupted = state[v].source_packets() != source_data;
    }
    report.outcomes.push_back(o);
  }
  return report;
}

}  // namespace

ScenarioReport run_scenario(const graph::Digraph& g, graph::Vertex source,
                            const ScenarioSpec& spec,
                            const std::vector<NodeBehavior>& behavior) {
  const std::size_t vertex_count = g.vertex_count();
  if (source >= vertex_count) {
    throw std::out_of_range("run_scenario: source");
  }
  std::vector<NodeBehavior> cur(vertex_count, NodeBehavior::kHonest);
  for (std::size_t v = 0; v < std::min(vertex_count, behavior.size()); ++v) {
    cur[v] = behavior[v];
  }
  cur[source] = NodeBehavior::kHonest;  // the source always encodes

  // In digraph scenarios the fault target id is the vertex id. Join events
  // (and events targeting plan-time joins) are membership-only: skipped.
  std::vector<ResolvedFault> faults;
  for (const FaultEvent& e : spec.faults.sorted()) {
    if (e.kind == FaultKind::kJoin || e.targets_join()) continue;
    const auto v = static_cast<graph::Vertex>(e.node);
    if (v >= vertex_count || v == source) continue;
    faults.push_back(ResolvedFault{e.at, e.kind, v, e.behavior});
  }

  const std::vector<bool> excluded(vertex_count, false);
  return run_core(g, source, spec, std::move(cur), excluded, faults,
                  /*always_check_corruption=*/false, /*trace_ids=*/nullptr);
}

ScenarioReport run_scenario(const overlay::ThreadMatrix& m,
                            const ScenarioSpec& spec,
                            const std::vector<NodeBehavior>& behavior) {
  // Rows already tagged failed in the matrix behave as offline regardless of
  // the caller-supplied behavior vector.
  auto effective = [&](overlay::NodeId n) {
    if (m.row(n).failed) return NodeBehavior::kOffline;
    return n < behavior.size() ? behavior[n] : NodeBehavior::kHonest;
  };

  // Capacity bound: treat offline nodes as failed in a copy of the matrix
  // (jammers and entropy attackers do forward, so they count as capacity).
  overlay::ThreadMatrix capacity_view = m;
  for (const overlay::NodeId n : m.order()) {
    if (effective(n) == NodeBehavior::kOffline) capacity_view.mark_failed(n);
  }
  const overlay::FlowGraph fg = build_flow_graph(capacity_view);

  const std::size_t vertex_count = fg.graph.vertex_count();
  std::vector<NodeBehavior> cur(vertex_count, NodeBehavior::kHonest);
  std::vector<bool> excluded(vertex_count, false);
  for (const overlay::NodeId n : m.order()) {
    const graph::Vertex v = fg.vertex_of(n);
    const NodeBehavior b = effective(n);
    if (b == NodeBehavior::kOffline) {
      excluded[v] = true;
    } else {
      cur[v] = b;
    }
  }

  std::vector<ResolvedFault> faults;
  for (const FaultEvent& e : spec.faults.sorted()) {
    if (e.kind == FaultKind::kJoin || e.targets_join()) continue;
    const overlay::NodeId n = e.node;
    if (n == overlay::kServerNode || n >= fg.node_vertex.size() ||
        fg.node_vertex[n] == overlay::FlowGraph::kNoVertex) {
      continue;  // unknown node or the server itself: not a valid target
    }
    const graph::Vertex v = fg.vertex_of(n);
    if (excluded[v]) continue;
    faults.push_back(ResolvedFault{e.at, e.kind, v, e.behavior});
  }

  ScenarioReport report = run_core(
      fg.graph, overlay::FlowGraph::kServerVertex, spec, std::move(cur),
      excluded, faults, /*always_check_corruption=*/true, &fg.vertex_to_node);
  for (auto& o : report.outcomes) o.node = fg.vertex_to_node[o.vertex];
  return report;
}

}  // namespace ncast::sim
