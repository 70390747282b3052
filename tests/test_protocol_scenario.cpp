// The message-plane scenario runner, and the cross-plane equivalence it must
// preserve (Lemma 1): a seeded sequence of join/leave/crash (and congestion
// offload/restore) driven through real messages over the sharded kernel's
// fabric must leave the ServerNode's thread matrix identical to the same
// sequence issued as direct CurtainServer calls. The mapping is fixed by
// construction — CurtainServer assigns ids 0,1,2,... in join order, the
// message plane assigns addresses 1,2,3,... in spawn order — so message
// address a corresponds to CurtainServer node a - 1.

#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <set>
#include <string>

#include "node/client_node.hpp"
#include "node/protocol_scenario.hpp"
#include "node/server_node.hpp"
#include "node/sharded_transport.hpp"
#include "obs/trace.hpp"
#include "overlay/curtain_server.hpp"
#include "sim/link_model.hpp"
#include "sim/sharded_engine.hpp"

namespace ncast::node {
namespace {

/// Asserts the message-plane matrix equals the direct-call matrix under the
/// address = id + 1 mapping: same curtain order, same rows, same tags.
void expect_matrix_equivalent(const overlay::ThreadMatrix& via_messages,
                              const overlay::ThreadMatrix& via_calls) {
  ASSERT_EQ(via_messages.k(), via_calls.k());
  const auto msg_order = via_messages.nodes_in_order();
  const auto call_order = via_calls.nodes_in_order();
  ASSERT_EQ(msg_order.size(), call_order.size());
  for (std::size_t i = 0; i < msg_order.size(); ++i) {
    EXPECT_EQ(msg_order[i], call_order[i] + 1) << "curtain order row " << i;
    const auto& msg_row = via_messages.row(msg_order[i]);
    const auto& call_row = via_calls.row(call_order[i]);
    EXPECT_EQ(msg_row.threads, call_row.threads) << "row of address "
                                                 << msg_order[i];
    EXPECT_EQ(msg_row.failed, call_row.failed);
  }
}

/// A small, quiet baseline: ideal fixed-latency links, content short enough
/// to decode, silence timers generous enough that nothing complains.
ProtocolScenarioSpec quiet_spec(std::uint64_t seed) {
  ProtocolScenarioSpec spec;
  spec.k = 6;
  spec.default_degree = 2;
  spec.generations = 2;
  spec.generation_size = 8;
  spec.symbols = 8;
  spec.silence_timeout = 12;
  spec.repair_delay = 2.0;
  spec.seed = seed;
  return spec;
}

TEST(ProtocolScenario, HappyPathJoinsAndDecodes) {
  ProtocolScenarioSpec spec = quiet_spec(21);
  spec.faults.join_burst(1.0, 6, 1.0);

  const auto report = run_scenario_sharded(spec, 1, 0);

  ASSERT_EQ(report.outcomes.size(), 6u);
  for (const auto& o : report.outcomes) {
    EXPECT_TRUE(o.joined) << "address " << o.address;
    EXPECT_TRUE(o.decoded) << "address " << o.address;
    EXPECT_EQ(o.join_retries, 0u);  // nothing is lost on ideal links
    EXPECT_GE(o.join_latency, 2.0);  // hello out + accept back, 1.0 each way
  }
  EXPECT_DOUBLE_EQ(report.decoded_fraction(), 1.0);
  EXPECT_EQ(report.total_complaints(), 0u);
  EXPECT_EQ(report.repairs_done, 0u);
  EXPECT_EQ(report.messages_dropped, 0u);
  EXPECT_EQ(report.matrix.row_count(), 6u);
}

TEST(ProtocolScenario, CrossPlaneEquivalenceJoinsAndLeaves) {
  // Message plane: 8 arrivals at distinct times, then two good-byes.
  ProtocolScenarioSpec spec = quiet_spec(31);
  spec.faults.join_burst(1.0, 8, 1.0);
  spec.faults.leave_join_at(20.0, 2).leave_join_at(24.0, 5);

  const auto report = run_scenario_sharded(spec, 1, 0);

  // Guard the comparison: no complaint fired, so the only matrix mutations
  // were the planned joins and leaves.
  EXPECT_EQ(report.total_complaints(), 0u);
  EXPECT_EQ(report.repairs_done, 0u);
  for (const auto& o : report.outcomes) EXPECT_TRUE(o.joined);

  // Direct plane: the same sequence as CurtainServer calls on the same seed.
  overlay::CurtainServer direct(spec.k, spec.default_degree, Rng(spec.seed));
  for (int i = 0; i < 8; ++i) direct.join();
  direct.leave(2);
  direct.leave(5);

  expect_matrix_equivalent(report.matrix, direct.matrix());
}

TEST(ProtocolScenario, CrossPlaneEquivalenceCrashAndRepair) {
  // Crash the first joiner once the overlay is deep enough that it has
  // children on its columns; their complaints must drive a repair whose
  // splice leaves the matrix exactly as report_failure + repair would.
  ProtocolScenarioSpec spec = quiet_spec(41);
  spec.k = 6;
  spec.default_degree = 3;
  spec.silence_timeout = 8;
  spec.faults.join_burst(1.0, 10, 1.0);
  spec.faults.crash_join_at(40.0, 0);

  const auto report = run_scenario_sharded(spec, 1, 0);

  // Exactly one repair: the crashed node's. A cascade (children of a starved
  // node complaining about it) would show up as extra repairs here.
  EXPECT_EQ(report.repairs_done, 1u);
  EXPECT_GE(report.total_complaints(), 1u);
  EXPECT_GT(report.last_repair_time, 40.0);

  overlay::CurtainServer direct(spec.k, spec.default_degree, Rng(spec.seed));
  for (int i = 0; i < 10; ++i) direct.join();
  direct.report_failure(0);  // address 1 <-> CurtainServer node 0
  direct.repair(0);

  expect_matrix_equivalent(report.matrix, direct.matrix());
}

TEST(ProtocolScenario, CrossPlaneEquivalenceCongestion) {
  // Section 5's congestion adaptation is a matrix mutation too: clients
  // joined one at a time, then a seeded sequence of offload/restore
  // requests, must leave the server's matrix exactly as the same
  // congestion_offload/congestion_restore calls leave a CurtainServer —
  // refusals included (no offload below degree 1).
  ServerConfig scfg;
  scfg.k = 6;
  scfg.default_degree = 2;
  scfg.generation_size = 8;
  scfg.symbols = 8;
  scfg.seed = 43;
  ClientConfig ccfg;
  ccfg.silence_timeout = 12;
  sim::ShardedEngine engine(1, 0, 1.0);
  ShardedTransport net(engine, TransportSpec{}, scfg.seed, 16);
  ServerNode server(scfg, std::vector<std::uint8_t>(128, 5));
  server.start(engine.lane(kServerAddress), net);
  overlay::CurtainServer direct(scfg.k, scfg.default_degree, Rng(scfg.seed));

  double now = 0.0;
  const auto run = [&](double span) {
    now += span;
    engine.run_until(now);
  };
  std::vector<std::unique_ptr<ClientNode>> clients;
  for (Address a = 1; a <= 8; ++a) {
    clients.push_back(std::make_unique<ClientNode>(a, ccfg));
    clients.back()->start(engine.lane(a), net);
    direct.join();
    run(3.0);
  }

  Rng ops(0xC0);
  std::size_t refused = 0;
  for (int i = 0; i < 40; ++i) {
    const std::size_t who = ops.below(clients.size());
    const auto node = static_cast<overlay::NodeId>(who);  // address who + 1
    if (ops.chance(0.6)) {
      clients[who]->request_offload(net);
      refused += direct.congestion_offload(node).has_value() ? 0 : 1;
    } else {
      clients[who]->request_restore(net);
      refused += direct.congestion_restore(node).has_value() ? 0 : 1;
    }
    run(3.0);
  }
  ASSERT_GT(refused, 0u);  // the sequence exercises a refusal

  // Guard the comparison: no complaint fired, so the only matrix mutations
  // were the joins and the congestion requests.
  for (const auto& c : clients) EXPECT_EQ(c->complaints_sent(), 0u);
  EXPECT_EQ(server.repairs_done(), 0u);
  EXPECT_TRUE(server.matrix().check_invariants());
  expect_matrix_equivalent(server.matrix(), direct.matrix());
}

// The parent-side view of the curtain: once a loss-free control plane is
// quiet, every live client's out-link table is exactly its row's down-links,
// and the server's is the first clipper of each column — after joins,
// good-byes, crash repairs, late joins, and every one of a seeded run of
// offload/restore requests.
void expect_out_links_match_the_matrix(std::uint32_t k) {
  ServerConfig scfg;
  scfg.k = k;
  scfg.default_degree = 3;
  scfg.repair_delay = 2.0;
  scfg.generation_size = 8;
  scfg.symbols = 8;
  scfg.seed = 47;
  ClientConfig ccfg;
  ccfg.silence_timeout = 6;
  constexpr Address kClients = 42;  // 40 at first, then two late joins
  sim::ShardedEngine engine(1, 0, 1.0);
  ShardedTransport net(engine, TransportSpec{}, scfg.seed, kClients + 1);
  ServerNode server(scfg, std::vector<std::uint8_t>(256, 7));
  server.start(engine.lane(kServerAddress), net);

  double now = 0.0;
  const auto run = [&](double span) {
    now += span;
    engine.run_until(now);
  };
  std::vector<std::unique_ptr<ClientNode>> clients;
  for (Address a = 1; a <= kClients; ++a) {
    clients.push_back(std::make_unique<ClientNode>(a, ccfg));
  }
  const auto live = [&](Address a) {
    return !clients[a - 1]->crashed() && !clients[a - 1]->departed();
  };
  const auto expect_links_match = [&](const std::string& when) {
    const overlay::ThreadMatrix& m = server.matrix();
    std::map<LinkId, Address> first_clipper;
    for (const overlay::NodeId n : m.order()) {
      for (const overlay::ColumnId c : m.row(n).threads) {
        first_clipper.emplace(c, n);
      }
    }
    EXPECT_EQ(server.links(), first_clipper) << when;
    for (Address a = 1; a <= kClients; ++a) {
      if (!live(a) || !clients[a - 1]->joined()) continue;
      ASSERT_TRUE(m.contains(a)) << when << ", address " << a;
      std::map<LinkId, Address> below;
      const overlay::Row row = m.row(a);
      for (std::size_t i = 0; i < row.threads.size(); ++i) {
        if (row.down[i] != overlay::kNoNode) below[row.threads[i]] = row.down[i];
      }
      EXPECT_EQ(clients[a - 1]->links(), below) << when << ", address " << a;
    }
    EXPECT_EQ(server.repairs_done(), 2u) << when;  // the two crashes only
  };

  for (Address a = 1; a <= 40; ++a) clients[a - 1]->start(engine.lane(a), net);
  run(20.0);
  clients[6]->leave(net);   // address 7
  clients[20]->leave(net);  // address 21
  for (const Address a : {3u, 15u}) {
    clients[a - 1]->crash();
    net.crash(a);
  }
  for (Address a = 41; a <= kClients; ++a) {
    clients[a - 1]->start(engine.lane(a), net);
  }
  run(40.0);
  expect_links_match("after membership");

  Rng ops(0xC1);
  for (int i = 0; i < 30; ++i) {
    Address a = 0;
    while (a == 0 || !live(a)) a = static_cast<Address>(1 + ops.below(kClients));
    if (ops.chance(0.6)) {
      clients[a - 1]->request_offload(net);
    } else {
      clients[a - 1]->request_restore(net);
    }
    run(3.0);
    expect_links_match("after request " + std::to_string(i));
  }
}

TEST(ProtocolScenario, OutLinksMatchTheMatrixAtQuiescence) {
  // Past k = 64, columns c and c + 64 share a signature bit: for c < 8 at
  // k = 72, for every column at k = 128. At k = 128 this run's restores
  // meet rows below that clip a column's partner before the column itself,
  // so a link search that trusted the signature would fail here.
  for (const std::uint32_t k : {8u, 72u, 128u}) {
    SCOPED_TRACE("k = " + std::to_string(k));
    expect_out_links_match_the_matrix(k);
  }
}

TEST(ProtocolScenario, FractionalRepairDelayIsKept) {
  // The complaint-to-splice delay is a time like any other: a spec's 2.5
  // splices half a unit later than 2.0, not at 2.0.
  const auto last_repair = [](double delay) {
    ProtocolScenarioSpec spec = quiet_spec(41);
    spec.default_degree = 3;
    spec.silence_timeout = 8;
    spec.repair_delay = delay;
    spec.faults.join_burst(1.0, 10, 1.0);
    spec.faults.crash_join_at(40.0, 0);
    const auto report = run_scenario_sharded(spec, 1, 0);
    EXPECT_EQ(report.repairs_done, 1u);
    return report.last_repair_time;
  };
  EXPECT_DOUBLE_EQ(last_repair(2.5) - last_repair(2.0), 0.5);
}

TEST(ProtocolScenario, JoinRetriesPushHellosThroughLossyControlLinks) {
  ProtocolScenarioSpec spec = quiet_spec(51);
  spec.transport.control_loss = sim::LossSpec::bernoulli(0.4);
  spec.join_retry = 3.0;
  // Retries back off exponentially (capped), so the auto-sized horizon only
  // leaves a handful of attempts; give the capped-backoff phase room to land
  // a hello+accept pair through the 40% loss.
  spec.horizon = 400.0;
  spec.faults.join_burst(1.0, 8, 2.0);

  const auto report = run_scenario_sharded(spec, 1, 0);

  // 40% control loss eats hellos and accepts; the retry timer must carry
  // every client through anyway.
  for (const auto& o : report.outcomes) {
    EXPECT_TRUE(o.joined) << "address " << o.address;
  }
  EXPECT_GT(report.total_join_retries(), 0u);
  EXPECT_GT(report.control_dropped, 0u);
}

TEST(ProtocolScenario, RepairConvergesUnderControlLoss) {
  ProtocolScenarioSpec spec = quiet_spec(61);
  spec.default_degree = 3;
  spec.silence_timeout = 8;
  spec.transport.control_loss = sim::LossSpec::bernoulli(0.1);
  spec.faults.join_burst(1.0, 10, 1.0);
  spec.faults.crash_join_at(40.0, 0);

  const auto report = run_scenario_sharded(spec, 1, 0);

  // Complaints retransmit with backoff until one lands, so the repair may be
  // late but must not be lost.
  EXPECT_GE(report.repairs_done, 1u);
  EXPECT_GT(report.last_repair_time, 40.0);
  EXPECT_FALSE(report.matrix.contains(1));  // the crashed row was spliced out
}

TEST(ProtocolScenario, FalsePositiveRepairReadmitsTheEvictedNode) {
  // Under control loss an attach can vanish, starving a child whose
  // complaints then convict a perfectly healthy parent: the server splices
  // the parent out while it is still alive and streaming. The parent's own
  // complaints — proof of life — must win it re-admission through the join
  // path instead of being dropped on the floor, or it starves forever.
  // This configuration produced permanent orphans before re-admission
  // existed (decoded fraction stuck at ~0.9 regardless of horizon).
  ProtocolScenarioSpec spec;
  spec.k = 12;
  spec.default_degree = 3;
  spec.generations = 2;
  spec.generation_size = 16;
  spec.symbols = 8;
  spec.silence_timeout = 8;
  spec.repair_delay = 2.0;
  spec.join_retry = 4.0;
  spec.seed = 0xE230;
  spec.horizon = 800.0;
  spec.transport.latency = sim::LatencySpec::uniform(0.5, 1.5);
  spec.transport.control_loss = sim::LossSpec::bernoulli(0.10);
  spec.faults.join_burst(1.0, 12, 1.0);
  spec.faults.crash_join_at(50.0, 0);
  spec.faults.crash_join_at(55.0, 1);

  const auto report = run_scenario_sharded(spec, 4, 2);

  EXPECT_EQ(report.decoded_fraction(), 1.0);
  for (const auto& o : report.outcomes) {
    if (o.crashed) continue;
    EXPECT_TRUE(o.joined) << "address " << o.address;
    // Nobody healthy may end the run evicted: a false-positive repair must
    // be undone by re-admission, not left as a permanent hole.
    EXPECT_TRUE(report.matrix.contains(o.address)) << "address " << o.address;
  }
}

TEST(ProtocolScenario, LeaveOfCrashedClientIsIgnored) {
  // A leave scheduled after a crash must not send a good-bye from the grave.
  ProtocolScenarioSpec spec = quiet_spec(71);
  spec.faults.join_burst(1.0, 4, 1.0);
  spec.faults.crash_join_at(20.0, 3);
  spec.faults.leave_join_at(25.0, 3);

  const auto report = run_scenario_sharded(spec, 1, 0);
  ASSERT_EQ(report.outcomes.size(), 4u);
  EXPECT_TRUE(report.outcomes[3].crashed);
  EXPECT_FALSE(report.outcomes[3].departed);
}

#if NCAST_OBS_ENABLED

TEST(ProtocolScenarioTrace, LossyJoinChainReconstructsBySpanId) {
  // The tentpole's acceptance shape: under control loss, at least one join
  // episode's full retry chain — hello retransmission(s), the accept
  // delivery, the node's first rank advance — must group under one span id
  // in the process trace, with nothing but the span linking the pieces.
  obs::trace().clear();
  ProtocolScenarioSpec spec = quiet_spec(51);
  spec.transport.control_loss = sim::LossSpec::bernoulli(0.4);
  spec.join_retry = 3.0;
  spec.faults.join_burst(1.0, 8, 2.0);
  const auto report = run_scenario_sharded(spec, 1, 0);
  ASSERT_GT(report.total_join_retries(), 0u);

  struct Chain {
    bool retried = false, accepted = false, advanced = false;
  };
  std::map<obs::SpanId, Chain> chains;
  for (const auto& e : obs::trace().events_in_order()) {
    if (e.span == obs::kNoSpan) continue;
    if (e.kind == obs::TraceKind::kMsgRetry &&
        e.b == static_cast<std::uint64_t>(MessageType::kJoinRequest)) {
      chains[e.span].retried = true;
    } else if (e.kind == obs::TraceKind::kMsgDeliver &&
               e.b == static_cast<std::uint64_t>(MessageType::kJoinAccept)) {
      chains[e.span].accepted = true;
    } else if (e.kind == obs::TraceKind::kRankAdvance) {
      chains[e.span].advanced = true;
    }
  }
  bool complete = false;
  for (const auto& [span, c] : chains) {
    if (c.retried && c.accepted && c.advanced) complete = true;
  }
  EXPECT_TRUE(complete)
      << "no join span carries retry + accept + rank advance";
}

TEST(ProtocolScenarioTrace, RepairSpanIsParentedOnTheComplaint) {
  // The complaint/repair cycle as a span tree: the client opens a complaint
  // span, its complaint message carries it, and the server's repair span is
  // born with that span as parent and closes when the splice completes.
  obs::trace().clear();
  ProtocolScenarioSpec spec = quiet_spec(41);
  spec.default_degree = 3;
  spec.silence_timeout = 8;
  spec.faults.join_burst(1.0, 10, 1.0);
  spec.faults.crash_join_at(40.0, 0);
  const auto report = run_scenario_sharded(spec, 1, 0);
  ASSERT_EQ(report.repairs_done, 1u);

  std::set<obs::SpanId> complaint_spans;
  obs::SpanId repair_span = obs::kNoSpan;
  obs::SpanId repair_parent = obs::kNoSpan;
  bool repair_closed = false;
  for (const auto& e : obs::trace().events_in_order()) {
    if (e.kind == obs::TraceKind::kSpanBegin && e.detail == "complaint") {
      complaint_spans.insert(e.span);
    } else if (e.kind == obs::TraceKind::kSpanBegin && e.detail == "repair") {
      repair_span = e.span;
      repair_parent = e.parent;
    } else if (e.kind == obs::TraceKind::kSpanEnd && e.detail == "repair" &&
               e.span == repair_span) {
      repair_closed = true;
    }
  }
  ASSERT_FALSE(complaint_spans.empty());
  ASSERT_NE(repair_span, obs::kNoSpan);
  // Several children may complain about the same dead parent; the repair is
  // parented on whichever complaint reached the server first.
  EXPECT_TRUE(complaint_spans.count(repair_parent))
      << "repair parent " << repair_parent << " is not a complaint span";
  EXPECT_TRUE(repair_closed);
}

TEST(ProtocolScenarioTrace, AbandonedComplaintSpansAreClosed) {
  // Children of a crashed parent open complaint spans, then leave before
  // the repair restores their feed. Leaving abandons the outage, so it must
  // end the span: every complaint span begun is also ended.
  obs::trace().clear();
  ProtocolScenarioSpec spec = quiet_spec(41);
  spec.silence_timeout = 8;
  spec.faults.join_burst(1.0, 10, 1.0);
  spec.faults.crash_join_at(40.0, 0);
  for (std::uint32_t j = 1; j < 10; ++j) spec.faults.leave_join_at(49.5, j);
  run_scenario_sharded(spec, 1, 0);

  std::set<obs::SpanId> begun, ended;
  for (const auto& e : obs::trace().events_in_order()) {
    if (e.detail != "complaint") continue;
    if (e.kind == obs::TraceKind::kSpanBegin) begun.insert(e.span);
    if (e.kind == obs::TraceKind::kSpanEnd) ended.insert(e.span);
  }
  ASSERT_FALSE(begun.empty());
  EXPECT_EQ(ended, begun);
}

TEST(ProtocolScenarioTrace, SpanFieldDoesNotChangeControlBytes) {
  // Message::span is telemetry context, not wire payload: the byte
  // accounting (and with it every gossip-overhead claim) must be identical
  // whether or not an episode stamped its messages.
  Message m;
  m.type = MessageType::kComplaint;
  const std::size_t before = m.control_size();
  m.span = 12345;
  EXPECT_EQ(m.control_size(), before);
}

#endif  // NCAST_OBS_ENABLED

}  // namespace
}  // namespace ncast::node
