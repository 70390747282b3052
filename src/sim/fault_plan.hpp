#pragma once
// Layer 2b of the simulation kernel: the fault plan. A FaultPlan is a
// time-ordered schedule of adversity — joins, graceful leaves, crashes,
// repairs, and behavior switches (generalizing the static NodeBehavior
// vector the round simulator used to take). Plans compose with any topology
// and any link model: the packet-level scenario runner turns crash/repair/
// behavior entries into mid-broadcast state changes, and the membership
// (churn) executor turns join/leave/crash/repair entries into CurtainServer
// protocol calls. The Poisson churn process of Section 3 is just a generated
// plan — churn no longer owns its own event loop.

#include <cstdint>
#include <vector>

#include "overlay/thread_matrix.hpp"
#include "util/rng.hpp"

namespace ncast::sim {

/// What a node does with the packets it should be forwarding.
enum class NodeBehavior : std::uint8_t {
  kHonest = 0,         ///< recodes properly (random linear combinations)
  kOffline = 1,        ///< sends nothing (failure / failure attack)
  kEntropyAttack = 2,  ///< forwards the same trivial combination every round
  kJammer = 3,         ///< injects well-formed packets with garbage contents
};

enum class FaultKind : std::uint8_t {
  kJoin = 0,      ///< membership: a newcomer joins (target assigned at run time)
  kLeave = 1,     ///< graceful departure
  kCrash = 2,     ///< non-ergodic failure (silent until repaired)
  kRepair = 3,    ///< completes a crash's repair
  kBehavior = 4,  ///< switches a node's packet behavior (attack on/off)
};

/// One scheduled fault. Targets either a concrete node id, or — for events
/// generated together with a kJoin whose node id is only known at run time —
/// the node created by join event number `join_ref`.
struct FaultEvent {
  static constexpr std::uint32_t kNoJoinRef = static_cast<std::uint32_t>(-1);

  double at = 0.0;
  FaultKind kind = FaultKind::kCrash;
  overlay::NodeId node = overlay::kServerNode;  ///< target, unless join_ref set
  std::uint32_t join_ref = kNoJoinRef;
  NodeBehavior behavior = NodeBehavior::kHonest;  ///< kBehavior payload

  bool targets_join() const { return join_ref != kNoJoinRef; }
};

/// Parameters for the generated Poisson churn process (Section 3 life cycle).
/// Times are in abstract repair-interval units; ChurnConfig extends this.
struct ChurnProcessSpec {
  double arrival_rate = 10.0;        ///< Poisson joins per unit time
  double mean_lifetime = 100.0;      ///< exponential session length
  double failure_fraction = 0.1;     ///< probability a departure is a crash
  double repair_delay = 1.0;         ///< time from crash to repair completion
  double horizon = 200.0;            ///< stop generating arrivals here
};

/// A composable, sorted-on-demand schedule of fault events.
class FaultPlan {
 public:
  /// --- Builders (each returns *this for chaining) ---
  FaultPlan& crash_at(double t, overlay::NodeId node);
  FaultPlan& leave_at(double t, overlay::NodeId node);
  FaultPlan& repair_at(double t, overlay::NodeId node);
  FaultPlan& behavior_at(double t, overlay::NodeId node, NodeBehavior behavior);
  /// Behavior in force from the start of the run (t = 0).
  FaultPlan& behavior_from_start(overlay::NodeId node, NodeBehavior behavior);

  /// Adds a join; returns its join_ref for targeting the created node later.
  std::uint32_t join_at(double t);
  /// Adds `count` joins starting at `t0`, spaced `spacing` apart; returns
  /// the join_ref of the first (the rest follow consecutively). Convenience
  /// for arrival waves — e.g. the message-plane scenario runner's join
  /// bursts in bench_control_loss.
  std::uint32_t join_burst(double t0, std::uint32_t count, double spacing);
  FaultPlan& leave_join_at(double t, std::uint32_t join_ref);
  FaultPlan& crash_join_at(double t, std::uint32_t join_ref);
  FaultPlan& repair_join_at(double t, std::uint32_t join_ref);

  /// Appends another plan's events (join_refs are re-based).
  FaultPlan& merge(const FaultPlan& other);

  /// Generates the full Section 3 membership life cycle: Poisson arrivals,
  /// exponential lifetimes, crash-vs-leave draws, and delayed repairs. All
  /// draws happen here, up front, from `rng` — the executor consumes the
  /// plan without touching the process RNG.
  static FaultPlan poisson_churn(const ChurnProcessSpec& spec, Rng rng);

  bool empty() const { return events_.empty(); }
  std::size_t size() const { return events_.size(); }
  std::size_t join_count() const { return join_count_; }

  /// Events stably sorted by time (equal-time events keep insertion order).
  std::vector<FaultEvent> sorted() const;

  const std::vector<FaultEvent>& events() const { return events_; }

 private:
  FaultPlan& push(double t, FaultKind kind, overlay::NodeId node,
                  std::uint32_t join_ref, NodeBehavior behavior);

  std::vector<FaultEvent> events_;
  std::uint32_t join_count_ = 0;
};

}  // namespace ncast::sim
