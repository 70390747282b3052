#pragma once
// Layer 1 of the simulation kernel (docs/architecture.md): the scheduling
// surface every higher layer programs against — an abstract Scheduler with
// cancellable timer handles and TimerClass profiling tags — plus the
// deterministic per-run RNG stream splitter every higher layer draws from.
//
// The one engine behind a Scheduler is the sharded kernel
// (sim/sharded_engine.hpp), through its per-lane adapters. Protocol
// endpoints each get a lane; the scenario runner schedules its sends,
// deliveries and fault events, and the churn executor its joins, departures,
// failures and repairs, on lane 0 of a one-shard engine.

#include <cstddef>
#include <cstdint>
#include <utility>

#include "sim/inline_function.hpp"
#include "util/rng.hpp"

namespace ncast::sim {

using SimTime = double;

/// Classifies a scheduled callback for the engine's sampled per-handler
/// profiling: each class gets its own wall-time histogram
/// (engine.handler_<class>_ns), so a slow scenario can be attributed to
/// message delivery vs serve loops vs repair machinery without a profiler.
/// Purely observational — scheduling order never depends on the class.
enum class TimerClass : std::uint8_t {
  kGeneric = 0,  ///< unclassified callbacks (default)
  kDelivery,     ///< transport message delivery
  kServe,        ///< endpoint periodic serve/recode loops
  kEmit,         ///< server direct-emission ticks
  kJoinRetry,    ///< hello retransmission timers
  kSilence,      ///< feed-silence complaint timers
  kRepair,       ///< scheduled repair executions
  kFault,        ///< fault-plan replay events (join/leave/crash)
};
inline constexpr std::size_t kTimerClassCount = 8;

inline const char* to_string(TimerClass klass) {
  switch (klass) {
    case TimerClass::kGeneric: return "generic";
    case TimerClass::kDelivery: return "delivery";
    case TimerClass::kServe: return "serve";
    case TimerClass::kEmit: return "emit";
    case TimerClass::kJoinRetry: return "join_retry";
    case TimerClass::kSilence: return "silence";
    case TimerClass::kRepair: return "repair";
    case TimerClass::kFault: return "fault";
  }
  return "unknown";
}

/// Handle for a scheduled event; pass to Scheduler::cancel() to revoke it.
/// Value-copyable and cheap; a default-constructed handle refers to nothing.
/// (slot, gen) name the engine's slab entry — gen disambiguates a reused
/// slot so stale handles cancel nothing; lane routes sharded-kernel cancels.
struct TimerHandle {
  static constexpr std::uint64_t kInvalid = static_cast<std::uint64_t>(-1);
  std::uint64_t seq = kInvalid;
  std::uint32_t slot = 0;
  std::uint32_t gen = 0;
  std::uint32_t lane = 0;
  bool valid() const { return seq != kInvalid; }
};

/// Deterministic per-run RNG stream splitter. Each tagged stream is an
/// independent-looking generator derived from (run seed, tag) alone, so the
/// number of draws one subsystem makes cannot shift another subsystem's
/// sequence — the property that keeps composed scenarios (loss x latency x
/// churn x attacks) seed-stable as features toggle on and off.
class RngStreams {
 public:
  explicit RngStreams(std::uint64_t run_seed) : run_seed_(run_seed) {}

  /// Stream for a numeric tag. Streams for distinct tags are uncorrelated.
  Rng stream(std::uint64_t tag) const {
    // splitmix64-style finalizer over the (seed, tag) pair; Rng::reseed runs
    // the state through splitmix again, so even adjacent tags decorrelate.
    std::uint64_t z = run_seed_ ^ (tag * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return Rng(z ^ (z >> 31));
  }

  /// Stream for a string tag (FNV-1a over the bytes, then split).
  Rng stream(const char* tag) const {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const char* p = tag; *p != '\0'; ++p) {
      h = (h ^ static_cast<unsigned char>(*p)) * 0x100000001b3ULL;
    }
    return stream(h);
  }

  std::uint64_t run_seed() const { return run_seed_; }

 private:
  std::uint64_t run_seed_;
};

/// Inline capacity for scheduled callbacks. The engine keeps every pending
/// event in a 112-byte slab slot, one Callback (72 + an 8-byte ops pointer
/// = 80 B) plus the event's queue key, so this constant sets most of the
/// memory of every scheduled event: the 1M-client join wave holds about a
/// million at once. It is sized to the largest hot closure, the transport's
/// delivery closure (`this` plus a 64-byte node::Message by value;
/// sharded_transport.cpp pins the fit). The packet-level runner's in-flight
/// packet closure (a context reference, the link and a 56-byte packet) fits
/// exactly too. Any larger or throwing-move capture still works through
/// InlineFunction's heap fallback, one allocation per event, and is counted
/// in engine.callback_heap_boxes.
inline constexpr std::size_t kCallbackInlineBytes = 72;

/// Abstract scheduling surface endpoints program against, implemented by
/// the sharded kernel's per-lane adapters; protocol code holds a Scheduler*
/// and never needs to know which lane or shard it is running on.
class Scheduler {
 public:
  using Callback = InlineFunction<kCallbackInlineBytes>;

  virtual ~Scheduler() = default;

  virtual SimTime now() const = 0;

  /// Schedules `fn` to run at absolute time `at` (must be >= now()). The
  /// optional class tags the callback for sampled handler profiling; it has
  /// no effect on execution order.
  virtual TimerHandle schedule_at(SimTime at, Callback fn,
                                  TimerClass klass = TimerClass::kGeneric) = 0;

  /// Revokes a scheduled event. Returns true iff the event was still pending;
  /// a cancelled event never runs and is not counted as executed. Returns
  /// false for invalid handles, already-fired events, and double cancels.
  virtual bool cancel(TimerHandle handle) = 0;

  /// Schedules `fn` after a delay (must be >= 0).
  TimerHandle schedule_in(SimTime delay, Callback fn,
                          TimerClass klass = TimerClass::kGeneric) {
    return schedule_at(now() + delay, std::move(fn), klass);
  }
};

}  // namespace ncast::sim
