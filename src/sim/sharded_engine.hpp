#pragma once
// Layer 1 of the simulation kernel (docs/architecture.md): the one
// discrete-event engine every runner executes on, implementing the
// Scheduler surface of sim/event_engine.hpp. Events belong to *lanes* —
// logical entities, e.g. one lane per protocol endpoint — and lanes are
// statically partitioned across shards (lane % shards). Each shard owns a
// private calendar queue and callback slab, so shards execute an epoch's
// events with no shared mutable state; cross-lane messages are buffered in
// per-shard outboxes and merged serially at the epoch barrier. The
// packet-level scenario runner and the churn executor schedule everything
// on lane 0 of a one-shard engine: one lane never posts across lanes, so
// nothing clamps and the order is plain (time, scheduling order) FIFO.
//
// Determinism contract (docs/architecture.md, "Sharded kernel"): results
// are a pure function of the scheduled workload — independent of both the
// shard count and the worker-thread count. Three rules make that hold:
//
//   1. Total order. Every event carries a (time, lane, lane_seq) key; a
//      shard's queue pops in that order, and since lanes never share
//      mutable state, any interleaving of *different* lanes' equal-time
//      events is observationally equivalent — the per-lane order is what
//      matters, and it is fixed by lane_seq alone.
//   2. Same-lane immediacy, cross-lane barriers. A handler scheduling onto
//      its own lane gets the next lane_seq immediately (execution order is
//      deterministic per lane). A handler posting to *any other* lane —
//      even one on the same shard — goes through its shard's outbox tagged
//      (at, src_lane, src_emit_seq); at the barrier all outboxes merge in
//      sorted tag order and destination lane_seqs are assigned in that
//      order. The tag never mentions shards, so the merge is
//      shard-count-invariant.
//   3. Conservative windows. Epochs are [start, start+epoch) windows on a
//      fixed grid (the final window closes inclusively at the horizon). A
//      cross-lane post whose arrival time falls inside the window that
//      emitted it is clamped to the window end (counted in
//      engine.shard_clamped) — the lane-based rule applies even with one
//      shard, so shrinking the shard count cannot un-clamp an event. Pick
//      epoch <= the minimum cross-lane latency and nothing ever clamps.
//
// Workers: shard s runs on worker s % workers; workers == 0 executes
// inline on the calling thread (identical results — rule 1). Cancellation
// is lane-local: only the lane that scheduled an event may cancel it, and
// cross-lane posts return an invalid handle.
//
// Queue: a calendar of epoch-wide cells (Brown, CACM 1988). Cell c covers
// [c*epoch, (c+1)*epoch). An event waits in one of three places on its
// shard: `near`, a binary heap of (at, lane, seq) keys, holds every event
// whose cell is at most the open cell; `ring` holds one list per later cell
// below base + kRingCells; `far` one list for the cells from there on. When
// `near` empties, the next non-empty ring cell's list moves into it and is
// heapified. When the ring runs dry too, `base` moves to `far`'s earliest
// cell and `far` is re-filed from there. `base` moves only while `near` and
// the ring are empty, so every event outside `near` lies in a later cell
// than every event in `near`, every ring event in an earlier cell than
// every `far` event, the heap's top is the shard's next event and the pop
// order is exact. A pop costs the depth of one cell's heap, not of every
// pending event. An event in the ring is moved once, into `near`; one in
// `far` is walked again at each restart of the ring's span until its cell
// falls within it, and restarts lie at least kRingCells cells apart.
//
// Memory: a pending event costs one 112-byte slab slot: its callback (an
// empty callback marks a cancelled event), its (at, lane, seq) key, its
// class, its generation and the link that threads it through a calendar
// list or the free list; while it sits in `near` it also has a 24-byte
// entry there. The slab grows by fixed 112 KiB chunks and never moves a
// slot, and waiting events are linked through their slots, so only `near`
// grows by doubling: to the open cell's population, plus every event
// scheduled below a cell that is already open (after a run whose last look
// opened a distant cell, the next set-up's nearer schedules all join
// `near`'s heap). A callback too large for the slot's inline buffer is boxed
// on the heap and counted in engine.callback_heap_boxes.
//
// Profiling: one in 64 events each shard executes is wall-timed into the
// engine.handler_<class>_ns histogram of its TimerClass. Sampling is purely
// observational; it never feeds scheduling.

#include <array>
#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "sim/event_engine.hpp"

#include <condition_variable>
#include <mutex>
#include <thread>

namespace ncast::sim {

using LaneId = std::uint32_t;

class ShardedEngine;

/// Thin Scheduler adapter binding a lane id: endpoints hold a Scheduler*
/// and never know they are running on the sharded kernel. Obtain via
/// ShardedEngine::lane() (setup phase only); stable address for the
/// engine's lifetime.
class LaneScheduler final : public Scheduler {
 public:
  LaneScheduler(ShardedEngine* engine, LaneId lane)
      : engine_(engine), lane_(lane) {}

  SimTime now() const override;
  TimerHandle schedule_at(SimTime at, Callback fn,
                          TimerClass klass = TimerClass::kGeneric) override;
  bool cancel(TimerHandle handle) override;

 private:
  ShardedEngine* engine_;
  LaneId lane_;
};

class ShardedEngine {
 public:
  using Callback = Scheduler::Callback;

  /// `shards`: number of event queues (>= 1). `workers`: worker threads; 0
  /// executes every shard inline on the caller. `epoch`: conservative
  /// lookahead window (> 0); cross-lane posts land no earlier than the end
  /// of the window that emitted them.
  explicit ShardedEngine(std::uint32_t shards, std::uint32_t workers = 0,
                         SimTime epoch = 0.5);
  ~ShardedEngine();

  ShardedEngine(const ShardedEngine&) = delete;
  ShardedEngine& operator=(const ShardedEngine&) = delete;

  std::uint32_t shards() const { return static_cast<std::uint32_t>(shards_v_.size()); }
  std::uint32_t workers() const { return workers_; }
  SimTime epoch() const { return epoch_; }
  std::uint32_t shard_of(LaneId lane) const { return lane % shards(); }

  /// Inside a handler: the executing shard's current event time. Outside a
  /// run: the global cursor (last window boundary reached).
  SimTime now() const;

  /// Pre-grows per-lane bookkeeping (and may be called once up front for
  /// large fleets to avoid growth during setup). Setup phase only.
  void reserve_lanes(std::size_t lanes);

  /// The lane's Scheduler adapter, created on first use. Setup phase only
  /// (not thread-safe against running workers); the reference stays valid
  /// for the engine's lifetime.
  Scheduler& lane(LaneId lane);

  /// Schedules onto a lane. From the lane's own handler this is immediate
  /// and cancellable; from another lane's handler it is a buffered
  /// cross-lane post (invalid handle, sequenced at the barrier); from
  /// outside a run it enqueues directly (setup phase). Throws
  /// std::invalid_argument on an empty callback.
  TimerHandle schedule_on(LaneId lane, SimTime at, Callback fn,
                          TimerClass klass = TimerClass::kGeneric);

  /// Lane-local cancel; see Scheduler::cancel. Must be called from the
  /// handle's own lane (or between runs).
  bool cancel(TimerHandle handle);

  /// Scheduled-but-not-run events across all shards. Idle use only.
  std::size_t pending() const;

  /// Runs windows until no event remains at or before the horizon.
  /// Returns the number of events executed by this call.
  std::size_t run_until(SimTime horizon);

  std::uint64_t lifetime_executed() const { return lifetime_executed_; }
  std::uint64_t cross_shard_handoffs() const { return handoffs_; }
  std::uint64_t clamped_posts() const { return clamped_; }
  std::uint64_t epochs_run() const { return epochs_; }
  /// Events scheduled so far whose callback took InlineFunction's heap
  /// fallback. Idle use only.
  std::uint64_t callback_heap_boxes() const;

 private:
  static constexpr std::uint32_t kNil =
      std::numeric_limits<std::uint32_t>::max();

  /// Slab entry: the scheduled callback, empty once cancelled (so
  /// schedule_on refuses empty callbacks), and the event's queue key. `gen`
  /// is incremented on every release, so a TimerHandle that outlives its
  /// event can never cancel the slot's next tenant. `next` links the slot
  /// into its calendar list (`ring` or `far`) or the free list.
  struct Slot {
    Callback fn;
    SimTime at;
    std::uint64_t seq;
    LaneId lane;
    std::uint32_t next;
    std::uint32_t gen;
    TimerClass klass;
  };
  static_assert(sizeof(Slot) <= 112, "a pending event's slab slot");
  /// Slots per slab chunk (1 << kChunkBits): 112 KiB, below glibc's default
  /// 128 KiB mmap threshold, so a chunk freed by one engine is reused from
  /// the heap by the next instead of being mapped and faulted in afresh.
  static constexpr std::uint32_t kChunkBits = 10;
  /// Cells the ring spans from `base`; a power of two, since a cell's list
  /// head is ring[cell & (kRingCells - 1)].
  static constexpr std::uint32_t kRingCells = 1u << 10;
  /// Events at or beyond this many epochs share the last cell.
  static constexpr double kLastCell = 1e18;

  /// `near`'s heap entry; keys sort by (at, lane, seq) — see rule 1 above.
  struct NearEntry {
    SimTime at;
    std::uint64_t seq;
    LaneId lane;
    std::uint32_t slot;
    bool operator>(const NearEntry& o) const {
      if (at != o.at) return at > o.at;
      if (lane != o.lane) return lane > o.lane;
      return seq > o.seq;
    }
  };

  /// Buffered cross-lane post, merged at the epoch barrier in
  /// (at, src_lane, src_emit_seq) order.
  struct Outpost {
    SimTime at;
    LaneId src;
    std::uint64_t emit_seq;
    LaneId dest;
    TimerClass klass;
    Callback fn;
  };

  /// The barrier merge sorts these keys, not the Outposts they index, so
  /// each callback moves once: from its outbox into its slot.
  struct MergeKey {
    SimTime at;
    LaneId src;
    std::uint32_t shard;
    std::uint64_t emit_seq;
    std::uint32_t index;
  };

  struct Shard {
    /// Heap (std::greater) of every queued event whose cell is <= `open`.
    std::vector<NearEntry> near;
    /// List heads of the cells in (open, base + kRingCells), indexed by
    /// cell % kRingCells.
    std::array<std::uint32_t, kRingCells> ring;
    std::uint32_t far = kNil;  ///< list of the cells from base + kRingCells on
    std::uint64_t far_min = 0;  ///< earliest cell in `far`
    std::uint64_t open = 0;  ///< the open cell; never below base - 1
    std::uint64_t base = 0;  ///< first cell of the ring's span
    std::size_t in_ring = 0;  ///< events in `ring`'s lists
    /// The slab: slots [0, slots), in chunks of 1 << kChunkBits. Each chunk
    /// reserves its full size up front and never reallocates, so a slot
    /// never moves and untouched capacity costs no memory.
    std::vector<std::vector<Slot>> chunks;
    std::uint32_t slots = 0;
    std::uint32_t free_head = kNil;  ///< free list, threaded through Slot::next
    std::vector<Outpost> outbox;
    SimTime now = 0.0;
    LaneId current_lane = 0;
    std::uint64_t executed = 0;      ///< lifetime, this shard
    std::size_t pending = 0;
    std::size_t queued = 0;          ///< pending plus cancelled, not yet popped
    std::size_t depth_hwm = 0;
    std::size_t outbox_hwm = 0;
    std::uint64_t heap_boxes = 0;     ///< lifetime, this shard
    obs::SpanId span = obs::kNoSpan;  ///< open run-span for attribution

    Shard() { ring.fill(kNil); }
    Slot& slot(std::uint32_t i) {
      return chunks[i >> kChunkBits][i & ((1u << kChunkBits) - 1)];
    }
  };

  static void release_slot(Shard& sh, std::uint32_t slot);
  TimerHandle enqueue(Shard& sh, LaneId lane, SimTime at, Callback&& fn,
                      TimerClass klass);
  std::uint64_t cell_of(SimTime at) const;
  /// Links a queued slot whose cell lies past `open` into `ring`, or into
  /// `far` when the cell lies past the ring's span.
  static void file_later(Shard& sh, std::uint32_t slot, std::uint64_t cell);
  /// The shard's next queued event (cancelled ones included), or nullptr
  /// when none is queued. Opens the next non-empty cell when `near` is empty.
  const NearEntry* peek(Shard& sh);
  void ensure_lane(LaneId lane);
  /// Executes one shard's events inside the window; `final_window` closes
  /// the window inclusively (`at <= horizon`), and samples handler wall
  /// time per TimerClass.
  void exec_shard(Shard& sh, SimTime limit, bool final_window);
  void merge_outboxes(SimTime limit);
  void dispatch_window(SimTime limit, bool final_window);
  void worker_main(std::uint32_t worker_idx);

  std::vector<Shard> shards_v_;
  std::uint32_t workers_ = 0;
  SimTime epoch_;
  double cells_per_time_;  ///< 1 / epoch_
  SimTime cursor_ = 0.0;  ///< last window boundary reached
  std::vector<std::uint64_t> lane_seq_;   ///< next queue seq per lane
  std::vector<std::uint64_t> lane_emit_;  ///< next outbox emit seq per lane
  std::vector<std::unique_ptr<LaneScheduler>> lane_scheds_;
  std::vector<MergeKey> merge_scratch_;
  std::uint64_t lifetime_executed_ = 0;
  std::uint64_t handoffs_ = 0;
  std::uint64_t clamped_ = 0;
  std::uint64_t epochs_ = 0;
  // Last values flushed into the process-wide counters (multiple engines
  // may share the registry, so only deltas are added per run).
  std::uint64_t handoffs_reported_ = 0;
  std::uint64_t clamped_reported_ = 0;
  std::uint64_t epochs_reported_ = 0;
  std::uint64_t heap_boxes_reported_ = 0;

  /// The shard the calling thread is currently executing, or nullptr
  /// outside a window. How schedule_on distinguishes same-lane, cross-lane,
  /// and setup callers without locking.
  static thread_local Shard* tl_current_shard_;

  // Worker pool (created only when workers_ > 0).
  std::vector<std::thread> threads_;
  std::mutex pool_mu_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  std::uint64_t work_gen_ = 0;
  std::uint32_t work_remaining_ = 0;
  SimTime work_limit_ = 0.0;
  bool work_final_ = false;
  bool stop_ = false;

  // Process-wide instrumentation, cached once (registry entries are never
  // deallocated). shard_* names document the sharded kernel's health: how
  // much work crossed lanes, how often the conservative window bit, and
  // how deep the queues ran.
  obs::Counter* executed_ctr_ =
      &obs::metrics().counter("engine.shard_events_executed");
  obs::Counter* handoffs_ctr_ =
      &obs::metrics().counter("engine.shard_handoffs");
  obs::Counter* clamped_ctr_ = &obs::metrics().counter("engine.shard_clamped");
  obs::Counter* epochs_ctr_ = &obs::metrics().counter("engine.shard_epochs");
  obs::Counter* heap_boxes_ctr_ =
      &obs::metrics().counter("engine.callback_heap_boxes");
  obs::Gauge* depth_hwm_ = &obs::metrics().gauge("engine.shard_queue_depth_hwm");
  obs::Gauge* outbox_hwm_ = &obs::metrics().gauge("engine.shard_outbox_hwm");
  obs::Gauge* workers_gauge_ = &obs::metrics().gauge("engine.worker_threads");
};

}  // namespace ncast::sim
