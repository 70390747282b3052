#include "sim/sharded_engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace ncast::sim {

namespace {

/// One in this many events a shard executes is wall-timed (power of two):
/// the other 63 pay one mask test and no clock read.
constexpr std::uint64_t kProfileSampleEvery = 64;

/// Sampled handler wall time per TimerClass (engine.handler_<class>_ns),
/// indexed by the class. Registered once per process, before any engine
/// exists, so constructing engines never touches the registry.
obs::Histogram* const kHandlerNs[kTimerClassCount] = {
    &obs::metrics().histogram("engine.handler_generic_ns"),
    &obs::metrics().histogram("engine.handler_delivery_ns"),
    &obs::metrics().histogram("engine.handler_serve_ns"),
    &obs::metrics().histogram("engine.handler_emit_ns"),
    &obs::metrics().histogram("engine.handler_join_retry_ns"),
    &obs::metrics().histogram("engine.handler_silence_ns"),
    &obs::metrics().histogram("engine.handler_repair_ns"),
    &obs::metrics().histogram("engine.handler_fault_ns"),
};

}  // namespace

thread_local ShardedEngine::Shard* ShardedEngine::tl_current_shard_ = nullptr;

SimTime LaneScheduler::now() const { return engine_->now(); }

TimerHandle LaneScheduler::schedule_at(SimTime at, Callback fn,
                                       TimerClass klass) {
  return engine_->schedule_on(lane_, at, std::move(fn), klass);
}

bool LaneScheduler::cancel(TimerHandle handle) { return engine_->cancel(handle); }

ShardedEngine::ShardedEngine(std::uint32_t shards, std::uint32_t workers,
                             SimTime epoch)
    : workers_(workers), epoch_(epoch), cells_per_time_(1.0 / epoch) {
  if (shards == 0) throw std::invalid_argument("ShardedEngine: shards must be >= 1");
  if (!(epoch > 0.0)) throw std::invalid_argument("ShardedEngine: epoch must be > 0");
  shards_v_.resize(shards);
  workers_gauge_->set_max(static_cast<double>(workers_));
  threads_.reserve(workers_);
  for (std::uint32_t w = 0; w < workers_; ++w) {
    threads_.emplace_back([this, w] { worker_main(w); });
  }
}

ShardedEngine::~ShardedEngine() {
  if (!threads_.empty()) {
    {
      const std::lock_guard<std::mutex> lock(pool_mu_);
      stop_ = true;
    }
    work_cv_.notify_all();
    for (std::thread& t : threads_) t.join();
  }
}

SimTime ShardedEngine::now() const {
  const Shard* cur = tl_current_shard_;
  return cur != nullptr ? cur->now : cursor_;
}

void ShardedEngine::reserve_lanes(std::size_t lanes) {
  if (lane_seq_.size() < lanes) {
    lane_seq_.resize(lanes, 0);
    lane_emit_.resize(lanes, 0);
  }
}

Scheduler& ShardedEngine::lane(LaneId lane) {
  ensure_lane(lane);
  if (lane_scheds_.size() <= lane) lane_scheds_.resize(lane + 1);
  if (!lane_scheds_[lane]) {
    lane_scheds_[lane] = std::make_unique<LaneScheduler>(this, lane);
  }
  return *lane_scheds_[lane];
}

void ShardedEngine::ensure_lane(LaneId lane) {
  if (lane_seq_.size() <= lane) reserve_lanes(static_cast<std::size_t>(lane) + 1);
}

void ShardedEngine::release_slot(Shard& sh, std::uint32_t slot) {
  Slot& s = sh.slot(slot);
  s.fn.reset();
  ++s.gen;
  s.next = sh.free_head;
  sh.free_head = slot;
}

std::uint64_t ShardedEngine::cell_of(SimTime at) const {
  // Monotone in `at`, which is all the calendar needs: `near`'s heap orders
  // events within a cell, so cells need not match run_until's window grid.
  const double cell = at * cells_per_time_;
  return static_cast<std::uint64_t>(cell < kLastCell ? cell : kLastCell);
}

TimerHandle ShardedEngine::enqueue(Shard& sh, LaneId lane, SimTime at,
                                   Callback&& fn, TimerClass klass) {
  if (fn.on_heap()) ++sh.heap_boxes;
  const std::uint64_t seq = lane_seq_[lane]++;
  std::uint32_t slot = sh.free_head;
  Slot* s;
  if (slot != kNil) {
    s = &sh.slot(slot);
    sh.free_head = s->next;
    s->fn = std::move(fn);
    s->at = at;
    s->seq = seq;
    s->lane = lane;
    s->klass = klass;
  } else {
    slot = sh.slots++;
    if ((slot >> kChunkBits) == sh.chunks.size()) {
      sh.chunks.emplace_back().reserve(std::size_t{1} << kChunkBits);
    }
    s = &sh.chunks.back().emplace_back(std::move(fn), at, seq, lane, kNil,
                                       std::uint32_t{0}, klass);
  }
  const std::uint64_t cell = cell_of(at);
  if (cell <= sh.open) {
    sh.near.push_back(NearEntry{at, seq, lane, slot});
    std::push_heap(sh.near.begin(), sh.near.end(), std::greater<>{});
  } else {
    file_later(sh, slot, cell);
  }
  ++sh.pending;
  if (++sh.queued > sh.depth_hwm) sh.depth_hwm = sh.queued;
  return TimerHandle{seq, slot, s->gen, lane};
}

void ShardedEngine::file_later(Shard& sh, std::uint32_t slot,
                               std::uint64_t cell) {
  // cell > open >= base - 1, so each cell of the ring's span has its own head.
  std::uint32_t* head;
  if (cell - sh.base < kRingCells) {
    head = &sh.ring[cell & (kRingCells - 1)];
    ++sh.in_ring;
  } else {
    if (sh.far == kNil || cell < sh.far_min) sh.far_min = cell;
    head = &sh.far;
  }
  sh.slot(slot).next = *head;
  *head = slot;
}

const ShardedEngine::NearEntry* ShardedEngine::peek(Shard& sh) {
  if (!sh.near.empty()) return &sh.near.front();
  if (sh.in_ring == 0) {
    if (sh.far == kNil) return nullptr;
    // Everything queued lies in `far`: restart the ring's span at its
    // earliest cell and file it again. `near` and the ring are empty, so
    // moving `base` and `open` leaves no queued event below either.
    sh.base = sh.far_min;
    sh.open = sh.base - 1;
    for (std::uint32_t slot = std::exchange(sh.far, kNil); slot != kNil;) {
      const Slot& s = sh.slot(slot);
      const std::uint32_t next = s.next;
      file_later(sh, slot, cell_of(s.at));
      slot = next;
    }
  }
  // Open the next non-empty cell: its list becomes the heap.
  std::uint64_t cell = sh.open + 1;
  while (sh.ring[cell & (kRingCells - 1)] == kNil) ++cell;
  sh.open = cell;
  std::uint32_t& head = sh.ring[cell & (kRingCells - 1)];
  for (std::uint32_t slot = head; slot != kNil; slot = sh.slot(slot).next) {
    const Slot& s = sh.slot(slot);
    sh.near.push_back(NearEntry{s.at, s.seq, s.lane, slot});
  }
  head = kNil;
  sh.in_ring -= sh.near.size();
  std::make_heap(sh.near.begin(), sh.near.end(), std::greater<>{});
  return &sh.near.front();
}

TimerHandle ShardedEngine::schedule_on(LaneId lane, SimTime at, Callback fn,
                                       TimerClass klass) {
  // An empty slot means a cancelled event, so an empty callback could never
  // run and would leave `pending` counting it.
  if (!fn) throw std::invalid_argument("ShardedEngine: empty callback");
  Shard* cur = tl_current_shard_;
  if (cur == nullptr) {
    // Setup phase / between runs: direct enqueue from the driving thread.
    if (at < cursor_) {
      throw std::invalid_argument("ShardedEngine: scheduling in the past");
    }
    ensure_lane(lane);
    return enqueue(shards_v_[shard_of(lane)], lane, at, std::move(fn), klass);
  }
  if (&shards_v_[shard_of(lane)] == cur && lane == cur->current_lane) {
    // Same-lane: sequence immediately in lane execution order (rule 2).
    if (at < cur->now) {
      throw std::invalid_argument("ShardedEngine: scheduling in the past");
    }
    return enqueue(*cur, lane, at, std::move(fn), klass);
  }
  // Cross-lane (any other lane, even on this shard): buffer in the outbox,
  // sequenced deterministically at the epoch barrier. Not cancellable.
  cur->outbox.emplace_back(at, cur->current_lane,
                           lane_emit_[cur->current_lane]++, lane, klass,
                           std::move(fn));
  if (cur->outbox.size() > cur->outbox_hwm) cur->outbox_hwm = cur->outbox.size();
  return TimerHandle{};
}

bool ShardedEngine::cancel(TimerHandle handle) {
  if (!handle.valid()) return false;
  Shard& sh = shards_v_[shard_of(handle.lane)];
  if (handle.slot >= sh.slots) return false;
  Slot& s = sh.slot(handle.slot);
  if (s.gen != handle.gen || !s.fn) return false;
  s.fn.reset();  // the event stays queued; exec_shard releases the empty slot
  --sh.pending;
  return true;
}

std::size_t ShardedEngine::pending() const {
  std::size_t total = 0;
  for (const Shard& sh : shards_v_) total += sh.pending;
  return total;
}

std::uint64_t ShardedEngine::callback_heap_boxes() const {
  std::uint64_t total = 0;
  for (const Shard& sh : shards_v_) total += sh.heap_boxes;
  return total;
}

void ShardedEngine::exec_shard(Shard& sh, SimTime limit, bool final_window) {
  tl_current_shard_ = &sh;
  // ncast:hot-begin — sharded event dispatch; keys pop off the calendar and
  // callbacks move out of slab slots, so no per-event allocation happens.
  // Every kProfileSampleEvery-th event of this shard is wall-timed into its
  // class's handler histogram; this thread's trace clock is set to the
  // event's time before its callback runs, so emitters inside handlers
  // stamp exactly.
  while (const NearEntry* top = peek(sh)) {
    if (final_window ? top->at > limit : top->at >= limit) break;
    const NearEntry item = *top;
    std::pop_heap(sh.near.begin(), sh.near.end(), std::greater<>{});
    sh.near.pop_back();
    --sh.queued;
    Slot& s = sh.slot(item.slot);
    if (!s.fn) {  // cancelled
      release_slot(sh, item.slot);
      continue;
    }
    // Move the callback out before invoking: the handler may schedule onto
    // its own lane, recycling this slot or growing the slab.
    Callback fn = std::move(s.fn);
    const TimerClass klass = s.klass;
    release_slot(sh, item.slot);
    --sh.pending;
    sh.now = item.at;
    sh.current_lane = item.lane;
    obs::trace().set_now(item.at);
    if ((sh.executed & (kProfileSampleEvery - 1)) == 0) {
      const obs::Stopwatch handler_watch;
      fn();
      kHandlerNs[static_cast<std::size_t>(klass)]->observe(
          handler_watch.elapsed_ns());
    } else {
      fn();
    }
    ++sh.executed;
  }
  // ncast:hot-end
  if (limit > sh.now) sh.now = limit;
  tl_current_shard_ = nullptr;
}

void ShardedEngine::merge_outboxes(SimTime limit) {
  // ncast:merge-begin — cross-shard handoffs drain here in sorted order;
  // everything below must be invariant to the pre-sort arrival order.
  merge_scratch_.clear();
  for (std::uint32_t s = 0; s < shards_v_.size(); ++s) {
    const std::vector<Outpost>& outbox = shards_v_[s].outbox;
    for (std::uint32_t i = 0; i < outbox.size(); ++i) {
      const Outpost& p = outbox[i];
      merge_scratch_.push_back(MergeKey{p.at, p.src, s, p.emit_seq, i});
    }
  }
  // The merge key never mentions shards, so destination sequencing is
  // shard-count-invariant (determinism rule 2); (src, emit_seq) is unique,
  // so the order is total and std::sort's instability cannot show.
  std::sort(merge_scratch_.begin(), merge_scratch_.end(),
            [](const MergeKey& a, const MergeKey& b) {
              if (a.at != b.at) return a.at < b.at;
              if (a.src != b.src) return a.src < b.src;
              return a.emit_seq < b.emit_seq;
            });
  for (const MergeKey& key : merge_scratch_) {
    Outpost& p = shards_v_[key.shard].outbox[key.index];
    SimTime at = p.at;
    if (at < limit) {
      at = limit;  // conservative-window clamp (determinism rule 3)
      ++clamped_;
    }
    ensure_lane(p.dest);
    enqueue(shards_v_[shard_of(p.dest)], p.dest, at, std::move(p.fn), p.klass);
    ++handoffs_;
  }
  for (Shard& sh : shards_v_) sh.outbox.clear();
  // ncast:merge-end
}

void ShardedEngine::dispatch_window(SimTime limit, bool final_window) {
  if (threads_.empty()) {
    for (Shard& sh : shards_v_) exec_shard(sh, limit, final_window);
    return;
  }
  {
    const std::lock_guard<std::mutex> lock(pool_mu_);
    work_limit_ = limit;
    work_final_ = final_window;
    work_remaining_ = workers_;
    ++work_gen_;
  }
  work_cv_.notify_all();
  std::unique_lock<std::mutex> lock(pool_mu_);
  done_cv_.wait(lock, [this] { return work_remaining_ == 0; });
}

void ShardedEngine::worker_main(std::uint32_t worker_idx) {
  std::uint64_t seen_gen = 0;
  while (true) {
    SimTime limit;
    bool final_window;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      work_cv_.wait(lock, [&] { return stop_ || work_gen_ != seen_gen; });
      if (stop_) return;
      seen_gen = work_gen_;
      limit = work_limit_;
      final_window = work_final_;
    }
    for (std::size_t s = worker_idx; s < shards_v_.size(); s += workers_) {
      exec_shard(shards_v_[s], limit, final_window);
    }
    {
      const std::lock_guard<std::mutex> lock(pool_mu_);
      --work_remaining_;
    }
    done_cv_.notify_one();
  }
}

std::size_t ShardedEngine::run_until(SimTime horizon) {
  const std::uint64_t executed_before = lifetime_executed_;
  // Per-run, per-shard attribution spans: a trace post-mortem can group a
  // run's events by shard and see each shard's window activity. The trace
  // clock still reads whatever the previous run (of any engine) left there,
  // so set it to this run's start first or the spans would predate the
  // run's own events.
  obs::trace().set_now(cursor_);
  for (std::size_t s = 0; s < shards_v_.size(); ++s) {
    shards_v_[s].span = obs::trace().new_span();
    obs::trace().emit(obs::TraceKind::kSpanBegin, s, 0, 0, "shard",
                      shards_v_[s].span);
  }
  while (true) {
    SimTime earliest = std::numeric_limits<SimTime>::infinity();
    for (Shard& sh : shards_v_) {
      const NearEntry* top = peek(sh);
      if (top != nullptr && top->at < earliest) earliest = top->at;
    }
    if (!(earliest <= horizon)) break;
    // Fast-forward to the window grid slot holding the earliest event; the
    // grid (multiples of epoch_) is a function of the global event set, so
    // it advances identically for every shard count.
    const SimTime grid = std::floor(earliest / epoch_) * epoch_;
    const SimTime start = std::max(cursor_, grid);
    const SimTime end = start + epoch_;
    const bool final_window = end >= horizon;
    const SimTime limit = final_window ? horizon : end;
    dispatch_window(limit, final_window);
    merge_outboxes(limit);
    cursor_ = limit;
    ++epochs_;
  }
  if (horizon > cursor_) cursor_ = horizon;
  // This thread's clock reads its last inline event, or nothing of this run
  // when workers ran the events; close the shard spans at the run's end.
  obs::trace().set_now(cursor_);
  std::uint64_t executed_total = 0;
  std::size_t depth_hwm = 0;
  std::size_t outbox_hwm = 0;
  for (std::size_t s = 0; s < shards_v_.size(); ++s) {
    Shard& sh = shards_v_[s];
    if (horizon > sh.now) sh.now = horizon;
    executed_total += sh.executed;
    depth_hwm = std::max(depth_hwm, sh.depth_hwm);
    outbox_hwm = std::max(outbox_hwm, sh.outbox_hwm);
    obs::trace().emit(obs::TraceKind::kSpanEnd, s, sh.executed, 0, "shard",
                      sh.span);
    sh.span = obs::kNoSpan;
  }
  const std::size_t executed = executed_total - executed_before;
  lifetime_executed_ = executed_total;
  executed_ctr_->inc(executed);
  handoffs_ctr_->inc(handoffs_ - handoffs_reported_);
  clamped_ctr_->inc(clamped_ - clamped_reported_);
  epochs_ctr_->inc(epochs_ - epochs_reported_);
  const std::uint64_t heap_boxes = callback_heap_boxes();
  heap_boxes_ctr_->inc(heap_boxes - heap_boxes_reported_);
  handoffs_reported_ = handoffs_;
  clamped_reported_ = clamped_;
  epochs_reported_ = epochs_;
  heap_boxes_reported_ = heap_boxes;
  depth_hwm_->set_max(static_cast<double>(depth_hwm));
  outbox_hwm_->set_max(static_cast<double>(outbox_hwm));
  return executed;
}

}  // namespace ncast::sim
