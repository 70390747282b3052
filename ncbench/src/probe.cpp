#include "probe.hpp"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>
#include <utility>

namespace ncbench {

using Clock = std::chrono::steady_clock;

struct ThreadBlock {
  SpanTable table;
  std::uint64_t child_ns = 0;  ///< time of spans nested in the open one
};

namespace {

struct BlockRegistry {
  std::mutex mu;
  std::vector<std::unique_ptr<ThreadBlock>> blocks;  ///< guarded by mu
};

BlockRegistry& registry() {
  static BlockRegistry r;
  return r;
}

// Blocks outlive their threads (the engine's workers end with the engine),
// so the registry owns them and a thread keeps only a pointer.
ThreadBlock& local_block() {
  thread_local ThreadBlock* block = nullptr;
  if (block == nullptr) {
    BlockRegistry& r = registry();
    const std::lock_guard<std::mutex> lock(r.mu);
    r.blocks.push_back(std::make_unique<ThreadBlock>());
    block = r.blocks.back().get();
  }
  return *block;
}

}  // namespace

const char* span_name(Span s) {
  switch (s) {
    case Span::kDeliverData: return "node.deliver.data";
    case Span::kDeliverControl: return "node.deliver.control";
    case Span::kTimerServe: return "node.timer.serve";
    case Span::kTimerEmit: return "node.timer.emit";
    case Span::kTimerSilence: return "node.timer.silence";
    case Span::kTimerJoinRetry: return "node.timer.join_retry";
    case Span::kTimerRepair: return "node.timer.repair";
    case Span::kFault: return "node.fault";
    case Span::kRoute: return "node.route";
    case Span::kOverlayJoin: return "overlay.join";
    case Span::kOverlayLeave: return "overlay.leave";
    case Span::kOverlayReportFailure: return "overlay.report_failure";
    case Span::kOverlayRepair: return "overlay.repair";
    case Span::kCount: break;
  }
  return "unknown";
}

std::size_t LogHistogram::index(std::uint64_t ns) {
  if (ns == 0) return 0;
  const int octave = 63 - __builtin_clzll(ns);
  // The three bits below the leading one pick the sub-bucket.
  const std::uint64_t sub =
      octave >= 3 ? (ns >> (octave - 3)) & 7u : (ns << (3 - octave)) & 7u;
  return static_cast<std::size_t>(octave) * kSub + static_cast<std::size_t>(sub);
}

double LogHistogram::low(std::size_t i) {
  const double octave = static_cast<double>(i / kSub);
  const double sub = static_cast<double>(i % kSub);
  return std::ldexp(1.0 + sub / static_cast<double>(kSub),
                    static_cast<int>(octave));
}

void LogHistogram::add(std::uint64_t ns) {
  ++counts_[index(ns)];
  ++total_;
}

void LogHistogram::merge(const LogHistogram& other) {
  for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
  total_ += other.total_;
}

double LogHistogram::quantile(double q) const {
  if (total_ == 0) return 0.0;
  const double want = std::ceil(q * static_cast<double>(total_));
  const std::uint64_t target = want < 1.0 ? 1 : static_cast<std::uint64_t>(want);
  std::uint64_t seen = 0;
  for (std::size_t i = 0; i < kBuckets; ++i) {
    seen += counts_[i];
    if (seen >= target) {
      const double hi = i + 1 < kBuckets ? low(i + 1) : low(i) * 2.0;
      return std::sqrt(low(i) * hi);
    }
  }
  return low(kBuckets - 1);
}

void SpanStats::merge(const SpanStats& other) {
  calls += other.calls;
  self_ns += other.self_ns;
  hist.merge(other.hist);
}

void reset_spans() {
  BlockRegistry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (auto& b : r.blocks) *b = ThreadBlock{};
}

SpanTable collect_spans() {
  SpanTable out;
  BlockRegistry& r = registry();
  const std::lock_guard<std::mutex> lock(r.mu);
  for (const auto& b : r.blocks) {
    for (std::size_t i = 0; i < kSpanCount; ++i) out[i].merge(b->table[i]);
  }
  return out;
}

ScopedSpan::ScopedSpan(Span s)
    : block_(&local_block()), span_(s), outer_child_ns_(block_->child_ns) {
  block_->child_ns = 0;
  start_ = Clock::now();
}

ScopedSpan::~ScopedSpan() {
  const auto elapsed = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start_)
          .count());
  SpanStats& st = block_->table[static_cast<std::size_t>(span_)];
  ++st.calls;
  st.self_ns += elapsed - std::min(elapsed, block_->child_ns);
  st.hist.add(elapsed);
  block_->child_ns = outer_child_ns_ + elapsed;
}

namespace {

bool span_of(ncast::sim::TimerClass klass, Span* out) {
  using ncast::sim::TimerClass;
  switch (klass) {
    case TimerClass::kServe: *out = Span::kTimerServe; return true;
    case TimerClass::kEmit: *out = Span::kTimerEmit; return true;
    case TimerClass::kSilence: *out = Span::kTimerSilence; return true;
    case TimerClass::kJoinRetry: *out = Span::kTimerJoinRetry; return true;
    case TimerClass::kRepair: *out = Span::kTimerRepair; return true;
    case TimerClass::kFault: *out = Span::kFault; return true;
    case TimerClass::kGeneric:
    case TimerClass::kDelivery: return false;
  }
  return false;
}

}  // namespace

ncast::sim::TimerHandle TimedScheduler::schedule_at(ncast::sim::SimTime at,
                                                    Callback fn,
                                                    ncast::sim::TimerClass klass) {
  Span span{};
  if (!span_of(klass, &span)) return inner_->schedule_at(at, std::move(fn), klass);
  // The wrapped callable no longer fits the inline buffer, so each timed
  // timer costs one heap allocation; it is part of the tracing overhead.
  return inner_->schedule_at(
      at,
      [span, f = std::move(fn)]() mutable {
        const ScopedSpan timed(span);
        f();
      },
      klass);
}

TimedTransport::TimedTransport(ncast::node::AttachableTransport& inner,
                               std::size_t max_addresses)
    : inner_(&inner), endpoints_(max_addresses) {}

void TimedTransport::attach(ncast::node::Address addr,
                            ncast::node::Endpoint* endpoint) {
  if (addr >= endpoints_.size()) {
    inner_->attach(addr, endpoint);
    return;
  }
  endpoints_[addr].target = endpoint;
  inner_->attach(addr, &endpoints_[addr]);
}

void TimedTransport::route(ncast::node::Message m) {
  const ScopedSpan timed(Span::kRoute);
  inner_->send(std::move(m));
}

void TimedTransport::TimedEndpoint::on_message(const ncast::node::Message& m) {
  const ScopedSpan timed(m.type == ncast::node::MessageType::kData
                             ? Span::kDeliverData
                             : Span::kDeliverControl);
  target->on_message(m);
}

}  // namespace ncbench
