#pragma once
// Benchmark-side tracing. Every timed span wraps a call into one of the
// program's public interfaces from the outside: the decorators below stand
// between the engine, the transport and the endpoints, and the overlay
// driver wraps its CurtainServer calls in ScopedSpan. Nothing in src/ is
// instrumented for the benchmark.
//
// Memory stays bounded however long a run is: each thread keeps, per span
// kind, a call count, total and self nanoseconds, and a fixed log-bucket
// histogram. Blocks are per thread (the sharded engine runs lanes on worker
// threads) and merged after the run, when the workers are parked.

#include <array>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "node/transport.hpp"
#include "sim/event_engine.hpp"

namespace ncbench {

/// One kind of timed call. Names follow the per-layer metric names.
enum class Span : std::uint8_t {
  kDeliverData,     ///< Endpoint::on_message for kData
  kDeliverControl,  ///< Endpoint::on_message for everything else
  kTimerServe,      ///< client serve/recode loop
  kTimerEmit,       ///< server direct-emission tick
  kTimerSilence,    ///< feed-silence complaint timer
  kTimerJoinRetry,  ///< hello retransmission
  kTimerRepair,     ///< server repair execution
  kFault,           ///< scenario join/leave/crash events
  kRoute,           ///< Transport::send into the fabric
  kOverlayJoin,
  kOverlayLeave,
  kOverlayReportFailure,
  kOverlayRepair,
  kCount,
};
inline constexpr std::size_t kSpanCount = static_cast<std::size_t>(Span::kCount);

/// Metric-name stem of a span kind ("node.deliver.data", "overlay.join").
const char* span_name(Span s);

/// Fixed-size log histogram of nanosecond durations: eight buckets per
/// power of two, so a quantile is off by at most ~9%.
class LogHistogram {
 public:
  static constexpr std::size_t kSub = 8;
  static constexpr std::size_t kBuckets = 64 * kSub;

  void add(std::uint64_t ns);
  void merge(const LogHistogram& other);
  /// Geometric midpoint of the bucket holding quantile q; 0 when empty.
  double quantile(double q) const;

 private:
  static std::size_t index(std::uint64_t ns);
  static double low(std::size_t i);

  std::array<std::uint64_t, kBuckets> counts_{};
  std::uint64_t total_ = 0;
};

struct SpanStats {
  std::uint64_t calls = 0;
  std::uint64_t self_ns = 0;  ///< duration minus nested spans on the same thread
  LogHistogram hist;

  void merge(const SpanStats& other);
};

using SpanTable = std::array<SpanStats, kSpanCount>;

/// Zeroes every thread's statistics. Call only while no run is executing.
void reset_spans();
/// Sums every thread's statistics. Call only while no run is executing.
SpanTable collect_spans();

struct ThreadBlock;

/// Times one call. Nested spans on the same thread are subtracted from the
/// enclosing span's self time, so self times add up without overlap.
class ScopedSpan {
 public:
  explicit ScopedSpan(Span s);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  ThreadBlock* block_;
  Span span_;
  std::uint64_t outer_child_ns_;
  std::chrono::steady_clock::time_point start_;
};

/// Scheduler decorator: forwards to the lane's scheduler and times each
/// callback under the span of its TimerClass. Callbacks of classes without a
/// span (delivery, generic) run untimed.
class TimedScheduler final : public ncast::sim::Scheduler {
 public:
  explicit TimedScheduler(ncast::sim::Scheduler& inner) : inner_(&inner) {}

  ncast::sim::SimTime now() const override { return inner_->now(); }
  ncast::sim::TimerHandle schedule_at(
      ncast::sim::SimTime at, Callback fn,
      ncast::sim::TimerClass klass = ncast::sim::TimerClass::kGeneric) override;
  bool cancel(ncast::sim::TimerHandle handle) override {
    return inner_->cancel(handle);
  }

 private:
  ncast::sim::Scheduler* inner_;
};

/// Transport decorator: times every send into the wrapped fabric and wraps
/// every attached endpoint so its deliveries are timed. Sends are counted by
/// both this object's and the wrapped fabric's Transport base; read traffic
/// totals from the wrapped fabric.
class TimedTransport final : public ncast::node::AttachableTransport {
 public:
  TimedTransport(ncast::node::AttachableTransport& inner,
                 std::size_t max_addresses);

  void attach(ncast::node::Address addr,
              ncast::node::Endpoint* endpoint) override;
  void detach(ncast::node::Address addr) override { inner_->detach(addr); }
  void crash(ncast::node::Address addr) override { inner_->crash(addr); }
  void revive(ncast::node::Address addr) override { inner_->revive(addr); }
  bool crashed(ncast::node::Address addr) const override {
    return inner_->crashed(addr);
  }

 protected:
  void route(ncast::node::Message m) override;

 private:
  class TimedEndpoint final : public ncast::node::Endpoint {
   public:
    void on_message(const ncast::node::Message& m) override;
    ncast::node::Endpoint* target = nullptr;
  };

  ncast::node::AttachableTransport* inner_;
  std::vector<TimedEndpoint> endpoints_;  ///< per address, owner-lane writes
};

}  // namespace ncbench
