#pragma once
// The per-layer split of a traced repetition. Self times come from the
// probe spans; the codec's share comes from the obs registry histograms
// that src/ already keeps (decoder.absorb_ns, recoder.emit_ns), and is
// taken out of the node span that encloses it. Whatever thread time no
// span covers is the engine's: queueing, dispatch, outbox merge, barrier.

#include <cstdint>

#include "probe.hpp"
#include "workloads.hpp"

namespace ncbench {

struct LayerInputs {
  SpanTable spans;
  double run_s = 0.0;
  double run_threads = 1.0;
  std::uint64_t events = 0;
  std::uint64_t epochs = 0;
  std::uint64_t handoffs = 0;
  std::uint64_t clamped = 0;
  std::uint64_t control_dropped = 0;
  std::uint64_t data_dropped = 0;
  std::uint64_t data_messages = 0;
  std::uint64_t data_bytes = 0;
  std::uint64_t crashes = 0;
  std::uint64_t trace_dropped = 0;
};

/// Fills rep.layer with every per-layer metric, zero where a layer did no
/// work, so each workload reports the same set.
void add_layer_metrics(Rep& rep, const LayerInputs& in);

}  // namespace ncbench
