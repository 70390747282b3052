#include "layers.hpp"

#include <string>
#include <utility>

#include "obs/metrics.hpp"

namespace ncbench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

const SpanStats& stats(const LayerInputs& in, Span s) {
  return in.spans[static_cast<std::size_t>(s)];
}

double self_s(const LayerInputs& in, Span s) {
  return static_cast<double>(stats(in, s).self_ns) * 1e-9;
}

}  // namespace

void add_layer_metrics(Rep& rep, const LayerInputs& in) {
  auto& out = rep.layer;
  ncast::obs::Registry& reg = ncast::obs::metrics();

  // coding: the decoder counts every absorb, the recoder's included.
  const auto& absorb = reg.histogram("decoder.absorb_ns");
  const auto& emit = reg.histogram("recoder.emit_ns");
  const double absorbs = static_cast<double>(reg.counter("decoder.packets_received").value());
  const double redundant = static_cast<double>(reg.counter("decoder.packets_redundant").value());
  const double absorb_s = absorb.sum() * 1e-9;
  const double emit_s = emit.sum() * 1e-9;
  const double deliveries = static_cast<double>(stats(in, Span::kDeliverData).calls);
  out["coding.absorbs"] = absorbs;
  out["coding.absorbs_per_delivery"] = ratio(absorbs, deliveries);
  out["coding.redundant_frac"] = ratio(redundant, absorbs);
  out["coding.absorb_s"] = absorb_s;
  out["coding.absorb_ns_p50"] = absorb.quantile(0.50);
  out["coding.absorb_ns_p99"] = absorb.quantile(0.99);
  out["coding.emits"] = static_cast<double>(emit.count());
  out["coding.emit_s"] = emit_s;

  // node: codec time runs inside deliveries (absorb) and the client serve
  // loop (recoder emit), so it is taken out of those two self times.
  const auto& data = stats(in, Span::kDeliverData);
  out["node.deliver.data.calls"] = static_cast<double>(data.calls);
  out["node.deliver.data.self_s"] = self_s(in, Span::kDeliverData) - absorb_s;
  out["node.deliver.data.p50_ns"] = data.hist.quantile(0.50);
  out["node.deliver.data.p99_ns"] = data.hist.quantile(0.99);
  out["node.deliver.control.calls"] = static_cast<double>(stats(in, Span::kDeliverControl).calls);
  out["node.deliver.control.self_s"] = self_s(in, Span::kDeliverControl);
  out["node.timer.serve.calls"] = static_cast<double>(stats(in, Span::kTimerServe).calls);
  out["node.timer.serve.self_s"] = self_s(in, Span::kTimerServe) - emit_s;
  out["node.timer.emit.calls"] = static_cast<double>(stats(in, Span::kTimerEmit).calls);
  out["node.timer.emit.self_s"] = self_s(in, Span::kTimerEmit);
  out["node.timer.silence.calls"] = static_cast<double>(stats(in, Span::kTimerSilence).calls);
  out["node.timer.silence.self_s"] = self_s(in, Span::kTimerSilence);
  out["node.timer.join_retry.calls"] = static_cast<double>(stats(in, Span::kTimerJoinRetry).calls);
  out["node.timer.join_retry.self_s"] = self_s(in, Span::kTimerJoinRetry);
  out["node.timer.repair.calls"] = static_cast<double>(stats(in, Span::kTimerRepair).calls);
  out["node.timer.repair.self_s"] = self_s(in, Span::kTimerRepair);
  out["node.fault.calls"] = static_cast<double>(stats(in, Span::kFault).calls);
  out["node.fault.self_s"] = self_s(in, Span::kFault);
  const auto& route = stats(in, Span::kRoute);
  out["node.route.calls"] = static_cast<double>(route.calls);
  out["node.route.self_s"] = self_s(in, Span::kRoute);
  out["node.route.p99_ns"] = route.hist.quantile(0.99);
  out["node.drops.control"] = static_cast<double>(in.control_dropped);
  out["node.drops.data"] = static_cast<double>(in.data_dropped);
  out["node.wire_bytes_per_data_msg"] =
      ratio(static_cast<double>(in.data_bytes), static_cast<double>(in.data_messages));

  // overlay: the wave's direct CurtainServer calls.
  const std::pair<Span, const char*> overlay_ops[] = {
      {Span::kOverlayJoin, "overlay.join"},
      {Span::kOverlayLeave, "overlay.leave"},
      {Span::kOverlayReportFailure, "overlay.report_failure"},
      {Span::kOverlayRepair, "overlay.repair"},
  };
  for (const auto& [span, name] : overlay_ops) {
    const auto& st = stats(in, span);
    const std::string stem = name;
    out[stem + ".calls"] = static_cast<double>(st.calls);
    out[stem + ".self_s"] = self_s(in, span);
    out[stem + ".p50_ns"] = st.hist.quantile(0.50);
    out[stem + ".p99_ns"] = st.hist.quantile(0.99);
  }
  out["overlay.repairs_per_crash"] =
      ratio(static_cast<double>(stats(in, Span::kOverlayRepair).calls),
            static_cast<double>(in.crashes));

  // sim: the thread time no span covers. Self times of all spans sum to the
  // time spent inside top-level spans, codec time included.
  double covered_s = 0.0;
  for (const SpanStats& st : in.spans) covered_s += static_cast<double>(st.self_ns) * 1e-9;
  const double thread_s = in.run_s * in.run_threads;
  const double sim_self_s = thread_s - covered_s;
  out["sim.events"] = static_cast<double>(in.events);
  out["sim.epochs"] = static_cast<double>(in.epochs);
  out["sim.handoffs"] = static_cast<double>(in.handoffs);
  out["sim.clamped_posts"] = static_cast<double>(in.clamped);
  out["sim.queue_depth_hwm"] = reg.gauge("engine.shard_queue_depth_hwm").value();
  out["sim.outbox_hwm"] = reg.gauge("engine.shard_outbox_hwm").value();
  out["sim.self_s"] = sim_self_s;
  out["sim.ns_per_event"] = ratio(sim_self_s * 1e9, static_cast<double>(in.events));

  out["obs.trace_dropped_events"] = static_cast<double>(in.trace_dropped);
  out["bench.traced_run_s"] = in.run_s;
  out["bench.traced_thread_s"] = thread_s;
}

}  // namespace ncbench
