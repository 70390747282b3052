// Layered streaming (Section 5): heterogeneous users + priority encoding.
//
//   $ ./layered_streaming
//
// The paper notes that because nothing in the design requires equal
// bandwidths, higher-bandwidth users can receive higher-resolution
// broadcasts via priority encoding transmission [2], with graceful
// degradation under failures. We realize the classic two-layer construction:
// the server runs one curtain per video layer; every viewer joins the base
// layer, and only high-bandwidth viewers additionally join the enhancement
// layer. Failures degrade enhancement reception first; the base layer — the
// thing that keeps video on screen — survives.

#include <cstdio>
#include <vector>

#include "overlay/curtain_server.hpp"
#include "sim/scenario.hpp"
#include "util/rng.hpp"

using namespace ncast;

namespace {

struct LayerResult {
  std::size_t viewers = 0;
  std::size_t decoded = 0;
  double percent() const {
    return viewers ? 100.0 * static_cast<double>(decoded) /
                         static_cast<double>(viewers)
                   : 0.0;
  }
};

}  // namespace

int main() {
  // Two layers, one curtain each. Unit = half a DSL line's bandwidth.
  overlay::CurtainServer base(16, 2, Rng(1));         // SD layer
  overlay::CurtainServer enhancement(16, 2, Rng(2));  // HD layer

  // Audience: 300 DSL viewers (base only), 100 fiber viewers (both).
  struct Viewer {
    overlay::NodeId base_id;
    overlay::NodeId enh_id;  // kServerNode sentinel = not subscribed
    bool fiber;
  };
  std::vector<Viewer> audience;
  for (int i = 0; i < 400; ++i) {
    const bool fiber = (i % 4 == 3);
    Viewer v;
    v.fiber = fiber;
    v.base_id = base.join().node;
    v.enh_id = fiber ? enhancement.join().node : overlay::kServerNode;
    audience.push_back(v);
  }
  std::printf("audience: 300 DSL (base layer only), 100 fiber (base + HD)\n\n");

  // Stream both layers at increasing failure rates.
  std::printf("%-10s | %-14s | %-14s | %s\n", "failures", "base decoded",
              "HD decoded", "fiber experience");
  std::printf("-----------|----------------|----------------|------------------\n");

  for (const double p : {0.0, 0.05, 0.15}) {
    auto base_m = base.matrix();
    auto enh_m = enhancement.matrix();
    Rng rng(100 + static_cast<std::uint64_t>(p * 1000));
    for (auto node : base_m.nodes_in_order()) {
      if (rng.chance(p)) base_m.mark_failed(node);
    }
    for (auto node : enh_m.nodes_in_order()) {
      if (rng.chance(p)) enh_m.mark_failed(node);
    }

    sim::ScenarioSpec spec;
    spec.generation_size = 8;
    spec.symbols = 32;
    spec.round_sync = true;
    spec.seed = 200 + static_cast<std::uint64_t>(p * 1000);
    const auto base_report = sim::run_scenario(base_m, spec);
    spec.seed += 1;
    const auto enh_report = sim::run_scenario(enh_m, spec);

    auto decoded_set = [](const sim::ScenarioReport& r) {
      std::vector<bool> ok;
      for (const auto& o : r.outcomes) {
        if (o.node >= ok.size()) ok.resize(o.node + 1, false);
        ok[o.node] = o.decoded && !o.corrupted;
      }
      return ok;
    };
    const auto base_ok = decoded_set(base_report);
    const auto enh_ok = decoded_set(enh_report);

    LayerResult base_all, hd_fiber;
    std::size_t fiber_hd = 0, fiber_sd_only = 0, fiber_dark = 0;
    for (const auto& v : audience) {
      const bool has_base = v.base_id < base_ok.size() && base_ok[v.base_id];
      if (base_m.contains(v.base_id) && !base_m.row(v.base_id).failed) {
        ++base_all.viewers;
        if (has_base) ++base_all.decoded;
      }
      if (!v.fiber) continue;
      const bool has_hd = v.enh_id < enh_ok.size() && enh_ok[v.enh_id];
      ++hd_fiber.viewers;
      if (has_hd) ++hd_fiber.decoded;
      if (has_base && has_hd) ++fiber_hd;
      else if (has_base) ++fiber_sd_only;
      else ++fiber_dark;
    }
    std::printf("p = %.2f   | %5.1f%%         | %5.1f%%         | "
                "%zu HD, %zu SD-only, %zu dark\n",
                p, base_all.percent(), hd_fiber.percent(), fiber_hd,
                fiber_sd_only, fiber_dark);
  }

  std::printf(
      "\nGraceful degradation: as failures mount, fiber viewers drop from HD\n"
      "to SD well before anyone loses the stream entirely — the layers fail\n"
      "independently, and the base layer behaves exactly like the Theorem 4\n"
      "analysis says (loss probability ~ pd, regardless of audience size).\n");
  return 0;
}
