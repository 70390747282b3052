#pragma once
// Layer 2a of the simulation kernel: the link model. A LinkModelSpec is a
// declarative description of what the physical links under an overlay do to
// packets — latency distribution, a loss process (Bernoulli or bursty
// Gilbert-Elliott), per-link bandwidth caps, and timed partitions. A
// LinkModel instantiates the spec for one run: per-link latencies and send
// phases are sampled once at construction (in link order, so runs are
// seed-stable), loss-channel state advances per delivery.
//
// The model composes with any topology: the scenario runner asks it three
// questions — when does this link send, how long does a packet ride it, and
// does this delivery survive — and nothing else.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "graph/digraph.hpp"
#include "util/rng.hpp"

namespace ncast::sim {

/// Per-link propagation delay distribution; sampled once per link per run
/// (a link's latency is a property of the path, not of the packet).
struct LatencySpec {
  enum class Kind : std::uint8_t { kFixed, kUniform, kShiftedExponential };
  Kind kind = Kind::kFixed;
  double fixed = 0.5;    ///< kFixed: every link takes exactly this long
  double min = 0.2;      ///< kUniform: drawn from [min, max]
  double max = 1.8;
  double base = 0.1;     ///< kShiftedExponential: base + Exp(mean - base)
  double mean = 0.5;

  static LatencySpec fixed_delay(double t) {
    LatencySpec s;
    s.kind = Kind::kFixed;
    s.fixed = t;
    return s;
  }
  static LatencySpec uniform(double lo, double hi) {
    LatencySpec s;
    s.kind = Kind::kUniform;
    s.min = lo;
    s.max = hi;
    return s;
  }
  static LatencySpec shifted_exponential(double base, double mean) {
    LatencySpec s;
    s.kind = Kind::kShiftedExponential;
    s.base = base;
    s.mean = mean;
    return s;
  }

  double sample(Rng& rng) const {
    switch (kind) {
      case Kind::kFixed:
        return fixed;
      case Kind::kUniform:
        return min + rng.uniform() * (max - min);
      case Kind::kShiftedExponential: {
        const double excess = mean > base ? mean - base : 0.0;
        return excess > 0.0 ? base + rng.exponential(1.0 / excess) : base;
      }
    }
    return fixed;
  }

  /// Epoch-sizing bound for the sharded kernel: a latency no link goes
  /// below. A sharded run whose epoch is <= this never clamps a cross-lane
  /// delivery (sim/sharded_engine.hpp, determinism rule 3).
  double lower_bound() const {
    switch (kind) {
      case Kind::kFixed:
        return fixed;
      case Kind::kUniform:
        return min;
      case Kind::kShiftedExponential:
        return base;
    }
    return fixed;
  }

  /// Horizon-sizing bound: a latency essentially no link exceeds. Exact for
  /// the bounded kinds; a generous tail quantile for the exponential.
  double upper_bound() const {
    switch (kind) {
      case Kind::kFixed:
        return fixed;
      case Kind::kUniform:
        return max;
      case Kind::kShiftedExponential:
        return base + 4.0 * (mean > base ? mean - base : 0.0);
    }
    return fixed;
  }
};

/// Per-delivery loss process. Bernoulli drops i.i.d.; Gilbert-Elliott is the
/// classic two-state burst-loss chain (Section 2's "momentary congestion"
/// with memory): each delivery first advances the link's good/bad state,
/// then drops with that state's loss rate.
struct LossSpec {
  enum class Kind : std::uint8_t { kNone, kBernoulli, kGilbertElliott };
  Kind kind = Kind::kNone;
  double p = 0.0;            ///< kBernoulli drop probability
  double p_enter_bad = 0.0;  ///< GE: P(good -> bad) per delivery
  double p_exit_bad = 0.0;   ///< GE: P(bad -> good) per delivery
  double loss_good = 0.0;    ///< GE: drop probability in the good state
  double loss_bad = 1.0;     ///< GE: drop probability in the bad state

  static LossSpec none() { return LossSpec{}; }
  static LossSpec bernoulli(double drop_p) {
    LossSpec s;
    s.kind = Kind::kBernoulli;
    s.p = drop_p;
    return s;
  }
  static LossSpec gilbert_elliott(double enter_bad, double exit_bad,
                                  double good_loss = 0.0, double bad_loss = 1.0) {
    LossSpec s;
    s.kind = Kind::kGilbertElliott;
    s.p_enter_bad = enter_bad;
    s.p_exit_bad = exit_bad;
    s.loss_good = good_loss;
    s.loss_bad = bad_loss;
    return s;
  }

  /// One delivery's loss step, shared by every loss-drawing caller. Returns
  /// whether the delivery survives. Gilbert-Elliott first advances the
  /// channel state `bad`, then drops at that state's rate; the stateless
  /// kinds leave `bad` alone. Draws from `rng` only for the kinds that need
  /// randomness.
  bool survives(bool& bad, Rng& rng) const {
    switch (kind) {
      case Kind::kNone:
        return true;
      case Kind::kBernoulli:
        return !rng.chance(p);
      case Kind::kGilbertElliott:
        bad = bad ? !rng.chance(p_exit_bad) : rng.chance(p_enter_bad);
        return !rng.chance(bad ? loss_bad : loss_good);
    }
    return true;
  }

  /// Stationary mean loss rate (for picking comparable Bernoulli/GE pairs).
  double mean_loss() const {
    switch (kind) {
      case Kind::kNone:
        return 0.0;
      case Kind::kBernoulli:
        return p;
      case Kind::kGilbertElliott: {
        const double denom = p_enter_bad + p_exit_bad;
        if (denom <= 0.0) return loss_good;
        const double pi_bad = p_enter_bad / denom;
        return (1.0 - pi_bad) * loss_good + pi_bad * loss_bad;
      }
    }
    return 0.0;
  }
};

/// A two-sided network split active during [start, end): deliveries crossing
/// sides are dropped. Vertices are assigned to side B independently with
/// `side_b_fraction` (the source always stays on side A).
struct PartitionSpec {
  double start = 0.0;
  double end = 0.0;  ///< inactive unless end > start
  double side_b_fraction = 0.0;

  bool active() const { return end > start && side_b_fraction > 0.0; }
  static PartitionSpec window(double from, double until, double b_fraction) {
    PartitionSpec s;
    s.start = from;
    s.end = until;
    s.side_b_fraction = b_fraction;
    return s;
  }
};

/// The composable description of link behavior for one scenario.
struct LinkModelSpec {
  LatencySpec latency;
  LossSpec loss;
  /// Max packets a link may carry per unit time; 0 = uncapped. Enforced as a
  /// minimum spacing of 1/cap between consecutive sends on the same link.
  double bandwidth_cap = 0.0;
  PartitionSpec partition;
};

/// One run's instantiation of a LinkModelSpec over a concrete link list.
/// Construction draws, in link order: latency, then send phase (only when the
/// scenario uses random phases) — the exact draw order the pre-kernel
/// simulators used, so their seeds still reproduce bit-identical runs.
class LinkModel {
 public:
  struct LinkEnd {
    graph::Vertex from;
    graph::Vertex to;
  };

  /// `period` is the scenario's send period; `random_phases` draws each
  /// link's first-send offset from [0, period), otherwise phases are 0.
  LinkModel(const LinkModelSpec& spec, const std::vector<LinkEnd>& links,
            std::size_t vertices, graph::Vertex source, double period,
            bool random_phases, Rng& rng)
      : spec_(spec), links_(links) {
    latency_.reserve(links.size());
    phase_.reserve(links.size());
    for (std::size_t i = 0; i < links.size(); ++i) {
      latency_.push_back(spec.latency.sample(rng));
      phase_.push_back(random_phases ? rng.uniform() * period : 0.0);
    }
    if (spec.loss.kind == LossSpec::Kind::kGilbertElliott) {
      // Value-initialized: every channel starts good.
      in_bad_ = std::make_unique<bool[]>(links.size());
    }
    if (spec.bandwidth_cap > 0.0) {
      next_send_ok_.assign(links.size(), 0.0);
    }
    if (spec_.partition.active()) {
      side_b_.assign(vertices, false);
      for (std::size_t v = 0; v < vertices; ++v) {
        if (v == source) continue;
        side_b_[v] = rng.chance(spec_.partition.side_b_fraction);
      }
    }
  }

  const LinkEnd& link(std::size_t i) const { return links_[i]; }
  double latency(std::size_t i) const { return latency_[i]; }
  double phase(std::size_t i) const { return phase_[i]; }

  /// Bandwidth gate: true iff link `i` may send at `now` (and if so, books
  /// the 1/cap spacing). Uncapped models always answer yes.
  bool allow_send(std::size_t i, double now) {
    if (spec_.bandwidth_cap <= 0.0) return true;
    if (now + 1e-12 < next_send_ok_[i]) return false;
    next_send_ok_[i] = now + 1.0 / spec_.bandwidth_cap;
    return true;
  }

  /// Loss + partition decision for a delivery on link `i` arriving at `now`.
  /// Advances the Gilbert-Elliott chain when configured. Draws from `rng`
  /// only for loss kinds that need randomness.
  bool survives(std::size_t i, double now, Rng& rng) {
    if (partitioned(i, now)) return false;
    bool stateless = false;  // stands in for the channel state of non-GE kinds
    return spec_.loss.survives(in_bad_ ? in_bad_[i] : stateless, rng);
  }

  bool partitioned(std::size_t i, double now) const {
    if (!spec_.partition.active()) return false;
    if (now < spec_.partition.start || now >= spec_.partition.end) return false;
    const LinkEnd& e = links_[i];
    return side_b_[e.from] != side_b_[e.to];
  }

  const LinkModelSpec& spec() const { return spec_; }

 private:
  LinkModelSpec spec_;
  std::vector<LinkEnd> links_;
  std::vector<double> latency_;
  std::vector<double> phase_;
  // Gilbert-Elliott channel state, per link; null for the other kinds. A
  // plain bool array, not std::vector<bool>, so LossSpec::survives can
  // advance an element through a bool&.
  std::unique_ptr<bool[]> in_bad_;
  std::vector<double> next_send_ok_;  // bandwidth-cap bookkeeping, per link
  std::vector<bool> side_b_;        // partition side, per vertex
};

}  // namespace ncast::sim
