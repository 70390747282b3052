// E18 — generation-scheduling ablation for multi-generation swarms. The
// practical-coding framework [5] leaves open which generation a relay should
// serve on each transmission. This ablation measures three local policies on
// the same curtain swarm:
//
//   sequential   — always the lowest-indexed generation with data
//   round-robin  — rotate a per-node cursor across generations with data
//   random       — uniform among generations with data
//
// Deterministic policies interact badly with the static edge order: the
// cursor orbit can lock an edge into a residue class of generations and
// starve a descendant forever (we hit exactly this while building the
// file-distribution example). The ablation quantifies it.

#include <cstdio>
#include <map>

#include "bench_common.hpp"
#include "coding/decoder.hpp"
#include "coding/encoder.hpp"
#include "gf/gf256.hpp"
#include "util/stats.hpp"

using namespace ncast;

namespace {

using Gf = gf::Gf256;

enum class Policy { kSequential, kRoundRobin, kRandom };

struct Outcome {
  double completed = 0;       ///< fraction of peers with the whole file
  double mean_progress = 0;   ///< mean fraction of total rank
  std::size_t rounds_to_90 = 0;  ///< rounds until 90% of peers complete (0 = never)
};

Outcome run(Policy policy, std::uint64_t seed) {
  const std::uint32_t k = 12, d = 3;
  const std::size_t peers = 50, generations = 8, g = 8, symbols = 8;
  Rng rng(seed);

  auto m = bench::grow_overlay(k, d, peers, seed ^ 0x515);
  const auto edges = m.edges();

  // Source.
  std::vector<coding::SourceEncoder<Gf>> encoders;
  for (std::size_t gen = 0; gen < generations; ++gen) {
    std::vector<std::vector<std::uint8_t>> source(g, std::vector<std::uint8_t>(symbols));
    for (auto& row : source) {
      for (auto& b : row) b = static_cast<std::uint8_t>(rng.below(256));
    }
    encoders.emplace_back(static_cast<std::uint32_t>(gen), std::move(source));
  }

  struct Peer {
    std::vector<coding::Decoder<Gf>> bufs;
    std::size_t cursor = 0;
  };
  std::map<overlay::NodeId, Peer> swarm;
  for (auto n : m.nodes_in_order()) {
    Peer p;
    for (std::size_t gen = 0; gen < generations; ++gen) {
      p.bufs.emplace_back(static_cast<std::uint32_t>(gen), g, symbols);
    }
    swarm.emplace(n, std::move(p));
  }

  auto pick = [&](Peer& p) -> coding::Decoder<Gf>* {
    std::size_t with_data = 0;
    for (auto& b : p.bufs) {
      if (b.rank() > 0) ++with_data;
    }
    if (with_data == 0) return nullptr;
    switch (policy) {
      case Policy::kSequential:
        for (auto& b : p.bufs) {
          if (b.rank() > 0 && !b.complete()) return &b;
        }
        for (auto& b : p.bufs) {
          if (b.rank() > 0) return &b;
        }
        return nullptr;
      case Policy::kRoundRobin:
        for (std::size_t step = 0; step < p.bufs.size(); ++step) {
          auto& b = p.bufs[p.cursor];
          p.cursor = (p.cursor + 1) % p.bufs.size();
          if (b.rank() > 0) return &b;
        }
        return nullptr;
      case Policy::kRandom: {
        std::size_t target = rng.below(with_data);
        for (auto& b : p.bufs) {
          if (b.rank() > 0 && target-- == 0) return &b;
        }
        return nullptr;
      }
    }
    return nullptr;
  };

  const std::size_t needed = generations * g;
  const std::size_t max_rounds = 1500;
  Outcome out;
  for (std::size_t round = 1; round <= max_rounds; ++round) {
    std::vector<std::pair<overlay::NodeId, coding::CodedPacket<Gf>>> mail;
    for (const auto& e : edges) {
      if (e.from == overlay::kServerNode) {
        // The server always serves a random generation (the fair reference;
        // the ablation is about the *relays*).
        const auto gen = rng.below(generations);
        mail.emplace_back(e.to, encoders[gen].emit(rng));
        continue;
      }
      auto& peer = swarm.at(e.from);
      if (auto* buf = pick(peer)) {
        if (auto p = buf->emit(rng)) mail.emplace_back(e.to, std::move(*p));
      }
    }
    for (auto& [to, p] : mail) swarm.at(to).bufs[p.generation].absorb(p);

    std::size_t complete = 0;
    for (auto& [node, peer] : swarm) {
      bool all = true;
      for (auto& b : peer.bufs) all &= b.complete();
      if (all) ++complete;
    }
    if (out.rounds_to_90 == 0 &&
        complete * 10 >= peers * 9) {
      out.rounds_to_90 = round;
    }
    if (complete == peers) break;
  }

  std::size_t complete = 0;
  double progress = 0;
  for (auto& [node, peer] : swarm) {
    std::size_t rank = 0;
    bool all = true;
    for (auto& b : peer.bufs) {
      rank += b.rank();
      all &= b.complete();
    }
    if (all) ++complete;
    progress += static_cast<double>(rank) / static_cast<double>(needed);
  }
  out.completed = static_cast<double>(complete) / static_cast<double>(peers);
  out.mean_progress = progress / static_cast<double>(peers);
  return out;
}

}  // namespace

int main() {
  bench::MetricsSession session("scheduling");
  session.param("k", 12);
  session.param("d", 3);
  session.param("n", 50);  // peers
  session.param("seed", std::uint64_t{0xE180});
  session.param("generations", 8);
  session.param("generation_size", 8);

  bench::banner(
      "E18: generation scheduling ablation (multi-generation swarms)",
      "k = 12, d = 3, 50 peers, 8 generations of 8 packets. Which generation\n"
      "should a relay serve? 4 trials per policy, 1500-round budget.");

  Table table({"policy", "completed%", "mean progress%", "rounds to 90%"});
  for (const auto& [name, policy] :
       std::vector<std::pair<const char*, Policy>>{
           {"sequential (lowest first)", Policy::kSequential},
           {"round-robin cursor", Policy::kRoundRobin},
           {"uniform random", Policy::kRandom}}) {
    RunningStats completed, progress, to90;
    int never = 0;
    for (std::uint64_t trial = 0; trial < 4; ++trial) {
      const auto out = run(policy, 0xE180 + trial);
      completed.add(out.completed * 100);
      progress.add(out.mean_progress * 100);
      if (out.rounds_to_90 == 0) {
        ++never;
      } else {
        to90.add(static_cast<double>(out.rounds_to_90));
      }
    }
    table.add_row({name, fmt(completed.mean(), 1), fmt(progress.mean(), 1),
                   never == 4 ? "never" : fmt(to90.mean(), 0)});
  }
  table.print();
  session.add_table("policies", table);

  std::printf(
      "\nReading: strict sequential service collapses — every relay keeps\n"
      "serving generation 0 (always refreshed from upstream, never 'done'\n"
      "from the relay's local view), starving the others. A per-node\n"
      "round-robin cursor works here and is fastest, but the same idea one\n"
      "level down — a per-edge rotation over a fixed edge order — provably\n"
      "locks edges into residue classes of generations and starves\n"
      "descendants (we hit it twice while building the examples; gcd(edge\n"
      "count, generations) > 1 is all it takes). Uniform random is within\n"
      "~1.4x of the best, needs no state, and has no such failure modes —\n"
      "the same reason the paper randomizes thread choice and coefficients.\n");
  return 0;
}
