// Asynchronous file distribution (the Avalanche scenario, [13]): a 256 KiB
// file is pushed through a curtain overlay as coded generations; every peer
// is simultaneously a downloader and an uploader holding only a recoding
// buffer per generation — no peer ever needs the original blocks to help
// others.
//
//   $ ./file_distribution

#include <cstdio>
#include <unordered_map>
#include <vector>

#include "coding/decoder.hpp"
#include "coding/file_codec.hpp"
#include "overlay/curtain_server.hpp"
#include "overlay/flow_graph.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

using namespace ncast;

int main() {
  // The file.
  Rng data_rng(1);
  std::vector<std::uint8_t> file(128 * 1024);
  for (auto& b : file) b = static_cast<std::uint8_t>(data_rng.below(256));

  const std::size_t generation_size = 16;  // packets per generation
  const std::size_t symbols = 1024;        // 1 KiB packets
  coding::FileEncoder seed_host(file, generation_size, symbols);
  std::printf("file: %zu KiB -> %zu generations of %zu x %zu B\n",
              file.size() / 1024, seed_host.generations(), generation_size,
              symbols);

  // The swarm: 60 peers in a curtain with k = 12, d = 3.
  const std::uint32_t k = 12, d = 3;
  overlay::CurtainServer server(k, d, Rng(7));
  const std::size_t peers = 40;
  for (std::size_t i = 0; i < peers; ++i) server.join();

  // Per-peer state: one decoder per generation, which is also the upload
  // buffer — a peer recodes straight from the basis it decodes from.
  struct Peer {
    std::vector<coding::Decoder<gf::Gf256>> buffers;

    /// A uniformly random generation buffer with anything to give.
    /// (Random, not round-robin: a deterministic rotation can lock an edge
    /// into a residue class of generations and starve a descendant forever.)
    coding::Decoder<gf::Gf256>* next_upload(Rng& rng) {
      std::size_t with_data = 0;
      for (const auto& b : buffers) {
        if (b.rank() > 0) ++with_data;
      }
      if (with_data == 0) return nullptr;
      std::size_t pick = rng.below(with_data);
      for (auto& b : buffers) {
        if (b.rank() > 0 && pick-- == 0) return &b;
      }
      return nullptr;
    }

    bool complete() const {
      for (const auto& b : buffers) {
        if (!b.complete()) return false;
      }
      return true;
    }
    std::size_t rank() const {
      std::size_t r = 0;
      for (const auto& b : buffers) r += b.rank();
      return r;
    }
  };
  std::unordered_map<overlay::NodeId, Peer> swarm;
  for (auto node : server.matrix().nodes_in_order()) {
    Peer p;
    for (std::size_t g = 0; g < seed_host.generations(); ++g) {
      p.buffers.emplace_back(static_cast<std::uint32_t>(g), generation_size,
                             symbols);
    }
    swarm.emplace(node, std::move(p));
  }

  // Rounds: the seed sends one packet per thread (round-robin generations);
  // every peer forwards one recoded packet per out-segment for the
  // least-complete generation it holds data for.
  Rng rng(2);
  const auto edges = server.matrix().edges();
  const std::size_t needed =
      seed_host.generations() * generation_size;

  std::size_t round = 0, done = 0;
  while (done < peers) {
    ++round;
    std::vector<std::pair<overlay::NodeId, coding::CodedPacket<gf::Gf256>>> mail;
    for (const auto& e : edges) {
      if (e.from == overlay::kServerNode) {
        // Random generation per packet. (Round-robin would assign each
        // server edge a fixed residue class of generations — the edge order
        // is static — starving direct children of some generations forever.)
        const auto gen = rng.below(seed_host.generations());
        mail.emplace_back(e.to, seed_host.emit(gen, rng));
        continue;
      }
      // Random generation among those this peer holds data for.
      auto& peer = swarm.at(e.from);
      if (auto* buf = peer.next_upload(rng)) {
        if (auto p = buf->emit(rng)) mail.emplace_back(e.to, std::move(*p));
      }
    }
    for (auto& [to, packet] : mail) {
      auto& peer = swarm.at(to);
      peer.buffers[packet.generation].absorb(packet);
    }
    done = 0;
    for (const auto& [node, peer] : swarm) {
      if (peer.complete()) ++done;
    }
    if (round % 50 == 0 || done == peers) {
      RunningStats progress;
      for (const auto& [node, peer] : swarm) {
        progress.add(static_cast<double>(peer.rank()) /
                     static_cast<double>(needed));
      }
      std::printf("round %4zu: mean progress %5.1f%%, %2zu/%zu peers done\n",
                  round, progress.mean() * 100, done, peers);
    }
    if (round > 20000) {
      std::printf("bailing out: swarm did not complete\n");
      return 1;
    }
  }

  // Verify a random peer's reconstruction bit-for-bit.
  const auto node = server.matrix().nodes_in_order()[peers / 2];
  coding::FileDecoder verify(seed_host.plan());
  Rng vr(3);
  for (auto& buf : swarm.at(node).buffers) {
    while (!verify.decoder(buf.generation()).complete()) {
      const auto p = buf.emit(vr);
      verify.absorb(*p);
    }
  }
  std::printf("peer %u reconstruction %s\n", node,
              verify.data() == file ? "MATCHES the original" : "CORRUPT");
  std::printf(
      "Every peer uploaded only random recombinations of its buffer — the\n"
      "practical-network-coding property that makes the overlay oblivious\n"
      "to who has which block (no rarest-first scheduling needed).\n");
  return 0;
}
