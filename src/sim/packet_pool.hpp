#pragma once
// Shared coded-packet free list. Buffers cycle sender -> in-flight ->
// absorb -> pool, so a steady-state simulation performs no
// per-packet allocation: emit_into()/deserialization fill whatever capacity
// a recycled packet already carries. Used by the scenario runner.

#include <utility>
#include <vector>

#include "coding/packet.hpp"

namespace ncast::sim {

template <typename Field>
class PacketPool {
 public:
  using Packet = coding::CodedPacket<Field>;

  /// Takes a recycled packet (arbitrary stale contents) or a fresh one.
  Packet acquire() {
    if (free_.empty()) return Packet{};
    Packet p = std::move(free_.back());
    free_.pop_back();
    return p;
  }

  /// Returns a packet's buffers to the pool.
  void release(Packet&& p) { free_.push_back(std::move(p)); }

  std::size_t size() const { return free_.size(); }

 private:
  std::vector<Packet> free_;
};

}  // namespace ncast::sim
