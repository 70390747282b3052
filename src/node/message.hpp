#pragma once
// Protocol messages. This is the concrete realization of Section 3's hello /
// good-bye / repair protocols: everything the paper describes as "the server
// asks the parents to redirect their streams" is an actual message here.

#include <cstdint>
#include <vector>

#include "obs/trace.hpp"
#include "overlay/thread_matrix.hpp"

namespace ncast::node {

/// Network address of a node. The server is always address 0.
using Address = std::uint32_t;
inline constexpr Address kServerAddress = 0;

enum class MessageType : std::uint8_t {
  kJoinRequest = 0,  ///< client -> server: hello protocol
  kJoinAccept = 1,   ///< server -> client: your thread columns
  kAttachChild = 2,  ///< server -> parent: start feeding `subject` on `column`
  kDetachChild = 3,  ///< server -> parent: stop feeding on `column`
  kGoodbye = 4,      ///< client -> server: graceful leave
  kComplaint = 5,    ///< client -> server: my feed on `column` went silent
  kData = 6,         ///< peer -> peer: one wire-encoded coded packet
  kKeepalive = 7,    ///< peer -> peer: "this feed is alive" (no data yet)
  // Congestion adaptation (Section 5): a loaded node sheds one thread (its
  // parent and child on that column are joined directly); when the pressure
  // passes, it asks for a thread back.
  kCongestionOffload = 8,  ///< client -> server: please shed one of my threads
  kCongestionRestore = 9,  ///< client -> server: please give me a thread back
  kColumnDropped = 10,     ///< server -> client: stop using `column`
  kColumnAdded = 11,       ///< server -> client: start using `column`
  // Decentralized membership (Section 7: "the role of the server can be
  // decreased still further or even eliminated"): peers find upload slots by
  // gossip instead of asking a tracker.
  kPeerSampleRequest = 12,  ///< peer -> peer: who do you know?
  kPeerSampleReply = 13,    ///< peer -> peer: `peers` = a random view sample
  kSlotRequest = 14,        ///< peer -> peer: may I become your child?
  kSlotGrant = 15,          ///< peer -> peer: yes; carries the stream plan
  kSlotDeny = 16,           ///< peer -> peer: full; carries a view sample
  kSlotRelease = 17,        ///< child -> parent: detach me
  kParentBye = 18,          ///< parent -> child: I am leaving; rewire
  // Data-plane feedback: a child that holds generation `subject` in full
  // answers each further frame of it, so its parent stops drawing it.
  kHave = 19,  ///< child -> parent: I hold `subject`; skip it on `column`
};

struct Message {
  MessageType type = MessageType::kData;
  Address from = 0;
  Address to = 0;
  overlay::ColumnId column = 0;           ///< attach/detach/data/complaint/have
  Address subject = 0;                    ///< attach: the child to feed;
                                          ///< hello/complaint: requested degree;
                                          ///< have: the finished generation
  std::vector<overlay::ColumnId> columns; ///< join accept: assigned threads
  std::vector<std::uint8_t> wire;         ///< data: serialized coded packet

  // Join-accept stream plan (how the server segmented the content).
  std::uint64_t data_size = 0;
  std::uint32_t gen_count = 0;
  std::uint16_t gen_size = 0;
  std::uint16_t symbols = 0;
  // Stream coding-structure descriptor (how each generation is mixed —
  // coding::StructureSpec on the wire). The zero values describe plain dense
  // RLNC (band_width 0 = full generation), so pre-structure senders and
  // receivers interoperate unchanged. StreamState::announce() is the one
  // writer of these fields and StreamState::initialize() the one reader; it
  // treats a nonsense descriptor as data and refuses it.
  std::uint8_t structure_kind = 0;   ///< coding::StructureKind byte
  std::uint16_t band_width = 0;      ///< band/class width; 0 = dense
  std::uint8_t structure_wrap = 0;   ///< banded: bands may wrap past g
  std::uint16_t class_overlap = 0;   ///< overlapped: shared boundary packets
  /// Serialized null-key sets, one per generation (empty = no verification).
  std::vector<std::vector<std::uint8_t>> key_bundles;
  /// Peer addresses (gossip sample replies / denial hints).
  std::vector<Address> peers;

  /// Causal trace context (out-of-band, like a W3C traceparent header): the
  /// span this message belongs to — a join exchange, a complaint/repair
  /// cycle. Replies and retransmissions inherit the originating span so the
  /// whole episode reconstructs from the trace by span id. Telemetry only:
  /// protocol decisions never read it and control_size() excludes it.
  obs::SpanId span = obs::kNoSpan;

  /// Approximate control-plane size in bytes (data payloads excluded): the
  /// fixed header (type + from + to + column + subject) plus every
  /// variable-length field the message actually carries — assigned thread
  /// columns, gossip peer samples, and for join accepts / slot grants the
  /// stream plan and the serialized null-key bundles (each with a length
  /// prefix). Earlier versions ignored peers/key_bundles/plan entirely,
  /// which made gossip and join-accept byte accounting silently optimistic.
  std::size_t control_size() const {
    if (type == MessageType::kData) return 0;
    std::size_t bytes = 1 + 4 * sizeof(std::uint32_t);  // type, from, to, column, subject
    bytes += columns.size() * sizeof(overlay::ColumnId);
    bytes += peers.size() * sizeof(Address);
    if (type == MessageType::kJoinAccept || type == MessageType::kSlotGrant) {
      bytes += sizeof(data_size) + sizeof(gen_count) + sizeof(gen_size) +
               sizeof(symbols);
      bytes += sizeof(structure_kind) + sizeof(band_width) +
               sizeof(structure_wrap) + sizeof(class_overlap);
      for (const auto& bundle : key_bundles) {
        bytes += sizeof(std::uint32_t) + bundle.size();
      }
    }
    return bytes;
  }
};

}  // namespace ncast::node
