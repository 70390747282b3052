#pragma once
// Protocol messages. This is the concrete realization of Section 3's hello /
// good-bye / repair protocols: everything the paper describes as "the server
// asks the parents to redirect their streams" is an actual message here.

#include <cstdint>
#include <memory>
#include <type_traits>
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

/// The fields only a join accept, a slot grant, a slot denial or a gossip
/// sample reply carries. A Message holds them behind one pointer, so data,
/// keepalives, haves and every other control message stay small and never
/// allocate one.
struct MessageBody {
  std::vector<overlay::ColumnId> columns;  ///< join accept: assigned threads
  std::vector<Address> peers;  ///< gossip sample replies / denial hints

  // The stream announcement of a join accept or slot grant. Plan: how the
  // server segmented the content.
  std::uint64_t data_size = 0;
  std::uint32_t gen_count = 0;
  std::uint16_t gen_size = 0;
  std::uint16_t symbols = 0;
  // Stream coding-structure descriptor (how each generation is mixed —
  // coding::StructureSpec on the wire). The zero values describe plain dense
  // RLNC (band_width 0 = full generation), so pre-structure senders and
  // receivers interoperate unchanged. StreamState::announce() is the one
  // writer of these fields and StreamState::initialize() the one reader; it
  // treats a nonsense descriptor, or an accept with no body, as data and
  // refuses it.
  std::uint8_t structure_kind = 0;   ///< coding::StructureKind byte
  std::uint16_t band_width = 0;      ///< band/class width; 0 = dense
  std::uint8_t structure_wrap = 0;   ///< banded: bands may wrap past g
  std::uint16_t class_overlap = 0;   ///< overlapped: shared boundary packets
  /// Serialized null-key sets, one per generation (empty = no verification).
  std::vector<std::vector<std::uint8_t>> key_bundles;
};

/// One protocol message: a fixed header, the data frame, and an optional
/// body. Every hop moves it by value through an engine slot (the transport's
/// delivery closure is `this` plus a Message), so its size sets the slot
/// size: see sim::kCallbackInlineBytes.
struct Message {
  MessageType type = MessageType::kData;
  Address from = 0;
  Address to = 0;
  overlay::ColumnId column = 0;           ///< attach/detach/data/complaint/have
  Address subject = 0;                    ///< attach: the child to feed;
                                          ///< hello/complaint: requested degree;
                                          ///< have: the finished generation

  /// Causal trace context (out-of-band, like a W3C traceparent header): the
  /// span this message belongs to — a join exchange, a complaint/repair
  /// cycle. Replies and retransmissions inherit the originating span so the
  /// whole episode reconstructs from the trace by span id. Telemetry only:
  /// protocol decisions never read it and control_size() excludes it.
  obs::SpanId span = obs::kNoSpan;

  std::vector<std::uint8_t> wire;  ///< data: serialized coded packet

  /// The body, or nullptr when the message carries none.
  const MessageBody* body() const { return body_.get(); }
  /// The body, created empty on first use.
  MessageBody& mutable_body() { return body_.get_or_create(); }

  /// Approximate control-plane size in bytes (data payloads excluded): the
  /// fixed header (type + from + to + column + subject) plus every
  /// variable-length field the message actually carries — assigned thread
  /// columns, gossip peer samples, and for join accepts / slot grants the
  /// stream plan and the serialized null-key bundles (each with a length
  /// prefix). An accept or grant counts the plan even without a body.
  std::size_t control_size() const {
    if (type == MessageType::kData) return 0;
    std::size_t bytes = 1 + 4 * sizeof(std::uint32_t);  // type, from, to, column, subject
    const bool announces =
        type == MessageType::kJoinAccept || type == MessageType::kSlotGrant;
    if (announces) {
      bytes += sizeof(MessageBody::data_size) + sizeof(MessageBody::gen_count) +
               sizeof(MessageBody::gen_size) + sizeof(MessageBody::symbols);
      bytes += sizeof(MessageBody::structure_kind) +
               sizeof(MessageBody::band_width) +
               sizeof(MessageBody::structure_wrap) +
               sizeof(MessageBody::class_overlap);
    }
    const MessageBody* b = body();
    if (b == nullptr) return bytes;
    bytes += b->columns.size() * sizeof(overlay::ColumnId);
    bytes += b->peers.size() * sizeof(Address);
    if (announces) {
      for (const auto& bundle : b->key_bundles) {
        bytes += sizeof(std::uint32_t) + bundle.size();
      }
    }
    return bytes;
  }

 private:
  /// Owns the body: a copy clones it, a move steals the pointer, so Message
  /// stays copyable and nothrow-movable.
  class Body {
   public:
    Body() = default;
    Body(const Body& o)
        : p_(o.p_ ? std::make_unique<MessageBody>(*o.p_) : nullptr) {}
    Body(Body&&) noexcept = default;
    Body& operator=(const Body& o) {
      p_ = o.p_ ? std::make_unique<MessageBody>(*o.p_) : nullptr;
      return *this;
    }
    Body& operator=(Body&&) noexcept = default;
    const MessageBody* get() const { return p_.get(); }
    MessageBody& get_or_create() {
      if (!p_) p_ = std::make_unique<MessageBody>();
      return *p_;
    }

   private:
    std::unique_ptr<MessageBody> p_;
  };

  Body body_;
};

// Message travels by value through every engine slot; a larger or
// throwing-move Message would push the transport's delivery closure past
// sim::kCallbackInlineBytes and onto the heap (sharded_transport.cpp checks
// the closure itself).
static_assert(sizeof(Message) <= 64, "Message must fit a 64-byte slot payload");
static_assert(std::is_nothrow_move_constructible_v<Message>);
static_assert(std::is_copy_constructible_v<Message>);

}  // namespace ncast::node
