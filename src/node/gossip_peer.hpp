#pragma once
// Fully decentralized peer (Section 7: the server's membership role
// "decreased still further or even eliminated"; cf. the receiver-driven
// overlay framework of [12]). There is no thread matrix and no tracker:
//
//   - every peer offers `upload_slots` upload slots and wants
//     `want_parents` feeds;
//   - a joiner knows one introducer; it learns more peers by gossiping view
//     samples and acquires feeds by asking peers for slots (full peers deny
//     but include a sample of their view, so rejection still makes progress);
//   - a peer whose feed goes silent simply drops it and re-acquires a slot
//     elsewhere — repair without any central authority. The pending-request
//     expiry (kRequestTimeout) is this protocol's retransmission: a slot
//     request whose grant or denial is lost is simply re-issued elsewhere;
//   - the source is just a peer that holds the content and never requests.
//
// start() runs the peer on a kernel Scheduler (its lane of the sharded
// engine) with one periodic serve/repair/gossip timer, so lossy or latent
// control links exercise exactly the logic an ideal fabric does.
//
// Trade-off vs the curtain (measured in bench_gossip / the protocol tests):
// the topology is only approximately the analyzed random model, join costs
// more messages, and nobody can prove Theorem 4's constants — but no single
// party needs global state.

#include <cstdint>
#include <map>
#include <vector>

#include "coding/structure.hpp"
#include "node/message.hpp"
#include "node/stream_state.hpp"
#include "node/transport.hpp"
#include "sim/event_engine.hpp"
#include "util/rng.hpp"

namespace ncast::node {

struct GossipPeerConfig {
  std::uint32_t want_parents = 3;     ///< feeds this peer tries to hold
  std::uint32_t upload_slots = 3;     ///< children this peer will serve
  std::uint64_t silence_timeout = 6;  ///< time before a feed counts as dead
  std::size_t null_keys = 0;          ///< source only: keys per generation
  /// Source only: the stream's coding structure; non-sources learn it from
  /// the slot grant that initializes them and forward it in their own grants.
  coding::StructureSpec structure;
  std::uint64_t seed = 1;
};

/// A tracker-less endpoint: downloader, uploader, and membership gossip all
/// in one. Construct with content to act as the source.
class GossipPeer : public Endpoint {
 public:
  static constexpr double kRequestTimeout = 4.0;  ///< slot request expiry
  static constexpr std::size_t kViewLimit = 32;   ///< partial view bound
  static constexpr std::size_t kSampleSize = 6;   ///< addresses per sample
  static constexpr double kSamplePeriod = 8.0;    ///< time between samples

  /// Regular peer; `introducer` is the one address it starts out knowing.
  GossipPeer(Address address, GossipPeerConfig config, Address introducer);

  /// Source peer: holds `content`, serves up to `upload_slots` children,
  /// never requests parents.
  GossipPeer(Address address, GossipPeerConfig config,
             std::vector<std::uint8_t> content, std::size_t generation_size,
             std::size_t symbols);

  Address address() const { return address_; }
  bool is_source() const { return stream_.is_source(); }
  bool crashed() const { return crashed_; }
  bool departed() const { return departed_; }

  std::size_t parent_count() const { return parents_.size(); }
  std::size_t child_count() const { return stream_.links().size(); }
  std::size_t view_size() const { return view_.size(); }
  std::uint64_t reacquisitions() const { return reacquisitions_; }

  bool decoded() const { return stream_.decoded(); }
  bool verification_enabled() const { return stream_.verification_enabled(); }
  std::size_t rank() const { return stream_.rank(); }
  /// Reconstructed (or original, for the source) content.
  std::vector<std::uint8_t> data() const { return stream_.data(); }
  /// Time the stream reached full rank (-1 if not decoded).
  double decode_time() const { return decode_time_; }

  /// Non-ergodic failure; callers should also net.crash(address()).
  void crash();

  /// Graceful departure: releases parents, tells children to rewire.
  void leave(Transport& net);

  /// Attaches to the transport and schedules the periodic
  /// serve/repair/gossip timer on the kernel engine.
  void start(sim::Scheduler& engine, AttachableTransport& net);

  /// Handles one protocol message.
  void on_message(const Message& m) override;

 private:
  bool active() const { return !crashed_ && !departed_; }
  void learn(Address peer);
  /// Learns every address of a denial's or sample reply's view sample.
  void learn_sample(const Message& m);
  std::vector<Address> sample_view(std::size_t count, Address exclude);
  void handle_slot_request(const Message& m);
  void handle_slot_grant(const Message& m);
  void acquire_parents();
  void tick_body();
  void event_tick();
  double now() const { return engine_->now(); }

  Address address_;
  GossipPeerConfig config_;
  /// Membership draws: view eviction, view samples, the parent search.
  Rng rng_;
  /// Data-plane draws: each upload's generation and coefficients. Kept
  /// apart from rng_, as ServerNode keeps its emissions apart from
  /// membership, so how much the uploads draw never moves the topology.
  Rng data_rng_;
  bool crashed_ = false;
  bool departed_ = false;

  std::vector<Address> view_;            // bounded partial membership
  std::map<Address, double> parents_;    // feed -> last liveness time
  std::map<Address, double> pending_;    // slot request -> sent time
  double last_sample_ = 0.0;
  std::uint64_t reacquisitions_ = 0;

  /// The stream, as its source or a relay, and the children this peer
  /// serves (its out-links, each keyed by the child's address). Its
  /// announcement — plan, structure and the null-key bundles the source
  /// generated — is handed from parent to child inside every slot grant
  /// (trust flows with the slots).
  StreamState stream_;

  Transport* net_ = nullptr;
  sim::Scheduler* engine_ = nullptr;
  sim::TimerHandle tick_timer_{};
  double decode_time_ = -1.0;
};

}  // namespace ncast::node
