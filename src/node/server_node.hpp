#pragma once
// The server endpoint: carries out the hello / good-bye / repair and
// congestion protocols as real message exchanges, and streams a complete
// multi-generation content object on the threads it still feeds directly.
// This is the component a deployment would run on the content origin.
//
// It is a thin message adapter over the two modules that own the decisions:
// an overlay::CurtainServer owns the thread matrix and every membership pick
// (each hello, good-bye, conviction, repair, offload and restore is one call
// on it), and a StreamState owns the origin — encoder, null keys, the stream
// announcement in each accept, the out-links of the columns the server still
// feeds directly, and every upload. What stays here are the messages that
// carry each decision out (accept, attach/detach, column dropped/added), the
// timers, and the trace spans.
//
// start() schedules the endpoint on a kernel Scheduler (its lane of the
// sharded engine) — a periodic emit timer plus one cancellable repair timer
// per complained-about node — and messages arrive via Endpoint::on_message.

#include <cstdint>
#include <map>
#include <vector>

#include "coding/structure.hpp"
#include "node/message.hpp"
#include "node/stream_state.hpp"
#include "node/transport.hpp"
#include "overlay/curtain_server.hpp"
#include "sim/event_engine.hpp"
#include "util/rng.hpp"

namespace ncast::node {

struct ServerConfig {
  std::uint32_t k = 16;              ///< server threads
  std::uint32_t default_degree = 3;  ///< d assigned to joiners
  double repair_delay = 3.0;         ///< time from complaint to repair
  std::size_t generation_size = 16;  ///< packets per generation
  std::size_t symbols = 16;          ///< payload bytes per packet
  std::size_t null_keys = 0;         ///< keys per generation (0 = off)
  /// Generation coding structure (dense/banded/overlapped). The join accept
  /// carries the resolved descriptor, so clients need no out-of-band setup.
  coding::StructureSpec structure;
  std::uint64_t seed = 1;
};

/// Content-origin endpoint.
class ServerNode : public Endpoint {
 public:
  /// `data` is the content being broadcast; it is segmented into
  /// generations per the config.
  ServerNode(ServerConfig config, std::vector<std::uint8_t> data);

  const overlay::ThreadMatrix& matrix() const { return curtain_.matrix(); }
  const ServerConfig& config() const { return config_; }
  const coding::GenerationPlan& plan() const { return stream_.plan(); }
  /// The columns the server feeds directly: column -> the first clipper.
  std::map<LinkId, Address> links() const { return stream_.links(); }

  /// The original content (for end-to-end verification in tests).
  const std::vector<std::uint8_t>& data() const {
    return stream_.source_data();
  }

  /// Attaches to the transport and schedules the emit loop.
  void start(sim::Scheduler& engine, AttachableTransport& net);

  /// Handles one protocol message.
  void on_message(const Message& m) override;

  /// Number of repairs executed so far.
  std::uint64_t repairs_done() const { return curtain_.stats().repairs; }
  /// Time the most recent repair completed (-1 if none yet) — the repair
  /// convergence measurement bench_control_loss sweeps.
  double last_repair_time() const { return last_repair_time_; }

 private:
  void handle_join(const Message& m);
  void handle_goodbye(const Message& m);
  void handle_complaint(const Message& m);
  void handle_offload(const Message& m);
  void handle_restore(const Message& m);
  /// `span` is the causal span the accept rides (the hello's span, so the
  /// join episode's request and response share one id).
  void send_accept(Address addr, overlay::ThreadSpan columns, obs::SpanId span);
  /// Points `parent`'s out-link on `column` at `child` (kNoNode: stop
  /// feeding). The server's own out-links (`parent` kServerNode) change in
  /// place; a client's by an attach or detach order tagged with `span`.
  void rewire(overlay::NodeId parent, overlay::ColumnId column,
              overlay::NodeId child, obs::SpanId span);

  /// The good-bye steps for `addr` (a graceful leave, or a repair on its
  /// behalf): for each of its columns, rewires its row's parent there to
  /// its row's child there, then deletes the row through
  /// CurtainServer::leave or CurtainServer::repair. `span` tags the
  /// rewiring messages and the membership event (the good-bye's span on a
  /// leave, the repair span during a repair).
  void splice_out(Address addr, obs::SpanId span, bool repair);
  void finish_repair(Address addr, obs::SpanId span);

  /// A repair episode, opened by the complaint that convicted the node and
  /// ended by the splice or by a good-bye that races it. Its span is a
  /// child of the complaint's: the server half of the span tree.
  struct Repair {
    sim::TimerHandle timer;
    obs::SpanId span;
  };

  void event_tick();

  ServerConfig config_;
  /// The membership owner: append policy, seeded with the raw config seed
  /// and touched by nothing else, so the matrix matches a CurtainServer
  /// built with Rng(seed) and fed the same calls — the cross-plane
  /// equivalence the Lemma 1 tests pin down.
  overlay::CurtainServer curtain_;
  /// Data-plane draws (generation choice + coding coefficients), decoupled
  /// from membership so emission volume cannot shift topology decisions.
  Rng emit_rng_;
  /// The origin: encoder, null keys, announcement, the directly-fed
  /// columns' out-links and their uploads.
  StreamState stream_;
  /// The open repair episode of each convicted node.
  std::map<Address, Repair> repairs_;
  Transport* net_ = nullptr;
  sim::Scheduler* engine_ = nullptr;
  sim::TimerHandle emit_timer_{};
  double last_repair_time_ = -1.0;
};

}  // namespace ncast::node
