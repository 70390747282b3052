#pragma once
// The server endpoint: runs the hello / good-bye / repair protocols as real
// message exchanges, maintains the thread matrix, and streams a complete
// multi-generation content object on the threads it still feeds directly.
// This is the component a deployment would run on the content origin.
//
// start() schedules the endpoint on a kernel Scheduler (its lane of the
// sharded engine) — a periodic emit timer plus one cancellable repair timer
// per complained-about node — and messages arrive via Endpoint::on_message.

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "coding/file_codec.hpp"
#include "coding/null_keys.hpp"
#include "gf/gf256.hpp"
#include "node/message.hpp"
#include "node/transport.hpp"
#include "overlay/thread_matrix.hpp"
#include "sim/event_engine.hpp"
#include "util/rng.hpp"

namespace ncast::node {

struct ServerConfig {
  std::uint32_t k = 16;              ///< server threads
  std::uint32_t default_degree = 3;  ///< d assigned to joiners
  std::uint64_t repair_delay = 3;    ///< time units from complaint to repair
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

  const overlay::ThreadMatrix& matrix() const { return matrix_; }
  const ServerConfig& config() const { return config_; }
  const coding::GenerationPlan& plan() const { return encoder_.plan(); }

  /// The original content (for end-to-end verification in tests).
  const std::vector<std::uint8_t>& data() const { return data_; }

  /// Attaches to the transport and schedules the emit loop.
  void start(sim::Scheduler& engine, AttachableTransport& net);

  /// Handles one protocol message.
  void on_message(const Message& m) override;

  /// Number of repairs executed so far.
  std::uint64_t repairs_done() const { return repairs_done_; }
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

  /// Performs the good-bye steps for `addr` (used by both graceful leaves
  /// and repairs): for each of its columns, rewires the previous clipper to
  /// the next one, then deletes the row. `span` tags the rewiring messages
  /// (the repair span during a repair, the good-bye's span on a leave).
  void splice_out(Address addr, obs::SpanId span = obs::kNoSpan);
  void finish_repair(Address addr);

  /// Emits one coded packet per directly-fed column.
  void emit_direct();
  void event_tick();

  /// Previous clipper of `column` above the row of `addr` (server if none).
  Address parent_on_column(Address addr, overlay::ColumnId column) const;
  /// Next clipper of `column` below the row of `addr` (none if hanging).
  std::optional<Address> child_on_column(Address addr,
                                         overlay::ColumnId column) const;

  ServerConfig config_;
  overlay::ThreadMatrix matrix_;
  /// Membership draws only (join/offload/restore thread picks). Seeded with
  /// the raw config seed and touched by nothing else, so the pick sequence
  /// matches a CurtainServer built with Rng(seed) call for call — the
  /// cross-plane equivalence the Lemma 1 test pins down.
  Rng membership_rng_;
  /// Data-plane draws (generation choice + coding coefficients), decoupled
  /// from membership so emission volume cannot shift topology decisions.
  Rng emit_rng_;
  std::vector<std::uint8_t> data_;
  coding::FileEncoder encoder_;
  /// Serialized null-key bundles, one per generation (empty if disabled).
  std::vector<std::vector<std::uint8_t>> key_bundles_;
  /// Columns the server currently feeds directly: column -> child address.
  std::map<overlay::ColumnId, Address> direct_children_;
  /// One cancellable repair timer per failed node.
  std::map<Address, sim::TimerHandle> repair_timers_;
  /// Open repair span per failed node (begun at the complaint that scheduled
  /// the repair, parented on the complaint's span, ended when the splice
  /// completes) — the server half of the complaint/repair span tree.
  std::map<Address, obs::SpanId> repair_spans_;
  Transport* net_ = nullptr;
  sim::Scheduler* engine_ = nullptr;
  sim::TimerHandle emit_timer_{};
  std::uint64_t repairs_done_ = 0;
  double last_repair_time_ = -1.0;
};

}  // namespace ncast::node
