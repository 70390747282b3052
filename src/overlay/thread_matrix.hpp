#pragma once
// The matrix M of Section 3: the server-side data structure that mirrors the
// curtain overlay. Rows are nodes in curtain (top-to-bottom) order; each row
// holds the set of thread columns the node clipped. Heterogeneous degrees are
// allowed (Section 5): a row may have any 1 <= d <= k threads.
//
// The matrix is the single source of truth for topology. Everything else —
// the flow graph, parent/child relations, hanging-thread ends — is derived.
//
// Representation (docs/architecture.md, "Row records and the blocked
// curtain"): one 64-byte, cache-line-aligned record per row, indexed by
// node id. Its 16-byte header holds the row's curtain block, roster index,
// length and failure tag; then come the row's sorted columns and, for every
// column, the nearest rows above and below clipping it (`up`, `down`), so a
// row of degree <= 4 — the paper's regime — is one cache line. A wider row
// keeps the same three lanes in a CSR-style overflow arena with size-class
// free lists, at the span its header names. `row()` hands out all three
// lanes, so a caller reads every link a splice makes or breaks from one
// record; `parents()` / `children()` / `edges()` read the lanes instead of
// rescanning the curtain, and `hanging_ends()` reads the per-column tail
// array. Curtain order is an unrolled list of fixed-size blocks, each
// holding its rows' ids and a 64-bit column signature per row (bit c % 64
// for each clipped column c).
// Placing a row is an O(kBlockRows) shift inside one block. Resolving its d
// links takes two rounds of independent loads: a scan of the signatures
// below the row finds, per signature bit, the nearest row carrying it
// (about (k/d) ln d signatures for d random columns, no record read), then
// the d children's records and after them the d parents' records. An
// unordered roster of the rows (`member()`) gives callers a uniform row
// without a rank. `row()` returns a value whose lanes are borrowed
// (invalidated by the next mutation), not owned vectors.

#include <cstddef>
#include <cstdint>
#include <iterator>
#include <stdexcept>
#include <vector>

namespace ncast::overlay {

using NodeId = std::uint32_t;
using ColumnId = std::uint32_t;

inline constexpr NodeId kServerNode = static_cast<NodeId>(-1);
/// Sentinel for "no row" in downward links and column tails. Shares the
/// server's id: a column whose tail is kServerNode hangs from the server,
/// and a slot whose down-link is kNoNode has no child below.
inline constexpr NodeId kNoNode = kServerNode;

/// Borrowed view of one row's sorted, distinct column set. Points into the
/// matrix's row storage: valid until the next mutating call on the matrix.
/// Callers that hold columns across mutations must copy (`to_vector()`).
class ThreadSpan {
 public:
  using value_type = ColumnId;
  using const_iterator = const ColumnId*;

  ThreadSpan() = default;
  ThreadSpan(const ColumnId* data, std::size_t size) : data_(data), size_(size) {}
  /// Implicit view of an owned vector (the reverse of to_vector()).
  ThreadSpan(const std::vector<ColumnId>& v) : data_(v.data()), size_(v.size()) {}

  const ColumnId* begin() const { return data_; }
  const ColumnId* end() const { return data_ + size_; }
  const ColumnId* data() const { return data_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ColumnId operator[](std::size_t i) const { return data_[i]; }
  ColumnId front() const { return data_[0]; }
  ColumnId back() const { return data_[size_ - 1]; }

  std::vector<ColumnId> to_vector() const {
    return std::vector<ColumnId>(begin(), end());
  }

  friend bool operator==(const ThreadSpan& a, const ThreadSpan& b) {
    if (a.size_ != b.size_) return false;
    for (std::size_t i = 0; i < a.size_; ++i) {
      if (a.data_[i] != b.data_[i]) return false;
    }
    return true;
  }
  friend bool operator==(const ThreadSpan& a, const std::vector<ColumnId>& b) {
    return a == ThreadSpan(b.data(), b.size());
  }
  friend bool operator==(const std::vector<ColumnId>& a, const ThreadSpan& b) {
    return ThreadSpan(a.data(), a.size()) == b;
  }

 private:
  const ColumnId* data_ = nullptr;
  std::size_t size_ = 0;
};

/// One row of M, as a view: a node, the columns it clipped, and its links
/// on each of them. `up[i]` is the nearest row above clipping `threads[i]`
/// (kServerNode: the server feeds it) and `down[i]` the nearest below
/// (kNoNode: the row holds the hanging end), so the lanes name every link a
/// splice of this row makes or breaks. All three lanes borrow from the
/// matrix and are invalidated by the next mutation.
struct Row {
  NodeId node = 0;
  ThreadSpan threads;            // sorted, distinct
  const NodeId* up = nullptr;    // index-aligned with threads
  const NodeId* down = nullptr;  // index-aligned with threads
  bool failed = false;           // failure tag (Section 4)
};

/// A directed overlay edge derived from M: `from` feeds `to` on `column`.
struct ThreadEdge {
  NodeId from = 0;  // kServerNode means the server
  NodeId to = 0;
  ColumnId column = 0;
};

/// The hanging (unserved) end of a column: the last row clipping it, or the
/// server if none.
struct HangingEnd {
  ColumnId column = 0;
  NodeId owner = kServerNode;  // kServerNode = thread hangs from the server
  bool owner_failed = false;   // a dead end: delivers nothing until repaired
};

/// Matrix M. Node ids are stable handles assigned by the caller (the server);
/// row order is the curtain order.
class ThreadMatrix {
 public:
  /// Rows per curtain block.
  static constexpr std::uint32_t kBlockRows = 32;

  explicit ThreadMatrix(std::uint32_t k);

  std::uint32_t k() const { return k_; }
  std::size_t row_count() const { return members_.size(); }

  /// Number of rows that are not tagged failed.
  std::size_t working_count() const { return row_count() - failed_count_; }
  std::size_t failed_count() const { return failed_count_; }

  bool contains(NodeId node) const {
    return node < record_capacity() && record(node).len != 0;
  }

  /// Inserts a row directly below `anchor` (kServerNode = at the top).
  /// `threads` must be distinct columns in [0, k), in any order; the row
  /// keeps them sorted. Throws out_of_range if `anchor` is not in the
  /// matrix, invalid_argument if the node is already present. O(kBlockRows)
  /// placement plus the link scan. The columns are checked before the
  /// matrix changes and sorted in the row's own storage.
  void insert_row_below(NodeId anchor, NodeId node,
                        const std::vector<ColumnId>& threads);

  /// Appends a row at the bottom of the curtain: insert_row_below the last
  /// row, O(1) to find it.
  void append_row(NodeId node, const std::vector<ColumnId>& threads);

  /// Removes a row entirely (graceful leave, or completion of a repair).
  /// The node's parents implicitly reconnect to its children — in M this is
  /// exactly row deletion (Lemma 1).
  void erase_row(NodeId node);

  /// Tags a row failed (non-ergodic failure awaiting repair).
  void mark_failed(NodeId node);

  /// Clears the failure tag (used by ergodic-failure recovery experiments).
  void mark_working(NodeId node);

  /// Row view: columns and links, borrowed from the matrix (valid until the
  /// next mutating call). O(1).
  Row row(NodeId node) const;

  /// Row `u` (< row_count()) of an unordered roster of the rows that
  /// erase_row reshuffles by swap-remove: with row_count(), an O(1) uniform
  /// pick of a row, no curtain rank involved.
  NodeId member(std::size_t u) const { return members_.at(u); }

  /// Forward iterator over rows in curtain order, O(1) per step.
  class OrderIterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = NodeId;
    using difference_type = std::ptrdiff_t;
    using pointer = const NodeId*;
    using reference = NodeId;

    OrderIterator() = default;
    OrderIterator(const ThreadMatrix* m, std::uint32_t block)
        : m_(m), block_(block) {}
    NodeId operator*() const { return m_->block(block_).ids[i_]; }
    OrderIterator& operator++() {
      const Block& b = m_->block(block_);
      if (++i_ == b.count) {
        block_ = b.next;
        i_ = 0;
      }
      return *this;
    }
    OrderIterator operator++(int) {
      OrderIterator t = *this;
      ++*this;
      return t;
    }
    friend bool operator==(const OrderIterator& a, const OrderIterator& b) {
      return a.block_ == b.block_ && a.i_ == b.i_;
    }

   private:
    const ThreadMatrix* m_ = nullptr;
    std::uint32_t block_ = kNoBlock;
    std::uint32_t i_ = 0;
  };

  /// Rows in curtain order: `for (NodeId n : m.order()) ...`.
  struct Order {
    const ThreadMatrix* m;
    OrderIterator begin() const { return OrderIterator(m, m->head_); }
    OrderIterator end() const { return OrderIterator(m, kNoBlock); }
  };
  Order order() const { return Order{this}; }

  /// Rows in curtain order, materialized (compat; prefer order()).
  std::vector<NodeId> nodes_in_order() const;

  /// All overlay edges implied by M: for each column, consecutive rows
  /// clipping it (server feeding the first). Includes edges touching failed
  /// rows; callers decide how to treat them.
  std::vector<ThreadEdge> edges() const;

  /// The k hanging ends in column order. O(k).
  std::vector<HangingEnd> hanging_ends() const;

  /// Parents of a node (deduplicated; a parent feeding two threads appears
  /// once in the result but contributes two edges in edges()). O(d) link
  /// reads plus dedup.
  std::vector<NodeId> parents(NodeId node) const;

  /// Children of a node (deduplicated). O(d) link reads plus dedup.
  std::vector<NodeId> children(NodeId node) const;

  /// Last row clipping `column` (kServerNode if the column is unclipped).
  NodeId tail_of_column(ColumnId column) const;

  /// Adds a thread to an existing row (congestion recovery, Section 5:
  /// "makes one of the zeroes ... into a one at random"). The column must not
  /// already be present in the row.
  void add_thread(NodeId node, ColumnId column);

  /// Drops a thread from an existing row (congestion offload: the node joins
  /// its parent and child on that column directly). The row must keep at
  /// least one thread.
  void drop_thread(NodeId node, ColumnId column);

  /// Internal-consistency check (sorted distinct threads, valid columns,
  /// coherent blocks, signatures and roster, up/down links matching a
  /// from-scratch rebuild); used by tests and debug assertions. One O(n * d)
  /// pass down the curtain.
  bool check_invariants() const;

 private:
  static constexpr std::uint32_t kNoBlock = 0xFFFFFFFFu;
  // Blocks per chunk allocation (6.4 KB). Small chunks fill the heap holes
  // the growing vectors leave behind; with glibc malloc, 100 KB chunks
  // raised the 1M-row wave's peak RSS by 10-20 MiB.
  static constexpr std::uint32_t kChunkBlocks = 16;
  /// Columns a row keeps in its own record; wider rows overflow to the arena.
  static constexpr std::uint32_t kInlineCols = 4;
  /// Records per record chunk: 2^19 of 64 bytes, 32 MiB.
  static constexpr std::uint32_t kRecordChunkBits = 19;
  static constexpr std::uint32_t kRecordChunk = std::uint32_t{1} << kRecordChunkBits;

  /// One row, in one cache line. The 16-byte header comes first; then the
  /// row's sorted columns and, per column, the nearest rows above (`up`,
  /// kServerNode = fed by the server) and below (`down`, kNoNode = hanging
  /// end) clipping it. A row wider than kInlineCols keeps these three lanes
  /// at `span` in the overflow arena, in a span of the power-of-two size
  /// class of its length, and leaves its inline lanes unused.
  struct alignas(64) RowRecord {
    std::uint32_t block = 0;       // curtain block holding the row
    std::uint32_t member = 0;      // index in members_
    std::uint32_t span = 0;        // arena offset, when len > kInlineCols
    std::uint32_t len : 31 = 0;    // columns clipped; 0 = not a row
    std::uint32_t failed : 1 = 0;  // failure tag (Section 4)
    ColumnId cols[kInlineCols] = {};
    NodeId up[kInlineCols] = {};
    NodeId down[kInlineCols] = {};
  };
  static_assert(sizeof(RowRecord) == 64, "a row record is one cache line");

  /// A run of consecutive curtain rows. sig[i] has bit c % 64 set for each
  /// column c that ids[i] clips.
  struct Block {
    std::uint32_t prev = kNoBlock;
    std::uint32_t next = kNoBlock;  // also links the free list
    std::uint32_t count = 0;
    std::uint64_t sig[kBlockRows] = {};
    NodeId ids[kBlockRows] = {};
  };

  RowRecord& record(NodeId node) {
    return records_[node >> kRecordChunkBits][node & (kRecordChunk - 1)];
  }
  const RowRecord& record(NodeId node) const {
    return records_[node >> kRecordChunkBits][node & (kRecordChunk - 1)];
  }
  /// Ids below this have a record (of length 0 when not a row).
  std::size_t record_capacity() const {
    return records_.empty() ? 0
                            : ((records_.size() - 1) << kRecordChunkBits) +
                                  records_.back().size();
  }

  Block& block(std::uint32_t b) {
    return chunks_[b / kChunkBlocks][b % kChunkBlocks];
  }
  const Block& block(std::uint32_t b) const {
    return chunks_[b / kChunkBlocks][b % kChunkBlocks];
  }

  // A row's lanes: inline in its record, or at its span in the arena.
  ColumnId* cols_of(RowRecord& r) {
    return r.len <= kInlineCols ? r.cols : cols_.data() + r.span;
  }
  const ColumnId* cols_of(const RowRecord& r) const {
    return r.len <= kInlineCols ? r.cols : cols_.data() + r.span;
  }
  NodeId& up_at(RowRecord& r, std::uint32_t i) {
    return r.len <= kInlineCols ? r.up[i] : up_[r.span + i];
  }
  NodeId up_at(const RowRecord& r, std::uint32_t i) const {
    return r.len <= kInlineCols ? r.up[i] : up_[r.span + i];
  }
  NodeId& down_at(RowRecord& r, std::uint32_t i) {
    return r.len <= kInlineCols ? r.down[i] : down_[r.span + i];
  }
  NodeId down_at(const RowRecord& r, std::uint32_t i) const {
    return r.len <= kInlineCols ? r.down[i] : down_[r.span + i];
  }

  void check_known(NodeId node) const;
  /// Throws invalid_argument unless `threads` are distinct columns in
  /// [0, k). Compares them in place, O(d^2), so no row width needs a copy.
  void verify_threads(const std::vector<ColumnId>& threads) const;
  std::uint32_t alloc_span(std::uint8_t cap_log2);
  void free_span(std::uint32_t off, std::uint8_t cap_log2);
  static std::uint8_t cap_log2_for(std::size_t len);
  /// Sets the row's length to `len`, moving its first min(old, new) lane
  /// entries between the record and the arena, or between size classes,
  /// when the two lengths keep their lanes in different places. `len` = 0
  /// frees the row's span.
  void resize_row(RowRecord& r, std::uint32_t len);
  /// Position of `column` within the row's sorted columns (binary search).
  std::uint32_t index_of(const RowRecord& r, ColumnId column) const;
  bool clips(NodeId node, ColumnId column) const;
  std::uint64_t signature(NodeId node) const;
  /// Index of `node` within its block.
  std::uint32_t index_in_block(NodeId node) const;
  std::uint32_t alloc_block();
  void free_block(std::uint32_t b);
  /// Places `node` (already recorded) in the curtain at index `i` of
  /// block `b`, splitting a full block.
  void place(std::uint32_t b, std::uint32_t i, NodeId node);
  /// Takes `node` out of its block, merging under-full neighbours.
  void unplace(NodeId node);
  /// Appends block `from`'s rows to block `into` and frees `from`.
  void merge_blocks(std::uint32_t into, std::uint32_t from);
  /// Block-cursor scan: calls `hit(row, sig)` for each row strictly below
  /// `from` (above, when `down` is false), nearest first, whose signature
  /// meets `mask`, until `mask` is zero or the curtain ends. `hit` narrows
  /// `mask`.
  template <class Hit>
  void scan(NodeId from, bool down, const std::uint64_t& mask, Hit&& hit) const;
  /// Nearest row strictly below (above) `node` clipping `column`, or kNoNode.
  NodeId nearest_on_column(NodeId node, ColumnId column, bool down) const;
  /// Splices `node`, already placed in the curtain, into the link list of
  /// every column it clips.
  void splice_links(NodeId node);
  /// Removes the row from the link list of its i-th column.
  void unlink(const RowRecord& r, std::uint32_t i);

  std::uint32_t k_;
  /// Row records by node id, in chunks of kRecordChunk. A chunk reserves
  /// its whole 32 MiB before it first grows. The kernel backs only the
  /// pages written so far (records up to the highest id), so a small
  /// matrix's resident memory pays for its rows alone. Measured with glibc
  /// on ncbench `wave`, whose repetitions reuse one heap: when no free heap
  /// region of 32 MiB or more is left at reserve time, glibc maps the
  /// chunk outside its heap, and the peak RSS then reads the same after
  /// every repetition (docs/performance.md).
  std::vector<std::vector<RowRecord>> records_;
  std::vector<NodeId> members_;     // unordered roster of the rows
  // The overflow arena for rows wider than kInlineCols: three parallel lanes
  // sharing slot indexing, laid out like a record's. For a row with (span,
  // len): cols_[span..span+len) are its sorted columns, up_[span+i] /
  // down_[span+i] the links of cols_[span+i].
  std::vector<ColumnId> cols_;
  std::vector<NodeId> up_;
  std::vector<NodeId> down_;
  /// Freed spans by capacity class (index = cap_log2), reused before bumping.
  std::vector<std::vector<std::uint32_t>> free_;
  std::vector<NodeId> tail_;      // per-column last clipper (kServerNode = none)
  std::size_t failed_count_ = 0;
  /// Curtain blocks, carved from fixed-size chunks so growth never copies
  /// the curtain; block b is chunks_[b / kChunkBlocks][b % kChunkBlocks].
  std::vector<std::vector<Block>> chunks_;
  std::uint32_t blocks_used_ = 0;      // blocks ever carved
  std::uint32_t free_block_ = kNoBlock;  // head of the freed-block list
  std::uint32_t head_ = kNoBlock;      // top block of the curtain
  std::uint32_t tail_block_ = kNoBlock;  // bottom block
};

}  // namespace ncast::overlay
