#include "overlay/thread_matrix.hpp"

#include <algorithm>
#include <bit>

namespace ncast::overlay {

ThreadMatrix::ThreadMatrix(std::uint32_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("ThreadMatrix: k must be positive");
  tail_.assign(k_, kServerNode);
  free_.resize(33);  // capacity classes 2^0 .. 2^32
}

void ThreadMatrix::check_known(NodeId node) const {
  if (!contains(node)) throw std::out_of_range("ThreadMatrix: unknown node");
}

void ThreadMatrix::verify_threads(const std::vector<ColumnId>& threads) const {
  if (threads.empty()) throw std::invalid_argument("ThreadMatrix: row needs >= 1 thread");
  for (auto it = threads.begin(); it != threads.end(); ++it) {
    if (*it >= k_) throw std::invalid_argument("ThreadMatrix: column out of range");
    if (std::find(threads.begin(), it, *it) != it) {
      throw std::invalid_argument("ThreadMatrix: threads must be distinct");
    }
  }
}

std::uint8_t ThreadMatrix::cap_log2_for(std::size_t len) {
  std::uint8_t p = 0;
  while ((std::size_t{1} << p) < len) ++p;
  return p;
}

std::uint32_t ThreadMatrix::alloc_span(std::uint8_t cap_log2) {
  auto& fl = free_[cap_log2];
  if (!fl.empty()) {
    const std::uint32_t off = fl.back();
    fl.pop_back();
    return off;
  }
  const std::size_t cap = std::size_t{1} << cap_log2;
  const std::uint32_t off = static_cast<std::uint32_t>(cols_.size());
  cols_.resize(cols_.size() + cap);
  up_.resize(up_.size() + cap);
  down_.resize(down_.size() + cap);
  return off;
}

void ThreadMatrix::free_span(std::uint32_t off, std::uint8_t cap_log2) {
  free_[cap_log2].push_back(off);
}

void ThreadMatrix::resize_row(RowRecord& r, std::uint32_t len) {
  const bool was_inline = r.len <= kInlineCols;
  const bool now_inline = len <= kInlineCols;
  if (was_inline && now_inline) {
    r.len = len;
    return;
  }
  const std::uint8_t old_class = cap_log2_for(r.len);
  const std::uint8_t new_class = cap_log2_for(len);
  if (!was_inline && !now_inline && old_class == new_class) {
    r.len = len;
    return;
  }
  const std::uint32_t keep = std::min<std::uint32_t>(r.len, len);
  if (now_inline) {  // arena -> record
    std::copy_n(cols_.begin() + r.span, keep, r.cols);
    std::copy_n(up_.begin() + r.span, keep, r.up);
    std::copy_n(down_.begin() + r.span, keep, r.down);
    free_span(r.span, old_class);
  } else {
    const std::uint32_t span = alloc_span(new_class);  // may move the arena
    if (was_inline) {  // record -> arena
      std::copy_n(r.cols, keep, cols_.begin() + span);
      std::copy_n(r.up, keep, up_.begin() + span);
      std::copy_n(r.down, keep, down_.begin() + span);
    } else {  // one size class -> another
      std::copy_n(cols_.begin() + r.span, keep, cols_.begin() + span);
      std::copy_n(up_.begin() + r.span, keep, up_.begin() + span);
      std::copy_n(down_.begin() + r.span, keep, down_.begin() + span);
      free_span(r.span, old_class);
    }
    r.span = span;
  }
  r.len = len;
}

std::uint32_t ThreadMatrix::index_of(const RowRecord& r, ColumnId column) const {
  const ColumnId* first = cols_of(r);
  return static_cast<std::uint32_t>(std::lower_bound(first, first + r.len, column) -
                                    first);
}

bool ThreadMatrix::clips(NodeId node, ColumnId column) const {
  const RowRecord& r = record(node);
  const std::uint32_t i = index_of(r, column);
  return i < r.len && cols_of(r)[i] == column;
}

std::uint64_t ThreadMatrix::signature(NodeId node) const {
  const RowRecord& r = record(node);
  const ColumnId* cols = cols_of(r);
  std::uint64_t sig = 0;
  for (std::uint32_t i = 0; i < r.len; ++i) sig |= std::uint64_t{1} << (cols[i] % 64);
  return sig;
}

std::uint32_t ThreadMatrix::index_in_block(NodeId node) const {
  const Block& b = block(record(node).block);
  return static_cast<std::uint32_t>(std::find(b.ids, b.ids + b.count, node) - b.ids);
}

// ncast:hot-begin — join path: block shift, signature scan and link splice.
// No allocation beyond amortized chunk growth, no throw.

std::uint32_t ThreadMatrix::alloc_block() {
  std::uint32_t b = free_block_;
  if (b != kNoBlock) {
    free_block_ = block(b).next;
  } else {
    if (blocks_used_ == chunks_.size() * kChunkBlocks) {
      chunks_.emplace_back(kChunkBlocks);  // ncast:allow(hot_path.alloc): one fixed-size chunk per kChunkBlocks blocks carved, amortized
    }
    b = blocks_used_++;
  }
  Block& blk = block(b);
  blk.prev = kNoBlock;
  blk.next = kNoBlock;
  blk.count = 0;
  return b;
}

void ThreadMatrix::free_block(std::uint32_t b) {
  Block& blk = block(b);
  (blk.prev == kNoBlock ? head_ : block(blk.prev).next) = blk.next;
  (blk.next == kNoBlock ? tail_block_ : block(blk.next).prev) = blk.prev;
  blk.next = free_block_;
  free_block_ = b;
}

void ThreadMatrix::place(std::uint32_t b, std::uint32_t i, NodeId node) {
  if (b == kNoBlock) {  // empty curtain
    b = alloc_block();
    head_ = b;
    tail_block_ = b;
  }
  if (block(b).count == kBlockRows) {
    // Split a full block: the upper half moves to a fresh block after it.
    // An append at the bottom opens an empty block instead, so appends fill
    // blocks completely.
    const std::uint32_t nb = alloc_block();
    Block& full = block(b);
    Block& fresh = block(nb);
    fresh.prev = b;
    fresh.next = full.next;
    (full.next == kNoBlock ? tail_block_ : block(full.next).prev) = nb;
    full.next = nb;
    const std::uint32_t keep =
        i == kBlockRows && fresh.next == kNoBlock ? kBlockRows : kBlockRows / 2;
    std::copy(full.ids + keep, full.ids + kBlockRows, fresh.ids);
    std::copy(full.sig + keep, full.sig + kBlockRows, fresh.sig);
    fresh.count = kBlockRows - keep;
    full.count = keep;
    for (std::uint32_t j = 0; j < fresh.count; ++j) record(fresh.ids[j]).block = nb;
    if (i >= keep) {
      b = nb;
      i -= keep;
    }
  }
  Block& blk = block(b);
  std::copy_backward(blk.ids + i, blk.ids + blk.count, blk.ids + blk.count + 1);
  std::copy_backward(blk.sig + i, blk.sig + blk.count, blk.sig + blk.count + 1);
  blk.ids[i] = node;
  blk.sig[i] = signature(node);
  ++blk.count;
  record(node).block = b;
}

void ThreadMatrix::unplace(NodeId node) {
  const std::uint32_t b = record(node).block;
  Block& blk = block(b);
  const std::uint32_t i = index_in_block(node);
  std::copy(blk.ids + i + 1, blk.ids + blk.count, blk.ids + i);
  std::copy(blk.sig + i + 1, blk.sig + blk.count, blk.sig + i);
  --blk.count;
  // Every two adjacent blocks hold more than half a block between them, so
  // n rows span at most 4n / kBlockRows + 1 blocks.
  if (blk.count == 0) {
    free_block(b);
  } else if (blk.prev != kNoBlock &&
             block(blk.prev).count + blk.count <= kBlockRows / 2) {
    merge_blocks(blk.prev, b);
  } else if (blk.next != kNoBlock &&
             blk.count + block(blk.next).count <= kBlockRows / 2) {
    merge_blocks(b, blk.next);
  }
}

void ThreadMatrix::merge_blocks(std::uint32_t into, std::uint32_t from) {
  Block& dst = block(into);
  const Block& src = block(from);
  std::copy(src.ids, src.ids + src.count, dst.ids + dst.count);
  std::copy(src.sig, src.sig + src.count, dst.sig + dst.count);
  for (std::uint32_t j = 0; j < src.count; ++j) record(src.ids[j]).block = into;
  dst.count += src.count;
  free_block(from);
}

template <class Hit>
void ThreadMatrix::scan(NodeId from, bool down, const std::uint64_t& mask,
                        Hit&& hit) const {
  std::uint32_t b = record(from).block;
  std::uint32_t i = index_in_block(from);
  if (down) {
    for (++i; b != kNoBlock; b = block(b).next, i = 0) {
      const Block& blk = block(b);
      for (; i < blk.count; ++i) {
        if ((blk.sig[i] & mask) == 0) continue;
        hit(blk.ids[i], blk.sig[i]);
        if (mask == 0) return;
      }
    }
    return;
  }
  while (true) {
    const Block& blk = block(b);
    while (i-- > 0) {
      if ((blk.sig[i] & mask) == 0) continue;
      hit(blk.ids[i], blk.sig[i]);
      if (mask == 0) return;
    }
    b = blk.prev;
    if (b == kNoBlock) return;
    i = block(b).count;
  }
}

NodeId ThreadMatrix::nearest_on_column(NodeId node, ColumnId column,
                                       bool down) const {
  std::uint64_t mask = std::uint64_t{1} << (column % 64);
  NodeId found = kNoNode;
  scan(node, down, mask, [&](NodeId r, std::uint64_t) {
    if (clips(r, column)) {  // exact even when k > 64 columns share a bit
      found = r;
      mask = 0;
    }
  });
  return found;
}

void ThreadMatrix::splice_links(NodeId node) {
  RowRecord& r = record(node);
  const ColumnId* cols = cols_of(r);

  // Pass 1 reads signatures only: for each of the row's signature bits, the
  // nearest row below carrying it (about (k/d) ln d signatures for d random
  // columns). Bits that reach the bottom unfound are hanging ends.
  const std::uint64_t sig = signature(node);
  std::uint64_t want = sig;
  NodeId carrier[64] = {};
  scan(node, true, want, [&](NodeId below, std::uint64_t s) {
    for (std::uint64_t hits = s & want; hits != 0; hits &= hits - 1) {
      carrier[std::countr_zero(hits)] = below;
    }
    want &= ~s;
  });
  const std::uint64_t found = sig & ~want;

  // Pass 2: each column's child is its bit's carrier, exactly so when
  // k <= 64. When k > 64, columns c and c + 64 share a bit, and a carrier
  // that does not clip the column hands over to an exact scan from the
  // carrier down. Then the children's records give the parents (each
  // child's old up-link), and the parents' records take their new
  // down-links: two rounds of independent loads. Columns go kInlineCols at
  // a time, so a row of any width needs no buffer beyond the stack.
  for (std::uint32_t base = 0; base < r.len; base += kInlineCols) {
    const std::uint32_t n = std::min(r.len - base, kInlineCols);
    NodeId child[kInlineCols] = {};
    NodeId parent[kInlineCols] = {};
    for (std::uint32_t i = 0; i < n; ++i) {
      const ColumnId c = cols[base + i];
      NodeId ch = (found >> (c % 64) & 1) != 0 ? carrier[c % 64] : kNoNode;
      if (k_ > 64 && ch != kNoNode && !clips(ch, c)) ch = nearest_on_column(ch, c, true);
      child[i] = ch;
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      const ColumnId c = cols[base + i];
      if (child[i] == kNoNode) {
        parent[i] = tail_[c];
        tail_[c] = node;
      } else {
        RowRecord& cr = record(child[i]);
        NodeId& up = up_at(cr, index_of(cr, c));
        parent[i] = up;
        up = node;
      }
      up_at(r, base + i) = parent[i];
      down_at(r, base + i) = child[i];
    }
    for (std::uint32_t i = 0; i < n; ++i) {
      if (parent[i] == kServerNode) continue;
      RowRecord& pr = record(parent[i]);
      down_at(pr, index_of(pr, cols[base + i])) = node;
    }
  }
}

void ThreadMatrix::unlink(const RowRecord& r, std::uint32_t i) {
  const ColumnId c = cols_of(r)[i];
  const NodeId u = up_at(r, i);
  const NodeId d = down_at(r, i);
  if (u != kServerNode) {
    RowRecord& ur = record(u);
    down_at(ur, index_of(ur, c)) = d;
  }
  if (d != kNoNode) {
    RowRecord& dr = record(d);
    up_at(dr, index_of(dr, c)) = u;
  } else {
    tail_[c] = u;
  }
}

// ncast:hot-end

void ThreadMatrix::append_row(NodeId node, const std::vector<ColumnId>& threads) {
  NodeId last = kServerNode;
  if (tail_block_ != kNoBlock) {
    const Block& b = block(tail_block_);
    last = b.ids[b.count - 1];
  }
  insert_row_below(last, node, threads);
}

void ThreadMatrix::insert_row_below(NodeId anchor, NodeId node,
                                    const std::vector<ColumnId>& threads) {
  if (anchor != kServerNode && !contains(anchor)) {
    throw std::out_of_range("ThreadMatrix::insert_row_below: unknown anchor");
  }
  if (node == kServerNode) throw std::invalid_argument("ThreadMatrix: reserved node id");
  verify_threads(threads);
  if (contains(node)) throw std::invalid_argument("ThreadMatrix: node already present");
  while (node >= record_capacity()) {
    if (records_.empty() || records_.back().size() == kRecordChunk) records_.emplace_back();
    std::vector<RowRecord>& chunk = records_.back();
    const std::size_t first = (records_.size() - 1) << kRecordChunkBits;
    chunk.reserve(kRecordChunk);
    chunk.resize(std::min<std::size_t>(node - first + 1, kRecordChunk));
  }

  RowRecord& r = record(node);
  resize_row(r, static_cast<std::uint32_t>(threads.size()));
  r.member = static_cast<std::uint32_t>(members_.size());
  r.failed = false;
  ColumnId* cols = cols_of(r);
  std::copy(threads.begin(), threads.end(), cols);
  std::sort(cols, cols + r.len);
  members_.push_back(node);

  if (anchor == kServerNode) {
    place(head_, 0, node);
  } else {
    place(record(anchor).block, index_in_block(anchor) + 1, node);
  }
  splice_links(node);
}

void ThreadMatrix::erase_row(NodeId node) {
  check_known(node);
  RowRecord& r = record(node);
  if (r.failed) --failed_count_;
  for (std::uint32_t i = 0; i < r.len; ++i) unlink(r, i);
  unplace(node);
  const NodeId last = members_.back();  // swap-remove from the roster
  members_[r.member] = last;
  record(last).member = r.member;
  members_.pop_back();
  resize_row(r, 0);
  r.failed = false;
}

void ThreadMatrix::mark_failed(NodeId node) {
  check_known(node);
  RowRecord& r = record(node);
  if (!r.failed) {
    r.failed = true;
    ++failed_count_;
  }
}

void ThreadMatrix::mark_working(NodeId node) {
  check_known(node);
  RowRecord& r = record(node);
  if (r.failed) {
    r.failed = false;
    --failed_count_;
  }
}

Row ThreadMatrix::row(NodeId node) const {
  check_known(node);
  const RowRecord& r = record(node);
  const bool in_record = r.len <= kInlineCols;
  return Row{node, ThreadSpan(cols_of(r), r.len),
             in_record ? r.up : up_.data() + r.span,
             in_record ? r.down : down_.data() + r.span, r.failed != 0};
}

std::vector<NodeId> ThreadMatrix::nodes_in_order() const {
  std::vector<NodeId> out;
  out.reserve(row_count());
  for (NodeId n : order()) out.push_back(n);
  return out;
}

std::vector<ThreadEdge> ThreadMatrix::edges() const {
  std::vector<ThreadEdge> out;
  out.reserve(row_count() * 2);
  for (NodeId node : order()) {
    const RowRecord& r = record(node);
    const ColumnId* cols = cols_of(r);
    for (std::uint32_t i = 0; i < r.len; ++i) {
      out.push_back(ThreadEdge{up_at(r, i), node, cols[i]});
    }
  }
  return out;
}

std::vector<HangingEnd> ThreadMatrix::hanging_ends() const {
  std::vector<HangingEnd> ends(k_);
  for (ColumnId c = 0; c < k_; ++c) {
    ends[c].column = c;
    const NodeId owner = tail_[c];
    ends[c].owner = owner;
    ends[c].owner_failed = owner != kServerNode && record(owner).failed != 0;
  }
  return ends;
}

std::vector<NodeId> ThreadMatrix::parents(NodeId node) const {
  check_known(node);
  const RowRecord& r = record(node);
  std::vector<NodeId> result;
  for (std::uint32_t i = 0; i < r.len; ++i) {
    const NodeId parent = up_at(r, i);
    if (std::find(result.begin(), result.end(), parent) == result.end()) {
      result.push_back(parent);
    }
  }
  return result;
}

std::vector<NodeId> ThreadMatrix::children(NodeId node) const {
  check_known(node);
  const RowRecord& r = record(node);
  std::vector<NodeId> result;
  for (std::uint32_t i = 0; i < r.len; ++i) {
    const NodeId child = down_at(r, i);
    if (child == kNoNode) continue;
    if (std::find(result.begin(), result.end(), child) == result.end()) {
      result.push_back(child);
    }
  }
  return result;
}

NodeId ThreadMatrix::tail_of_column(ColumnId column) const {
  if (column >= k_) throw std::invalid_argument("ThreadMatrix::tail_of_column: column");
  return tail_[column];
}

void ThreadMatrix::add_thread(NodeId node, ColumnId column) {
  if (column >= k_) throw std::invalid_argument("ThreadMatrix::add_thread: column");
  check_known(node);
  if (clips(node, column)) {
    throw std::invalid_argument("ThreadMatrix::add_thread: already clipped");
  }
  // Open the insertion point: one more lane entry (a row growing past
  // kInlineCols moves to the arena, a span at capacity to the next size
  // class; links name rows by id, so neighbours are unaffected), then shift
  // the entries after it right.
  RowRecord& r = record(node);
  const std::uint32_t ins = index_of(r, column);
  resize_row(r, r.len + 1);
  ColumnId* cols = cols_of(r);
  for (std::uint32_t j = r.len - 1; j > ins; --j) {
    cols[j] = cols[j - 1];
    up_at(r, j) = up_at(r, j - 1);
    down_at(r, j) = down_at(r, j - 1);
  }
  cols[ins] = column;

  block(r.block).sig[index_in_block(node)] |= std::uint64_t{1} << (column % 64);

  // Find this column's child by scanning downward; the parent is the
  // child's previous upward link (or the column tail when the new slot
  // hangs).
  const NodeId child = nearest_on_column(node, column, true);
  NodeId parent = kServerNode;
  if (child != kNoNode) {
    RowRecord& cr = record(child);
    NodeId& up = up_at(cr, index_of(cr, column));
    parent = up;
    up = node;
  } else {
    parent = tail_[column];
    tail_[column] = node;
  }
  up_at(r, ins) = parent;
  down_at(r, ins) = child;
  if (parent != kServerNode) {
    RowRecord& pr = record(parent);
    down_at(pr, index_of(pr, column)) = node;
  }
}

void ThreadMatrix::drop_thread(NodeId node, ColumnId column) {
  check_known(node);
  if (!clips(node, column)) {
    throw std::invalid_argument("ThreadMatrix::drop_thread: column not clipped");
  }
  RowRecord& r = record(node);
  if (r.len <= 1) {
    throw std::logic_error("ThreadMatrix::drop_thread: row would become empty");
  }
  const std::uint32_t slot = index_of(r, column);
  unlink(r, slot);
  ColumnId* cols = cols_of(r);
  for (std::uint32_t j = slot; j + 1 < r.len; ++j) {
    cols[j] = cols[j + 1];
    up_at(r, j) = up_at(r, j + 1);
    down_at(r, j) = down_at(r, j + 1);
  }
  resize_row(r, r.len - 1);
  block(r.block).sig[index_in_block(node)] = signature(node);
}

bool ThreadMatrix::check_invariants() const {
  // One pass down the curtain: block links and fill, row hygiene, row
  // signatures, the roster, the failed census, and the up/down links
  // against a from-scratch top-to-bottom rebuild (`last[c]`).
  std::vector<NodeId> last(k_, kServerNode);
  std::size_t failed = 0;
  std::size_t seen = 0;
  std::uint32_t prev = kNoBlock;
  for (std::uint32_t b = head_; b != kNoBlock; prev = b, b = block(b).next) {
    const Block& blk = block(b);
    if (blk.prev != prev || blk.count == 0 || blk.count > kBlockRows) return false;
    if (prev != kNoBlock && block(prev).count + blk.count <= kBlockRows / 2) {
      return false;
    }
    for (std::uint32_t j = 0; j < blk.count; ++j) {
      const NodeId node = blk.ids[j];
      if (!contains(node)) return false;
      const RowRecord& r = record(node);
      if (r.block != b) return false;
      if (r.len > kInlineCols &&
          r.span + (std::size_t{1} << cap_log2_for(r.len)) > cols_.size()) {
        return false;
      }
      if (r.member >= members_.size() || members_[r.member] != node) return false;
      if (blk.sig[j] != signature(node)) return false;
      if (r.failed) ++failed;
      ++seen;
      const ColumnId* cols = cols_of(r);
      for (std::uint32_t i = 0; i < r.len; ++i) {
        const ColumnId c = cols[i];
        if (c >= k_ || (i > 0 && c <= cols[i - 1])) return false;
        if (up_at(r, i) != last[c]) return false;
        if (last[c] != kServerNode) {
          const RowRecord& pr = record(last[c]);
          if (down_at(pr, index_of(pr, c)) != node) return false;
        }
        last[c] = node;
      }
    }
  }
  if (prev != tail_block_ || seen != members_.size() || failed != failed_count_) {
    return false;
  }
  // Every present row must be in the curtain.
  std::size_t present = 0;
  for (const auto& chunk : records_) {
    for (const RowRecord& r : chunk) {
      if (r.len != 0) ++present;
    }
  }
  if (present != seen) return false;
  for (ColumnId c = 0; c < k_; ++c) {
    if (tail_[c] != last[c]) return false;
    if (last[c] != kServerNode) {
      const RowRecord& tr = record(last[c]);
      if (down_at(tr, index_of(tr, c)) != kNoNode) return false;
    }
  }
  return true;
}

}  // namespace ncast::overlay
