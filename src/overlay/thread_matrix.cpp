#include "overlay/thread_matrix.hpp"

#include <algorithm>

namespace ncast::overlay {

ThreadMatrix::ThreadMatrix(std::uint32_t k) : k_(k) {
  if (k == 0) throw std::invalid_argument("ThreadMatrix: k must be positive");
  tail_.assign(k_, kServerNode);
  free_.resize(33);  // capacity classes 2^0 .. 2^32
}

void ThreadMatrix::check_known(NodeId node) const {
  if (!contains(node)) throw std::out_of_range("ThreadMatrix: unknown node");
}

void ThreadMatrix::verify_threads(const ColumnId* threads,
                                  std::size_t count) const {
  if (count == 0) throw std::invalid_argument("ThreadMatrix: row needs >= 1 thread");
  for (std::size_t i = 0; i < count; ++i) {
    if (threads[i] >= k_) throw std::invalid_argument("ThreadMatrix: column out of range");
    if (i > 0 && threads[i] <= threads[i - 1]) {
      throw std::invalid_argument("ThreadMatrix: threads must be sorted and distinct");
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

std::uint32_t ThreadMatrix::slot_of(NodeId node, ColumnId column) const {
  const RowMeta& m = meta_[node];
  const ColumnId* first = cols_.data() + m.off;
  const ColumnId* it = std::lower_bound(first, first + m.len, column);
  return m.off + static_cast<std::uint32_t>(it - first);
}

bool ThreadMatrix::clips(NodeId node, ColumnId column) const {
  const std::uint32_t slot = slot_of(node, column);
  const RowMeta& m = meta_[node];
  return slot < m.off + m.len && cols_[slot] == column;
}

std::uint64_t ThreadMatrix::signature(NodeId node) const {
  const RowMeta& m = meta_[node];
  std::uint64_t sig = 0;
  for (std::uint32_t i = 0; i < m.len; ++i) {
    sig |= std::uint64_t{1} << (cols_[m.off + i] % 64);
  }
  return sig;
}

std::uint32_t ThreadMatrix::index_in_block(NodeId node) const {
  const Block& b = block(meta_[node].block);
  return static_cast<std::uint32_t>(std::find(b.ids, b.ids + b.count, node) - b.ids);
}

// ncast:hot-begin — join path: block shift, signature scan and link splice.
// No allocation beyond amortized chunk and scratch growth, no throw.

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
    for (std::uint32_t j = 0; j < fresh.count; ++j) meta_[fresh.ids[j]].block = nb;
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
  meta_[node].block = b;
}

void ThreadMatrix::unplace(NodeId node) {
  const std::uint32_t b = meta_[node].block;
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
  for (std::uint32_t j = 0; j < src.count; ++j) meta_[src.ids[j]].block = into;
  dst.count += src.count;
  free_block(from);
}

template <class Hit>
void ThreadMatrix::scan(NodeId from, bool down, const std::uint64_t& mask,
                        Hit&& hit) const {
  std::uint32_t b = meta_[from].block;
  std::uint32_t i = index_in_block(from);
  if (down) {
    for (++i; b != kNoBlock; b = block(b).next, i = 0) {
      const Block& blk = block(b);
      for (; i < blk.count; ++i) {
        if ((blk.sig[i] & mask) == 0) continue;
        hit(blk.ids[i]);
        if (mask == 0) return;
      }
    }
    return;
  }
  while (true) {
    const Block& blk = block(b);
    while (i-- > 0) {
      if ((blk.sig[i] & mask) == 0) continue;
      hit(blk.ids[i]);
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
  scan(node, down, mask, [&](NodeId r) {
    if (clips(r, column)) {  // exact even when k > 64 columns share a bit
      found = r;
      mask = 0;
    }
  });
  return found;
}

void ThreadMatrix::splice_links(NodeId node) {
  const RowMeta& m = meta_[node];
  const std::uint32_t off = m.off;
  const std::uint32_t len = m.len;

  // Resolve each column's child with one downward scan. A row's span is
  // read only when its signature meets the still-unresolved columns, and
  // then intersected with them (both sorted — one two-pointer pass), so
  // the scan costs about (k/d) ln d signature reads and d span reads for d
  // random columns. Columns that reach the bottom unresolved are hanging
  // ends and read the per-column tail array instead.
  if (resolved_scratch_.size() < len) {
    resolved_scratch_.resize(len);  // ncast:allow(hot_path.alloc): grows once, to the widest row seen
  }
  std::fill(resolved_scratch_.begin(), resolved_scratch_.begin() + len, 0);
  std::uint32_t remaining = len;
  std::uint64_t mask = signature(node);

  scan(node, true, mask, [&](NodeId below) {
    const RowMeta& bm = meta_[below];
    bool resolved_any = false;
    std::uint32_t i = 0, j = 0;
    while (i < len && j < bm.len) {
      const ColumnId mine = cols_[off + i];
      const ColumnId theirs = cols_[bm.off + j];
      if (mine < theirs) {
        ++i;
      } else if (theirs < mine) {
        ++j;
      } else {
        if (resolved_scratch_[i] == 0) {
          resolved_scratch_[i] = 1;
          resolved_any = true;
          --remaining;
          const std::uint32_t child_slot = bm.off + j;
          const NodeId parent = up_[child_slot];
          up_[off + i] = parent;
          down_[off + i] = below;
          up_[child_slot] = node;
          if (parent != kServerNode) down_[slot_of(parent, mine)] = node;
        }
        ++i;
        ++j;
      }
    }
    if (!resolved_any) return;  // a k > 64 signature collision
    mask = 0;
    for (std::uint32_t c = 0; c < len; ++c) {
      if (resolved_scratch_[c] == 0) mask |= std::uint64_t{1} << (cols_[off + c] % 64);
    }
  });

  for (std::uint32_t i = 0; remaining > 0 && i < len; ++i) {
    if (resolved_scratch_[i] != 0) continue;
    --remaining;
    const ColumnId c = cols_[off + i];
    const NodeId parent = tail_[c];
    up_[off + i] = parent;
    down_[off + i] = kNoNode;
    if (parent != kServerNode) down_[slot_of(parent, c)] = node;
    tail_[c] = node;
  }
}

void ThreadMatrix::unlink_slot(std::uint32_t slot) {
  const ColumnId c = cols_[slot];
  const NodeId u = up_[slot];
  const NodeId d = down_[slot];
  if (u != kServerNode) down_[slot_of(u, c)] = d;
  if (d != kNoNode) {
    up_[slot_of(d, c)] = u;
  } else {
    tail_[c] = u;
  }
}

// ncast:hot-end

void ThreadMatrix::append_row(NodeId node, std::vector<ColumnId> threads) {
  NodeId last = kServerNode;
  if (tail_block_ != kNoBlock) {
    const Block& b = block(tail_block_);
    last = b.ids[b.count - 1];
  }
  insert_row_below(last, node, std::move(threads));
}

void ThreadMatrix::insert_row_below(NodeId anchor, NodeId node,
                                    std::vector<ColumnId> threads) {
  if (anchor != kServerNode && !contains(anchor)) {
    throw std::out_of_range("ThreadMatrix::insert_row_below: unknown anchor");
  }
  if (node == kServerNode) throw std::invalid_argument("ThreadMatrix: reserved node id");
  std::sort(threads.begin(), threads.end());
  verify_threads(threads.data(), threads.size());
  if (contains(node)) throw std::invalid_argument("ThreadMatrix: node already present");
  if (node >= meta_.size()) meta_.resize(node + 1);

  RowMeta& m = meta_[node];
  m.cap_log2 = cap_log2_for(threads.size());
  m.off = alloc_span(m.cap_log2);
  m.len = static_cast<std::uint32_t>(threads.size());
  m.member = static_cast<std::uint32_t>(members_.size());
  m.present = true;
  m.failed = false;
  std::copy(threads.begin(), threads.end(), cols_.begin() + m.off);
  members_.push_back(node);

  if (anchor == kServerNode) {
    place(head_, 0, node);
  } else {
    place(meta_[anchor].block, index_in_block(anchor) + 1, node);
  }
  splice_links(node);
}

void ThreadMatrix::erase_row(NodeId node) {
  check_known(node);
  RowMeta& m = meta_[node];
  if (m.failed) --failed_count_;
  for (std::uint32_t i = 0; i < m.len; ++i) unlink_slot(m.off + i);
  free_span(m.off, m.cap_log2);
  unplace(node);
  const NodeId last = members_.back();  // swap-remove from the roster
  members_[m.member] = last;
  meta_[last].member = m.member;
  members_.pop_back();
  m.present = false;
  m.failed = false;
  m.len = 0;
}

void ThreadMatrix::mark_failed(NodeId node) {
  check_known(node);
  RowMeta& m = meta_[node];
  if (!m.failed) {
    m.failed = true;
    ++failed_count_;
  }
}

void ThreadMatrix::mark_working(NodeId node) {
  check_known(node);
  RowMeta& m = meta_[node];
  if (m.failed) {
    m.failed = false;
    --failed_count_;
  }
}

Row ThreadMatrix::row(NodeId node) const {
  check_known(node);
  const RowMeta& m = meta_[node];
  return Row{node, ThreadSpan(cols_.data() + m.off, m.len), m.failed};
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
    const RowMeta& m = meta_[node];
    for (std::uint32_t i = 0; i < m.len; ++i) {
      out.push_back(ThreadEdge{up_[m.off + i], node, cols_[m.off + i]});
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
    ends[c].owner_failed = owner != kServerNode && meta_[owner].failed;
  }
  return ends;
}

std::vector<NodeId> ThreadMatrix::parents(NodeId node) const {
  check_known(node);
  const RowMeta& m = meta_[node];
  std::vector<NodeId> result;
  for (std::uint32_t i = 0; i < m.len; ++i) {
    const NodeId parent = up_[m.off + i];
    if (std::find(result.begin(), result.end(), parent) == result.end()) {
      result.push_back(parent);
    }
  }
  return result;
}

std::vector<NodeId> ThreadMatrix::children(NodeId node) const {
  check_known(node);
  const RowMeta& m = meta_[node];
  std::vector<NodeId> result;
  for (std::uint32_t i = 0; i < m.len; ++i) {
    const NodeId child = down_[m.off + i];
    if (child == kNoNode) continue;
    if (std::find(result.begin(), result.end(), child) == result.end()) {
      result.push_back(child);
    }
  }
  return result;
}

NodeId ThreadMatrix::parent_on_column(NodeId node, ColumnId column) const {
  check_known(node);
  if (column >= k_) throw std::invalid_argument("ThreadMatrix::parent_on_column: column");
  const std::uint32_t slot = slot_of(node, column);
  const RowMeta& m = meta_[node];
  if (slot < m.off + m.len && cols_[slot] == column) return up_[slot];
  // Not clipped by this row (e.g. a complaint racing an offload): fall back
  // to scanning the curtain upward for the nearest clipper.
  return nearest_on_column(node, column, false);
}

NodeId ThreadMatrix::child_on_column(NodeId node, ColumnId column) const {
  check_known(node);
  if (column >= k_) throw std::invalid_argument("ThreadMatrix::child_on_column: column");
  const std::uint32_t slot = slot_of(node, column);
  const RowMeta& m = meta_[node];
  if (slot < m.off + m.len && cols_[slot] == column) return down_[slot];
  return nearest_on_column(node, column, true);
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
  RowMeta& m = meta_[node];
  // Grow the span if at capacity (new slot from the next size class; links
  // reference rows by id, not arena offsets, so neighbors are unaffected).
  if (m.len == (std::uint32_t{1} << m.cap_log2)) {
    const std::uint8_t new_cap = static_cast<std::uint8_t>(m.cap_log2 + 1);
    const std::uint32_t new_off = alloc_span(new_cap);
    std::copy(cols_.begin() + m.off, cols_.begin() + m.off + m.len,
              cols_.begin() + new_off);
    std::copy(up_.begin() + m.off, up_.begin() + m.off + m.len,
              up_.begin() + new_off);
    std::copy(down_.begin() + m.off, down_.begin() + m.off + m.len,
              down_.begin() + new_off);
    free_span(m.off, m.cap_log2);
    m.off = new_off;
    m.cap_log2 = new_cap;
  }
  // Shift the tail of the span right to open the insertion point.
  const std::uint32_t ins = slot_of(node, column);
  for (std::uint32_t j = m.off + m.len; j > ins; --j) {
    cols_[j] = cols_[j - 1];
    up_[j] = up_[j - 1];
    down_[j] = down_[j - 1];
  }
  cols_[ins] = column;
  ++m.len;

  block(m.block).sig[index_in_block(node)] |= std::uint64_t{1} << (column % 64);

  // Find this column's child by scanning downward; the parent is the
  // child's previous upward link (or the column tail when the new slot
  // hangs).
  const NodeId child = nearest_on_column(node, column, true);
  if (child != kNoNode) {
    const std::uint32_t child_slot = slot_of(child, column);
    const NodeId parent = up_[child_slot];
    up_[ins] = parent;
    down_[ins] = child;
    up_[child_slot] = node;
    if (parent != kServerNode) down_[slot_of(parent, column)] = node;
  } else {
    const NodeId parent = tail_[column];
    up_[ins] = parent;
    down_[ins] = kNoNode;
    if (parent != kServerNode) down_[slot_of(parent, column)] = node;
    tail_[column] = node;
  }
}

void ThreadMatrix::drop_thread(NodeId node, ColumnId column) {
  check_known(node);
  RowMeta& m = meta_[node];
  if (!clips(node, column)) {
    throw std::invalid_argument("ThreadMatrix::drop_thread: column not clipped");
  }
  const std::uint32_t slot = slot_of(node, column);
  if (m.len <= 1) {
    throw std::logic_error("ThreadMatrix::drop_thread: row would become empty");
  }
  unlink_slot(slot);
  for (std::uint32_t j = slot; j + 1 < m.off + m.len; ++j) {
    cols_[j] = cols_[j + 1];
    up_[j] = up_[j + 1];
    down_[j] = down_[j + 1];
  }
  --m.len;
  block(m.block).sig[index_in_block(node)] = signature(node);
}

bool ThreadMatrix::check_invariants() const {
  // One pass down the curtain: block links and fill, span hygiene, row
  // signatures, the roster, the failed census, and the link planes against
  // a from-scratch top-to-bottom rebuild (`last[c]`).
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
      const RowMeta& m = meta_[node];
      if (m.block != b || m.len == 0 || m.len > (std::uint32_t{1} << m.cap_log2)) {
        return false;
      }
      if (m.member >= members_.size() || members_[m.member] != node) return false;
      if (blk.sig[j] != signature(node)) return false;
      if (m.failed) ++failed;
      ++seen;
      for (std::uint32_t i = 0; i < m.len; ++i) {
        const ColumnId c = cols_[m.off + i];
        if (c >= k_ || (i > 0 && c <= cols_[m.off + i - 1])) return false;
        if (up_[m.off + i] != last[c]) return false;
        if (last[c] != kServerNode && down_[slot_of(last[c], c)] != node) return false;
        last[c] = node;
      }
    }
  }
  if (prev != tail_block_ || seen != members_.size() || failed != failed_count_) {
    return false;
  }
  // Every present row must be in the curtain.
  std::size_t present = 0;
  for (const RowMeta& m : meta_) {
    if (m.present) ++present;
  }
  if (present != seen) return false;
  for (ColumnId c = 0; c < k_; ++c) {
    if (tail_[c] != last[c]) return false;
    if (last[c] != kServerNode && down_[slot_of(last[c], c)] != kNoNode) return false;
  }
  return true;
}

}  // namespace ncast::overlay
