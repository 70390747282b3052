// Thread matrix (the server's data structure M) tests: row life cycle,
// derived topology, failure tags, congestion edits, and invariants.

#include "overlay/thread_matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <ostream>
#include <vector>

#include "util/rng.hpp"

namespace ncast {
namespace {

using namespace overlay;

TEST(ThreadMatrix, EmptyCurtain) {
  ThreadMatrix m(4);
  EXPECT_EQ(m.k(), 4u);
  EXPECT_EQ(m.row_count(), 0u);
  const auto ends = m.hanging_ends();
  ASSERT_EQ(ends.size(), 4u);
  for (const auto& e : ends) {
    EXPECT_EQ(e.owner, kServerNode);
    EXPECT_FALSE(e.owner_failed);
  }
  EXPECT_TRUE(m.edges().empty());
  EXPECT_TRUE(m.check_invariants());
}

TEST(ThreadMatrix, ZeroKThrows) {
  EXPECT_THROW(ThreadMatrix(0), std::invalid_argument);
}

TEST(ThreadMatrix, AppendAndDeriveEdges) {
  ThreadMatrix m(3);
  m.append_row(10, {0, 1});
  m.append_row(20, {1, 2});
  // Column 0: server->10. Column 1: server->10->20. Column 2: server->20.
  const auto edges = m.edges();
  ASSERT_EQ(edges.size(), 4u);
  int server_edges = 0, relay_edges = 0;
  for (const auto& e : edges) {
    if (e.from == kServerNode) ++server_edges;
    if (e.from == 10 && e.to == 20 && e.column == 1) ++relay_edges;
  }
  EXPECT_EQ(server_edges, 3);
  EXPECT_EQ(relay_edges, 1);
  EXPECT_TRUE(m.check_invariants());
}

TEST(ThreadMatrix, HangingEndsTrackLastClipper) {
  ThreadMatrix m(3);
  m.append_row(1, {0, 1});
  m.append_row(2, {1, 2});
  const auto ends = m.hanging_ends();
  EXPECT_EQ(ends[0].owner, 1u);
  EXPECT_EQ(ends[1].owner, 2u);
  EXPECT_EQ(ends[2].owner, 2u);
}

TEST(ThreadMatrix, ParentsAndChildren) {
  ThreadMatrix m(3);
  m.append_row(1, {0, 1});
  m.append_row(2, {1, 2});
  m.append_row(3, {0, 2});
  // Node 3 taps column 0 (fed by 1) and column 2 (fed by 2).
  const auto parents = m.parents(3);
  EXPECT_EQ(parents.size(), 2u);
  EXPECT_NE(std::find(parents.begin(), parents.end(), 1u), parents.end());
  EXPECT_NE(std::find(parents.begin(), parents.end(), 2u), parents.end());
  // Node 1's children: 2 (column 1) and 3 (column 0).
  const auto children = m.children(1);
  EXPECT_EQ(children.size(), 2u);
  // Server is the parent of node 1 on both columns; deduplicated.
  EXPECT_EQ(m.parents(1), (std::vector<NodeId>{kServerNode}));
}

TEST(ThreadMatrix, InsertRowAtPosition) {
  ThreadMatrix m(2);
  m.append_row(1, {0});
  m.append_row(2, {0});
  m.insert_row_below(1, 5, {0});  // between 1 and 2
  EXPECT_EQ(m.nodes_in_order(), (std::vector<NodeId>{1, 5, 2}));
  // Column 0 chain is now server->1->5->2.
  EXPECT_EQ(m.parents(2), (std::vector<NodeId>{5}));
  m.insert_row_below(kServerNode, 6, {1});  // the server anchors the top
  EXPECT_EQ(m.nodes_in_order(), (std::vector<NodeId>{6, 1, 5, 2}));
  EXPECT_THROW(m.insert_row_below(9, 7, {0}), std::out_of_range);
  EXPECT_TRUE(m.check_invariants());
}

TEST(ThreadMatrix, EraseRowReconnectsChain) {
  ThreadMatrix m(2);
  m.append_row(1, {0, 1});
  m.append_row(2, {0, 1});
  m.append_row(3, {0, 1});
  m.erase_row(2);
  EXPECT_EQ(m.row_count(), 2u);
  EXPECT_FALSE(m.contains(2));
  EXPECT_EQ(m.parents(3), (std::vector<NodeId>{1}));
  EXPECT_TRUE(m.check_invariants());
}

TEST(ThreadMatrix, FailureTags) {
  ThreadMatrix m(2);
  m.append_row(1, {0});
  EXPECT_EQ(m.failed_count(), 0u);
  m.mark_failed(1);
  EXPECT_EQ(m.failed_count(), 1u);
  EXPECT_EQ(m.working_count(), 0u);
  m.mark_failed(1);  // idempotent
  EXPECT_EQ(m.failed_count(), 1u);
  m.mark_working(1);
  EXPECT_EQ(m.failed_count(), 0u);
  m.mark_failed(1);
  m.erase_row(1);
  EXPECT_EQ(m.failed_count(), 0u);
  EXPECT_TRUE(m.check_invariants());
}

TEST(ThreadMatrix, FailedOwnerTaintsHangingEnd) {
  ThreadMatrix m(2);
  m.append_row(1, {0, 1});
  m.mark_failed(1);
  const auto ends = m.hanging_ends();
  EXPECT_TRUE(ends[0].owner_failed);
  EXPECT_TRUE(ends[1].owner_failed);
}

TEST(ThreadMatrix, RowValidation) {
  ThreadMatrix m(3);
  EXPECT_THROW(m.append_row(1, {}), std::invalid_argument);
  EXPECT_THROW(m.append_row(1, {0, 0}), std::invalid_argument);
  EXPECT_THROW(m.append_row(1, {3}), std::invalid_argument);
  EXPECT_THROW(m.append_row(kServerNode, {0}), std::invalid_argument);
  m.append_row(1, {2, 0});  // unsorted input is sorted internally
  EXPECT_EQ(m.row(1).threads, (std::vector<ColumnId>{0, 2}));
  EXPECT_THROW(m.append_row(1, {1}), std::invalid_argument);  // duplicate id
}

TEST(ThreadMatrix, UnknownNodeThrows) {
  ThreadMatrix m(2);
  EXPECT_THROW(m.row(9), std::out_of_range);
  EXPECT_THROW(m.erase_row(9), std::out_of_range);
  EXPECT_THROW(m.mark_failed(9), std::out_of_range);
  EXPECT_THROW(m.insert_row_below(9, 1, {0}), std::out_of_range);
}

TEST(ThreadMatrix, AddAndDropThread) {
  ThreadMatrix m(3);
  m.append_row(1, {0});
  m.add_thread(1, 2);
  EXPECT_EQ(m.row(1).threads, (std::vector<ColumnId>{0, 2}));
  EXPECT_THROW(m.add_thread(1, 2), std::invalid_argument);
  EXPECT_THROW(m.add_thread(1, 7), std::invalid_argument);
  m.drop_thread(1, 0);
  EXPECT_EQ(m.row(1).threads, (std::vector<ColumnId>{2}));
  EXPECT_THROW(m.drop_thread(1, 0), std::invalid_argument);
  EXPECT_THROW(m.drop_thread(1, 2), std::logic_error);  // last thread

  // Across the boundary between a row's own record (up to four columns)
  // and the overflow arena: row 2 grows from 4 to 5 columns and back,
  // under a 6-wide row and above two narrow ones that clip its columns.
  ThreadMatrix w(6);
  w.append_row(1, {0, 1, 2, 3, 4, 5});
  w.append_row(2, {0, 1, 2, 3});
  w.append_row(3, {0, 1, 4});
  w.append_row(4, {2, 3, 4, 5});
  const auto four_wide = [&w] {
    EXPECT_EQ(w.row(2).threads, (std::vector<ColumnId>{0, 1, 2, 3}));
    EXPECT_EQ(w.parents(2), (std::vector<NodeId>{1}));
    EXPECT_EQ(w.children(2), (std::vector<NodeId>{3, 4}));
    EXPECT_EQ(w.children(1), (std::vector<NodeId>{2, 3, 4}));
    EXPECT_EQ(w.parents(3), (std::vector<NodeId>{2, 1}));
    EXPECT_EQ(w.parents(4), (std::vector<NodeId>{2, 3, 1}));
    EXPECT_EQ(w.edges().size(), 17u);
    EXPECT_TRUE(w.check_invariants());
  };
  const auto has_edge = [&w](NodeId from, NodeId to, ColumnId c) {
    const auto edges = w.edges();
    return std::any_of(edges.begin(), edges.end(), [&](const ThreadEdge& e) {
      return e.from == from && e.to == to && e.column == c;
    });
  };
  four_wide();

  w.add_thread(2, 4);  // 5 columns: the row moves to the arena
  EXPECT_EQ(w.row(2).threads, (std::vector<ColumnId>{0, 1, 2, 3, 4}));
  EXPECT_EQ(w.parents(2), (std::vector<NodeId>{1}));
  EXPECT_EQ(w.children(2), (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(w.children(1), (std::vector<NodeId>{2, 4}));
  EXPECT_EQ(w.parents(3), (std::vector<NodeId>{2}));
  EXPECT_EQ(w.parents(4), (std::vector<NodeId>{2, 3, 1}));
  EXPECT_TRUE(has_edge(1, 2, 4));
  EXPECT_TRUE(has_edge(2, 3, 4));
  EXPECT_FALSE(has_edge(1, 3, 4));
  EXPECT_EQ(w.edges().size(), 18u);
  EXPECT_TRUE(w.check_invariants());

  w.drop_thread(2, 0);  // back to 4 columns, and into its record
  EXPECT_EQ(w.row(2).threads, (std::vector<ColumnId>{1, 2, 3, 4}));
  EXPECT_EQ(w.parents(2), (std::vector<NodeId>{1}));
  EXPECT_EQ(w.children(2), (std::vector<NodeId>{3, 4}));
  EXPECT_EQ(w.children(1), (std::vector<NodeId>{3, 2, 4}));
  EXPECT_EQ(w.parents(3), (std::vector<NodeId>{1, 2}));
  EXPECT_TRUE(has_edge(1, 3, 0));
  EXPECT_EQ(w.edges().size(), 17u);
  EXPECT_TRUE(w.check_invariants());

  w.add_thread(2, 0);
  EXPECT_EQ(w.edges().size(), 18u);
  EXPECT_TRUE(w.check_invariants());
  w.drop_thread(2, 4);  // the starting row again
  four_wide();
}

TEST(ThreadMatrix, DropThreadReconnectsChain) {
  ThreadMatrix m(1);
  m.append_row(1, {0});
  m.append_row(2, {0});
  m.append_row(3, {0});
  // Node 2 offloads column 0: chain becomes server->1->3.
  ThreadMatrix m2(2);
  m2.append_row(1, {0, 1});
  m2.append_row(2, {0, 1});
  m2.append_row(3, {0, 1});
  m2.drop_thread(2, 0);
  EXPECT_EQ(m2.parents(3),
            (std::vector<NodeId>{1, 2}));  // col 0 from 1, col 1 from 2
}

TEST(ThreadMatrix, HeterogeneousDegrees) {
  ThreadMatrix m(4);
  m.append_row(1, {0});
  m.append_row(2, {0, 1, 2, 3});
  EXPECT_EQ(m.row(1).threads.size(), 1u);
  EXPECT_EQ(m.row(2).threads.size(), 4u);
  EXPECT_TRUE(m.check_invariants());
}

TEST(ThreadMatrix, EdgeDerivationSkipsNothing) {
  // Total edges == total ones in the matrix.
  ThreadMatrix m(5);
  m.append_row(1, {0, 1, 2});
  m.append_row(2, {2, 3});
  m.append_row(3, {0, 4});
  EXPECT_EQ(m.edges().size(), 7u);
}

TEST(ThreadMatrix, RowsAcrossRecordChunks) {
  // Row records are stored in chunks of 2^19 node ids. Rows on both sides
  // of the first chunk boundary share columns, so their links cross it;
  // row 1 sits where a wrong chunk index would put row kEdge + 1.
  constexpr NodeId kEdge = NodeId{1} << 19;
  ThreadMatrix m(3);
  m.append_row(1, {0});
  m.append_row(kEdge - 2, {0, 1});
  m.append_row(kEdge + 1, {0, 2});
  m.append_row(kEdge - 1, {1, 2});
  m.append_row(kEdge + 3, {0, 1, 2});
  EXPECT_FALSE(m.contains(7));
  EXPECT_FALSE(m.contains(kEdge));  // a gap in the second chunk
  EXPECT_FALSE(m.contains(kEdge + 2));
  EXPECT_FALSE(m.contains(kEdge + 4));  // past the highest id
  EXPECT_EQ(m.row(kEdge + 1).threads, (std::vector<ColumnId>{0, 2}));
  EXPECT_EQ(m.row(kEdge - 1).threads, (std::vector<ColumnId>{1, 2}));
  EXPECT_EQ(m.row(1).threads, (std::vector<ColumnId>{0}));
  EXPECT_EQ(m.parents(kEdge - 2), (std::vector<NodeId>{1, kServerNode}));
  EXPECT_EQ(m.children(1), (std::vector<NodeId>{kEdge - 2}));
  EXPECT_EQ(m.parents(kEdge + 1), (std::vector<NodeId>{kEdge - 2, kServerNode}));
  EXPECT_EQ(m.parents(kEdge - 1), (std::vector<NodeId>{kEdge - 2, kEdge + 1}));
  EXPECT_EQ(m.parents(kEdge + 3), (std::vector<NodeId>{kEdge + 1, kEdge - 1}));
  EXPECT_EQ(m.children(kEdge - 2), (std::vector<NodeId>{kEdge + 1, kEdge - 1}));
  EXPECT_EQ(m.children(kEdge + 1), (std::vector<NodeId>{kEdge + 3, kEdge - 1}));
  EXPECT_EQ(m.edges().size(), 10u);
  EXPECT_TRUE(m.check_invariants());

  m.insert_row_below(kEdge - 2, kEdge, {2});  // fills a gap
  EXPECT_TRUE(m.contains(kEdge));
  EXPECT_EQ(m.parents(kEdge + 1), (std::vector<NodeId>{kEdge - 2, kEdge}));
  EXPECT_EQ(m.children(kEdge), (std::vector<NodeId>{kEdge + 1}));
  EXPECT_TRUE(m.check_invariants());

  ThreadMatrix copy = m;
  m.erase_row(kEdge - 1);
  EXPECT_FALSE(m.contains(kEdge - 1));
  EXPECT_EQ(m.parents(kEdge + 3), (std::vector<NodeId>{kEdge + 1, kEdge - 2}));
  EXPECT_EQ(m.children(kEdge - 2), (std::vector<NodeId>{kEdge + 1, kEdge + 3}));
  EXPECT_EQ(m.edges().size(), 9u);
  EXPECT_TRUE(m.check_invariants());

  // The copy keeps the erased row and grows on its own.
  EXPECT_TRUE(copy.contains(kEdge - 1));
  EXPECT_EQ(copy.parents(kEdge + 3), (std::vector<NodeId>{kEdge + 1, kEdge - 1}));
  EXPECT_EQ(copy.nodes_in_order(),
            (std::vector<NodeId>{1, kEdge - 2, kEdge, kEdge + 1, kEdge - 1, kEdge + 3}));
  copy.append_row(kEdge + 6, {1});
  EXPECT_EQ(copy.parents(kEdge + 6), (std::vector<NodeId>{kEdge + 3}));
  EXPECT_FALSE(copy.contains(kEdge + 5));
  EXPECT_FALSE(m.contains(kEdge + 6));
  EXPECT_EQ(copy.edges().size(), 12u);
  EXPECT_TRUE(copy.check_invariants());
}

// Randomized parity against a naive reference model: the matrix (row
// records with an overflow arena, a blocked curtain with column signatures,
// up/down links) must agree, after every operation, with the obvious
// list-of-rows implementation the original ThreadMatrix amounted to. The
// unit tests above pin behaviors; this pins *equivalence* across long
// random edit histories including moves between a record and the arena,
// span size-class changes, freelist reuse, block splits and merges, and
// link splicing. At k = 7 every column has its own signature bit. At
// k = 130 columns c and c + 64 share one, so the exact column check decides
// every hit: with ~52 columns per row every row sits in the arena, and with
// 1-6 columns per row most rows fit their record and a join's bit carrier
// often clips the other column of its bit, which the fallback scan from
// the carrier resolves.
struct NaiveMatrix {
  struct NaiveRow {
    NodeId node;
    std::vector<ColumnId> threads;  // sorted, distinct
    bool failed = false;
  };
  std::vector<NaiveRow> rows;  // curtain order, top to bottom

  std::size_t position(NodeId n) const {
    for (std::size_t i = 0; i < rows.size(); ++i) {
      if (rows[i].node == n) return i;
    }
    return rows.size();
  }
  std::vector<NodeId> order() const {
    std::vector<NodeId> out;
    for (const auto& r : rows) out.push_back(r.node);
    return out;
  }
  void insert(std::size_t pos, NodeId n, std::vector<ColumnId> t) {
    std::sort(t.begin(), t.end());
    rows.insert(rows.begin() + static_cast<std::ptrdiff_t>(pos),
                NaiveRow{n, std::move(t), false});
  }
  void erase(NodeId n) {
    rows.erase(rows.begin() + static_cast<std::ptrdiff_t>(position(n)));
  }
};

/// k, and how inserted rows draw their columns: each column with
/// probability 0.4 (`max_cols` = 0), or 1..max_cols distinct columns.
struct ModelCase {
  std::uint32_t k;
  std::uint32_t max_cols;
};

/// The parameter as gtest prints it, which ctest's discovery turns into
/// the test names: /7, /130 and /130_narrow.
void PrintTo(const ModelCase& c, std::ostream* os) {
  *os << c.k;
  if (c.max_cols != 0) *os << "_narrow";
}

class ThreadMatrixModel : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ThreadMatrixModel, RandomEditHistoryMatchesNaiveModel) {
  const std::uint32_t kCols = GetParam().k;
  const std::uint32_t max_cols = GetParam().max_cols;
  constexpr int kOps = 3000;
  Rng rng(4242);
  ThreadMatrix m(kCols);
  NaiveMatrix ref;
  NodeId next_node = 1;

  // Every row's up and down lanes against the model's nearest clipper of
  // each of its columns above (one top-down sweep) and below (one bottom-up
  // sweep).
  const auto check_equal = [&] {
    ASSERT_EQ(m.row_count(), ref.rows.size());
    ASSERT_EQ(m.nodes_in_order(), ref.order());
    std::size_t failed = 0;
    std::vector<NodeId> last(kCols, kServerNode);
    for (const auto& want : ref.rows) {
      const auto got = m.row(want.node);
      ASSERT_TRUE(got.threads == want.threads) << "node " << want.node;
      ASSERT_EQ(got.failed, want.failed);
      if (want.failed) ++failed;
      for (std::size_t i = 0; i < want.threads.size(); ++i) {
        const ColumnId c = want.threads[i];
        ASSERT_EQ(got.up[i], last[c]) << "node " << want.node << " col " << c;
        last[c] = want.node;
      }
    }
    for (ColumnId c = 0; c < kCols; ++c) {
      ASSERT_EQ(m.tail_of_column(c), last[c]) << "col " << c;
    }
    std::fill(last.begin(), last.end(), kNoNode);
    for (auto it = ref.rows.rbegin(); it != ref.rows.rend(); ++it) {
      const auto got = m.row(it->node);
      for (std::size_t i = 0; i < it->threads.size(); ++i) {
        const ColumnId c = it->threads[i];
        ASSERT_EQ(got.down[i], last[c]) << "node " << it->node << " col " << c;
        last[c] = it->node;
      }
    }
    ASSERT_EQ(m.failed_count(), failed);
    ASSERT_TRUE(m.check_invariants());
  };

  const auto insert_random = [&] {
    // Insert at a random position with a random distinct column set.
    const NodeId n = next_node++;
    std::vector<ColumnId> cols;
    if (max_cols == 0) {
      for (ColumnId c = 0; c < kCols; ++c) {
        if (rng.chance(0.4)) cols.push_back(c);
      }
      if (cols.empty()) cols.push_back(static_cast<ColumnId>(rng.below(kCols)));
    } else {
      const auto count = static_cast<std::uint32_t>(1 + rng.below(max_cols));
      cols = rng.sample_without_replacement(kCols, count);
    }
    const std::size_t pos = rng.below(ref.rows.size() + 1);
    const NodeId anchor = pos == 0 ? kServerNode : ref.rows[pos - 1].node;
    ref.insert(pos, n, cols);
    if (pos == ref.rows.size() - 1) {
      m.append_row(n, cols);  // exercise the append path too
    } else {
      m.insert_row_below(anchor, n, cols);
    }
  };

  for (int op = 0; op < kOps; ++op) {
    const std::uint64_t dice = rng.below(100);
    if (ref.rows.empty() || dice < 35) {
      insert_random();
    } else {
      auto& victim = ref.rows[rng.below(ref.rows.size())];
      const NodeId n = victim.node;
      if (dice < 55) {
        ref.erase(n);
        m.erase_row(n);
      } else if (dice < 65) {
        victim.failed = true;
        m.mark_failed(n);
      } else if (dice < 72) {
        victim.failed = false;
        m.mark_working(n);
      } else if (dice < 86) {
        // Add a thread the row doesn't have (if any column is free).
        std::vector<ColumnId> missing;
        for (ColumnId c = 0; c < kCols; ++c) {
          if (std::find(victim.threads.begin(), victim.threads.end(), c) ==
              victim.threads.end()) {
            missing.push_back(c);
          }
        }
        if (!missing.empty()) {
          const ColumnId c = missing[rng.below(missing.size())];
          victim.threads.push_back(c);
          std::sort(victim.threads.begin(), victim.threads.end());
          m.add_thread(n, c);
        }
      } else if (victim.threads.size() > 1) {
        const ColumnId c = victim.threads[rng.below(victim.threads.size())];
        victim.threads.erase(
            std::find(victim.threads.begin(), victim.threads.end(), c));
        m.drop_thread(n, c);
      }
    }
    if (op % 50 == 0) check_equal();
  }
  check_equal();
  // The history left the curtain spanning several blocks.
  ASSERT_GT(ref.rows.size(), 4u * ThreadMatrix::kBlockRows);

  // Erase-heavy phase: drain the curtain row by row, which merges blocks
  // and empties the last one, then refill two blocks' worth from the freed
  // blocks.
  while (!ref.rows.empty()) {
    const NodeId n = ref.rows[rng.below(ref.rows.size())].node;
    ref.erase(n);
    m.erase_row(n);
    if (ref.rows.size() % 16 == 0) check_equal();
  }
  for (std::uint32_t i = 0; i < 2 * ThreadMatrix::kBlockRows; ++i) insert_random();
  check_equal();
}

INSTANTIATE_TEST_SUITE_P(Columns, ThreadMatrixModel,
                         ::testing::Values(ModelCase{7, 0}, ModelCase{130, 0},
                                           ModelCase{130, 6}));

}  // namespace
}  // namespace ncast
