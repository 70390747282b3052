#include "overlay/flow_graph.hpp"

#include <algorithm>
#include <stdexcept>

#include "graph/maxflow.hpp"

namespace ncast::overlay {

FlowGraph build_flow_graph(const ThreadMatrix& m) {
  FlowGraph fg;
  fg.graph = graph::Digraph(1);  // server
  fg.vertex_to_node.push_back(kServerNode);

  NodeId max_id = 0;
  for (NodeId n : m.order()) max_id = std::max(max_id, n);
  fg.node_vertex.assign(m.row_count() == 0 ? 0 : max_id + 1, FlowGraph::kNoVertex);

  for (NodeId n : m.order()) {
    const graph::Vertex v = fg.graph.add_vertex();
    fg.node_vertex[n] = v;
    fg.vertex_to_node.push_back(n);
  }

  // Walk each row in curtain order, chaining columns. An edge is alive only
  // if both endpoints are working (the server is always working).
  std::vector<graph::Vertex> last(m.k(), FlowGraph::kServerVertex);
  std::vector<bool> last_failed(m.k(), false);
  fg.tap.assign(m.k(), FlowGraph::kServerVertex);
  fg.tap_alive.assign(m.k(), true);

  for (NodeId n : m.order()) {
    const Row& r = m.row(n);
    const graph::Vertex v = fg.node_vertex[n];
    for (ColumnId c : r.threads) {
      if (!last_failed[c] && !r.failed) {
        fg.graph.add_edge(last[c], v);
      }
      last[c] = v;
      last_failed[c] = r.failed;
    }
  }
  for (ColumnId c = 0; c < m.k(); ++c) {
    fg.tap[c] = last[c];
    fg.tap_alive[c] = !last_failed[c];
  }
  return fg;
}

std::int64_t node_connectivity(const FlowGraph& fg, NodeId node) {
  const graph::Vertex v = fg.vertex_of(node);
  if (v == FlowGraph::kServerVertex) {
    throw std::invalid_argument("node_connectivity: node is the server");
  }
  return graph::unit_max_flow(fg.graph, FlowGraph::kServerVertex, v);
}

std::int64_t tuple_connectivity(const FlowGraph& fg,
                                const std::vector<ColumnId>& columns) {
  std::vector<graph::Vertex> taps;
  taps.reserve(columns.size());
  std::vector<bool> seen(fg.tap.size(), false);
  for (ColumnId c : columns) {
    if (c >= fg.tap.size()) throw std::out_of_range("tuple_connectivity: column");
    if (seen[c]) throw std::invalid_argument("tuple_connectivity: duplicate column");
    seen[c] = true;
    if (fg.tap_alive[c]) taps.push_back(fg.tap[c]);
  }
  if (taps.empty()) return 0;
  // Taps on the server itself are satisfied directly (one unit each): model
  // them through the same virtual-sink construction, which handles that
  // uniformly since the server vertex feeds the sink edge.
  return graph::unit_max_flow_to_set(fg.graph, FlowGraph::kServerVertex, taps);
}

std::vector<std::int64_t> node_depths(const FlowGraph& fg) {
  return graph::bfs_depths(fg.graph, FlowGraph::kServerVertex);
}

}  // namespace ncast::overlay
