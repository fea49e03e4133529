#include "graph/csr_graph.h"

#include <algorithm>
#include <vector>

namespace pebblejoin {

CsrGraph::CsrGraph(const Graph& g) {
  const int n = g.num_vertices();
  const int m = g.num_edges();
  JP_CHECK(n >= 0 && m >= 0);
  num_vertices_ = static_cast<uint32_t>(n);
  num_edges_ = static_cast<uint32_t>(m);

  // One exact-size block: n + 1 offsets, then 2m incident ids, 2m far
  // endpoints, and m + m edge endpoints. Every word is written below, so
  // the block is left uninitialized.
  const size_t words = size_t{num_vertices_} + 1 + 6 * size_t{num_edges_};
  storage_.reset(new uint32_t[words]);
  uint32_t* row = storage_.get();
  uint32_t* incident = row + n + 1;
  uint32_t* neighbor = incident + 2 * size_t{num_edges_};
  uint32_t* edge_u = neighbor + 2 * size_t{num_edges_};
  uint32_t* edge_v = edge_u + num_edges_;

  // Counting pass: degrees from the edge list become row offsets.
  std::fill(row, row + n + 1, 0u);
  for (int e = 0; e < m; ++e) {
    const Graph::Edge& edge = g.edge(e);
    ++row[edge.u + 1];
    ++row[edge.v + 1];
  }
  for (int v = 0; v < n; ++v) row[v + 1] += row[v];

  // Fill pass in edge-id order. Appending edge e to both endpoint rows in
  // ascending e keeps every row in insertion order — the invariant every
  // traversal's determinism rests on.
  std::vector<uint32_t> cursor(n, 0);
  for (int e = 0; e < m; ++e) {
    const Graph::Edge& edge = g.edge(e);
    const uint32_t u = static_cast<uint32_t>(edge.u);
    const uint32_t v = static_cast<uint32_t>(edge.v);
    edge_u[e] = u;
    edge_v[e] = v;
    const uint32_t iu = row[u] + cursor[u]++;
    incident[iu] = static_cast<uint32_t>(e);
    neighbor[iu] = v;
    const uint32_t iv = row[v] + cursor[v]++;
    incident[iv] = static_cast<uint32_t>(e);
    neighbor[iv] = u;
  }

  // Repeated-edge scan, reusing `cursor` as a per-row marker: cursor[w]
  // holds the last row that reached w. Rows are in ascending edge id, so
  // a second visit from the same row is the later edge of a repeated
  // pair; the minimum over all rows is the first repeat in id order.
  std::fill(cursor.begin(), cursor.end(), num_vertices_);
  for (uint32_t u = 0; u < num_vertices_; ++u) {
    for (uint32_t i = row[u]; i < row[u + 1]; ++i) {
      const uint32_t w = neighbor[i];
      if (cursor[w] != u) {
        cursor[w] = u;
      } else if (first_repeated_edge_ == -1 ||
                 incident[i] < first_repeated_edge_) {
        first_repeated_edge_ = incident[i];
      }
    }
  }

  row_begin_ = row;
  edge_id_ = incident;
  neighbor_ = neighbor;
  edge_u_ = edge_u;
  edge_v_ = edge_v;
}

std::vector<uint64_t> CsrGraph::NeighborMasks() const {
  JP_CHECK(num_vertices_ <= 64);
  std::vector<uint64_t> masks(num_vertices_, 0);
  for (uint32_t e = 0; e < num_edges_; ++e) {
    masks[edge_u_[e]] |= uint64_t{1} << edge_v_[e];
    masks[edge_v_[e]] |= uint64_t{1} << edge_u_[e];
  }
  return masks;
}

}  // namespace pebblejoin
