#include "graph/csr_graph.h"

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

  // Counting pass: degrees become row offsets.
  row[0] = 0;
  for (int v = 0; v < n; ++v) {
    row[v + 1] = row[v] + static_cast<uint32_t>(g.Degree(v));
  }

  // Fill pass in edge-id order. Appending edge e to both endpoint rows in
  // ascending e reproduces Graph's insertion-ordered incidence lists —
  // the invariant every traversal's determinism rests on.
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

  row_begin_ = row;
  incident_ = incident;
  neighbor_ = neighbor;
  edge_u_ = edge_u;
  edge_v_ = edge_v;
}

}  // namespace pebblejoin
