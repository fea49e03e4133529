#include "graph/components.h"

#include <algorithm>

#include "graph/csr_graph.h"
#include "util/check.h"

namespace pebblejoin {

ComponentDecomposition FindComponents(const Graph& g) {
  ComponentDecomposition out;
  out.component_of.assign(g.num_vertices(), -1);

  const CsrGraph& csr = g.csr();
  const uint32_t n = csr.num_vertices();
  std::vector<int> queue;
  for (uint32_t start = 0; start < n; ++start) {
    if (csr.Degree(start) == 0 || out.component_of[start] != -1) continue;
    const int c = out.num_components++;
    out.vertices_of.emplace_back();
    out.edges_of.emplace_back();
    queue.clear();
    queue.push_back(static_cast<int>(start));
    out.component_of[start] = c;
    while (!queue.empty()) {
      const uint32_t v = static_cast<uint32_t>(queue.back());
      queue.pop_back();
      out.vertices_of[c].push_back(static_cast<int>(v));
      for (uint32_t w : csr.Neighbors(v)) {
        if (out.component_of[w] == -1) {
          out.component_of[w] = c;
          queue.push_back(static_cast<int>(w));
        }
      }
    }
  }
  const uint32_t m = csr.num_edges();
  for (uint32_t e = 0; e < m; ++e) {
    const int c = out.component_of[csr.EdgeU(e)];
    JP_CHECK(c >= 0 && c == out.component_of[csr.EdgeV(e)]);
    out.edges_of[c].push_back(static_cast<int>(e));
  }
  return out;
}

int BettiZero(const Graph& g) { return FindComponents(g).num_components; }

bool IsConnectedIgnoringIsolated(const Graph& g) {
  return g.num_edges() > 0 && BettiZero(g) == 1;
}

Graph ExtractComponent(const Graph& g, const ComponentDecomposition& decomp,
                       int component, std::vector<int>* vertex_map,
                       std::vector<int>* edge_map) {
  JP_CHECK(0 <= component && component < decomp.num_components);
  const std::vector<int>& vertices = decomp.vertices_of[component];
  const std::vector<int>& edges = decomp.edges_of[component];

  std::vector<int> local_id(g.num_vertices(), -1);
  Graph sub(static_cast<int>(vertices.size()));
  for (int i = 0; i < static_cast<int>(vertices.size()); ++i) {
    local_id[vertices[i]] = i;
  }
  // Edges of a simple graph stay distinct under relabeling, so the
  // duplicate probe is provably dead — skip it.
  for (int e : edges) {
    const Graph::Edge& edge = g.edge(e);
    sub.AddEdgeUnchecked(local_id[edge.u], local_id[edge.v]);
  }
  if (vertex_map != nullptr) *vertex_map = vertices;
  if (edge_map != nullptr) *edge_map = edges;
  return sub;
}

}  // namespace pebblejoin
