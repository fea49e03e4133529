// Connected components by one stack traversal of the CSR view, written
// into flat lists. The same pass records each vertex's local index, so
// ExtractComponent copies one component in O(its size) into a plain edge
// vector, whose own CSR view freezes when a solver first walks it.

#include "graph/components.h"

#include "graph/csr_graph.h"
#include "util/bitset.h"
#include "util/check.h"

namespace pebblejoin {

ComponentDecomposition FindComponents(const Graph& g) {
  ComponentDecomposition out;
  out.component_of.assign(g.num_vertices(), -1);
  out.local_index.assign(g.num_vertices(), -1);

  const CsrGraph& csr = g.csr();
  const uint32_t n = csr.num_vertices();
  out.vertices.reserve(n);
  std::vector<int> stack;
  for (uint32_t start = 0; start < n; ++start) {
    if (csr.Degree(start) == 0 || out.component_of[start] != -1) continue;
    const int c = out.num_components++;
    const int first = static_cast<int>(out.vertices.size());
    stack.push_back(static_cast<int>(start));
    out.component_of[start] = c;
    while (!stack.empty()) {
      const uint32_t v = static_cast<uint32_t>(stack.back());
      stack.pop_back();
      out.local_index[v] = static_cast<int>(out.vertices.size()) - first;
      out.vertices.push_back(static_cast<int>(v));
      for (uint32_t w : csr.Neighbors(v)) {
        if (out.component_of[w] == -1) {
          out.component_of[w] = c;
          stack.push_back(static_cast<int>(w));
        }
      }
    }
    out.vertex_offsets.push_back(static_cast<int>(out.vertices.size()));
  }

  // Edges by counting sort on their component: count into the slot after
  // each component's, prefix-sum, then place in id order, which keeps ids
  // increasing within a component. Placing advances each start to the
  // next component's, so the starts shift back one slot afterwards.
  const uint32_t m = csr.num_edges();
  out.edge_offsets.assign(static_cast<size_t>(out.num_components) + 1, 0);
  for (uint32_t e = 0; e < m; ++e) {
    const int c = out.component_of[csr.EdgeU(e)];
    JP_CHECK(c >= 0 && c == out.component_of[csr.EdgeV(e)]);
    ++out.edge_offsets[c + 1];
  }
  for (int c = 0; c < out.num_components; ++c) {
    out.edge_offsets[c + 1] += out.edge_offsets[c];
  }
  out.edges.resize(m);
  for (uint32_t e = 0; e < m; ++e) {
    out.edges[out.edge_offsets[out.component_of[csr.EdgeU(e)]]++] =
        static_cast<int>(e);
  }
  for (int c = out.num_components; c > 0; --c) {
    out.edge_offsets[c] = out.edge_offsets[c - 1];
  }
  out.edge_offsets[0] = 0;
  return out;
}

int BettiZero(const Graph& g) {
  const CsrGraph& csr = g.csr();
  const uint32_t n = csr.num_vertices();
  Bitset visited(n);
  std::vector<uint32_t> stack;
  int components = 0;
  for (uint32_t start = 0; start < n; ++start) {
    if (csr.Degree(start) == 0 || visited.Test(start)) continue;
    ++components;
    visited.Set(start);
    stack.push_back(start);
    while (!stack.empty()) {
      const uint32_t v = stack.back();
      stack.pop_back();
      for (uint32_t w : csr.Neighbors(v)) {
        if (!visited.Test(w)) {
          visited.Set(w);
          stack.push_back(w);
        }
      }
    }
  }
  return components;
}

bool IsConnectedIgnoringIsolated(const Graph& g) {
  return g.num_edges() > 0 && BettiZero(g) == 1;
}

Graph ExtractComponent(const Graph& g, const ComponentDecomposition& decomp,
                       int component) {
  JP_CHECK(0 <= component && component < decomp.num_components);
  JP_CHECK_MSG(static_cast<int>(decomp.local_index.size()) == g.num_vertices(),
               "decomposition does not belong to this graph");
  Graph sub(static_cast<int>(decomp.vertices_of(component).size()));
  for (int e : decomp.edges_of(component)) {
    const Graph::Edge& edge = g.edge(e);
    sub.AddEdge(decomp.local_index[edge.u], decomp.local_index[edge.v]);
  }
  return sub;
}

}  // namespace pebblejoin
