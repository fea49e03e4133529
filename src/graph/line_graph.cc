#include "graph/line_graph.h"

#include <vector>

#include "graph/csr_graph.h"
#include "util/check.h"

namespace pebblejoin {

int64_t LineGraphEdgeCount(const Graph& g) {
  const CsrGraph& csr = g.csr();
  int64_t total = 0;
  for (uint32_t v = 0; v < csr.num_vertices(); ++v) {
    const int64_t d = csr.Degree(v);
    total += d * (d - 1) / 2;
  }
  return total;
}

Graph BuildLineGraph(const Graph& g) {
  const CsrGraph& csr = g.csr();
  Graph line(g.num_edges());
  // Two edges of a simple graph share at most one endpoint (sharing two
  // would make them parallel), so enumerating pairs within each vertex's
  // CSR row yields each L(G) edge exactly once. CSR rows are already in
  // insertion order, so the enumeration consumes them directly, with no
  // re-sorting.
  for (uint32_t v = 0; v < csr.num_vertices(); ++v) {
    const CsrSpan inc = csr.IncidentEdges(v);
    for (uint32_t i = 0; i < inc.size; ++i) {
      for (uint32_t j = i + 1; j < inc.size; ++j) {
        line.AddEdge(static_cast<int>(inc[i]), static_cast<int>(inc[j]));
      }
    }
  }
  JP_CHECK(line.num_edges() == LineGraphEdgeCount(g));
  return line;
}

std::optional<Graph> BuildLineGraphWithBudget(const Graph& g,
                                              int64_t max_edges) {
  if (LineGraphEdgeCount(g) > max_edges) return std::nullopt;
  return BuildLineGraph(g);
}

}  // namespace pebblejoin
