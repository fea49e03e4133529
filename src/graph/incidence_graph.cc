#include "graph/incidence_graph.h"

#include "graph/csr_graph.h"
#include "util/check.h"

namespace pebblejoin {

BipartiteGraph BuildIncidenceGraph(const Graph& g) {
  const CsrGraph& csr = g.csr();
  BipartiteGraph b(g.num_vertices(), g.num_edges());
  // The CSR endpoint arrays are already in edge-id order — stream them
  // straight through.
  const uint32_t m = csr.num_edges();
  for (uint32_t e = 0; e < m; ++e) {
    const int id_u = b.AddEdge(static_cast<int>(csr.EdgeU(e)),
                               static_cast<int>(e));
    const int id_v = b.AddEdge(static_cast<int>(csr.EdgeV(e)),
                               static_cast<int>(e));
    JP_CHECK(id_u == static_cast<int>(2 * e) &&
             id_v == static_cast<int>(2 * e + 1));
  }
  return b;
}

}  // namespace pebblejoin
