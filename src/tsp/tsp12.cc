#include "tsp/tsp12.h"

#include <utility>

#include "graph/csr_graph.h"
#include "graph/graph_properties.h"

namespace pebblejoin {

Tsp12Instance::Tsp12Instance(Graph good) : good_(std::move(good)) {
  const int n = good_.num_vertices();
  if (n > kAdjMatrixMaxNodes) return;
  const CsrGraph& csr = good_.csr();
  matrix_stride_ = n;
  adj_matrix_.Assign(static_cast<size_t>(n) * n, false);
  const uint32_t m = csr.num_edges();
  for (uint32_t e = 0; e < m; ++e) {
    const size_t u = csr.EdgeU(e);
    const size_t v = csr.EdgeV(e);
    adj_matrix_.Set(u * matrix_stride_ + v);
    adj_matrix_.Set(v * matrix_stride_ + u);
  }
}

int Tsp12Instance::MaxGoodDegree() const { return MaxDegree(good_); }

}  // namespace pebblejoin
