#include "pebble/bounds.h"

#include "graph/components.h"
#include "graph/graph_properties.h"
#include "util/check.h"

namespace pebblejoin {

PebblingBounds ComputeBounds(const ComponentDecomposition& decomp) {
  PebblingBounds bounds;
  bounds.betti_zero = decomp.num_components;
  for (int c = 0; c < decomp.num_components; ++c) {
    const int64_t mc = static_cast<int64_t>(decomp.edges_of(c).size());
    bounds.num_edges += mc;
    bounds.upper_general += 2 * mc - 1;
    bounds.upper_dfs_bound += DfsUpperBoundForConnected(mc);
  }
  bounds.lower = bounds.num_edges;
  return bounds;
}

int64_t DfsUpperBoundForConnected(int64_t m) {
  JP_CHECK(m >= 1);
  return m + (m - 1) / 4;
}

int64_t WorstCaseFamilyOptimalCost(int n) {
  JP_CHECK(n >= 3);
  const int64_t m = 2 * static_cast<int64_t>(n);
  return m + (m + 3) / 4 - 1;
}

int64_t EquijoinOptimalEffectiveCost(const Graph& g) {
  JP_CHECK_MSG(ComponentsAreCompleteBipartite(g),
               "graph is not an equijoin join graph");
  return g.num_edges();
}

}  // namespace pebblejoin
