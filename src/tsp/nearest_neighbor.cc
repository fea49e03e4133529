#include "tsp/nearest_neighbor.h"

#include <algorithm>

#include "graph/csr_graph.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/random.h"

namespace pebblejoin {

Tour NearestNeighborTour(const Tsp12Instance& instance, int start) {
  const int n = instance.num_nodes();
  JP_CHECK(0 <= start && start < n);
  const Graph& good = instance.good();
  const CsrGraph& csr = good.csr();

  Bitset visited(n);
  // remaining_degree[v]: number of unvisited good neighbors of v.
  std::vector<int> remaining_degree(n);
  for (int v = 0; v < n; ++v) remaining_degree[v] = good.Degree(v);

  Tour tour;
  tour.reserve(n);
  // Neighbors are visited in incidence order, read from the contiguous
  // CSR row.
  auto visit = [&](int v) {
    visited.Set(v);
    tour.push_back(v);
    for (uint32_t w : csr.Neighbors(static_cast<uint32_t>(v))) {
      --remaining_degree[w];
    }
  };
  visit(start);

  int scan_from = 0;  // cursor for finding an arbitrary unvisited node
  while (static_cast<int>(tour.size()) < n) {
    const int cur = tour.back();
    int best = -1;
    for (uint32_t w : csr.Neighbors(static_cast<uint32_t>(cur))) {
      if (visited.Test(w)) continue;
      if (best == -1 || remaining_degree[w] < remaining_degree[best]) {
        best = static_cast<int>(w);
      }
    }
    if (best == -1) {
      while (visited.Test(scan_from)) ++scan_from;
      best = scan_from;
    }
    visit(best);
  }
  return tour;
}

Tour BestNearestNeighborTour(const Tsp12Instance& instance, int restarts,
                             uint64_t seed) {
  const int n = instance.num_nodes();
  JP_CHECK(restarts >= 1);
  if (n == 0) return Tour{};
  Rng rng(seed);
  Tour best = NearestNeighborTour(instance, 0);
  int64_t best_cost = TourCost(instance, best);
  for (int i = 1; i < restarts && i < n; ++i) {
    const int start = static_cast<int>(rng.UniformInt(n));
    Tour candidate = NearestNeighborTour(instance, start);
    const int64_t cost = TourCost(instance, candidate);
    if (cost < best_cost) {
      best_cost = cost;
      best = std::move(candidate);
    }
  }
  return best;
}

}  // namespace pebblejoin
