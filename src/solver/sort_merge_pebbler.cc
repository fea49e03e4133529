#include "solver/sort_merge_pebbler.h"

#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph_properties.h"
#include "util/check.h"

namespace pebblejoin {

std::optional<std::vector<int>> SortMergePebbler::PebbleConnected(
    const Graph& g, BudgetContext& budget) const {
  JP_CHECK(g.num_edges() >= 1);
  // O(m) end to end, so one entry poll is all the cooperation needed.
  if (budget.Expired()) return std::nullopt;
  const std::optional<std::vector<int>> color = TwoColor(g);
  if (!color.has_value()) return std::nullopt;

  const CsrGraph& csr = g.csr();
  std::vector<int> side_u;  // color 0
  std::vector<int> side_v;  // color 1
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (csr.Degree(v) == 0) continue;  // defensively skip isolated vertices
    ((*color)[v] == 0 ? side_u : side_v).push_back(v);
  }
  const int64_t expected =
      static_cast<int64_t>(side_u.size()) * static_cast<int64_t>(side_v.size());
  if (expected != g.num_edges()) return std::nullopt;  // not complete

  // Index edges as a k×l grid with one O(m) scan, keeping the whole solver
  // linear (the Theorem 4.1 claim).
  const size_t k = side_u.size();
  const size_t l = side_v.size();
  std::vector<int> row_of(g.num_vertices(), -1);
  std::vector<int> col_of(g.num_vertices(), -1);
  for (size_t i = 0; i < k; ++i) row_of[side_u[i]] = static_cast<int>(i);
  for (size_t j = 0; j < l; ++j) col_of[side_v[j]] = static_cast<int>(j);
  std::vector<int> edge_at(k * l, -1);
  for (int e = 0; e < g.num_edges(); ++e) {
    const Graph::Edge& edge = g.edge(e);
    const int u = ((*color)[edge.u] == 0) ? edge.u : edge.v;
    const int v = edge.Other(u);
    JP_CHECK(row_of[u] != -1 && col_of[v] != -1);
    edge_at[static_cast<size_t>(row_of[u]) * l + col_of[v]] = e;
  }

  // Boustrophedon sweep from Lemma 3.2: row by row, alternating direction,
  // so consecutive edges always share an endpoint — zero jumps.
  std::vector<int> order;
  order.reserve(g.num_edges());
  for (size_t i = 0; i < k; ++i) {
    for (size_t step = 0; step < l; ++step) {
      const size_t j = (i % 2 == 0) ? step : l - 1 - step;
      const int e = edge_at[i * l + j];
      JP_CHECK(e != -1);
      order.push_back(e);
    }
  }
  return order;
}

}  // namespace pebblejoin
