#include "solver/sort_merge_pebbler.h"

#include <algorithm>
#include <numeric>
#include <span>
#include <vector>

#include "graph/components.h"
#include "graph/csr_graph.h"
#include "pebble/cost_model.h"
#include "util/check.h"

namespace pebblejoin {
namespace {

// The boustrophedon sweep from Lemma 3.2 over one connected component of
// `g`: `vertices` lists its vertices, position[v] is v's index in
// `vertices`, and `edges` lists its edge ids. The sides follow TwoColor's
// rule: the first vertex is colour 0, so colour 1 is its neighbourhood.
// Rows (colour 0) and columns (colour 1) keep `vertices` order.
//
// The component is K_{k,l} exactly when every edge crosses the sides into
// a cell of its own and k·l = m. Then each edge is written once, at its
// place in the sweep — row by row, alternating direction, so consecutive
// edges always share an endpoint — onto the end of `order`, and the sweep
// returns true. Otherwise it returns false and leaves `order` as it was.
// O(|vertices| + m), with no scratch but `order`'s own tail.
bool Sweep(const Graph& g, std::span<const int> vertices,
           std::span<const int> position, std::span<const int> edges,
           std::vector<int>* order) {
  const size_t start = order->size();
  const size_t m = edges.size();
  // The k·l cells, then one slot per vertex: its row r, or ~c for its
  // column c.
  order->resize(start + m, -1);
  order->resize(start + m + vertices.size(), 0);
  int* cell = order->data() + start;
  int* side = cell + m;
  for (uint32_t w : g.csr().Neighbors(static_cast<uint32_t>(vertices[0]))) {
    side[position[w]] = -1;
  }
  int rows = 0;
  int cols = 0;
  for (size_t p = 0; p < vertices.size(); ++p) {
    side[p] = side[p] < 0 ? ~cols++ : rows++;
  }
  const size_t l = static_cast<size_t>(cols);
  bool complete = static_cast<size_t>(rows) * l == m;
  for (size_t i = 0; complete && i < m; ++i) {
    const Graph::Edge& edge = g.edge(edges[i]);
    const int a = side[position[edge.u]];
    const int b = side[position[edge.v]];
    if ((a < 0) == (b < 0)) {
      complete = false;  // both ends on one side
      break;
    }
    const size_t row = static_cast<size_t>(std::max(a, b));
    const size_t col = static_cast<size_t>(~std::min(a, b));
    const size_t at = row * l + (row % 2 == 0 ? col : l - 1 - col);
    if (cell[at] != -1) {
      complete = false;
      break;
    }
    cell[at] = edges[i];
  }
  order->resize(complete ? start + m : start);
  return complete;
}

}  // namespace

std::optional<std::vector<int>> SortMergePebbler::PebbleConnected(
    const Graph& g, BudgetContext& budget) const {
  JP_CHECK(g.num_edges() >= 1);
  // O(m) end to end, so one entry poll is all the cooperation needed.
  if (budget.Expired()) return std::nullopt;

  // The whole graph is the component: its non-isolated vertices in id
  // order, and every edge.
  const CsrGraph& csr = g.csr();
  std::vector<int> vertices;
  std::vector<int> position(g.num_vertices(), -1);
  for (int v = 0; v < g.num_vertices(); ++v) {
    if (csr.Degree(static_cast<uint32_t>(v)) == 0) continue;
    position[v] = static_cast<int>(vertices.size());
    vertices.push_back(v);
  }
  std::vector<int> edges(g.num_edges());
  std::iota(edges.begin(), edges.end(), 0);
  std::vector<int> order;
  if (!Sweep(g, vertices, position, edges, &order)) return std::nullopt;
  return order;
}

bool SortMergePebbler::PebbleComponent(ComponentRef& component,
                                       BudgetContext& budget,
                                       SolveOutcome* outcome,
                                       std::vector<int>* order) const {
  const Graph& g = component.graph();
  const std::span<const int> edges = component.edges();
  JP_CHECK(!edges.empty());
  RungScope rung(*this, static_cast<int64_t>(edges.size()), budget, outcome);
  const size_t start = order->size();
  // As in PebbleConnected: one entry poll, then the sweep, on the
  // component's place in the decomposition.
  const bool swept = !budget.Expired() &&
                     Sweep(g, component.vertices(),
                           component.decomp().local_index, edges, order);
  rung.Finish(swept ? std::optional<int64_t>(
                          static_cast<int64_t>(edges.size()) +
                          JumpsOfEdgeOrder(g, std::span<const int>(
                                                  order->data() + start,
                                                  edges.size())))
                    : std::nullopt);
  return swept;
}

}  // namespace pebblejoin
