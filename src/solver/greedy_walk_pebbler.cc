#include "solver/greedy_walk_pebbler.h"

#include <vector>

#include "graph/csr_graph.h"
#include "util/bitset.h"
#include "util/check.h"

namespace pebblejoin {

std::optional<std::vector<int>> GreedyWalkPebbler::PebbleConnected(
    const Graph& g, BudgetContext& budget) const {
  JP_CHECK(g.num_edges() >= 1);
  // The walk is near-linear, but a cooperative solver still honors an
  // already-expired deadline instead of starting work.
  if (budget.Expired()) return std::nullopt;
  const CsrGraph& csr = g.csr();
  const int m = g.num_edges();

  Bitset deleted(m);
  // undeleted_degree[v]: undeleted edges incident to v.
  std::vector<int> undeleted_degree(g.num_vertices());
  for (int v = 0; v < g.num_vertices(); ++v) {
    undeleted_degree[v] = static_cast<int>(csr.Degree(v));
  }
  // cursor[v]: scan position into v's incidence row, so that repeated
  // adjacent-edge searches over the run stay O(total degree) amortized...
  // except that an edge skipped now (deleted) stays skipped, so a plain
  // monotone cursor is sound.
  std::vector<size_t> cursor(g.num_vertices(), 0);

  std::vector<int> order;
  order.reserve(m);

  auto delete_edge = [&](int e) {
    deleted.Set(e);
    order.push_back(e);
    --undeleted_degree[csr.EdgeU(e)];
    --undeleted_degree[csr.EdgeV(e)];
  };

  int scan_edge = 0;  // cursor for jumps
  delete_edge(0);

  while (static_cast<int>(order.size()) < m) {
    // A partial order is not a pebbling, so a mid-walk expiry must discard
    // the walk; the amortized poll keeps the check nearly free.
    if (budget.Expired()) return std::nullopt;
    const int last = order.back();
    // Candidate adjacent edges from both endpoints; prefer the one whose
    // *far* endpoint has the lowest undeleted degree (finish constrained
    // corners of the graph before they require a dedicated jump).
    int best = -1;
    int best_score = 0;
    for (uint32_t endpoint : {csr.EdgeU(last), csr.EdgeV(last)}) {
      const CsrSpan inc = csr.IncidentEdges(endpoint);
      const CsrSpan nbr = csr.Neighbors(endpoint);
      size_t& cur = cursor[endpoint];
      while (cur < inc.size && deleted.Test(inc[cur])) ++cur;
      if (cur >= inc.size) continue;
      const int e = static_cast<int>(inc[cur]);
      const int score = undeleted_degree[nbr[cur]];
      if (best == -1 || score < best_score) {
        best = e;
        best_score = score;
      }
    }
    if (best == -1) {
      while (deleted.Test(scan_edge)) ++scan_edge;
      best = scan_edge;
    }
    delete_edge(best);
  }
  return order;
}

}  // namespace pebblejoin
