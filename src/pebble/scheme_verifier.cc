#include "pebble/scheme_verifier.h"

#include <vector>

#include "graph/components.h"
#include "graph/csr_graph.h"
#include "pebble/cost_model.h"
#include "util/bitset.h"

namespace pebblejoin {

VerificationResult VerifyScheme(const Graph& g, const PebblingScheme& scheme) {
  VerificationResult result;

  if (g.num_edges() == 0) {
    result.valid = scheme.configs.empty();
    if (!result.valid) result.error = "non-empty scheme for an empty graph";
    return result;
  }
  if (scheme.configs.empty()) {
    result.error = "empty scheme for a graph with edges";
    return result;
  }

  const CsrGraph& csr = g.csr();
  Bitset deleted(g.num_edges());
  for (const PebbleConfig& c : scheme.configs) {
    if (c.a < 0 || c.a >= g.num_vertices() || c.b < 0 ||
        c.b >= g.num_vertices()) {
      result.error = "configuration references a vertex outside the graph";
      return result;
    }
    if (c.a == c.b) {
      result.error = "both pebbles on the same vertex";
      return result;
    }
    const int64_t e = csr.FindEdge(static_cast<uint32_t>(c.a),
                                   static_cast<uint32_t>(c.b));
    if (e != -1 && !deleted.Test(static_cast<size_t>(e))) {
      deleted.Set(static_cast<size_t>(e));
      ++result.edges_deleted;
    }
  }

  if (result.edges_deleted != g.num_edges()) {
    result.error = "scheme leaves " +
                   std::to_string(g.num_edges() - result.edges_deleted) +
                   " edge(s) undeleted";
    return result;
  }

  result.valid = true;
  result.hat_cost = HatCost(scheme);
  result.effective_cost = result.hat_cost - BettiZero(g);
  return result;
}

VerificationResult VerifyEdgeOrder(const Graph& g,
                                   const std::vector<int>& edge_order) {
  VerificationResult result;
  if (static_cast<int>(edge_order.size()) != g.num_edges()) {
    result.error = "edge order has wrong length";
    return result;
  }
  Bitset seen(g.num_edges());
  for (int e : edge_order) {
    if (e < 0 || e >= g.num_edges()) {
      result.error = "edge order references an unknown edge id";
      return result;
    }
    if (seen.Test(e)) {
      result.error = "edge order repeats an edge id";
      return result;
    }
    seen.Set(e);
  }
  return VerifyScheme(g, SchemeFromEdgeOrder(g, edge_order));
}

}  // namespace pebblejoin
