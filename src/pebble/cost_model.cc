#include "pebble/cost_model.h"

#include "graph/components.h"
#include "util/check.h"

namespace pebblejoin {

int64_t HatCost(const PebblingScheme& scheme) {
  if (scheme.configs.empty()) return 0;
  int64_t moves = 2;  // initial placement of both pebbles
  for (size_t i = 1; i < scheme.configs.size(); ++i) {
    moves += scheme.configs[i - 1].MovesTo(scheme.configs[i]);
  }
  return moves;
}

int64_t EffectiveCost(const Graph& g, const PebblingScheme& scheme) {
  return HatCost(scheme) - BettiZero(g);
}

int64_t HatCostOfEdgeOrder(const Graph& g,
                           const std::vector<int>& edge_order) {
  if (edge_order.empty()) return 0;
  return static_cast<int64_t>(edge_order.size()) + 1 +
         JumpsOfEdgeOrder(g, edge_order);
}

int64_t JumpsOfEdgeOrder(const Graph& g, std::span<const int> edge_order) {
  int64_t jumps = 0;
  for (size_t i = 1; i < edge_order.size(); ++i) {
    const Graph::Edge& prev = g.edge(edge_order[i - 1]);
    const Graph::Edge& cur = g.edge(edge_order[i]);
    if (!prev.Touches(cur)) ++jumps;
  }
  return jumps;
}

}  // namespace pebblejoin
