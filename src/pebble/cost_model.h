// Cost accounting for pebbling schemes (Definitions 2.1 and 2.2).

#ifndef PEBBLEJOIN_PEBBLE_COST_MODEL_H_
#define PEBBLEJOIN_PEBBLE_COST_MODEL_H_

#include <cstdint>
#include <span>
#include <vector>

#include "graph/graph.h"
#include "pebble/pebbling_scheme.h"

namespace pebblejoin {

// π̂(P): 2 moves for the initial placement of both pebbles plus the moves
// between consecutive configurations. Returns 0 for an empty scheme.
int64_t HatCost(const PebblingScheme& scheme);

// π(P) = π̂(P) − β₀(G) for a scheme intended to pebble all of `g`.
int64_t EffectiveCost(const Graph& g, const PebblingScheme& scheme);

// Cost of the scheme induced by an edge order without materializing it:
// π̂ = m + 1 + J where J counts consecutive edge pairs sharing no endpoint
// (the "jumps" of Section 2.2). Requires a full permutation of g's edges for
// the identity with the definitions above to hold.
int64_t HatCostOfEdgeOrder(const Graph& g, const std::vector<int>& edge_order);

// Number of jumps in an edge order: consecutive pairs sharing no endpoint.
// The order may be any run of g's edge ids, e.g. one component's part of a
// whole-graph order.
int64_t JumpsOfEdgeOrder(const Graph& g, std::span<const int> edge_order);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_PEBBLE_COST_MODEL_H_
