// Local search (2-opt and Or-opt) for TSP-(1,2) paths.
//
// With (1,2) weights, tour cost is (n − 1) + jumps, so local search only
// needs to track jump deltas. 2-opt reverses a segment; Or-opt relocates a
// short segment. Together they close most of the gap between the greedy
// constructions and the optimum on this problem class, mirroring the role of
// the constant-factor approximations the paper cites.

#ifndef PEBBLEJOIN_TSP_LOCAL_SEARCH_H_
#define PEBBLEJOIN_TSP_LOCAL_SEARCH_H_

#include <cstdint>

#include "tsp/tour.h"
#include "tsp/tsp12.h"
#include "util/budget.h"

namespace pebblejoin {

// All three improvers are anytime algorithms: `tour` is mutated only by
// complete, cost-decreasing moves, so when the `budget` deadline cuts a
// search short the tour left behind is always a valid incumbent — just
// possibly less improved.

// Each improver makes at most 50 full passes (each pass scans all moves),
// and Or-opt relocates segments of at most 3 vertices.

// Improves `tour` in place with first-improvement 2-opt until no 2-opt move
// helps or the pass/deadline budget is exhausted. Returns jumps removed.
int64_t TwoOptImprove(const Tsp12Instance& instance, Tour* tour,
                      BudgetContext& budget);

// Improves `tour` in place with Or-opt segment relocation. Returns the
// number of jumps removed.
int64_t OrOptImprove(const Tsp12Instance& instance, Tour* tour,
                     BudgetContext& budget);

// Alternates 2-opt and Or-opt until neither helps. Returns jumps removed.
int64_t LocalSearchImprove(const Tsp12Instance& instance, Tour* tour,
                           BudgetContext& budget);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_TSP_LOCAL_SEARCH_H_
