// Structural classification of join graphs, tying Section 3's taxonomy to
// executable checks: equijoin graphs are exactly the disjoint unions of
// complete bipartite graphs; everything else is "general" (and, by
// Lemma 3.3, realizable as a set-containment join).

#ifndef PEBBLEJOIN_CORE_CLASSIFIER_H_
#define PEBBLEJOIN_CORE_CLASSIFIER_H_

#include <optional>
#include <vector>

#include "graph/graph.h"
#include "join/predicates.h"
#include "pebble/bounds.h"

namespace pebblejoin {

struct ComponentDecomposition;

// What the join graph's shape implies about pebbling difficulty.
struct JoinGraphClassification {
  // True iff every component is complete bipartite — the equijoin shape.
  // Implies a perfect pebbling (π = m) found in linear time (Thms 3.2/4.1).
  bool equijoin_shape = false;
  // Combinatorial bounds (Lemma 2.3, Theorem 3.1) for this graph.
  PebblingBounds bounds;
  // The narrowest predicate class guaranteed to be able to produce this
  // graph: kEquality for equijoin shapes, kSetContainment otherwise
  // (set-containment joins are universal, Lemma 3.3).
  PredicateClass realizable_as = PredicateClass::kGeneral;
};

JoinGraphClassification ClassifyJoinGraph(const Graph& join_graph);
// The same, over `decomp` = FindComponents(g) and `color` = TwoColor(g).
JoinGraphClassification ClassifyJoinGraph(
    const ComponentDecomposition& decomp,
    const std::optional<std::vector<int>>& color);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_CORE_CLASSIFIER_H_
