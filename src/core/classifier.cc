#include "core/classifier.h"

#include "graph/components.h"
#include "graph/graph_properties.h"

namespace pebblejoin {

JoinGraphClassification ClassifyJoinGraph(const Graph& join_graph) {
  return ClassifyJoinGraph(FindComponents(join_graph), TwoColor(join_graph));
}

JoinGraphClassification ClassifyJoinGraph(
    const ComponentDecomposition& decomp,
    const std::optional<std::vector<int>>& color) {
  JoinGraphClassification result;
  result.equijoin_shape = ComponentsAreCompleteBipartite(decomp, color);
  result.bounds = ComputeBounds(decomp);
  result.realizable_as = result.equijoin_shape
                             ? PredicateClass::kEquality
                             : PredicateClass::kSetContainment;
  return result;
}

}  // namespace pebblejoin
