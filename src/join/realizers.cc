#include "join/realizers.h"

#include <vector>

#include "graph/components.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "graph/graph_properties.h"
#include "util/check.h"

namespace pebblejoin {

Realization<IntSet> RealizeAsSetContainment(const BipartiteGraph& target) {
  Realization<IntSet> out{SetRelation("R"), SetRelation("S")};
  for (int i = 0; i < target.left_size(); ++i) {
    out.left.Add(IntSet::Of({i}));
  }
  const Graph flat = target.ToGraph();
  const CsrGraph& csr = flat.csr();
  for (int j = 0; j < target.right_size(); ++j) {
    const CsrSpan lefts =
        csr.Neighbors(static_cast<uint32_t>(target.FlatRightId(j)));
    out.right.Add(IntSet::Of(std::vector<int>(lefts.begin(), lefts.end())));
  }
  return out;
}

Realization<Rect> RealizeWorstCaseAsSpatial(int n) {
  JP_CHECK(n >= 3);
  Realization<Rect> out{RectRelation("R"), RectRelation("S")};
  // Hub strip overlapping every vertical strip.
  out.left.Add(Rect{0.0, static_cast<double>(n), 0.0, 1.0});
  for (int i = 0; i < n; ++i) {
    // Private strip i: same x-span as vertical strip i, above the hub.
    out.left.Add(Rect{i + 0.2, i + 0.8, 1.5, 3.0});
  }
  for (int i = 0; i < n; ++i) {
    // Vertical strip i: crosses the hub and its private strip, nothing else.
    out.right.Add(Rect{i + 0.2, i + 0.8, 0.0, 2.0});
  }
  return out;
}

std::optional<Realization<int64_t>> RealizeAsEquiJoin(
    const BipartiteGraph& target) {
  const Graph flat = target.ToGraph();
  const ComponentDecomposition decomp = FindComponents(flat);
  if (!ComponentsAreCompleteBipartite(decomp, TwoColor(flat))) {
    return std::nullopt;
  }

  Realization<int64_t> out{KeyRelation("R"), KeyRelation("S")};
  // Component c uses key c; isolated vertices on either side each take a
  // fresh key beyond the last component's, so they never join anything.
  int64_t next_unique = decomp.num_components;
  for (int l = 0; l < target.left_size(); ++l) {
    const int c = decomp.component_of[target.FlatLeftId(l)];
    out.left.Add(c >= 0 ? c : next_unique++);
  }
  for (int r = 0; r < target.right_size(); ++r) {
    const int c = decomp.component_of[target.FlatRightId(r)];
    out.right.Add(c >= 0 ? c : next_unique++);
  }
  return out;
}

}  // namespace pebblejoin
