#include "graph/features.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <optional>
#include <vector>

#include "graph/components.h"
#include "graph/csr_graph.h"
#include "graph/graph_properties.h"

namespace pebblejoin {

GraphFeatures ExtractGraphFeatures(const Graph& g) {
  const ComponentDecomposition decomp = FindComponents(g);
  const std::optional<std::vector<int>> color = TwoColor(g);
  return ExtractGraphFeatures(g, decomp, color.has_value(),
                              ComponentsAreCompleteBipartite(decomp, color));
}

GraphFeatures ExtractGraphFeatures(const Graph& g,
                                   const ComponentDecomposition& decomp,
                                   bool bipartite, bool equijoin_shape) {
  GraphFeatures f;
  const int n = g.num_vertices();
  const int m = g.num_edges();
  f.num_edges = m;

  // Degree scan over the CSR row widths.
  const CsrGraph& csr = g.csr();
  for (int v = 0; v < n; ++v) {
    const int64_t deg = csr.Degree(static_cast<uint32_t>(v));
    if (deg == 0) continue;
    ++f.num_vertices;
    f.max_degree = std::max(f.max_degree, deg);
    // Σ C(deg, 2): each vertex contributes one line-graph edge per pair of
    // incident graph edges.
    f.line_graph_edges += deg * (deg - 1) / 2;
  }
  if (f.num_vertices > 0) {
    f.mean_degree = 2.0 * static_cast<double>(m) /
                    static_cast<double>(f.num_vertices);
    f.degree_skew = static_cast<double>(f.max_degree) / f.mean_degree;
  }
  if (f.num_vertices > 1) {
    f.density = 2.0 * static_cast<double>(m) /
                (static_cast<double>(f.num_vertices) *
                 static_cast<double>(f.num_vertices - 1));
  }

  f.betti_zero = decomp.num_components;
  for (int c = 0; c < decomp.num_components; ++c) {
    const int64_t edges = static_cast<int64_t>(decomp.edges_of(c).size());
    f.largest_component_edges = std::max(f.largest_component_edges, edges);
    ++f.component_size_histogram[std::min<int>(
        std::bit_width(static_cast<uint64_t>(edges)) - 1,
        GraphFeatures::kHistogramBuckets - 1)];
  }

  f.bipartite = bipartite;
  f.equijoin_shape = equijoin_shape;
  return f;
}

std::array<double, kNumLogFeatures> LogFeatureVector(const GraphFeatures& f) {
  return {std::log1p(static_cast<double>(f.num_edges)),
          std::log1p(static_cast<double>(f.num_vertices)),
          std::log1p(static_cast<double>(f.line_graph_edges)),
          std::log1p(static_cast<double>(f.max_degree)),
          f.density,
          std::log1p(static_cast<double>(f.betti_zero))};
}

}  // namespace pebblejoin
