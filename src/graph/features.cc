#include "graph/features.h"

#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/graph_properties.h"

namespace pebblejoin {

namespace {

// Union-find over vertices, path-halving, union by size. Enough component
// structure for the feature fields without materializing the per-component
// vertex/edge lists FindComponents builds.
class Dsu {
 public:
  explicit Dsu(int n) : parent_(n), size_(n, 1) {
    for (int v = 0; v < n; ++v) parent_[v] = v;
  }

  int Find(int v) {
    while (parent_[v] != v) {
      parent_[v] = parent_[parent_[v]];
      v = parent_[v];
    }
    return v;
  }

  void Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a == b) return;
    if (size_[a] < size_[b]) std::swap(a, b);
    parent_[b] = a;
    size_[a] += size_[b];
  }

 private:
  std::vector<int> parent_;
  std::vector<int> size_;
};

int HistogramBucket(int64_t edges) {
  int bucket = 0;
  while (edges >= 2 && bucket < GraphFeatures::kHistogramBuckets - 1) {
    edges >>= 1;
    ++bucket;
  }
  return bucket;
}

}  // namespace

GraphFeatures ExtractGraphFeatures(const Graph& g) {
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

  // Component structure: union endpoints, then count edges per root.
  if (m > 0) {
    Dsu dsu(n);
    for (int e = 0; e < m; ++e) {
      const Graph::Edge& edge = g.edge(e);
      dsu.Union(edge.u, edge.v);
    }
    std::vector<int64_t> edges_of_root(n, 0);
    for (int e = 0; e < m; ++e) {
      ++edges_of_root[dsu.Find(g.edge(e).u)];
    }
    for (int v = 0; v < n; ++v) {
      const int64_t edges = edges_of_root[v];
      if (edges == 0) continue;
      ++f.betti_zero;
      f.largest_component_edges = std::max(f.largest_component_edges, edges);
      ++f.component_size_histogram[HistogramBucket(edges)];
    }
  }

  f.bipartite = IsBipartite(g);
  f.equijoin_shape = f.bipartite && ComponentsAreCompleteBipartite(g);
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
