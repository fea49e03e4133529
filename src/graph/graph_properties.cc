#include "graph/graph_properties.h"

#include <algorithm>

#include "graph/components.h"
#include "graph/csr_graph.h"
#include "util/bitset.h"
#include "util/check.h"

namespace pebblejoin {

std::optional<std::vector<int>> TwoColor(const Graph& g) {
  const CsrGraph& csr = g.csr();
  std::vector<int> color(g.num_vertices(), -1);
  std::vector<int> stack;
  for (uint32_t start = 0; start < csr.num_vertices(); ++start) {
    if (color[start] != -1) continue;
    color[start] = 0;
    stack.push_back(static_cast<int>(start));
    while (!stack.empty()) {
      const uint32_t v = static_cast<uint32_t>(stack.back());
      stack.pop_back();
      for (uint32_t w : csr.Neighbors(v)) {
        if (color[w] == -1) {
          color[w] = 1 - color[v];
          stack.push_back(static_cast<int>(w));
        } else if (color[w] == color[v]) {
          return std::nullopt;
        }
      }
    }
  }
  return color;
}

bool ComponentsAreCompleteBipartite(const Graph& g) {
  return ComponentsAreCompleteBipartite(FindComponents(g), TwoColor(g));
}

bool ComponentsAreCompleteBipartite(
    const ComponentDecomposition& decomp,
    const std::optional<std::vector<int>>& color) {
  if (!color.has_value()) return false;
  for (int c = 0; c < decomp.num_components; ++c) {
    int64_t side0 = 0;
    int64_t side1 = 0;
    for (int v : decomp.vertices_of[c]) {
      ((*color)[v] == 0 ? side0 : side1) += 1;
    }
    // A component 2-colored with sides of sizes a and b is complete
    // bipartite iff it has exactly a*b edges (it can never have more in a
    // simple bipartite graph).
    if (static_cast<int64_t>(decomp.edges_of[c].size()) != side0 * side1) {
      return false;
    }
  }
  return true;
}

std::optional<std::array<int, 4>> FindInducedClaw(const Graph& g) {
  const CsrGraph& csr = g.csr();
  // Adjacency probes against nbrs[i] go through a reusable neighborhood
  // bitset instead of O(deg) row scans, turning each probe into one word
  // load.
  Bitset adjacent(csr.num_vertices());
  for (uint32_t center = 0; center < csr.num_vertices(); ++center) {
    const CsrSpan nbrs = csr.Neighbors(center);
    const int d = static_cast<int>(nbrs.size);
    if (d < 3) continue;
    for (int i = 0; i < d; ++i) {
      const CsrSpan row = csr.Neighbors(nbrs[i]);
      for (uint32_t w : row) adjacent.Set(w);
      for (int j = i + 1; j < d; ++j) {
        if (adjacent.Test(nbrs[j])) continue;
        for (int k = j + 1; k < d; ++k) {
          if (!adjacent.Test(nbrs[k]) && !csr.HasEdge(nbrs[j], nbrs[k])) {
            return std::array<int, 4>{
                static_cast<int>(center), static_cast<int>(nbrs[i]),
                static_cast<int>(nbrs[j]), static_cast<int>(nbrs[k])};
          }
        }
      }
      for (uint32_t w : row) adjacent.Reset(w);
    }
  }
  return std::nullopt;
}

int MaxDegree(const Graph& g) {
  const CsrGraph& csr = g.csr();
  int max_degree = 0;
  for (uint32_t v = 0; v < csr.num_vertices(); ++v) {
    max_degree = std::max(max_degree, static_cast<int>(csr.Degree(v)));
  }
  return max_degree;
}

std::vector<int> DegreeHistogram(const Graph& g) {
  const CsrGraph& csr = g.csr();
  std::vector<int> histogram(MaxDegree(g) + 1, 0);
  for (uint32_t v = 0; v < csr.num_vertices(); ++v) {
    ++histogram[csr.Degree(v)];
  }
  return histogram;
}

int NumNonIsolatedVertices(const Graph& g) {
  const CsrGraph& csr = g.csr();
  int count = 0;
  for (uint32_t v = 0; v < csr.num_vertices(); ++v) {
    if (csr.Degree(v) > 0) ++count;
  }
  return count;
}

}  // namespace pebblejoin
