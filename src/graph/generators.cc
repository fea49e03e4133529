#include "graph/generators.h"

#include <algorithm>
#include <unordered_set>
#include <utility>

#include "util/check.h"
#include "util/random.h"

namespace pebblejoin {

BipartiteGraph CompleteBipartite(int k, int l) {
  JP_CHECK(k >= 1 && l >= 1);
  BipartiteGraph g(k, l);
  for (int i = 0; i < k; ++i) {
    for (int j = 0; j < l; ++j) g.AddEdge(i, j);
  }
  return g;
}

BipartiteGraph MatchingGraph(int m) {
  JP_CHECK(m >= 1);
  BipartiteGraph g(m, m);
  for (int i = 0; i < m; ++i) g.AddEdge(i, i);
  return g;
}

BipartiteGraph PathGraph(int m) {
  JP_CHECK(m >= 1);
  // Vertices alternate L0, R0, L1, R1, ...; edge i joins the i-th and
  // (i+1)-th vertex of the path.
  const int left = m / 2 + 1;
  const int right = (m + 1) / 2;
  BipartiteGraph g(left, right);
  for (int i = 0; i < m; ++i) {
    // Path vertex i is L(i/2) if i even, R(i/2) if odd; edge i joins path
    // vertices i and i+1, exactly one of which is on each side.
    const int l = (i % 2 == 0) ? i / 2 : (i + 1) / 2;
    const int r = i / 2;
    g.AddEdge(l, r);
  }
  return g;
}

BipartiteGraph EvenCycle(int k) {
  JP_CHECK(k >= 2);
  BipartiteGraph g(k, k);
  for (int i = 0; i < k; ++i) {
    g.AddEdge(i, i);
    g.AddEdge((i + 1) % k, i);
  }
  return g;
}

BipartiteGraph StarGraph(int m) {
  JP_CHECK(m >= 1);
  BipartiteGraph g(1, m);
  for (int i = 0; i < m; ++i) g.AddEdge(0, i);
  return g;
}

BipartiteGraph WorstCaseFamily(int n) {
  JP_CHECK(n >= 3);
  BipartiteGraph g(1 + n, n);
  for (int i = 0; i < n; ++i) {
    g.AddEdge(0, i);      // spoke: center to right vertex i (edge id 2i)
    g.AddEdge(1 + i, i);  // pendant: private left vertex (edge id 2i+1)
  }
  return g;
}

BipartiteGraph RandomBipartite(int left, int right, double p, uint64_t seed) {
  JP_CHECK(left >= 0 && right >= 0);
  Rng rng(seed);
  BipartiteGraph g(left, right);
  for (int l = 0; l < left; ++l) {
    for (int r = 0; r < right; ++r) {
      if (rng.Bernoulli(p)) g.AddEdge(l, r);
    }
  }
  return g;
}

BipartiteGraph RandomBipartiteWithEdges(int left, int right, int m,
                                        uint64_t seed) {
  JP_CHECK(left >= 0 && right >= 0);
  JP_CHECK(0 <= m &&
           static_cast<int64_t>(m) <=
               static_cast<int64_t>(left) * static_cast<int64_t>(right));
  Rng rng(seed);
  BipartiteGraph g(left, right);
  const int64_t total = static_cast<int64_t>(left) * right;
  if (total == 0) return g;
  // For sparse requests, sample cells with rejection (marking drawn cells
  // locally, since the graph under construction has no adjacency); for
  // dense requests, sample a subset of cell indices directly.
  if (m * 3 < total) {
    std::unordered_set<int64_t> drawn;
    while (g.num_edges() < m) {
      const int l = static_cast<int>(rng.UniformInt(left));
      const int r = static_cast<int>(rng.UniformInt(right));
      if (drawn.insert(int64_t{l} * right + r).second) g.AddEdge(l, r);
    }
  } else {
    JP_CHECK(total <= (int64_t{1} << 30));
    std::vector<int> cells =
        rng.Subset(static_cast<int>(total), m);
    for (int cell : cells) g.AddEdge(cell / right, cell % right);
  }
  return g;
}

BipartiteGraph RandomConnectedBipartite(int left, int right, int m,
                                        uint64_t seed) {
  JP_CHECK(left >= 1 && right >= 1);
  JP_CHECK(m >= left + right - 1);
  JP_CHECK(static_cast<int64_t>(m) <=
           static_cast<int64_t>(left) * static_cast<int64_t>(right));
  Rng rng(seed);
  BipartiteGraph g(left, right);

  // Random spanning structure: attach vertices one at a time, in a random
  // interleaving of sides, each to a uniformly random already-attached
  // vertex of the other side.
  std::vector<int> left_order = rng.Permutation(left);
  std::vector<int> right_order = rng.Permutation(right);
  std::vector<int> attached_left{left_order[0]};
  std::vector<int> attached_right;
  size_t li = 1;
  size_t ri = 0;
  while (li < left_order.size() || ri < right_order.size()) {
    const bool can_left = li < left_order.size() && !attached_right.empty();
    const bool can_right = ri < right_order.size();
    bool take_right;
    if (!can_left) {
      take_right = true;
    } else if (!can_right) {
      take_right = false;
    } else {
      take_right = rng.Bernoulli(0.5);
    }
    if (take_right) {
      const int r = right_order[ri++];
      const int l =
          attached_left[rng.UniformInt(static_cast<int64_t>(
              attached_left.size()))];
      g.AddEdge(l, r);
      attached_right.push_back(r);
    } else {
      const int l = left_order[li++];
      const int r =
          attached_right[rng.UniformInt(static_cast<int64_t>(
              attached_right.size()))];
      g.AddEdge(l, r);
      attached_left.push_back(l);
    }
  }
  JP_CHECK(g.num_edges() == left + right - 1);

  // Extra edges, rejection-sampled against the cells drawn so far.
  std::unordered_set<int64_t> drawn;
  for (const BipartiteGraph::Edge& e : g.edges()) {
    drawn.insert(int64_t{e.left} * right + e.right);
  }
  while (g.num_edges() < m) {
    const int l = static_cast<int>(rng.UniformInt(left));
    const int r = static_cast<int>(rng.UniformInt(right));
    if (drawn.insert(int64_t{l} * right + r).second) g.AddEdge(l, r);
  }
  return g;
}

BipartiteGraph DisjointUnion(const BipartiteGraph& a,
                             const BipartiteGraph& b) {
  BipartiteGraph g(a.left_size() + b.left_size(),
                   a.right_size() + b.right_size());
  for (const BipartiteGraph::Edge& e : a.edges()) g.AddEdge(e.left, e.right);
  for (const BipartiteGraph::Edge& e : b.edges()) {
    g.AddEdge(a.left_size() + e.left, a.right_size() + e.right);
  }
  return g;
}

Graph RandomGraph(int n, double p, uint64_t seed) {
  JP_CHECK(n >= 0);
  Rng rng(seed);
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) {
      if (rng.Bernoulli(p)) g.AddEdge(u, v);
    }
  }
  return g;
}

Graph RandomConnectedBoundedDegree(int n, int max_degree, int extra_edges,
                                   uint64_t seed) {
  JP_CHECK(n >= 1 && max_degree >= 2 && extra_edges >= 0);
  Rng rng(seed);
  Graph g(n);
  // Local degrees and pair keys: the graph under construction has no
  // adjacency to probe.
  std::vector<int> degree(n, 0);
  std::unordered_set<int64_t> present;
  const auto key = [n](int u, int v) {
    return int64_t{std::min(u, v)} * n + std::max(u, v);
  };
  const auto add = [&](int u, int v) {
    g.AddEdge(u, v);
    ++degree[u];
    ++degree[v];
    present.insert(key(u, v));
  };
  std::vector<int> order = rng.Permutation(n);
  // Spanning tree: attach each new vertex to a random earlier vertex that
  // still has degree headroom. Such a vertex always exists because a tree on
  // k vertices has total degree 2(k-1) < k * max_degree for max_degree >= 2.
  for (int i = 1; i < n; ++i) {
    while (true) {
      const int j = static_cast<int>(rng.UniformInt(i));
      if (degree[order[j]] < max_degree) {
        add(order[i], order[j]);
        break;
      }
    }
  }
  // Extra edges, best-effort under the degree bound.
  int attempts = 20 * (extra_edges + 1);
  int added = 0;
  while (added < extra_edges && attempts-- > 0) {
    const int u = static_cast<int>(rng.UniformInt(n));
    const int v = static_cast<int>(rng.UniformInt(n));
    if (u == v || present.count(key(u, v)) > 0) continue;
    if (degree[u] >= max_degree || degree[v] >= max_degree) continue;
    add(u, v);
    ++added;
  }
  return g;
}

Graph CompleteGraph(int n) {
  JP_CHECK(n >= 0);
  Graph g(n);
  for (int u = 0; u < n; ++u) {
    for (int v = u + 1; v < n; ++v) g.AddEdge(u, v);
  }
  return g;
}

Graph CycleGraph(int n) {
  JP_CHECK(n >= 3);
  Graph g(n);
  for (int i = 0; i < n; ++i) g.AddEdge(i, (i + 1) % n);
  return g;
}

}  // namespace pebblejoin
