// The CSR graph core: the frozen view must mirror the Graph's edge list
// exactly (same degrees, same insertion-ordered incidence rows, same
// FindEdge answers, the same first repeated edge), be published once under
// concurrent first access, follow copies / moves / mutation correctly, and
// drive ExtractComponent, BuildLineGraph, BuildIncidenceGraph and the graph
// properties to exactly the results of small reference builders written
// here on incidence lists built straight from the edge list — the
// determinism contract the solve goldens rest on.

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <utility>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "graph/components.h"
#include "graph/csr_graph.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "graph/graph_properties.h"
#include "graph/incidence_graph.h"
#include "graph/line_graph.h"

namespace pebblejoin {
namespace {

// A connected random block with a legal edge count for its dimensions.
BipartiteGraph RandomConnectedBlock(std::mt19937_64& rng) {
  const int left = 2 + static_cast<int>(rng() % 3);
  const int right = 2 + static_cast<int>(rng() % 3);
  const int min_m = left + right - 1;
  const int max_m = left * right;
  const int m = min_m + static_cast<int>(rng() % (max_m - min_m + 1));
  return RandomConnectedBipartite(left, right, m, rng());
}

Graph RandomInstance(uint64_t seed) {
  std::mt19937_64 rng(seed);
  const int left = 1 + static_cast<int>(rng() % 6);
  const int right = 1 + static_cast<int>(rng() % 6);
  const int max_m = left * right;
  const int m = static_cast<int>(rng() % (max_m + 1));
  return RandomBipartiteWithEdges(left, right, m, rng()).ToGraph();
}

// --- Reference builders over plain incidence lists -----------------------

// vertex -> incident edge ids, appended in edge-id (insertion) order.
using Incidence = std::vector<std::vector<int>>;

Incidence ReferenceIncidence(const Graph& g) {
  Incidence incident(g.num_vertices());
  for (int e = 0; e < g.num_edges(); ++e) {
    incident[g.edge(e).u].push_back(e);
    incident[g.edge(e).v].push_back(e);
  }
  return incident;
}

std::vector<int> ReferenceNeighbors(const Graph& g, const Incidence& inc,
                                    int v) {
  std::vector<int> out;
  for (int e : inc[v]) out.push_back(g.edge(e).Other(v));
  return out;
}

int ReferenceFindEdge(const Graph& g, const Incidence& inc, int u, int v) {
  for (int e : inc[u]) {
    if (g.edge(e).Other(u) == v) return e;
  }
  return -1;
}

// Stack DFS from each unvisited non-isolated vertex, neighbors in
// incidence order; edges bucketed by component in edge-id order; each
// vertex's local index is its pop position within its component.
ComponentDecomposition ReferenceComponents(const Graph& g) {
  const Incidence inc = ReferenceIncidence(g);
  ComponentDecomposition out;
  out.component_of.assign(g.num_vertices(), -1);
  out.local_index.assign(g.num_vertices(), -1);
  std::vector<int> stack;
  for (int start = 0; start < g.num_vertices(); ++start) {
    if (inc[start].empty() || out.component_of[start] != -1) continue;
    const int c = out.num_components++;
    out.vertices_of.emplace_back();
    out.edges_of.emplace_back();
    stack.push_back(start);
    out.component_of[start] = c;
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      out.local_index[v] = static_cast<int>(out.vertices_of[c].size());
      out.vertices_of[c].push_back(v);
      for (int e : inc[v]) {
        const int w = g.edge(e).Other(v);
        if (out.component_of[w] == -1) {
          out.component_of[w] = c;
          stack.push_back(w);
        }
      }
    }
  }
  for (int e = 0; e < g.num_edges(); ++e) {
    out.edges_of[out.component_of[g.edge(e).u]].push_back(e);
  }
  return out;
}

// L(G) by pair enumeration within each incidence list.
Graph ReferenceLineGraph(const Graph& g) {
  Graph line(g.num_edges());
  for (const std::vector<int>& inc : ReferenceIncidence(g)) {
    for (size_t i = 0; i < inc.size(); ++i) {
      for (size_t j = i + 1; j < inc.size(); ++j) {
        line.AddEdge(inc[i], inc[j]);
      }
    }
  }
  return line;
}

BipartiteGraph ReferenceIncidenceGraph(const Graph& g) {
  BipartiteGraph b(g.num_vertices(), g.num_edges());
  for (int e = 0; e < g.num_edges(); ++e) {
    b.AddEdge(g.edge(e).u, e);
    b.AddEdge(g.edge(e).v, e);
  }
  return b;
}

// Stack DFS 2-coloring, neighbors in incidence order.
std::optional<std::vector<int>> ReferenceTwoColor(const Graph& g) {
  const Incidence inc = ReferenceIncidence(g);
  std::vector<int> color(g.num_vertices(), -1);
  std::vector<int> stack;
  for (int start = 0; start < g.num_vertices(); ++start) {
    if (color[start] != -1) continue;
    color[start] = 0;
    stack.push_back(start);
    while (!stack.empty()) {
      const int v = stack.back();
      stack.pop_back();
      for (int e : inc[v]) {
        const int w = g.edge(e).Other(v);
        if (color[w] == -1) {
          color[w] = 1 - color[v];
          stack.push_back(w);
        } else if (color[w] == color[v]) {
          return std::nullopt;
        }
      }
    }
  }
  return color;
}

// First (center, i < j < k) in scan order whose three neighbors are
// pairwise non-adjacent.
std::optional<std::array<int, 4>> ReferenceClaw(const Graph& g) {
  const Incidence inc = ReferenceIncidence(g);
  const auto adjacent = [&](int a, int b) {
    return ReferenceFindEdge(g, inc, a, b) != -1;
  };
  for (int center = 0; center < g.num_vertices(); ++center) {
    const std::vector<int> nbrs = ReferenceNeighbors(g, inc, center);
    const int d = static_cast<int>(nbrs.size());
    for (int i = 0; i < d; ++i) {
      for (int j = i + 1; j < d; ++j) {
        if (adjacent(nbrs[i], nbrs[j])) continue;
        for (int k = j + 1; k < d; ++k) {
          if (!adjacent(nbrs[i], nbrs[k]) && !adjacent(nbrs[j], nbrs[k])) {
            return std::array<int, 4>{center, nbrs[i], nbrs[j], nbrs[k]};
          }
        }
      }
    }
  }
  return std::nullopt;
}

// --- The view itself ------------------------------------------------------

// The core invariant: every CSR accessor agrees with the edge list it
// froze.
TEST(CsrGraphTest, MirrorsGraphExactly) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    const Graph g = RandomInstance(seed);
    const CsrGraph csr(g);
    const Incidence inc = ReferenceIncidence(g);

    ASSERT_EQ(csr.num_vertices(), static_cast<uint32_t>(g.num_vertices()));
    ASSERT_EQ(csr.num_edges(), static_cast<uint32_t>(g.num_edges()));
    for (int e = 0; e < g.num_edges(); ++e) {
      EXPECT_EQ(csr.EdgeU(e), static_cast<uint32_t>(g.edge(e).u));
      EXPECT_EQ(csr.EdgeV(e), static_cast<uint32_t>(g.edge(e).v));
      EXPECT_EQ(csr.EdgeOther(e, csr.EdgeU(e)), csr.EdgeV(e));
      EXPECT_EQ(csr.EdgeOther(e, csr.EdgeV(e)), csr.EdgeU(e));
    }
    for (int v = 0; v < g.num_vertices(); ++v) {
      SCOPED_TRACE(std::string("v=") + std::to_string(v));
      ASSERT_EQ(csr.Degree(v), inc[v].size());
      // Incidence rows preserve Graph insertion order, element for element.
      const std::vector<int>& incident = inc[v];
      const CsrSpan row = csr.IncidentEdges(v);
      ASSERT_EQ(row.size, incident.size());
      for (size_t i = 0; i < incident.size(); ++i) {
        EXPECT_EQ(row[i], static_cast<uint32_t>(incident[i]));
      }
      const std::vector<int> neighbors = ReferenceNeighbors(g, inc, v);
      const CsrSpan nbr = csr.Neighbors(v);
      ASSERT_EQ(nbr.size, neighbors.size());
      for (size_t i = 0; i < neighbors.size(); ++i) {
        EXPECT_EQ(nbr[i], static_cast<uint32_t>(neighbors[i]));
      }
    }
    // Edge probes and neighbor bitmasks agree on every pair, present or
    // absent.
    const std::vector<uint64_t> masks = csr.NeighborMasks();
    for (int u = 0; u < g.num_vertices(); ++u) {
      EXPECT_EQ(masks[u] >> u & 1, 0u);
      for (int v = 0; v < g.num_vertices(); ++v) {
        if (u == v) continue;
        const int reference = ReferenceFindEdge(g, inc, u, v);
        EXPECT_EQ(csr.FindEdge(u, v), static_cast<int64_t>(reference));
        EXPECT_EQ(csr.HasEdge(u, v), reference != -1);
        EXPECT_EQ((masks[u] >> v & 1) == 1, reference != -1);
      }
    }
    EXPECT_EQ(csr.FirstRepeatedEdge(), -1);
  }
}

// The repeated-edge scan against a set of unordered pairs: the first edge
// id whose pair was seen before, or -1.
TEST(CsrGraphTest, FirstRepeatedEdgeMatchesReference) {
  for (uint64_t seed = 0; seed < 300; ++seed) {
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    std::mt19937_64 rng(seed);
    const int n = 2 + static_cast<int>(rng() % 7);
    const int m = static_cast<int>(rng() % 12);
    Graph g(n);
    std::set<std::pair<int, int>> seen;
    int64_t expected = -1;
    for (int e = 0; e < m; ++e) {
      const int u = static_cast<int>(rng() % n);
      const int v = (u + 1 + static_cast<int>(rng() % (n - 1))) % n;
      g.AddEdge(u, v);
      const bool fresh = seen.insert({std::min(u, v), std::max(u, v)}).second;
      if (!fresh && expected == -1) expected = e;
    }
    EXPECT_EQ(CsrGraph(g).FirstRepeatedEdge(), expected);
  }
  // A repeat that reverses the endpoints, found from the later row.
  Graph g(4);
  g.AddEdge(2, 3);
  g.AddEdge(0, 1);
  g.AddEdge(3, 2);
  g.AddEdge(1, 0);
  EXPECT_EQ(CsrGraph(g).FirstRepeatedEdge(), 2);
}

TEST(CsrGraphTest, BuildCsrIsIdempotentAndMutationInvalidates) {
  // K_{3,4} plus one isolated right vertex w for the mutations below.
  BipartiteGraph b(3, 5);
  for (int l = 0; l < 3; ++l) {
    for (int r = 0; r < 4; ++r) b.AddEdge(l, r);
  }
  Graph g = b.ToGraph();
  const int w = b.FlatRightId(4);
  const CsrGraph* view = &g.csr();
  EXPECT_EQ(&g.csr(), view);  // cached: same frozen view
  g.BuildCsr();
  EXPECT_EQ(&g.csr(), view);  // the eager form reuses it too
  EXPECT_EQ(view->num_edges(), 12u);

  // A mutation drops the view; the next access freezes the new adjacency.
  g.AddEdge(0, w);
  EXPECT_EQ(g.csr().num_vertices(), 8u);
  EXPECT_EQ(g.csr().num_edges(), 13u);
  EXPECT_EQ(g.csr().Degree(w), 1u);
  EXPECT_EQ(g.csr().FindEdge(0, w), 12);
  g.AddEdge(1, w);
  EXPECT_EQ(g.csr().num_edges(), 14u);
  EXPECT_EQ(g.csr().Degree(w), 2u);
}

TEST(CsrGraphTest, CopyAndAssignmentPreserveCsrness) {
  Graph frozen = WorstCaseFamily(4).ToGraph();
  const CsrGraph* original = &frozen.csr();

  // A copy shares nothing: it freezes its own view, mirroring the same
  // adjacency.
  const Graph copy(frozen);
  EXPECT_NE(&copy.csr(), original);
  EXPECT_EQ(copy.csr().num_edges(), original->num_edges());
  EXPECT_EQ(copy.DebugString(), frozen.DebugString());

  // Assignment over a graph with its own view replaces that view.
  Graph target = CompleteBipartite(2, 2).ToGraph();
  EXPECT_EQ(target.csr().num_edges(), 4u);
  target = frozen;
  EXPECT_NE(&target.csr(), original);
  EXPECT_EQ(target.csr().num_edges(), original->num_edges());

  // Moves transfer the view as-is.
  Graph moved(std::move(frozen));
  EXPECT_EQ(&moved.csr(), original);
  Graph move_target;
  move_target = std::move(moved);
  EXPECT_EQ(&move_target.csr(), original);
}

// The thread-safe publication contract: concurrent first calls on one
// unfrozen const graph all return the single published view, each racing
// freezer running its own repeated-edge scan. Runs under ThreadSanitizer
// in CI (ctest -L tsan).
TEST(CsrGraphTest, ConcurrentFirstAccessPublishesOneView) {
  constexpr int kThreads = 8;
  for (uint64_t round = 0; round < 20; ++round) {
    SCOPED_TRACE(std::string("round=") + std::to_string(round));
    const Graph g =
        RandomConnectedBipartite(12, 12, 60, /*seed=*/round + 1).ToGraph();
    std::atomic<int> ready{0};
    std::vector<const CsrGraph*> seen(kThreads, nullptr);
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
      workers.emplace_back([&g, &ready, &seen, t] {
        // Spin until every thread is up, so the first accesses overlap.
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }
        seen[t] = &g.csr();
      });
    }
    for (std::thread& w : workers) w.join();
    for (int t = 0; t < kThreads; ++t) {
      ASSERT_EQ(seen[t], seen[0]) << "thread " << t;
    }
    EXPECT_EQ(&g.csr(), seen[0]);
    EXPECT_EQ(seen[0]->num_edges(), 60u);
  }
}

// --- Consumers against the reference builders ----------------------------

TEST(CsrGraphTest, ExtractComponentPropagatesLayoutAndOrder) {
  for (uint64_t seed = 0; seed < 100; ++seed) {
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    std::mt19937_64 rng(seed);
    // A union of two blocks guarantees >= 2 components.
    const Graph g =
        DisjointUnion(RandomConnectedBlock(rng), RandomConnectedBlock(rng))
            .ToGraph();

    const ComponentDecomposition decomp = FindComponents(g);
    const ComponentDecomposition reference = ReferenceComponents(g);
    ASSERT_GE(decomp.num_components, 2);
    ASSERT_EQ(decomp.num_components, reference.num_components);
    ASSERT_EQ(decomp.component_of, reference.component_of);
    ASSERT_EQ(decomp.vertices_of, reference.vertices_of);
    ASSERT_EQ(decomp.edges_of, reference.edges_of);
    ASSERT_EQ(decomp.local_index, reference.local_index);

    for (int c = 0; c < decomp.num_components; ++c) {
      const std::vector<int>& vmap = decomp.vertices_of[c];
      const std::vector<int>& emap = decomp.edges_of[c];
      const Graph sub = ExtractComponent(g, decomp, c);
      // Local edge i is parent edge emap[i], endpoints relabeled through
      // vmap, in the parent's edge-id order.
      ASSERT_EQ(sub.num_edges(), static_cast<int>(emap.size()));
      for (int e = 0; e < sub.num_edges(); ++e) {
        const Graph::Edge& parent = g.edge(emap[e]);
        EXPECT_EQ(vmap[sub.edge(e).u], parent.u);
        EXPECT_EQ(vmap[sub.edge(e).v], parent.v);
      }
      EXPECT_EQ(sub.csr().num_edges(), static_cast<uint32_t>(emap.size()));
      EXPECT_EQ(FindComponents(sub).num_components, 1);
    }
  }
}

// Line/incidence builds stream the frozen rows directly, and the order
// they produce must be exactly the incidence-list order — no re-sorting.
TEST(CsrGraphTest, LineGraphIdenticalAcrossBuildPaths) {
  for (uint64_t seed = 0; seed < 150; ++seed) {
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    const Graph g = RandomInstance(seed);
    const Graph line = BuildLineGraph(g);
    const Graph reference = ReferenceLineGraph(g);

    ASSERT_EQ(LineGraphEdgeCount(g), reference.num_edges());
    // Same vertices, same edges, same insertion order.
    ASSERT_EQ(line.DebugString(), reference.DebugString());
    // Per-vertex incidence order matches too (DebugString only covers
    // edge order).
    const Incidence line_inc = ReferenceIncidence(line);
    const Incidence reference_inc = ReferenceIncidence(reference);
    for (int v = 0; v < line.num_vertices(); ++v) {
      const CsrSpan row = line.csr().IncidentEdges(v);
      ASSERT_EQ(std::vector<int>(row.begin(), row.end()), reference_inc[v]);
      ASSERT_EQ(line_inc[v], reference_inc[v]);
    }
    EXPECT_EQ(line.csr().FirstRepeatedEdge(), -1);
  }
}

TEST(CsrGraphTest, IncidenceGraphIdenticalAcrossBuildPaths) {
  for (uint64_t seed = 0; seed < 150; ++seed) {
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    std::mt19937_64 rng(seed);
    // BuildIncidenceGraph wants a general graph; keep every node covered.
    const Graph g =
        RandomConnectedBoundedDegree(2 + static_cast<int>(rng() % 6), 4,
                                     static_cast<int>(rng() % 5), rng());
    ASSERT_EQ(BuildIncidenceGraph(g).DebugString(),
              ReferenceIncidenceGraph(g).DebugString());
  }
}

TEST(CsrGraphTest, GraphPropertiesIdenticalAcrossLayouts) {
  for (uint64_t seed = 0; seed < 200; ++seed) {
    SCOPED_TRACE(std::string("seed=") + std::to_string(seed));
    const Graph g = RandomInstance(seed);
    EXPECT_EQ(TwoColor(g), ReferenceTwoColor(g));

    const Incidence inc = ReferenceIncidence(g);
    int max_degree = 0;
    int non_isolated = 0;
    for (int v = 0; v < g.num_vertices(); ++v) {
      const int degree = static_cast<int>(inc[v].size());
      max_degree = std::max(max_degree, degree);
      if (degree > 0) ++non_isolated;
    }
    EXPECT_EQ(MaxDegree(g), max_degree);
    EXPECT_EQ(NumNonIsolatedVertices(g), non_isolated);
    const std::vector<int> histogram = DegreeHistogram(g);
    ASSERT_EQ(histogram.size(), static_cast<size_t>(max_degree + 1));
    for (int d = 0; d <= max_degree; ++d) {
      int count = 0;
      for (int v = 0; v < g.num_vertices(); ++v) {
        count += static_cast<int>(inc[v].size()) == d;
      }
      EXPECT_EQ(histogram[d], count) << "degree " << d;
    }
  }
  // Claw detection: stars and the worst-case family have claws, cycles
  // and completes do not; the witness (not just the verdict) must match.
  for (int m : {3, 4, 7}) {
    SCOPED_TRACE(std::string("star m=") + std::to_string(m));
    const Graph g = StarGraph(m).ToGraph();
    const auto claw = FindInducedClaw(g);
    ASSERT_TRUE(claw.has_value());
    EXPECT_EQ(claw, ReferenceClaw(g));
  }
  for (int n : {3, 5}) {
    SCOPED_TRACE(std::string("worstcase n=") + std::to_string(n));
    const Graph g = WorstCaseFamily(n).ToGraph();
    EXPECT_EQ(FindInducedClaw(g), ReferenceClaw(g));
  }
  for (int n : {4, 5, 6}) {
    SCOPED_TRACE(std::string("K_n n=") + std::to_string(n));
    const Graph g = CompleteGraph(n);
    EXPECT_FALSE(FindInducedClaw(g).has_value());
    EXPECT_FALSE(ReferenceClaw(g).has_value());
  }
}

}  // namespace
}  // namespace pebblejoin
