// Shared test helper: adjacency probes read through the CSR view, the
// only adjacency a Graph has. A BipartiteGraph is flattened first, so each
// bipartite probe costs O(n + m) — fine for the small graphs tests build.

#ifndef PEBBLEJOIN_TESTS_GRAPH_TEST_UTIL_H_
#define PEBBLEJOIN_TESTS_GRAPH_TEST_UTIL_H_

#include <cstdint>

#include "graph/bipartite_graph.h"
#include "graph/csr_graph.h"
#include "graph/graph.h"

namespace pebblejoin {

inline bool HasEdge(const Graph& g, int u, int v) {
  return g.csr().HasEdge(static_cast<uint32_t>(u), static_cast<uint32_t>(v));
}

inline int Degree(const Graph& g, int v) {
  return static_cast<int>(g.csr().Degree(static_cast<uint32_t>(v)));
}

inline bool HasEdge(const BipartiteGraph& g, int left, int right) {
  return HasEdge(g.ToGraph(), g.FlatLeftId(left), g.FlatRightId(right));
}

inline int LeftDegree(const BipartiteGraph& g, int left) {
  return Degree(g.ToGraph(), g.FlatLeftId(left));
}

inline int RightDegree(const BipartiteGraph& g, int right) {
  return Degree(g.ToGraph(), g.FlatRightId(right));
}

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_TESTS_GRAPH_TEST_UTIL_H_
