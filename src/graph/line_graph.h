// Line graphs (Section 2.2 of the paper).
//
// The line graph L(G) has one node per edge of G, with two nodes adjacent
// iff the corresponding edges of G share an endpoint. Pebbling G perfectly
// is equivalent to finding a Hamiltonian path in L(G) (Proposition 2.1), and
// optimal pebbling in general is TSP-(1,2) over the completed L(G)
// (Proposition 2.2).

#ifndef PEBBLEJOIN_GRAPH_LINE_GRAPH_H_
#define PEBBLEJOIN_GRAPH_LINE_GRAPH_H_

#include <cstdint>
#include <optional>

#include "graph/graph.h"

namespace pebblejoin {

// Number of edges L(G) would have: Σ_v deg(v)·(deg(v)−1)/2. This can be
// quadratic in |E(G)| (a star of m edges yields a K_m), so callers should
// check it against a budget before materializing L(G).
int64_t LineGraphEdgeCount(const Graph& g);

// Builds L(G). Node i of the result corresponds to edge i of `g`.
Graph BuildLineGraph(const Graph& g);

// Builds L(G) only if it would have at most `max_edges` edges.
std::optional<Graph> BuildLineGraphWithBudget(const Graph& g,
                                              int64_t max_edges);

// Bytes charged per materialized line-graph edge when a memory ceiling is
// turned into an edge budget. An L(G) edge costs its 8-byte Edge record in
// the edge list, and every consumer of L(G) also freezes its CSR view,
// which adds 24 bytes per edge (two incidence slots, two neighbor slots,
// one endpoint pair), so the resident cost is about 32 bytes per edge and
// this constant undercounts it by half. It stays at 16 so memory-capped
// declines, and the output bytes that depend on them, do not move.
inline constexpr int64_t kLineGraphBytesPerEdge = 16;

// Edge budget implied by a memory ceiling — solvers with a SolveBudget
// memory limit clamp their configured line-graph budget to this.
constexpr int64_t MaxLineGraphEdgesForMemory(int64_t memory_limit_bytes) {
  return memory_limit_bytes / kLineGraphBytesPerEdge;
}

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_GRAPH_LINE_GRAPH_H_
