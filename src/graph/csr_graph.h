// Compressed-sparse-row view of a Graph: its only adjacency structure.
//
// A Graph (graph/graph.h) stores just its vertex count and edge list;
// every degree, incidence, neighbor and edge lookup is read from this
// view. CsrGraph freezes the edge list into five flat arrays laid out back
// to back in one exact-size allocation:
//
//   row_begin[0..n]    per-vertex offsets into the adjacency arrays
//   edge_id[0..2m)     edge ids incident to v, at [row_begin[v],
//                      row_begin[v+1]), in ascending (insertion) order
//   neighbor[0..2m)    the far endpoint of edge_id[i], parallel array
//   edge_u/edge_v[0..m) endpoints of edge e, as inserted
//
// Vertex and edge ids are dense uint32_t. Because the per-vertex ranges
// follow insertion order, every traversal (BFS, line-graph pair
// enumeration, greedy scans) visits one fixed sequence, which is what the
// committed solve goldens (tests/solve_golden_test.cc) pin.
// Freezing also finds the first edge repeating an earlier endpoint pair
// (FirstRepeatedEdge()): the check of the simple-graph invariant for
// Graph::csr(). The text parser runs the same scan on its parsed pairs
// (io/graph_io.cc), without building this view.
//
// A CsrGraph is immutable after construction and safe to read from many
// threads. Graph::csr() freezes one on first access and caches it until
// the next mutation; see docs/architecture.md, "Graph layout".

#ifndef PEBBLEJOIN_GRAPH_CSR_GRAPH_H_
#define PEBBLEJOIN_GRAPH_CSR_GRAPH_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "graph/graph.h"
#include "util/check.h"

namespace pebblejoin {

// A contiguous, immutable range of uint32_t ids (a minimal span — the
// toolchain's libstdc++ std::span stays out of public headers).
struct CsrSpan {
  const uint32_t* data = nullptr;
  uint32_t size = 0;

  const uint32_t* begin() const { return data; }
  const uint32_t* end() const { return data + size; }
  uint32_t operator[](size_t i) const { return data[i]; }
  bool empty() const { return size == 0; }
};

class CsrGraph {
 public:
  // Freezes `g`: one counting pass and one fill pass into a single
  // allocation, then the repeated-edge scan. Parallel edges are allowed
  // here so that callers can report them.
  explicit CsrGraph(const Graph& g);

  CsrGraph(const CsrGraph&) = delete;
  CsrGraph& operator=(const CsrGraph&) = delete;

  uint32_t num_vertices() const { return num_vertices_; }
  uint32_t num_edges() const { return num_edges_; }

  uint32_t Degree(uint32_t v) const {
    return row_begin_[v + 1] - row_begin_[v];
  }

  // Edge ids incident to `v`, in Graph insertion order.
  CsrSpan IncidentEdges(uint32_t v) const {
    return CsrSpan{edge_id_ + row_begin_[v], Degree(v)};
  }

  // Far endpoints of the incident edges of `v`, parallel to
  // IncidentEdges(v).
  CsrSpan Neighbors(uint32_t v) const {
    return CsrSpan{neighbor_ + row_begin_[v], Degree(v)};
  }

  uint32_t EdgeU(uint32_t e) const { return edge_u_[e]; }
  uint32_t EdgeV(uint32_t e) const { return edge_v_[e]; }

  // The endpoint of `e` that is not `v`. Requires v ∈ {EdgeU(e), EdgeV(e)}.
  uint32_t EdgeOther(uint32_t e, uint32_t v) const {
    // Branch-free: u ^ v ^ w gives the other endpoint.
    return edge_u_[e] ^ edge_v_[e] ^ v;
  }

  // Id of edge {u, v}, or -1 when absent. Scans the shorter row.
  int64_t FindEdge(uint32_t u, uint32_t v) const {
    const uint32_t probe = Degree(u) <= Degree(v) ? u : v;
    const uint32_t other = probe == u ? v : u;
    const uint32_t begin = row_begin_[probe];
    const uint32_t end = row_begin_[probe + 1];
    for (uint32_t i = begin; i < end; ++i) {
      if (neighbor_[i] == other) return edge_id_[i];
    }
    return -1;
  }

  bool HasEdge(uint32_t u, uint32_t v) const { return FindEdge(u, v) != -1; }

  // The smallest edge id whose unordered endpoint pair equals that of an
  // earlier edge, or -1 when the graph is simple.
  int64_t FirstRepeatedEdge() const { return first_repeated_edge_; }

  // Each row as a bitmask of its neighbors, for graphs of at most 64
  // vertices: the dense form the exponential kernels (Hamiltonian-path
  // DP, Held–Karp, branch and bound) intersect with vertex subsets.
  std::vector<uint64_t> NeighborMasks() const;

 private:
  uint32_t num_vertices_ = 0;
  uint32_t num_edges_ = 0;
  const uint32_t* row_begin_ = nullptr;  // n + 1 offsets
  const uint32_t* edge_id_ = nullptr;    // 2m edge ids
  const uint32_t* neighbor_ = nullptr;   // 2m far endpoints
  const uint32_t* edge_u_ = nullptr;     // m
  const uint32_t* edge_v_ = nullptr;     // m
  std::unique_ptr<uint32_t[]> storage_;  // backs all five arrays
  int64_t first_repeated_edge_ = -1;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_GRAPH_CSR_GRAPH_H_
