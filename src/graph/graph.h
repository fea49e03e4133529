// A simple undirected graph with stable edge identifiers.
//
// The pebble game of Cai et al. (PODS 2001) is played on the *edge set* of a
// join graph, so edges are first-class here: every edge has a dense integer
// id assigned in insertion order, and all pebbling schemes, line graphs, and
// solvers refer to edges by id.
//
// A Graph is its vertex count and edge list; all adjacency is read from
// the frozen CSR view, csr() (docs/architecture.md, "Graph layout").

#ifndef PEBBLEJOIN_GRAPH_GRAPH_H_
#define PEBBLEJOIN_GRAPH_GRAPH_H_

#include <atomic>
#include <string>
#include <vector>

namespace pebblejoin {

class CsrGraph;

// An undirected simple graph. Vertices are 0..num_vertices()-1; edges are
// 0..num_edges()-1 in insertion order. Self-loops are rejected at insert and
// parallel edges at freeze (join graphs are simple: a pair of tuples joins
// at most once).
class Graph {
 public:
  struct Edge {
    int u = 0;
    int v = 0;

    // Returns the endpoint that is not `w`. Requires w ∈ {u, v}.
    int Other(int w) const;
    // True if this edge and `other` share at least one endpoint.
    bool Touches(const Edge& other) const;
  };

  Graph();
  explicit Graph(int num_vertices);
  ~Graph();

  // Copies share no view: a copy freezes its own on first csr(). Moves
  // transfer the view as-is.
  Graph(const Graph& other);
  Graph& operator=(const Graph& other);
  Graph(Graph&& other) noexcept;
  Graph& operator=(Graph&& other) noexcept;

  // Appends the undirected edge {u, v} and returns its id. Aborts on
  // self-loops; a parallel edge aborts later, in csr().
  int AddEdge(int u, int v);

  int num_vertices() const { return num_vertices_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const Edge& edge(int e) const;

  // Human-readable dump, e.g. "Graph(5 vertices): 0-1 1-2 ...".
  std::string DebugString() const;

  // The compressed-sparse-row view (graph/csr_graph.h), the graph's only
  // adjacency structure. Frozen on first access and cached; freezing
  // aborts with "parallel edges are not allowed" if two edges share an
  // endpoint pair. Concurrent first calls on a shared const graph are safe
  // and all return the same view. Stable address until the next AddEdge,
  // which invalidates it (the next call freezes afresh).
  const CsrGraph& csr() const {
    if (const CsrGraph* view = csr_.load()) {
      return *view;
    }
    return Freeze();
  }

  // Eager csr(): freezes now, so the cost lands where the caller measures
  // it (the engine's build stage) rather than in the first traversal.
  void BuildCsr() const { csr(); }

 private:
  const CsrGraph& Freeze() const;
  void InvalidateCsr();

  int num_vertices_ = 0;
  std::vector<Edge> edges_;
  // Owned frozen view, or null until the first csr(). Publication is one
  // compare-exchange: racing freezers build privately and the losers
  // delete their copy.
  mutable std::atomic<const CsrGraph*> csr_{nullptr};
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_GRAPH_GRAPH_H_
