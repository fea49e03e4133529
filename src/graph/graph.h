// A simple undirected graph with stable edge identifiers.
//
// The pebble game of Cai et al. (PODS 2001) is played on the *edge set* of a
// join graph, so edges are first-class here: every edge has a dense integer
// id assigned in insertion order, and all pebbling schemes, line graphs, and
// solvers refer to edges by id.

#ifndef PEBBLEJOIN_GRAPH_GRAPH_H_
#define PEBBLEJOIN_GRAPH_GRAPH_H_

#include <atomic>
#include <string>
#include <vector>

namespace pebblejoin {

class CsrGraph;

// An undirected simple graph. Vertices are 0..num_vertices()-1; edges are
// 0..num_edges()-1 in insertion order. Parallel edges and self-loops are
// rejected (join graphs are simple: a pair of tuples joins at most once).
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

  // Appends `count` fresh isolated vertices; returns the id of the first.
  int AddVertices(int count);

  // Adds the undirected edge {u, v} and returns its id. Aborts on self-loops
  // and duplicate edges (callers own deduplication; see HasEdge()).
  int AddEdge(int u, int v);

  // AddEdge without the O(deg) duplicate probe, for builders that prove
  // uniqueness structurally (the line-graph pair enumeration, component
  // extraction). Endpoints are still bounds-checked; inserting a
  // duplicate through this entry violates the simple-graph invariant.
  int AddEdgeUnchecked(int u, int v);

  int num_vertices() const { return static_cast<int>(incident_.size()); }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const Edge& edge(int e) const;
  int Degree(int v) const;

  // Ids of edges incident to `v`, in insertion order.
  const std::vector<int>& IncidentEdges(int v) const;

  // Neighbor vertex ids of `v` (one per incident edge), in insertion order.
  std::vector<int> Neighbors(int v) const;

  // True if the undirected edge {u, v} is present. O(min(deg u, deg v)).
  bool HasEdge(int u, int v) const;

  // Returns the id of edge {u, v}, or -1 if absent.
  int FindEdge(int u, int v) const;

  // Human-readable dump, e.g. "Graph(5 vertices): 0-1 1-2 ...".
  std::string DebugString() const;

  // The compressed-sparse-row view of the current adjacency
  // (graph/csr_graph.h) — the one view every traversal walks. Frozen on
  // first access and cached; concurrent first calls on a shared const
  // graph are safe and all return the same view. Stable address until the
  // next AddEdge/AddVertices, which invalidates it (the next call freezes
  // afresh).
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

  std::vector<Edge> edges_;
  std::vector<std::vector<int>> incident_;  // vertex -> incident edge ids
  // Owned frozen view, or null until the first csr(). Publication is one
  // compare-exchange: racing freezers build privately and the losers
  // delete their copy.
  mutable std::atomic<const CsrGraph*> csr_{nullptr};
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_GRAPH_GRAPH_H_
