// Bipartite graphs, the natural shape of a join graph: one vertex per tuple
// of R on the left, one per tuple of S on the right, one edge per joining
// pair (Section 2 of the paper).
//
// A BipartiteGraph is two side sizes and an edge list; adjacency is read
// from its flattened graph's CSR view, ToGraph().csr().

#ifndef PEBBLEJOIN_GRAPH_BIPARTITE_GRAPH_H_
#define PEBBLEJOIN_GRAPH_BIPARTITE_GRAPH_H_

#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"

namespace pebblejoin {

// A bipartite graph with an explicit left/right bipartition. Left vertices
// are 0..left_size-1 and right vertices 0..right_size-1 *within their side*;
// edges are (left, right) pairs with dense ids in insertion order.
//
// `ToGraph()` flattens to a plain Graph in which left vertex l keeps id l and
// right vertex r becomes id left_size + r; edge ids are preserved. All
// pebbling machinery operates on the flattened Graph.
class BipartiteGraph {
 public:
  struct Edge {
    int left = 0;
    int right = 0;
  };

  BipartiteGraph() = default;
  BipartiteGraph(int left_size, int right_size);

  // Appends the edge (left, right); returns its id. A repeated pair aborts
  // later, when the flattened graph freezes (ToGraph().csr()).
  int AddEdge(int left, int right);

  int left_size() const { return left_size_; }
  int right_size() const { return right_size_; }
  int num_edges() const { return static_cast<int>(edges_.size()); }

  const Edge& edge(int e) const;
  const std::vector<Edge>& edges() const { return edges_; }

  // Flattens to a Graph (see class comment). Edge ids are preserved; the
  // pairs are copied as-is, with no duplicate probe.
  Graph ToGraph() const;

  // Vertex id of left/right vertices in the flattened Graph.
  int FlatLeftId(int left) const { return left; }
  int FlatRightId(int right) const { return left_size_ + right; }

  // True if the two graphs have identical bipartition sizes and identical
  // edge *sets* (order-insensitive). This is equality under the canonical
  // vertex correspondence, not isomorphism.
  bool SameEdgeSet(const BipartiteGraph& other) const;

  std::string DebugString() const;

 private:
  int left_size_ = 0;
  int right_size_ = 0;
  std::vector<Edge> edges_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_GRAPH_BIPARTITE_GRAPH_H_
