// Connected components. β₀(G), the number of connected components among
// non-isolated vertices, enters the paper's effective-cost definition
// π(G) = π̂(G) − β₀(G) (Definition 2.2); isolated vertices are removed
// a priori in the paper's model and are therefore not counted here.

#ifndef PEBBLEJOIN_GRAPH_COMPONENTS_H_
#define PEBBLEJOIN_GRAPH_COMPONENTS_H_

#include <optional>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace pebblejoin {

// The decomposition of a graph into connected components, stored as two
// CSR-style lists: component c's vertices are
// vertices[vertex_offsets[c] .. vertex_offsets[c + 1]), and its edges are
// edges[edge_offsets[c] .. edge_offsets[c + 1]). Both offset arrays hold
// num_components + 1 entries, so a default-constructed decomposition is
// the empty one.
struct ComponentDecomposition {
  // component_of[v] is the component index of vertex v, or -1 if v is
  // isolated (degree zero).
  std::vector<int> component_of;
  // Number of components among non-isolated vertices (the paper's β₀).
  // Components are numbered in the order of their smallest vertex id.
  int num_components = 0;
  // Every non-isolated vertex, grouped by component; within a component,
  // in the order the traversal pops them off its stack.
  std::vector<int> vertices;
  std::vector<int> vertex_offsets = {0};
  // Every edge id, grouped by component; increasing within a component.
  std::vector<int> edges;
  std::vector<int> edge_offsets = {0};
  // local_index[v] is v's position in vertices_of(component_of[v]) (its id
  // in ExtractComponent's subgraph), or -1 if v is isolated.
  std::vector<int> local_index;

  std::span<const int> vertices_of(int c) const {
    return std::span<const int>(vertices).subspan(
        vertex_offsets[c], vertex_offsets[c + 1] - vertex_offsets[c]);
  }
  std::span<const int> edges_of(int c) const {
    return std::span<const int>(edges).subspan(
        edge_offsets[c], edge_offsets[c + 1] - edge_offsets[c]);
  }
};

// Computes the component decomposition of `g` in one O(n + m) traversal,
// with one allocation per list, none per component.
ComponentDecomposition FindComponents(const Graph& g);

// β₀(G): the number of connected components, ignoring isolated vertices.
// Counted from `g` alone in one traversal with a visited bitmap and one
// stack; it builds no decomposition.
int BettiZero(const Graph& g);

// True if all non-isolated vertices lie in a single component and there is
// at least one edge.
bool IsConnectedIgnoringIsolated(const Graph& g);

// Extracts the subgraph induced by one component of `decomp` =
// FindComponents(g), in O(size of the component). Subgraph vertex i is
// decomp.vertices_of(component)[i] and subgraph edge i is
// decomp.edges_of(component)[i].
Graph ExtractComponent(const Graph& g, const ComponentDecomposition& decomp,
                       int component);

// One component of a decomposed graph, as a per-component solve sees it:
// the graph, its decomposition = FindComponents(graph) and the component's
// index. The component's own subgraph is extracted on first use and kept,
// so a solver that declines the component and the fallback after it share
// one copy, and a solver that reads the component in place makes none.
class ComponentRef {
 public:
  ComponentRef(const Graph& g, const ComponentDecomposition& decomp,
               int index)
      : graph_(g), decomp_(decomp), index_(index) {}

  const Graph& graph() const { return graph_; }
  const ComponentDecomposition& decomp() const { return decomp_; }
  int index() const { return index_; }
  std::span<const int> vertices() const {
    return decomp_.vertices_of(index_);
  }
  std::span<const int> edges() const { return decomp_.edges_of(index_); }

  // ExtractComponent(graph(), decomp(), index()), made on the first call.
  const Graph& Subgraph() {
    if (!sub_.has_value()) {
      sub_.emplace(ExtractComponent(graph_, decomp_, index_));
    }
    return *sub_;
  }

 private:
  const Graph& graph_;
  const ComponentDecomposition& decomp_;
  int index_;
  std::optional<Graph> sub_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_GRAPH_COMPONENTS_H_
