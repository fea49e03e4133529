// Connected components. β₀(G), the number of connected components among
// non-isolated vertices, enters the paper's effective-cost definition
// π(G) = π̂(G) − β₀(G) (Definition 2.2); isolated vertices are removed
// a priori in the paper's model and are therefore not counted here.

#ifndef PEBBLEJOIN_GRAPH_COMPONENTS_H_
#define PEBBLEJOIN_GRAPH_COMPONENTS_H_

#include <optional>
#include <vector>

#include "graph/graph.h"

namespace pebblejoin {

// The decomposition of a graph into connected components.
struct ComponentDecomposition {
  // component_of[v] is the component index of vertex v, or -1 if v is
  // isolated (degree zero).
  std::vector<int> component_of;
  // Number of components among non-isolated vertices (the paper's β₀).
  int num_components = 0;
  // edges_of[c] lists the edge ids in component c, in increasing order.
  std::vector<std::vector<int>> edges_of;
  // vertices_of[c] lists the vertex ids in component c, in the order the
  // traversal pops them off its stack.
  std::vector<std::vector<int>> vertices_of;
  // local_index[v] is v's position in vertices_of[component_of[v]] (its id
  // in ExtractComponent's subgraph), or -1 if v is isolated.
  std::vector<int> local_index;
};

// Computes the component decomposition of `g` in one O(n + m) traversal.
ComponentDecomposition FindComponents(const Graph& g);

// β₀(G): the number of connected components, ignoring isolated vertices.
int BettiZero(const Graph& g);

// True if all non-isolated vertices lie in a single component and there is
// at least one edge.
bool IsConnectedIgnoringIsolated(const Graph& g);

// Extracts the subgraph induced by one component of `decomp` =
// FindComponents(g), in O(size of the component). Subgraph vertex i is
// decomp.vertices_of[component][i] and subgraph edge i is
// decomp.edges_of[component][i].
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
  const std::vector<int>& vertices() const {
    return decomp_.vertices_of[index_];
  }
  const std::vector<int>& edges() const { return decomp_.edges_of[index_]; }

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
