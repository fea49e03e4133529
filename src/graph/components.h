// Connected components. β₀(G), the number of connected components among
// non-isolated vertices, enters the paper's effective-cost definition
// π(G) = π̂(G) − β₀(G) (Definition 2.2); isolated vertices are removed
// a priori in the paper's model and are therefore not counted here.

#ifndef PEBBLEJOIN_GRAPH_COMPONENTS_H_
#define PEBBLEJOIN_GRAPH_COMPONENTS_H_

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

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_GRAPH_COMPONENTS_H_
