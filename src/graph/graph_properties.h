// Structural predicates on graphs used throughout the paper's arguments:
// complete-bipartite recognition (equijoin components, Lemma 3.2),
// claw-freeness (line graphs contain no induced K_{1,3}, Theorem 3.1),
// bipartition recovery, and degree statistics.

#ifndef PEBBLEJOIN_GRAPH_GRAPH_PROPERTIES_H_
#define PEBBLEJOIN_GRAPH_GRAPH_PROPERTIES_H_

#include <array>
#include <optional>
#include <vector>

#include "graph/graph.h"

namespace pebblejoin {

struct ComponentDecomposition;

// Attempts to 2-color `g`. Returns the color (0/1) of every vertex, or
// nullopt if `g` has an odd cycle. Isolated vertices get color 0.
std::optional<std::vector<int>> TwoColor(const Graph& g);

// True if every connected component of `g` is a complete bipartite graph —
// the exact shape of an equijoin join graph (Section 3.1). Components that
// are single edges count (K_{1,1}); isolated vertices are ignored.
bool ComponentsAreCompleteBipartite(const Graph& g);
// The same in O(n), over `decomp` = FindComponents(g), `color` = TwoColor(g).
bool ComponentsAreCompleteBipartite(
    const ComponentDecomposition& decomp,
    const std::optional<std::vector<int>>& color);

// Finds an induced claw (K_{1,3}): a vertex `center` with three pairwise
// non-adjacent neighbors. Returns {center, leaf, leaf, leaf} or nullopt.
// Line graphs are claw-free (Theorem 3.1 relies on this).
std::optional<std::array<int, 4>> FindInducedClaw(const Graph& g);

// Maximum vertex degree (0 for an empty graph).
int MaxDegree(const Graph& g);

// Histogram of vertex degrees: result[d] = number of vertices of degree d.
std::vector<int> DegreeHistogram(const Graph& g);

// Number of vertices with degree >= 1.
int NumNonIsolatedVertices(const Graph& g);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_GRAPH_GRAPH_PROPERTIES_H_
