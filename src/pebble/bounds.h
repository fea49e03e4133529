// Closed-form combinatorial bounds from Sections 2 and 3.
//
// Integrality note: the paper states Theorem 3.1's upper bound as
// π(G) ≤ 1.25m − 1 and Theorem 3.3's tight value as π(Gₙ) = 1.25m − 1.
// Both are exact only when m ≡ 0 (mod 4); the integral forms implied by the
// proofs — and implemented here — are
//   Theorem 3.1:  π(G) ≤ m + ⌊(m−1)/4⌋   (connected, m ≥ 1), and
//   Theorem 3.3:  π(Gₙ) = m + ⌈m/4⌉ − 1  (m = 2n, n ≥ 3),
// which agree with 1.25m − 1 whenever it is an integer.

#ifndef PEBBLEJOIN_PEBBLE_BOUNDS_H_
#define PEBBLEJOIN_PEBBLE_BOUNDS_H_

#include <cstdint>

#include "graph/graph.h"

namespace pebblejoin {

struct ComponentDecomposition;

// Bounds on the optimal effective pebbling cost π(G) of a graph with m
// edges, combining Lemma 2.3 with Theorem 3.1 summed over components
// (justified by the additivity lemma 2.2).
struct PebblingBounds {
  int64_t num_edges = 0;        // m
  int64_t betti_zero = 0;       // β₀(G)
  int64_t lower = 0;            // m (Lemma 2.3)
  int64_t upper_general = 0;    // Σ_c (2·m_c − 1) (Corollary 2.1 + Lemma 2.2)
  int64_t upper_dfs_bound = 0;  // Σ_c (m_c + ⌊(m_c−1)/4⌋) (Theorem 3.1)
};

// Computes the bounds over all connected components of g, read off
// `decomp` = FindComponents(g) in O(β₀).
PebblingBounds ComputeBounds(const ComponentDecomposition& decomp);

// Theorem 3.1's per-component bound for a connected graph with m >= 1 edges.
int64_t DfsUpperBoundForConnected(int64_t m);

// π(Gₙ) for the Figure-1 worst-case family (Theorem 3.3): with m = 2n,
// π(Gₙ) = m + ⌈m/4⌉ − 1 = 2n + ⌈n/2⌉ − 1. Requires n >= 3.
int64_t WorstCaseFamilyOptimalCost(int n);

// π(G) = m for any graph whose components are complete bipartite
// (Theorem 3.2). Aborts if the precondition fails.
int64_t EquijoinOptimalEffectiveCost(const Graph& g);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_PEBBLE_BOUNDS_H_
