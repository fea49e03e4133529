// TSP with distances one and two (Section 2.2 and Section 4).
//
// An instance is a complete graph whose edges weigh 1 ("good") or 2 ("bad");
// the good edges are given as a Graph. Following the paper, a "tour" is a
// Hamiltonian *path* — a sequence visiting every node exactly once — and its
// cost is (n − 1) + J where J is the number of jumps, i.e. consecutive pairs
// joined by a bad edge. TSP-k(1,2) restricts instances to good graphs of
// maximum degree k (Theorem 4.3 concerns k = 4 and k = 3).
//
// Proposition 2.2 connects this to pebbling: the optimal tour of the
// completed line graph L(G) costs exactly π(G) − 1.

#ifndef PEBBLEJOIN_TSP_TSP12_H_
#define PEBBLEJOIN_TSP_TSP12_H_

#include <cstdint>

#include "graph/csr_graph.h"
#include "graph/graph.h"
#include "util/bitset.h"

namespace pebblejoin {

// A TSP-(1,2) instance. Immutable after construction.
class Tsp12Instance {
 public:
  // Instances whose good graph has at most this many nodes get a dense
  // adjacency matrix (one bit per ordered pair, ≤ 2 MiB),
  // making IsGood() — the innermost predicate of local search and 2-opt —
  // a single word load instead of an O(deg) scan of a CSR row.
  static constexpr int kAdjMatrixMaxNodes = 4096;

  // `good` defines the weight-1 edges; all other pairs weigh 2.
  explicit Tsp12Instance(Graph good);

  int num_nodes() const { return good_.num_vertices(); }
  const Graph& good() const { return good_; }

  // True if {u, v} is a weight-1 edge.
  bool IsGood(int u, int v) const {
    if (matrix_stride_ > 0) {
      return adj_matrix_.Test(static_cast<size_t>(u) * matrix_stride_ + v);
    }
    return good_.csr().HasEdge(static_cast<uint32_t>(u),
                               static_cast<uint32_t>(v));
  }

  // Maximum good-degree; the instance belongs to TSP-k(1,2) for any k >= this.
  int MaxGoodDegree() const;

 private:
  Graph good_;
  // Dense n×n good-edge matrix (row-major, stride matrix_stride_), built
  // only when good_ is small enough; stride 0 means absent.
  Bitset adj_matrix_;
  int matrix_stride_ = 0;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_TSP_TSP12_H_
