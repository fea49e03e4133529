// Iterated local search (ILS) pebbler.
//
// 2-opt/Or-opt local search stalls in local optima on sparse instances
// (the regime where Theorem 4.2's hardness bites). ILS escapes them with
// the classic loop: perturb the incumbent order with a random double
// bridge (a 4-segment reshuffle that plain 2-opt cannot undo in one move),
// re-run local search, keep the result iff it improved. Deterministic for
// a fixed seed. Strictly never worse than LocalSearchPebbler (it starts
// from that solution), at a constant-factor time cost.

#ifndef PEBBLEJOIN_SOLVER_ILS_PEBBLER_H_
#define PEBBLEJOIN_SOLVER_ILS_PEBBLER_H_

#include <cstdint>

#include "solver/pebbler.h"
#include "tsp/local_search.h"

namespace pebblejoin {

class IlsPebbler : public Pebbler {
 public:
  struct Options {
    int iterations = 30;          // perturb+descend rounds
    uint64_t seed = 1;            // perturbation randomness
    int64_t max_line_graph_edges = 20'000'000;
  };

  using Pebbler::PebbleConnected;

  IlsPebbler() : options_(Options()) {}
  explicit IlsPebbler(Options options) : options_(options) {}

  std::string name() const override { return "ils"; }
  // Deadline-aware iteration loop: under a budget each perturb+descend round
  // polls the deadline and the best incumbent found so far is returned.
  std::optional<std::vector<int>> PebbleConnected(
      const Graph& g, BudgetContext& budget) const override;

 private:
  Options options_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SOLVER_ILS_PEBBLER_H_
