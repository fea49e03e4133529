// Exact TSP-(1,2) path solver via Held–Karp subset dynamic programming.
//
// Minimizes jumps over all Hamiltonian paths; O(2^n · n²) time and
// O(2^n · n) bytes of memory, so it is limited to small n. This is the
// ground-truth oracle behind the exact pebbler (via Proposition 2.2) and the
// L-reduction experiments.
//
// The instance-size ceiling is derived from a memory budget in exactly one
// place (MaxHeldKarpNodesForMemory): the dominant allocation is the
// 2^n · n-byte DP table, so "largest solvable n" and "table fits the memory
// ceiling" are the same question. kMaxHeldKarpNodes is the value at the
// default ceiling; a SolveBudget with an explicit memory limit moves the
// threshold (and the Held–Karp/branch-and-bound dispatch in ExactPebbler)
// up or down with it.

#ifndef PEBBLEJOIN_TSP_HELD_KARP_H_
#define PEBBLEJOIN_TSP_HELD_KARP_H_

#include <cstdint>
#include <optional>

#include "tsp/tour.h"
#include "tsp/tsp12.h"
#include "util/budget.h"

namespace pebblejoin {

// Result of an exact solve.
struct TspPathResult {
  int64_t jumps = 0;  // minimal number of jumps
  int64_t cost = 0;   // (n − 1) + jumps
  Tour tour;          // one optimal tour
};

// Bytes of the Held–Karp DP table for an n-node instance (2^n · n).
constexpr int64_t HeldKarpTableBytes(int n) {
  return (int64_t{1} << n) * n;
}

// Structural ceiling of this implementation: masks are uint32 and jump
// counts fit uint8 far beyond this, but 2^n · n bytes at n = 26 is already
// ~1.7 GB — beyond that branch and bound is always the right tool.
inline constexpr int kHeldKarpStructuralMaxNodes = 26;

// Default memory ceiling for the DP table when the budget sets no memory
// limit (24 MB: fits n = 20 at ~21 MB; n = 21 would need ~44 MB).
inline constexpr int64_t kDefaultHeldKarpTableBytes = int64_t{24} << 20;

// Largest n whose DP table fits within `memory_limit_bytes`, capped at the
// structural maximum. This is the single source of the Held–Karp/B&B
// dispatch threshold.
constexpr int MaxHeldKarpNodesForMemory(int64_t memory_limit_bytes) {
  int n = 0;
  while (n < kHeldKarpStructuralMaxNodes &&
         HeldKarpTableBytes(n + 1) <= memory_limit_bytes) {
    ++n;
  }
  return n;
}

// Largest instance HeldKarpSolve accepts without an explicit memory limit —
// derived from the default table ceiling, not an independent constant.
inline constexpr int kMaxHeldKarpNodes =
    MaxHeldKarpNodesForMemory(kDefaultHeldKarpTableBytes);
static_assert(kMaxHeldKarpNodes == 20,
              "default Held-Karp ceiling drifted; update callers' comments");

// Solves the instance exactly. Returns nullopt if the DP table exceeds the
// memory ceiling (the budget's, or the default above when the budget sets
// none; the decline is noted via BudgetContext::NoteMemoryDecline) or if
// the budget's deadline expires mid-DP — Held–Karp holds no valid incumbent
// before the table is complete, so a timed-out solve yields nothing.
// For n == 0 returns an empty zero-cost tour.
std::optional<TspPathResult> HeldKarpSolve(const Tsp12Instance& instance,
                                           BudgetContext& budget);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_TSP_HELD_KARP_H_
