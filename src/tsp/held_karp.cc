#include "tsp/held_karp.h"

#include <limits>
#include <vector>

#include "graph/csr_graph.h"
#include "obs/solve_stats.h"
#include "util/check.h"

namespace pebblejoin {

std::optional<TspPathResult> HeldKarpSolve(const Tsp12Instance& instance,
                                           BudgetContext& budget) {
  const int n = instance.num_nodes();

  // Hardware counters across the whole DP (table fill + reconstruction);
  // RAII so the periodic-deadline early returns still flush.
  Probe perf_probe = HotLoopCounters(budget, &SolveStats::hk_perf);
  // Pre-flight: the 2^n · n-byte table must fit the memory ceiling. With no
  // memory limit this is the default n <= 20.
  if (n > MaxHeldKarpNodesForMemory(
              budget.MemoryLimitOr(kDefaultHeldKarpTableBytes))) {
    budget.NoteMemoryDecline();
    return std::nullopt;
  }
  if (budget.Expired()) return std::nullopt;

  TspPathResult result;
  if (n == 0) return result;
  if (n == 1) {
    result.tour = {0};
    return result;
  }

  const std::vector<uint64_t> adj = instance.good().csr().NeighborMasks();

  constexpr uint8_t kInf = std::numeric_limits<uint8_t>::max();
  // dp[mask * n + v] = min jumps of a path visiting exactly `mask`, ending
  // at v. Jump counts fit in uint8 because jumps <= n <= 24.
  const size_t num_masks = size_t{1} << n;
  std::vector<uint8_t> dp(num_masks * n, kInf);
  for (int v = 0; v < n; ++v) dp[(size_t{1} << v) * n + v] = 0;

  // The dominant allocation just happened: record its footprint even if the
  // deadline cuts the DP below (the bytes were materialized either way).
  if (SolveStats* stats = budget.stats()) {
    ++stats->hk_solves;
    stats->hk_subsets_materialized += static_cast<int64_t>(num_masks);
    stats->hk_table_bytes += static_cast<int64_t>(num_masks) * n;
  }

  for (uint32_t mask = 1; mask < num_masks; ++mask) {
    // Periodic deadline poll; a timed-out DP leaves no usable incumbent.
    if ((mask & 0xFFF) == 0 && budget.Expired()) {
      return std::nullopt;
    }
    for (int v = 0; v < n; ++v) {
      const uint8_t cur = dp[size_t{mask} * n + v];
      if (cur == kInf) continue;
      const uint32_t unvisited = ~mask & ((uint32_t{1} << n) - 1);
      uint32_t rest = unvisited;
      while (rest != 0) {
        const int w = __builtin_ctz(rest);
        rest &= rest - 1;
        const uint8_t step = (adj[v] >> w) & 1 ? 0 : 1;
        const size_t idx = (size_t{mask} | (uint32_t{1} << w)) * n + w;
        if (cur + step < dp[idx]) {
          dp[idx] = static_cast<uint8_t>(cur + step);
        }
      }
    }
  }

  const uint32_t full = (uint32_t{1} << n) - 1;
  int best_end = 0;
  for (int v = 1; v < n; ++v) {
    if (dp[size_t{full} * n + v] < dp[size_t{full} * n + best_end]) {
      best_end = v;
    }
  }
  result.jumps = dp[size_t{full} * n + best_end];
  result.cost = n - 1 + result.jumps;

  // Reconstruct backwards.
  result.tour.resize(n);
  uint32_t mask = full;
  int v = best_end;
  for (int pos = n - 1; pos >= 0; --pos) {
    result.tour[pos] = v;
    const uint32_t prev_mask = mask & ~(uint32_t{1} << v);
    if (prev_mask == 0) break;
    bool found = false;
    uint32_t rest = prev_mask;
    while (rest != 0) {
      const int u = __builtin_ctz(rest);
      rest &= rest - 1;
      const uint8_t step = (adj[u] >> v) & 1 ? 0 : 1;
      if (dp[size_t{prev_mask} * n + u] + step == dp[size_t{mask} * n + v]) {
        mask = prev_mask;
        v = u;
        found = true;
        break;
      }
    }
    JP_CHECK_MSG(found, "Held-Karp reconstruction failed");
  }
  return result;
}

}  // namespace pebblejoin
