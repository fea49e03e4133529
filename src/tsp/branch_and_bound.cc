#include "tsp/branch_and_bound.h"

#include <algorithm>
#include <vector>

#include "graph/csr_graph.h"
#include "obs/solve_stats.h"
#include "tsp/local_search.h"
#include "tsp/path_cover.h"
#include "util/check.h"

namespace pebblejoin {

namespace {

// Which admissible bound dominated a LowerBound() evaluation.
enum class BoundKind { kNone, kComponent, kDeficiency };

// Search state shared across the recursion.
struct SearchContext {
  const Tsp12Instance* instance = nullptr;
  int n = 0;
  std::vector<uint64_t> adj;  // good-neighbor bitmask per node

  int64_t best_jumps = 0;
  std::vector<int> best_tour;
  std::vector<int> current;

  int64_t nodes_expanded = 0;
  int64_t prunes_component = 0;
  int64_t prunes_deficiency = 0;
  int64_t incumbent_updates = 0;
  int64_t node_budget = 0;
  BudgetContext* budget = nullptr;  // the solve's deadline/node budget
  bool budget_exhausted = false;
  bool deadline_expired = false;
  bool use_component_bound = true;
  bool use_deficiency_bound = true;

  uint64_t FullMask() const {
    return (n == 64) ? ~uint64_t{0} : ((uint64_t{1} << n) - 1);
  }
};

int PopCount(uint64_t x) { return __builtin_popcountll(x); }

// Number of connected components of the good graph induced on `mask`.
int ComponentsInMask(const SearchContext& ctx, uint64_t mask) {
  int components = 0;
  uint64_t remaining = mask;
  while (remaining != 0) {
    ++components;
    uint64_t frontier = remaining & (~remaining + 1);  // lowest set bit
    uint64_t seen = 0;
    while (frontier != 0) {
      seen |= frontier;
      uint64_t next = 0;
      uint64_t f = frontier;
      while (f != 0) {
        const int v = __builtin_ctzll(f);
        f &= f - 1;
        next |= ctx.adj[v] & mask & ~seen;
      }
      frontier = next;
    }
    remaining &= ~seen;
  }
  return components;
}

// Admissible lower bound on the jumps still required given the set of
// unvisited nodes and the current path endpoint (-1 if the path is empty).
// `*kind` reports which bound produced the returned value (kNone when the
// bound is zero or both bounds are ablated), so prunes can be attributed.
int64_t LowerBound(const SearchContext& ctx, uint64_t unvisited, int end,
                   BoundKind* kind) {
  *kind = BoundKind::kNone;
  if (unvisited == 0) return 0;

  // Component bound: each extra component of the induced good graph costs a
  // jump; entering the first costs one more if the endpoint has no good
  // unvisited neighbor.
  int64_t lb = 0;
  if (ctx.use_component_bound) {
    lb = ComponentsInMask(ctx, unvisited) - 1;
    const bool end_connected =
        end >= 0 && (ctx.adj[end] & unvisited) != 0;
    if (end >= 0 && !end_connected) lb += 1;
    if (lb > 0) *kind = BoundKind::kComponent;
  }
  if (!ctx.use_deficiency_bound) return lb;

  // Deficiency bound (the B⁺/B⁻ argument of Theorem 3.3): an unvisited node
  // whose good degree into unvisited ∪ {end} is d needs at least 2 − d bad
  // incidences in the remaining tour, except the final node, which needs one
  // fewer; each remaining jump supplies at most two bad incidences to
  // unvisited nodes.
  int64_t deficiency = 0;
  uint64_t scan = unvisited;
  while (scan != 0) {
    const int v = __builtin_ctzll(scan);
    scan &= scan - 1;
    int d = PopCount(ctx.adj[v] & unvisited);
    if (end >= 0 && ((ctx.adj[v] >> end) & 1)) ++d;
    if (d < 2) deficiency += 2 - d;
  }
  const int64_t deficiency_bound = (deficiency - 1 + 1) / 2;  // ⌈(s−1)/2⌉
  if (deficiency_bound > lb) {
    *kind = BoundKind::kDeficiency;
    return deficiency_bound;
  }
  return lb;
}

void Search(SearchContext* ctx, uint64_t unvisited, int end, int64_t jumps) {
  if (ctx->budget_exhausted || ctx->deadline_expired) return;
  if (++ctx->nodes_expanded > ctx->node_budget) {
    ctx->budget_exhausted = true;
    return;
  }
  // Cooperative cancellation: the amortized deadline poll plus a charge
  // against the request-wide node budget. The incumbent survives either
  // way — the search just unwinds.
  if (ctx->budget->Expired()) {
    ctx->deadline_expired = true;
    return;
  }
  if (!ctx->budget->ChargeNodes(1)) {
    ctx->budget_exhausted = true;
    return;
  }
  if (unvisited == 0) {
    if (jumps < ctx->best_jumps) {
      ctx->best_jumps = jumps;
      ctx->best_tour = ctx->current;
      ++ctx->incumbent_updates;
    }
    return;
  }
  BoundKind bound_kind = BoundKind::kNone;
  if (jumps + LowerBound(*ctx, unvisited, end, &bound_kind) >=
      ctx->best_jumps) {
    // Attribute the cut to the bound that was decisive; a cut with a zero
    // bound is the incumbent alone and goes uncounted.
    if (bound_kind == BoundKind::kComponent) ++ctx->prunes_component;
    if (bound_kind == BoundKind::kDeficiency) ++ctx->prunes_deficiency;
    return;
  }

  // Children: good extensions first (most-constrained first), then jumps.
  std::vector<int> good_children;
  if (end >= 0) {
    uint64_t g = ctx->adj[end] & unvisited;
    while (g != 0) {
      const int w = __builtin_ctzll(g);
      g &= g - 1;
      good_children.push_back(w);
    }
    std::sort(good_children.begin(), good_children.end(),
              [&](int a, int b) {
                return PopCount(ctx->adj[a] & unvisited) <
                       PopCount(ctx->adj[b] & unvisited);
              });
  }
  for (int w : good_children) {
    ctx->current.push_back(w);
    Search(ctx, unvisited & ~(uint64_t{1} << w), w, jumps);
    ctx->current.pop_back();
  }

  // Jump (or initial-placement) children: every unvisited node. When there
  // were good children, a jump can still be optimal (the good neighbor may
  // be better saved for later), so all candidates are explored.
  const int64_t step = (end >= 0) ? 1 : 0;
  uint64_t rest = unvisited;
  while (rest != 0) {
    const int w = __builtin_ctzll(rest);
    rest &= rest - 1;
    if (end >= 0 && ((ctx->adj[end] >> w) & 1)) continue;  // already done
    ctx->current.push_back(w);
    Search(ctx, unvisited & ~(uint64_t{1} << w), w, jumps + step);
    ctx->current.pop_back();
  }
}

}  // namespace

BranchAndBoundResult BranchAndBoundSolve(const Tsp12Instance& instance,
                                         const BranchAndBoundOptions& options,
                                         BudgetContext& budget) {
  const int n = instance.num_nodes();
  JP_CHECK(1 <= n && n <= kBranchAndBoundMaxNodes);

  // Hot-loop hardware counters: this thread's group meters the whole solve
  // (priming + recursion) and RAII-flushes into the stats sink, so a pool
  // worker's cycles land in its per-slice stats and survive the merge.
  Probe perf_probe = HotLoopCounters(budget, &SolveStats::bnb_perf);

  SearchContext ctx;
  ctx.instance = &instance;
  ctx.n = n;
  ctx.adj = instance.good().csr().NeighborMasks();
  ctx.node_budget = options.node_budget;
  ctx.budget = &budget;
  ctx.use_component_bound = options.use_component_bound;
  ctx.use_deficiency_bound = options.use_deficiency_bound;

  // Prime the incumbent with a strong heuristic tour so pruning bites early —
  // and so a budget cut at any point still leaves a valid tour to return.
  Tour incumbent = BestGreedyPathCoverTour(instance, 4, /*seed=*/1);
  LocalSearchImprove(instance, &incumbent, budget);
  ctx.best_tour = incumbent;
  ctx.best_jumps = TourJumps(instance, incumbent);

  if (budget.Expired()) {
    ctx.deadline_expired = true;
  } else if (ctx.best_jumps > 0) {
    ctx.current.reserve(n);
    Search(&ctx, ctx.FullMask(), /*end=*/-1, /*jumps=*/0);
  }

  BranchAndBoundResult result;
  result.best.tour = ctx.best_tour;
  result.best.jumps = TourJumps(instance, ctx.best_tour);
  result.best.cost = TourCost(instance, ctx.best_tour);
  result.proven_optimal = !ctx.budget_exhausted && !ctx.deadline_expired;
  result.deadline_expired = ctx.deadline_expired;
  result.budget_exhausted = ctx.budget_exhausted;
  result.nodes_expanded = ctx.nodes_expanded;
  result.prunes_component = ctx.prunes_component;
  result.prunes_deficiency = ctx.prunes_deficiency;
  result.incumbent_updates = ctx.incumbent_updates;

  // One flush per solve into the request's stats sink; the recursion itself
  // only touches plain SearchContext fields.
  if (SolveStats* stats = budget.stats()) {
    stats->bnb_nodes_expanded += ctx.nodes_expanded;
    stats->bnb_prunes_component += ctx.prunes_component;
    stats->bnb_prunes_deficiency += ctx.prunes_deficiency;
    stats->bnb_incumbent_updates += ctx.incumbent_updates;
  }
  return result;
}

}  // namespace pebblejoin
