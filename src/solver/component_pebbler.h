// Driver that pebbles arbitrary graphs by solving each connected component
// independently and concatenating the per-component schemes — optimal
// composition by the additivity lemma (Lemma 2.2).
//
// Lemma 2.2 is also a parallelism license: components share no vertices, so
// their solves are embarrassingly parallel. With Options::threads > 1 the
// driver cuts the components, in index order, into edge-balanced tasks
// (CutFanoutTasks) and runs the tasks on the borrowed Options::pool (the
// engine's long-lived one — the driver never builds a pool of its own);
// the sequential path is one task over every component.
//
// A task solves its components one after another. Each component takes its
// own worker slice of the request's BudgetContext, its own "component"
// probe and its own provenance, and hands itself to the primary's
// PebbleComponent: SortMergePebbler sweeps a complete bipartite component
// in place, and every other solver (or a component sort-merge declines)
// solves the component's extracted subgraph. The slice shares the
// request's budget ledger, so one slow component cannot starve the rest, a
// deadline noticed by any worker cancels all of them, and the request's
// polls, nodes and stop need no merge. The sinks are per task, not per
// component: a task's components record into one SolveStats, one
// TraceSession and one gathered event log, which are merged in task order
// — that is, component order — after the join barrier. The sequential path
// runs the exact same slice-and-merge machinery inline, which is what makes
// the output — edge order, scheme, costs, stats, AnalysisJson —
// byte-identical across thread counts.

#ifndef PEBBLEJOIN_SOLVER_COMPONENT_PEBBLER_H_
#define PEBBLEJOIN_SOLVER_COMPONENT_PEBBLER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "pebble/pebbling_scheme.h"
#include "solver/pebbler.h"

namespace pebblejoin {

struct ComponentDecomposition;
class ThreadPool;

// The fan-out's task cut. Returns bounds b with b.front() == 0 and
// b.back() == decomp.num_components; task t solves components
// [b[t], b[t+1]). Tasks are contiguous and in index order. A task closes
// once it holds at least ⌈m / (4 · workers)⌉ edges, m being the
// decomposition's edge total, and a component at or above that size forms
// a task of its own.
std::vector<int> CutFanoutTasks(const ComponentDecomposition& decomp,
                                int workers);

// Outcome of pebbling a whole graph.
struct PebbleSolution {
  std::vector<int> edge_order;  // permutation of the graph's edge ids
  PebblingScheme scheme;        // induced scheme
  int64_t hat_cost = 0;         // π̂, verified
  int64_t effective_cost = 0;   // π = π̂ − β₀, verified
  int64_t jumps = 0;            // effective_cost − m
  int num_components = 0;       // β₀(G)
  // Per component: full provenance — rungs attempted, why each stopped, the
  // achieved cost vs. the Lemma 2.3 lower bound m, and the `winner`: the
  // solver (or ladder rung) whose order was kept.
  std::vector<SolveOutcome> outcomes;
  // Per component: wall clock of its solve in microseconds. Recorded by
  // both the sequential and the parallel path (under parallelism the sum
  // exceeds the request's wall clock — that is the speedup).
  std::vector<int64_t> component_wall_us;

  // The request summaries every surface reports, defined once: the
  // distinct winners in first-use order, comma-joined ("exact,ils"), and
  // the first component whose outcome was budget-cut (null when none was).
  std::string Winners() const;
  const SolveOutcome* FirstDegraded() const;
};

// Wraps a primary Pebbler with a fallback (defaulting to the greedy walk,
// which never refuses). The solution is verified before being returned; an
// invalid order from any solver aborts (it would be a library bug).
class ComponentPebbler {
 public:
  struct Options {
    // 1 solves components sequentially on the calling thread; above 1 the
    // components fan out over `pool`, which must then be set (the
    // constructor checks). The output is byte-identical for every value —
    // threads only changes scheduling.
    int threads = 1;
    // Borrowed worker pool for the fan-out — the long-lived pool a
    // SolveEngine owns. Not owned; must outlive every Solve call. Width is
    // the pool's own. When the calling thread is itself a worker of some
    // pool, the drive solves sequentially (fanning out again would have
    // the worker wait on itself).
    ThreadPool* pool = nullptr;
  };

  // Neither pointer is owned; both must outlive this object. `fallback` may
  // be null, in which case the primary must handle every component.
  ComponentPebbler(const Pebbler* primary, const Pebbler* fallback);
  ComponentPebbler(const Pebbler* primary, const Pebbler* fallback,
                   Options options);

  // Pebbles `g` (which may be disconnected and contain isolated vertices).
  // The primary runs under `budget` (null = unlimited); when it refuses or
  // is cut short, the fallback runs *unbudgeted* so the drive always
  // terminates with a verified scheme — the budget shapes quality, never
  // success. Equivalent to FindComponents + SolveDecomposed +
  // VerifyAndCost; the staged pipeline calls those seams directly.
  PebbleSolution Solve(const Graph& g, BudgetContext* budget) const;
  PebbleSolution Solve(const Graph& g) const { return Solve(g, nullptr); }

  // The solve stage alone: fans the components of `decomp` (which must be
  // FindComponents(g)) across the workers, in the tasks CutFanoutTasks
  // cuts, and merges edge order, provenance, stats and trace
  // deterministically in component-index order. The returned solution has
  // no scheme and no costs yet — run VerifyAndCost on it (the verify
  // stage) to finish.
  PebbleSolution SolveDecomposed(const Graph& g,
                                 const ComponentDecomposition& decomp,
                                 BudgetContext* budget) const;

  // The verify stage: induces the scheme from solution->edge_order, checks
  // it against the verifier (an invalid order aborts — it would be a
  // library bug), and fills in the verified hat/effective costs and jumps.
  static void VerifyAndCost(const Graph& g, PebbleSolution* solution);

  // VerifyAndCost that reports instead of aborting: returns false (and
  // sets *error) when the verifier rejects the induced scheme. The abort
  // contract stands — callers use this seam to flush diagnostics (e.g.
  // the flight recorder) before JP_CHECK-ing the verdict themselves.
  static bool TryVerifyAndCost(const Graph& g, PebbleSolution* solution,
                               std::string* error);

 private:
  struct TaskResult;

  // Solves components [first, last) one after another into `result`, each
  // on a worker slice of `parent`. Runs on a pool worker (or inline on the
  // sequential path); writes only `result` and the shared budget ledger,
  // never the parent's own fields.
  void SolveTask(const Graph& g, const ComponentDecomposition& decomp,
                 int first, int last, const BudgetContext& parent,
                 TaskResult* result) const;
  // One component of SolveTask: its slice, its "component" probe, the
  // primary's PebbleComponent and, when that refuses, the fallback's.
  void SolveComponent(const Graph& g, const ComponentDecomposition& decomp,
                      int c, const BudgetContext& parent,
                      TaskResult* result) const;

  const Pebbler* primary_;
  const Pebbler* fallback_;
  Options options_;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SOLVER_COMPONENT_PEBBLER_H_
