#include "solver/component_pebbler.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <utility>

#include "graph/components.h"
#include "obs/log.h"
#include "obs/probe.h"
#include "obs/solve_stats.h"
#include "obs/trace.h"
#include "pebble/cost_model.h"
#include "pebble/scheme_verifier.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace pebblejoin {

// Everything one component solve produces, buffered per component so the
// merge can run in component-index order regardless of which worker
// finished first — the determinism contract of Options::threads.
struct ComponentPebbler::ComponentResult {
  std::vector<int> edge_order;  // original edge ids, in solve order
  std::string used;             // solver_used entry
  SolveOutcome outcome;
  SolveStats stats;  // per-component sink, merged deterministically
  // Worker-local trace session (null when the request has no trace); its
  // events merge into the parent session tagged with `worker`.
  std::unique_ptr<TraceSession> trace;
  // Worker-local buffer-only event log (null when the request carries
  // none); merged into the parent log tagged with `worker`.
  std::unique_ptr<EventLog> log;
  int64_t wall_us = 0;
  int worker = -1;  // ThreadPool::CurrentWorkerId(); -1 = calling thread
};

ComponentPebbler::ComponentPebbler(const Pebbler* primary,
                                   const Pebbler* fallback)
    : ComponentPebbler(primary, fallback, Options()) {}

ComponentPebbler::ComponentPebbler(const Pebbler* primary,
                                   const Pebbler* fallback, Options options)
    : primary_(primary), fallback_(fallback), options_(options) {
  JP_CHECK(primary_ != nullptr);
  JP_CHECK_MSG(options_.threads >= 1, "threads must be >= 1");
}

void ComponentPebbler::SolveComponent(const Graph& g,
                                      const ComponentDecomposition& decomp,
                                      int c, BudgetContext* slice,
                                      ComponentResult* result) const {
  std::vector<int> edge_map;
  const Graph sub =
      ExtractComponent(g, decomp, c, /*vertex_map=*/nullptr, &edge_map);

  result->worker = ThreadPool::CurrentWorkerId();
  {
    Probe probe = Probe::Timed("component", "solver", slice->trace());
    probe.AddNum("index", c);
    probe.AddNum("edges", sub.num_edges());

    std::optional<std::vector<int>> order =
        primary_->PebbleWithOutcome(sub, slice, &result->outcome);
    result->used = primary_->name();
    if (!order.has_value()) {
      JP_CHECK_MSG(fallback_ != nullptr,
                   "primary pebbler refused and no fallback configured");
      // The fallback is the termination guarantee, so it runs unbudgeted: a
      // request whose deadline already expired still gets a valid scheme.
      // The fresh context drops the budget but keeps the telemetry sinks.
      BudgetContext fallback_ctx{SolveBudget{}};
      fallback_ctx.set_stats(slice->stats());
      fallback_ctx.set_trace(slice->trace());
      fallback_ctx.set_log(slice->log());
      order = fallback_->PebbleWithOutcome(sub, &fallback_ctx,
                                           &result->outcome);
      result->used = fallback_->name();
    }
    JP_CHECK_MSG(order.has_value(), "fallback pebbler refused a component");
    JP_CHECK(static_cast<int>(order->size()) == sub.num_edges());
    if (!result->outcome.winner.empty()) {
      result->used = result->outcome.winner;  // a ladder reports its rung
    }
    result->edge_order.reserve(order->size());
    for (int local_edge : *order) {
      result->edge_order.push_back(edge_map[local_edge]);
    }
    result->wall_us = probe.Stop().wall_us;
  }

  if (EventLog* log = slice->log()) {
    log->Emit(LogLevel::kDebug, "component.done",
              {LogField::Num("index", c),
               LogField::Num("edges", sub.num_edges()),
               LogField::Str("solver", result->used),
               LogField::Str("status",
                             RungStatusName(result->outcome.status)),
               LogField::Num("cost", result->outcome.effective_cost),
               LogField::Num("wall_us", result->wall_us)});
  }
}

PebbleSolution ComponentPebbler::Solve(const Graph& g,
                                       BudgetContext* budget) const {
  const ComponentDecomposition decomp = FindComponents(g);
  PebbleSolution solution = SolveDecomposed(g, decomp, budget);
  VerifyAndCost(g, &solution);
  return solution;
}

PebbleSolution ComponentPebbler::SolveDecomposed(
    const Graph& g, const ComponentDecomposition& decomp,
    BudgetContext* budget) const {
  PebbleSolution solution;
  const int num_components = decomp.num_components;
  solution.num_components = num_components;

  // A local unlimited context stands in when the caller passed none, so
  // the slice/merge machinery below has exactly one shape.
  BudgetContext local_parent{SolveBudget{}};
  BudgetContext* parent = budget != nullptr ? budget : &local_parent;

  if (num_components > 0) {
    // Carve one budget slice per component on the owning thread, each with
    // its own stats sink (and trace session when the request traces); the
    // slices share stop/node/poll state so cancellation propagates across
    // workers. The same slices drive the sequential path — determinism
    // across thread counts holds by construction, not by accident.
    SharedBudgetState shared;
    std::vector<ComponentResult> results(num_components);
    std::vector<BudgetContext> slices;
    slices.reserve(num_components);
    for (int c = 0; c < num_components; ++c) {
      slices.push_back(parent->MakeWorkerSlice(&shared));
      slices[c].set_stats(&results[c].stats);
      if (parent->trace() != nullptr) {
        TraceSession* parent_trace = parent->trace();
        results[c].trace = std::make_unique<TraceSession>(
            [parent_trace] { return parent_trace->NowUs(); });
        slices[c].set_trace(results[c].trace.get());
      }
      if (EventLog* parent_log = parent->log()) {
        results[c].log = std::make_unique<EventLog>(
            parent_log->capacity(),
            [parent_log] { return parent_log->NowUs(); });
        slices[c].set_log(results[c].log.get());
      }
    }

    // Fan-out policy: a borrowed pool (the engine's long-lived one) is
    // preferred and a private pool is constructed when none was lent. A
    // borrowed pool is only usable from off-pool threads — a worker that
    // waits on a ParallelFor of its own pool deadlocks — so on-pool
    // callers drop it and keep the historical private-pool path.
    ThreadPool* borrowed =
        ThreadPool::CurrentWorkerId() == -1 ? options_.pool : nullptr;
    int threads = std::min(options_.threads, num_components);
    if (borrowed != nullptr) {
      threads = std::min(threads, borrowed->num_threads());
    }
    if (threads > 1) {
      const auto solve_one = [&](int c) {
        SolveComponent(g, decomp, c, &slices[c], &results[c]);
      };
      if (borrowed != nullptr) {
        borrowed->ParallelFor(num_components, solve_one);
      } else {
        ThreadPool pool(threads);
        pool.ParallelFor(num_components, solve_one);
      }
    } else {
      for (int c = 0; c < num_components; ++c) {
        SolveComponent(g, decomp, c, &slices[c], &results[c]);
      }
    }

    // Deterministic merge, in component-index order on the owning thread:
    // edge order, provenance, per-component stats, worker-tagged trace
    // events, and the budget bookkeeping the analyzer reads off the parent.
    for (int c = 0; c < num_components; ++c) {
      ComponentResult& result = results[c];
      for (int e : result.edge_order) solution.edge_order.push_back(e);
      solution.solver_used.push_back(std::move(result.used));
      solution.outcomes.push_back(std::move(result.outcome));
      solution.component_wall_us.push_back(result.wall_us);
      parent->AbsorbSlice(slices[c].polls(), slices[c].stop_reason());
      if (parent->stats() != nullptr) parent->stats()->Add(result.stats);
      if (parent->trace() != nullptr && result.trace != nullptr) {
        parent->trace()->MergeFrom(*result.trace,
                                   TraceArg::Num("worker", result.worker));
      }
      if (parent->log() != nullptr && result.log != nullptr) {
        parent->log()->MergeFrom(*result.log, result.worker);
      }
    }
    parent->AbsorbShared(shared);
  }
  return solution;
}

void ComponentPebbler::VerifyAndCost(const Graph& g,
                                     PebbleSolution* solution) {
  std::string error;
  JP_CHECK_MSG(TryVerifyAndCost(g, solution, &error), error.c_str());
}

bool ComponentPebbler::TryVerifyAndCost(const Graph& g,
                                        PebbleSolution* solution,
                                        std::string* error) {
  solution->scheme = SchemeFromEdgeOrder(g, solution->edge_order);
  const VerificationResult verdict = VerifyScheme(g, solution->scheme);
  if (!verdict.valid) {
    if (error != nullptr) {
      *error = "solver produced an invalid pebbling scheme";
    }
    return false;
  }
  solution->hat_cost = verdict.hat_cost;
  solution->effective_cost = verdict.effective_cost;
  solution->jumps = solution->effective_cost - g.num_edges();
  return true;
}

}  // namespace pebblejoin
