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
namespace {

// Tasks per pool worker the fan-out aims for: enough that a worker that
// drew heavy components is not left waiting on the others, few enough
// that per-task queueing stays small next to the solves.
constexpr int kFanoutTasksPerWorker = 4;

}  // namespace

// Everything one component solve produces, buffered per component so the
// merge can run in component-index order regardless of which worker
// finished first — the determinism contract of Options::threads.
struct ComponentPebbler::ComponentResult {
  std::vector<int> edge_order;  // original edge ids, in solve order
  SolveOutcome outcome;
  SolveStats stats;  // per-component sink, merged deterministically
  // Worker-local trace session on the parent's timeline (null when the
  // request has no trace); its events merge into the parent session
  // tagged with `worker`.
  std::unique_ptr<TraceSession> trace;
  // Worker-local buffer-only event log on the parent's timeline (null
  // when the request carries none); merged into the parent log tagged
  // with `worker`.
  std::unique_ptr<EventLog> log;
  int64_t wall_us = 0;
  int worker = -1;  // ThreadPool::CurrentWorkerId(); -1 = calling thread
};

std::string PebbleSolution::Winners() const {
  std::string winners;
  std::vector<const std::string*> seen;
  for (const SolveOutcome& outcome : outcomes) {
    const std::string& name = outcome.winner;
    if (std::any_of(seen.begin(), seen.end(),
                    [&name](const std::string* s) { return *s == name; })) {
      continue;
    }
    seen.push_back(&name);
    if (!winners.empty()) winners += ",";
    winners += name;
  }
  return winners;
}

const SolveOutcome* PebbleSolution::FirstDegraded() const {
  for (const SolveOutcome& outcome : outcomes) {
    if (outcome.degraded()) return &outcome;
  }
  return nullptr;
}

std::vector<int> CutFanoutTasks(const ComponentDecomposition& decomp,
                                int workers) {
  JP_CHECK(workers >= 1);
  int64_t total_edges = 0;
  for (const std::vector<int>& edges : decomp.edges_of) {
    total_edges += static_cast<int64_t>(edges.size());
  }
  const int64_t tasks = int64_t{kFanoutTasksPerWorker} * workers;
  const int64_t task_edges =
      std::max<int64_t>(1, (total_edges + tasks - 1) / tasks);

  std::vector<int> bounds = {0};
  int64_t open_edges = 0;  // edges in the task not yet closed
  for (int c = 0; c < decomp.num_components; ++c) {
    const int64_t edges = static_cast<int64_t>(decomp.edges_of[c].size());
    if (edges >= task_edges && open_edges > 0) {
      bounds.push_back(c);  // a heavy component does not join a task
      open_edges = 0;
    }
    open_edges += edges;
    if (open_edges >= task_edges) {
      bounds.push_back(c + 1);
      open_edges = 0;
    }
  }
  if (bounds.back() != decomp.num_components) {
    bounds.push_back(decomp.num_components);
  }
  return bounds;
}

ComponentPebbler::ComponentPebbler(const Pebbler* primary,
                                   const Pebbler* fallback)
    : ComponentPebbler(primary, fallback, Options()) {}

ComponentPebbler::ComponentPebbler(const Pebbler* primary,
                                   const Pebbler* fallback, Options options)
    : primary_(primary), fallback_(fallback), options_(options) {
  JP_CHECK(primary_ != nullptr);
  JP_CHECK_MSG(options_.threads >= 1, "threads must be >= 1");
  JP_CHECK_MSG(options_.threads == 1 || options_.pool != nullptr,
               "threads > 1 needs a borrowed pool");
}

void ComponentPebbler::SolveComponent(const Graph& g,
                                      const ComponentDecomposition& decomp,
                                      int c, const BudgetContext& parent,
                                      ComponentResult* result) const {
  // This component's slice of the request budget, with its own stats sink
  // (and trace session and log when the request carries them). The same
  // slices drive the sequential path — determinism across thread counts
  // holds by construction, not by accident.
  BudgetContext slice = parent.WorkerSlice();
  slice.set_stats(&result->stats);
  if (TraceSession* parent_trace = parent.trace()) {
    result->trace =
        std::make_unique<TraceSession>(parent_trace->WorkerSession());
    slice.set_trace(result->trace.get());
  }
  if (EventLog* parent_log = parent.log()) {
    result->log = std::make_unique<EventLog>(parent_log->WorkerLog());
    slice.set_log(result->log.get());
  }

  const Graph sub = ExtractComponent(g, decomp, c);

  result->worker = ThreadPool::CurrentWorkerId();
  {
    Probe probe = Probe::Timed("component", "solver", slice.trace());
    probe.AddNum("index", c);
    probe.AddNum("edges", sub.num_edges());

    std::optional<std::vector<int>> order =
        primary_->PebbleWithOutcome(sub, slice, &result->outcome);
    if (!order.has_value()) {
      JP_CHECK_MSG(fallback_ != nullptr,
                   "primary pebbler refused and no fallback configured");
      // The fallback is the termination guarantee, so it runs unbudgeted: a
      // request whose deadline already expired still gets a valid scheme.
      BudgetContext fallback_ctx = slice.Child(SolveBudget{});
      order = fallback_->PebbleWithOutcome(sub, fallback_ctx,
                                           &result->outcome);
    }
    JP_CHECK_MSG(order.has_value(), "fallback pebbler refused a component");
    JP_CHECK(static_cast<int>(order->size()) == sub.num_edges());
    result->edge_order.reserve(order->size());
    for (int local_edge : *order) {
      result->edge_order.push_back(decomp.edges_of[c][local_edge]);
    }
    result->wall_us = probe.Stop().wall_us;
  }

  if (EventLog* log = slice.log()) {
    log->Emit(LogLevel::kDebug, "component.done",
              {LogField::Num("index", c),
               LogField::Num("edges", sub.num_edges()),
               LogField::Str("solver", result->outcome.winner),
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
    std::vector<ComponentResult> results(num_components);
    // Fan-out policy: components fan out over the borrowed pool only. A
    // caller that is itself a pool worker solves sequentially — a worker
    // that waits on a ParallelFor of its own pool deadlocks. One pool task
    // per range of components, not per component: a light component's
    // solve costs about as much as queueing a task for it.
    const bool fan_out = options_.threads > 1 && num_components > 1 &&
                         options_.pool->num_threads() > 1 &&
                         ThreadPool::CurrentWorkerId() == -1;
    if (fan_out) {
      const std::vector<int> bounds =
          CutFanoutTasks(decomp, options_.pool->num_threads());
      options_.pool->ParallelFor(
          static_cast<int>(bounds.size()) - 1, [&](int task) {
            for (int c = bounds[task]; c < bounds[task + 1]; ++c) {
              SolveComponent(g, decomp, c, *parent, &results[c]);
            }
          });
    } else {
      for (int c = 0; c < num_components; ++c) {
        SolveComponent(g, decomp, c, *parent, &results[c]);
      }
    }

    // Deterministic merge, in component-index order on the owning thread:
    // edge order, provenance, per-component stats and worker-tagged trace
    // and log events. The budget needs no merge — every slice accounted on
    // the parent's ledger as it ran.
    for (int c = 0; c < num_components; ++c) {
      ComponentResult& result = results[c];
      for (int e : result.edge_order) solution.edge_order.push_back(e);
      solution.outcomes.push_back(std::move(result.outcome));
      solution.component_wall_us.push_back(result.wall_us);
      if (parent->stats() != nullptr) parent->stats()->Add(result.stats);
      if (parent->trace() != nullptr && result.trace != nullptr) {
        parent->trace()->MergeFrom(*result.trace,
                                   TraceArg::Num("worker", result.worker));
      }
      if (parent->log() != nullptr && result.log != nullptr) {
        parent->log()->MergeFrom(*result.log, result.worker);
      }
    }
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
