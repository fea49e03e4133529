#include "solver/component_pebbler.h"

#include <algorithm>
#include <iterator>
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

// Moves `from`'s elements onto the end of `to`; the first task's vector
// is taken whole, so a sequential solve copies nothing.
template <typename T>
void AppendMoved(std::vector<T>* to, std::vector<T>* from) {
  if (to->empty()) {
    *to = std::move(*from);
    return;
  }
  to->insert(to->end(), std::make_move_iterator(from->begin()),
             std::make_move_iterator(from->end()));
}

}  // namespace

// Everything one fan-out task produces for its components, buffered per
// task so the merge can run in task order — which is component order —
// regardless of which worker finished first: the determinism contract of
// Options::threads. Each component still solves on a worker slice of its
// own; only the sinks it records into are the task's.
struct ComponentPebbler::TaskResult {
  std::vector<int> edge_order;             // original edge ids, in order
  std::vector<SolveOutcome> outcomes;      // one per component
  std::vector<int64_t> component_wall_us;  // one per component
  SolveStats stats;  // the task's sink, merged deterministically
  // Worker-local trace session on the parent's timeline (null when the
  // request has no trace); its events merge into the parent session
  // tagged with `worker`.
  std::unique_ptr<TraceSession> trace;
  // Gather log of the components' buffer-only event logs, on the parent's
  // timeline (null when the request carries none); merged into the parent
  // log tagged with `worker`.
  std::unique_ptr<EventLog> log;
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
  const int64_t total_edges = decomp.edge_offsets[decomp.num_components];
  const int64_t tasks = int64_t{kFanoutTasksPerWorker} * workers;
  const int64_t task_edges =
      std::max<int64_t>(1, (total_edges + tasks - 1) / tasks);

  std::vector<int> bounds = {0};
  int64_t open_edges = 0;  // edges in the task not yet closed
  for (int c = 0; c < decomp.num_components; ++c) {
    const int64_t edges =
        decomp.edge_offsets[c + 1] - decomp.edge_offsets[c];
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

void ComponentPebbler::SolveTask(const Graph& g,
                                 const ComponentDecomposition& decomp,
                                 int first, int last,
                                 const BudgetContext& parent,
                                 TaskResult* result) const {
  result->worker = ThreadPool::CurrentWorkerId();
  if (TraceSession* parent_trace = parent.trace()) {
    result->trace =
        std::make_unique<TraceSession>(parent_trace->WorkerSession());
  }
  if (EventLog* parent_log = parent.log()) {
    result->log = std::make_unique<EventLog>(parent_log->GatherLog());
  }
  result->edge_order.reserve(static_cast<size_t>(
      decomp.edge_offsets[last] - decomp.edge_offsets[first]));
  result->outcomes.reserve(static_cast<size_t>(last - first));
  result->component_wall_us.reserve(static_cast<size_t>(last - first));
  for (int c = first; c < last; ++c) {
    SolveComponent(g, decomp, c, parent, result);
  }
}

void ComponentPebbler::SolveComponent(const Graph& g,
                                      const ComponentDecomposition& decomp,
                                      int c, const BudgetContext& parent,
                                      TaskResult* result) const {
  // This component's slice of the request budget, recording into the
  // task's stats sink and trace session, and into an event log of its own
  // when the request carries one (so its ring bound is the component's).
  // The same slices drive the sequential path — determinism across thread
  // counts holds by construction, not by accident.
  BudgetContext slice = parent.WorkerSlice();
  slice.set_stats(&result->stats);
  slice.set_trace(result->trace.get());
  std::optional<EventLog> log;
  if (result->log != nullptr) {
    log.emplace(parent.log()->WorkerLog());
    slice.set_log(&*log);
  }

  ComponentRef component(g, decomp, c);
  const int edges = static_cast<int>(component.edges().size());
  SolveOutcome& outcome = result->outcomes.emplace_back();
  const size_t start = result->edge_order.size();
  int64_t wall_us = 0;
  {
    Probe probe = Probe::Timed("component", "solver", slice.trace());
    probe.AddNum("index", c);
    probe.AddNum("edges", edges);

    bool solved = primary_->PebbleComponent(component, slice, &outcome,
                                            &result->edge_order);
    if (!solved) {
      JP_CHECK_MSG(fallback_ != nullptr,
                   "primary pebbler refused and no fallback configured");
      // The fallback is the termination guarantee, so it runs unbudgeted: a
      // request whose deadline already expired still gets a valid scheme.
      BudgetContext fallback_ctx = slice.Child(SolveBudget{});
      solved = fallback_->PebbleComponent(component, fallback_ctx, &outcome,
                                          &result->edge_order);
      outcome.SettleDegradation();
    }
    JP_CHECK_MSG(solved, "fallback pebbler refused a component");
    JP_CHECK(result->edge_order.size() - start == static_cast<size_t>(edges));
    wall_us = probe.Stop().wall_us;
  }
  result->component_wall_us.push_back(wall_us);

  if (log.has_value()) {
    log->Emit(LogLevel::kDebug, "component.done",
              {LogField::Num("index", c), LogField::Num("edges", edges),
               LogField::Str("solver", outcome.winner),
               LogField::Str("status", RungStatusName(outcome.status)),
               LogField::Num("cost", outcome.effective_cost),
               LogField::Num("wall_us", wall_us)});
    result->log->MergeFrom(*log, result->worker);
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
    // Fan-out policy: components fan out over the borrowed pool only. A
    // caller that is itself a pool worker solves sequentially — a worker
    // that waits on a ParallelFor of its own pool deadlocks. One pool task
    // per range of components, not per component: a light component's
    // solve costs about as much as queueing a task for it. The sequential
    // path is one task over every component.
    const bool fan_out = options_.threads > 1 && num_components > 1 &&
                         options_.pool->num_threads() > 1 &&
                         ThreadPool::CurrentWorkerId() == -1;
    const std::vector<int> bounds =
        fan_out ? CutFanoutTasks(decomp, options_.pool->num_threads())
                : std::vector<int>{0, num_components};
    const int num_tasks = static_cast<int>(bounds.size()) - 1;
    std::vector<TaskResult> results(static_cast<size_t>(num_tasks));
    const auto solve_task = [&](int task) {
      SolveTask(g, decomp, bounds[task], bounds[task + 1], *parent,
                &results[task]);
    };
    if (fan_out) {
      options_.pool->ParallelFor(num_tasks, solve_task);
    } else {
      solve_task(0);
    }

    // Deterministic merge, in task order on the owning thread: edge order,
    // provenance, stats and worker-tagged trace and log events. The budget
    // needs no merge — every slice accounted on the parent's ledger as it
    // ran.
    for (TaskResult& result : results) {
      AppendMoved(&solution.edge_order, &result.edge_order);
      AppendMoved(&solution.outcomes, &result.outcomes);
      AppendMoved(&solution.component_wall_us, &result.component_wall_us);
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
