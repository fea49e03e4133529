#include "obs/solve_stats.h"

#include <algorithm>
#include <cstdio>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"
#include "util/budget.h"

namespace pebblejoin {

namespace {

// Single source of the plain counter list so Add, WriteJson, FormatHuman
// and PublishTo cannot drift apart. `F(name)` expands once per monotonic
// counter; the per-stage wall clocks follow these in every rendering.
#define PEBBLEJOIN_SOLVE_STATS_COUNTERS(F) \
  F(bnb_nodes_expanded)                    \
  F(bnb_prunes_component)                  \
  F(bnb_prunes_deficiency)                 \
  F(bnb_incumbent_updates)                 \
  F(hk_solves)                             \
  F(hk_subsets_materialized)               \
  F(hk_table_bytes)                        \
  F(ls_passes)                             \
  F(ls_moves_accepted)                     \
  F(ils_iterations)                        \
  F(ils_kicks_accepted)                    \
  F(rungs_attempted)                       \
  F(rungs_declined)                        \
  F(planner_plans)                         \
  F(planner_predicted_rung)                \
  F(planner_actual_rung)                   \
  F(planner_rungs_skipped)                 \
  F(planner_budget_saved_ms)               \
  F(budget_polls)                          \
  F(solve_wall_us)

// Every rendered integer field in output order: the counters (the plain
// list, then the stage wall clocks), then the kNumPerfFields
// hardware-counter fields (the totals, three per stage, two per hot loop).
// Each carries its JSON / human key and its registry name: "solve.<key>"
// for counters, "perf.<name>" (→ pebblejoin_perf_*_total) for perf fields.
struct FieldName {
  std::string key;
  std::string metric;
};
constexpr size_t kNumPerfFields = 5 + 3 * kNumPipelineStages + 2 * 3;

const std::vector<FieldName>& FieldNames() {
  static const std::vector<FieldName> names = [] {
    std::vector<FieldName> out;
    const auto add = [&out](const std::string& key, const char* prefix) {
      out.push_back({key, prefix + key});
    };
#define PEBBLEJOIN_COUNTER_NAME(name) add(#name, "solve.");
    PEBBLEJOIN_SOLVE_STATS_COUNTERS(PEBBLEJOIN_COUNTER_NAME)
#undef PEBBLEJOIN_COUNTER_NAME
    for (const char* stage : kPipelineStageNames) {
      add(std::string("stage_") + stage + "_us", "solve.");
    }
    for (const char* total : {"cycles", "instructions", "cache_references",
                              "cache_misses", "branch_misses"}) {
      out.push_back({std::string("perf_") + total,
                     std::string("perf.") + total});
    }
    for (const char* stage : kPipelineStageNames) {
      for (const char* count : {"_cycles", "_insns", "_cache_misses"}) {
        add(std::string("stage_") + stage + count, "perf.");
      }
    }
    for (const char* loop : {"bnb", "hk", "ls"}) {
      add(std::string(loop) + "_cycles", "perf.");
      add(std::string(loop) + "_cache_misses", "perf.");
    }
    return out;
  }();
  return names;
}

// The values of FieldNames(), in the same order.
std::vector<int64_t> FieldValues(const SolveStats& s) {
  std::vector<int64_t> out;
  out.reserve(FieldNames().size());
#define PEBBLEJOIN_COUNTER_VALUE(name) out.push_back(s.name);
  PEBBLEJOIN_SOLVE_STATS_COUNTERS(PEBBLEJOIN_COUNTER_VALUE)
#undef PEBBLEJOIN_COUNTER_VALUE
  for (const ProbeSample& stage : s.stages) out.push_back(stage.wall_us);
  const PerfCounts total = s.perf_total();
  out.insert(out.end(), {total.cycles, total.instructions,
                         total.cache_references, total.cache_misses,
                         total.branch_misses});
  for (const ProbeSample& stage : s.stages) {
    out.insert(out.end(), {stage.perf.cycles, stage.perf.instructions,
                           stage.perf.cache_misses});
  }
  for (const PerfCounts* loop : {&s.bnb_perf, &s.hk_perf, &s.ls_perf}) {
    out.insert(out.end(), {loop->cycles, loop->cache_misses});
  }
  return out;
}

}  // namespace

PerfCounts SolveStats::perf_total() const {
  PerfCounts total;
  for (const ProbeSample& stage : stages) total += stage.perf;
  return total;
}

void SolveStats::Add(const SolveStats& other) {
#define PEBBLEJOIN_ADD_FIELD(name) name += other.name;
  PEBBLEJOIN_SOLVE_STATS_COUNTERS(PEBBLEJOIN_ADD_FIELD)
#undef PEBBLEJOIN_ADD_FIELD
  for (int i = 0; i < kNumPipelineStages; ++i) stages[i] += other.stages[i];
  bnb_perf += other.bnb_perf;
  hk_perf += other.hk_perf;
  ls_perf += other.ls_perf;
  budget_time_to_stop_ms =
      std::max(budget_time_to_stop_ms, other.budget_time_to_stop_ms);
  // Perf availability: "off" loses to any real status; two real statuses
  // keep ours (merges happen slice-into-request, so the request's wins).
  if (perf == "off") perf = other.perf;
}

void SolveStats::WriteJson(JsonWriter* json) const {
  json->BeginObject();
  const std::vector<int64_t> values = FieldValues(*this);
  for (size_t i = 0; i < values.size(); ++i) {
    json->Field(FieldNames()[i].key, values[i]);
  }
  json->Field("budget_time_to_stop_ms", budget_time_to_stop_ms);
  json->Field("perf", perf);
  json->EndObject();
}

std::string SolveStats::FormatHuman(const std::string& indent) const {
  std::string out;
  char line[128];
  const auto append = [&](int width, const char* key, int64_t value) {
    std::snprintf(line, sizeof(line), "%s%-*s: %lld\n", indent.c_str(), width,
                  key, static_cast<long long>(value));
    out += line;
  };
  const std::vector<int64_t> values = FieldValues(*this);
  const size_t num_counters = values.size() - kNumPerfFields;
  for (size_t i = 0; i < num_counters; ++i) {
    append(24, FieldNames()[i].key.c_str(), values[i]);
  }
  append(24, "budget_time_to_stop_ms", budget_time_to_stop_ms);
  // Hardware counters only earn their lines when they actually ran; a
  // perf-off dump stays exactly as wide as it was before counters existed.
  // The availability status always prints.
  if (perf != "off") {
    for (size_t i = num_counters; i < values.size(); ++i) {
      append(28, FieldNames()[i].key.c_str(), values[i]);
    }
  }
  std::snprintf(line, sizeof(line), "%s%-24s: %s\n", indent.c_str(), "perf",
                perf.c_str());
  out += line;
  return out;
}

void SolveStats::PublishTo(MetricsRegistry* registry) const {
  if (registry == nullptr || !registry->enabled()) return;
  const std::vector<int64_t> values = FieldValues(*this);
  // Perf families appear in the exposition only once a perf-enabled
  // request has run, so perf-off processes keep their exact /metrics shape.
  const size_t published =
      perf != "off" ? values.size() : values.size() - kNumPerfFields;
  for (size_t i = 0; i < published; ++i) {
    registry->FindOrCreateCounter(FieldNames()[i].metric).Add(values[i]);
  }
  registry->FindOrCreateHistogram("solve.wall_us").RecordMicros(solve_wall_us);
}

Probe HotLoopCounters(const BudgetContext* budget,
                      PerfCounts SolveStats::*field) {
  PerfCounterGroup* group = budget != nullptr ? budget->perf_group() : nullptr;
  return Probe::Counters(
      group, group != nullptr ? &(budget->stats()->*field) : nullptr);
}

}  // namespace pebblejoin
