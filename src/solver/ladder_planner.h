// Feature-driven dispatch for the FallbackPebbler degradation ladder.
//
// The blind ladder starts every request at the exact rung and burns budget
// discovering that the NP-complete solver (Theorem 4.2) will not finish —
// exactly the waste a calibrated cost model removes. A LadderPlanner maps
// the instance's GraphFeatures (graph/features.h) plus the remaining
// SolveBudget to a LadderPlan: which budgeted rung to start at, and a
// wall-clock allocation for the exact rung when it is worth attempting at
// all. The model is small and interpretable on purpose — one linear
// predictor per budgeted rung over the fixed log-feature vector,
// predicting log(microseconds burned by attempting that rung):
//
//   predicted_us(rung) = exp(intercept + Σ weight_i · logfeature_i)
//
// Coefficients come from a calibration sweep (`pebblejoin calibrate` +
// tools/calibrate_cost_model.py); a compiled-in default ships from a
// committed run (cost_model.json at the repo root). Note the target is
// time *burned by attempting*, not time-to-solve: an oversized instance
// that the exact rung declines in microseconds
// (ExactPebbler::Options::max_edges) is correctly labeled cheap —
// attempting it costs nothing, exactly like the blind ladder.
//
// Policy (deliberately conservative so the planner can only save budget,
// never lose quality):
//   - exact is attempted iff its predicted burn fits half the remaining
//     deadline (or a fixed cap when unlimited); when attempted under a
//     deadline it runs on a child context capped at twice its prediction,
//     so a mispredicted instance cannot starve the anytime rungs;
//   - ils / local-search are anytime and strictly ordered by strength, so
//     they are never reordered and never individually capped — they only
//     move up when exact is skipped;
//   - a drained deadline (< 1 ms left) skips straight to the dfs-tree
//     terminator, which never takes the deadline anyway (Theorem 3.1).
//
// The default plan (no planner configured) is inert: FallbackPebbler
// iterates exactly the historical sequence, byte-identically — pinned by
// fallback_test and solve_golden_test.

#ifndef PEBBLEJOIN_SOLVER_LADDER_PLANNER_H_
#define PEBBLEJOIN_SOLVER_LADDER_PLANNER_H_

#include <array>
#include <cstdint>
#include <string>

#include "graph/features.h"
#include "util/budget.h"

namespace pebblejoin {

// Indexes of the budgeted rungs a plan speaks about, in ladder order.
inline constexpr int kPlanExact = 0;
inline constexpr int kPlanIls = 1;
inline constexpr int kPlanLocalSearch = 2;
inline constexpr int kNumPlannedRungs = 3;  // exact, ils, local-search
// start_rung == kNumPlannedRungs means "skip every budgeted rung": the
// ladder drops straight to the dfs-tree terminator.

// One linear predictor: log(burned microseconds) over the log features.
struct RungModel {
  double intercept = 0.0;
  std::array<double, kNumLogFeatures> weights{};

  // exp(intercept + weights · LogFeatureVector(f)), clamped to >= 1.
  int64_t PredictUs(const GraphFeatures& f) const;
};

// The versioned coefficient set — the on-disk cost_model.json and the
// compiled-in default share this shape.
struct CostModel {
  int64_t version = 0;
  RungModel exact;
  RungModel ils;
  RungModel local_search;

  const RungModel& rung(int index) const;

  // The committed calibration run (see cost_model.json; regenerate with
  // `pebblejoin calibrate | tools/calibrate_cost_model.py`).
  static CostModel BuiltIn();
};

// Parses a cost_model.json document (see tools/calibrate_cost_model.py for
// the writer). Returns false with a one-line *error on malformed input;
// *model is untouched on failure.
bool ParseCostModelJson(const std::string& text, CostModel* model,
                        std::string* error);

// Reads and parses a cost-model file. Returns false with a one-line
// *error when the file cannot be read or does not parse.
bool LoadCostModelFile(const std::string& path, CostModel* model,
                       std::string* error);

// What the planner decided for one ladder descent.
struct LadderPlan {
  // False = the inert default: FallbackPebbler runs the historical blind
  // sequence and emits no plan provenance.
  bool active = false;
  // First budgeted rung to attempt, 0..kNumPlannedRungs (== skip to the
  // dfs-tree terminator).
  int start_rung = 0;
  // Wall-clock cap for the exact rung, milliseconds; -1 = uncapped
  // (inherit the request budget, the blind behavior).
  int64_t exact_cap_ms = -1;
  // Model predictions per budgeted rung, microseconds (provenance).
  std::array<int64_t, kNumPlannedRungs> predicted_us{};
  // Estimated budget the skip/cap decisions save versus the blind ladder,
  // milliseconds: what the model predicts the skipped rungs would have
  // burned, clamped to the remaining deadline.
  int64_t budget_saved_ms = 0;
};

class LadderPlanner {
 public:
  // Exact is attempted only while its predicted burn fits this fraction
  // of the remaining deadline.
  static constexpr double kExactDeadlineShare = 0.5;
  // With no deadline at all, exact is still skipped beyond this predicted
  // burn (it declines oversized instances on its own; this guards the
  // mid-size region where branch and bound grinds).
  static constexpr int64_t kExactUnlimitedCapUs = 10'000'000;
  // When exact is attempted under a deadline, its child-context cap is
  // max(this floor, 2 × prediction).
  static constexpr int64_t kExactMinCapMs = 1;
  // Deadlines below this skip every budgeted rung.
  static constexpr int64_t kMinRungDeadlineMs = 1;

  LadderPlanner() : LadderPlanner(CostModel::BuiltIn()) {}
  explicit LadderPlanner(CostModel model) : model_(model) {}

  // Plans one ladder descent given the instance features and the budget
  // still remaining (remaining_deadline_ms < 0 = unlimited). Pure; safe to
  // call concurrently.
  LadderPlan Plan(const GraphFeatures& features,
                  int64_t remaining_deadline_ms) const;

  const CostModel& model() const { return model_; }

 private:
  CostModel model_;
};

// The budgeted-rung names in plan indexing order ("exact", "ils",
// "local-search"), plus "dfs-tree" for start_rung == kNumPlannedRungs.
const char* PlannedRungName(int start_rung);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_SOLVER_LADDER_PLANNER_H_
