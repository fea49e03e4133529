#include "solver/ladder_planner.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>

#include "obs/json_value.h"
#include "util/check.h"

namespace pebblejoin {

int64_t RungModel::PredictUs(const GraphFeatures& f) const {
  const std::array<double, kNumLogFeatures> x = LogFeatureVector(f);
  double log_us = intercept;
  for (int i = 0; i < kNumLogFeatures; ++i) log_us += weights[i] * x[i];
  // Clamp before exp so a wild extrapolation cannot overflow: e^45 us is
  // already ~1100 years, an unambiguous "never attempt".
  log_us = std::min(log_us, 45.0);
  const double us = std::exp(log_us);
  return us <= 1.0 ? 1 : static_cast<int64_t>(us);
}

const RungModel& CostModel::rung(int index) const {
  switch (index) {
    case kPlanExact:
      return exact;
    case kPlanIls:
      return ils;
    default:
      JP_CHECK(index == kPlanLocalSearch);
      return local_search;
  }
}

CostModel CostModel::BuiltIn() {
  // Fit by tools/calibrate_cost_model.py over the `pebblejoin calibrate`
  // sweep committed as cost_model.json — keep the two in sync (the CI
  // round-trip regenerates and cross-checks). Feature order is
  // LogFeatureVector's: log1p(m), log1p(n), log1p(lg_edges),
  // log1p(max_degree), density, log1p(β₀).
  CostModel model;
  model.version = 1;
  model.exact.intercept = -4.143725;
  model.exact.weights = {2.640867, 0.797383, 1.709716,
                         -1.013097, -1.813879, 0.0};
  model.ils.intercept = -3.458033;
  model.ils.weights = {1.038976, 2.210010, -0.726118,
                       0.420565, 0.978770, 0.0};
  model.local_search.intercept = -1.433508;
  model.local_search.weights = {1.119862, 0.359678, 0.155170,
                                -0.376321, 0.350099, 0.0};
  return model;
}

namespace {

bool ParseRungModel(const JsonValue& value, RungModel* model,
                    std::string* error) {
  if (!value.is_object()) {
    *error = "rung model must be an object";
    return false;
  }
  bool saw_intercept = false;
  bool saw_weights = false;
  RungModel parsed;
  for (const auto& [key, member] : value.object_members()) {
    if (key == "intercept") {
      if (!member.is_number()) {
        *error = "intercept must be a number";
        return false;
      }
      parsed.intercept = member.number_value();
      saw_intercept = true;
    } else if (key == "weights") {
      if (!member.is_array() ||
          static_cast<int>(member.array_items().size()) != kNumLogFeatures) {
        *error = "weights must be an array of " +
                 std::to_string(kNumLogFeatures) + " numbers";
        return false;
      }
      for (int i = 0; i < kNumLogFeatures; ++i) {
        const JsonValue& w = member.array_items()[i];
        if (!w.is_number()) {
          *error = "weights must be an array of numbers";
          return false;
        }
        parsed.weights[i] = w.number_value();
      }
      saw_weights = true;
    }
    // Unknown keys (e.g. the fit diagnostics the calibration tool writes)
    // are ignored: the model file may carry more than the planner reads.
  }
  if (!saw_intercept || !saw_weights) {
    *error = "rung model needs intercept and weights";
    return false;
  }
  *model = parsed;
  return true;
}

}  // namespace

bool ParseCostModelJson(const std::string& text, CostModel* model,
                        std::string* error) {
  std::string parse_error;
  const std::optional<JsonValue> doc = JsonValue::Parse(text, &parse_error);
  if (!doc.has_value()) {
    *error = "cost model: " + parse_error;
    return false;
  }
  if (!doc->is_object()) {
    *error = "cost model: top level must be an object";
    return false;
  }
  CostModel parsed;
  bool saw_version = false;
  bool saw_exact = false;
  bool saw_ils = false;
  bool saw_local_search = false;
  for (const auto& [key, member] : doc->object_members()) {
    if (key == "version") {
      const std::optional<int64_t> version = member.int64_value();
      if (!version.has_value() || *version < 1) {
        *error = "cost model: version must be a positive integer";
        return false;
      }
      parsed.version = *version;
      saw_version = true;
    } else if (key == "rungs") {
      if (!member.is_object()) {
        *error = "cost model: rungs must be an object";
        return false;
      }
      for (const auto& [rung_name, rung_value] : member.object_members()) {
        std::string rung_error;
        RungModel* target = nullptr;
        bool* seen = nullptr;
        if (rung_name == "exact") {
          target = &parsed.exact;
          seen = &saw_exact;
        } else if (rung_name == "ils") {
          target = &parsed.ils;
          seen = &saw_ils;
        } else if (rung_name == "local-search") {
          target = &parsed.local_search;
          seen = &saw_local_search;
        } else {
          *error = "cost model: unknown rung \"" + rung_name + "\"";
          return false;
        }
        if (!ParseRungModel(rung_value, target, &rung_error)) {
          *error = "cost model: rung \"" + rung_name + "\": " + rung_error;
          return false;
        }
        *seen = true;
      }
    }
    // Unknown top-level keys ("features", fit diagnostics) are ignored.
  }
  if (!saw_version) {
    *error = "cost model: missing version";
    return false;
  }
  if (!saw_exact || !saw_ils || !saw_local_search) {
    *error = "cost model: rungs must name exact, ils and local-search";
    return false;
  }
  *model = parsed;
  return true;
}

bool LoadCostModelFile(const std::string& path, CostModel* model,
                       std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open cost model file: " + path;
    return false;
  }
  std::ostringstream text;
  text << in.rdbuf();
  return ParseCostModelJson(text.str(), model, error);
}

LadderPlan LadderPlanner::Plan(const GraphFeatures& features,
                               int64_t remaining_deadline_ms) const {
  LadderPlan plan;
  plan.active = true;
  for (int r = 0; r < kNumPlannedRungs; ++r) {
    plan.predicted_us[r] = model_.rung(r).PredictUs(features);
  }

  const bool unlimited = remaining_deadline_ms < 0;
  if (!unlimited && remaining_deadline_ms < kMinRungDeadlineMs) {
    // Nothing useful can run: go straight to the dfs-tree terminator,
    // which never takes the deadline (Theorem 3.1 is polynomial). The
    // blind ladder would burn three prompt-expiry round trips here.
    plan.start_rung = kNumPlannedRungs;
    for (int r = 0; r < kNumPlannedRungs; ++r) {
      plan.budget_saved_ms +=
          std::min(plan.predicted_us[r] / 1000, remaining_deadline_ms);
    }
    return plan;
  }

  // Attempt exact only while its predicted burn fits the share of the
  // deadline we are willing to gamble on a proof of optimality.
  const int64_t exact_predicted_us = plan.predicted_us[kPlanExact];
  bool attempt_exact;
  if (unlimited) {
    attempt_exact = exact_predicted_us <= kExactUnlimitedCapUs;
  } else {
    attempt_exact =
        static_cast<double>(exact_predicted_us) <=
        kExactDeadlineShare *
            static_cast<double>(remaining_deadline_ms) * 1000.0;
  }
  if (attempt_exact) {
    plan.start_rung = kPlanExact;
    if (!unlimited) {
      // Cap the gamble at twice the prediction: a mispredicted grinder is
      // cut early and the anytime rungs inherit the rest of the deadline.
      plan.exact_cap_ms =
          std::max(kExactMinCapMs, 2 * exact_predicted_us / 1000);
      if (plan.exact_cap_ms < remaining_deadline_ms) {
        plan.budget_saved_ms = std::max<int64_t>(
            0, std::min(exact_predicted_us / 1000,
                        remaining_deadline_ms - plan.exact_cap_ms));
      }
    }
  } else {
    // Skip straight to the strongest anytime rung. What the blind ladder
    // would have burned on exact is the saving — clamped to the deadline,
    // which is all the blind ladder could have lost.
    plan.start_rung = kPlanIls;
    plan.budget_saved_ms =
        unlimited ? exact_predicted_us / 1000
                  : std::min(exact_predicted_us / 1000, remaining_deadline_ms);
  }
  return plan;
}

const char* PlannedRungName(int start_rung) {
  switch (start_rung) {
    case kPlanExact:
      return "exact";
    case kPlanIls:
      return "ils";
    case kPlanLocalSearch:
      return "local-search";
    default:
      return "dfs-tree";
  }
}

}  // namespace pebblejoin
