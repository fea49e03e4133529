#include "solver/ladder_planner.h"

#include <cmath>
#include <string>

#include "graph/features.h"
#include "graph/generators.h"
#include "gtest/gtest.h"
#include "pebble/cost_model.h"
#include "solver/fallback_pebbler.h"
#include "solver/solve_outcome.h"
#include "util/budget.h"

namespace pebblejoin {
namespace {

GraphFeatures FeaturesOf(const BipartiteGraph& g) {
  return ExtractGraphFeatures(g.ToGraph());
}

// A model whose predictions this test controls exactly: only the
// intercept is set, so predicted_us = exp(intercept) regardless of the
// instance.
CostModel FlatModel(double exact_us, double ils_us, double ls_us) {
  CostModel model;
  model.version = 1;
  model.exact.intercept = std::log(exact_us);
  model.ils.intercept = std::log(ils_us);
  model.local_search.intercept = std::log(ls_us);
  return model;
}

TEST(RungModelTest, PredictsClampedExponential) {
  RungModel rung;
  rung.intercept = std::log(500.0);
  // exp(log(500)) may land one ulp under 500 before truncation.
  EXPECT_NEAR(rung.PredictUs(GraphFeatures{}), 500, 1);
  rung.intercept = -10.0;  // exp() < 1 clamps to the 1us floor
  EXPECT_EQ(rung.PredictUs(GraphFeatures{}), 1);
}

TEST(LadderPlannerTest, DrainedDeadlineSkipsToTerminator) {
  const LadderPlanner planner(FlatModel(100.0, 100.0, 100.0));
  const LadderPlan plan = planner.Plan(FeaturesOf(WorstCaseFamily(5)), 0);
  EXPECT_TRUE(plan.active);
  EXPECT_EQ(plan.start_rung, kNumPlannedRungs);  // dfs-tree
}

TEST(LadderPlannerTest, CheapExactIsAttemptedWithCap) {
  // Predicted 2ms against a 100ms deadline: well inside the half share.
  const LadderPlanner planner(FlatModel(2000.0, 100.0, 50.0));
  const LadderPlan plan = planner.Plan(FeaturesOf(WorstCaseFamily(5)), 100);
  EXPECT_TRUE(plan.active);
  EXPECT_EQ(plan.start_rung, kPlanExact);
  // Cap is max(1ms floor, 2 x ~2ms prediction) — and far below the
  // 100ms the blind ladder would have let the exact rung burn.
  EXPECT_GE(plan.exact_cap_ms, 3);
  EXPECT_LE(plan.exact_cap_ms, 4);
  EXPECT_NEAR(plan.predicted_us[kPlanExact], 2000, 1);
}

TEST(LadderPlannerTest, ExpensiveExactIsSkipped) {
  // Predicted 80ms against a 100ms deadline: over the half share, so the
  // descent starts at ils and records the predicted saving.
  const LadderPlanner planner(FlatModel(80'000.0, 100.0, 50.0));
  const LadderPlan plan = planner.Plan(FeaturesOf(WorstCaseFamily(5)), 100);
  EXPECT_TRUE(plan.active);
  EXPECT_EQ(plan.start_rung, kPlanIls);
  EXPECT_EQ(plan.exact_cap_ms, -1);
  EXPECT_GT(plan.budget_saved_ms, 0);
}

TEST(LadderPlannerTest, UnlimitedDeadlineUsesFixedExactCap) {
  const GraphFeatures f = FeaturesOf(WorstCaseFamily(5));
  // 1s predicted: under the 10s unlimited cap, attempt.
  EXPECT_EQ(LadderPlanner(FlatModel(1e6, 10.0, 10.0)).Plan(f, -1).start_rung,
            kPlanExact);
  // 100s predicted: over it, skip to ils even with no deadline.
  EXPECT_EQ(LadderPlanner(FlatModel(1e8, 10.0, 10.0)).Plan(f, -1).start_rung,
            kPlanIls);
}

TEST(LadderPlannerTest, BuiltInModelSkipsGrindBandUnderTightDeadline) {
  // The committed calibration: the Held-Karp band (worstcase n=8, m=16,
  // measured ~13ms) must be predicted too big for a 5ms deadline but
  // attempted under a generous one — this is the dispatch the whole
  // feature exists for.
  const LadderPlanner planner;  // CostModel::BuiltIn()
  const GraphFeatures f = FeaturesOf(WorstCaseFamily(8));
  EXPECT_GT(planner.Plan(f, 5).start_rung, kPlanExact);
  EXPECT_EQ(planner.Plan(f, 1000).start_rung, kPlanExact);
  // Extrapolation direction: predicted exact burn must grow with the
  // family size, not average the fast branch-and-bound band into "cheap".
  const int64_t small = planner.model().exact.PredictUs(f);
  const int64_t big =
      planner.model().exact.PredictUs(FeaturesOf(WorstCaseFamily(30)));
  EXPECT_GT(big, small);
}

TEST(PlannedRungNameTest, NamesEveryStartRung) {
  EXPECT_STREQ(PlannedRungName(kPlanExact), "exact");
  EXPECT_STREQ(PlannedRungName(kPlanIls), "ils");
  EXPECT_STREQ(PlannedRungName(kPlanLocalSearch), "local-search");
  EXPECT_STREQ(PlannedRungName(kNumPlannedRungs), "dfs-tree");
}

TEST(CostModelJsonTest, RoundTripsThroughWriterShape) {
  const std::string text = R"({
    "version": 3,
    "generated_by": "tools/calibrate_cost_model.py",
    "feature_order": ["a", "b", "c", "d", "e", "f"],
    "rungs": {
      "exact": {"intercept": 1.5, "weights": [1, 2, 3, 4, 5, 6],
                "rows": 99, "rmse_log": 0.5},
      "ils": {"intercept": -0.25, "weights": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6]},
      "local-search": {"intercept": 0.0, "weights": [0, 0, 0, 0, 0, 0]}
    }
  })";
  CostModel model;
  std::string error;
  ASSERT_TRUE(ParseCostModelJson(text, &model, &error)) << error;
  EXPECT_EQ(model.version, 3);
  EXPECT_DOUBLE_EQ(model.exact.intercept, 1.5);
  EXPECT_DOUBLE_EQ(model.exact.weights[5], 6.0);
  EXPECT_DOUBLE_EQ(model.ils.intercept, -0.25);
  EXPECT_DOUBLE_EQ(model.local_search.intercept, 0.0);
}

TEST(CostModelJsonTest, RejectsMalformedDocuments) {
  CostModel model;
  std::string error;
  // Not JSON at all.
  EXPECT_FALSE(ParseCostModelJson("nope", &model, &error));
  // Missing a rung.
  EXPECT_FALSE(ParseCostModelJson(
      R"({"version": 1, "rungs": {"exact":
          {"intercept": 0, "weights": [0,0,0,0,0,0]}}})",
      &model, &error));
  // Unknown rung name.
  EXPECT_FALSE(ParseCostModelJson(
      R"({"version": 1, "rungs": {"exact":
          {"intercept": 0, "weights": [0,0,0,0,0,0]},
          "ils": {"intercept": 0, "weights": [0,0,0,0,0,0]},
          "local-search": {"intercept": 0, "weights": [0,0,0,0,0,0]},
          "greedy": {"intercept": 0, "weights": [0,0,0,0,0,0]}}})",
      &model, &error));
  // Wrong weight count.
  EXPECT_FALSE(ParseCostModelJson(
      R"({"version": 1, "rungs": {"exact":
          {"intercept": 0, "weights": [0,0,0]},
          "ils": {"intercept": 0, "weights": [0,0,0,0,0,0]},
          "local-search": {"intercept": 0, "weights": [0,0,0,0,0,0]}}})",
      &model, &error));
  // Non-positive version.
  EXPECT_FALSE(ParseCostModelJson(
      R"({"version": 0, "rungs": {"exact":
          {"intercept": 0, "weights": [0,0,0,0,0,0]},
          "ils": {"intercept": 0, "weights": [0,0,0,0,0,0]},
          "local-search": {"intercept": 0, "weights": [0,0,0,0,0,0]}}})",
      &model, &error));
}

TEST(CostModelJsonTest, MissingFileReportsError) {
  CostModel model;
  std::string error;
  EXPECT_FALSE(
      LoadCostModelFile("/nonexistent/cost_model.json", &model, &error));
  EXPECT_FALSE(error.empty());
}

// End-to-end through the ladder: a planner-configured FallbackPebbler must
// match the blind ladder's cost on instances where exact is attempted, and
// must not regress when the planner skips exact (ils recovers the same
// scheme on these families; the calibration sweep pins that empirically).
TEST(CalibratedLadderTest, MatchesBlindQualityOnSmallInstances) {
  const LadderPlanner planner;  // committed coefficients
  FallbackPebbler blind;
  FallbackPebbler::Options opts;
  opts.planner = &planner;
  FallbackPebbler planned(opts);
  for (int n : {3, 5, 8}) {
    const Graph g = WorstCaseFamily(n).ToGraph();
    SolveOutcome blind_outcome;
    const auto a = blind.PebbleWithOutcome(g, nullptr, &blind_outcome);
    SolveOutcome planned_outcome;
    const auto b = planned.PebbleWithOutcome(g, nullptr, &planned_outcome);
    ASSERT_TRUE(a.has_value()) << n;
    ASSERT_TRUE(b.has_value()) << n;
    EXPECT_EQ(HatCostOfEdgeOrder(g, *a), HatCostOfEdgeOrder(g, *b)) << n;
    EXPECT_FALSE(blind_outcome.plan.active) << n;
    EXPECT_TRUE(planned_outcome.plan.active) << n;
  }
}

// A planner that caps the exact rung runs it on a child context. The child
// may spend only the nodes the request has left, and what it spends counts
// against the request — a multi-component request cannot spend its node
// budget twice.
TEST(CalibratedLadderTest, CappedExactSpendsOnlyTheNodesLeft) {
  const LadderPlanner planner(FlatModel(1000.0, 100.0, 50.0));
  FallbackPebbler::Options opts;
  opts.planner = &planner;
  const FallbackPebbler planned(opts);
  // Branch and bound needs hundreds of nodes to prove this instance.
  const Graph g = RandomConnectedBipartite(7, 7, 26, 9).ToGraph();
  FakeClock clock;  // never advances, so only the node budget can bind
  SolveBudget budget;
  budget.deadline_ms = 1'000'000;
  budget.node_budget = 20;
  BudgetContext ctx(budget, &clock);
  ASSERT_TRUE(ctx.ChargeNodes(15));  // what earlier components spent

  SolveOutcome outcome;
  const auto order = planned.PebbleWithOutcome(g, &ctx, &outcome);
  ASSERT_TRUE(order.has_value());
  ASSERT_TRUE(outcome.plan.active);
  EXPECT_EQ(outcome.plan.predicted_rung, kPlanExact);
  EXPECT_GE(outcome.plan.exact_cap_ms, 0);  // the capped path ran
  ASSERT_FALSE(outcome.attempts.empty());
  EXPECT_EQ(outcome.attempts.front().solver, "exact");
  EXPECT_EQ(outcome.attempts.front().status, RungStatus::kBudgetExhausted);
  // The child had 5 nodes; its sixth charge stopped it, one past the
  // request's budget.
  EXPECT_EQ(ctx.nodes_charged(), 21);
  EXPECT_EQ(ctx.stop_reason(), BudgetStop::kNodeBudgetExhausted);
}

}  // namespace
}  // namespace pebblejoin
