// Cheap structural features of a join graph, extracted once per request
// (the engine's classify stage) and per component (the ladder), and fed to
// the calibrated ladder planner (solver/ladder_planner.h).
//
// The features deliberately stay linear-time and allocation-light: the
// whole point of a dispatch model is to spend microseconds deciding where
// *not* to spend milliseconds. Everything here is derivable from one
// degree scan over the CSR rows (graph/csr_graph.h) plus the request's
// component decomposition and 2-coloring. Every field is a pure function of
// the adjacency structure, so the vector is identical across thread counts
// — the invariance tests/features_test.cc pins.

#ifndef PEBBLEJOIN_GRAPH_FEATURES_H_
#define PEBBLEJOIN_GRAPH_FEATURES_H_

#include <array>
#include <cstdint>
#include <vector>

#include "graph/graph.h"

namespace pebblejoin {

struct ComponentDecomposition;

// Fixed-size feature vector of one graph (a whole request or one
// component). Counts are exact, not estimates — they are all linear-time.
struct GraphFeatures {
  // Edge-count histogram over components: bucket b counts the components
  // with 2^b <= edges < 2^(b+1) (the last bucket absorbs the tail).
  static constexpr int kHistogramBuckets = 8;

  int64_t num_vertices = 0;  // non-isolated vertices (the paper's model)
  int64_t num_edges = 0;     // m
  int64_t betti_zero = 0;    // β₀, components among non-isolated vertices
  int64_t max_degree = 0;
  double mean_degree = 0.0;  // 2m / non-isolated n (0 on the empty graph)
  // m over the densest simple graph on num_vertices: 2m / (n(n-1)).
  double density = 0.0;
  // max_degree / mean_degree (1.0 on regular graphs, 0 on empty ones) —
  // the skew signal of "Skew Strikes Back": one hub vertex dominates the
  // line graph, which is exactly what blows up the exact solver.
  double degree_skew = 0.0;
  // |E(L(G))| = Σ_v C(deg v, 2), exact. The line graph is the instance
  // every TSP-backed rung actually solves, so its size is the single
  // strongest cost predictor.
  int64_t line_graph_edges = 0;
  int64_t largest_component_edges = 0;
  std::array<int64_t, kHistogramBuckets> component_size_histogram{};
  // Classification bits (core/classifier.h derives the same ones): the
  // equijoin shape has a linear-time perfect solver, so the ladder never
  // matters there; bipartiteness separates the generator families.
  bool equijoin_shape = false;
  bool bipartite = false;
};

// Extracts the feature vector of `g`: one degree scan over g.csr(), with
// the component fields read off `decomp` = FindComponents(g). The two
// classification bits are the caller's: `bipartite` is whether TwoColor(g)
// succeeds, and `equijoin_shape` is ComponentsAreCompleteBipartite — the
// engine's classify stage decides it once for the classification and the
// features alike.
GraphFeatures ExtractGraphFeatures(const Graph& g,
                                   const ComponentDecomposition& decomp,
                                   bool bipartite, bool equijoin_shape);
// The same, computing the decomposition, 2-coloring and shape itself.
GraphFeatures ExtractGraphFeatures(const Graph& g);

// The model-facing projection: the fixed log-feature vector the planner's
// per-rung linear predictors are fit over (tools/calibrate_cost_model.py
// names the same entries, in the same order, in cost_model.json).
//
//   [0] log1p(m)   [1] log1p(n)           [2] log1p(line_graph_edges)
//   [3] log1p(max_degree)   [4] density   [5] log1p(β₀)
inline constexpr int kNumLogFeatures = 6;
std::array<double, kNumLogFeatures> LogFeatureVector(const GraphFeatures& f);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_GRAPH_FEATURES_H_
