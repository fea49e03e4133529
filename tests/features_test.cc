#include "graph/features.h"

#include <cmath>
#include <optional>
#include <thread>
#include <vector>

#include "core/classifier.h"
#include "graph/components.h"
#include "graph/generators.h"
#include "graph/graph_properties.h"
#include "gtest/gtest.h"

namespace pebblejoin {
namespace {

// Field-by-field equality; GraphFeatures carries doubles that must match
// exactly (same arithmetic on the same counts), not approximately.
void ExpectSameFeatures(const GraphFeatures& a, const GraphFeatures& b) {
  EXPECT_EQ(a.num_vertices, b.num_vertices);
  EXPECT_EQ(a.num_edges, b.num_edges);
  EXPECT_EQ(a.betti_zero, b.betti_zero);
  EXPECT_EQ(a.max_degree, b.max_degree);
  EXPECT_EQ(a.mean_degree, b.mean_degree);
  EXPECT_EQ(a.density, b.density);
  EXPECT_EQ(a.degree_skew, b.degree_skew);
  EXPECT_EQ(a.line_graph_edges, b.line_graph_edges);
  EXPECT_EQ(a.largest_component_edges, b.largest_component_edges);
  EXPECT_EQ(a.component_size_histogram, b.component_size_histogram);
  EXPECT_EQ(a.equijoin_shape, b.equijoin_shape);
  EXPECT_EQ(a.bipartite, b.bipartite);
}

std::vector<Graph> PropertyCorpus() {
  std::vector<Graph> corpus;
  corpus.push_back(WorstCaseFamily(7).ToGraph());
  corpus.push_back(CompleteBipartite(4, 6).ToGraph());
  corpus.push_back(MatchingGraph(9).ToGraph());
  corpus.push_back(StarGraph(11).ToGraph());
  corpus.push_back(PathGraph(8).ToGraph());
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    corpus.push_back(RandomBipartite(8, 9, 0.25, seed).ToGraph());
    corpus.push_back(
        RandomConnectedBipartite(6, 6, 14, seed * 7919).ToGraph());
  }
  corpus.push_back(Graph(5));  // empty: all-zero features
  return corpus;
}

TEST(FeaturesPropertyTest, InvariantAcrossThreads) {
  // Extraction is pure and lock-free; concurrent extraction from many
  // threads must agree bit-for-bit with the single-threaded result, so
  // per-component planning under engine fan-out cannot drift.
  const std::vector<Graph> corpus = PropertyCorpus();
  std::vector<GraphFeatures> expected;
  expected.reserve(corpus.size());
  for (const Graph& g : corpus) expected.push_back(ExtractGraphFeatures(g));

  constexpr int kThreads = 4;
  std::vector<std::vector<GraphFeatures>> got(kThreads);
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&corpus, &got, t] {
      for (const Graph& g : corpus) got[t].push_back(ExtractGraphFeatures(g));
    });
  }
  for (std::thread& w : workers) w.join();
  for (int t = 0; t < kThreads; ++t) {
    ASSERT_EQ(got[t].size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
      ExpectSameFeatures(expected[i], got[t][i]);
    }
  }
}

TEST(FeaturesPropertyTest, DecompositionOverloadsMatchGraphOnly) {
  // The engine hands one decomposition and 2-coloring to classify and to
  // feature extraction; both must agree with the self-contained overloads.
  for (const Graph& g : PropertyCorpus()) {
    const ComponentDecomposition decomp = FindComponents(g);
    const std::optional<std::vector<int>> color = TwoColor(g);
    ExpectSameFeatures(ExtractGraphFeatures(g, decomp, color),
                       ExtractGraphFeatures(g));

    const JoinGraphClassification got = ClassifyJoinGraph(decomp, color);
    const JoinGraphClassification want = ClassifyJoinGraph(g);
    EXPECT_EQ(got.equijoin_shape, want.equijoin_shape);
    EXPECT_EQ(got.realizable_as, want.realizable_as);
    EXPECT_EQ(got.bounds.num_edges, want.bounds.num_edges);
    EXPECT_EQ(got.bounds.betti_zero, want.bounds.betti_zero);
    EXPECT_EQ(got.bounds.lower, want.bounds.lower);
    EXPECT_EQ(got.bounds.upper_general, want.bounds.upper_general);
    EXPECT_EQ(got.bounds.upper_dfs_bound, want.bounds.upper_dfs_bound);
  }
}

// Golden vectors on the Theorem 3.3 worst-case family: the hub of degree
// n plus n pendant edges gives m = 2n, 2n+1 non-isolated vertices, and a
// line graph of C(n,2) hub pairs plus one edge per spoke/pendant pair.
TEST(FeaturesGoldenTest, WorstCaseFamilyClosedForm) {
  for (int n : {3, 5, 8, 16, 30}) {
    const GraphFeatures f =
        ExtractGraphFeatures(WorstCaseFamily(n).ToGraph());
    EXPECT_EQ(f.num_edges, 2 * n) << n;
    EXPECT_EQ(f.num_vertices, 2 * n + 1) << n;
    EXPECT_EQ(f.max_degree, n) << n;
    EXPECT_EQ(f.line_graph_edges,
              static_cast<int64_t>(n) * (n - 1) / 2 + n)
        << n;
    EXPECT_EQ(f.betti_zero, 1) << n;
    EXPECT_EQ(f.largest_component_edges, 2 * n) << n;
    EXPECT_TRUE(f.bipartite) << n;
    EXPECT_FALSE(f.equijoin_shape) << n;
  }
}

TEST(FeaturesGoldenTest, CompleteBipartiteClosedForm) {
  // K_{k,l}: every left vertex has degree l and vice versa, so
  // |E(L(G))| = k*C(l,2) + l*C(k,2), and the shape is an equijoin.
  for (const auto& [k, l] : {std::pair{2, 3}, {4, 4}, {3, 7}}) {
    const GraphFeatures f =
        ExtractGraphFeatures(CompleteBipartite(k, l).ToGraph());
    EXPECT_EQ(f.num_edges, k * l);
    EXPECT_EQ(f.num_vertices, k + l);
    EXPECT_EQ(f.max_degree, std::max(k, l));
    EXPECT_EQ(f.line_graph_edges,
              static_cast<int64_t>(k) * l * (l - 1) / 2 +
                  static_cast<int64_t>(l) * k * (k - 1) / 2);
    EXPECT_EQ(f.betti_zero, 1);
    EXPECT_TRUE(f.equijoin_shape);
  }
}

TEST(FeaturesGoldenTest, MatchingHasEmptyLineGraph) {
  const GraphFeatures f = ExtractGraphFeatures(MatchingGraph(6).ToGraph());
  EXPECT_EQ(f.num_edges, 6);
  EXPECT_EQ(f.num_vertices, 12);
  EXPECT_EQ(f.line_graph_edges, 0);  // degree 1 everywhere: no pairs
  EXPECT_EQ(f.betti_zero, 6);
  EXPECT_EQ(f.max_degree, 1);
  EXPECT_EQ(f.degree_skew, 1.0);  // regular
  EXPECT_TRUE(f.equijoin_shape);
}

TEST(FeaturesGoldenTest, EmptyGraphIsAllZero) {
  const GraphFeatures f = ExtractGraphFeatures(Graph(4));
  EXPECT_EQ(f.num_vertices, 0);
  EXPECT_EQ(f.num_edges, 0);
  EXPECT_EQ(f.betti_zero, 0);
  EXPECT_EQ(f.line_graph_edges, 0);
  EXPECT_EQ(f.density, 0.0);
  EXPECT_EQ(f.mean_degree, 0.0);
}

TEST(LogFeatureVectorTest, ProjectsTheDocumentedEntries) {
  const GraphFeatures f =
      ExtractGraphFeatures(WorstCaseFamily(5).ToGraph());
  const auto v = LogFeatureVector(f);
  EXPECT_DOUBLE_EQ(v[0], std::log1p(static_cast<double>(f.num_edges)));
  EXPECT_DOUBLE_EQ(v[1], std::log1p(static_cast<double>(f.num_vertices)));
  EXPECT_DOUBLE_EQ(v[2],
                   std::log1p(static_cast<double>(f.line_graph_edges)));
  EXPECT_DOUBLE_EQ(v[3], std::log1p(static_cast<double>(f.max_degree)));
  EXPECT_DOUBLE_EQ(v[4], f.density);
  EXPECT_DOUBLE_EQ(v[5], std::log1p(static_cast<double>(f.betti_zero)));
}

}  // namespace
}  // namespace pebblejoin
