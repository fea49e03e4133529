#include "solver/component_pebbler.h"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/components.h"
#include "graph/generators.h"
#include "graph/graph_properties.h"
#include "gtest/gtest.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "pebble/scheme_verifier.h"
#include "solver/exact_pebbler.h"
#include "solver/fallback_pebbler.h"
#include "solver/greedy_walk_pebbler.h"
#include "solver/local_search_pebbler.h"
#include "solver/sort_merge_pebbler.h"
#include "util/budget.h"
#include "util/ordered_window.h"
#include "util/thread_pool.h"

namespace pebblejoin {
namespace {

TEST(ComponentPebblerTest, SolvesDisconnectedGraphs) {
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&greedy, nullptr);
  const BipartiteGraph u =
      DisjointUnion(CompleteBipartite(2, 3), PathGraph(4));
  const Graph g = u.ToGraph();
  const PebbleSolution solution = driver.Solve(g);
  EXPECT_EQ(solution.num_components, 2);
  EXPECT_TRUE(VerifyScheme(g, solution.scheme).valid);
  EXPECT_EQ(solution.effective_cost, solution.hat_cost - 2);
}

TEST(ComponentPebblerTest, FallbackKicksInPerComponent) {
  const SortMergePebbler sort_merge;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&sort_merge, &greedy);
  // One complete-bipartite component, one path (sort-merge refuses it).
  const BipartiteGraph u =
      DisjointUnion(CompleteBipartite(2, 2), PathGraph(3));
  const PebbleSolution solution = driver.Solve(u.ToGraph());
  ASSERT_EQ(solution.outcomes.size(), 2u);
  EXPECT_EQ(solution.outcomes[0].winner, "sort-merge");
  EXPECT_EQ(solution.outcomes[1].winner, "greedy-walk");
}

TEST(ComponentPebblerDeathTest, NoFallbackAborts) {
  const SortMergePebbler sort_merge;
  const ComponentPebbler driver(&sort_merge, nullptr);
  EXPECT_DEATH(driver.Solve(PathGraph(3).ToGraph()), "no fallback");
}

TEST(ComponentPebblerTest, EmptyGraph) {
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&greedy, nullptr);
  const PebbleSolution solution = driver.Solve(Graph(5));
  EXPECT_EQ(solution.num_components, 0);
  EXPECT_TRUE(solution.edge_order.empty());
  EXPECT_EQ(solution.hat_cost, 0);
}

TEST(ComponentPebblerTest, AdditivityWithExactSolver) {
  // Lemma 2.2: π(G ⊎ H) = π(G) + π(H). Verified with the exact solver on
  // random unions.
  const ExactPebbler exact;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&exact, &greedy);
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    const BipartiteGraph a = RandomConnectedBipartite(3, 3, 6, seed);
    const BipartiteGraph b = RandomConnectedBipartite(3, 4, 8, seed + 100);
    const auto pa = exact.OptimalEffectiveCost(a.ToGraph());
    const auto pb = exact.OptimalEffectiveCost(b.ToGraph());
    ASSERT_TRUE(pa.has_value() && pb.has_value());
    const PebbleSolution joint = driver.Solve(DisjointUnion(a, b).ToGraph());
    EXPECT_EQ(joint.effective_cost, *pa + *pb) << seed;
  }
}

TEST(ComponentPebblerTest, MatchingCosts) {
  // Lemma 2.4: a matching with m edges has π̂ = 2m and π = m.
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&greedy, nullptr);
  for (int m = 1; m <= 6; ++m) {
    const PebbleSolution s = driver.Solve(MatchingGraph(m).ToGraph());
    EXPECT_EQ(s.hat_cost, 2 * m);
    EXPECT_EQ(s.effective_cost, m);
  }
}

TEST(ComponentPebblerTest, MixedSuccessRecordsPerComponentOutcomes) {
  const SortMergePebbler sort_merge;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&sort_merge, &greedy);
  // sort-merge handles the complete-bipartite component, refuses the path
  // and the star-with-pendant; provenance must tell the components apart.
  const BipartiteGraph u = DisjointUnion(
      DisjointUnion(CompleteBipartite(2, 2), PathGraph(3)), WorstCaseFamily(3));
  const Graph g = u.ToGraph();
  const PebbleSolution solution = driver.Solve(g);
  EXPECT_TRUE(VerifyScheme(g, solution.scheme).valid);
  ASSERT_EQ(solution.outcomes.size(), 3u);
  EXPECT_EQ(solution.outcomes[0].winner, "sort-merge");
  EXPECT_EQ(solution.outcomes[0].status, RungStatus::kCompleted);
  ASSERT_EQ(solution.outcomes[0].attempts.size(), 1u);
  // The refused components carry both attempts: the typed refusal and the
  // fallback's success.
  for (int c : {1, 2}) {
    EXPECT_EQ(solution.outcomes[c].winner, "greedy-walk") << c;
    ASSERT_EQ(solution.outcomes[c].attempts.size(), 2u) << c;
    EXPECT_EQ(solution.outcomes[c].attempts[0].solver, "sort-merge");
    EXPECT_EQ(solution.outcomes[c].attempts[0].status,
              RungStatus::kUnsupported);
    EXPECT_EQ(solution.outcomes[c].attempts[1].solver, "greedy-walk");
  }
}

TEST(ComponentPebblerTest, ExpiredDeadlineStillSolvesEveryComponent) {
  const LocalSearchPebbler local;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&local, &greedy);
  const BipartiteGraph u =
      DisjointUnion(WorstCaseFamily(4), CompleteBipartite(3, 3));
  const Graph g = u.ToGraph();
  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 0;
  BudgetContext ctx(budget, &clock);
  // The fallback runs unbudgeted, so the whole request still terminates
  // with a verified scheme.
  const PebbleSolution solution = driver.Solve(g, &ctx);
  EXPECT_TRUE(VerifyScheme(g, solution.scheme).valid);
  ASSERT_EQ(solution.outcomes.size(), 2u);
  for (const SolveOutcome& outcome : solution.outcomes) {
    EXPECT_EQ(outcome.winner, "greedy-walk");
    EXPECT_EQ(outcome.attempts.front().status, RungStatus::kDeadlineExpired);
  }
}

TEST(ComponentPebblerTest, AFallbackAnswerKeepsThePrimarysBudgetCut) {
  // A primary cut short by the deadline hands its component to the
  // fallback, and the answer is degraded by that cut. A primary that only
  // declines the shape is no cut.
  const SortMergePebbler sort_merge;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&sort_merge, &greedy);
  const Graph g =
      DisjointUnion(CompleteBipartite(2, 3), PathGraph(3)).ToGraph();

  const PebbleSolution declined = driver.Solve(g);
  ASSERT_EQ(declined.outcomes.size(), 2u);
  EXPECT_EQ(declined.outcomes[1].attempts.front().status,
            RungStatus::kUnsupported);
  EXPECT_EQ(declined.outcomes[1].winner, "greedy-walk");
  EXPECT_EQ(declined.outcomes[1].degradation, RungStatus::kCompleted);
  EXPECT_EQ(declined.FirstDegraded(), nullptr);

  FakeClock clock;
  SolveBudget budget;
  budget.deadline_ms = 0;
  BudgetContext ctx(budget, &clock);
  const PebbleSolution cut = driver.Solve(g, &ctx);
  ASSERT_EQ(cut.outcomes.size(), 2u);
  for (const SolveOutcome& outcome : cut.outcomes) {
    EXPECT_EQ(outcome.attempts.front().status, RungStatus::kDeadlineExpired);
    EXPECT_EQ(outcome.winner, "greedy-walk");
    EXPECT_EQ(outcome.status, RungStatus::kCompleted);
    EXPECT_EQ(outcome.degradation, RungStatus::kDeadlineExpired);
    EXPECT_TRUE(outcome.degraded());
  }
  EXPECT_EQ(cut.outcomes[0].Summary(),
            "sort-merge:deadline-expired -> greedy-walk:completed (winner "
            "greedy-walk, cost 6, lb 6, degraded: deadline-expired)");
  EXPECT_EQ(cut.FirstDegraded(), &cut.outcomes[0]);
}

TEST(ComponentPebblerTest, FallbackLadderAsPrimaryReportsWinningRung) {
  const FallbackPebbler ladder;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&ladder, &greedy);
  const BipartiteGraph u =
      DisjointUnion(CompleteBipartite(2, 2), PathGraph(3));
  const PebbleSolution solution = driver.Solve(u.ToGraph());
  ASSERT_EQ(solution.outcomes.size(), 2u);
  // Both components are tiny, so the exact rung wins and the winner names
  // the rung, not the ladder wrapper.
  EXPECT_EQ(solution.outcomes[0].winner, "exact");
  EXPECT_EQ(solution.outcomes[1].winner, "exact");
  for (const SolveOutcome& outcome : solution.outcomes) {
    EXPECT_TRUE(outcome.optimal);
  }
}

TEST(ComponentPebblerTest, BorrowedPoolMatchesSequentialByteForByte) {
  // The engine's pool-reuse mode: fanning components across a borrowed
  // ThreadPool must yield the exact solution (order, scheme, costs,
  // provenance) of the sequential path.
  const LocalSearchPebbler local;
  const GreedyWalkPebbler greedy;
  const BipartiteGraph u = DisjointUnion(
      DisjointUnion(WorstCaseFamily(4), CompleteBipartite(3, 3)),
      DisjointUnion(PathGraph(5), StarGraph(4)));
  const Graph g = u.ToGraph();

  const ComponentPebbler sequential(&local, &greedy);
  const PebbleSolution base = sequential.Solve(g);

  ThreadPool shared(3);
  ComponentPebbler::Options borrowed;
  borrowed.threads = 3;
  borrowed.pool = &shared;
  const ComponentPebbler with_borrowed(&local, &greedy, borrowed);

  const PebbleSolution got = with_borrowed.Solve(g);
  EXPECT_EQ(got.edge_order, base.edge_order);
  EXPECT_EQ(got.hat_cost, base.hat_cost);
  EXPECT_EQ(got.effective_cost, base.effective_cost);
  ASSERT_EQ(got.outcomes.size(), base.outcomes.size());
  for (size_t c = 0; c < got.outcomes.size(); ++c) {
    EXPECT_EQ(got.outcomes[c].winner, base.outcomes[c].winner);
    EXPECT_EQ(got.outcomes[c].attempts.size(),
              base.outcomes[c].attempts.size());
  }
  // The borrowed pool survives the solves — it is not owned.
  EXPECT_EQ(shared.num_threads(), 3);
}

TEST(ComponentPebblerDeathTest, FanOutWithoutPoolAborts) {
  // The driver never builds a pool of its own: threads > 1 needs one lent.
  const GreedyWalkPebbler greedy;
  ComponentPebbler::Options options;
  options.threads = 2;
  EXPECT_DEATH(ComponentPebbler(&greedy, nullptr, options),
               "needs a borrowed pool");
}

TEST(ComponentPebblerTest, BorrowedPoolIsDroppedOnPoolWorkers) {
  // A Solve issued from inside a pool worker must not fan out into the
  // same pool (the worker would wait on itself). It degrades to the
  // sequential path — and still produces identical bytes.
  const GreedyWalkPebbler greedy;
  const BipartiteGraph u =
      DisjointUnion(CompleteBipartite(2, 3), PathGraph(4));
  const Graph g = u.ToGraph();
  const ComponentPebbler sequential(&greedy, nullptr);
  const PebbleSolution base = sequential.Solve(g);

  ThreadPool pool(2);
  ComponentPebbler::Options borrowed;
  borrowed.threads = 2;
  borrowed.pool = &pool;
  const ComponentPebbler nested(&greedy, nullptr, borrowed);
  OrderedWindow<PebbleSolution> window(&pool);
  window.Submit([&] { return nested.Solve(g); });
  const PebbleSolution from_worker = window.Take();
  EXPECT_EQ(from_worker.edge_order, base.edge_order);
  EXPECT_EQ(from_worker.effective_cost, base.effective_cost);
}

// --- The fan-out's task cut ---------------------------------------------

// A decomposition with the given component sizes, in edges: its edge
// offsets, which are all the cut reads.
ComponentDecomposition SizedComponents(const std::vector<int>& sizes) {
  ComponentDecomposition decomp;
  decomp.num_components = static_cast<int>(sizes.size());
  for (int size : sizes) {
    decomp.edge_offsets.push_back(decomp.edge_offsets.back() + size);
  }
  return decomp;
}

TEST(CutFanoutTasksTest, RangesAreContiguousInOrderAndCoverEveryComponent) {
  const std::vector<int> sizes = {3, 1, 7, 2, 2, 40, 1, 1, 5, 9, 2, 6, 1};
  for (int workers : {1, 2, 3, 4, 8, 64}) {
    const std::vector<int> bounds =
        CutFanoutTasks(SizedComponents(sizes), workers);
    ASSERT_GE(bounds.size(), 2u) << "workers=" << workers;
    EXPECT_EQ(bounds.front(), 0);
    EXPECT_EQ(bounds.back(), static_cast<int>(sizes.size()));
    for (size_t t = 0; t + 1 < bounds.size(); ++t) {
      EXPECT_LT(bounds[t], bounds[t + 1]) << "workers=" << workers;
    }
  }
}

TEST(CutFanoutTasksTest, HeavyComponentFormsItsOwnTask) {
  // m = 106 on 4 workers: tasks close at ⌈106 / 16⌉ = 7 edges, and the
  // 100-edge component at index 3 does not share its task.
  const std::vector<int> bounds =
      CutFanoutTasks(SizedComponents({1, 1, 1, 100, 1, 1, 1}), 4);
  EXPECT_EQ(bounds, (std::vector<int>{0, 3, 4, 7}));
}

TEST(CutFanoutTasksTest, EqualComponentsGiveFourTasksPerWorker) {
  const ComponentDecomposition decomp =
      SizedComponents(std::vector<int>(1024, 14));
  EXPECT_EQ(CutFanoutTasks(decomp, 4).size() - 1, 16u);
  EXPECT_EQ(CutFanoutTasks(decomp, 1).size() - 1, 4u);
  // More tasks wanted than components: one component per task.
  EXPECT_EQ(CutFanoutTasks(SizedComponents({2, 2, 2}), 8),
            (std::vector<int>{0, 1, 2, 3}));
}

TEST(CutFanoutTasksTest, NoComponentsNoTasks) {
  EXPECT_EQ(CutFanoutTasks(ComponentDecomposition{}, 4),
            (std::vector<int>{0}));
}

TEST(ComponentPebblerTest, StagedSeamsComposeToSolve) {
  // The pipeline seams — FindComponents, SolveDecomposed, VerifyAndCost —
  // composed by hand must equal the one-call Solve.
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&greedy, nullptr);
  const BipartiteGraph u =
      DisjointUnion(WorstCaseFamily(3), CompleteBipartite(2, 2));
  const Graph g = u.ToGraph();

  const ComponentDecomposition decomp = FindComponents(g);
  PebbleSolution staged = driver.SolveDecomposed(g, decomp, nullptr);
  // SolveDecomposed leaves verification to the verify stage.
  EXPECT_EQ(staged.hat_cost, 0);
  EXPECT_TRUE(staged.scheme.configs.empty());
  ComponentPebbler::VerifyAndCost(g, &staged);

  const PebbleSolution direct = driver.Solve(g);
  EXPECT_EQ(staged.edge_order, direct.edge_order);
  EXPECT_EQ(staged.hat_cost, direct.hat_cost);
  EXPECT_EQ(staged.effective_cost, direct.effective_cost);
  EXPECT_EQ(staged.jumps, direct.jumps);
  EXPECT_EQ(staged.num_components, direct.num_components);
  EXPECT_TRUE(VerifyScheme(g, staged.scheme).valid);
}

// --- Sort-merge's in-place sweep ----------------------------------------

// One component of a test graph: K_{a,b}; K_{a,b} less one edge (a, b >= 2,
// still connected, not complete); or K_{a,b} plus an edge inside the
// a-side (a >= 2, an odd cycle, not bipartite).
enum class BlockKind { kComplete, kMissingEdge, kOddEdge };

struct Block {
  int a;
  int b;
  BlockKind kind = BlockKind::kComplete;
};

// The disjoint union of `blocks` built as a plain Graph, with shuffled
// vertex ids, edges inserted in shuffled order and endpoints in random
// order, so a component's first vertex — its lowest id — falls on either
// side and its edges interleave with other components' ids.
Graph ShuffledUnion(const std::vector<Block>& blocks, uint64_t seed) {
  std::mt19937_64 rng(seed);
  int n = 0;
  for (const Block& block : blocks) n += block.a + block.b;
  std::vector<int> id(static_cast<size_t>(n));
  std::iota(id.begin(), id.end(), 0);
  std::shuffle(id.begin(), id.end(), rng);
  std::vector<std::pair<int, int>> edges;
  int base = 0;
  for (const Block& block : blocks) {
    for (int i = 0; i < block.a; ++i) {
      for (int j = 0; j < block.b; ++j) {
        if (block.kind == BlockKind::kMissingEdge && i == 0 && j == 0) {
          continue;
        }
        edges.emplace_back(id[base + i], id[base + block.a + j]);
      }
    }
    if (block.kind == BlockKind::kOddEdge) {
      edges.emplace_back(id[base], id[base + 1]);
    }
    base += block.a + block.b;
  }
  std::shuffle(edges.begin(), edges.end(), rng);
  Graph g(n);
  for (auto [u, v] : edges) {
    if (rng() % 2 == 0) std::swap(u, v);
    g.AddEdge(u, v);
  }
  return g;
}

// `count` seeded blocks: K_{1,1}, K_{1,k}, K_{k,1} and K_{a,b}, with about
// one in six not complete.
std::vector<Block> RandomBlocks(int count, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const auto size = [&](int lo, int hi) {
    return lo + static_cast<int>(rng() % static_cast<uint64_t>(hi - lo + 1));
  };
  std::vector<Block> blocks;
  for (int i = 0; i < count; ++i) {
    switch (rng() % 6) {
      case 0:
        blocks.push_back({1, 1});
        break;
      case 1:
        blocks.push_back({1, size(2, 5)});
        break;
      case 2:
        blocks.push_back({size(2, 5), 1});
        break;
      case 3:
        blocks.push_back({size(2, 4), size(2, 4),
                          rng() % 2 == 0 ? BlockKind::kMissingEdge
                                         : BlockKind::kOddEdge});
        break;
      default:
        blocks.push_back({size(2, 4), size(2, 4)});
        break;
    }
  }
  return blocks;
}

// The extract-then-PebbleConnected route as an oracle: every component's
// subgraph is extracted and pebbled by PebbleConnected, which is what
// Pebbler's default PebbleComponent does.
class ExtractingSortMerge : public SortMergePebbler {
 public:
  bool PebbleComponent(ComponentRef& component, BudgetContext& budget,
                       SolveOutcome* outcome,
                       std::vector<int>* order) const override {
    return Pebbler::PebbleComponent(component, budget, outcome, order);
  }
};

// Counts the extracted subgraphs sort-merge is asked to pebble.
class CountingSortMerge : public SortMergePebbler {
 public:
  std::optional<std::vector<int>> PebbleConnected(
      const Graph& g, BudgetContext& budget) const override {
    calls.fetch_add(1, std::memory_order_relaxed);
    return SortMergePebbler::PebbleConnected(g, budget);
  }
  mutable std::atomic<int> calls{0};
};

// Lemma 3.2's boustrophedon order of a complete bipartite component in the
// whole graph's edge ids, written from its definition: the sides are
// TwoColor of the extracted subgraph, rows are colour 0 in subgraph id
// order, and row i runs left to right when i is even. Empty when the
// component is not complete bipartite.
std::vector<int> ReferenceBoustrophedon(const Graph& g,
                                        const ComponentDecomposition& decomp,
                                        int c) {
  const Graph sub = ExtractComponent(g, decomp, c);
  const std::optional<std::vector<int>> color = TwoColor(sub);
  if (!color.has_value()) return {};
  std::vector<int> rows;
  std::vector<int> cols;
  for (int v = 0; v < sub.num_vertices(); ++v) {
    ((*color)[v] == 0 ? rows : cols).push_back(v);
  }
  if (rows.size() * cols.size() != static_cast<size_t>(sub.num_edges())) {
    return {};
  }
  std::map<std::pair<int, int>, int> edge_of;
  for (int e = 0; e < sub.num_edges(); ++e) {
    edge_of[{sub.edge(e).u, sub.edge(e).v}] = e;
    edge_of[{sub.edge(e).v, sub.edge(e).u}] = e;
  }
  std::vector<int> order;
  for (size_t i = 0; i < rows.size(); ++i) {
    for (size_t step = 0; step < cols.size(); ++step) {
      const size_t j = i % 2 == 0 ? step : cols.size() - 1 - step;
      order.push_back(decomp.edges_of(c)[edge_of.at({rows[i], cols[j]})]);
    }
  }
  return order;
}

// One SolveDecomposed call: its solution and the request's poll count.
struct Solved {
  PebbleSolution solution;
  int64_t polls = 0;
};

Solved SolveWith(const Pebbler& primary, const Graph& g,
                 const ComponentDecomposition& decomp, ThreadPool* pool,
                 int64_t expire_after_polls = 0) {
  const GreedyWalkPebbler greedy;
  ComponentPebbler::Options options;
  if (pool != nullptr) {
    options.threads = pool->num_threads();
    options.pool = pool;
  }
  const ComponentPebbler driver(&primary, &greedy, options);
  BudgetContext ctx{SolveBudget{}};
  if (expire_after_polls > 0) ctx.ForceExpireAfterPolls(expire_after_polls);
  Solved solved;
  solved.solution = driver.SolveDecomposed(g, decomp, &ctx);
  solved.polls = ctx.polls();
  return solved;
}

void ExpectSameOutcomes(const PebbleSolution& got, const PebbleSolution& want) {
  ASSERT_EQ(got.outcomes.size(), want.outcomes.size());
  for (size_t c = 0; c < got.outcomes.size(); ++c) {
    const SolveOutcome& a = got.outcomes[c];
    const SolveOutcome& b = want.outcomes[c];
    EXPECT_EQ(a.Summary(), b.Summary()) << "component " << c;
    EXPECT_EQ(a.winner, b.winner) << "component " << c;
    EXPECT_EQ(a.status, b.status) << "component " << c;
    EXPECT_EQ(a.optimal, b.optimal) << "component " << c;
    EXPECT_EQ(a.effective_cost, b.effective_cost) << "component " << c;
    EXPECT_EQ(a.lower_bound, b.lower_bound) << "component " << c;
    EXPECT_EQ(a.degradation, b.degradation) << "component " << c;
    ASSERT_EQ(a.attempts.size(), b.attempts.size()) << "component " << c;
    for (size_t r = 0; r < a.attempts.size(); ++r) {
      EXPECT_EQ(a.attempts[r].solver, b.attempts[r].solver);
      EXPECT_EQ(a.attempts[r].status, b.attempts[r].status);
      EXPECT_EQ(a.attempts[r].cost, b.attempts[r].cost);
    }
  }
}

TEST(SortMergeSweepTest, MatchesTheExtractingOracleOnShuffledUnions) {
  const SortMergePebbler in_place;
  const ExtractingSortMerge oracle;
  ThreadPool pool(4);
  for (uint64_t seed = 1; seed <= 12; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    const Graph g = ShuffledUnion(RandomBlocks(40, seed), seed + 1000);
    const ComponentDecomposition decomp = FindComponents(g);
    ASSERT_EQ(decomp.num_components, 40);
    const Solved want = SolveWith(oracle, g, decomp, nullptr);

    for (ThreadPool* lent : {static_cast<ThreadPool*>(nullptr), &pool}) {
      SCOPED_TRACE(lent == nullptr ? "threads 1" : "threads 4");
      const Solved got = SolveWith(in_place, g, decomp, lent);
      EXPECT_EQ(got.solution.edge_order, want.solution.edge_order);
      EXPECT_EQ(got.polls, want.polls);
      ExpectSameOutcomes(got.solution, want.solution);
    }

    // Independently of both routes: each complete component is written in
    // Lemma 3.2's order, and each other one goes to the fallback.
    size_t at = 0;
    for (int c = 0; c < decomp.num_components; ++c) {
      const size_t m_c = decomp.edges_of(c).size();
      const std::vector<int> reference = ReferenceBoustrophedon(g, decomp, c);
      if (reference.empty()) {
        EXPECT_EQ(want.solution.outcomes[c].Summary(),
                  "sort-merge:unsupported -> greedy-walk:completed (winner "
                  "greedy-walk, cost " +
                      std::to_string(want.solution.outcomes[c].effective_cost) +
                      ", lb " + std::to_string(m_c) + ")");
      } else {
        EXPECT_EQ(std::vector<int>(want.solution.edge_order.begin() + at,
                                   want.solution.edge_order.begin() + at + m_c),
                  reference)
            << "component " << c;
        EXPECT_EQ(want.solution.outcomes[c].effective_cost,
                  static_cast<int64_t>(m_c));
      }
      at += m_c;
    }
  }
}

TEST(SortMergeSweepTest, DeadlineOnTheKthComponentFallsBackFromThere) {
  // Each sort-merge attempt polls once, so the k-th poll is the k-th
  // component's: the components before it sweep, and from it on the latched
  // deadline declines sort-merge and the unbudgeted greedy walk answers.
  const SortMergePebbler in_place;
  const ExtractingSortMerge oracle;
  const Graph g = ShuffledUnion(
      std::vector<Block>(8, Block{2, 3}), /*seed=*/7);
  const ComponentDecomposition decomp = FindComponents(g);
  for (int64_t k : {1, 3, 8}) {
    SCOPED_TRACE(testing::Message() << "k " << k);
    const Solved got = SolveWith(in_place, g, decomp, nullptr, k);
    const Solved want = SolveWith(oracle, g, decomp, nullptr, k);
    EXPECT_EQ(got.solution.edge_order, want.solution.edge_order);
    EXPECT_EQ(got.polls, want.polls);
    ExpectSameOutcomes(got.solution, want.solution);
    ASSERT_EQ(got.solution.outcomes.size(), 8u);
    for (int c = 0; c < 8; ++c) {
      const SolveOutcome& outcome = got.solution.outcomes[c];
      if (c < k - 1) {
        EXPECT_EQ(outcome.Summary(),
                  "sort-merge:completed (winner sort-merge, cost 6, lb 6)");
      } else {
        ASSERT_EQ(outcome.attempts.size(), 2u) << c;
        EXPECT_EQ(outcome.attempts[0].solver, "sort-merge");
        EXPECT_EQ(outcome.attempts[0].status, RungStatus::kDeadlineExpired);
        EXPECT_EQ(outcome.attempts[1].solver, "greedy-walk");
        EXPECT_EQ(outcome.winner, "greedy-walk");
        EXPECT_EQ(outcome.degradation, RungStatus::kDeadlineExpired) << c;
      }
    }
    EXPECT_TRUE(VerifyEdgeOrder(g, got.solution.edge_order).valid);
  }
}

// The names of the JSONL events in `journal`, in order.
std::vector<std::string> EventNames(const std::string& journal) {
  std::vector<std::string> names;
  std::istringstream in(journal);
  std::string line;
  const std::string key = "\"event\":\"";
  while (std::getline(in, line)) {
    const size_t at = line.find(key);
    if (at == std::string::npos) continue;
    const size_t begin = at + key.size();
    names.push_back(line.substr(begin, line.find('"', begin) - begin));
  }
  return names;
}

size_t Count(const std::string& text, const std::string& needle) {
  size_t n = 0;
  for (size_t at = text.find(needle); at != std::string::npos;
       at = text.find(needle, at + 1)) {
    ++n;
  }
  return n;
}

TEST(SortMergeSweepTest, TracedAndJournaledComponentsKeepTheirSpansAndEvents) {
  const SortMergePebbler in_place;
  const GreedyWalkPebbler greedy;
  const Graph g = ShuffledUnion({{2, 3}, {1, 4}, {3, 1}}, /*seed=*/5);
  const ComponentDecomposition decomp = FindComponents(g);
  ASSERT_EQ(decomp.num_components, 3);
  ThreadPool pool(4);
  for (ThreadPool* lent : {static_cast<ThreadPool*>(nullptr), &pool}) {
    SCOPED_TRACE(lent == nullptr ? "threads 1" : "threads 4");
    ComponentPebbler::Options options;
    if (lent != nullptr) {
      options.threads = lent->num_threads();
      options.pool = lent;
    }
    const ComponentPebbler driver(&in_place, &greedy, options);
    Journal::Options journal_options;
    journal_options.min_level = LogLevel::kDebug;
    Journal journal(journal_options);
    std::ostringstream sink;
    journal.AttachStream(&sink);
    EventLog log(&journal, EventLog::kDefaultCapacity);
    TraceSession trace;
    BudgetContext ctx{SolveBudget{}};
    ctx.set_trace(&trace);
    ctx.set_log(&log);
    const PebbleSolution solution = driver.SolveDecomposed(g, decomp, &ctx);
    ASSERT_EQ(solution.outcomes.size(), 3u);

    // One "component" span and one sort-merge "rung" span per component.
    const std::string json = trace.ToJson();
    EXPECT_EQ(Count(json, "\"name\":\"component\""), 3u) << json;
    EXPECT_EQ(Count(json, "\"name\":\"sort-merge\",\"cat\":\"rung\""), 3u);
    EXPECT_EQ(Count(json, "\"status\":\"completed\""), 3u);

    // Each component's rung event, then its done event, in component order.
    EXPECT_EQ(EventNames(sink.str()),
              (std::vector<std::string>{"ladder.rung", "component.done",
                                        "ladder.rung", "component.done",
                                        "ladder.rung", "component.done"}));
    for (int c = 0; c < 3; ++c) {
      EXPECT_NE(sink.str().find("\"event\":\"component.done\",\"index\":" +
                                std::to_string(c)),
                std::string::npos)
          << sink.str();
    }
  }
}

TEST(SortMergeSweepTest, ThousandComponentEquijoinIsSweptInPlace) {
  // SolveDecomposed hands sort-merge each component in place: no subgraph
  // reaches PebbleConnected, on either path.
  const CountingSortMerge counting;
  std::vector<Block> blocks;
  for (int i = 0; i < 1000; ++i) blocks.push_back({1 + i % 3, 1 + i % 4});
  const Graph g = ShuffledUnion(blocks, /*seed=*/11);
  const ComponentDecomposition decomp = FindComponents(g);
  ThreadPool pool(4);
  for (ThreadPool* lent : {static_cast<ThreadPool*>(nullptr), &pool}) {
    const Solved got = SolveWith(counting, g, decomp, lent);
    EXPECT_EQ(counting.calls.load(), 0);
    ASSERT_EQ(got.solution.outcomes.size(), 1000u);
    for (const SolveOutcome& outcome : got.solution.outcomes) {
      EXPECT_EQ(outcome.winner, "sort-merge");
    }
    EXPECT_TRUE(VerifyEdgeOrder(g, got.solution.edge_order).valid);
  }
}

TEST(ComponentPebblerTest, EdgeOrderCoversOriginalIds) {
  const LocalSearchPebbler local;
  const GreedyWalkPebbler greedy;
  const ComponentPebbler driver(&local, &greedy);
  const BipartiteGraph u = DisjointUnion(
      DisjointUnion(PathGraph(3), StarGraph(4)), CompleteBipartite(2, 2));
  const Graph g = u.ToGraph();
  const PebbleSolution solution = driver.Solve(g);
  std::vector<bool> seen(g.num_edges(), false);
  for (int e : solution.edge_order) {
    ASSERT_GE(e, 0);
    ASSERT_LT(e, g.num_edges());
    EXPECT_FALSE(seen[e]);
    seen[e] = true;
  }
  EXPECT_EQ(static_cast<int>(solution.edge_order.size()), g.num_edges());
}

}  // namespace
}  // namespace pebblejoin
