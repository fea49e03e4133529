// Golden pins for the full analysis pipeline: a fixed ~900-instance corpus
// of random, structured, and adversarial join graphs under every solver
// choice, each run at threads 1 and 8. Every run's timing-normalized
// AnalysisJson (NormalizeTimings) must hash, FNV-1a-64, to the value
// committed in tests/golden/solve_golden.txt — same schemes, same costs,
// same classification, same per-component outcomes, byte for byte.
//
// The hashes were recorded while a second, independent adjacency
// traversal (the pre-CSR vector-of-vectors loops) was still pinned
// byte-identical to the CSR one on this exact corpus, so they carry that
// reference forward: a change to any traversal order, tie-break, or report
// field shows up here as a named instance.
//
// A mismatch (or a missing entry) prints the replacement line as
//   [golden] <instance> <hash>
// on stdout. When an output change is intended, regenerate the file from
// those lines: run the binary against an empty golden file and keep the
// `[golden]` lines, sorted, minus the prefix.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "core/report.h"
#include "engine/names.h"
#include "graph/generators.h"
#include "json_test_util.h"

#ifndef PEBBLEJOIN_GOLDEN_FILE
#error "PEBBLEJOIN_GOLDEN_FILE must name tests/golden/solve_golden.txt"
#endif

namespace pebblejoin {
namespace {

struct GoldenCase {
  std::string name;
  BipartiteGraph graph;
  SolverChoice solver = SolverChoice::kAuto;
};

uint64_t Fnv1a64(const std::string& bytes) {
  uint64_t hash = 14695981039346656037ull;
  for (const char c : bytes) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

std::string Hex64(uint64_t value) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(value));
  return buf;
}

// The committed table: instance name -> 16-hex-digit hash. Lines starting
// with '#' are comments.
const std::map<std::string, std::string>& Golden() {
  static const std::map<std::string, std::string> table = [] {
    std::map<std::string, std::string> out;
    std::ifstream in(PEBBLEJOIN_GOLDEN_FILE);
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      std::istringstream fields(line);
      std::string name, hash;
      fields >> name >> hash;
      out[name] = hash;
    }
    return out;
  }();
  return table;
}

// One full pipeline run; returns the hash of the timing-normalized JSON.
std::string RunHash(const BipartiteGraph& g, int threads, SolverChoice solver) {
  AnalyzerOptions options;
  options.threads = threads;
  options.solver = solver;
  const JoinAnalyzer analyzer(options);
  return Hex64(Fnv1a64(NormalizeTimings(
      AnalysisJson(analyzer.AnalyzeJoinGraph(g, PredicateClass::kGeneral)))));
}

void ExpectGolden(const GoldenCase& c) {
  SCOPED_TRACE(c.name);
  const std::string hash1 = RunHash(c.graph, 1, c.solver);
  const std::string hash8 = RunHash(c.graph, 8, c.solver);
  EXPECT_EQ(hash1, hash8) << "thread-count divergence";
  const auto it = Golden().find(c.name);
  if (it == Golden().end() || it->second != hash1) {
    std::cout << "[golden] " << c.name << ' ' << hash1 << '\n';
    ADD_FAILURE() << "golden mismatch; expected "
                  << (it == Golden().end() ? "<missing>" : it->second)
                  << ", got " << hash1;
  }
}

// A mixed random instance: connected, uniform (possibly disconnected, with
// isolated vertices), or a disjoint union of connected blocks.
BipartiteGraph RandomMixedInstance(uint64_t seed) {
  std::mt19937_64 rng(seed);
  switch (rng() % 3) {
    case 0: {
      const int left = 2 + static_cast<int>(rng() % 4);
      const int right = 2 + static_cast<int>(rng() % 4);
      const int min_m = left + right - 1;
      const int max_m = left * right;
      const int m = min_m + static_cast<int>(rng() % (max_m - min_m + 1));
      return RandomConnectedBipartite(left, right, m, rng());
    }
    case 1: {
      const int left = 1 + static_cast<int>(rng() % 5);
      const int right = 1 + static_cast<int>(rng() % 5);
      const int m = static_cast<int>(rng() % (left * right + 1));
      return RandomBipartiteWithEdges(left, right, m, rng());
    }
    default: {
      const auto block = [&rng] {
        const int left = 2 + static_cast<int>(rng() % 3);
        const int right = 2 + static_cast<int>(rng() % 3);
        const int min_m = left + right - 1;
        const int max_m = left * right;
        const int m = min_m + static_cast<int>(rng() % (max_m - min_m + 1));
        return RandomConnectedBipartite(left, right, m, rng());
      };
      BipartiteGraph g = block();
      const int blocks = 1 + static_cast<int>(rng() % 3);
      for (int b = 0; b < blocks; ++b) {
        g = DisjointUnion(g, block());
      }
      return g;
    }
  }
}

// The bulk of the corpus: 600 random instances under the default solver
// pick (kAuto routes per classification).
std::vector<GoldenCase> RandomCorpus() {
  std::vector<GoldenCase> cases;
  for (uint64_t seed = 0; seed < 600; ++seed) {
    cases.push_back({"random/seed=" + std::to_string(seed),
                     RandomMixedInstance(seed), SolverChoice::kAuto});
  }
  return cases;
}

// Every solver choice exercised explicitly — each routes through different
// hot loops (greedy walk cursors, dfs-tree line graphs, ils/local-search
// tours, exact Held-Karp/B&B, fallback ladder).
std::vector<GoldenCase> SolverCorpus() {
  const SolverChoice solvers[] = {
      SolverChoice::kAuto,       SolverChoice::kSortMerge,
      SolverChoice::kGreedyWalk, SolverChoice::kDfsTree,
      SolverChoice::kLocalSearch, SolverChoice::kIls,
      SolverChoice::kExact,      SolverChoice::kFallback,
  };
  std::vector<GoldenCase> cases;
  for (const SolverChoice solver : solvers) {
    for (uint64_t seed = 100; seed < 130; ++seed) {
      cases.push_back({std::string("solver=") + SolverChoiceName(solver) +
                           "/seed=" + std::to_string(seed),
                       RandomMixedInstance(seed), solver});
    }
  }
  return cases;
}

// Structured and adversarial families: the shapes with special-cased
// classifications (complete bipartite, matchings, paths, cycles, stars)
// plus the Theorem 3.3 worst-case family whose line graph is dense.
std::vector<GoldenCase> StructuredCorpus() {
  std::vector<GoldenCase> cases;
  for (int k = 1; k <= 4; ++k) {
    for (int l = 1; l <= 4; ++l) {
      cases.push_back({"complete/k=" + std::to_string(k) +
                           ",l=" + std::to_string(l),
                       CompleteBipartite(k, l)});
    }
  }
  for (int m : {1, 2, 5, 9}) {
    const std::string suffix = "/m=" + std::to_string(m);
    cases.push_back({"matching" + suffix, MatchingGraph(m)});
    cases.push_back({"path" + suffix, PathGraph(m)});
    cases.push_back({"star" + suffix, StarGraph(m)});
  }
  for (int k : {2, 3, 5}) {
    cases.push_back({"cycle/k=" + std::to_string(k), EvenCycle(k)});
  }
  for (int n : {3, 4, 5, 6}) {
    const std::string name = "worstcase/n=" + std::to_string(n);
    cases.push_back({name + "/auto", WorstCaseFamily(n)});
    cases.push_back(
        {name + "/fallback", WorstCaseFamily(n), SolverChoice::kFallback});
  }
  return cases;
}

TEST(SolveGoldenTest, RandomCorpusAutoSolver) {
  for (const GoldenCase& c : RandomCorpus()) ExpectGolden(c);
}

TEST(SolveGoldenTest, EverySolverChoice) {
  for (const GoldenCase& c : SolverCorpus()) ExpectGolden(c);
}

TEST(SolveGoldenTest, StructuredFamilies) {
  for (const GoldenCase& c : StructuredCorpus()) ExpectGolden(c);
}

// The golden file holds exactly the corpus: no instance unpinned, no stale
// entry left behind by a corpus edit.
TEST(SolveGoldenTest, GoldenFileMatchesCorpus) {
  std::set<std::string> names;
  for (const auto& corpus : {RandomCorpus(), SolverCorpus(),
                             StructuredCorpus()}) {
    for (const GoldenCase& c : corpus) {
      EXPECT_TRUE(names.insert(c.name).second) << "duplicate " << c.name;
    }
  }
  std::set<std::string> golden;
  for (const auto& [name, hash] : Golden()) {
    golden.insert(name);
    EXPECT_EQ(hash.size(), 16u) << name;
  }
  EXPECT_EQ(names, golden);
}

}  // namespace
}  // namespace pebblejoin
