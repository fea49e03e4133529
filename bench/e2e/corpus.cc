#include "corpus.h"

#include <algorithm>
#include <utility>

#include "graph/generators.h"
#include "io/graph_io.h"
#include "join/join_graph_builder.h"
#include "join/workload.h"
#include "obs/json.h"
#include "util/random.h"

namespace pebblejoin::e2e {

namespace {

// Generators draw from independent streams of one seed.
Rng StreamRng(uint64_t seed, uint64_t stream) {
  uint64_t state = seed * 0x9E3779B97F4A7C15ULL + stream;
  return Rng(SplitMix64(&state));
}

// The same graph under random vertex ids and edge order, so structurally
// repeated shapes still arrive as distinct request bytes.
BipartiteGraph Relabel(const BipartiteGraph& g, Rng* rng) {
  const std::vector<int> left = rng->Permutation(g.left_size());
  const std::vector<int> right = rng->Permutation(g.right_size());
  BipartiteGraph out(g.left_size(), g.right_size());
  for (int e : rng->Permutation(g.num_edges())) {
    out.AddEdge(left[g.edge(e).left], right[g.edge(e).right]);
  }
  return out;
}

RequestLine MakeLine(BipartiteGraph graph, const std::string& extra_members,
                     bool budgeted) {
  RequestLine line;
  line.text = "{\"graph\":\"" + JsonEscape(SerializeBipartiteGraph(graph)) +
              "\"" + extra_members + "}";
  line.edges = graph.num_edges();
  line.budgeted = budgeted;
  if (budgeted) line.graph = std::move(graph);
  return line;
}

int RandomConnectedEdges(int left, int right, int max_edges, Rng* rng) {
  const int lo = left + right - 1;
  const int hi = std::min(left * right, max_edges);
  return static_cast<int>(rng->UniformInt(lo, hi));
}

}  // namespace

std::vector<RequestLine> SmallLines(uint64_t seed, int count) {
  Rng rng = StreamRng(seed, 1);
  std::vector<RequestLine> lines;
  lines.reserve(count);
  for (int i = 0; i < count; ++i) {
    switch (i % 3) {
      case 0: {
        const int n = static_cast<int>(rng.UniformInt(4, 8));
        lines.push_back(MakeLine(Relabel(WorstCaseFamily(n), &rng), "", false));
        break;
      }
      case 1: {
        const int l = static_cast<int>(rng.UniformInt(5, 7));
        const int r = static_cast<int>(rng.UniformInt(5, 7));
        const int m = RandomConnectedEdges(l, r, 40, &rng);
        lines.push_back(MakeLine(
            RandomConnectedBipartite(l, r, m, rng.Next()), "", false));
        break;
      }
      default: {
        const int a = static_cast<int>(rng.UniformInt(2, 4));
        const int b = static_cast<int>(rng.UniformInt(2, 4));
        const int k = static_cast<int>(rng.UniformInt(4, 12));
        lines.push_back(MakeLine(
            Relabel(DisjointUnion(CompleteBipartite(a, b), StarGraph(k)),
                    &rng),
            ",\"predicate\":\"equijoin\"", false));
        break;
      }
    }
  }
  return lines;
}

std::vector<RequestLine> BudgetedLines(uint64_t seed, int count) {
  Rng rng = StreamRng(seed, 2);
  const std::string budget = ",\"solver\":\"fallback\",\"deadline_ms\":" +
                             std::to_string(kBudgetDeadlineMs);
  std::vector<RequestLine> lines;
  lines.reserve(count);
  for (int i = 0; i < count; ++i) {
    BipartiteGraph graph;
    switch (i % 4) {
      case 0:
        graph = Relabel(WorstCaseFamily(7), &rng);
        break;
      case 1:
        graph = Relabel(WorstCaseFamily(8), &rng);
        break;
      case 2:
        graph = RandomConnectedBipartite(7, 7, 16, rng.Next());
        break;
      default:
        graph = RandomConnectedBipartite(8, 8, 20, rng.Next());
        break;
    }
    lines.push_back(MakeLine(std::move(graph), budget, true));
  }
  return lines;
}

std::vector<RequestLine> EquijoinLines(uint64_t seed,
                                       const std::vector<int>& keys,
                                       int per_size) {
  Rng rng = StreamRng(seed, 3);
  std::vector<RequestLine> lines;
  for (int i = 0; i < per_size; ++i) {
    for (int num_keys : keys) {
      EquijoinWorkloadOptions options;
      options.num_keys = num_keys;
      options.key_match_rate = 0.9;
      options.seed = rng.Next();
      const Realization<int64_t> w = GenerateEquijoinWorkload(options);
      lines.push_back(MakeLine(BuildEquiJoinGraph(w.left, w.right),
                               ",\"predicate\":\"equijoin\"", false));
    }
  }
  return lines;
}

RequestLine WarmupLine() {
  return MakeLine(CompleteBipartite(1, 1), ",\"predicate\":\"equijoin\"",
                  false);
}

std::vector<BipartiteGraph> ComponentGraphs(uint64_t seed, int count,
                                            int components) {
  Rng rng = StreamRng(seed, 4);
  std::vector<BipartiteGraph> graphs;
  graphs.reserve(count);
  for (int g = 0; g < count; ++g) {
    std::vector<BipartiteGraph> parts;
    int left = 0;
    int right = 0;
    for (int c = 0; c < components; ++c) {
      const int kind = static_cast<int>(rng.UniformInt(5));
      parts.push_back(kind == 0 ? RandomConnectedBipartite(6, 6, 14, rng.Next())
                                : Relabel(WorstCaseFamily(4 + kind), &rng));
      left += parts.back().left_size();
      right += parts.back().right_size();
    }
    BipartiteGraph graph(left, right);
    int left_base = 0;
    int right_base = 0;
    for (const BipartiteGraph& part : parts) {
      for (const BipartiteGraph::Edge& e : part.edges()) {
        graph.AddEdge(left_base + e.left, right_base + e.right);
      }
      left_base += part.left_size();
      right_base += part.right_size();
    }
    graphs.push_back(std::move(graph));
  }
  return graphs;
}

}  // namespace pebblejoin::e2e
