#include "partition/partitioner.h"

#include <algorithm>
#include <cmath>

#include "graph/components.h"
#include "graph/csr_graph.h"
#include "util/bitset.h"
#include "util/check.h"

namespace pebblejoin {

namespace {

int CeilDiv(int a, int b) { return (a + b - 1) / b; }

}  // namespace

int64_t CountTouchedPairs(const BipartiteGraph& join_graph,
                          const JoinPartition& partition) {
  JP_CHECK(static_cast<int>(partition.left_fragment.size()) ==
           join_graph.left_size());
  JP_CHECK(static_cast<int>(partition.right_fragment.size()) ==
           join_graph.right_size());
  // The exhaustive partitioner calls this in its innermost loop, once per
  // enumerated assignment — the word-packed bitset keeps that scan out of
  // vector<bool>'s bit-proxy codegen and pays back a whole-word Count().
  Bitset touched(static_cast<size_t>(partition.p) * partition.q);
  for (const BipartiteGraph::Edge& e : join_graph.edges()) {
    const int i = partition.left_fragment[e.left];
    const int j = partition.right_fragment[e.right];
    JP_CHECK(0 <= i && i < partition.p && 0 <= j && j < partition.q);
    touched.Set(static_cast<size_t>(i) * partition.q + j);
  }
  return static_cast<int64_t>(touched.Count());
}

int64_t TouchedPairsLowerBound(const BipartiteGraph& join_graph, int p,
                               int q) {
  JP_CHECK(p >= 1 && q >= 1);
  if (join_graph.num_edges() == 0) return 0;
  const int cap_l = CeilDiv(std::max(join_graph.left_size(), 1), p);
  const int cap_r = CeilDiv(std::max(join_graph.right_size(), 1), q);
  // One sub-join covers at most cap_l · cap_r join-graph edges.
  const int64_t by_volume =
      (join_graph.num_edges() + static_cast<int64_t>(cap_l) * cap_r - 1) /
      (static_cast<int64_t>(cap_l) * cap_r);
  // A left vertex of degree d needs its neighbors spread over at least
  // ⌈d / cap_r⌉ right fragments, all touched from that vertex's fragment.
  const Graph flat = join_graph.ToGraph();
  const CsrGraph& csr = flat.csr();
  int64_t by_degree = 0;
  for (int l = 0; l < join_graph.left_size(); ++l) {
    const int degree = static_cast<int>(
        csr.Degree(static_cast<uint32_t>(join_graph.FlatLeftId(l))));
    by_degree = std::max<int64_t>(by_degree, CeilDiv(degree, cap_r));
  }
  return std::max({by_volume, by_degree, int64_t{1}});
}

bool IsBalanced(const BipartiteGraph& join_graph,
                const JoinPartition& partition) {
  const int cap_l = CeilDiv(std::max(join_graph.left_size(), 1), partition.p);
  const int cap_r =
      CeilDiv(std::max(join_graph.right_size(), 1), partition.q);
  std::vector<int> left_load(partition.p, 0);
  std::vector<int> right_load(partition.q, 0);
  for (int f : partition.left_fragment) {
    if (f < 0 || f >= partition.p || ++left_load[f] > cap_l) return false;
  }
  for (int f : partition.right_fragment) {
    if (f < 0 || f >= partition.q || ++right_load[f] > cap_r) return false;
  }
  return true;
}

JoinPartition RoundRobinPartition(const BipartiteGraph& join_graph, int p,
                                  int q) {
  JP_CHECK(p >= 1 && q >= 1);
  JoinPartition partition;
  partition.p = p;
  partition.q = q;
  partition.left_fragment.resize(join_graph.left_size());
  partition.right_fragment.resize(join_graph.right_size());
  for (int l = 0; l < join_graph.left_size(); ++l) {
    partition.left_fragment[l] = l % p;
  }
  for (int r = 0; r < join_graph.right_size(); ++r) {
    partition.right_fragment[r] = r % q;
  }
  return partition;
}

JoinPartition GreedyComponentPartition(const BipartiteGraph& join_graph,
                                       int fragments) {
  JP_CHECK(fragments >= 1);
  const Graph flat = join_graph.ToGraph();
  const ComponentDecomposition decomp = FindComponents(flat);

  JoinPartition partition;
  partition.p = fragments;
  partition.q = fragments;
  partition.left_fragment.assign(join_graph.left_size(), -1);
  partition.right_fragment.assign(join_graph.right_size(), -1);

  const int cap_l = CeilDiv(std::max(join_graph.left_size(), 1), fragments);
  const int cap_r = CeilDiv(std::max(join_graph.right_size(), 1), fragments);
  std::vector<int> left_load(fragments, 0);
  std::vector<int> right_load(fragments, 0);

  auto place_vertex = [&](int flat_id, int fragment) {
    if (flat_id < join_graph.left_size()) {
      partition.left_fragment[flat_id] = fragment;
      ++left_load[fragment];
    } else {
      partition.right_fragment[flat_id - join_graph.left_size()] = fragment;
      ++right_load[fragment];
    }
  };
  // The least-loaded fragment that can still take one vertex of the given
  // side; ties broken by index. Capacity is guaranteed to exist because
  // total capacity >= n on each side.
  auto fragment_with_room = [&](bool left_side) {
    int best = -1;
    for (int f = 0; f < fragments; ++f) {
      const int load = left_side ? left_load[f] : right_load[f];
      const int cap = left_side ? cap_l : cap_r;
      if (load >= cap) continue;
      if (best == -1 ||
          load < (left_side ? left_load[best] : right_load[best])) {
        best = f;
      }
    }
    JP_CHECK(best != -1);
    return best;
  };

  // Components whole, first-fit-decreasing by size.
  std::vector<int> order(decomp.num_components);
  for (int c = 0; c < decomp.num_components; ++c) order[c] = c;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return decomp.vertices_of[a].size() > decomp.vertices_of[b].size();
  });
  for (int c : order) {
    int left_count = 0;
    int right_count = 0;
    for (int v : decomp.vertices_of[c]) {
      (v < join_graph.left_size() ? left_count : right_count) += 1;
    }
    int target = -1;
    for (int f = 0; f < fragments; ++f) {
      if (left_load[f] + left_count <= cap_l &&
          right_load[f] + right_count <= cap_r) {
        target = f;
        break;
      }
    }
    if (target != -1) {
      for (int v : decomp.vertices_of[c]) place_vertex(v, target);
    } else {
      // Oversized component: spill vertex by vertex.
      for (int v : decomp.vertices_of[c]) {
        place_vertex(v, fragment_with_room(v < join_graph.left_size()));
      }
    }
  }
  // Isolated vertices fill residual capacity.
  for (int l = 0; l < join_graph.left_size(); ++l) {
    if (partition.left_fragment[l] == -1) {
      place_vertex(l, fragment_with_room(true));
    }
  }
  for (int r = 0; r < join_graph.right_size(); ++r) {
    if (partition.right_fragment[r] == -1) {
      place_vertex(join_graph.left_size() + r, fragment_with_room(false));
    }
  }
  JP_CHECK(IsBalanced(join_graph, partition));
  return partition;
}

std::optional<JoinPartition> ExhaustiveOptimalPartition(
    const BipartiteGraph& join_graph, int p, int q, int64_t max_states) {
  JP_CHECK(p >= 1 && q >= 1);
  const int left = join_graph.left_size();
  const int right = join_graph.right_size();
  double states = 1;
  for (int i = 0; i < left; ++i) states *= p;
  for (int j = 0; j < right; ++j) states *= q;
  if (states > static_cast<double>(max_states)) return std::nullopt;

  JoinPartition best;
  int64_t best_cost = -1;
  JoinPartition current;
  current.p = p;
  current.q = q;
  current.left_fragment.assign(left, 0);
  current.right_fragment.assign(right, 0);

  // Odometer enumeration over both assignment vectors.
  while (true) {
    if (IsBalanced(join_graph, current)) {
      const int64_t cost = CountTouchedPairs(join_graph, current);
      if (best_cost == -1 || cost < best_cost) {
        best_cost = cost;
        best = current;
      }
    }
    // Increment.
    int pos = 0;
    const int total = left + right;
    while (pos < total) {
      int& digit = (pos < left)
                       ? current.left_fragment[pos]
                       : current.right_fragment[pos - left];
      const int radix = (pos < left) ? p : q;
      if (++digit < radix) break;
      digit = 0;
      ++pos;
    }
    if (pos == total) break;
  }
  JP_CHECK(best_cost != -1);
  return best;
}

}  // namespace pebblejoin
