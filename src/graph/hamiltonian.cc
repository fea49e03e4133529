#include "graph/hamiltonian.h"

#include <cstdint>
#include <utility>

#include "graph/csr_graph.h"
#include "util/check.h"

namespace pebblejoin {

namespace {

// Neighbor bitmasks for the subset DP.
std::vector<uint64_t> AdjacencyMasks(const Graph& g) {
  JP_CHECK(g.num_vertices() <= kMaxHamiltonianVertices);
  return g.csr().NeighborMasks();
}

// reach[mask] = set of vertices v such that some simple path visits exactly
// `mask`, ends at v and starts at `start` (anywhere when start is -1).
// Standard O(2^n · n) Held–Karp-style reachability.
std::vector<uint32_t> PathEndpoints(const std::vector<uint64_t>& adj,
                                    int start) {
  const int n = static_cast<int>(adj.size());
  std::vector<uint32_t> reach(size_t{1} << n, 0);
  for (int v = 0; v < n; ++v) {
    if (start == -1 || v == start) reach[uint32_t{1} << v] = uint32_t{1} << v;
  }
  for (uint32_t mask = 1; mask < (uint32_t{1} << n); ++mask) {
    uint32_t candidates = reach[mask];
    while (candidates != 0) {
      const int v = __builtin_ctz(candidates);
      candidates &= candidates - 1;
      uint32_t nexts = static_cast<uint32_t>(adj[v]) & ~mask;
      while (nexts != 0) {
        const int w = __builtin_ctz(nexts);
        nexts &= nexts - 1;
        reach[mask | (uint32_t{1} << w)] |= uint32_t{1} << w;
      }
    }
  }
  return reach;
}

// Reconstructs a path ending at `end` that covers `mask`, given the DP table.
std::vector<int> ReconstructPath(const std::vector<uint64_t>& adj,
                                 const std::vector<uint32_t>& reach,
                                 uint32_t full_mask, int end) {
  std::vector<int> path;
  uint32_t mask = full_mask;
  int v = end;
  while (true) {
    path.push_back(v);
    const uint32_t rest = mask & ~(uint32_t{1} << v);
    if (rest == 0) break;
    // Find a predecessor u adjacent to v with a path over `rest` ending at u.
    const uint32_t preds = static_cast<uint32_t>(adj[v]) & reach[rest];
    JP_CHECK_MSG(preds != 0, "DP table inconsistent during reconstruction");
    v = __builtin_ctz(preds);
    mask = rest;
  }
  // Built back-to-front.
  std::vector<int> forward(path.rbegin(), path.rend());
  return forward;
}

}  // namespace

bool HasHamiltonianPath(const Graph& g) {
  const int n = g.num_vertices();
  if (n == 0) return false;
  if (n == 1) return true;
  const std::vector<uint32_t> reach = PathEndpoints(AdjacencyMasks(g), -1);
  return reach[(uint32_t{1} << n) - 1] != 0;
}

std::optional<std::vector<int>> FindHamiltonianPath(const Graph& g) {
  const int n = g.num_vertices();
  if (n == 0) return std::nullopt;
  if (n == 1) return std::vector<int>{0};
  const std::vector<uint64_t> adj = AdjacencyMasks(g);
  const std::vector<uint32_t> reach = PathEndpoints(adj, -1);
  const uint32_t full = (uint32_t{1} << n) - 1;
  if (reach[full] == 0) return std::nullopt;
  const int end = __builtin_ctz(reach[full]);
  return ReconstructPath(adj, reach, full, end);
}

std::optional<std::vector<int>> FindHamiltonianPathBetween(const Graph& g,
                                                           int start,
                                                           int end) {
  const int n = g.num_vertices();
  JP_CHECK(0 <= start && start < n && 0 <= end && end < n && start != end);
  const std::vector<uint64_t> adj = AdjacencyMasks(g);
  const std::vector<uint32_t> reach = PathEndpoints(adj, start);
  const uint32_t full = (uint32_t{1} << n) - 1;
  if ((reach[full] & (uint32_t{1} << end)) == 0) return std::nullopt;
  return ReconstructPath(adj, reach, full, end);
}

std::vector<std::pair<int, int>> HamiltonianPathEndpointPairs(const Graph& g) {
  std::vector<std::pair<int, int>> pairs;
  const int n = g.num_vertices();
  if (n < 2) return pairs;
  for (int s = 0; s < n; ++s) {
    for (int e = s + 1; e < n; ++e) {
      if (FindHamiltonianPathBetween(g, s, e).has_value()) {
        pairs.emplace_back(s, e);
      }
    }
  }
  return pairs;
}

}  // namespace pebblejoin
