#include "tsp/blossom_matching.h"

#include <algorithm>

#include "graph/csr_graph.h"
#include "util/check.h"

namespace pebblejoin {

namespace {

// Classic O(V³) blossom search. For each unmatched root we grow an
// alternating tree, contracting odd cycles (blossoms) on the fly by
// remapping vertices to their blossom base.
class BlossomSearch {
 public:
  explicit BlossomSearch(const Graph& g)
      : csr_(g.csr()),
        n_(g.num_vertices()),
        match_(n_, -1),
        parent_(n_, -1),
        base_(n_, 0),
        in_queue_(n_, false),
        in_blossom_(n_, false) {}

  Matching Run() {
    for (int v = 0; v < n_; ++v) {
      if (match_[v] == -1) {
        if (const int leaf = FindAugmentingPath(v); leaf != -1) {
          Augment(leaf);
        }
      }
    }
    Matching result;
    result.match = match_;
    for (int v = 0; v < n_; ++v) {
      if (match_[v] != -1) ++result.size;
    }
    result.size /= 2;
    return result;
  }

 private:
  // Lowest common ancestor of a and b in the alternating tree, walking
  // through blossom bases.
  int FindBase(int a, int b) {
    std::vector<bool> used(n_, false);
    int x = a;
    while (true) {
      x = base_[x];
      used[x] = true;
      if (match_[x] == -1) break;  // reached the root
      x = parent_[match_[x]];
    }
    int y = b;
    while (true) {
      y = base_[y];
      if (used[y]) return y;
      y = parent_[match_[y]];
    }
  }

  // Marks the path from v up to the blossom base, rerouting parents.
  void MarkPath(int v, int b, int child) {
    while (base_[v] != b) {
      in_blossom_[base_[v]] = true;
      in_blossom_[base_[match_[v]]] = true;
      parent_[v] = child;
      child = match_[v];
      v = parent_[match_[v]];
    }
  }

  void ContractBlossom(int a, int b, std::vector<int>* queue) {
    const int base = FindBase(a, b);
    std::fill(in_blossom_.begin(), in_blossom_.end(), false);
    MarkPath(a, base, b);
    MarkPath(b, base, a);
    for (int v = 0; v < n_; ++v) {
      if (in_blossom_[base_[v]]) {
        base_[v] = base;
        if (!in_queue_[v]) {
          in_queue_[v] = true;
          queue->push_back(v);
        }
      }
    }
  }

  // BFS from `root`; returns the far endpoint of an augmenting path, or -1.
  int FindAugmentingPath(int root) {
    std::fill(parent_.begin(), parent_.end(), -1);
    std::fill(in_queue_.begin(), in_queue_.end(), false);
    for (int v = 0; v < n_; ++v) base_[v] = v;

    std::vector<int> queue;
    queue.push_back(root);
    in_queue_[root] = true;

    for (size_t head = 0; head < queue.size(); ++head) {
      const int v = queue[head];
      for (uint32_t w : csr_.Neighbors(v)) {
        const int to = static_cast<int>(w);
        if (base_[v] == base_[to] || match_[v] == to) continue;
        if (to == root || (match_[to] != -1 && parent_[match_[to]] != -1)) {
          // Odd cycle: contract the blossom.
          ContractBlossom(v, to, &queue);
        } else if (parent_[to] == -1) {
          parent_[to] = v;
          if (match_[to] == -1) {
            return to;  // augmenting path found
          }
          if (!in_queue_[match_[to]]) {
            in_queue_[match_[to]] = true;
            queue.push_back(match_[to]);
          }
        }
      }
    }
    return -1;
  }

  // Flips matched/unmatched edges along the path ending at `leaf`.
  void Augment(int leaf) {
    int v = leaf;
    while (v != -1) {
      const int pv = parent_[v];
      const int next = match_[pv];
      match_[v] = pv;
      match_[pv] = v;
      v = next;
    }
  }

  const CsrGraph& csr_;
  int n_;
  std::vector<int> match_;
  std::vector<int> parent_;
  std::vector<int> base_;
  std::vector<bool> in_queue_;
  std::vector<bool> in_blossom_;
};

}  // namespace

Matching MaximumMatching(const Graph& g) {
  Matching result = BlossomSearch(g).Run();
  JP_CHECK_MSG(IsValidMatching(g, result),
               "blossom algorithm produced an invalid matching");
  return result;
}

bool IsValidMatching(const Graph& g, const Matching& matching) {
  if (static_cast<int>(matching.match.size()) != g.num_vertices()) {
    return false;
  }
  const CsrGraph& csr = g.csr();
  int matched = 0;
  for (int v = 0; v < g.num_vertices(); ++v) {
    const int w = matching.match[v];
    if (w == -1) continue;
    if (w < 0 || w >= g.num_vertices() || w == v) return false;
    if (matching.match[w] != v) return false;
    if (!csr.HasEdge(v, w)) return false;
    ++matched;
  }
  return matched == 2 * matching.size;
}

}  // namespace pebblejoin
