#include "solver/dfs_tree_pebbler.h"

#include <algorithm>
#include <vector>

#include "graph/csr_graph.h"
#include "graph/line_graph.h"
#include "util/bitset.h"
#include "util/check.h"

namespace pebblejoin {

namespace {

// A rooted tree over the (remaining) nodes of L(G), with parent/children
// links, supporting the twin-elimination restructures and subtree peeling.
class PeelableTree {
 public:
  explicit PeelableTree(const Graph& line_graph)
      : line_(line_graph),
        csr_(line_graph.csr()),
        parent_(line_graph.num_vertices(), -1),
        children_(line_graph.num_vertices()),
        alive_(line_graph.num_vertices()),
        num_alive_(line_graph.num_vertices()) {
    alive_.SetAll();
    BuildDfsTree();
  }

  int num_alive() const { return num_alive_; }

  // Removes all twins (nodes with two leaf children).
  void EliminateTwins() {
    bool changed = true;
    while (changed) {
      changed = false;
      for (int p = 0; p < line_.num_vertices(); ++p) {
        if (!alive_.Test(p)) continue;
        if (children_[p].size() != 2) continue;
        const int l1 = children_[p][0];
        const int l2 = children_[p][1];
        if (!children_[l1].empty() || !children_[l2].empty()) continue;
        // Twin found. If p is the root the whole tree has three nodes and
        // needs no elimination (the final segment handles it).
        const int gp = parent_[p];
        if (gp == -1) continue;
        if (HasLineEdge(gp, l1)) {
          Reparent(p, l1, gp);
        } else if (HasLineEdge(gp, l2)) {
          Reparent(p, l2, gp);
        } else {
          // p's neighbors gp, l1, l2 must not be pairwise non-adjacent
          // (L(G) is claw-free), so l1-l2 is an edge: chain p—l1—l2.
          JP_CHECK_MSG(HasLineEdge(l1, l2),
                       "induced claw in a line graph (impossible)");
          Detach(l2, p);
          Attach(l2, l1);
        }
        changed = true;
      }
    }
  }

  // Peels the deepest node with >= 4 alive descendants and returns its
  // subtree laid out as a path (leg1 reversed, r, leg2). Requires
  // num_alive() >= 4 and no twins. The remaining nodes stay a tree.
  std::vector<int> PeelDeepSubtreePath() {
    JP_CHECK(num_alive_ >= 4);
    // Subtree sizes and depths over alive nodes.
    const std::vector<int> order = TopDownOrder();
    std::vector<int> size(line_.num_vertices(), 0);
    std::vector<int> depth(line_.num_vertices(), 0);
    for (int i = static_cast<int>(order.size()) - 1; i >= 0; --i) {
      const int v = order[i];
      size[v] += 1;
      if (parent_[v] != -1) size[parent_[v]] += size[v];
    }
    for (int v : order) {
      depth[v] = (parent_[v] == -1) ? 0 : depth[parent_[v]] + 1;
    }

    int r = -1;
    for (int v : order) {
      if (size[v] >= 4 && (r == -1 || depth[v] > depth[r])) r = v;
    }
    JP_CHECK_MSG(r != -1, "no node with >=4 descendants in a tree of >=4");

    // Below r every alive node has at most one child (twin-free + r deepest
    // with >=4 descendants), so the subtree is a path through r.
    std::vector<int> path;
    const std::vector<int>& legs = children_[r];
    JP_CHECK(legs.size() <= 2);
    if (!legs.empty()) {
      std::vector<int> leg1 = WalkChain(legs[0]);
      path.assign(leg1.rbegin(), leg1.rend());
    }
    path.push_back(r);
    if (legs.size() == 2) {
      std::vector<int> leg2 = WalkChain(legs[1]);
      path.insert(path.end(), leg2.begin(), leg2.end());
    }
    JP_CHECK(static_cast<int>(path.size()) == size[r]);

    // Delete the subtree.
    if (parent_[r] != -1) Detach(r, parent_[r]);
    for (int v : path) {
      alive_.Reset(v);
      --num_alive_;
      children_[v].clear();
      parent_[v] = -1;
    }
    return path;
  }

  // Lays out the remaining (<= 3 node) tree as a path.
  std::vector<int> RemainderPath() {
    JP_CHECK(num_alive_ <= 3);
    std::vector<int> nodes;
    for (int v = 0; v < line_.num_vertices(); ++v) {
      if (alive_.Test(v)) nodes.push_back(v);
    }
    if (nodes.size() <= 1) return nodes;
    // A tree with 2 or 3 nodes is a path; order it endpoint-first. The
    // middle node of a 3-path is the one adjacent (in the tree) to both
    // others, i.e. the one with tree-degree 2.
    auto tree_degree = [&](int v) {
      return static_cast<int>(children_[v].size()) +
             (parent_[v] != -1 ? 1 : 0);
    };
    std::sort(nodes.begin(), nodes.end(), [&](int a, int b) {
      return tree_degree(a) < tree_degree(b);
    });
    if (nodes.size() == 3) {
      // nodes[2] has degree 2: put it in the middle.
      std::swap(nodes[1], nodes[2]);
    }
    for (size_t i = 0; i + 1 < nodes.size(); ++i) {
      JP_CHECK_MSG(HasLineEdge(nodes[i], nodes[i + 1]),
                   "remainder tree is not a path in L(G)");
    }
    return nodes;
  }

 private:
  void BuildDfsTree() {
    Bitset visited(line_.num_vertices());
    // The graph is connected (the caller pebbles per component), so one DFS
    // from node 0 covers everything.
    visited.Set(0);
    // Iterative DFS that assigns parents on first discovery, expanding
    // neighbors in incidence order over the contiguous CSR rows.
    std::vector<std::pair<int, size_t>> frames;
    frames.emplace_back(0, 0);
    while (!frames.empty()) {
      auto& [v, idx] = frames.back();
      const CsrSpan nbrs = csr_.Neighbors(static_cast<uint32_t>(v));
      if (idx >= nbrs.size) {
        frames.pop_back();
        continue;
      }
      const int w = static_cast<int>(nbrs[idx]);
      ++idx;
      if (!visited.Test(w)) {
        visited.Set(w);
        parent_[w] = v;
        children_[v].push_back(w);
        frames.emplace_back(w, 0);
      }
    }
    for (int v = 0; v < line_.num_vertices(); ++v) {
      JP_CHECK_MSG(visited.Test(v), "line graph is not connected");
      JP_CHECK_MSG(children_[v].size() <= 2,
                   "DFS node with >2 children in a claw-free graph");
    }
  }

  bool HasLineEdge(int a, int b) const {
    return csr_.HasEdge(static_cast<uint32_t>(a), static_cast<uint32_t>(b));
  }

  // Makes `child` the new child of `new_parent`, detaching from old parent.
  void Attach(int v, int new_parent) {
    parent_[v] = new_parent;
    children_[new_parent].push_back(v);
    JP_CHECK(children_[new_parent].size() <= 2);
  }

  void Detach(int v, int from_parent) {
    std::vector<int>& ch = children_[from_parent];
    auto it = std::find(ch.begin(), ch.end(), v);
    JP_CHECK(it != ch.end());
    ch.erase(it);
    parent_[v] = -1;
  }

  // Twin restructure: gp—p with twins {kept==l_i, other}; becomes
  // gp—l_i—p—other. Requires line edge (gp, l_i).
  void Reparent(int p, int kept, int gp) {
    const int other = (children_[p][0] == kept) ? children_[p][1]
                                                : children_[p][0];
    Detach(p, gp);
    Detach(kept, p);
    Attach(kept, gp);
    Attach(p, kept);
    (void)other;  // stays the single child of p
  }

  // Alive nodes in parent-before-child order.
  std::vector<int> TopDownOrder() const {
    std::vector<int> order;
    order.reserve(num_alive_);
    for (int v = 0; v < line_.num_vertices(); ++v) {
      if (alive_.Test(v) && parent_[v] == -1) {
        // BFS from the root.
        size_t head = order.size();
        order.push_back(v);
        while (head < order.size()) {
          const int u = order[head++];
          for (int c : children_[u]) order.push_back(c);
        }
      }
    }
    JP_CHECK(static_cast<int>(order.size()) == num_alive_);
    return order;
  }

  // Follows the single-child chain starting at `top`, returning the chain
  // top-down. Aborts if a node on the chain has two children.
  std::vector<int> WalkChain(int top) const {
    std::vector<int> chain;
    int v = top;
    while (true) {
      chain.push_back(v);
      if (children_[v].empty()) break;
      JP_CHECK_MSG(children_[v].size() == 1,
                   "branching below the peel root (twin missed)");
      v = children_[v][0];
    }
    return chain;
  }

  const Graph& line_;
  const CsrGraph& csr_;  // line_'s frozen view
  std::vector<int> parent_;
  std::vector<std::vector<int>> children_;
  Bitset alive_;
  int num_alive_;
};

}  // namespace

std::optional<std::vector<int>> DfsTreePebbler::PebbleConnected(
    const Graph& g, BudgetContext* budget) const {
  JP_CHECK(g.num_edges() >= 1);
  if (budget != nullptr && budget->Expired()) return std::nullopt;
  // The configured line-graph budget, tightened by the request's memory
  // ceiling when one is set.
  int64_t max_line_edges = max_line_graph_edges_;
  if (budget != nullptr && budget->budget().has_memory_limit()) {
    max_line_edges = std::min(
        max_line_edges,
        MaxLineGraphEdgesForMemory(budget->budget().memory_limit_bytes));
  }
  std::optional<Graph> line = BuildLineGraphWithBudget(g, max_line_edges);
  if (!line.has_value()) {
    if (budget != nullptr) budget->NoteMemoryDecline();
    return std::nullopt;
  }

  PeelableTree tree(*line);
  std::vector<int> order;
  order.reserve(g.num_edges());
  while (tree.num_alive() >= 4) {
    // A partial segment list is not a pebbling, so expiry discards the run.
    if (budget != nullptr && budget->Expired()) return std::nullopt;
    tree.EliminateTwins();
    if (tree.num_alive() < 4) break;  // defensive; elimination keeps count
    const std::vector<int> segment = tree.PeelDeepSubtreePath();
    order.insert(order.end(), segment.begin(), segment.end());
  }
  const std::vector<int> tail = tree.RemainderPath();
  order.insert(order.end(), tail.begin(), tail.end());
  JP_CHECK(static_cast<int>(order.size()) == g.num_edges());
  return order;
}

}  // namespace pebblejoin
