#include "graph/bipartite_graph.h"

#include <algorithm>

#include "util/check.h"

namespace pebblejoin {

BipartiteGraph::BipartiteGraph(int left_size, int right_size)
    : left_size_(left_size), right_size_(right_size) {
  JP_CHECK(left_size >= 0 && right_size >= 0);
}

int BipartiteGraph::AddEdge(int left, int right) {
  JP_CHECK(0 <= left && left < left_size_);
  JP_CHECK(0 <= right && right < right_size_);
  edges_.push_back(Edge{left, right});
  return num_edges() - 1;
}

const BipartiteGraph::Edge& BipartiteGraph::edge(int e) const {
  JP_CHECK(0 <= e && e < num_edges());
  return edges_[e];
}

Graph BipartiteGraph::ToGraph() const {
  Graph g(left_size_ + right_size_);
  for (const Edge& e : edges_) {
    g.AddEdge(FlatLeftId(e.left), FlatRightId(e.right));
  }
  return g;
}

bool BipartiteGraph::SameEdgeSet(const BipartiteGraph& other) const {
  if (left_size_ != other.left_size_ || right_size_ != other.right_size_ ||
      num_edges() != other.num_edges()) {
    return false;
  }
  auto key = [](const Edge& e) { return std::pair<int, int>(e.left, e.right); };
  std::vector<std::pair<int, int>> a, b;
  a.reserve(edges_.size());
  b.reserve(edges_.size());
  for (const Edge& e : edges_) a.push_back(key(e));
  for (const Edge& e : other.edges_) b.push_back(key(e));
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  return a == b;
}

std::string BipartiteGraph::DebugString() const {
  std::string out = "BipartiteGraph(";
  out += std::to_string(left_size_);
  out += 'x';
  out += std::to_string(right_size_);
  out += "):";
  for (const Edge& e : edges_) {
    out += " L";
    out += std::to_string(e.left);
    out += "-R";
    out += std::to_string(e.right);
  }
  return out;
}

}  // namespace pebblejoin
