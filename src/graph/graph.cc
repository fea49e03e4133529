#include "graph/graph.h"

#include <memory>
#include <utility>

#include "graph/csr_graph.h"
#include "util/check.h"

namespace pebblejoin {

Graph::Graph() = default;
Graph::~Graph() { InvalidateCsr(); }

Graph::Graph(const Graph& other)
    : edges_(other.edges_), incident_(other.incident_) {}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  InvalidateCsr();
  edges_ = other.edges_;
  incident_ = other.incident_;
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : edges_(std::move(other.edges_)),
      incident_(std::move(other.incident_)),
      csr_(other.csr_.exchange(nullptr)) {}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) return *this;
  InvalidateCsr();
  edges_ = std::move(other.edges_);
  incident_ = std::move(other.incident_);
  csr_.store(other.csr_.exchange(nullptr));
  return *this;
}

const CsrGraph& Graph::Freeze() const {
  auto built = std::make_unique<const CsrGraph>(*this);
  const CsrGraph* expected = nullptr;
  if (csr_.compare_exchange_strong(expected, built.get())) {
    return *built.release();
  }
  return *expected;  // another thread published first; ours is dropped
}

// Mutation is never concurrent with readers. Loading before exchanging
// keeps the common case (nothing frozen yet) one untaken branch per
// AddEdge instead of a locked exchange.
void Graph::InvalidateCsr() {
  if (const CsrGraph* view = csr_.load()) {
    csr_.store(nullptr);
    delete view;
  }
}

int Graph::Edge::Other(int w) const {
  JP_CHECK(w == u || w == v);
  return (w == u) ? v : u;
}

bool Graph::Edge::Touches(const Edge& other) const {
  return u == other.u || u == other.v || v == other.u || v == other.v;
}

Graph::Graph(int num_vertices) {
  JP_CHECK(num_vertices >= 0);
  incident_.resize(num_vertices);
}

int Graph::AddVertices(int count) {
  JP_CHECK(count >= 0);
  InvalidateCsr();
  const int first = num_vertices();
  incident_.resize(incident_.size() + count);
  return first;
}

int Graph::AddEdge(int u, int v) {
  JP_CHECK(0 <= u && u < num_vertices());
  JP_CHECK(0 <= v && v < num_vertices());
  JP_CHECK_MSG(u != v, "self-loops are not allowed");
  JP_CHECK_MSG(!HasEdge(u, v), "parallel edges are not allowed");
  InvalidateCsr();
  const int id = num_edges();
  edges_.push_back(Edge{u, v});
  incident_[u].push_back(id);
  incident_[v].push_back(id);
  return id;
}

int Graph::AddEdgeUnchecked(int u, int v) {
  JP_CHECK(0 <= u && u < num_vertices());
  JP_CHECK(0 <= v && v < num_vertices());
  JP_CHECK_MSG(u != v, "self-loops are not allowed");
  InvalidateCsr();
  const int id = num_edges();
  edges_.push_back(Edge{u, v});
  incident_[u].push_back(id);
  incident_[v].push_back(id);
  return id;
}

const Graph::Edge& Graph::edge(int e) const {
  JP_CHECK(0 <= e && e < num_edges());
  return edges_[e];
}

int Graph::Degree(int v) const {
  JP_CHECK(0 <= v && v < num_vertices());
  return static_cast<int>(incident_[v].size());
}

const std::vector<int>& Graph::IncidentEdges(int v) const {
  JP_CHECK(0 <= v && v < num_vertices());
  return incident_[v];
}

std::vector<int> Graph::Neighbors(int v) const {
  JP_CHECK(0 <= v && v < num_vertices());
  std::vector<int> out;
  out.reserve(incident_[v].size());
  for (int e : incident_[v]) out.push_back(edges_[e].Other(v));
  return out;
}

bool Graph::HasEdge(int u, int v) const { return FindEdge(u, v) != -1; }

int Graph::FindEdge(int u, int v) const {
  JP_CHECK(0 <= u && u < num_vertices());
  JP_CHECK(0 <= v && v < num_vertices());
  const int probe = (Degree(u) <= Degree(v)) ? u : v;
  const int other = (probe == u) ? v : u;
  for (int e : incident_[probe]) {
    if (edges_[e].Other(probe) == other) return e;
  }
  return -1;
}

std::string Graph::DebugString() const {
  std::string out = "Graph(";
  out += std::to_string(num_vertices());
  out += " vertices):";
  for (const Edge& e : edges_) {
    out += ' ';
    out += std::to_string(e.u);
    out += '-';
    out += std::to_string(e.v);
  }
  return out;
}

}  // namespace pebblejoin
