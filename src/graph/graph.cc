#include "graph/graph.h"

#include <memory>
#include <utility>

#include "graph/csr_graph.h"
#include "util/check.h"

namespace pebblejoin {

Graph::Graph() = default;
Graph::~Graph() { InvalidateCsr(); }

Graph::Graph(const Graph& other)
    : num_vertices_(other.num_vertices_), edges_(other.edges_) {}

Graph& Graph::operator=(const Graph& other) {
  if (this == &other) return *this;
  InvalidateCsr();
  num_vertices_ = other.num_vertices_;
  edges_ = other.edges_;
  return *this;
}

Graph::Graph(Graph&& other) noexcept
    : num_vertices_(std::exchange(other.num_vertices_, 0)),
      edges_(std::move(other.edges_)),
      csr_(other.csr_.exchange(nullptr)) {}

Graph& Graph::operator=(Graph&& other) noexcept {
  if (this == &other) return *this;
  InvalidateCsr();
  num_vertices_ = std::exchange(other.num_vertices_, 0);
  edges_ = std::move(other.edges_);
  csr_.store(other.csr_.exchange(nullptr));
  return *this;
}

// The simple-graph invariant is checked here, once per freeze, rather
// than per AddEdge.
const CsrGraph& Graph::Freeze() const {
  auto built = std::make_unique<const CsrGraph>(*this);
  JP_CHECK_MSG(built->FirstRepeatedEdge() == -1,
               "parallel edges are not allowed");
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

Graph::Graph(int num_vertices) : num_vertices_(num_vertices) {
  JP_CHECK(num_vertices >= 0);
}

int Graph::AddEdge(int u, int v) {
  JP_CHECK(0 <= u && u < num_vertices_);
  JP_CHECK(0 <= v && v < num_vertices_);
  JP_CHECK_MSG(u != v, "self-loops are not allowed");
  InvalidateCsr();
  edges_.push_back(Edge{u, v});
  return num_edges() - 1;
}

const Graph::Edge& Graph::edge(int e) const {
  JP_CHECK(0 <= e && e < num_edges());
  return edges_[e];
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
