#include "reductions/tsp3_to_pebble.h"

#include <algorithm>

#include "graph/csr_graph.h"
#include "graph/incidence_graph.h"
#include "util/check.h"

namespace pebblejoin {

Tsp3ToPebbleReduction::Tsp3ToPebbleReduction(const Tsp12Instance& g)
    : g_(g),
      b_(BuildIncidenceGraph(g.good())),
      flat_(b_.ToGraph()) {
  const CsrGraph& csr = g_.good().csr();
  for (int v = 0; v < g_.num_nodes(); ++v) {
    JP_CHECK_MSG(csr.Degree(v) >= 1,
                 "isolated node: not a valid PEBBLE reduction input");
  }
}

int Tsp3ToPebbleReduction::IncidenceVertex(int b_edge) const {
  JP_CHECK(0 <= b_edge && b_edge < b_.num_edges());
  const Graph::Edge& e = g_.good().edge(b_edge / 2);
  return (b_edge % 2 == 0) ? e.u : e.v;
}

std::vector<int> Tsp3ToPebbleReduction::LiftTourToEdgeOrder(
    const Tour& g_tour) const {
  JP_CHECK(IsValidTour(g_, g_tour));

  // The incidence ids of vertex v are B's edges at left vertex v, in id
  // order: its CSR row.
  const CsrGraph& incidences = flat_.csr();
  // incidence_id(v, e): which of edge e's two incidences belongs to v.
  auto incidence_id = [&](int v, int g_edge) {
    return (g_.good().edge(g_edge).u == v) ? 2 * g_edge : 2 * g_edge + 1;
  };

  std::vector<bool> emitted(b_.num_edges(), false);
  std::vector<int> order;
  order.reserve(b_.num_edges());

  for (size_t i = 0; i < g_tour.size(); ++i) {
    const int v = g_tour[i];
    // The incidence shared with the next good tour step goes last, so the
    // cross from v's clique to the next vertex's clique is jump-free (the
    // two incidences of the shared edge are adjacent in L(B)).
    int last_incidence = -1;
    if (i + 1 < g_tour.size() && g_.IsGood(v, g_tour[i + 1])) {
      const int shared = static_cast<int>(
          g_.good().csr().FindEdge(v, g_tour[i + 1]));
      last_incidence = incidence_id(v, shared);
    }
    for (const uint32_t inc : incidences.IncidentEdges(b_.FlatLeftId(v))) {
      if (emitted[inc] || static_cast<int>(inc) == last_incidence) continue;
      emitted[inc] = true;
      order.push_back(inc);
    }
    if (last_incidence != -1 && !emitted[last_incidence]) {
      emitted[last_incidence] = true;
      order.push_back(last_incidence);
      // Immediately follow with the partner incidence at the next vertex.
      const int partner = last_incidence ^ 1;
      if (!emitted[partner]) {
        emitted[partner] = true;
        order.push_back(partner);
      }
    }
  }
  JP_CHECK(static_cast<int>(order.size()) == b_.num_edges());
  return order;
}

Tour Tsp3ToPebbleReduction::MapEdgeOrderBack(
    const std::vector<int>& edge_order) const {
  JP_CHECK(static_cast<int>(edge_order.size()) == b_.num_edges());

  // Clique normalization: make each vertex's incidences contiguous at the
  // vertex's first appearance (the analogue of Theorem 4.3's nice-tour
  // surgery; vertex cliques in L(B) are Hamiltonian-connected, so any
  // internal order of the block is jump-free).
  std::vector<int> normalized;
  normalized.reserve(edge_order.size());
  const CsrGraph& incidences = flat_.csr();
  std::vector<bool> vertex_done(g_.num_nodes(), false);
  for (int inc : edge_order) {
    const int v = IncidenceVertex(inc);
    if (vertex_done[v]) continue;
    vertex_done[v] = true;
    // Emit v's whole clique, starting from the incidence that appeared
    // first (preserving the entry pairing when there is one).
    normalized.push_back(inc);
    for (const uint32_t other : incidences.IncidentEdges(b_.FlatLeftId(v))) {
      if (static_cast<int>(other) != inc) normalized.push_back(other);
    }
  }
  JP_CHECK(normalized.size() == edge_order.size());

  Tour g_tour;
  g_tour.reserve(g_.num_nodes());
  std::vector<bool> seen(g_.num_nodes(), false);
  for (int inc : normalized) {
    const int v = IncidenceVertex(inc);
    if (!seen[v]) {
      seen[v] = true;
      g_tour.push_back(v);
    }
  }
  JP_CHECK(IsValidTour(g_, g_tour));
  return g_tour;
}

}  // namespace pebblejoin
