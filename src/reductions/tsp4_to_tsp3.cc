#include "reductions/tsp4_to_tsp3.h"

#include <algorithm>

#include "graph/csr_graph.h"
#include "reductions/diamond_gadget.h"
#include "util/check.h"

namespace pebblejoin {

namespace {

// Any corner in 0..3 different from `avoid` (-1 allows any).
int ArbitraryCorner(int avoid) { return (avoid == 0) ? 1 : 0; }

}  // namespace

Tsp4ToTsp3Reduction::Tsp4ToTsp3Reduction(const Tsp12Instance& g)
    : g_(g), h_(Graph(0)) {
  const int n = g_.num_nodes();
  is_diamond_.resize(n);
  base_id_.resize(n);
  corner_neighbor_.assign(n, {-1, -1, -1, -1});

  const CsrGraph& csr = g_.good().csr();
  int next_id = 0;
  for (int u = 0; u < n; ++u) {
    const int degree = static_cast<int>(csr.Degree(u));
    JP_CHECK_MSG(degree <= 4, "input is not a TSP-4(1,2) instance");
    is_diamond_[u] = (degree == 4);
    base_id_[u] = next_id;
    const int width = is_diamond_[u] ? DiamondGadget::kNumNodes : 1;
    for (int k = 0; k < width; ++k) owner_.push_back(u);
    next_id += width;
    if (is_diamond_[u]) {
      const CsrSpan neighbors = csr.Neighbors(u);
      for (int c = 0; c < 4; ++c) {
        corner_neighbor_[u][c] = static_cast<int>(neighbors[c]);
      }
    }
  }
  h_ = BuildH();
}

Tsp12Instance Tsp4ToTsp3Reduction::BuildH() {
  const DiamondGadget& gadget = DiamondGadget::Instance();
  Graph good(static_cast<int>(owner_.size()));

  // Gadget-internal edges.
  for (int u = 0; u < g_.num_nodes(); ++u) {
    if (!is_diamond_[u]) continue;
    for (int e = 0; e < gadget.graph().num_edges(); ++e) {
      const Graph::Edge& edge = gadget.graph().edge(e);
      good.AddEdge(base_id_[u] + edge.u, base_id_[u] + edge.v);
    }
  }
  // Original good edges, attached to corners on the diamond side.
  for (int e = 0; e < g_.good().num_edges(); ++e) {
    const Graph::Edge& edge = g_.good().edge(e);
    good.AddEdge(HIdOf(edge.u, CornerForNeighbor(edge.u, edge.v)),
                 HIdOf(edge.v, CornerForNeighbor(edge.v, edge.u)));
  }
  return Tsp12Instance(std::move(good));
}

int Tsp4ToTsp3Reduction::HIdOf(int g_node, int gadget_node) const {
  JP_CHECK(0 <= g_node && g_node < g_.num_nodes());
  if (!is_diamond_[g_node]) return base_id_[g_node];
  JP_CHECK(0 <= gadget_node && gadget_node < DiamondGadget::kNumNodes);
  return base_id_[g_node] + gadget_node;
}

int Tsp4ToTsp3Reduction::CornerForNeighbor(int g_node, int w) const {
  if (!is_diamond_[g_node]) return -1;
  for (int c = 0; c < 4; ++c) {
    if (corner_neighbor_[g_node][c] == w) return c;
  }
  JP_CHECK_MSG(false, "no corner assigned: {g_node, w} is not a good edge");
  return -1;
}

Tour Tsp4ToTsp3Reduction::LiftTour(const Tour& g_tour) const {
  JP_CHECK(IsValidTour(g_, g_tour));
  const DiamondGadget& gadget = DiamondGadget::Instance();
  Tour h_tour;
  h_tour.reserve(owner_.size());

  for (size_t i = 0; i < g_tour.size(); ++i) {
    const int u = g_tour[i];
    if (!is_diamond_[u]) {
      h_tour.push_back(base_id_[u]);
      continue;
    }
    // Entry corner: the corner wired to the predecessor, when that step is
    // good (so the lifted step stays good); otherwise arbitrary.
    int c1 = -1;
    if (i > 0 && g_.IsGood(g_tour[i - 1], u)) {
      c1 = CornerForNeighbor(u, g_tour[i - 1]);
    }
    int c2 = -1;
    if (i + 1 < g_tour.size() && g_.IsGood(u, g_tour[i + 1])) {
      c2 = CornerForNeighbor(u, g_tour[i + 1]);
    }
    if (c1 == -1) c1 = ArbitraryCorner(c2);
    if (c2 == -1) c2 = ArbitraryCorner(c1);
    JP_CHECK(c1 != c2);
    for (int node : gadget.CornerPath(c1, c2)) {
      h_tour.push_back(base_id_[u] + node);
    }
  }
  return h_tour;
}

Tour Tsp4ToTsp3Reduction::NormalizeToNiceTour(const Tour& h_tour) const {
  JP_CHECK(IsValidTour(h_, h_tour));
  const DiamondGadget& gadget = DiamondGadget::Instance();
  Tour tour = h_tour;

  for (int u = 0; u < g_.num_nodes(); ++u) {
    if (!is_diamond_[u]) continue;

    // Maximal runs of this diamond's nodes: [start, end] position pairs.
    struct Segment {
      int start = 0;
      int end = 0;
      bool perfect = false;
    };
    std::vector<Segment> segments;
    const int len = static_cast<int>(tour.size());
    for (int i = 0; i < len; ++i) {
      if (owner_[tour[i]] != u) continue;
      if (segments.empty() || segments.back().end != i - 1 ||
          owner_[tour[i - 1]] != u) {
        segments.push_back(Segment{i, i, false});
      } else {
        segments.back().end = i;
      }
    }
    JP_CHECK(!segments.empty());
    if (segments.size() == 1 &&
        segments[0].end - segments[0].start + 1 == DiamondGadget::kNumNodes) {
      continue;  // already nice with respect to u
    }

    // Perfectness: all internal steps good, and entered/left through good
    // edges (tour boundaries count as good entries/exits, matching the
    // paper's first/last-node allowance).
    for (Segment& s : segments) {
      bool perfect = true;
      for (int i = s.start; i < s.end; ++i) {
        if (!h_.IsGood(tour[i], tour[i + 1])) perfect = false;
      }
      if (s.start > 0 && !h_.IsGood(tour[s.start - 1], tour[s.start])) {
        perfect = false;
      }
      if (s.end + 1 < len && !h_.IsGood(tour[s.end], tour[s.end + 1])) {
        perfect = false;
      }
      s.perfect = perfect;
    }

    // Choose a perfect segment if available, else the first.
    int chosen = 0;
    for (size_t i = 0; i < segments.size(); ++i) {
      if (segments[i].perfect) {
        chosen = static_cast<int>(i);
        break;
      }
    }

    // Corner choices from the chosen segment's entry and exit nodes.
    const int entry_node = tour[segments[chosen].start] - base_id_[u];
    const int exit_node = tour[segments[chosen].end] - base_id_[u];
    int c1 = DiamondGadget::IsCorner(entry_node) ? entry_node : -1;
    int c2 = DiamondGadget::IsCorner(exit_node) ? exit_node : -1;
    if (c1 != -1 && c1 == c2) c2 = -1;  // single-node segment
    if (c1 == -1) c1 = ArbitraryCorner(c2);
    if (c2 == -1 || c2 == c1) c2 = ArbitraryCorner(c1);

    // Rebuild: the chosen segment becomes the full corner-to-corner path;
    // all other d_u nodes are dropped.
    Tour next;
    next.reserve(tour.size());
    for (int i = 0; i < len; ++i) {
      if (owner_[tour[i]] != u) {
        next.push_back(tour[i]);
        continue;
      }
      if (i == segments[chosen].start) {
        for (int node : gadget.CornerPath(c1, c2)) {
          next.push_back(base_id_[u] + node);
        }
      }
      // Other diamond positions are skipped.
    }
    tour = std::move(next);
    JP_CHECK(IsValidTour(h_, tour));
  }
  return tour;
}

Tour Tsp4ToTsp3Reduction::MapTourBack(const Tour& h_tour) const {
  const Tour nice = NormalizeToNiceTour(h_tour);
  Tour g_tour;
  g_tour.reserve(g_.num_nodes());
  std::vector<bool> seen(g_.num_nodes(), false);
  for (int h_node : nice) {
    const int u = owner_[h_node];
    if (!seen[u]) {
      seen[u] = true;
      g_tour.push_back(u);
    }
  }
  JP_CHECK(IsValidTour(g_, g_tour));
  return g_tour;
}

}  // namespace pebblejoin
