#include "paging/page_schedule.h"

#include <cstdint>
#include <unordered_set>

#include "graph/components.h"
#include "solver/greedy_walk_pebbler.h"
#include "util/check.h"

namespace pebblejoin {

BipartiteGraph BuildPageJoinGraph(const BipartiteGraph& tuple_join_graph,
                                  const PageLayout& left_layout,
                                  const PageLayout& right_layout) {
  JP_CHECK(IsValidLayout(left_layout, tuple_join_graph.left_size()));
  JP_CHECK(IsValidLayout(right_layout, tuple_join_graph.right_size()));
  BipartiteGraph page_graph(left_layout.num_pages, right_layout.num_pages);
  // Page pairs already added, keyed lp * right pages + rp: the first tuple
  // edge between two pages adds the page edge, later ones are absorbed.
  std::unordered_set<int64_t> added;
  for (const BipartiteGraph::Edge& e : tuple_join_graph.edges()) {
    const int lp = left_layout.page_of[e.left];
    const int rp = right_layout.page_of[e.right];
    const int64_t key =
        static_cast<int64_t>(lp) * right_layout.num_pages + rp;
    if (added.insert(key).second) page_graph.AddEdge(lp, rp);
  }
  return page_graph;
}

PageSchedule SchedulePageFetches(const BipartiteGraph& tuple_join_graph,
                                 const PageLayout& left_layout,
                                 const PageLayout& right_layout,
                                 const Pebbler& pebbler) {
  PageSchedule schedule;
  schedule.page_graph =
      BuildPageJoinGraph(tuple_join_graph, left_layout, right_layout);

  const GreedyWalkPebbler fallback;
  const ComponentPebbler driver(&pebbler, &fallback);
  const Graph flat = schedule.page_graph.ToGraph();
  schedule.solution = driver.Solve(flat);
  schedule.page_fetches = schedule.solution.hat_cost;
  // Per component with m_c edges, π̂_c >= m_c + 1 (Lemma 2.1), so the total
  // fetch count is at least m + β₀.
  schedule.lower_bound =
      schedule.page_graph.num_edges() + BettiZero(flat);
  return schedule;
}

}  // namespace pebblejoin
