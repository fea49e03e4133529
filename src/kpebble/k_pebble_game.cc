#include "kpebble/k_pebble_game.h"

#include <algorithm>

#include "graph/csr_graph.h"
#include "graph/graph_properties.h"
#include "util/bitset.h"
#include "util/check.h"
#include "util/random.h"

namespace pebblejoin {

const char* EvictionPolicyName(EvictionPolicy policy) {
  switch (policy) {
    case EvictionPolicy::kLru:
      return "lru";
    case EvictionPolicy::kRandom:
      return "random";
    case EvictionPolicy::kMinRemainingDegree:
      return "min-degree";
  }
  return "unknown";
}

namespace {

// Scheduler state: buffer contents, per-vertex bookkeeping, edge status.
// Buffer membership and edge liveness live in flat bitsets; the selection
// loop scans whole 64-edge words of the liveness set, skipping deleted
// edges in bulk instead of testing them one by one.
class Scheduler {
 public:
  Scheduler(const Graph& g, const KPebbleOptions& options)
      : g_(g),
        csr_(g.csr()),
        options_(options),
        rng_(options.seed),
        in_buffer_(g.num_vertices()),
        last_use_(g.num_vertices(), 0),
        remaining_degree_(g.num_vertices(), 0),
        edge_alive_(g.num_edges()) {
    JP_CHECK_MSG(options.k >= 2, "the game needs at least two pebbles");
    edge_alive_.SetAll();
    for (int v = 0; v < g.num_vertices(); ++v) {
      remaining_degree_[v] = g.Degree(v);
    }
  }

  KPebbleSchedule Run() {
    KPebbleSchedule schedule;
    schedule.k = options_.k;
    int64_t deleted = 0;

    while (deleted < g_.num_edges()) {
      const int best_edge = PickEdge();
      JP_CHECK(best_edge != -1);
      const Graph::Edge& edge = g_.edge(best_edge);

      for (int endpoint : {edge.u, edge.v}) {
        if (!in_buffer_.Test(endpoint)) {
          Fetch(endpoint, edge, &schedule);
        }
      }
      // Opportunistically delete every edge now inside the buffer (the
      // fetches above may complete several at once).
      deleted += DeleteCoveredEdges(edge.u);
      deleted += DeleteCoveredEdges(edge.v);
      // The chosen edge itself must now be gone.
      JP_CHECK(!edge_alive_.Test(best_edge));
    }
    schedule.fetches = static_cast<int64_t>(schedule.steps.size());
    return schedule;
  }

 private:
  // Pick the cheapest serviceable edge: fewest missing endpoints, ties by
  // LOWER total remaining degree — "cleanup first": finishing nearly-done
  // vertices before eviction pressure mounts is what lets a resident hub
  // stay resident (see the Gₙ case in kpebble_test). Candidates come in
  // ascending edge id from a word scan over the liveness bitset: late in
  // the game most words are zero and whole 64-edge blocks are skipped with
  // one load.
  int PickEdge() {
    int best_edge = -1;
    int best_missing = 3;
    int64_t best_degree = 0;
    const uint64_t* words = edge_alive_.words();
    const size_t num_words = edge_alive_.num_words();
    for (size_t wi = 0; wi < num_words && best_missing != 0; ++wi) {
      uint64_t word = words[wi];
      while (word != 0) {
        const int e = static_cast<int>(
            wi * 64 + static_cast<size_t>(__builtin_ctzll(word)));
        word &= word - 1;
        const uint32_t u = csr_.EdgeU(e);
        const uint32_t v = csr_.EdgeV(e);
        const int missing =
            (in_buffer_.Test(u) ? 0 : 1) + (in_buffer_.Test(v) ? 0 : 1);
        const int64_t degree = remaining_degree_[u] + remaining_degree_[v];
        if (missing < best_missing ||
            (missing == best_missing && degree < best_degree)) {
          best_edge = e;
          best_missing = missing;
          best_degree = degree;
        }
        if (best_missing == 0) break;
      }
    }
    return best_edge;
  }

  void Fetch(int vertex, const Graph::Edge& protect,
             KPebbleSchedule* schedule) {
    int evicted = -1;
    if (static_cast<int>(buffer_.size()) >= options_.k) {
      evicted = PickVictim(protect);
      in_buffer_.Reset(evicted);
      buffer_.erase(std::find(buffer_.begin(), buffer_.end(), evicted));
    }
    buffer_.push_back(vertex);
    in_buffer_.Set(vertex);
    last_use_[vertex] = ++clock_;
    schedule->steps.push_back(KPebbleStep{vertex, evicted});
  }

  // Chooses an eviction victim among buffered vertices, never evicting the
  // endpoints of the edge currently being served.
  int PickVictim(const Graph::Edge& protect) {
    std::vector<int> candidates;
    for (int v : buffer_) {
      if (v != protect.u && v != protect.v) candidates.push_back(v);
    }
    JP_CHECK_MSG(!candidates.empty(), "k >= 2 guarantees a victim exists");
    switch (options_.policy) {
      case EvictionPolicy::kLru: {
        int victim = candidates[0];
        for (int v : candidates) {
          if (last_use_[v] < last_use_[victim]) victim = v;
        }
        return victim;
      }
      case EvictionPolicy::kRandom:
        return candidates[rng_.UniformInt(
            static_cast<int64_t>(candidates.size()))];
      case EvictionPolicy::kMinRemainingDegree: {
        int victim = candidates[0];
        for (int v : candidates) {
          if (remaining_degree_[v] < remaining_degree_[victim]) victim = v;
        }
        return victim;
      }
    }
    return candidates[0];
  }

  // Deletes all undeleted edges from `vertex` to buffered neighbors;
  // returns how many were deleted.
  int64_t DeleteCoveredEdges(int vertex) {
    if (!in_buffer_.Test(vertex)) return 0;
    int64_t deleted = 0;
    const CsrSpan incident = csr_.IncidentEdges(vertex);
    const CsrSpan nbrs = csr_.Neighbors(vertex);
    for (uint32_t i = 0; i < incident.size; ++i) {
      const uint32_t e = incident[i];
      if (!edge_alive_.Test(e)) continue;
      const uint32_t other = nbrs[i];
      if (!in_buffer_.Test(other)) continue;
      edge_alive_.Reset(e);
      --remaining_degree_[vertex];
      --remaining_degree_[other];
      last_use_[vertex] = ++clock_;
      last_use_[other] = clock_;
      ++deleted;
    }
    return deleted;
  }

  const Graph& g_;
  const CsrGraph& csr_;
  const KPebbleOptions options_;
  Rng rng_;
  std::vector<int> buffer_;
  Bitset in_buffer_;
  std::vector<int64_t> last_use_;
  std::vector<int> remaining_degree_;
  Bitset edge_alive_;  // set bit = edge not yet deleted
  int64_t clock_ = 0;
};

}  // namespace

KPebbleSchedule ScheduleKPebbles(const Graph& g,
                                 const KPebbleOptions& options) {
  KPebbleSchedule schedule = Scheduler(g, options).Run();
  std::string error;
  JP_CHECK_MSG(VerifyKPebbleSchedule(g, schedule, &error),
               "scheduler produced an invalid k-pebble schedule");
  return schedule;
}

bool VerifyKPebbleSchedule(const Graph& g, const KPebbleSchedule& schedule,
                           std::string* error) {
  auto fail = [&](const std::string& message) {
    if (error != nullptr) *error = message;
    return false;
  };
  if (schedule.k < 2) return fail("k < 2");
  if (schedule.fetches != static_cast<int64_t>(schedule.steps.size())) {
    return fail("fetch count does not match step count");
  }

  const CsrGraph& csr = g.csr();
  Bitset in_buffer(g.num_vertices());
  Bitset edge_deleted(g.num_edges());
  int buffered = 0;
  int64_t deleted = 0;

  for (const KPebbleStep& step : schedule.steps) {
    if (step.vertex < 0 || step.vertex >= g.num_vertices()) {
      return fail("fetch of unknown vertex");
    }
    if (in_buffer.Test(step.vertex)) return fail("fetch of buffered vertex");
    if (step.evicted != -1) {
      if (step.evicted < 0 || step.evicted >= g.num_vertices() ||
          !in_buffer.Test(step.evicted)) {
        return fail("eviction of non-buffered vertex");
      }
      in_buffer.Reset(step.evicted);
      --buffered;
    }
    in_buffer.Set(step.vertex);
    ++buffered;
    if (buffered > schedule.k) return fail("buffer over capacity");
    // Edges covered by the new resident.
    const CsrSpan incident = csr.IncidentEdges(step.vertex);
    const CsrSpan nbrs = csr.Neighbors(step.vertex);
    for (uint32_t i = 0; i < incident.size; ++i) {
      const uint32_t e = incident[i];
      if (edge_deleted.Test(e)) continue;
      if (in_buffer.Test(nbrs[i])) {
        edge_deleted.Set(e);
        ++deleted;
      }
    }
  }
  if (deleted != g.num_edges()) {
    return fail("schedule leaves " +
                std::to_string(g.num_edges() - deleted) +
                " edge(s) undeleted");
  }
  return true;
}

int64_t KPebbleFetchLowerBound(const Graph& g) {
  return NumNonIsolatedVertices(g);
}

}  // namespace pebblejoin
