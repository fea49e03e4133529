#include "tsp/local_search.h"

#include <algorithm>

#include "obs/solve_stats.h"
#include "util/check.h"

namespace pebblejoin {

namespace {

// 1 if the pair (u, v) is a jump, 0 otherwise; boundary positions (index -1
// or n) contribute 0.
inline int JumpAt(const Tsp12Instance& instance, const Tour& tour, int i) {
  if (i < 0 || i + 1 >= static_cast<int>(tour.size())) return 0;
  return instance.IsGood(tour[i], tour[i + 1]) ? 0 : 1;
}

// One flush per improver call: the hot loops bump plain locals and the
// telemetry write happens on the way out.
inline void FlushLocalSearchStats(BudgetContext* budget, int64_t passes,
                                  int64_t moves) {
  if (budget == nullptr || budget->stats() == nullptr) return;
  budget->stats()->ls_passes += passes;
  budget->stats()->ls_moves_accepted += moves;
}

}  // namespace

int64_t TwoOptImprove(const Tsp12Instance& instance, Tour* tour,
                      const LocalSearchOptions& options,
                      BudgetContext* budget) {
  JP_CHECK(tour != nullptr);
  const int n = static_cast<int>(tour->size());
  if (n < 3) return 0;
  int64_t removed = 0;
  int64_t passes = 0;
  int64_t moves = 0;

  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++passes;
    bool improved = false;
    // Reverse (*tour)[i..j]. Affected pairs: (i-1, i) and (j, j+1) become
    // (i-1, j) and (i, j+1); pairs inside the segment reverse but keep their
    // jump status (weights are symmetric).
    for (int i = 0; i < n - 1; ++i) {
      if (budget != nullptr && budget->Expired()) {
        FlushLocalSearchStats(budget, passes, moves);
        return removed;
      }
      for (int j = i + 1; j < n; ++j) {
        if (i == 0 && j == n - 1) continue;  // whole-tour reversal: no-op
        const int before = JumpAt(instance, *tour, i - 1) +
                           JumpAt(instance, *tour, j);
        int after = 0;
        if (i - 1 >= 0) {
          after += instance.IsGood((*tour)[i - 1], (*tour)[j]) ? 0 : 1;
        }
        if (j + 1 < n) {
          after += instance.IsGood((*tour)[i], (*tour)[j + 1]) ? 0 : 1;
        }
        if (after < before) {
          std::reverse(tour->begin() + i, tour->begin() + j + 1);
          removed += before - after;
          ++moves;
          improved = true;
        }
      }
    }
    if (!improved) break;
  }
  FlushLocalSearchStats(budget, passes, moves);
  return removed;
}

int64_t OrOptImprove(const Tsp12Instance& instance, Tour* tour,
                     const LocalSearchOptions& options,
                     BudgetContext* budget) {
  JP_CHECK(tour != nullptr);
  const int n = static_cast<int>(tour->size());
  if (n < 3) return 0;
  int64_t removed = 0;
  int64_t passes = 0;
  int64_t moves = 0;

  for (int pass = 0; pass < options.max_passes; ++pass) {
    ++passes;
    bool improved = false;
    for (int len = 1; len <= options.max_segment_length; ++len) {
      for (int i = 0; i + len <= n; ++i) {
        if (budget != nullptr && budget->Expired()) {
          FlushLocalSearchStats(budget, passes, moves);
          return removed;
        }
        // Segment s = (*tour)[i .. i+len-1]. Removing it merges (i-1) with
        // (i+len); inserting it after position k (k outside the segment)
        // splits the pair (k, k+1).
        const int seg_first = (*tour)[i];
        const int seg_last = (*tour)[i + len - 1];
        const int removal_before = JumpAt(instance, *tour, i - 1) +
                                   JumpAt(instance, *tour, i + len - 1);
        int removal_after = 0;
        if (i - 1 >= 0 && i + len < n) {
          removal_after +=
              instance.IsGood((*tour)[i - 1], (*tour)[i + len]) ? 0 : 1;
        }
        const int gain_from_removal = removal_before - removal_after;
        if (gain_from_removal <= 0) continue;

        // Try insertion points. Position k means "after tour element k" in
        // the tour *with the segment removed*; we scan the original indices
        // and skip the segment itself.
        for (int k = -1; k < n; ++k) {
          if (k >= i - 1 && k <= i + len - 1) continue;
          const int left = (k >= 0) ? (*tour)[k] : -1;
          int right_index = k + 1;
          if (right_index == i) right_index = i + len;  // skip the segment
          const int right = (right_index < n) ? (*tour)[right_index] : -1;

          const int insertion_before =
              (left != -1 && right != -1)
                  ? (instance.IsGood(left, right) ? 0 : 1)
                  : 0;
          int insertion_after = 0;
          if (left != -1) {
            insertion_after += instance.IsGood(left, seg_first) ? 0 : 1;
          }
          if (right != -1) {
            insertion_after += instance.IsGood(seg_last, right) ? 0 : 1;
          }
          const int delta =
              gain_from_removal + insertion_before - insertion_after;
          if (delta > 0) {
            // Apply: extract the segment, then reinsert.
            std::vector<int> segment(tour->begin() + i,
                                     tour->begin() + i + len);
            tour->erase(tour->begin() + i, tour->begin() + i + len);
            int insert_pos = k + 1;
            if (insert_pos > i) insert_pos -= len;
            tour->insert(tour->begin() + insert_pos, segment.begin(),
                         segment.end());
            removed += delta;
            ++moves;
            improved = true;
            break;  // indices shifted; rescan this segment length
          }
        }
      }
    }
    if (!improved) break;
  }
  FlushLocalSearchStats(budget, passes, moves);
  return removed;
}

int64_t LocalSearchImprove(const Tsp12Instance& instance, Tour* tour,
                           const LocalSearchOptions& options,
                           BudgetContext* budget) {
  // Hardware counters for the combined 2-opt/Or-opt improvement loop. This
  // is the one entry point both LocalSearchPebbler and IlsPebbler funnel
  // through, so ls_cycles covers every local-search consumer.
  Probe perf_probe = HotLoopCounters(budget, &SolveStats::ls_perf);
  int64_t removed = 0;
  for (int round = 0; round < options.max_passes; ++round) {
    if (budget != nullptr && budget->Expired()) break;
    const int64_t before = removed;
    removed += TwoOptImprove(instance, tour, options, budget);
    removed += OrOptImprove(instance, tour, options, budget);
    if (removed == before) break;
  }
  return removed;
}

}  // namespace pebblejoin
