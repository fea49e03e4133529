// The correctness oracle: every response the benchmark receives is judged
// here, and a response that fails a check counts as a failed request.
//
//   - deterministic lines: the response, normalized by the
//     tools/json_normalize.py rule, must hash equal to the reference that
//     JsonlRequestRunner::Run produced in-process for the same line;
//   - equijoin lines: pi = m and "perfect":true (Thm 3.2);
//   - budgeted lines, whose rungs depend on the clock: the edge order is
//     re-verified with VerifyEdgeOrder on the request graph and its cost
//     must lie in m <= pi <= 2m - b0 (Lemma 2.1 per component).

#ifndef PEBBLEJOIN_BENCH_E2E_ORACLE_H_
#define PEBBLEJOIN_BENCH_E2E_ORACLE_H_

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "corpus.h"
#include "engine/jsonl_request.h"

namespace pebblejoin::e2e {

// FNV-1a of the response with its timing fields zeroed.
uint64_t NormalizedHash(const std::string& json);

// Fingerprint of a solution: edge order and verified costs.
uint64_t SolutionHash(const JoinAnalysis& analysis);

// What the oracle concluded about one response.
struct Verdict {
  bool ok = false;
  int64_t cost = 0;  // pi of the answer (when ok)
  std::string problem;
  // Ladder accounting of budgeted answers, from attempts[].elapsed_us and
  // stats.solve_wall_us.
  int64_t exact_us = 0;
  int64_t discarded_us = 0;  // attempts whose rung did not win
  int64_t solve_us = 0;
};

class ReferenceTable {
 public:
  // Solves every line once through `runner`.
  ReferenceTable(const std::vector<RequestLine>& lines,
                 const JsonlRequestRunner& runner);

  // Byte-compares a deterministic line's response with its reference.
  Verdict Check(const RequestLine& line, const std::string& response) const;

 private:
  struct Expected {
    uint64_t hash = 0;
    int64_t cost = 0;
  };
  std::unordered_map<const RequestLine*, Expected> expected_;
};

Verdict CheckEquijoin(const RequestLine& line, const std::string& response);
Verdict CheckBudgeted(const RequestLine& line, const std::string& response);

}  // namespace pebblejoin::e2e

#endif  // PEBBLEJOIN_BENCH_E2E_ORACLE_H_
