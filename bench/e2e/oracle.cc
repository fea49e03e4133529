#include "oracle.h"

#include <cstdlib>
#include <optional>

#include "graph/components.h"
#include "json_test_util.h"
#include "obs/json_value.h"
#include "pebble/scheme_verifier.h"

namespace pebblejoin::e2e {

namespace {

uint64_t Fnv1a(const void* data, size_t size, uint64_t hash) {
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001B3ULL;
  }
  return hash;
}

constexpr uint64_t kFnvBasis = 0xCBF29CE484222325ULL;

// The integer after the first `"key":` at or past `from`; -1 when absent.
int64_t IntAfter(const std::string& doc, const std::string& key,
                 size_t from = 0) {
  const std::string needle = "\"" + key + "\":";
  const size_t at = doc.find(needle, from);
  if (at == std::string::npos) return -1;
  return std::strtoll(doc.c_str() + at + needle.size(), nullptr, 10);
}

Verdict Fail(std::string problem) {
  Verdict verdict;
  verdict.problem = std::move(problem);
  return verdict;
}

}  // namespace

uint64_t NormalizedHash(const std::string& json) {
  const std::string normalized = NormalizeTimings(json);
  return Fnv1a(normalized.data(), normalized.size(), kFnvBasis);
}

uint64_t SolutionHash(const JoinAnalysis& analysis) {
  const PebbleSolution& s = analysis.solution;
  uint64_t hash = Fnv1a(s.edge_order.data(), s.edge_order.size() * sizeof(int),
                        kFnvBasis);
  hash = Fnv1a(&s.hat_cost, sizeof(s.hat_cost), hash);
  return Fnv1a(&s.effective_cost, sizeof(s.effective_cost), hash);
}

ReferenceTable::ReferenceTable(const std::vector<RequestLine>& lines,
                               const JsonlRequestRunner& runner) {
  JsonlRequestRunner::LineContext context;
  JsonlRequestRunner::Outcome outcome;
  for (const RequestLine& line : lines) {
    const std::string response = runner.Run(line.text, 1, context, &outcome);
    expected_[&line] = {NormalizedHash(response),
                        IntAfter(response, "effective_cost")};
  }
}

Verdict ReferenceTable::Check(const RequestLine& line,
                              const std::string& response) const {
  const auto it = expected_.find(&line);
  if (it == expected_.end()) return Fail("no reference for line");
  if (NormalizedHash(response) != it->second.hash) {
    return Fail("differs from the in-process reference: " +
                response.substr(0, 160));
  }
  Verdict verdict;
  verdict.ok = true;
  verdict.cost = it->second.cost;
  return verdict;
}

Verdict CheckEquijoin(const RequestLine& line, const std::string& response) {
  // A scan, not a parse: these documents run to megabytes and the reader
  // must keep up with the batch it measures.
  const int64_t m = IntAfter(response, "output_size");
  const size_t solution = response.find("\"solution\":");
  const int64_t cost = solution == std::string::npos
                           ? -1
                           : IntAfter(response, "effective_cost", solution);
  if (m != line.edges) {
    return Fail("output_size differs from the request's m: " +
                response.substr(0, 160));
  }
  const size_t perfect = response.rfind("\"perfect\":");
  if (cost != m || perfect == std::string::npos ||
      response.compare(perfect + 10, 4, "true") != 0) {
    return Fail("equijoin answer is not perfect (Thm 3.2)");
  }
  Verdict verdict;
  verdict.ok = true;
  verdict.cost = cost;
  return verdict;
}

Verdict CheckBudgeted(const RequestLine& line, const std::string& response) {
  std::string error;
  const std::optional<JsonValue> doc = JsonValue::Parse(response, &error);
  const JsonValue* solution = doc ? doc->Find("solution") : nullptr;
  if (solution == nullptr) {
    return Fail("not an analysis: " + response.substr(0, 160));
  }
  const JsonValue* order = solution->Find("edge_order");
  const JsonValue* cost = solution->Find("effective_cost");
  if (order == nullptr || cost == nullptr || !cost->int64_value()) {
    return Fail("analysis lacks edge_order or effective_cost");
  }
  std::vector<int> edge_order;
  for (const JsonValue& e : order->array_items()) {
    edge_order.push_back(static_cast<int>(e.int64_value().value_or(-1)));
  }
  const Graph flat = line.graph.ToGraph();
  const VerificationResult verified = VerifyEdgeOrder(flat, edge_order);
  if (!verified.valid) {
    return Fail("edge_order fails verification: " + verified.error);
  }
  const int64_t m = line.edges;
  const int64_t components = FindComponents(flat).num_components;
  if (verified.effective_cost != *cost->int64_value() ||
      verified.effective_cost < m ||
      verified.effective_cost > 2 * m - components) {
    return Fail("cost outside m <= pi <= 2m - b0 or not the verified cost");
  }

  Verdict verdict;
  verdict.ok = true;
  verdict.cost = verified.effective_cost;
  if (const JsonValue* outcomes = solution->Find("outcomes")) {
    for (const JsonValue& outcome : outcomes->array_items()) {
      const JsonValue* winner = outcome.Find("winner");
      const JsonValue* attempts = outcome.Find("attempts");
      if (winner == nullptr || attempts == nullptr) continue;
      for (const JsonValue& attempt : attempts->array_items()) {
        const JsonValue* solver = attempt.Find("solver");
        const JsonValue* elapsed = attempt.Find("elapsed_us");
        if (solver == nullptr || elapsed == nullptr) continue;
        const int64_t us = elapsed->int64_value().value_or(0);
        if (solver->string_value() == "exact") verdict.exact_us += us;
        if (solver->string_value() != winner->string_value()) {
          verdict.discarded_us += us;
        }
      }
    }
  }
  if (const JsonValue* stats = doc->Find("stats")) {
    if (const JsonValue* wall = stats->Find("solve_wall_us")) {
      verdict.solve_us = wall->int64_value().value_or(0);
    }
  }
  return verdict;
}

}  // namespace pebblejoin::e2e
