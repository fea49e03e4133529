// Spelled-out names of the engine's request knobs — the single mapping
// between the wire/CLI spelling ("local-search", "equijoin") and the
// enums. Shared by the CLI flag parser and the JSONL batch runner so a
// solver name means the same thing on the command line and in a batch
// line.

#ifndef PEBBLEJOIN_ENGINE_NAMES_H_
#define PEBBLEJOIN_ENGINE_NAMES_H_

#include <string>

#include "engine/solve_engine.h"
#include "join/predicates.h"

namespace pebblejoin {

// "auto", "sort-merge", "greedy", "dfs-tree", "local-search", "ils",
// "exact", "fallback". Returns false on any other spelling; *choice is
// untouched on failure.
bool ParseSolverName(const std::string& name, SolverChoice* choice);

// "equijoin", "spatial", "sets", "general". Returns false on any other
// spelling; *predicate is untouched on failure.
bool ParsePredicateName(const std::string& name, PredicateClass* predicate);

// "ladder", "calibrated". Returns false on any other spelling; *planner is
// untouched on failure.
bool ParsePlannerName(const std::string& name, PlannerChoice* planner);

// The accepted spellings, space-separated, for error messages.
const char* SolverNameList();
const char* PredicateNameList();
const char* PlannerNameList();

// The inverse of ParseSolverName: the wire spelling of `choice`.
const char* SolverChoiceName(SolverChoice choice);

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_ENGINE_NAMES_H_
