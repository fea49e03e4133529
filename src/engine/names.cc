#include "engine/names.h"

namespace pebblejoin {

bool ParseSolverName(const std::string& name, SolverChoice* choice) {
  if (name == "auto") *choice = SolverChoice::kAuto;
  else if (name == "sort-merge") *choice = SolverChoice::kSortMerge;
  else if (name == "greedy") *choice = SolverChoice::kGreedyWalk;
  else if (name == "dfs-tree") *choice = SolverChoice::kDfsTree;
  else if (name == "local-search") *choice = SolverChoice::kLocalSearch;
  else if (name == "ils") *choice = SolverChoice::kIls;
  else if (name == "exact") *choice = SolverChoice::kExact;
  else if (name == "fallback") *choice = SolverChoice::kFallback;
  else return false;
  return true;
}

bool ParsePredicateName(const std::string& name, PredicateClass* predicate) {
  if (name == "equijoin") *predicate = PredicateClass::kEquality;
  else if (name == "spatial") *predicate = PredicateClass::kSpatialOverlap;
  else if (name == "sets") *predicate = PredicateClass::kSetContainment;
  else if (name == "general") *predicate = PredicateClass::kGeneral;
  else return false;
  return true;
}

bool ParsePlannerName(const std::string& name, PlannerChoice* planner) {
  if (name == "ladder") *planner = PlannerChoice::kLadder;
  else if (name == "calibrated") *planner = PlannerChoice::kCalibrated;
  else return false;
  return true;
}

const char* SolverNameList() {
  return "auto sort-merge greedy dfs-tree local-search ils exact fallback";
}

const char* PredicateNameList() { return "equijoin spatial sets general"; }

const char* PlannerNameList() { return "ladder calibrated"; }

const char* SolverChoiceName(SolverChoice choice) {
  switch (choice) {
    case SolverChoice::kAuto:
      return "auto";
    case SolverChoice::kSortMerge:
      return "sort-merge";
    case SolverChoice::kGreedyWalk:
      return "greedy";
    case SolverChoice::kDfsTree:
      return "dfs-tree";
    case SolverChoice::kLocalSearch:
      return "local-search";
    case SolverChoice::kIls:
      return "ils";
    case SolverChoice::kExact:
      return "exact";
    case SolverChoice::kFallback:
      return "fallback";
  }
  return "?";
}

}  // namespace pebblejoin
