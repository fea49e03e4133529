#include "solver/solve_outcome.h"

namespace pebblejoin {

const char* RungStatusName(RungStatus status) {
  switch (status) {
    case RungStatus::kOptimal:
      return "optimal";
    case RungStatus::kCompleted:
      return "completed";
    case RungStatus::kDeadlineExpired:
      return "deadline-expired";
    case RungStatus::kBudgetExhausted:
      return "budget-exhausted";
    case RungStatus::kMemoryCapped:
      return "memory-capped";
    case RungStatus::kUnsupported:
      return "unsupported";
  }
  return "unknown";
}

RungStatus RungStatusFromStop(BudgetStop stop) {
  switch (stop) {
    case BudgetStop::kDeadlineExpired:
      return RungStatus::kDeadlineExpired;
    case BudgetStop::kNodeBudgetExhausted:
      return RungStatus::kBudgetExhausted;
    case BudgetStop::kNone:
      break;
  }
  return RungStatus::kCompleted;
}

void SolveOutcome::SettleDegradation() {
  degradation = RungStatus::kCompleted;
  for (const RungAttempt& attempt : attempts) {
    if (attempt.status == RungStatus::kDeadlineExpired ||
        attempt.status == RungStatus::kBudgetExhausted ||
        attempt.status == RungStatus::kMemoryCapped) {
      degradation = attempt.status;
      return;
    }
    if (RungProducedOrder(attempt.status)) return;
  }
}

std::string SolveOutcome::Summary(bool with_timing) const {
  std::string out;
  for (size_t i = 0; i < attempts.size(); ++i) {
    if (i > 0) out += " -> ";
    out += attempts[i].solver;
    out += ":";
    out += RungStatusName(attempts[i].status);
    if (with_timing) {
      out += '[';
      out += std::to_string(attempts[i].elapsed_us);
      out += "us]";
    }
  }
  out += " (winner ";
  out += winner.empty() ? "none" : winner;
  if (effective_cost >= 0) {
    out += ", cost ";
    out += std::to_string(effective_cost);
    out += ", lb ";
    out += std::to_string(lower_bound);
  }
  if (degraded()) {
    out += ", degraded: ";
    out += RungStatusName(degradation);
  }
  out += ")";
  return out;
}

}  // namespace pebblejoin
