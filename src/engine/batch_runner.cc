#include "engine/batch_runner.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <istream>
#include <ostream>
#include <vector>

#include "engine/jsonl_request.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/thread_pool.h"

namespace pebblejoin {

BatchRunner::BatchRunner(SolveEngine* engine, Options options)
    : engine_(engine), options_(options) {
  JP_CHECK(engine_ != nullptr);
  JP_CHECK_MSG(options_.threads >= 1, "threads must be >= 1");
  JP_CHECK_MSG(options_.block_lines >= 1, "block_lines must be >= 1");
}

int64_t BatchRunner::NowMs() const {
  if (options_.clock) return options_.clock();
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string BatchRunner::RunLine(const JsonlRequestRunner& runner,
                                 const DeadlineAdmission& admission,
                                 const std::string& line, int64_t line_number,
                                 LineOutcome* outcome) {
  // The first clock read doubles as the admission time (the same read the
  // latency measurement takes) — under fan-out that is the worker's start,
  // which is exactly the admission semantics a shared pool implies.
  const int64_t start_ms = NowMs();
  JsonlRequestRunner::LineContext context;
  context.admission = &admission;
  context.now_ms = start_ms;
  context.reject_reason = "batch deadline exhausted";
  // Formatted, then moved in: GCC 12 at -O2 raises a false -Wrestrict on
  // `"L" + std::to_string(...)` and on assigning a literal to the member.
  char fallback_id[24];
  std::snprintf(fallback_id, sizeof(fallback_id), "L%lld",
                static_cast<long long>(line_number));
  context.fallback_id = std::string(fallback_id);
  JsonlRequestRunner::Outcome line_outcome;
  std::string result = runner.Run(line, line_number, context, &line_outcome);
  outcome->kind = line_outcome.disposition;
  outcome->degraded = line_outcome.degraded;
  outcome->latency_ms = NowMs() - start_ms;
  return result;
}

BatchRunner::Summary BatchRunner::Run(std::istream& in, std::ostream& out) {
  batch_start_ms_ = NowMs();
  Summary summary;

  // The shared per-line machinery: parsing/solving and clamp-or-shed
  // admission are the exact objects `pebblejoin serve` drives, so a line
  // means the same thing in a file and on a socket.
  JsonlRequestRunner::Defaults defaults;
  defaults.predicate = options_.default_predicate;
  const JsonlRequestRunner runner(engine_, defaults);
  const DeadlineAdmission admission(options_.batch_deadline_ms,
                                    options_.admission, batch_start_ms_);

  // Batch-level event carrier: batch.begin/progress/reject/end tee into
  // the engine's journal, and the retained ring is dumped when the first
  // line is rejected — the batch history is the postmortem for "why did
  // the pool run dry here". Lives on the owning thread only.
  Journal* journal = engine_->defaults().journal;
  std::optional<EventLog> batch_log;
  if (journal != nullptr) {
    batch_log.emplace(journal, engine_->defaults().flight_recorder);
    batch_log->Emit(LogLevel::kInfo, "batch.begin",
                    {LogField::Num("expected_lines", options_.expected_lines),
                     LogField::Num("threads", options_.threads)});
  }

  std::vector<int64_t> latencies_ms;
  bool dumped_on_reject = false;
  int64_t last_progress_ms = batch_start_ms_;

  // One progress report: a stderr-style line on options_.progress plus a
  // "batch.progress" journal event. Runs after a block, on the owning
  // thread, entirely on the injectable clock — deterministic under
  // FakeClock, which is what the batch_runner tests pin.
  const auto report_progress = [&]() {
    const int64_t done = static_cast<int64_t>(latencies_ms.size());
    const int64_t elapsed_ms = NowMs() - batch_start_ms_;
    const int64_t p50 = PercentileOfSamples(latencies_ms, 0.50);
    const int64_t p95 = PercentileOfSamples(latencies_ms, 0.95);
    int64_t eta_ms = -1;
    if (options_.expected_lines >= 0 && done > 0) {
      eta_ms = elapsed_ms * (options_.expected_lines - done) / done;
      if (eta_ms < 0) eta_ms = 0;
    }
    if (options_.progress != nullptr) {
      std::ostream& prog = *options_.progress;
      prog << "batch: " << done;
      if (options_.expected_lines >= 0) prog << "/" << options_.expected_lines;
      prog << " solved=" << summary.solved << " errors=" << summary.errors
           << " rejected=" << summary.rejected
           << " degraded=" << summary.degraded << " p50=" << p50
           << "ms p95=" << p95 << "ms";
      if (eta_ms >= 0) prog << " eta=" << eta_ms << "ms";
      prog << "\n";
      prog.flush();
    }
    if (batch_log.has_value()) {
      batch_log->Emit(LogLevel::kInfo, "batch.progress",
                      {LogField::Num("done", done),
                       LogField::Num("total", options_.expected_lines),
                       LogField::Num("solved", summary.solved),
                       LogField::Num("errors", summary.errors),
                       LogField::Num("rejected", summary.rejected),
                       LogField::Num("degraded", summary.degraded),
                       LogField::Num("latency_p50_ms", p50),
                       LogField::Num("latency_p95_ms", p95),
                       LogField::Num("elapsed_ms", elapsed_ms),
                       LogField::Num("eta_ms", eta_ms)});
    }
  };

  // Block ids are global line numbers (1-based, blank lines included) so
  // error records point at the line the user can see in the input file.
  struct PendingLine {
    std::string text;
    int64_t number = 0;
  };
  int64_t next_line_number = 0;
  std::string line;
  bool eof = false;

  while (!eof) {
    std::vector<PendingLine> block;
    block.reserve(static_cast<size_t>(options_.block_lines));
    while (static_cast<int>(block.size()) < options_.block_lines) {
      if (!std::getline(in, line)) {
        eof = true;
        break;
      }
      ++next_line_number;
      if (JsonlLineIsBlank(line)) continue;
      block.push_back(PendingLine{line, next_line_number});
    }
    if (block.empty()) continue;
    summary.lines_read += static_cast<int64_t>(block.size());

    const int n = static_cast<int>(block.size());
    std::vector<std::string> results(n);
    std::vector<LineOutcome> outcomes(n);
    const auto run_one = [&](int i) {
      results[i] =
          RunLine(runner, admission, block[i].text, block[i].number,
                  &outcomes[i]);
    };
    const int threads = std::min(options_.threads, n);
    if (threads > 1) {
      engine_->EnsurePool(threads)->ParallelFor(n, run_one);
    } else {
      for (int i = 0; i < n; ++i) run_one(i);
    }

    // Emit in input order regardless of completion order.
    for (int i = 0; i < n; ++i) {
      out << results[i] << '\n';
      latencies_ms.push_back(outcomes[i].latency_ms);
      switch (outcomes[i].kind) {
        case LineKind::kSolved:
          ++summary.solved;
          if (outcomes[i].degraded) ++summary.degraded;
          break;
        case LineKind::kError:
          ++summary.errors;
          break;
        case LineKind::kRejected:
          ++summary.rejected;
          if (batch_log.has_value()) {
            batch_log->Emit(
                LogLevel::kWarn, "batch.reject",
                {LogField::Num("line", block[i].number),
                 LogField::Str("reason", "batch deadline exhausted")});
            if (!dumped_on_reject) {
              batch_log->DumpFlightRecorder("batch-line-rejected");
              dumped_on_reject = true;
            }
          }
          break;
      }
    }
    out.flush();

    if (options_.progress_every_ms >= 0) {
      const int64_t now_ms = NowMs();
      if (options_.progress_every_ms == 0 ||
          now_ms - last_progress_ms >= options_.progress_every_ms) {
        report_progress();
        last_progress_ms = now_ms;
      }
    }
  }

  summary.latency_p50_ms = PercentileOfSamples(latencies_ms, 0.50);
  summary.latency_p95_ms = PercentileOfSamples(latencies_ms, 0.95);
  summary.latency_p99_ms = PercentileOfSamples(latencies_ms, 0.99);
  if (batch_log.has_value()) {
    batch_log->Emit(LogLevel::kInfo, "batch.end",
                    {LogField::Num("lines", summary.lines_read),
                     LogField::Num("solved", summary.solved),
                     LogField::Num("errors", summary.errors),
                     LogField::Num("rejected", summary.rejected),
                     LogField::Num("degraded", summary.degraded),
                     LogField::Num("latency_p50_ms", summary.latency_p50_ms),
                     LogField::Num("latency_p95_ms", summary.latency_p95_ms),
                     LogField::Num("latency_p99_ms", summary.latency_p99_ms),
                     LogField::Num("elapsed_ms", NowMs() - batch_start_ms_)});
  }
  return summary;
}

}  // namespace pebblejoin
