#include "engine/batch_runner.h"

#include <cstdio>
#include <functional>
#include <istream>
#include <optional>
#include <ostream>
#include <utility>
#include <vector>

#include "engine/jsonl_request.h"
#include "obs/log.h"
#include "obs/metrics.h"
#include "util/check.h"
#include "util/fd_reader.h"
#include "util/ordered_window.h"

namespace pebblejoin {

BatchRunner::BatchRunner(SolveEngine* engine, Options options)
    : engine_(engine), options_(options) {
  JP_CHECK(engine_ != nullptr);
  JP_CHECK_MSG(options_.threads >= 1, "threads must be >= 1");
}

BatchRunner::LineResult BatchRunner::RunLine(
    const JsonlRequestRunner& runner, const DeadlineAdmission& admission,
    const std::string& line, int64_t line_number) {
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
  JsonlRequestRunner::Outcome outcome;
  LineResult result;
  result.text = runner.Run(line, line_number, context, &outcome);
  result.number = line_number;
  result.kind = outcome.disposition;
  result.degraded = outcome.degraded;
  result.latency_ms = NowMs() - start_ms;
  return result;
}

BatchRunner::Summary BatchRunner::Run(std::istream& in, std::ostream& out) {
  return Stream(in, out, nullptr);
}

BatchRunner::Summary BatchRunner::Run(int in_fd, std::ostream& out) {
  FdReader reader(in_fd);
  std::istream in(&reader);
  // The on-wake callback runs inside a refill, and std::istream swallows
  // what a refill throws unless badbit is an exception: a line's rethrown
  // error must leave Run here as it does from the stream overload.
  in.exceptions(std::ios::badbit);
  return Stream(in, out, &reader);
}

BatchRunner::Summary BatchRunner::Stream(std::istream& in, std::ostream& out,
                                         FdReader* reader) {
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
  // "batch.progress" journal event. Runs after a written line, on the owning
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

  // Lines stream through one ordered window, each answer written once it
  // and every line before it are done. Two lines in flight per thread:
  // enough that a worker finishing a line finds the next one queued, few
  // enough that finished answers do not pile up behind a slow line. A line
  // is dispatched once the next line (or EOF) has been read, so a batch
  // whose only line meets EOF runs it on the calling thread, no pool.
  constexpr int kLinesInFlightPerThread = 2;
  const size_t max_in_flight =
      static_cast<size_t>(kLinesInFlightPerThread * options_.threads);
  std::optional<OrderedWindow<LineResult>> window;
  // Writes answers in input order until at most `keep` lines are left in
  // the window: every answer already done, then, blocking, the oldest.
  // `out` is flushed whenever no finished answer is left to write, and a
  // progress report follows a written answer when one is due.
  const auto write_answers = [&](size_t keep) {
    bool unflushed = false;
    LineResult result;
    for (;;) {
      if (!window->TryTake(&result)) {
        if (window->size() <= keep) break;
        if (unflushed) out.flush();
        unflushed = false;
        result = window->Take();
      }
      out << result.text << '\n';
      unflushed = true;
      latencies_ms.push_back(result.latency_ms);
      switch (result.kind) {
        case LineKind::kSolved:
          ++summary.solved;
          if (result.degraded) ++summary.degraded;
          break;
        case LineKind::kError:
          ++summary.errors;
          break;
        case LineKind::kRejected:
          ++summary.rejected;
          if (batch_log.has_value()) {
            batch_log->Emit(
                LogLevel::kWarn, "batch.reject",
                {LogField::Num("line", result.number),
                 LogField::Str("reason", "batch deadline exhausted")});
            if (!dumped_on_reject) {
              batch_log->DumpFlightRecorder("batch-line-rejected");
              dumped_on_reject = true;
            }
          }
          break;
      }
      if (options_.progress_every_ms >= 0) {
        const int64_t now_ms = NowMs();
        if (options_.progress_every_ms == 0 ||
            now_ms - last_progress_ms >= options_.progress_every_ms) {
          report_progress();
          last_progress_ms = now_ms;
        }
      }
    }
    if (unflushed) out.flush();
  };
  // While the reader waits for the next line, landed answers go out: the
  // window's landing hook wakes it, and it writes what is done, in order.
  if (reader != nullptr) {
    reader->OnWake([&] {
      if (window.has_value()) write_answers(window->size());
    });
  }

  // Reads the next non-blank line; false at EOF. Line numbers are 1-based
  // and count blank lines, so error records point at the line the user
  // can see in the input file.
  int64_t line_number = 0;
  const auto read_line = [&](std::string* text) {
    while (std::getline(in, *text)) {
      ++line_number;
      if (!JsonlLineIsBlank(*text)) return true;
    }
    return false;
  };
  std::string next;
  for (bool more = read_line(&next); more;) {
    ++summary.lines_read;
    std::string text = std::move(next);
    const int64_t number = line_number;
    more = read_line(&next);
    if (!window.has_value()) {
      std::function<void()> on_done;
      if (reader != nullptr) on_done = [reader] { reader->Wake(); };
      window.emplace(more && options_.threads > 1
                         ? engine_->EnsurePool(options_.threads)
                         : nullptr,
                     std::move(on_done));
    }
    window->Submit([this, &runner, &admission, text = std::move(text),
                    number] {
      return RunLine(runner, admission, text, number);
    });
    write_answers(max_in_flight - 1);
  }
  if (window.has_value()) write_answers(0);

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
