#include "obs/log.h"

#include <limits>
#include <ostream>

#include "obs/json.h"

namespace pebblejoin {

const char* LogLevelName(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "debug";
    case LogLevel::kInfo:
      return "info";
    case LogLevel::kWarn:
      return "warn";
    case LogLevel::kError:
      return "error";
    case LogLevel::kOff:
      return "off";
  }
  return "?";
}

bool ParseLogLevel(const std::string& name, LogLevel* level) {
  if (name == "debug") {
    *level = LogLevel::kDebug;
  } else if (name == "info") {
    *level = LogLevel::kInfo;
  } else if (name == "warn") {
    *level = LogLevel::kWarn;
  } else if (name == "error") {
    *level = LogLevel::kError;
  } else if (name == "off") {
    *level = LogLevel::kOff;
  } else {
    return false;
  }
  return true;
}

void WriteLogFieldJson(const LogField& field, JsonWriter* json) {
  switch (field.kind) {
    case LogField::Kind::kInt:
      json->Field(field.key, field.num);
      break;
    case LogField::Kind::kStr:
      json->Field(field.key, field.str);
      break;
    case LogField::Kind::kBool:
      json->Field(field.key, field.num != 0);
      break;
  }
}

void WriteLogEventJson(const LogEvent& event, JsonWriter* json) {
  json->BeginObject();
  json->Field("ts_us", event.ts_us);
  json->Field("level", LogLevelName(event.level));
  json->Field("event", event.name);
  for (const LogField& field : event.fields) WriteLogFieldJson(field, json);
  if (event.worker >= 0) json->Field("worker", event.worker);
  json->EndObject();
}

Journal::Journal(Options options)
    : min_level_(options.min_level), clock_(options.clock) {
  if (clock_ == nullptr) epoch_us_ = Clock::SteadyNowUs();
}

void Journal::AttachStream(std::ostream* out) { out_ = out; }

int64_t Journal::NowUs() const {
  return pebblejoin::NowUs(clock_) - epoch_us_;
}

void Journal::Write(const LogEvent& event) {
  if (!Passes(event.level)) return;
  JsonWriter json;
  WriteLogEventJson(event, &json);
  std::lock_guard<std::mutex> lock(mutex_);
  *out_ << json.str() << '\n';
  out_->flush();
  ++lines_;
}

void Journal::Emit(LogLevel level, std::string name, LogFields fields) {
  LogEvent event;
  event.level = level;
  event.name = std::move(name);
  event.ts_us = NowUs();
  event.fields = std::move(fields);
  Write(event);
}

int64_t Journal::lines_written() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return lines_;
}

EventLog::EventLog(Journal* journal, int capacity)
    : journal_(journal), capacity_(capacity < 1 ? 1 : capacity) {}

EventLog EventLog::WorkerLog() const {
  EventLog worker(journal_, capacity_);
  worker.tee_ = false;
  return worker;
}

EventLog EventLog::GatherLog() const {
  EventLog gather(journal_, std::numeric_limits<int>::max());
  gather.tee_ = false;
  return gather;
}

void EventLog::AddBaseField(LogField field) {
  base_.push_back(std::move(field));
}

int64_t EventLog::NowUs() const {
  return journal_ != nullptr ? journal_->NowUs() : 0;
}

void EventLog::Emit(LogLevel level, std::string name, LogFields fields) {
  LogEvent event;
  event.level = level;
  event.name = std::move(name);
  event.ts_us = NowUs();
  for (const LogField& field : base_) event.fields.push_back(field);
  for (LogField& field : fields) event.fields.push_back(std::move(field));
  if (tee_ && journal_ != nullptr) journal_->Write(event);
  Retain(std::move(event));
}

void EventLog::Retain(LogEvent event) {
  ++emitted_;
  if (static_cast<int>(ring_.size()) == capacity_) {
    ring_.pop_front();
    ++dropped_;
  }
  ring_.push_back(std::move(event));
}

void EventLog::MergeFrom(const EventLog& other, int worker) {
  for (const LogEvent& child : other.ring_) {
    LogEvent event = child;
    if (event.worker < 0) event.worker = worker;
    for (const LogField& field : base_) event.fields.push_back(field);
    if (tee_ && journal_ != nullptr) journal_->Write(event);
    Retain(std::move(event));
  }
  // Events a slice's own ring already evicted are gone for good; account
  // for them so the dump header's drop count stays truthful.
  emitted_ += other.dropped_;
  dropped_ += other.dropped_;
}

void EventLog::DumpFlightRecorder(const std::string& reason) {
  if (!tee_ || journal_ == nullptr || !journal_->Passes(LogLevel::kWarn)) {
    return;
  }
  LogEvent header;
  header.level = LogLevel::kWarn;
  header.name = "flight_recorder.dump";
  header.ts_us = NowUs();
  for (const LogField& field : base_) header.fields.push_back(field);
  header.fields.push_back(LogField::Str("reason", reason));
  header.fields.push_back(
      LogField::Num("retained", static_cast<int64_t>(ring_.size())));
  header.fields.push_back(LogField::Num("dropped", dropped_));
  journal_->Write(header);
  for (const LogEvent& retained : ring_) {
    // Replay at warn so the dump survives the live min-level filter the
    // original event may not have passed.
    LogEvent replay = retained;
    replay.level = LogLevel::kWarn;
    replay.fields.push_back(LogField::Str("replay", LogLevelName(
        retained.level)));
    journal_->Write(replay);
  }
  LogEvent footer;
  footer.level = LogLevel::kWarn;
  footer.name = "flight_recorder.end";
  footer.ts_us = NowUs();
  for (const LogField& field : base_) footer.fields.push_back(field);
  footer.fields.push_back(LogField::Str("reason", reason));
  journal_->Write(footer);
}

}  // namespace pebblejoin
