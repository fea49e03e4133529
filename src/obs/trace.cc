#include "obs/trace.h"

#include <cstdio>

#include "obs/json.h"

namespace pebblejoin {

TraceSession::TraceSession(const Clock* clock) : clock_(clock) {
  if (clock_ == nullptr) epoch_us_ = Clock::SteadyNowUs();
}

TraceSession TraceSession::WorkerSession() const {
  TraceSession worker(clock_);
  worker.epoch_us_ = epoch_us_;
  return worker;
}

void TraceSession::Instant(const std::string& name,
                           const std::string& category, TraceArgs args) {
  Event event;
  event.name = name;
  event.category = category;
  event.phase = 'i';
  event.ts_us = NowUs();
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void TraceSession::Complete(const std::string& name,
                            const std::string& category, int64_t start_us,
                            int64_t duration_us, TraceArgs args) {
  Event event;
  event.name = name;
  event.category = category;
  event.phase = 'X';
  event.ts_us = start_us;
  event.duration_us = duration_us;
  event.args = std::move(args);
  events_.push_back(std::move(event));
}

void TraceSession::MergeFrom(const TraceSession& other, const TraceArg& tag) {
  events_.reserve(events_.size() + other.events_.size());
  for (const Event& event : other.events_) {
    Event copy = event;
    copy.args.push_back(tag);
    events_.push_back(std::move(copy));
  }
}

void TraceSession::WriteJson(JsonWriter* json) const {
  json->BeginObject();
  json->Key("traceEvents");
  json->BeginArray();
  for (const Event& event : events_) {
    json->BeginObject();
    json->Field("name", event.name);
    json->Field("cat", event.category);
    json->Field("ph", std::string(1, event.phase));
    json->Field("ts", event.ts_us);
    if (event.phase == 'X') json->Field("dur", event.duration_us);
    if (event.phase == 'i') json->Field("s", "t");  // thread-scoped instant
    json->Field("pid", int64_t{1});
    json->Field("tid", int64_t{1});
    if (!event.args.empty()) {
      json->Key("args");
      json->BeginObject();
      for (const TraceArg& arg : event.args) WriteLogFieldJson(arg, json);
      json->EndObject();
    }
    json->EndObject();
  }
  json->EndArray();
  json->Field("displayTimeUnit", "ms");
  json->EndObject();
}

std::string TraceSession::ToJson() const {
  JsonWriter json;
  WriteJson(&json);
  return json.TakeString();
}

bool TraceSession::WriteFile(const std::string& path,
                             std::string* error) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    if (error != nullptr) *error = "cannot open '" + path + "' for writing";
    return false;
  }
  const std::string json = ToJson();
  const size_t written = std::fwrite(json.data(), 1, json.size(), f);
  const bool close_ok = std::fclose(f) == 0;
  if (written != json.size() || !close_ok) {
    if (error != nullptr) *error = "short write to '" + path + "'";
    return false;
  }
  return true;
}

}  // namespace pebblejoin
