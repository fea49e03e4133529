#include "obs/bench_report.h"

#include <cstdio>
#include <cstring>

#include "obs/build_info.h"
#include "obs/json.h"
#include "util/file_io.h"

namespace pebblejoin {

BenchReport::BenchReport(const std::string& name, int argc, char** argv)
    : name_(name), path_("BENCH_" + name + ".json") {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json_enabled_ = true;
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_enabled_ = true;
      path_ = argv[i] + 7;
    }
  }
}

void BenchReport::AddTable(const std::string& id, const TablePrinter& table) {
  if (!json_enabled_) return;
  TableSnapshot snapshot;
  snapshot.id = id;
  snapshot.headers = table.headers();
  snapshot.rows = table.rows();
  tables_.push_back(std::move(snapshot));
}

bool BenchReport::Finish() {
  if (finished_ || !json_enabled_) {
    finished_ = true;
    return true;
  }
  finished_ = true;

  JsonWriter json;
  json.BeginObject();
  json.Field("bench", name_);
  // Build provenance rides in every bench document so a regression found
  // by tools/bench_compare.py names the exact build pair that diverged.
  json.Key("build");
  WriteBuildInfoJson(&json);
  json.Key("tables");
  json.BeginArray();
  for (const TableSnapshot& table : tables_) {
    json.BeginObject();
    json.Field("id", table.id);
    json.Key("headers");
    json.BeginArray();
    for (const std::string& h : table.headers) json.String(h);
    json.EndArray();
    json.Key("rows");
    json.BeginArray();
    for (const auto& row : table.rows) {
      json.BeginArray();
      for (const std::string& cell : row) json.String(cell);
      json.EndArray();
    }
    json.EndArray();
    json.EndObject();
  }
  json.EndArray();
  json.EndObject();

  const FileStatus status = WriteStringToFile(path_, json.str());
  if (!status.ok()) {
    std::fprintf(stderr, "error: %s\n", status.Message(path_).c_str());
  }
  return status.ok();
}

BenchReport::~BenchReport() { Finish(); }

}  // namespace pebblejoin
