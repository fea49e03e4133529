// Minimal JSON emitter shared by every machine-readable surface: metric
// snapshots, Chrome trace export, `analyze --json`, and the bench harness's
// BENCH_*.json files.
//
// A JsonWriter is a streaming builder: Begin/End object and array calls,
// Key() between them, and scalar emitters. Comma placement is tracked
// internally, so call sites read like the document they produce. The writer
// does not validate nesting beyond what correct comma placement needs — it
// is an emitter for code that knows its schema, not a general serializer.

#ifndef PEBBLEJOIN_OBS_JSON_H_
#define PEBBLEJOIN_OBS_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace pebblejoin {

// Escapes `s` for inclusion inside a JSON string literal (quotes, control
// characters, backslashes). Does not add the surrounding quotes.
std::string JsonEscape(std::string_view s);

class JsonWriter {
 public:
  void BeginObject();
  void EndObject();
  void BeginArray();
  void EndArray();

  // Emits `"name":` — must be followed by a value or container. Keys and
  // strings are escaped straight into the document.
  void Key(std::string_view name);

  void String(std::string_view value);
  void Int(int64_t value);
  // Non-finite doubles are emitted as null (JSON has no NaN/Infinity).
  void Double(double value);
  void Bool(bool value);
  void Null();

  // Convenience: Key + scalar in one call.
  void Field(std::string_view name, std::string_view value);
  // Without it a literal value would bind to the bool overload: a pointer
  // converts to bool by a standard conversion, to string_view only by a
  // user-defined one.
  void Field(std::string_view name, const char* value) {
    Field(name, std::string_view(value));
  }
  void Field(std::string_view name, int64_t value);
  // Plain ints appear all over the analysis structs; without this delegate
  // the int64/double/bool overloads are ambiguous for them.
  void Field(std::string_view name, int value) {
    Field(name, static_cast<int64_t>(value));
  }
  void Field(std::string_view name, double value);
  void Field(std::string_view name, bool value);

  // The document built so far. TakeString moves it out and resets.
  const std::string& str() const { return out_; }
  std::string TakeString();

 private:
  void BeforeValue();

  std::string out_;
  // One entry per open container: true once the container has a member (so
  // the next member needs a leading comma).
  std::vector<bool> has_member_;
  bool pending_key_ = false;
};

}  // namespace pebblejoin

#endif  // PEBBLEJOIN_OBS_JSON_H_
