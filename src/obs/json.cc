#include "obs/json.h"

#include <charconv>
#include <cmath>
#include <cstdio>
#include <utility>

namespace pebblejoin {

namespace {

// Appends `s` escaped to `*out`, copying each run of bytes that need no
// escape in one append.
void AppendEscaped(std::string_view s, std::string* out) {
  static constexpr char kHex[] = "0123456789abcdef";
  size_t run = 0;  // first byte not yet appended
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out->append(s.data() + run, i - run);
    run = i + 1;
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\b':
        *out += "\\b";
        break;
      case '\f':
        *out += "\\f";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default: {
        const char escape[] = {'\\', 'u',           '0',
                               '0',  kHex[c >> 4], kHex[c & 0xf]};
        out->append(escape, sizeof(escape));
      }
    }
  }
  out->append(s.data() + run, s.size() - run);
}

}  // namespace

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  AppendEscaped(s, &out);
  return out;
}

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    pending_key_ = false;
    return;
  }
  if (!has_member_.empty()) {
    if (has_member_.back()) out_ += ',';
    has_member_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_ += '{';
  has_member_.push_back(false);
}

void JsonWriter::EndObject() {
  has_member_.pop_back();
  out_ += '}';
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_ += '[';
  has_member_.push_back(false);
}

void JsonWriter::EndArray() {
  has_member_.pop_back();
  out_ += ']';
}

void JsonWriter::Key(std::string_view name) {
  BeforeValue();
  out_ += '"';
  AppendEscaped(name, &out_);
  out_ += "\":";
  pending_key_ = true;
}

void JsonWriter::String(std::string_view value) {
  BeforeValue();
  out_ += '"';
  AppendEscaped(value, &out_);
  out_ += '"';
}

void JsonWriter::Int(int64_t value) {
  BeforeValue();
  char buf[24];
  const std::to_chars_result end =
      std::to_chars(buf, buf + sizeof(buf), value);
  out_.append(buf, end.ptr);
}

void JsonWriter::Double(double value) {
  BeforeValue();
  if (!std::isfinite(value)) {
    out_ += "null";
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  out_ += buf;
}

void JsonWriter::Bool(bool value) {
  BeforeValue();
  out_ += value ? "true" : "false";
}

void JsonWriter::Null() {
  BeforeValue();
  out_ += "null";
}

void JsonWriter::Field(std::string_view name, std::string_view value) {
  Key(name);
  String(value);
}

void JsonWriter::Field(std::string_view name, int64_t value) {
  Key(name);
  Int(value);
}

void JsonWriter::Field(std::string_view name, double value) {
  Key(name);
  Double(value);
}

void JsonWriter::Field(std::string_view name, bool value) {
  Key(name);
  Bool(value);
}

std::string JsonWriter::TakeString() {
  has_member_.clear();
  pending_key_ = false;
  return std::move(out_);
}

}  // namespace pebblejoin
