// A minimal JSON document model for the observability layer: a tagged
// value (null / bool / integer / double / string / array / object) with a
// serializer and a strict recursive-descent parser. Objects preserve
// insertion order so exported documents lead with their metadata.
//
// This is deliberately not a general-purpose JSON library: no streaming,
// no comments, no UTF-16 surrogate validation beyond pass-through — just
// enough for BENCH_*.json reports, metric snapshots, and trace export,
// with a parser for the schema-validation tests and tools.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

namespace pleroma::obs {

class JsonValue {
 public:
  using Array = std::vector<JsonValue>;
  /// Insertion-ordered key/value list; keys are unique (set() replaces).
  using Object = std::vector<std::pair<std::string, JsonValue>>;

  JsonValue() : value_(nullptr) {}
  JsonValue(std::nullptr_t) : value_(nullptr) {}
  JsonValue(bool b) : value_(b) {}
  JsonValue(double d) : value_(d) {}
  JsonValue(int v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(long v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(long long v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(unsigned v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(unsigned long v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(unsigned long long v) : value_(static_cast<std::int64_t>(v)) {}
  JsonValue(const char* s) : value_(std::string(s)) {}
  JsonValue(std::string s) : value_(std::move(s)) {}
  JsonValue(Array a) : value_(std::move(a)) {}
  JsonValue(Object o) : value_(std::move(o)) {}

  static JsonValue array() { return JsonValue(Array{}); }
  static JsonValue object() { return JsonValue(Object{}); }

  bool isNull() const noexcept { return std::holds_alternative<std::nullptr_t>(value_); }
  bool isBool() const noexcept { return std::holds_alternative<bool>(value_); }
  bool isInt() const noexcept { return std::holds_alternative<std::int64_t>(value_); }
  bool isNumber() const noexcept {
    return isInt() || std::holds_alternative<double>(value_);
  }
  bool isString() const noexcept { return std::holds_alternative<std::string>(value_); }
  bool isArray() const noexcept { return std::holds_alternative<Array>(value_); }
  bool isObject() const noexcept { return std::holds_alternative<Object>(value_); }

  bool asBool() const { return std::get<bool>(value_); }
  std::int64_t asInt() const {
    return isInt() ? std::get<std::int64_t>(value_)
                   : static_cast<std::int64_t>(std::get<double>(value_));
  }
  double asDouble() const {
    return isInt() ? static_cast<double>(std::get<std::int64_t>(value_))
                   : std::get<double>(value_);
  }
  const std::string& asString() const { return std::get<std::string>(value_); }

  Array& items() { return std::get<Array>(value_); }
  const Array& items() const { return std::get<Array>(value_); }
  void push_back(JsonValue v) { items().push_back(std::move(v)); }

  Object& members() { return std::get<Object>(value_); }
  const Object& members() const { return std::get<Object>(value_); }

  /// Sets (or replaces) an object member.
  void set(const std::string& key, JsonValue v);
  /// Member lookup; nullptr when absent or when this is not an object.
  const JsonValue* get(const std::string& key) const noexcept;
  bool contains(const std::string& key) const noexcept { return get(key) != nullptr; }

  /// Serializes; indent < 0 yields compact one-line output.
  std::string dump(int indent = -1) const;

  /// Deepest container nesting parse() accepts. The catalog, reports and
  /// traces nest fewer than 10 levels.
  static constexpr int kMaxParseDepth = 256;

  /// Strict parse of a complete JSON document. On failure returns nullopt
  /// and (when given) describes the problem, with its byte offset, in
  /// *error.
  static std::optional<JsonValue> parse(std::string_view text,
                                        std::string* error = nullptr);

 private:
  void dumpTo(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, std::int64_t, double, std::string, Array,
               Object>
      value_;
};

/// JSON string escaping (shared with the JSONL trace export).
std::string jsonEscape(std::string_view s);

}  // namespace pleroma::obs
