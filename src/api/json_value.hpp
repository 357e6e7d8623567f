// A small JSON document model with both a parser and a writer — the
// read/write counterpart of the write-only bench::Json the benches emit.
// Objects preserve insertion order (so serialization is deterministic),
// numbers distinguish int64 from double, and dump_string() matches the
// benches' pretty-printed two-space style so BENCH_*.json and the Solver's
// jobs/results files look like one family.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wtam::api {

/// Appends `text` to `out` as a JSON string literal, quoted and escaped
/// exactly as the writer escapes strings (short forms for " \ newline,
/// tab and CR, \u00XX for the other control bytes, everything else —
/// UTF-8 included — passed through).
void append_json_string(std::string& out, std::string_view text);

/// Appends `value` as the writer renders a JSON integer.
void append_json_number(std::string& out, std::int64_t value);
/// Appends `value` as the writer renders a JSON double: %.12g in the C
/// locale, or null when it is not finite (JSON has no inf or nan).
void append_json_number(std::string& out, double value);

/// How many bytes `text` starts with that a JSON string holds as they
/// are: the offset of its first '"', '\\' or byte below 0x20, or its size
/// when it has none. Tests eight bytes a step and never reads past the
/// end; the parser, the writer and the router's line check scan string
/// bodies with it.
[[nodiscard]] std::size_t json_plain_run(std::string_view text) noexcept;

class JsonValue {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Object, Array };

  /// Where one member of a parsed object sits in the parsed text: from its
  /// key's opening quote to just past its value.
  struct MemberSpan {
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  JsonValue() : kind_(Kind::Null) {}

  static JsonValue boolean(bool value);
  static JsonValue number(std::int64_t value);
  static JsonValue number(double value);
  static JsonValue string(std::string value);
  static JsonValue object();
  static JsonValue array();

  /// Parses a complete JSON document (one value, trailing whitespace
  /// allowed). Throws std::runtime_error with a line:column position on
  /// malformed input, duplicate object keys included. Linear in the
  /// input, however many keys an object has. When `spans` is given, it
  /// receives the span of each top-level member in member order (none
  /// when the document is not an object).
  [[nodiscard]] static JsonValue parse(
      const std::string& text, std::vector<MemberSpan>* spans = nullptr);

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::Object;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::Array; }

  /// Typed accessors; throw std::runtime_error on a kind mismatch
  /// (as_double additionally accepts Int, as JSON does not distinguish).
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const&;
  /// The string moved out of an expiring value, which keeps an empty one.
  [[nodiscard]] std::string as_string() &&;

  /// Object member by key; nullptr when absent (or not an object).
  [[nodiscard]] const JsonValue* find(const std::string& key) const noexcept;
  [[nodiscard]] JsonValue* find(const std::string& key) noexcept;
  /// Object members in insertion order. Throws on non-objects.
  [[nodiscard]] const std::vector<std::pair<std::string, JsonValue>>& members()
      const;
  /// Array elements. Throws on non-arrays.
  [[nodiscard]] const std::vector<JsonValue>& elements() const;

  /// Object access: inserts or overwrites `key` (object kind only).
  JsonValue& set(const std::string& key, JsonValue value);
  /// Object access: removes `key` if present (object kind only); returns
  /// whether it was.
  bool erase(const std::string& key);
  /// Array access: appends (array kind only).
  JsonValue& push(JsonValue value);

  /// Pretty-prints in the bench JSON style (two-space indent, ordered
  /// members, non-finite doubles degrade to null).
  [[nodiscard]] std::string dump_string() const;

  /// Single-line rendering (no indentation or newlines, one space after
  /// ':' and ','), same value formatting as dump_string() — the NDJSON
  /// form the wtam_serve wire protocol emits one response per line in.
  [[nodiscard]] std::string dump_compact_string() const;

 private:
  friend class JsonParser;  // json_value.cpp; fills members_ directly

  static constexpr int kCompact = -1;
  /// The one writer: appends this value to `out`, pretty-printed at
  /// nesting level `indent`, or single-line for kCompact.
  void append(std::string& out, int indent) const;

  Kind kind_;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<std::pair<std::string, JsonValue>> members_;
  std::vector<JsonValue> elements_;
};

}  // namespace wtam::api
