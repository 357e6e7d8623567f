#include "api/json_value.hpp"

#include <algorithm>
#include <bit>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <stdexcept>
#include <system_error>
#include <unordered_set>
#include <utility>

namespace wtam::api {

std::size_t json_plain_run(std::string_view text) noexcept {
  constexpr std::uint64_t kOnes = 0x0101010101010101u;
  constexpr std::uint64_t kHighs = kOnes * 0x80;
  // zero_bytes flags each zero byte of `word`. A borrow can also flag a
  // byte above a flagged one, never one below, so the lowest flag is
  // exact; the below-0x20 test works the same way, so the lowest flag of
  // the three marks the byte that ends the run.
  const auto zero_bytes = [](std::uint64_t word) {
    return (word - kOnes) & ~word & kHighs;
  };
  const char* const data = text.data();
  std::size_t i = 0;
  for (; i + 8 <= text.size(); i += 8) {
    std::uint64_t word = 0;
    std::memcpy(&word, data + i, 8);
    if constexpr (std::endian::native == std::endian::big)
      word = __builtin_bswap64(word);  // byte i + k in bits 8k..8k+7
    const std::uint64_t stops = zero_bytes(word ^ (kOnes * '"')) |
                                zero_bytes(word ^ (kOnes * '\\')) |
                                ((word - kOnes * 0x20) & ~word & kHighs);
    if (stops != 0)
      return i + static_cast<std::size_t>(std::countr_zero(stops)) / 8;
  }
  for (; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(data[i]);
    if (c == '"' || c == '\\' || c < 0x20) return i;
  }
  return i;
}

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  // Plain bytes go out in runs; only the bytes JSON needs escaped stop
  // a run.
  for (;;) {
    const std::size_t run = json_plain_run(text);
    out.append(text.data(), run);
    if (run == text.size()) break;
    const auto c = static_cast<unsigned char>(text[run]);
    text.remove_prefix(run + 1);
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        static constexpr char kHex[] = "0123456789abcdef";
        const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        out.append(escape, sizeof escape);
      }
    }
  }
  out += '"';
}

void append_json_number(std::string& out, std::int64_t value) {
  char buffer[24];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
  out.append(buffer, end);
}

void append_json_number(std::string& out, double value) {
  // Degrading to null rather than producing an unparsable file is
  // bench::Json's policy too.
  if (!std::isfinite(value)) {
    out += "null";
    return;
  }
  // to_chars ignores the host application's global locale, so the
  // decimal separator stays '.'.
  char buffer[32];
  const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value,
                                       std::chars_format::general, 12);
  out.append(buffer, end);
}

/// Recursive-descent parser over the full JSON grammar. Depth-limited so
/// adversarial inputs fail cleanly instead of overflowing the stack.
/// A friend of JsonValue: objects are filled member by member, with the
/// duplicate-key check done here rather than through set().
class JsonParser {
 public:
  JsonParser(const std::string& text,
             std::vector<JsonValue::MemberSpan>* spans)
      : text_(text), spans_(spans) {}

  JsonValue run() {
    JsonValue value = parse_value(0);
    skip_whitespace();
    if (pos_ != text_.size()) fail("trailing characters after JSON value");
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  [[noreturn]] void fail(const std::string& what) const {
    std::size_t line = 1, column = 1;
    for (std::size_t i = 0; i < pos_ && i < text_.size(); ++i) {
      if (text_[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
    }
    throw std::runtime_error("json parse error at " + std::to_string(line) +
                             ":" + std::to_string(column) + ": " + what);
  }

  void skip_whitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r'))
      ++pos_;
  }

  [[nodiscard]] char peek() {
    skip_whitespace();
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* literal) {
    const std::size_t length = std::char_traits<char>::length(literal);
    if (text_.compare(pos_, length, literal) != 0) return false;
    pos_ += length;
    return true;
  }

  JsonValue parse_value(int depth) {
    if (depth > kMaxDepth) fail("nesting too deep");
    switch (peek()) {
      case '{': return parse_object(depth);
      case '[': return parse_array(depth);
      case '"': return JsonValue::string(parse_string());
      case 't':
        if (consume_literal("true")) return JsonValue::boolean(true);
        fail("invalid literal");
      case 'f':
        if (consume_literal("false")) return JsonValue::boolean(false);
        fail("invalid literal");
      case 'n':
        if (consume_literal("null")) return JsonValue{};
        fail("invalid literal");
      default: return parse_number();
    }
  }

  JsonValue parse_object(int depth) {
    expect('{');
    JsonValue object = JsonValue::object();
    if (peek() == '}') {
      ++pos_;
      return object;
    }
    // The duplicate check hashes, so a hostile many-key line parses in
    // linear time, not quadratic.
    std::unordered_set<std::string> keys;
    for (;;) {
      if (peek() != '"') fail("expected object key string");
      const std::size_t begin = pos_;
      std::string key = parse_string();
      expect(':');
      if (!keys.insert(key).second) fail("duplicate object key '" + key + "'");
      JsonValue value = parse_value(depth + 1);
      if (depth == 0 && spans_ != nullptr) spans_->push_back({begin, pos_});
      object.members_.emplace_back(std::move(key), std::move(value));
      const char next = peek();
      ++pos_;
      if (next == '}') return object;
      if (next != ',') fail("expected ',' or '}' in object");
    }
  }

  JsonValue parse_array(int depth) {
    expect('[');
    JsonValue array = JsonValue::array();
    if (peek() == ']') {
      ++pos_;
      return array;
    }
    for (;;) {
      array.push(parse_value(depth + 1));
      const char next = peek();
      ++pos_;
      if (next == ']') return array;
      if (next != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (pos_ < text_.size()) {
      // Copy the run of plain bytes up to the next quote, backslash or
      // control byte in one append.
      const std::size_t run =
          json_plain_run(std::string_view(text_).substr(pos_));
      out.append(text_, pos_, run);
      pos_ += run;
      if (pos_ >= text_.size()) break;
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') fail("unescaped control character in string");
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char escape = text_[pos_++];
      switch (escape) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char hex = text_[pos_++];
            code <<= 4;
            if (hex >= '0' && hex <= '9') code |= static_cast<unsigned>(hex - '0');
            else if (hex >= 'a' && hex <= 'f')
              code |= static_cast<unsigned>(hex - 'a' + 10);
            else if (hex >= 'A' && hex <= 'F')
              code |= static_cast<unsigned>(hex - 'A' + 10);
            else
              fail("invalid \\u escape");
          }
          // UTF-8-encode the code point (surrogate pairs are passed
          // through as two 3-byte sequences — the jobs/results files only
          // carry names and messages, not astral-plane text).
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
          } else {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
          }
          break;
        }
        default: fail("invalid escape character");
      }
    }
    fail("unterminated string");
  }

  JsonValue parse_number() {
    // Strict JSON grammar: -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
    // — the format rejects typos loudly everywhere else, so `.5`, `1.`,
    // and `01` (which jq/Python/CMake all refuse) are errors here too.
    const std::size_t start = pos_;
    const auto digits = [&] {
      std::size_t count = 0;
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
        ++count;
      }
      return count;
    };
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const std::size_t int_start = pos_;
    if (digits() == 0) fail("invalid number");
    if (text_[int_start] == '0' && pos_ - int_start > 1)
      fail("invalid number (leading zero)");
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      if (digits() == 0) fail("invalid number (digits required after '.')");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) fail("invalid number (digits required in exponent)");
    }
    // std::from_chars is locale-independent — an embedding application
    // running under e.g. a de_DE LC_NUMERIC must not change how jobs and
    // results files parse.
    const char* const first = text_.data() + start;
    const char* const last = text_.data() + pos_;
    if (!is_double) {
      std::int64_t parsed = 0;
      const auto [end, ec] = std::from_chars(first, last, parsed);
      if (ec == std::errc{} && end == last) return JsonValue::number(parsed);
      // Out-of-range integers fall through to double precision.
    }
    double parsed = 0.0;
    const auto [end, ec] = std::from_chars(first, last, parsed);
    if (ec != std::errc{} || end != last || !std::isfinite(parsed))
      fail("invalid number");
    return JsonValue::number(parsed);
  }

  const std::string& text_;
  std::vector<JsonValue::MemberSpan>* spans_;  // top-level members; may be null
  std::size_t pos_ = 0;
};

JsonValue JsonValue::boolean(bool value) {
  JsonValue json;
  json.kind_ = Kind::Bool;
  json.bool_ = value;
  return json;
}

JsonValue JsonValue::number(std::int64_t value) {
  JsonValue json;
  json.kind_ = Kind::Int;
  json.int_ = value;
  return json;
}

JsonValue JsonValue::number(double value) {
  JsonValue json;
  json.kind_ = Kind::Double;
  json.double_ = value;
  return json;
}

JsonValue JsonValue::string(std::string value) {
  JsonValue json;
  json.kind_ = Kind::String;
  json.string_ = std::move(value);
  return json;
}

JsonValue JsonValue::object() {
  JsonValue json;
  json.kind_ = Kind::Object;
  return json;
}

JsonValue JsonValue::array() {
  JsonValue json;
  json.kind_ = Kind::Array;
  return json;
}

JsonValue JsonValue::parse(const std::string& text,
                           std::vector<MemberSpan>* spans) {
  if (spans != nullptr) spans->clear();
  return JsonParser(text, spans).run();
}

bool JsonValue::as_bool() const {
  if (kind_ != Kind::Bool) throw std::runtime_error("json: not a boolean");
  return bool_;
}

std::int64_t JsonValue::as_int() const {
  if (kind_ != Kind::Int) throw std::runtime_error("json: not an integer");
  return int_;
}

double JsonValue::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ != Kind::Double) throw std::runtime_error("json: not a number");
  return double_;
}

const std::string& JsonValue::as_string() const& {
  if (kind_ != Kind::String) throw std::runtime_error("json: not a string");
  return string_;
}

std::string JsonValue::as_string() && {
  if (kind_ != Kind::String) throw std::runtime_error("json: not a string");
  return std::exchange(string_, {});
}

const JsonValue* JsonValue::find(const std::string& key) const noexcept {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [existing_key, value] : members_)
    if (existing_key == key) return &value;
  return nullptr;
}

JsonValue* JsonValue::find(const std::string& key) noexcept {
  return const_cast<JsonValue*>(std::as_const(*this).find(key));
}

const std::vector<std::pair<std::string, JsonValue>>& JsonValue::members()
    const {
  if (kind_ != Kind::Object) throw std::runtime_error("json: not an object");
  return members_;
}

const std::vector<JsonValue>& JsonValue::elements() const {
  if (kind_ != Kind::Array) throw std::runtime_error("json: not an array");
  return elements_;
}

JsonValue& JsonValue::set(const std::string& key, JsonValue value) {
  if (kind_ != Kind::Object) throw std::logic_error("JsonValue::set on a non-object");
  for (auto& [existing_key, existing_value] : members_) {
    if (existing_key == key) {
      existing_value = std::move(value);
      return *this;
    }
  }
  members_.emplace_back(key, std::move(value));
  return *this;
}

bool JsonValue::erase(const std::string& key) {
  if (kind_ != Kind::Object)
    throw std::logic_error("JsonValue::erase on a non-object");
  const auto it = std::find_if(
      members_.begin(), members_.end(),
      [&key](const auto& member) { return member.first == key; });
  if (it == members_.end()) return false;
  members_.erase(it);
  return true;
}

JsonValue& JsonValue::push(JsonValue value) {
  if (kind_ != Kind::Array) throw std::logic_error("JsonValue::push on a non-array");
  elements_.push_back(std::move(value));
  return *this;
}

void JsonValue::append(std::string& out, int indent) const {
  if (kind_ == Kind::Object || kind_ == Kind::Array) {
    const bool object = kind_ == Kind::Object;
    const std::size_t count = object ? members_.size() : elements_.size();
    if (count == 0) {
      out += object ? "{}" : "[]";
      return;
    }
    const bool pretty = indent != kCompact;
    const auto newline = [&out](int level) {
      out += '\n';
      out.append(static_cast<std::size_t>(level) * 2, ' ');
    };
    out += object ? '{' : '[';
    for (std::size_t i = 0; i < count; ++i) {
      if (i > 0) out += pretty ? "," : ", ";
      if (pretty) newline(indent + 1);
      if (object) {
        append_json_string(out, members_[i].first);
        out += ": ";
      }
      (object ? members_[i].second : elements_[i])
          .append(out, pretty ? indent + 1 : kCompact);
    }
    if (pretty) newline(indent);
    out += object ? '}' : ']';
    return;
  }
  switch (kind_) {
    case Kind::Null:
      out += "null";
      break;
    case Kind::Bool:
      out += bool_ ? "true" : "false";
      break;
    case Kind::Int:
      append_json_number(out, int_);
      break;
    case Kind::Double:
      append_json_number(out, double_);
      break;
    case Kind::String:
      // Escaped, so a scalar never breaks the single-line form.
      append_json_string(out, string_);
      break;
    case Kind::Object:
    case Kind::Array:
      break;  // handled above
  }
}

std::string JsonValue::dump_string() const {
  std::string out;
  append(out, 0);
  return out;
}

std::string JsonValue::dump_compact_string() const {
  std::string out;
  append(out, kCompact);
  return out;
}

}  // namespace wtam::api
