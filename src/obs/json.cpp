#include "obs/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace pleroma::obs {

std::string jsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void JsonValue::set(const std::string& key, JsonValue v) {
  Object& obj = members();
  for (auto& [k, existing] : obj) {
    if (k == key) {
      existing = std::move(v);
      return;
    }
  }
  obj.emplace_back(key, std::move(v));
}

const JsonValue* JsonValue::get(const std::string& key) const noexcept {
  if (!isObject()) return nullptr;
  for (const auto& [k, v] : members()) {
    if (k == key) return &v;
  }
  return nullptr;
}

namespace {

void appendNumber(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no inf/nan; null is the least-wrong encoding
    return;
  }
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", d);
  // Trim to the shortest representation that round-trips.
  for (const int prec : {6, 9, 12, 15}) {
    char probe[32];
    std::snprintf(probe, sizeof probe, "%.*g", prec, d);
    double back = 0.0;
    std::sscanf(probe, "%lf", &back);
    if (back == d) {
      out += probe;
      return;
    }
  }
  out += buf;
}

void indentTo(std::string& out, int indent, int depth) {
  if (indent < 0) return;
  out += '\n';
  out.append(static_cast<std::size_t>(indent * depth), ' ');
}

}  // namespace

void JsonValue::dumpTo(std::string& out, int indent, int depth) const {
  if (isNull()) {
    out += "null";
  } else if (isBool()) {
    out += asBool() ? "true" : "false";
  } else if (isInt()) {
    out += std::to_string(std::get<std::int64_t>(value_));
  } else if (isNumber()) {
    appendNumber(out, std::get<double>(value_));
  } else if (isString()) {
    out += '"';
    out += jsonEscape(asString());
    out += '"';
  } else if (isArray()) {
    const Array& a = items();
    if (a.empty()) {
      out += "[]";
      return;
    }
    out += '[';
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (i) out += ',';
      indentTo(out, indent, depth + 1);
      a[i].dumpTo(out, indent, depth + 1);
    }
    indentTo(out, indent, depth);
    out += ']';
  } else {
    const Object& o = members();
    if (o.empty()) {
      out += "{}";
      return;
    }
    out += '{';
    for (std::size_t i = 0; i < o.size(); ++i) {
      if (i) out += ',';
      indentTo(out, indent, depth + 1);
      out += '"';
      out += jsonEscape(o[i].first);
      out += "\":";
      if (indent >= 0) out += ' ';
      o[i].second.dumpTo(out, indent, depth + 1);
    }
    indentTo(out, indent, depth);
    out += '}';
  }
}

std::string JsonValue::dump(int indent) const {
  std::string out;
  dumpTo(out, indent, 0);
  return out;
}

// ---- parser ---------------------------------------------------------------

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  std::optional<JsonValue> run(std::string* error) {
    std::optional<JsonValue> v = value();
    if (v) {
      skipWs();
      if (pos_ != text_.size()) {
        fail("trailing characters after document");
        v.reset();
      }
    }
    if (!v && error != nullptr) *error = error_;
    return v;
  }

 private:
  void fail(const std::string& what) {
    if (error_.empty()) {
      error_ = what + " at offset " + std::to_string(pos_);
    }
  }

  void skipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool consume(char c) {
    skipWs();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  std::optional<JsonValue> value() {
    skipWs();
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return std::nullopt;
    }
    const char c = text_[pos_];
    if (c == '{' || c == '[') {
      // Each level recurses once; unbounded nesting would overflow the stack.
      if (depth_ == JsonValue::kMaxParseDepth) {
        fail("nesting deeper than " + std::to_string(JsonValue::kMaxParseDepth) +
             " levels");
        return std::nullopt;
      }
      ++depth_;
      std::optional<JsonValue> v = c == '{' ? object() : array();
      --depth_;
      return v;
    }
    if (c == '"') {
      std::optional<std::string> s = string();
      if (!s) return std::nullopt;
      return JsonValue(std::move(*s));
    }
    if (literal("true")) return JsonValue(true);
    if (literal("false")) return JsonValue(false);
    if (literal("null")) return JsonValue(nullptr);
    return number();
  }

  std::optional<JsonValue> number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0 ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string_view tok = text_.substr(start, pos_ - start);
    if (tok.empty()) {
      fail("expected a value");
      return std::nullopt;
    }
    if (tok.find_first_of(".eE") == std::string_view::npos) {
      std::int64_t i = 0;
      const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), i);
      if (ec == std::errc() && p == tok.data() + tok.size()) return JsonValue(i);
    }
    double d = 0.0;
    const auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
    if (ec != std::errc() || p != tok.data() + tok.size()) {
      fail("malformed number");
      return std::nullopt;
    }
    return JsonValue(d);
  }

  std::optional<std::string> string() {
    if (!consume('"')) {
      fail("expected string");
      return std::nullopt;
    }
    std::string out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            fail("truncated \\u escape");
            return std::nullopt;
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else {
              fail("malformed \\u escape");
              return std::nullopt;
            }
          }
          // UTF-8 encode (BMP only; surrogate pairs pass through as two
          // 3-byte sequences, which is sufficient for our own output).
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
        default:
          fail("unknown escape");
          return std::nullopt;
      }
    }
    fail("unterminated string");
    return std::nullopt;
  }

  std::optional<JsonValue> array() {
    consume('[');
    JsonValue out = JsonValue::array();
    skipWs();
    if (consume(']')) return out;
    while (true) {
      std::optional<JsonValue> v = value();
      if (!v) return std::nullopt;
      out.push_back(std::move(*v));
      if (consume(',')) continue;
      if (consume(']')) return out;
      fail("expected ',' or ']'");
      return std::nullopt;
    }
  }

  std::optional<JsonValue> object() {
    consume('{');
    JsonValue out = JsonValue::object();
    skipWs();
    if (consume('}')) return out;
    while (true) {
      skipWs();
      std::optional<std::string> key = string();
      if (!key) return std::nullopt;
      if (!consume(':')) {
        fail("expected ':'");
        return std::nullopt;
      }
      std::optional<JsonValue> v = value();
      if (!v) return std::nullopt;
      out.set(*key, std::move(*v));
      if (consume(',')) continue;
      if (consume('}')) return out;
      fail("expected ',' or '}'");
      return std::nullopt;
    }
  }

  std::string_view text_;
  std::size_t pos_ = 0;
  int depth_ = 0;  ///< containers currently open
  std::string error_;
};

}  // namespace

std::optional<JsonValue> JsonValue::parse(std::string_view text,
                                          std::string* error) {
  return Parser(text).run(error);
}

}  // namespace pleroma::obs
