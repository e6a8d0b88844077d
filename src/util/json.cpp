#include "util/json.hpp"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "util/error.hpp"

namespace hrf::json {

namespace {

[[noreturn]] void bad(const std::string& what) { throw FormatError("json: " + what); }

void append_escaped(std::string& out, const std::string& s) {
  out += '"';
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
  out += '"';
}

void append_number(std::string& out, double n) {
  if (!std::isfinite(n)) bad("cannot serialize a non-finite number");
  char buf[40];
  // Integers (the common case: counts, ns values) print without a
  // fraction so the file diffs cleanly; everything else round-trips.
  if (n == std::floor(n) && std::fabs(n) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", n);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", n);
  }
  out += buf;
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  Value parse_document() {
    Value v = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters after JSON document");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    bad(what + " at offset " + std::to_string(pos_));
  }

  void skip_ws() {
    while (pos_ < text_.size() && std::isspace(static_cast<unsigned char>(text_[pos_]))) ++pos_;
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(const char* lit) {
    std::size_t n = 0;
    while (lit[n] != '\0') ++n;
    if (text_.compare(pos_, n, lit) != 0) return false;
    pos_ += n;
    return true;
  }

  Value parse_value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return parse_object();
    if (c == '[') return parse_array();
    if (c == '"') return Value(parse_string());
    if (c == 't') {
      if (!consume_literal("true")) fail("bad literal");
      return Value(true);
    }
    if (c == 'f') {
      if (!consume_literal("false")) fail("bad literal");
      return Value(false);
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Value();
    }
    if (c == '-' || std::isdigit(static_cast<unsigned char>(c))) return parse_number();
    fail("unexpected character");
  }

  Value parse_object() {
    expect('{');
    Value obj = Value::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}' in object");
    }
  }

  Value parse_array() {
    expect('[');
    Value arr = Value::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']' in array");
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code += static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code += static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code += static_cast<unsigned>(h - 'A' + 10);
            else fail("bad hex digit in \\u escape");
          }
          // This writer only emits \u for control characters; decode the
          // BMP code point as UTF-8 and reject surrogate pairs (never
          // produced by our emitter).
          if (code >= 0xD800 && code <= 0xDFFF) fail("surrogate escapes unsupported");
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
        default: fail("unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    const std::string tok = text_.substr(start, pos_ - start);
    char* end = nullptr;
    // A token with no fraction or exponent is an integer; keep it exact
    // when it fits 64 bits (else fall through to the nearest double).
    if (tok.find_first_of(".eE") == std::string::npos) {
      errno = 0;
      if (tok[0] == '-') {
        const long long n = std::strtoll(tok.c_str(), &end, 10);
        if (end != tok.c_str() && *end == '\0' && errno == 0) return Value(std::int64_t{n});
      } else {
        const unsigned long long n = std::strtoull(tok.c_str(), &end, 10);
        if (end != tok.c_str() && *end == '\0' && errno == 0) return Value(std::uint64_t{n});
      }
    }
    const double n = std::strtod(tok.c_str(), &end);
    if (end == tok.c_str() || *end != '\0' || !std::isfinite(n)) fail("bad number '" + tok + "'");
    return Value(n);
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

}  // namespace

bool Value::as_bool() const {
  if (kind_ != Kind::Bool) bad("expected a boolean");
  return bool_;
}

double Value::as_number() const {
  if (kind_ != Kind::Number) bad("expected a number");
  return number_;
}

std::uint64_t Value::as_uint64() const {
  const bool negative = integer_ == Integer::Signed && static_cast<std::int64_t>(bits_) < 0;
  if (kind_ != Kind::Number || integer_ == Integer::None || negative) {
    bad("expected a non-negative integer");
  }
  return bits_;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::String) bad("expected a string");
  return string_;
}

std::size_t Value::size() const {
  if (kind_ == Kind::Array) return array_.size();
  if (kind_ == Kind::Object) return object_.size();
  bad("size() on a non-container");
}

const Value& Value::at(std::size_t i) const {
  if (kind_ != Kind::Array) bad("at() on a non-array");
  if (i >= array_.size()) bad("array index out of range");
  return array_[i];
}

void Value::push_back(Value v) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) bad("push_back() on a non-array");
  array_.push_back(std::move(v));
}

Value& Value::operator[](const std::string& key) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) bad("operator[] on a non-object");
  for (auto& [k, v] : object_) {
    if (k == key) return v;
  }
  object_.emplace_back(key, Value());
  return object_.back().second;
}

const Value* Value::find(const std::string& key) const {
  if (kind_ != Kind::Object) return nullptr;
  for (const auto& [k, v] : object_) {
    if (k == key) return &v;
  }
  return nullptr;
}

const Value& Value::get(const std::string& key) const {
  const Value* v = find(key);
  if (v == nullptr) bad("missing required key '" + key + "'");
  return *v;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (kind_ != Kind::Object) bad("members() on a non-object");
  return object_;
}

void Value::dump_to(std::string& out, int indent, int depth) const {
  const std::string pad(indent > 0 ? static_cast<std::size_t>(indent * (depth + 1)) : 0, ' ');
  const std::string close_pad(indent > 0 ? static_cast<std::size_t>(indent * depth) : 0, ' ');
  const char* nl = indent > 0 ? "\n" : "";
  const char* colon = indent > 0 ? ": " : ":";
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Number:
      if (integer_ == Integer::Signed) {
        out += std::to_string(static_cast<std::int64_t>(bits_));
      } else if (integer_ == Integer::Unsigned) {
        out += std::to_string(bits_);
      } else {
        append_number(out, number_);
      }
      break;
    case Kind::String: append_escaped(out, string_); break;
    case Kind::Array: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out += '[';
      out += nl;
      for (std::size_t i = 0; i < array_.size(); ++i) {
        out += pad;
        array_[i].dump_to(out, indent, depth + 1);
        if (i + 1 < array_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += ']';
      break;
    }
    case Kind::Object: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out += '{';
      out += nl;
      for (std::size_t i = 0; i < object_.size(); ++i) {
        out += pad;
        append_escaped(out, object_[i].first);
        out += colon;
        object_[i].second.dump_to(out, indent, depth + 1);
        if (i + 1 < object_.size()) out += ',';
        out += nl;
      }
      out += close_pad;
      out += '}';
      break;
    }
  }
}

std::string Value::dump(int indent) const {
  std::string out;
  dump_to(out, indent, 0);
  return out;
}

Value Value::parse(const std::string& text) { return Parser(text).parse_document(); }

}  // namespace hrf::json
