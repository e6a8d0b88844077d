#pragma once

// Minimal JSON value type for the benchmark-report format (BENCH_hrf.json,
// docs/benchmarking.md). Emits and parses the subset this repo writes:
// objects (insertion-ordered), arrays, strings, finite numbers, booleans,
// null. Integers (built from an integer type, or parsed from a token with
// no fraction or exponent that fits 64 bits) keep every digit, so a
// counter past 2^53 survives dump and parse. No external dependency — the
// container has no JSON library, and the regression gate must be runnable
// from the C++ CLI alone.

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace hrf::json {

class Value {
 public:
  enum class Kind { Null, Bool, Number, String, Array, Object };

  Value() : kind_(Kind::Null) {}
  Value(bool b) : kind_(Kind::Bool), bool_(b) {}
  Value(double n) : kind_(Kind::Number), number_(n) {}
  Value(int n) : Value(std::int64_t{n}) {}
  Value(std::int64_t n)
      : kind_(Kind::Number),
        number_(static_cast<double>(n)),
        integer_(Integer::Signed),
        bits_(static_cast<std::uint64_t>(n)) {}
  Value(std::uint64_t n)
      : kind_(Kind::Number),
        number_(static_cast<double>(n)),
        integer_(Integer::Unsigned),
        bits_(n) {}
  Value(const char* s) : kind_(Kind::String), string_(s) {}
  Value(std::string s) : kind_(Kind::String), string_(std::move(s)) {}

  static Value array() { Value v; v.kind_ = Kind::Array; return v; }
  static Value object() { Value v; v.kind_ = Kind::Object; return v; }

  Kind kind() const { return kind_; }
  bool is_null() const { return kind_ == Kind::Null; }
  bool is_object() const { return kind_ == Kind::Object; }
  bool is_array() const { return kind_ == Kind::Array; }
  bool is_number() const { return kind_ == Kind::Number; }
  bool is_string() const { return kind_ == Kind::String; }
  bool is_bool() const { return kind_ == Kind::Bool; }
  /// A number held exactly as a 64-bit integer (see the file comment).
  bool is_integer() const { return integer_ != Integer::None; }

  /// Typed accessors; throw FormatError on kind mismatch.
  bool as_bool() const;
  /// The nearest double; exact for integers only up to 2^53.
  double as_number() const;
  /// The exact value of a non-negative integer; FormatError otherwise.
  std::uint64_t as_uint64() const;
  const std::string& as_string() const;

  /// Array access.
  std::size_t size() const;  // array/object element count
  const Value& at(std::size_t i) const;
  void push_back(Value v);

  /// Object access: operator[] inserts a null member on first use
  /// (mutation), find() returns nullptr when absent, get() throws
  /// FormatError when absent (schema-required fields).
  Value& operator[](const std::string& key);
  const Value* find(const std::string& key) const;
  const Value& get(const std::string& key) const;
  const std::vector<std::pair<std::string, Value>>& members() const;

  /// Serialization. indent > 0 pretty-prints with that many spaces per
  /// level; 0 emits compact single-line JSON.
  std::string dump(int indent = 0) const;

  /// Parses `text` (complete document; trailing garbage is an error).
  /// Throws FormatError with position info on malformed input.
  static Value parse(const std::string& text);

 private:
  void dump_to(std::string& out, int indent, int depth) const;

  /// How an integer number is stored in bits_ (number_ holds the nearest
  /// double either way).
  enum class Integer : std::uint8_t { None, Signed, Unsigned };

  Kind kind_;
  bool bool_ = false;
  double number_ = 0.0;
  Integer integer_ = Integer::None;
  std::uint64_t bits_ = 0;  // two's complement when Signed
  std::string string_;
  std::vector<Value> array_;
  std::vector<std::pair<std::string, Value>> object_;
};

}  // namespace hrf::json
