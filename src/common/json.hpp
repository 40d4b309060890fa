// Minimal JSON reader for the declarative layers (scenario suites, BENCH
// artifact round-trips). Full RFC 8259 value grammar minus the exotica the
// repo never emits: numbers are parsed as double (every count we carry fits
// a 53-bit mantissa exactly) and \uXXXX escapes outside ASCII are passed
// through verbatim. Parse failures are Result errors (ErrorCode::kParse)
// carrying the 1-based line of the offending token (Error::line).
#ifndef ZOLCSIM_COMMON_JSON_HPP
#define ZOLCSIM_COMMON_JSON_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.hpp"

namespace zolcsim::json {

/// A parsed JSON value. Object member order is preserved (emitters are
/// deterministic, so round-trip tests can compare member sequences).
class Value {
 public:
  enum class Kind : std::uint8_t {
    kNull, kBool, kNumber, kString, kArray, kObject
  };
  using Member = std::pair<std::string, Value>;

  Value() = default;

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::kNull; }
  [[nodiscard]] bool is_bool() const noexcept { return kind_ == Kind::kBool; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::kNumber;
  }
  [[nodiscard]] bool is_string() const noexcept {
    return kind_ == Kind::kString;
  }
  [[nodiscard]] bool is_array() const noexcept { return kind_ == Kind::kArray; }
  [[nodiscard]] bool is_object() const noexcept {
    return kind_ == Kind::kObject;
  }

  /// Typed accessors. Precondition: the matching kind.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] double as_number() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Value>& items() const;
  [[nodiscard]] const std::vector<Member>& members() const;

  /// Number as an unsigned integer; nullopt when not a number, negative,
  /// non-integral, or beyond 2^53 (where double stops being exact).
  [[nodiscard]] std::optional<std::uint64_t> as_uint() const;

  /// Object member lookup; nullptr when absent or not an object.
  [[nodiscard]] const Value* find(std::string_view key) const;

  static Value make_null() { return Value(); }
  static Value make_bool(bool b);
  static Value make_number(double n);
  static Value make_string(std::string s);
  static Value make_array(std::vector<Value> items);
  static Value make_object(std::vector<Member> members);

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<Value> items_;
  std::vector<Member> members_;
};

/// Parses one JSON document (trailing non-whitespace is an error).
[[nodiscard]] Result<Value> parse(std::string_view text);

/// Escapes `s` for embedding inside a JSON string literal (no quotes added).
[[nodiscard]] std::string escape(std::string_view s);

/// Renders `value` back to compact JSON text (no whitespace). Deterministic:
/// member order is preserved, integral numbers print without a fraction, and
/// non-integral numbers use the shortest form that parses back to the same
/// double -- so parse(serialize(v)) reproduces v exactly. Used wherever a
/// parsed sub-document must be handed to another parser (the serve
/// protocol's inline suite objects).
[[nodiscard]] std::string serialize(const Value& value);

}  // namespace zolcsim::json

#endif  // ZOLCSIM_COMMON_JSON_HPP
