// Small string helpers shared by the parsers and report formatters.
#ifndef ZOLCSIM_COMMON_STRINGS_HPP
#define ZOLCSIM_COMMON_STRINGS_HPP

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace zolcsim {

/// Removes leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Splits `s` on `sep`, keeping empty fields.
[[nodiscard]] std::vector<std::string_view> split(std::string_view s, char sep);

/// Lowercases ASCII characters.
[[nodiscard]] std::string to_lower(std::string_view s);

/// True iff `s` starts with `prefix`.
[[nodiscard]] bool starts_with(std::string_view s,
                               std::string_view prefix) noexcept;

/// Parses a signed integer. Accepts decimal, 0x-hex, 0b-binary, and a leading
/// '-'. Returns nullopt on any malformed input or overflow past 64 bits.
[[nodiscard]] std::optional<std::int64_t> parse_int(
    std::string_view s) noexcept;

/// Formats `value` as 0xXXXXXXXX (8 hex digits).
[[nodiscard]] std::string hex32(std::uint32_t value);

/// Formats `value` as 16 lowercase hex digits (no 0x prefix).
[[nodiscard]] std::string hex64(std::uint64_t value);

/// Parses exactly 16 lowercase/uppercase hex digits (the hex64 form).
[[nodiscard]] std::optional<std::uint64_t> parse_hex64(
    std::string_view s) noexcept;

/// FNV-1a 64-bit content hash: the scenario goldens' digest of a rendered
/// CSV. Not cryptographic -- it pins deterministic simulator output, it does
/// not defend against an adversary.
[[nodiscard]] constexpr std::uint64_t fnv1a64(std::string_view s) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const char c : s) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

/// Formats a double with `digits` digits after the decimal point.
[[nodiscard]] std::string format_fixed(double value, int digits);

}  // namespace zolcsim

#endif  // ZOLCSIM_COMMON_STRINGS_HPP
