// Bit-manipulation helpers used by the ISA encoder/decoder and the ZOLC
// storage model, plus the wrapping 32-bit arithmetic the core and the ZOLC
// index update share. All operations are on unsigned types (ES.101) with
// explicit widths; sign extension and the wrapping results are the places
// signedness is reintroduced.
#ifndef ZOLCSIM_COMMON_BITUTIL_HPP
#define ZOLCSIM_COMMON_BITUTIL_HPP

#include <cstdint>

#include "common/contracts.hpp"

namespace zolcsim {

/// Returns a mask with the low `width` bits set. width in [0, 32].
constexpr std::uint32_t mask32(unsigned width) noexcept {
  return width >= 32 ? 0xFFFF'FFFFu : ((1u << width) - 1u);
}

/// Returns a mask with the low `width` bits set. width in [0, 64].
constexpr std::uint64_t mask64(unsigned width) noexcept {
  return width >= 64 ? ~0ull : ((1ull << width) - 1ull);
}

/// Extracts `width` bits of `value` starting at bit `lsb`.
constexpr std::uint32_t extract_bits(std::uint32_t value, unsigned lsb,
                                     unsigned width) noexcept {
  return (value >> lsb) & mask32(width);
}

/// Extracts `width` bits of a 64-bit `value` starting at bit `lsb`.
constexpr std::uint64_t extract_bits64(std::uint64_t value, unsigned lsb,
                                       unsigned width) noexcept {
  return (value >> lsb) & mask64(width);
}

/// Returns `value` with `width` bits of `field` inserted at bit `lsb`.
/// Precondition: field fits in `width` bits.
inline std::uint32_t insert_bits(std::uint32_t value, unsigned lsb,
                                 unsigned width, std::uint32_t field) {
  ZS_EXPECTS(lsb < 32 && lsb + width <= 32);
  ZS_EXPECTS((field & ~mask32(width)) == 0);
  const std::uint32_t m = mask32(width) << lsb;
  return (value & ~m) | (field << lsb);
}

/// Returns `value` with `width` bits of `field` inserted at bit `lsb` (64b).
inline std::uint64_t insert_bits64(std::uint64_t value, unsigned lsb,
                                   unsigned width, std::uint64_t field) {
  ZS_EXPECTS(lsb < 64 && lsb + width <= 64);
  ZS_EXPECTS((field & ~mask64(width)) == 0);
  const std::uint64_t m = mask64(width) << lsb;
  return (value & ~m) | (field << lsb);
}

/// Sign-extends the low `width` bits of `value` to a signed 32-bit integer.
constexpr std::int32_t sign_extend(std::uint32_t value,
                                   unsigned width) noexcept {
  const std::uint32_t m = mask32(width);
  const std::uint32_t v = value & m;
  const std::uint32_t sign_bit = 1u << (width - 1);
  return static_cast<std::int32_t>((v ^ sign_bit) - sign_bit);
}

/// True iff the signed value fits in `width` bits (two's complement).
constexpr bool fits_signed(std::int64_t value, unsigned width) noexcept {
  const std::int64_t lo = -(std::int64_t{1} << (width - 1));
  const std::int64_t hi = (std::int64_t{1} << (width - 1)) - 1;
  return value >= lo && value <= hi;
}

/// True iff the unsigned value fits in `width` bits.
constexpr bool fits_unsigned(std::uint64_t value, unsigned width) noexcept {
  return width >= 64 || value <= mask64(width);
}

/// True iff `value` is aligned to `align` (a power of two).
constexpr bool is_aligned(std::uint32_t value, std::uint32_t align) noexcept {
  return (value & (align - 1u)) == 0u;
}

/// Rounds `value` up to the next multiple of `align` (a power of two).
constexpr std::uint32_t align_up(std::uint32_t value,
                                 std::uint32_t align) noexcept {
  return (value + align - 1u) & ~(align - 1u);
}

// Two's-complement arithmetic via unsigned math (defined overflow), as the
// hardware does; the core has no overflow traps.
constexpr std::int32_t wrap_add(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}

constexpr std::int32_t wrap_sub(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}

constexpr std::int32_t wrap_mul(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) *
                                   static_cast<std::uint32_t>(b));
}

/// Number of bits needed to represent `n` distinct values (ceil(log2(n))),
/// with bits_for_values(1) == 0.
constexpr unsigned bits_for_values(std::uint64_t n) noexcept {
  unsigned bits = 0;
  std::uint64_t span = 1;
  while (span < n) {
    span <<= 1;
    ++bits;
  }
  return bits;
}

}  // namespace zolcsim

#endif  // ZOLCSIM_COMMON_BITUTIL_HPP
