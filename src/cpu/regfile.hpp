// General-purpose register file: 32 x 32-bit, register 0 hardwired to zero.
#ifndef ZOLCSIM_CPU_REGFILE_HPP
#define ZOLCSIM_CPU_REGFILE_HPP

#include <array>
#include <cstdint>

#include "common/contracts.hpp"
#include "isa/opcodes.hpp"

namespace zolcsim::cpu {

class RegFile {
 public:
  [[nodiscard]] std::int32_t read(unsigned reg) const {
    ZS_EXPECTS(reg < isa::kNumRegs);
    return regs_[reg];
  }

  [[nodiscard]] std::uint32_t read_u(unsigned reg) const {
    return static_cast<std::uint32_t>(read(reg));
  }

  /// Writes `value`; writes to register 0 are architectural no-ops.
  void write(unsigned reg, std::int32_t value) {
    ZS_EXPECTS(reg < isa::kNumRegs);
    if (reg != 0) regs_[reg] = value;
  }

  // Unchecked accessors for the ISS summary tier's replay loop and the
  // pipeline's ID and WB stages: decoded records and exported loop
  // descriptors carry 5-bit register fields, so the precondition holds by
  // construction.

  [[nodiscard]] std::int32_t read_raw(unsigned reg) const noexcept {
    return regs_[reg];
  }

  void write_raw(unsigned reg, std::int32_t value) noexcept {
    if (reg != 0) regs_[reg] = value;
  }

  void reset() { regs_.fill(0); }

  friend bool operator==(const RegFile&, const RegFile&) = default;

 private:
  std::array<std::int32_t, isa::kNumRegs> regs_{};
};

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_REGFILE_HPP
