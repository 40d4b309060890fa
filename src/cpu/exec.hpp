// Shared functional semantics: pure ALU evaluation, branch decisions, and
// load/store memory-op behaviour used identically by the ISS (golden model)
// and the pipeline (EX and MEM stages), so the two simulators cannot diverge
// on instruction behaviour.
#ifndef ZOLCSIM_CPU_EXEC_HPP
#define ZOLCSIM_CPU_EXEC_HPP

#include <cstdint>
#include <stdexcept>
#include <string>

#include "common/contracts.hpp"
#include "isa/instruction.hpp"
#include "mem/memory.hpp"

namespace zolcsim::cpu {

/// Thrown on simulator traps: illegal instruction, disabled ISA extension,
/// runaway execution.
class SimError : public std::runtime_error {
 public:
  explicit SimError(const std::string& what_arg)
      : std::runtime_error(what_arg) {}
};

/// Operand bundle for alu_eval. `a` = rs value, `b` = rt value or extended
/// immediate (per format), `acc` = rd value for accumulating ops (mac).
struct AluInputs {
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t acc = 0;
  std::uint8_t shamt = 0;
};

/// Evaluates the ALU/DSP result of `op`. For jal/jalr pass the link value
/// through `in.acc`. Precondition: op has an ALU result (not a pure branch,
/// store, or zolc op).
[[nodiscard]] std::int32_t alu_eval(isa::Opcode op, const AluInputs& in);

/// Branch decision for conditional branches. For dbne, `rs` must be the
/// *decremented* value (rs_old - 1).
[[nodiscard]] bool branch_taken(isa::Opcode op, std::int32_t rs,
                                std::int32_t rt);

/// Performs the load described by `op` at byte address `addr` and returns
/// the register write-back value (width and sign extension per opcode).
/// Precondition: op is a load. Inline: this sits on both simulators' hot
/// paths (ISS step and pipeline MEM stage).
[[nodiscard]] inline std::int32_t mem_load(isa::Opcode op,
                                           const mem::Memory& memory,
                                           std::uint32_t addr) {
  using O = isa::Opcode;
  switch (op) {
    case O::kLb:
      return static_cast<std::int8_t>(memory.read8(addr));
    case O::kLbu:
      return memory.read8(addr);
    case O::kLh:
      return static_cast<std::int16_t>(memory.read16(addr));
    case O::kLhu:
      return memory.read16(addr);
    case O::kLw:
      return static_cast<std::int32_t>(memory.read32(addr));
    default:
      ZS_UNREACHABLE("mem_load: not a load opcode");
  }
}

/// Performs the store described by `op` at byte address `addr` with register
/// value `value` (truncated to the access width). Precondition: op is a
/// store.
inline void mem_store(isa::Opcode op, mem::Memory& memory, std::uint32_t addr,
                      std::int32_t value) {
  using O = isa::Opcode;
  const auto uv = static_cast<std::uint32_t>(value);
  switch (op) {
    case O::kSb:
      memory.write8(addr, static_cast<std::uint8_t>(uv));
      break;
    case O::kSh:
      memory.write16(addr, static_cast<std::uint16_t>(uv));
      break;
    case O::kSw:
      memory.write32(addr, uv);
      break;
    default:
      ZS_UNREACHABLE("mem_store: not a store opcode");
  }
}

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_EXEC_HPP
