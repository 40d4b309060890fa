// Decoded instruction representation plus operand-access helpers used by the
// executor, the pipeline hazard logic, and the CFG builder.
#ifndef ZOLCSIM_ISA_INSTRUCTION_HPP
#define ZOLCSIM_ISA_INSTRUCTION_HPP

#include <array>
#include <cstdint>
#include <optional>

#include "isa/opcodes.hpp"

namespace zolcsim::isa {

/// A fully decoded instruction. Field validity depends on the opcode's
/// Format; unused fields are zero. The byte fields come first so the
/// struct packs into 16 bytes.
struct Instruction {
  Opcode op = Opcode::kInvalid;
  std::uint8_t rd = 0;
  std::uint8_t rs = 0;
  std::uint8_t rt = 0;
  std::uint8_t shamt = 0;
  std::uint8_t zidx = 0;     ///< ZOLC table index field
  std::int32_t imm = 0;      ///< sign- or zero-extended per opcode_info()
  std::uint32_t target = 0;  ///< 26-bit jump target field (raw)

  [[nodiscard]] bool valid() const noexcept { return op != Opcode::kInvalid; }

  friend bool operator==(const Instruction&, const Instruction&) = default;
};

/// Up to three source registers read by an instruction.
struct SourceRegs {
  std::array<std::uint8_t, 3> regs{};
  std::uint8_t count = 0;

  void push(std::uint8_t r) { regs[count++] = r; }

  friend bool operator==(const SourceRegs&, const SourceRegs&) = default;
};

/// Returns the registers `instr` reads (rs/rt/rd-accumulator as applicable).
[[nodiscard]] SourceRegs source_regs(const Instruction& instr);

/// Returns the register `instr` writes, if any (register 0 never counts:
/// writes to $zero are architectural no-ops).
[[nodiscard]] std::optional<std::uint8_t> dest_reg(const Instruction& instr);

/// True iff the instruction can redirect control flow (branch or jump).
[[nodiscard]] bool is_control_flow(const Instruction& instr);

/// For PC-relative branches: the byte target given the branch's own PC.
/// Precondition: instr is a conditional branch or dbne.
[[nodiscard]] std::uint32_t branch_target(const Instruction& instr,
                                          std::uint32_t pc);

/// For J/JAL: the byte target given the jump's own PC (region-form like MIPS).
/// Precondition: instr is kJ or kJal.
[[nodiscard]] std::uint32_t jump_target(const Instruction& instr,
                                        std::uint32_t pc);

/// Canonical NOP encoding (sll $zero, $zero, 0).
[[nodiscard]] Instruction make_nop() noexcept;

/// True iff `instr` is the canonical NOP.
[[nodiscard]] bool is_nop(const Instruction& instr) noexcept;

}  // namespace zolcsim::isa

#endif  // ZOLCSIM_ISA_INSTRUCTION_HPP
