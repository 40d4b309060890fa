// Disassembler: renders decoded instructions in MIPS-style assembly syntax
// for listings (`zolcsim compile --disasm`) and error messages.
#ifndef ZOLCSIM_ISA_DISASM_HPP
#define ZOLCSIM_ISA_DISASM_HPP

#include <cstdint>
#include <string>

#include "isa/instruction.hpp"

namespace zolcsim::isa {

/// Renders one instruction. `pc` is the instruction's own address, used to
/// print absolute targets for branches/jumps.
[[nodiscard]] std::string disassemble(const Instruction& instr,
                                      std::uint32_t pc);

/// Convenience: decode + disassemble a raw word.
[[nodiscard]] std::string disassemble_word(std::uint32_t word,
                                           std::uint32_t pc);

}  // namespace zolcsim::isa

#endif  // ZOLCSIM_ISA_DISASM_HPP
