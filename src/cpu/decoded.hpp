// The one decoder the simulators share. decode_op() resolves everything the
// engines need to know about a code word -- opcode metadata, operand
// registers, destination, execution kind, access width -- into a DecodedOp
// record. A DecodedImage holds one record per word of a lowered program;
// flow::CompiledUnit builds it once and the ISS, the pipeline and the
// summary tier all read it. PCs outside the image (or misaligned) decode
// from simulated memory with the same decode_op(), which preserves the
// alignment trap and self-modifying-code behaviour for callers that bypass
// the image (e.g. the zolcscan binary-patch flow).
#ifndef ZOLCSIM_CPU_DECODED_HPP
#define ZOLCSIM_CPU_DECODED_HPP

#include <cstdint>
#include <span>
#include <vector>

#include "isa/encoding.hpp"
#include "isa/instruction.hpp"
#include "mem/memory.hpp"

namespace zolcsim::cpu {

/// A decoded code word with its operand routing resolved. A compiled unit
/// keeps one per code word for its lifetime, so the record stays at 24
/// bytes: `info()` and `is_control()` are derived, not stored.
struct DecodedOp {
  /// How the word executes. The register-form (kAlu .. kMul) and
  /// immediate-form (kAluImm, kAddi) ALU kinds all evaluate through
  /// alu_kind_eval; the hottest opcodes get their own kinds so that the
  /// ISS and the summary tier's replay evaluate them in place.
  enum class Kind : std::uint8_t {
    kInvalid,  ///< the word does not decode
    kAlu,      ///< generic register-form op via alu_eval
    kAdd,
    kMac,
    kMax,
    kSll,
    kMul,
    kAluImm,  ///< generic immediate-form op via alu_eval
    kAddi,
    kLoad,
    kStore,
    kBranch,   ///< conditional branch, dbne included (first control kind)
    kJump,     ///< j / jal
    kJumpReg,  ///< jr / jalr (last control kind)
    kZolc,     ///< ZOLC table write, zolon or zoloff
    kHalt,
  };

  isa::Instruction instr;
  isa::SourceRegs srcs;
  /// The register written, 0 for none (writes to $zero are no-ops).
  std::uint8_t dest = 0;
  Kind kind = Kind::kInvalid;
  std::uint8_t width = 0;    ///< access bytes for kLoad / kStore
  bool sign_extend = false;  ///< kLoad: sign- vs zero-extend

  /// The opcode's metadata; nullptr for a word that does not decode.
  [[nodiscard]] const isa::OpcodeInfo* info() const {
    return kind == Kind::kInvalid ? nullptr : &isa::opcode_info(instr.op);
  }

  /// True for a branch or jump.
  [[nodiscard]] bool is_control() const noexcept {
    return kind >= Kind::kBranch && kind <= Kind::kJumpReg;
  }

  /// True for the immediate-form ALU kinds, whose second operand is the
  /// immediate rather than rt.
  [[nodiscard]] bool imm_operand() const noexcept {
    return kind == Kind::kAluImm || kind == Kind::kAddi;
  }

  friend bool operator==(const DecodedOp&, const DecodedOp&) = default;
};
static_assert(sizeof(DecodedOp) == 24);

/// Decodes `instr` into its record; an invalid instruction yields kind
/// kInvalid, with a null info(), no sources and no destination.
[[nodiscard]] DecodedOp decode_op(const isa::Instruction& instr);

/// One record per word of a program loaded at `base`; owns its records.
struct DecodedImage {
  std::uint32_t base = 0;
  std::vector<DecodedOp> ops;

  DecodedImage(std::uint32_t code_base, std::span<const isa::Instruction> code);

  [[nodiscard]] bool covers(std::uint32_t pc) const noexcept {
    return (pc & 3u) == 0 && pc >= base && (pc - base) / 4 < ops.size();
  }

  /// Precondition: covers(pc).
  [[nodiscard]] const DecodedOp& at(std::uint32_t pc) const noexcept {
    return ops[(pc - base) / 4];
  }
};

/// The record for the word at `pc`: from `image` (which may be null) when
/// it covers pc, otherwise decoded from `memory`.
[[nodiscard]] inline DecodedOp fetch_op(const DecodedImage* image,
                                        const mem::Memory& memory,
                                        std::uint32_t pc) {
  if (image != nullptr && image->covers(pc)) return image->at(pc);
  return decode_op(isa::decode(memory.fetch32(pc)));
}

}  // namespace zolcsim::cpu

#endif  // ZOLCSIM_CPU_DECODED_HPP
