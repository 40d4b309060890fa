#include "cpu/decoded.hpp"

#include "common/contracts.hpp"

namespace zolcsim::cpu {

namespace {

using isa::Format;
using isa::Opcode;
using Kind = DecodedOp::Kind;

Kind register_kind(Opcode op) noexcept {
  switch (op) {
    case Opcode::kJr:
    case Opcode::kJalr:
      return Kind::kJumpReg;
    case Opcode::kAdd:
      return Kind::kAdd;
    case Opcode::kMac:
      return Kind::kMac;
    case Opcode::kMax:
      return Kind::kMax;
    case Opcode::kSll:
      return Kind::kSll;
    case Opcode::kMul:
      return Kind::kMul;
    default:
      return Kind::kAlu;
  }
}

Kind kind_of(const isa::Instruction& instr, const isa::OpcodeInfo& info) {
  switch (info.format) {
    case Format::kR3:
    case Format::kR3Acc:
    case Format::kR2:
    case Format::kR1:
    case Format::kRShift:
      return register_kind(instr.op);
    case Format::kI:
    case Format::kLui:
      return instr.op == Opcode::kAddi ? Kind::kAddi : Kind::kAluImm;
    case Format::kMem:
      return info.is_load ? Kind::kLoad : Kind::kStore;
    case Format::kBranchCmp:
    case Format::kBranchZero:
      return Kind::kBranch;
    case Format::kJump:
      return Kind::kJump;
    case Format::kZolcWrite:
    case Format::kZolcNone:
      return Kind::kZolc;
    case Format::kNone:
      return Kind::kHalt;
  }
  ZS_UNREACHABLE("decode_op: bad format");
}

std::uint8_t access_width(Opcode op) noexcept {
  switch (op) {
    case Opcode::kLb:
    case Opcode::kLbu:
    case Opcode::kSb:
      return 1;
    case Opcode::kLh:
    case Opcode::kLhu:
    case Opcode::kSh:
      return 2;
    default:
      return 4;
  }
}

}  // namespace

DecodedOp decode_op(const isa::Instruction& instr) {
  DecodedOp op;
  op.instr = instr;
  if (!instr.valid()) return op;
  op.srcs = isa::source_regs(instr);
  op.dest = isa::dest_reg(instr).value_or(0);
  op.kind = kind_of(instr, isa::opcode_info(instr.op));
  if (op.kind == Kind::kLoad || op.kind == Kind::kStore) {
    op.width = access_width(instr.op);
    op.sign_extend = instr.op == Opcode::kLb || instr.op == Opcode::kLh;
  }
  return op;
}

DecodedImage::DecodedImage(std::uint32_t code_base,
                           std::span<const isa::Instruction> code)
    : base(code_base) {
  ops.reserve(code.size());
  for (const isa::Instruction& instr : code) ops.push_back(decode_op(instr));
}

}  // namespace zolcsim::cpu
