// Shared functional semantics: pure ALU evaluation, branch decisions, and
// load/store memory-op behaviour used identically by the ISS (golden model)
// and the pipeline (EX and MEM stages), so the two simulators cannot diverge
// on instruction behaviour.
#ifndef ZOLCSIM_CPU_EXEC_HPP
#define ZOLCSIM_CPU_EXEC_HPP

#include <bit>
#include <cstdint>

#include "common/bitutil.hpp"
#include "common/contracts.hpp"
#include "cpu/decoded.hpp"
#include "isa/instruction.hpp"
#include "mem/memory.hpp"

namespace zolcsim::cpu {

/// Operand bundle for alu_eval. `a` = rs value, `b` = rt value or extended
/// immediate (per format), `acc` = rd value for accumulating ops (mac).
struct AluInputs {
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t acc = 0;
  std::uint8_t shamt = 0;
};

/// Evaluates the ALU/DSP result of `op`. Precondition: `op` decodes to an
/// ALU kind (DecodedOp::kAlu .. kAddi). Always inlined with its helpers: it
/// sits under alu_kind_eval for the generic kinds, in every cycle and step
/// loop, however large the unit that holds the loop grows.
[[nodiscard, gnu::always_inline]] inline std::int32_t alu_eval(
    isa::Opcode op, const AluInputs& in) {
  using O = isa::Opcode;
  const auto ua = static_cast<std::uint32_t>(in.a);
  const auto ub = static_cast<std::uint32_t>(in.b);
  switch (op) {
    case O::kAdd:
    case O::kAddi:
      return wrap_add(in.a, in.b);
    case O::kSub:
      return wrap_sub(in.a, in.b);
    case O::kAnd:
    case O::kAndi:
      return static_cast<std::int32_t>(ua & ub);
    case O::kOr:
    case O::kOri:
      return static_cast<std::int32_t>(ua | ub);
    case O::kXor:
    case O::kXori:
      return static_cast<std::int32_t>(ua ^ ub);
    case O::kNor:
      return static_cast<std::int32_t>(~(ua | ub));
    case O::kSlt:
    case O::kSlti:
      return in.a < in.b ? 1 : 0;
    case O::kSltu:
    case O::kSltiu:
      return ua < ub ? 1 : 0;
    case O::kSll:
      return static_cast<std::int32_t>(ub << in.shamt);
    case O::kSrl:
      return static_cast<std::int32_t>(ub >> in.shamt);
    case O::kSra:
      return in.b >> in.shamt;
    case O::kSllv:
      return static_cast<std::int32_t>(ub << (ua & 31u));
    case O::kSrlv:
      return static_cast<std::int32_t>(ub >> (ua & 31u));
    case O::kSrav:
      return in.b >> (ua & 31u);
    case O::kLui:
      return static_cast<std::int32_t>(ub << 16);
    case O::kMul:
      return wrap_mul(in.a, in.b);
    case O::kMulh:
      return static_cast<std::int32_t>(
          (static_cast<std::int64_t>(in.a) * static_cast<std::int64_t>(in.b)) >>
          32);
    case O::kMulhu:
      return static_cast<std::int32_t>(
          (static_cast<std::uint64_t>(ua) * static_cast<std::uint64_t>(ub)) >>
          32);
    case O::kMac:
      return wrap_add(in.acc, wrap_mul(in.a, in.b));
    case O::kMax:
      return in.a > in.b ? in.a : in.b;
    case O::kMin:
      return in.a < in.b ? in.a : in.b;
    case O::kAbs:
      return in.a < 0 ? wrap_sub(0, in.a) : in.a;
    case O::kClz:
      return static_cast<std::int32_t>(std::countl_zero(ua));
    default:
      ZS_UNREACHABLE("alu_eval: opcode has no ALU result");
  }
}

/// The result of the ALU-kind record `op` (kAlu .. kAddi), reading source
/// registers through `read(reg)` only for the operands its kind uses. The
/// hot kinds evaluate in place; only the generic kAlu and kAluImm dispatch
/// again on the opcode, through alu_eval. The ISS step, the pipeline's EX
/// stage and the summary tier's replay all evaluate ALU records here, with
/// one case label per kind: always inlined, the helper's switch then folds
/// into the caller's.
template <typename ReadReg>
[[nodiscard, gnu::always_inline]] inline std::int32_t alu_kind_eval(
    const DecodedOp& op, const ReadReg& read) {
  using Kind = DecodedOp::Kind;
  const isa::Instruction& ins = op.instr;
  switch (op.kind) {
    case Kind::kAddi:
      return wrap_add(read(ins.rs), ins.imm);
    case Kind::kAdd:
      return wrap_add(read(ins.rs), read(ins.rt));
    case Kind::kMac:
      return wrap_add(read(op.dest), wrap_mul(read(ins.rs), read(ins.rt)));
    case Kind::kMax: {
      const std::int32_t a = read(ins.rs);
      const std::int32_t b = read(ins.rt);
      return a > b ? a : b;
    }
    case Kind::kSll: {
      const auto b = static_cast<std::uint32_t>(read(ins.rt));
      return static_cast<std::int32_t>(b << ins.shamt);
    }
    case Kind::kMul:
      return wrap_mul(read(ins.rs), read(ins.rt));
    case Kind::kAlu: {
      AluInputs in;
      in.a = read(ins.rs);
      in.b = read(ins.rt);
      in.acc = read(op.dest);
      in.shamt = ins.shamt;
      return alu_eval(ins.op, in);
    }
    case Kind::kAluImm: {
      AluInputs in;
      in.a = read(ins.rs);
      in.b = ins.imm;
      return alu_eval(ins.op, in);
    }
    default:
      ZS_UNREACHABLE("alu_kind_eval: not an ALU kind");
  }
}

/// Branch decision for conditional branches. For dbne, `rs` must be the
/// *decremented* value (rs_old - 1).
[[nodiscard]] inline bool branch_taken(isa::Opcode op, std::int32_t rs,
                                       std::int32_t rt) {
  using O = isa::Opcode;
  const auto urs = static_cast<std::uint32_t>(rs);
  const auto urt = static_cast<std::uint32_t>(rt);
  switch (op) {
    case O::kBeq: return rs == rt;
    case O::kBne: return rs != rt;
    case O::kBlez: return rs <= 0;
    case O::kBgtz: return rs > 0;
    case O::kBlt: return rs < rt;
    case O::kBge: return rs >= rt;
    case O::kBltu: return urs < urt;
    case O::kBgeu: return urs >= urt;
    case O::kDbne: return rs != 0;  // rs is the decremented value
    default:
      ZS_UNREACHABLE("branch_taken: not a conditional branch");
  }
}

/// Where a control transfer goes: whether it is taken and, if so, where.
struct ControlOutcome {
  bool taken = false;
  std::uint32_t target = 0;
};

/// Resolves the branch or jump `op` fetched at `pc` given its rs and rt
/// operand values; any other kind is not taken. A branch's target is only
/// computed when it is taken.
[[nodiscard]] inline ControlOutcome resolve_control(const DecodedOp& op,
                                                    std::uint32_t pc,
                                                    std::int32_t rs,
                                                    std::int32_t rt) {
  const isa::Instruction& instr = op.instr;
  switch (op.kind) {
    case DecodedOp::Kind::kBranch: {
      const std::int32_t lhs =
          instr.op == isa::Opcode::kDbne ? wrap_sub(rs, 1) : rs;
      if (!branch_taken(instr.op, lhs, rt)) return {};
      return {true, isa::branch_target(instr, pc)};
    }
    case DecodedOp::Kind::kJump:
      return {true, isa::jump_target(instr, pc)};
    case DecodedOp::Kind::kJumpReg:
      return {true, static_cast<std::uint32_t>(rs)};
    default:
      return {};
  }
}

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
