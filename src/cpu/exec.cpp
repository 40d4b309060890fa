#include "cpu/exec.hpp"

#include <bit>

#include "common/contracts.hpp"

namespace zolcsim::cpu {

namespace {

// Two's-complement arithmetic via unsigned math (defined overflow), as the
// hardware does; the core has no overflow traps.
std::int32_t wrap_add(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) +
                                   static_cast<std::uint32_t>(b));
}

std::int32_t wrap_sub(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) -
                                   static_cast<std::uint32_t>(b));
}

std::int32_t wrap_mul(std::int32_t a, std::int32_t b) noexcept {
  return static_cast<std::int32_t>(static_cast<std::uint32_t>(a) *
                                   static_cast<std::uint32_t>(b));
}

}  // namespace

std::int32_t alu_eval(isa::Opcode op, const AluInputs& in) {
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
    case O::kDbne:
      return wrap_sub(in.a, 1);  // decremented counter, written back to rs
    case O::kJal:
    case O::kJalr:
      return in.acc;  // link value (pc + 4), supplied by the caller
    default:
      ZS_UNREACHABLE("alu_eval: opcode has no ALU result");
  }
}

bool branch_taken(isa::Opcode op, std::int32_t rs, std::int32_t rt) {
  using O = isa::Opcode;
  const auto urs = static_cast<std::uint32_t>(rs);
  const auto urt = static_cast<std::uint32_t>(rt);
  switch (op) {
    case O::kBeq:  return rs == rt;
    case O::kBne:  return rs != rt;
    case O::kBlez: return rs <= 0;
    case O::kBgtz: return rs > 0;
    case O::kBlt:  return rs < rt;
    case O::kBge:  return rs >= rt;
    case O::kBltu: return urs < urt;
    case O::kBgeu: return urs >= urt;
    case O::kDbne: return rs != 0;  // rs is the decremented value
    default:
      ZS_UNREACHABLE("branch_taken: not a conditional branch");
  }
}

}  // namespace zolcsim::cpu
