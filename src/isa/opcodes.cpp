#include "isa/opcodes.hpp"

#include <array>

#include "common/contracts.hpp"

namespace zolcsim::isa {

namespace {

// Funct encodings inside the SPECIAL (0x00) group, MIPS-flavoured.
constexpr std::uint8_t kFnSll = 0x00, kFnSrl = 0x02, kFnSra = 0x03;
constexpr std::uint8_t kFnSllv = 0x04, kFnSrlv = 0x06, kFnSrav = 0x07;
constexpr std::uint8_t kFnJr = 0x08, kFnJalr = 0x09;
constexpr std::uint8_t kFnAdd = 0x20, kFnSub = 0x22, kFnAnd = 0x24;
constexpr std::uint8_t kFnOr = 0x25, kFnXor = 0x26, kFnNor = 0x27;
constexpr std::uint8_t kFnSlt = 0x2A, kFnSltu = 0x2B;

// Funct encodings inside the DSP (0x1C) group.
constexpr std::uint8_t kFnMul = 0x02, kFnMulh = 0x03, kFnMulhu = 0x04;
constexpr std::uint8_t kFnMac = 0x05, kFnMax = 0x06, kFnMin = 0x07;
constexpr std::uint8_t kFnAbs = 0x08, kFnClz = 0x09;

// Funct encodings inside the ZOLC (0x12) group.
constexpr std::uint8_t kFnZolwTe = 0x00, kFnZolwTs = 0x01;
constexpr std::uint8_t kFnZolwLp0 = 0x02, kFnZolwLp1 = 0x03;
constexpr std::uint8_t kFnZolwEx0 = 0x04, kFnZolwEx1 = 0x05;
constexpr std::uint8_t kFnZolwEn0 = 0x06, kFnZolwEn1 = 0x07;
constexpr std::uint8_t kFnZolwU = 0x0A;
constexpr std::uint8_t kFnZolOn = 0x08, kFnZolOff = 0x09;

struct InfoBuilder {
  OpcodeInfo info;

  static InfoBuilder make(Opcode op, std::string_view mnemonic, Format fmt,
                          std::uint8_t primary, std::uint8_t funct = 0) {
    InfoBuilder b;
    b.info.op = op;
    b.info.mnemonic = mnemonic;
    b.info.format = fmt;
    b.info.primary = primary;
    b.info.funct = funct;
    switch (fmt) {
      case Format::kR3:
        b.info.reads_rs = b.info.reads_rt = b.info.writes_rd = true;
        break;
      case Format::kR3Acc:
        b.info.reads_rs = b.info.reads_rt = b.info.reads_rd = true;
        b.info.writes_rd = true;
        break;
      case Format::kRShift:
        b.info.reads_rt = b.info.writes_rd = true;
        break;
      case Format::kR2:
        b.info.reads_rs = b.info.writes_rd = true;
        break;
      case Format::kR1:
        b.info.reads_rs = true;
        break;
      case Format::kI:
      case Format::kMem:
        b.info.reads_rs = true;
        b.info.writes_rt = true;  // overridden for stores below
        break;
      case Format::kLui:
        b.info.writes_rt = true;
        break;
      case Format::kBranchCmp:
        b.info.reads_rs = b.info.reads_rt = true;
        b.info.is_cond_branch = true;
        break;
      case Format::kBranchZero:
        b.info.reads_rs = true;
        b.info.is_cond_branch = true;
        break;
      case Format::kJump:
      case Format::kZolcWrite:
      case Format::kZolcNone:
      case Format::kNone:
        break;
    }
    return b;
  }

  InfoBuilder load() { info.is_load = true; return *this; }
  InfoBuilder store() {
    info.is_store = true;
    info.writes_rt = false;
    info.reads_rt = true;
    return *this;
  }
  InfoBuilder jump() { info.is_jump = true; info.is_cond_branch = false; return *this; }
  InfoBuilder zolc() { info.is_zolc = true; info.reads_rs = true; return *this; }
  InfoBuilder zolc_noreg() { info.is_zolc = true; info.reads_rs = false; return *this; }
  InfoBuilder unsigned_imm() { info.imm_is_signed = false; return *this; }
  InfoBuilder writes_rs_too() { info.writes_rs = true; return *this; }
};

using Table = std::array<OpcodeInfo, static_cast<std::size_t>(Opcode::kOpcodeCount_)>;

Table build_table() {
  Table t{};
  const auto set = [&t](InfoBuilder b) {
    t[static_cast<std::size_t>(b.info.op)] = b.info;
  };
  using B = InfoBuilder;
  using O = Opcode;
  using F = Format;

  // SPECIAL group.
  set(B::make(O::kAdd, "add", F::kR3, kPrimarySpecial, kFnAdd));
  set(B::make(O::kSub, "sub", F::kR3, kPrimarySpecial, kFnSub));
  set(B::make(O::kAnd, "and", F::kR3, kPrimarySpecial, kFnAnd));
  set(B::make(O::kOr, "or", F::kR3, kPrimarySpecial, kFnOr));
  set(B::make(O::kXor, "xor", F::kR3, kPrimarySpecial, kFnXor));
  set(B::make(O::kNor, "nor", F::kR3, kPrimarySpecial, kFnNor));
  set(B::make(O::kSlt, "slt", F::kR3, kPrimarySpecial, kFnSlt));
  set(B::make(O::kSltu, "sltu", F::kR3, kPrimarySpecial, kFnSltu));
  set(B::make(O::kSllv, "sllv", F::kR3, kPrimarySpecial, kFnSllv));
  set(B::make(O::kSrlv, "srlv", F::kR3, kPrimarySpecial, kFnSrlv));
  set(B::make(O::kSrav, "srav", F::kR3, kPrimarySpecial, kFnSrav));
  set(B::make(O::kSll, "sll", F::kRShift, kPrimarySpecial, kFnSll));
  set(B::make(O::kSrl, "srl", F::kRShift, kPrimarySpecial, kFnSrl));
  set(B::make(O::kSra, "sra", F::kRShift, kPrimarySpecial, kFnSra));
  set(B::make(O::kJr, "jr", F::kR1, kPrimarySpecial, kFnJr).jump());
  set(B::make(O::kJalr, "jalr", F::kR2, kPrimarySpecial, kFnJalr).jump());

  // DSP group.
  set(B::make(O::kMul, "mul", F::kR3, kPrimaryDsp, kFnMul));
  set(B::make(O::kMulh, "mulh", F::kR3, kPrimaryDsp, kFnMulh));
  set(B::make(O::kMulhu, "mulhu", F::kR3, kPrimaryDsp, kFnMulhu));
  set(B::make(O::kMac, "mac", F::kR3Acc, kPrimaryDsp, kFnMac));
  set(B::make(O::kMax, "max", F::kR3, kPrimaryDsp, kFnMax));
  set(B::make(O::kMin, "min", F::kR3, kPrimaryDsp, kFnMin));
  set(B::make(O::kAbs, "abs", F::kR2, kPrimaryDsp, kFnAbs));
  set(B::make(O::kClz, "clz", F::kR2, kPrimaryDsp, kFnClz));

  // I-type ALU.
  set(B::make(O::kAddi, "addi", F::kI, 0x08));
  set(B::make(O::kSlti, "slti", F::kI, 0x0A));
  set(B::make(O::kSltiu, "sltiu", F::kI, 0x0B).unsigned_imm());
  set(B::make(O::kAndi, "andi", F::kI, 0x0C).unsigned_imm());
  set(B::make(O::kOri, "ori", F::kI, 0x0D).unsigned_imm());
  set(B::make(O::kXori, "xori", F::kI, 0x0E).unsigned_imm());
  set(B::make(O::kLui, "lui", F::kLui, 0x0F).unsigned_imm());

  // Branches.
  set(B::make(O::kBeq, "beq", F::kBranchCmp, 0x04));
  set(B::make(O::kBne, "bne", F::kBranchCmp, 0x05));
  set(B::make(O::kBlez, "blez", F::kBranchZero, 0x06));
  set(B::make(O::kBgtz, "bgtz", F::kBranchZero, 0x07));
  set(B::make(O::kBlt, "blt", F::kBranchCmp, 0x18));
  set(B::make(O::kBge, "bge", F::kBranchCmp, 0x19));
  set(B::make(O::kBltu, "bltu", F::kBranchCmp, 0x1A));
  set(B::make(O::kBgeu, "bgeu", F::kBranchCmp, 0x1B));

  // Loads / stores.
  set(B::make(O::kLb, "lb", F::kMem, 0x20).load());
  set(B::make(O::kLh, "lh", F::kMem, 0x21).load());
  set(B::make(O::kLw, "lw", F::kMem, 0x23).load());
  set(B::make(O::kLbu, "lbu", F::kMem, 0x24).load());
  set(B::make(O::kLhu, "lhu", F::kMem, 0x25).load());
  set(B::make(O::kSb, "sb", F::kMem, 0x28).store());
  set(B::make(O::kSh, "sh", F::kMem, 0x29).store());
  set(B::make(O::kSw, "sw", F::kMem, 0x2B).store());

  // Jumps.
  set(B::make(O::kJ, "j", F::kJump, 0x02).jump());
  set(B::make(O::kJal, "jal", F::kJump, 0x03).jump());

  // XRhrdwil branch-decrement: reads and writes rs, conditional branch.
  set(B::make(O::kDbne, "dbne", F::kBranchZero, kPrimaryDbne).writes_rs_too());

  // ZOLC initialization-mode instructions.
  set(B::make(O::kZolwTe, "zolw.te", F::kZolcWrite, kPrimaryZolc, kFnZolwTe).zolc());
  set(B::make(O::kZolwTs, "zolw.ts", F::kZolcWrite, kPrimaryZolc, kFnZolwTs).zolc());
  set(B::make(O::kZolwLp0, "zolw.lp0", F::kZolcWrite, kPrimaryZolc, kFnZolwLp0).zolc());
  set(B::make(O::kZolwLp1, "zolw.lp1", F::kZolcWrite, kPrimaryZolc, kFnZolwLp1).zolc());
  set(B::make(O::kZolwEx0, "zolw.ex0", F::kZolcWrite, kPrimaryZolc, kFnZolwEx0).zolc());
  set(B::make(O::kZolwEx1, "zolw.ex1", F::kZolcWrite, kPrimaryZolc, kFnZolwEx1).zolc());
  set(B::make(O::kZolwEn0, "zolw.en0", F::kZolcWrite, kPrimaryZolc, kFnZolwEn0).zolc());
  set(B::make(O::kZolwEn1, "zolw.en1", F::kZolcWrite, kPrimaryZolc, kFnZolwEn1).zolc());
  set(B::make(O::kZolwU, "zolw.u", F::kZolcWrite, kPrimaryZolc, kFnZolwU).zolc());
  set(B::make(O::kZolOn, "zolon", F::kZolcWrite, kPrimaryZolc, kFnZolOn).zolc());
  set(B::make(O::kZolOff, "zoloff", F::kZolcNone, kPrimaryZolc, kFnZolOff).zolc_noreg());

  set(B::make(O::kHalt, "halt", F::kNone, kPrimaryHalt));
  return t;
}

const Table& table() {
  static const Table t = build_table();
  return t;
}

constexpr std::array<std::string_view, kNumRegs> kRegNames = {
    "$zero", "$at", "$v0", "$v1", "$a0", "$a1", "$a2", "$a3",
    "$t0",   "$t1", "$t2", "$t3", "$t4", "$t5", "$t6", "$t7",
    "$s0",   "$s1", "$s2", "$s3", "$s4", "$s5", "$s6", "$s7",
    "$t8",   "$t9", "$k0", "$k1", "$gp", "$sp", "$fp", "$ra"};

}  // namespace

const OpcodeInfo& opcode_info(Opcode op) {
  ZS_EXPECTS(op != Opcode::kInvalid && op != Opcode::kOpcodeCount_);
  const OpcodeInfo& info = table()[static_cast<std::size_t>(op)];
  ZS_ENSURES(info.op == op);
  return info;
}

std::string_view reg_name(unsigned reg) {
  ZS_EXPECTS(reg < kNumRegs);
  return kRegNames[reg];
}

}  // namespace zolcsim::isa
