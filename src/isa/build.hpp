// Instruction factories: the canonical way to construct decoded instructions
// programmatically (code generator, tests, examples). Field placement
// mirrors the disassembler's operand order.
#ifndef ZOLCSIM_ISA_BUILD_HPP
#define ZOLCSIM_ISA_BUILD_HPP

#include <cstdint>

#include "isa/instruction.hpp"

namespace zolcsim::isa::build {

using Reg = std::uint8_t;

inline Instruction r3(Opcode op, Reg rd, Reg rs, Reg rt) {
  Instruction i;
  i.op = op;
  i.rd = rd;
  i.rs = rs;
  i.rt = rt;
  return i;
}

inline Instruction add(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kAdd, rd, rs, rt); }
inline Instruction sub(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kSub, rd, rs, rt); }
inline Instruction and_(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kAnd, rd, rs, rt); }
inline Instruction or_(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kOr, rd, rs, rt); }
inline Instruction xor_(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kXor, rd, rs, rt); }
inline Instruction nor_(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kNor, rd, rs, rt); }
inline Instruction slt(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kSlt, rd, rs, rt); }
inline Instruction sltu(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kSltu, rd, rs, rt); }
inline Instruction sllv(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kSllv, rd, rs, rt); }
inline Instruction srlv(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kSrlv, rd, rs, rt); }
inline Instruction srav(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kSrav, rd, rs, rt); }
inline Instruction mul(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kMul, rd, rs, rt); }
inline Instruction mulh(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kMulh, rd, rs, rt); }
inline Instruction mulhu(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kMulhu, rd, rs, rt); }
inline Instruction mac(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kMac, rd, rs, rt); }
inline Instruction max(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kMax, rd, rs, rt); }
inline Instruction min(Reg rd, Reg rs, Reg rt) { return r3(Opcode::kMin, rd, rs, rt); }

inline Instruction shift(Opcode op, Reg rd, Reg rt, std::uint8_t shamt) {
  Instruction i;
  i.op = op;
  i.rd = rd;
  i.rt = rt;
  i.shamt = shamt;
  return i;
}
inline Instruction sll(Reg rd, Reg rt, std::uint8_t sh) { return shift(Opcode::kSll, rd, rt, sh); }
inline Instruction srl(Reg rd, Reg rt, std::uint8_t sh) { return shift(Opcode::kSrl, rd, rt, sh); }
inline Instruction sra(Reg rd, Reg rt, std::uint8_t sh) { return shift(Opcode::kSra, rd, rt, sh); }

inline Instruction r2(Opcode op, Reg rd, Reg rs) {
  Instruction i;
  i.op = op;
  i.rd = rd;
  i.rs = rs;
  return i;
}
inline Instruction abs_(Reg rd, Reg rs) { return r2(Opcode::kAbs, rd, rs); }
inline Instruction clz(Reg rd, Reg rs) { return r2(Opcode::kClz, rd, rs); }
inline Instruction jalr(Reg rd, Reg rs) { return r2(Opcode::kJalr, rd, rs); }

inline Instruction jr(Reg rs) {
  Instruction i;
  i.op = Opcode::kJr;
  i.rs = rs;
  return i;
}

inline Instruction itype(Opcode op, Reg rt, Reg rs, std::int32_t imm) {
  Instruction i;
  i.op = op;
  i.rt = rt;
  i.rs = rs;
  i.imm = imm;
  return i;
}
inline Instruction addi(Reg rt, Reg rs, std::int32_t imm) { return itype(Opcode::kAddi, rt, rs, imm); }
inline Instruction slti(Reg rt, Reg rs, std::int32_t imm) { return itype(Opcode::kSlti, rt, rs, imm); }
inline Instruction sltiu(Reg rt, Reg rs, std::int32_t imm) { return itype(Opcode::kSltiu, rt, rs, imm); }
inline Instruction andi(Reg rt, Reg rs, std::int32_t imm) { return itype(Opcode::kAndi, rt, rs, imm); }
inline Instruction ori(Reg rt, Reg rs, std::int32_t imm) { return itype(Opcode::kOri, rt, rs, imm); }
inline Instruction xori(Reg rt, Reg rs, std::int32_t imm) { return itype(Opcode::kXori, rt, rs, imm); }

inline Instruction lui(Reg rt, std::int32_t imm) {
  Instruction i;
  i.op = Opcode::kLui;
  i.rt = rt;
  i.imm = imm;
  return i;
}

/// Branch offsets are in *words* relative to pc + 4 (the raw encoding field).
inline Instruction branch(Opcode op, Reg rs, Reg rt, std::int32_t word_ofs) {
  Instruction i;
  i.op = op;
  i.rs = rs;
  i.rt = rt;
  i.imm = word_ofs;
  return i;
}
inline Instruction beq(Reg rs, Reg rt, std::int32_t ofs) { return branch(Opcode::kBeq, rs, rt, ofs); }
inline Instruction bne(Reg rs, Reg rt, std::int32_t ofs) { return branch(Opcode::kBne, rs, rt, ofs); }
inline Instruction blt(Reg rs, Reg rt, std::int32_t ofs) { return branch(Opcode::kBlt, rs, rt, ofs); }
inline Instruction bge(Reg rs, Reg rt, std::int32_t ofs) { return branch(Opcode::kBge, rs, rt, ofs); }
inline Instruction bltu(Reg rs, Reg rt, std::int32_t ofs) { return branch(Opcode::kBltu, rs, rt, ofs); }
inline Instruction bgeu(Reg rs, Reg rt, std::int32_t ofs) { return branch(Opcode::kBgeu, rs, rt, ofs); }
inline Instruction blez(Reg rs, std::int32_t ofs) { return branch(Opcode::kBlez, rs, 0, ofs); }
inline Instruction bgtz(Reg rs, std::int32_t ofs) { return branch(Opcode::kBgtz, rs, 0, ofs); }
inline Instruction dbne(Reg rs, std::int32_t ofs) { return branch(Opcode::kDbne, rs, 0, ofs); }

inline Instruction memop(Opcode op, Reg rt, std::int32_t offset, Reg base) {
  Instruction i;
  i.op = op;
  i.rt = rt;
  i.rs = base;
  i.imm = offset;
  return i;
}
inline Instruction lw(Reg rt, std::int32_t ofs, Reg base) { return memop(Opcode::kLw, rt, ofs, base); }
inline Instruction lh(Reg rt, std::int32_t ofs, Reg base) { return memop(Opcode::kLh, rt, ofs, base); }
inline Instruction lhu(Reg rt, std::int32_t ofs, Reg base) { return memop(Opcode::kLhu, rt, ofs, base); }
inline Instruction lb(Reg rt, std::int32_t ofs, Reg base) { return memop(Opcode::kLb, rt, ofs, base); }
inline Instruction lbu(Reg rt, std::int32_t ofs, Reg base) { return memop(Opcode::kLbu, rt, ofs, base); }
inline Instruction sw(Reg rt, std::int32_t ofs, Reg base) { return memop(Opcode::kSw, rt, ofs, base); }
inline Instruction sh(Reg rt, std::int32_t ofs, Reg base) { return memop(Opcode::kSh, rt, ofs, base); }
inline Instruction sb(Reg rt, std::int32_t ofs, Reg base) { return memop(Opcode::kSb, rt, ofs, base); }

/// Jump to an absolute byte address (within the current 256 MiB region).
inline Instruction j(std::uint32_t target_addr) {
  Instruction i;
  i.op = Opcode::kJ;
  i.target = (target_addr >> 2) & 0x03FF'FFFFu;
  return i;
}
inline Instruction jal(std::uint32_t target_addr) {
  Instruction i;
  i.op = Opcode::kJal;
  i.target = (target_addr >> 2) & 0x03FF'FFFFu;
  return i;
}

inline Instruction zolc_write(Opcode op, std::uint8_t idx, Reg rs) {
  Instruction i;
  i.op = op;
  i.zidx = idx;
  i.rs = rs;
  return i;
}
inline Instruction zolon(std::uint8_t start_task, Reg base) {
  return zolc_write(Opcode::kZolOn, start_task, base);
}
inline Instruction zoloff() {
  Instruction i;
  i.op = Opcode::kZolOff;
  return i;
}

inline Instruction halt() {
  Instruction i;
  i.op = Opcode::kHalt;
  return i;
}

inline Instruction nop() { return make_nop(); }

}  // namespace zolcsim::isa::build

#endif  // ZOLCSIM_ISA_BUILD_HPP
