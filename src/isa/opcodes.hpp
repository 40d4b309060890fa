// Instruction set of the modelled embedded RISC core ("XR" below, standing in
// for the XiRisc soft core of the paper). A classic 32-bit load/store RISC:
//  * base integer ISA (MIPS/DLX-flavoured) with compare-and-branch,
//  * a small DSP group (mul/mac/min/max/abs/clz) as found on embedded DSPs,
//  * the XRhrdwil extension: `dbne` branch-decrement (configurable option of
//    the XiRisc core in the paper),
//  * the ZOLC extension: COP2-style table-write / activate instructions used
//    only in ZOLC "initialization" mode (Section 2 of the paper).
#ifndef ZOLCSIM_ISA_OPCODES_HPP
#define ZOLCSIM_ISA_OPCODES_HPP

#include <cstdint>
#include <optional>
#include <string_view>

namespace zolcsim::isa {

/// Every decodable operation, flattened (ZOLC sub-functions get their own
/// enumerators so the rest of the system never re-inspects funct fields).
enum class Opcode : std::uint8_t {
  kInvalid = 0,
  // R-type ALU (opcode 0x00 + funct)
  kAdd, kSub, kAnd, kOr, kXor, kNor, kSlt, kSltu,
  kSllv, kSrlv, kSrav,
  kSll, kSrl, kSra,          // shift-by-immediate (shamt field)
  kJr, kJalr,
  // DSP group (opcode 0x1C + funct)
  kMul, kMulh, kMulhu, kMac, kMax, kMin, kAbs, kClz,
  // I-type ALU
  kAddi, kSlti, kSltiu, kAndi, kOri, kXori, kLui,
  // Conditional branches (PC-relative, offset in words)
  kBeq, kBne, kBlez, kBgtz, kBlt, kBge, kBltu, kBgeu,
  // Loads / stores
  kLb, kLh, kLw, kLbu, kLhu, kSb, kSh, kSw,
  // Jumps
  kJ, kJal,
  // XRhrdwil extension: decrement rs, branch if result non-zero.
  kDbne,
  // ZOLC extension (opcode 0x12 + funct), initialization-mode writes:
  kZolwTe,   ///< task LUT entry[idx]  := rs (32 bits)
  kZolwTs,   ///< task start[idx]      := rs[15:0]
  kZolwLp0,  ///< loop[idx] word0      := rs (initial:16 | final:16)
  kZolwLp1,  ///< loop[idx] word1      := rs (step/index_rf/cond/flags)
  kZolwEx0,  ///< exit record[idx] lo  := rs (32 bits)
  kZolwEx1,  ///< exit record[idx] hi  := rs[15:0]
  kZolwEn0,  ///< entry record[idx] lo := rs (32 bits)
  kZolwEn1,  ///< entry record[idx] hi := rs[15:0]
  kZolwU,    ///< uZOLC register[idx]  := rs
  kZolOn,    ///< activate: base := rs, current task := idx
  kZolOff,   ///< deactivate
  // Simulation control
  kHalt,
  kOpcodeCount_,  // sentinel
};

/// Operand/encoding format classes.
enum class Format : std::uint8_t {
  kR3,          ///< rd, rs, rt
  kR3Acc,       ///< rd, rs, rt with rd also read (mac)
  kRShift,      ///< rd, rt, shamt
  kR2,          ///< rd, rs          (abs, clz, jalr)
  kR1,          ///< rs              (jr)
  kI,           ///< rt, rs, imm16 (signed unless noted)
  kLui,         ///< rt, imm16
  kBranchCmp,   ///< rs, rt, offset16
  kBranchZero,  ///< rs, offset16    (blez, bgtz, dbne)
  kMem,         ///< rt, offset16(rs)
  kJump,        ///< target26
  kZolcWrite,   ///< rs, idx8        (table writes, zolon)
  kZolcNone,    ///< no operands     (zoloff)
  kNone,        ///< no operands     (halt)
};

/// Static per-opcode properties consumed by the encoder/decoder,
/// cpu::decode_op, the CFG builder and the disassembler.
struct OpcodeInfo {
  Opcode op = Opcode::kInvalid;
  std::string_view mnemonic;
  Format format = Format::kNone;
  std::uint8_t primary = 0;   ///< bits [31:26]
  std::uint8_t funct = 0;     ///< bits [5:0] for R/DSP/ZOLC groups
  bool reads_rs = false;
  bool reads_rt = false;
  bool reads_rd = false;      ///< mac accumulates into rd
  bool writes_rd = false;
  bool writes_rt = false;     ///< I-type destination
  bool writes_rs = false;     ///< dbne decrements rs
  bool is_cond_branch = false;
  bool is_jump = false;       ///< unconditional control transfer
  bool is_load = false;
  bool is_store = false;
  bool is_zolc = false;
  bool imm_is_signed = true;  ///< for kI: andi/ori/xori/sltiu are zero-extended
};

/// Returns the metadata record for `op`. Precondition: op is a real opcode.
const OpcodeInfo& opcode_info(Opcode op);

/// Primary opcode field values for the instruction groups.
inline constexpr std::uint8_t kPrimarySpecial = 0x00;  // R-type group
inline constexpr std::uint8_t kPrimaryDsp = 0x1C;      // DSP group
inline constexpr std::uint8_t kPrimaryZolc = 0x12;     // ZOLC group (COP2)
inline constexpr std::uint8_t kPrimaryDbne = 0x1D;
inline constexpr std::uint8_t kPrimaryHalt = 0x3F;

/// Number of general-purpose registers; register 0 is hardwired to zero.
inline constexpr unsigned kNumRegs = 32;

/// Conventional register names ($zero, $at, $v0, ... $ra), index 0..31.
std::string_view reg_name(unsigned reg);

}  // namespace zolcsim::isa

#endif  // ZOLCSIM_ISA_OPCODES_HPP
