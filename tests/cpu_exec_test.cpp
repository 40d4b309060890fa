// Functional (ISS) semantics: one test per instruction class, each checking
// architecturally visible results against hand-computed values.
#include <gtest/gtest.h>

#include <array>
#include <iterator>
#include <limits>
#include <random>
#include <set>

#include "common/strings.hpp"
#include "sim_test_util.hpp"
#include "zolc/controller.hpp"

namespace zolcsim::cpu {
namespace {

namespace b = isa::build;
using isa::Instruction;
using test::emit_li;
using test::run_iss;

std::int32_t run_binary_op(Instruction op_instr, std::int32_t a,
                           std::int32_t b_val, std::uint8_t dest = 3) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, static_cast<std::uint32_t>(a));
  emit_li(prog, 2, static_cast<std::uint32_t>(b_val));
  prog.push_back(op_instr);
  prog.push_back(b::halt());
  return run_iss(prog).regs.read(dest);
}

TEST(ExecAlu, AddSubWrapAround) {
  EXPECT_EQ(run_binary_op(b::add(3, 1, 2), 5, 7), 12);
  EXPECT_EQ(run_binary_op(b::add(3, 1, 2), INT32_MAX, 1), INT32_MIN);
  EXPECT_EQ(run_binary_op(b::sub(3, 1, 2), 5, 7), -2);
  EXPECT_EQ(run_binary_op(b::sub(3, 1, 2), INT32_MIN, 1), INT32_MAX);
}

TEST(ExecAlu, Bitwise) {
  EXPECT_EQ(run_binary_op(b::and_(3, 1, 2), 0x0FF0, 0x00FF), 0x00F0);
  EXPECT_EQ(run_binary_op(b::or_(3, 1, 2), 0x0FF0, 0x00FF), 0x0FFF);
  EXPECT_EQ(run_binary_op(b::xor_(3, 1, 2), 0x0FF0, 0x00FF), 0x0F0F);
  EXPECT_EQ(run_binary_op(b::nor_(3, 1, 2), 0, 0), -1);
}

TEST(ExecAlu, SetLessThan) {
  EXPECT_EQ(run_binary_op(b::slt(3, 1, 2), -1, 1), 1);
  EXPECT_EQ(run_binary_op(b::slt(3, 1, 2), 1, -1), 0);
  EXPECT_EQ(run_binary_op(b::sltu(3, 1, 2), -1, 1), 0);  // 0xFFFFFFFF > 1
  EXPECT_EQ(run_binary_op(b::sltu(3, 1, 2), 1, -1), 1);
}

TEST(ExecAlu, ShiftsImmediate) {
  std::vector<Instruction> prog;
  emit_li(prog, 2, 0x8000'0001u);
  prog.push_back(b::sll(3, 2, 1));
  prog.push_back(b::srl(4, 2, 1));
  prog.push_back(b::sra(5, 2, 1));
  prog.push_back(b::sll(6, 2, 0));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read_u(3), 0x0000'0002u);
  EXPECT_EQ(r.regs.read_u(4), 0x4000'0000u);
  EXPECT_EQ(r.regs.read_u(5), 0xC000'0000u);
  EXPECT_EQ(r.regs.read_u(6), 0x8000'0001u);
}

TEST(ExecAlu, VariableShiftsMaskAmountTo5Bits) {
  // shift amount 33 & 31 == 1
  EXPECT_EQ(run_binary_op(b::sllv(3, 1, 2), 33, 1), 2);
  EXPECT_EQ(run_binary_op(b::srlv(3, 1, 2), 32, 8), 8);  // 32&31==0
  EXPECT_EQ(run_binary_op(b::srav(3, 1, 2), 1, -4), -2);
}

TEST(ExecAlu, LuiOriComposition) {
  std::vector<Instruction> prog;
  prog.push_back(b::lui(1, 0xDEAD));
  prog.push_back(b::ori(1, 1, 0xBEEF));
  prog.push_back(b::halt());
  EXPECT_EQ(run_iss(prog).regs.read_u(1), 0xDEAD'BEEFu);
}

TEST(ExecAlu, ImmediateOps) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(1, 0, 100));
  prog.push_back(b::addi(2, 1, -1));
  prog.push_back(b::slti(3, 1, 101));
  prog.push_back(b::sltiu(4, 1, 99));
  prog.push_back(b::andi(5, 1, 0x6));
  prog.push_back(b::xori(6, 1, 0xFF));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(1), 100);
  EXPECT_EQ(r.regs.read(2), 99);
  EXPECT_EQ(r.regs.read(3), 1);
  EXPECT_EQ(r.regs.read(4), 0);
  EXPECT_EQ(r.regs.read(5), 100 & 6);
  EXPECT_EQ(r.regs.read(6), 100 ^ 0xFF);
}

TEST(ExecDsp, MultiplyFamily) {
  EXPECT_EQ(run_binary_op(b::mul(3, 1, 2), 7, -6), -42);
  EXPECT_EQ(run_binary_op(b::mul(3, 1, 2), 0x10000, 0x10000), 0);  // low 32
  EXPECT_EQ(run_binary_op(b::mulh(3, 1, 2), 0x10000, 0x10000), 1);
  EXPECT_EQ(run_binary_op(b::mulh(3, 1, 2), -1, -1), 0);
  EXPECT_EQ(run_binary_op(b::mulhu(3, 1, 2), -1, -1), -2);  // 0xFFFFFFFE
}

TEST(ExecDsp, MacAccumulates) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, 3);
  emit_li(prog, 2, 4);
  emit_li(prog, 3, 100);
  prog.push_back(b::mac(3, 1, 2));  // 100 + 12
  prog.push_back(b::mac(3, 1, 2));  // 112 + 12
  prog.push_back(b::halt());
  EXPECT_EQ(run_iss(prog).regs.read(3), 124);
}

TEST(ExecDsp, MinMaxAbsClz) {
  EXPECT_EQ(run_binary_op(b::max(3, 1, 2), -5, 3), 3);
  EXPECT_EQ(run_binary_op(b::min(3, 1, 2), -5, 3), -5);
  std::vector<Instruction> prog;
  emit_li(prog, 1, static_cast<std::uint32_t>(-7));
  prog.push_back(b::abs_(3, 1));
  emit_li(prog, 2, 0x0001'0000u);
  prog.push_back(b::clz(4, 2));
  prog.push_back(b::clz(5, 0));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(3), 7);
  EXPECT_EQ(r.regs.read(4), 15);
  EXPECT_EQ(r.regs.read(5), 32);
}

TEST(ExecMem, LoadStoreWidthsAndExtension) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, 0x2000);            // base
  emit_li(prog, 2, 0xFFFF'FF80u);      // -128 pattern
  prog.push_back(b::sw(2, 0, 1));
  prog.push_back(b::lb(3, 0, 1));      // sign-extended byte
  prog.push_back(b::lbu(4, 0, 1));     // zero-extended byte
  prog.push_back(b::lh(5, 0, 1));
  prog.push_back(b::lhu(6, 0, 1));
  prog.push_back(b::lw(7, 0, 1));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(3), -128);
  EXPECT_EQ(r.regs.read(4), 0x80);
  EXPECT_EQ(r.regs.read(5), -128);
  EXPECT_EQ(r.regs.read(6), 0xFF80);
  EXPECT_EQ(r.regs.read_u(7), 0xFFFF'FF80u);
}

TEST(ExecMem, SubWordStoresMerge) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, 0x2000);
  emit_li(prog, 2, 0x1111'1111u);
  prog.push_back(b::sw(2, 0, 1));
  emit_li(prog, 3, 0xAB);
  prog.push_back(b::sb(3, 1, 1));   // byte 1
  emit_li(prog, 4, 0xCDEF);
  prog.push_back(b::sh(4, 2, 1));   // upper half
  prog.push_back(b::lw(5, 0, 1));
  prog.push_back(b::halt());
  EXPECT_EQ(run_iss(prog).regs.read_u(5), 0xCDEF'AB11u);
}

TEST(ExecMem, NegativeOffsets) {
  std::vector<Instruction> prog;
  emit_li(prog, 1, 0x2010);
  emit_li(prog, 2, 77);
  prog.push_back(b::sw(2, -16, 1));
  prog.push_back(b::lw(3, -16, 1));
  prog.push_back(b::halt());
  EXPECT_EQ(run_iss(prog).regs.read(3), 77);
}

struct BranchCase {
  Instruction instr;
  std::int32_t rs;
  std::int32_t rt;
  bool taken;
  const char* name;
};

class BranchSemantics : public ::testing::TestWithParam<BranchCase> {};

TEST_P(BranchSemantics, TakenMatchesSpec) {
  const BranchCase& c = GetParam();
  // Layout: set r1, r2; branch +1 over a marker write; marker r10=1 executes
  // only when the branch is NOT taken.
  std::vector<Instruction> prog;
  emit_li(prog, 1, static_cast<std::uint32_t>(c.rs));
  emit_li(prog, 2, static_cast<std::uint32_t>(c.rt));
  Instruction br = c.instr;
  br.rs = 1;
  br.rt = 2;
  br.imm = 1;
  prog.push_back(br);
  prog.push_back(b::addi(10, 0, 1));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(10) == 0, c.taken) << c.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConditions, BranchSemantics,
    ::testing::Values(
        BranchCase{b::beq(0, 0, 0), 4, 4, true, "beq_eq"},
        BranchCase{b::beq(0, 0, 0), 4, 5, false, "beq_ne"},
        BranchCase{b::bne(0, 0, 0), 4, 5, true, "bne_ne"},
        BranchCase{b::bne(0, 0, 0), 4, 4, false, "bne_eq"},
        BranchCase{b::blt(0, 0, 0), -1, 0, true, "blt_neg"},
        BranchCase{b::blt(0, 0, 0), 0, 0, false, "blt_eq"},
        BranchCase{b::bge(0, 0, 0), 0, 0, true, "bge_eq"},
        BranchCase{b::bge(0, 0, 0), -2, -1, false, "bge_lt"},
        BranchCase{b::bltu(0, 0, 0), 1, -1, true, "bltu_wrap"},
        BranchCase{b::bltu(0, 0, 0), -1, 1, false, "bltu_wrap2"},
        BranchCase{b::bgeu(0, 0, 0), -1, 1, true, "bgeu_wrap"},
        BranchCase{b::blez(0, 0), 0, 0, true, "blez_zero"},
        BranchCase{b::blez(0, 0), 1, 0, false, "blez_pos"},
        BranchCase{b::bgtz(0, 0), 1, 0, true, "bgtz_pos"},
        BranchCase{b::bgtz(0, 0), 0, 0, false, "bgtz_zero"}),
    [](const ::testing::TestParamInfo<BranchCase>& info) {
      return info.param.name;
    });

TEST(ExecBranch, DbneDecrementsAndBranches) {
  // Loop three times: r1 = 3; body increments r2.
  std::vector<Instruction> prog;
  emit_li(prog, 1, 3);
  prog.push_back(b::addi(2, 2, 1));   // loop body (also the dbne target)
  prog.push_back(b::dbne(1, -2));     // back to the addi
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(2), 3);
  EXPECT_EQ(r.regs.read(1), 0);  // counter consumed
}

TEST(ExecJump, JalLinksAndJrReturns) {
  const std::uint32_t base = 0x1000;
  // 0x1000 addi r4,r0,1 ; 0x1004 jal 0x1010 ; 0x1008 addi r5,r0,1 ;
  // 0x100C halt ; 0x1010 addi r6,r0,1 ; 0x1014 jr $ra
  std::vector<Instruction> prog;
  prog.push_back(b::addi(4, 0, 1));
  prog.push_back(b::jal(base + 0x10));
  prog.push_back(b::addi(5, 0, 1));
  prog.push_back(b::halt());
  prog.push_back(b::addi(6, 0, 1));
  prog.push_back(b::jr(31));
  const auto r = run_iss(prog, nullptr, base);
  EXPECT_EQ(r.regs.read(4), 1);
  EXPECT_EQ(r.regs.read(5), 1);  // executed after return
  EXPECT_EQ(r.regs.read(6), 1);
  EXPECT_EQ(r.regs.read_u(31), base + 0x8);
}

TEST(ExecJump, JalrLinksIntoChosenRegister) {
  const std::uint32_t base = 0x1000;
  std::vector<Instruction> prog;
  emit_li(prog, 9, base + 0x10);       // 0x1000 target address
  prog.push_back(b::jalr(20, 9));      // 0x1004
  prog.push_back(b::halt());           // 0x1008 (skipped first)
  prog.push_back(b::nop());            // 0x100C
  prog.push_back(b::jr(20));           // 0x1010 -> back to 0x1008
  const auto r = run_iss(prog, nullptr, base);
  EXPECT_EQ(r.regs.read_u(20), base + 0x8);
}

TEST(ExecMisc, WritesToZeroRegisterIgnored) {
  std::vector<Instruction> prog;
  prog.push_back(b::addi(0, 0, 55));
  prog.push_back(b::add(3, 0, 0));
  prog.push_back(b::halt());
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(0), 0);
  EXPECT_EQ(r.regs.read(3), 0);
}

// ---------------- the shared decoder ----------------

/// The execution kind an instruction's format class (and, for the hot
/// ALU kinds, its opcode) implies.
DecodedOp::Kind expected_kind(const Instruction& instr) {
  using K = DecodedOp::Kind;
  using isa::Opcode;
  const isa::OpcodeInfo& info = isa::opcode_info(instr.op);
  switch (info.format) {
    case isa::Format::kR3:
    case isa::Format::kR3Acc:
    case isa::Format::kR2:
    case isa::Format::kR1:
    case isa::Format::kRShift:
      switch (instr.op) {
        case Opcode::kJr:
        case Opcode::kJalr: return K::kJumpReg;
        case Opcode::kAdd: return K::kAdd;
        case Opcode::kMac: return K::kMac;
        case Opcode::kMax: return K::kMax;
        case Opcode::kSll: return K::kSll;
        case Opcode::kMul: return K::kMul;
        default: return K::kAlu;
      }
    case isa::Format::kI:
    case isa::Format::kLui:
      return instr.op == Opcode::kAddi ? K::kAddi : K::kAluImm;
    case isa::Format::kMem:
      return info.is_load ? K::kLoad : K::kStore;
    case isa::Format::kBranchCmp:
    case isa::Format::kBranchZero:
      return K::kBranch;
    case isa::Format::kJump:
      return K::kJump;
    case isa::Format::kZolcWrite:
    case isa::Format::kZolcNone:
      return K::kZolc;
    case isa::Format::kNone:
      return K::kHalt;
  }
  return K::kInvalid;
}

TEST(DecodeOp, AgreesWithTheIsaQueriesForEveryOpcode) {
  using isa::Opcode;
  for (const Instruction& instr : test::representative_instructions()) {
    const isa::OpcodeInfo& info = isa::opcode_info(instr.op);
    SCOPED_TRACE(std::string(info.mnemonic));
    const DecodedOp op = decode_op(instr);
    EXPECT_EQ(op.instr, instr);
    EXPECT_EQ(op.info(), &info);
    EXPECT_EQ(op.srcs, isa::source_regs(instr));
    EXPECT_EQ(op.dest, isa::dest_reg(instr).value_or(0));
    EXPECT_EQ(op.is_control(), isa::is_control_flow(instr));
    EXPECT_EQ(op.kind, expected_kind(instr));
    const bool narrow_byte = instr.op == Opcode::kLb ||
                             instr.op == Opcode::kLbu ||
                             instr.op == Opcode::kSb;
    const bool narrow_half = instr.op == Opcode::kLh ||
                             instr.op == Opcode::kLhu ||
                             instr.op == Opcode::kSh;
    const unsigned width = info.is_load || info.is_store
                               ? (narrow_byte ? 1u : narrow_half ? 2u : 4u)
                               : 0u;
    EXPECT_EQ(op.width, width);
    EXPECT_EQ(op.sign_extend,
              instr.op == Opcode::kLb || instr.op == Opcode::kLh);
    // The memory-decode path produces the same record.
    EXPECT_EQ(decode_op(isa::decode(isa::encode(instr))), op);
  }
}

TEST(AluKindEval, EqualsAluEvalForEveryAluOpcode) {
  // Seeded random operands (with the 32-bit edge values mixed in) for every
  // ALU opcode, read through a register array: the per-kind cases must agree
  // with the generic evaluator, mac's accumulator and shifts by 0 and 31
  // included.
  constexpr std::int32_t kEdges[] = {0, 1, -1, INT32_MIN, INT32_MAX, 31, 32};
  std::mt19937 rng(0xA1u);
  const auto value = [&rng, &kEdges]() {
    const std::uint32_t r = rng();
    return (r & 7u) == 0 ? kEdges[(r >> 3) % std::size(kEdges)]
                         : static_cast<std::int32_t>(rng());
  };
  std::set<DecodedOp::Kind> kinds;
  for (Instruction instr : test::representative_instructions()) {
    const DecodedOp::Kind kind = decode_op(instr).kind;
    if (kind < DecodedOp::Kind::kAlu || kind > DecodedOp::Kind::kAddi) {
      continue;
    }
    const isa::OpcodeInfo& info = isa::opcode_info(instr.op);
    SCOPED_TRACE(std::string(info.mnemonic));
    for (int trial = 0; trial < 256; ++trial) {
      std::array<std::int32_t, isa::kNumRegs> regs{};
      for (unsigned r = 1; r < isa::kNumRegs; ++r) regs[r] = value();
      // Shift amounts 0 and 31 first, fixed and from rs, then random.
      const std::uint32_t amount =
          trial == 0 ? 0u : trial == 1 ? 31u : rng() & 31u;
      instr.shamt = static_cast<std::uint8_t>(amount);
      if (instr.rs != 0) {
        regs[instr.rs] = static_cast<std::int32_t>(
            (static_cast<std::uint32_t>(regs[instr.rs]) & ~31u) | amount);
      }
      if (info.format == isa::Format::kI || info.format == isa::Format::kLui) {
        instr.imm = info.imm_is_signed && info.format == isa::Format::kI
                        ? static_cast<std::int16_t>(rng())
                        : static_cast<std::int32_t>(rng() & 0xFFFFu);
      }
      const DecodedOp op = decode_op(instr);
      kinds.insert(op.kind);
      AluInputs in;
      in.a = regs[instr.rs];
      in.b = op.imm_operand() ? instr.imm : regs[instr.rt];
      in.acc = regs[instr.rd];
      in.shamt = instr.shamt;
      const auto read = [&regs](unsigned reg) { return regs[reg]; };
      ASSERT_EQ(alu_kind_eval(op, read), alu_eval(instr.op, in))
          << "trial " << trial;
    }
  }
  EXPECT_EQ(kinds.size(), 8u);  // kAlu .. kAddi
}

/// Words no opcode decodes: the halt group with a junk funct, an undefined
/// SPECIAL funct, and an undefined primary opcode.
constexpr std::uint32_t kInvalidWords[] = {0xFFFF'FFFFu, 0x0000'003Fu,
                                           0xC000'0000u};
constexpr std::uint32_t kCodeBase = 0x1000;

TEST(DecodeOp, InvalidWordsYieldNullInfo) {
  for (const std::uint32_t word : kInvalidWords) {
    const DecodedOp op = decode_op(isa::decode(word));
    EXPECT_EQ(op.info(), nullptr) << hex32(word);
    EXPECT_EQ(op.kind, DecodedOp::Kind::kInvalid) << hex32(word);
    EXPECT_EQ(op.srcs.count, 0u) << hex32(word);
    EXPECT_EQ(op.dest, 0u) << hex32(word);
    EXPECT_FALSE(op.is_control()) << hex32(word);
  }
}

TEST(DecodeOp, EveryEngineTrapsOnInvalidWords) {
  // addi; <word>; halt. From the image, memory holds a valid nop where the
  // image holds the invalid record; from memory, there is no image.
  const std::vector<Instruction> code = {b::addi(1, 0, 5), Instruction{},
                                         b::halt()};
  const DecodedImage image(kCodeBase, code);
  for (const std::uint32_t word : kInvalidWords) {
    for (const bool use_image : {true, false}) {
      SCOPED_TRACE(hex32(word) + (use_image ? " (image)" : " (memory)"));
      mem::Memory memory;
      memory.load_words(kCodeBase, std::vector<std::uint32_t>{
                                       isa::encode(code[0]),
                                       use_image ? 0u : word,
                                       isa::encode(code[2])});
      Iss iss(memory);
      if (use_image) iss.set_code_image(image);
      iss.set_pc(kCodeBase);
      iss.step();
      EXPECT_EQ(iss.regs().read(1), 5);
      EXPECT_THROW(iss.step(), SimError);
      EXPECT_EQ(iss.pc(), kCodeBase + 4);
      EXPECT_EQ(iss.stats().instructions, 1u);

      for (const PipelineConfig& config : test::all_pipeline_configs()) {
        Pipeline pipe(memory, config);
        if (use_image) pipe.set_code_image(image);
        pipe.set_pc(kCodeBase);
        EXPECT_THROW(pipe.run(100), SimError);
        EXPECT_EQ(pipe.stats().instructions, 1u);
      }
    }
  }
}

TEST(DecodeOp, SummaryTierBailsOnInvalidWords) {
  // A ZOLClite loop of ten passes over a three-word body; its middle word
  // is a nop (the control: the tier engages) or an invalid word (the tier
  // must decline with kTrap before executing anything).
  const auto attempt = [](const DecodedImage* image, std::uint32_t middle) {
    mem::Memory memory;
    memory.load_words(kCodeBase, std::vector<std::uint32_t>{
                                     isa::encode(b::addi(2, 2, 1)), middle,
                                     isa::encode(b::addi(3, 3, 1)),
                                     isa::encode(b::halt())});
    zolc::ZolcController ctrl(zolc::ZolcVariant::kLite);
    zolc::LoopEntry loop;
    loop.initial = 0;
    loop.final = 10;
    loop.step = 1;
    loop.index_rf = 1;
    loop.valid = true;
    ctrl.init_write(isa::Opcode::kZolwLp0, 0, loop.pack_word0());
    ctrl.init_write(isa::Opcode::kZolwLp1, 0, loop.pack_word1());
    zolc::TaskEntry task;
    task.end_pc_ofs = 2;
    task.is_last = true;
    task.valid = true;
    ctrl.init_write(isa::Opcode::kZolwTe, 0, task.pack());
    ctrl.init_write(isa::Opcode::kZolwTs, 0, 0);
    ctrl.activate(0, kCodeBase);
    RegFile regs;
    LoopSummarizer summarizer;
    const LoopSummarizer::Replay replay =
        summarizer.try_engage(ctrl, image, memory, regs, kCodeBase, 1000);
    return std::pair{replay, summarizer.stats()};
  };
  const std::uint32_t nop = isa::encode(b::nop());
  const auto [engaged, engaged_stats] = attempt(nullptr, nop);
  EXPECT_TRUE(engaged.engaged);
  EXPECT_EQ(engaged_stats.total_bailouts(), 0u);

  const auto expect_trap_bailout = [](const LoopSummarizer::Replay& replay,
                                      const FastPathStats& stats) {
    EXPECT_FALSE(replay.engaged);
    EXPECT_EQ(replay.instructions, 0u);
    EXPECT_EQ(replay.resume_pc, kCodeBase);
    EXPECT_EQ(stats.bailout(BailoutReason::kTrap), 1u);
  };
  // From the image: memory holds the nop, the image the invalid record.
  const std::vector<Instruction> bad = {b::addi(2, 2, 1), Instruction{},
                                        b::addi(3, 3, 1), b::halt()};
  const DecodedImage image(kCodeBase, bad);
  const auto [from_image, image_stats] = attempt(&image, nop);
  expect_trap_bailout(from_image, image_stats);
  // From memory.
  for (const std::uint32_t word : kInvalidWords) {
    SCOPED_TRACE(hex32(word));
    const auto [from_memory, memory_stats] = attempt(nullptr, word);
    expect_trap_bailout(from_memory, memory_stats);
  }
}

TEST(ExecMisc, ZolcInstructionWithoutAccelTraps) {
  std::vector<isa::Instruction> prog;
  prog.push_back(b::zoloff());
  prog.push_back(b::halt());
  EXPECT_THROW(run_iss(prog), SimError);
}

TEST(ExecMisc, RunHonorsStepLimit) {
  // Infinite loop: j self.
  const std::uint32_t base = 0x1000;
  std::vector<isa::Instruction> prog;
  prog.push_back(b::j(base));
  mem::Memory memory;
  test::load_program(memory, base, prog);
  Iss iss(memory);
  iss.set_pc(base);
  EXPECT_THROW(iss.run(1000), SimError);
}

TEST(ExecMisc, HaltStopsExecution) {
  std::vector<isa::Instruction> prog;
  prog.push_back(b::addi(1, 0, 1));
  prog.push_back(b::halt());
  prog.push_back(b::addi(1, 0, 99));  // must not execute
  const auto r = run_iss(prog);
  EXPECT_EQ(r.regs.read(1), 1);
  EXPECT_EQ(r.stats.instructions, 2u);
}

}  // namespace
}  // namespace zolcsim::cpu
