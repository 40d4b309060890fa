#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/contracts.hpp"
#include "isa/build.hpp"
#include "isa/disasm.hpp"
#include "isa/encoding.hpp"
#include "sim_test_util.hpp"

namespace zolcsim::isa {
namespace {

namespace b = build;
using test::representative_instructions;

class RoundTrip : public ::testing::TestWithParam<Instruction> {};

TEST_P(RoundTrip, EncodeDecodeIsIdentity) {
  const Instruction original = GetParam();
  const std::uint32_t word = encode(original);
  const Instruction decoded = decode(word);
  EXPECT_EQ(decoded, original) << "word=" << word << " op="
                               << opcode_info(original.op).mnemonic;
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, RoundTrip, ::testing::ValuesIn(representative_instructions()),
    [](const ::testing::TestParamInfo<Instruction>& info) {
      std::string name(opcode_info(info.param.op).mnemonic);
      for (char& c : name) {
        if (c == '.') c = '_';
      }
      return name + "_" + std::to_string(info.index);
    });

TEST(Coverage, RepresentativeSetCoversEveryOpcode) {
  std::vector<bool> seen(static_cast<std::size_t>(Opcode::kOpcodeCount_), false);
  for (const Instruction& instr : representative_instructions()) {
    seen[static_cast<std::size_t>(instr.op)] = true;
  }
  for (std::size_t i = 1; i < seen.size(); ++i) {
    EXPECT_TRUE(seen[i]) << "opcode index " << i << " ("
                         << opcode_info(static_cast<Opcode>(i)).mnemonic
                         << ") missing from the round-trip suite";
  }
}

TEST(Decode, InvalidWordsYieldInvalid) {
  EXPECT_FALSE(decode(0xFFFF'FFFFu).valid());           // halt group, junk funct
  EXPECT_FALSE(decode(0x0000'003Fu).valid());           // SPECIAL, undefined funct
  EXPECT_FALSE(decode(0x7000'0000u).valid());           // undefined primary 0x1C+? (0x1C<<26 is DSP)... 0x70000000>>26=0x1C
  EXPECT_FALSE(decode(0xC000'0000u).valid());           // primary 0x30 undefined
}

TEST(Decode, ZeroWordIsCanonicalNop) {
  const Instruction instr = decode(0);
  EXPECT_TRUE(instr.valid());
  EXPECT_TRUE(is_nop(instr));
}

TEST(Encode, RejectsOutOfRangeImmediates) {
  EXPECT_THROW((void)encode(b::addi(1, 2, 40000)), ContractViolation);
  EXPECT_THROW((void)encode(b::addi(1, 2, -40000)), ContractViolation);
  EXPECT_THROW((void)encode(b::ori(1, 2, -1)), ContractViolation);  // unsigned imm
}

TEST(OpcodeInfo, StorePropertiesAreConsistent) {
  for (Opcode op : {Opcode::kSb, Opcode::kSh, Opcode::kSw}) {
    const OpcodeInfo& info = opcode_info(op);
    EXPECT_TRUE(info.is_store);
    EXPECT_TRUE(info.reads_rt);
    EXPECT_FALSE(info.writes_rt);
  }
}

TEST(OpcodeInfo, DbneReadsAndWritesCounter) {
  const OpcodeInfo& info = opcode_info(Opcode::kDbne);
  EXPECT_TRUE(info.reads_rs);
  EXPECT_TRUE(info.writes_rs);
  EXPECT_TRUE(info.is_cond_branch);
}

TEST(Operands, SourceAndDestRegs) {
  EXPECT_EQ(dest_reg(b::add(5, 6, 7)).value(), 5);
  EXPECT_EQ(dest_reg(b::addi(9, 1, 4)).value(), 9);
  EXPECT_EQ(dest_reg(b::dbne(3, -1)).value(), 3);
  EXPECT_EQ(dest_reg(b::jal(0x1000)).value(), 31);
  EXPECT_FALSE(dest_reg(b::sw(1, 0, 2)).has_value());
  EXPECT_FALSE(dest_reg(b::beq(1, 2, 3)).has_value());
  EXPECT_FALSE(dest_reg(b::add(0, 1, 2)).has_value());  // $zero dest

  const SourceRegs mac_srcs = source_regs(b::mac(4, 5, 6));
  EXPECT_EQ(mac_srcs.count, 3);  // rs, rt, and the accumulator rd

  const SourceRegs sw_srcs = source_regs(b::sw(1, 0, 2));
  EXPECT_EQ(sw_srcs.count, 2);
}

TEST(Targets, BranchTargetArithmetic) {
  EXPECT_EQ(branch_target(b::beq(0, 0, -1), 0x1000), 0x1000u);  // self loop
  EXPECT_EQ(branch_target(b::beq(0, 0, 0), 0x1000), 0x1004u);
  EXPECT_EQ(branch_target(b::beq(0, 0, 3), 0x1000), 0x1010u);
  EXPECT_EQ(branch_target(b::beq(0, 0, -5), 0x1010), 0x1000u);
}

TEST(Targets, JumpTargetRegionForm) {
  EXPECT_EQ(jump_target(b::j(0x0123'4560), 0x1000), 0x0123'4560u);
}

TEST(Disasm, GoldenStrings) {
  EXPECT_EQ(disassemble(b::add(8, 9, 10), 0), "add $t0, $t1, $t2");
  EXPECT_EQ(disassemble(b::addi(4, 0, -7), 0), "addi $a0, $zero, -7");
  EXPECT_EQ(disassemble(b::lw(2, 16, 29), 0), "lw $v0, 16($sp)");
  EXPECT_EQ(disassemble(b::sw(2, -4, 30), 0), "sw $v0, -4($fp)");
  EXPECT_EQ(disassemble(b::beq(1, 2, -1), 0x1000), "beq $at, $v0, 0x00001000");
  EXPECT_EQ(disassemble(b::sll(1, 1, 4), 0), "sll $at, $at, 4");
  EXPECT_EQ(disassemble(b::nop(), 0), "nop");
  EXPECT_EQ(disassemble(b::halt(), 0), "halt");
  EXPECT_EQ(disassemble(b::dbne(9, -8), 0x2000),
            "dbne $t1, 0x00001FE4");
  EXPECT_EQ(disassemble(b::zoloff(), 0), "zoloff");
  EXPECT_EQ(disassemble(b::zolon(2, 9), 0), "zolon 2, $t1");
  EXPECT_EQ(disassemble_word(encode(b::mac(1, 2, 3)), 0),
            "mac $at, $v0, $v1");
  EXPECT_EQ(disassemble_word(0xFFFFFFFF, 0), "<invalid>");

  // Every opcode: the listing names its mnemonic, and disassembling the
  // encoded word matches disassembling the instruction.
  const std::uint32_t pc = 0x2000;
  for (const Instruction& instr : representative_instructions()) {
    const std::string_view mnemonic = opcode_info(instr.op).mnemonic;
    const std::string text = disassemble(instr, pc);
    EXPECT_EQ(text.compare(0, mnemonic.size(), mnemonic), 0)
        << text << " does not start with " << mnemonic;
    EXPECT_EQ(disassemble_word(encode(instr), pc), text);
  }
}

TEST(Regs, NamesAreDistinct) {
  EXPECT_EQ(reg_name(0), "$zero");
  EXPECT_EQ(reg_name(29), "$sp");
  EXPECT_EQ(reg_name(31), "$ra");
  for (unsigned r = 0; r < kNumRegs; ++r) {
    EXPECT_EQ(reg_name(r).front(), '$');
    for (unsigned q = 0; q < r; ++q) EXPECT_NE(reg_name(q), reg_name(r));
  }
}

TEST(ControlFlow, Classification) {
  EXPECT_TRUE(is_control_flow(b::beq(0, 0, 1)));
  EXPECT_TRUE(is_control_flow(b::j(0)));
  EXPECT_TRUE(is_control_flow(b::jr(31)));
  EXPECT_TRUE(is_control_flow(b::dbne(1, -1)));
  EXPECT_FALSE(is_control_flow(b::add(1, 2, 3)));
  EXPECT_FALSE(is_control_flow(b::halt()));
}

}  // namespace
}  // namespace zolcsim::isa
